//! CEG_O — the optimistic cardinality estimation graph (Section 4.2).
//!
//! Vertices are the connected edge-subsets of the query (plus `∅`); an
//! edge `S → S′` exists when some *extension pattern* `E` in the Markov
//! table satisfies `E ⊇ D = S′ \ S` with intersection `I = E ∩ S` also in
//! the table; its rate is `|E| / |I|` — the average-degree (uniformity +
//! conditional independence) assumption of the optimistic estimators.
//!
//! Two rules from prior work restrict the edge set:
//! 1. *size-h numerators*: `|E| = min(h, |S′|)` — formulas always condition
//!    on the largest joins the table stores;
//! 2. *early cycle closing*: if any extension of `S` closes a cycle, only
//!    cycle-closing extensions of `S` are kept.
//!
//! The edges come from one generator, node by node: it visits, for `S`,
//! only the extension patterns that share an edge with `S` (an index
//! from each query edge to the patterns containing it) and looks `S ∪ E`
//! and `E ∩ S` up within their size level. Two consumers read it:
//! [`CegO::build`] materialises the graph (figures, CEG_OCR, P*, best
//! paths), and [`CegO::estimate_resolved`] folds each node's edges into
//! one slot per node as they are generated — the serving path, which
//! keeps no edge list.

use std::time::Instant;

use ceg_catalog::{MarkovTable, ResolvedCards};
use ceg_query::cycles::{cyclomatic_number, is_acyclic};
use ceg_query::{EdgeMask, QueryGraph};

use crate::ceg::{extremum, relax, Aggr, Ceg, CegEdge, Heuristic};

/// Metadata of one CEG_O edge: which extension pattern produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtInfo {
    /// The extension pattern `E` (a connected ≤ h-edge subset).
    pub ext: EdgeMask,
    /// The intersection `I = E ∩ S` (the conditioning sub-query).
    pub inter: EdgeMask,
    /// True if this edge closes at least one cycle (`cyc(S′) > cyc(S)`).
    pub closes_cycle: bool,
}

/// Construction options — the two path-restriction rules from prior work
/// (Section 4.2). Both default to on; the ablation harness toggles them
/// to quantify their effect.
#[derive(Debug, Clone, Copy)]
pub struct CegOOptions {
    /// Rule 1: numerators must be the largest stored joins.
    pub size_h_numerators: bool,
    /// Rule 2: close cycles as early as possible.
    pub early_cycle_closing: bool,
}

impl Default for CegOOptions {
    fn default() -> Self {
        CegOOptions {
            size_h_numerators: true,
            early_cycle_closing: true,
        }
    }
}

/// CEG_O of one query over one Markov table.
#[derive(Debug, Clone)]
pub struct CegO {
    ceg: Ceg,
    /// Node id → edge subset (node 0 is `∅`, last node is the full query).
    nodes: Vec<EdgeMask>,
    /// Edge tag → extension metadata.
    ext_info: Vec<ExtInfo>,
}

impl CegO {
    /// Build the CEG_O of `query` given a Markov table of size `h =
    /// table.h()`. Panics if the query has more than
    /// [`QueryGraph::MAX_CONNECTED_SUBSETS`] connected sub-queries
    /// ([`MarkovTable::resolve`] is the check that returns instead).
    pub fn build(query: &QueryGraph, table: &MarkovTable) -> Self {
        Self::build_with_weights(query, table, |_, _| None)
    }

    /// Build with explicit rule toggles (ablation studies).
    pub fn build_with_options(
        query: &QueryGraph,
        table: &MarkovTable,
        options: CegOOptions,
    ) -> Self {
        Self::build_full(query, resolve(query, table), options, |_, _| None)
    }

    /// Build with an optional per-edge weight override: `override_fn(S,
    /// info)` may replace the default `|E| / |I|` rate. CEG_OCR is exactly
    /// this CEG with cycle-closing edges overridden by closing rates
    /// (Section 4.3).
    pub fn build_with_weights(
        query: &QueryGraph,
        table: &MarkovTable,
        override_fn: impl FnMut(EdgeMask, &ExtInfo) -> Option<f64>,
    ) -> Self {
        Self::build_full(
            query,
            resolve(query, table),
            CegOOptions::default(),
            override_fn,
        )
    }

    fn build_full(
        query: &QueryGraph,
        resolved: ResolvedCards,
        options: CegOOptions,
        mut override_fn: impl FnMut(EdgeMask, &ExtInfo) -> Option<f64>,
    ) -> Self {
        let num_nodes = resolved.nodes().len();
        let top = num_nodes - 1;
        let mut edges: Vec<CegEdge> = Vec::new();
        let mut ext_info: Vec<ExtInfo> = Vec::new();
        let mut gen = EdgeGen::new(query, &resolved, options);
        for si in 0..top {
            for out in gen.edges_from(si, &mut override_fn) {
                edges.push(CegEdge {
                    from: si as u32,
                    to: out.to,
                    rate: out.rate,
                    tag: ext_info.len() as u32,
                });
                ext_info.push(out.info);
            }
        }
        CegO {
            ceg: Ceg::new(num_nodes, 0, top as u32, edges),
            nodes: resolved.into_nodes(),
            ext_info,
        }
    }

    /// The estimate `CegO::build(query, table).ceg().estimate(heuristic)`
    /// gives, bit for bit, from cards already resolved and without
    /// building the graph: nodes are visited in index order — topological,
    /// since an edge always leads to a larger subset and the nodes are
    /// sorted by size — and each reached node's edges are folded into one
    /// `(hops, value)` slot per node as they are generated. Max and min
    /// merges commute, so the visit order does not move a bit.
    ///
    /// `Err` once `deadline` has passed; it is checked before each size
    /// level, so the overrun is at most one level's work.
    ///
    /// # Panics
    ///
    /// On [`Aggr::Avg`]: an average adds its paths in the materialised
    /// CEG's Kahn order, which only [`CegO::build`] has.
    pub fn estimate_resolved(
        query: &QueryGraph,
        resolved: &ResolvedCards,
        heuristic: Heuristic,
        deadline: Option<Instant>,
    ) -> Result<Option<f64>, DeadlinePassed> {
        assert!(
            heuristic.aggr != Aggr::Avg,
            "the streamed pass serves max and min only"
        );
        let best = extremum(heuristic.aggr == Aggr::Max, |x| x);
        let mut gen = EdgeGen::new(query, resolved, CegOOptions::default());
        let mut slots: Vec<Option<(usize, f64)>> = vec![None; resolved.nodes().len()];
        slots[0] = Some((0, 1.0));
        // The top (the one node of `m` edges) has no edges out.
        for size in 0..query.num_edges() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(DeadlinePassed);
            }
            for si in resolved.level(size) {
                let Some((hops, x)) = slots[si] else {
                    continue;
                };
                for out in gen.edges_from(si, &mut |_, _| None) {
                    let slot = &mut slots[out.to as usize];
                    relax(slot, heuristic.path_len, hops + 1, x * out.rate, &best);
                }
            }
        }
        Ok(slots[slots.len() - 1].map(|(_, x)| x))
    }

    /// The underlying CEG (aggregation entry point).
    pub fn ceg(&self) -> &Ceg {
        &self.ceg
    }

    /// Extension metadata of an edge tag.
    pub fn ext_info(&self, tag: u32) -> &ExtInfo {
        &self.ext_info[tag as usize]
    }

    /// All nodes (masks), bottom first.
    pub fn nodes(&self) -> &[EdgeMask] {
        &self.nodes
    }
}

/// The cards of `query`'s sub-patterns, or the documented panic past the
/// connected-subset limit.
fn resolve(query: &QueryGraph, table: &MarkovTable) -> ResolvedCards {
    table.resolve(query).unwrap_or_else(|| {
        panic!(
            "query has more than {} connected sub-queries",
            QueryGraph::MAX_CONNECTED_SUBSETS
        )
    })
}

/// [`CegO::estimate_resolved`] stopped: its deadline passed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePassed;

/// One kept CEG_O edge out of the node last asked for.
#[derive(Debug, Clone, Copy)]
struct OutEdge {
    /// The extension pattern's node index: edges leave a node in its
    /// ascending order.
    pattern: u32,
    to: u32,
    rate: f64,
    info: ExtInfo,
}

/// The one enumeration of CEG_O's edges, a node at a time.
///
/// The candidate extension patterns are the nodes of `1..=h` edges whose
/// card is stored. For `S = ∅` every candidate is offered. For any other
/// `S`, a candidate must meet `S` (`I = E ∩ S` is non-empty), so only the
/// patterns listed under an edge `f ∈ S` are visited, and a pattern is
/// taken from `f` only when `f` is the lowest edge of `I`, so it is
/// offered once. Lookups stay within a size level, and the kept edges
/// leave in ascending pattern order with `override_fn` called in that
/// order: the edge order, and so the Kahn order and the `avg` bits, that
/// `tests/golden_ceg_o.rs` pins.
struct EdgeGen<'r> {
    resolved: &'r ResolvedCards,
    options: CegOOptions,
    h: usize,
    m: usize,
    /// Cyclomatic number per node; empty for an acyclic query, where no
    /// extension closes a cycle.
    cyc: Vec<u8>,
    /// The candidates containing query edge `f` are
    /// `by_edge[by_edge_start[f]..by_edge_start[f + 1]]`, ascending.
    by_edge_start: [u32; QueryGraph::MAX_EDGES + 1],
    by_edge: Vec<u32>,
    /// The last node's kept edges; a node has at most one per candidate.
    out: Vec<OutEdge>,
}

impl<'r> EdgeGen<'r> {
    fn new(query: &QueryGraph, resolved: &'r ResolvedCards, options: CegOOptions) -> Self {
        let m = query.num_edges();
        assert!(m >= 1, "queries must have at least one edge");
        let nodes = resolved.nodes();
        assert_eq!(
            nodes[nodes.len() - 1],
            query.full_mask(),
            "queries must be connected"
        );
        let cyc = if is_acyclic(query) {
            Vec::new()
        } else {
            nodes
                .iter()
                .map(|&s| cyclomatic_number(query, s) as u8)
                .collect()
        };
        // A candidate has at most `h` edges, so one allocation holds them all.
        let cards = resolved.cards();
        let mut by_edge = Vec::with_capacity(resolved.h() * cards.len());
        let mut by_edge_start = [0u32; QueryGraph::MAX_EDGES + 1];
        for f in 0..m {
            let has_f = |&p: &usize| cards[p].is_some() && nodes[p].contains(f);
            by_edge.extend((1..cards.len()).filter(has_f).map(|p| p as u32));
            by_edge_start[f + 1] = by_edge.len() as u32;
        }
        EdgeGen {
            resolved,
            options,
            h: resolved.h(),
            m,
            cyc,
            by_edge_start,
            by_edge,
            out: Vec::with_capacity(resolved.cards().len()),
        }
    }

    /// The kept edges out of node `si`, in ascending pattern order.
    /// `override_fn(S, info)` may replace an edge's `|E| / |I|` rate; it
    /// sees every candidate, before rule 2 drops any.
    fn edges_from(
        &mut self,
        si: usize,
        override_fn: &mut impl FnMut(EdgeMask, &ExtInfo) -> Option<f64>,
    ) -> &[OutEdge] {
        self.out.clear();
        let s = self.resolved.nodes()[si];
        if s.is_empty() {
            for p in 1..self.resolved.cards().len() {
                self.out.extend(self.edge(si, s, p));
            }
        } else {
            for f in s.iter() {
                let (lo, hi) = (self.by_edge_start[f], self.by_edge_start[f + 1]);
                for &p in &self.by_edge[lo as usize..hi as usize] {
                    let i_mask = self.resolved.nodes()[p as usize].intersect(s);
                    if i_mask.bits().trailing_zeros() as usize == f {
                        self.out.extend(self.edge(si, s, p as usize));
                    }
                }
            }
            self.out.sort_unstable_by_key(|e| e.pattern);
        }
        let mut any_closing = false;
        for e in &mut self.out {
            e.rate = override_fn(s, &e.info).unwrap_or(e.rate);
            any_closing |= e.info.closes_cycle;
        }
        // Rule 2: early cycle closing.
        if any_closing && self.options.early_cycle_closing {
            self.out.retain(|e| e.info.closes_cycle);
        }
        &self.out
    }

    /// The edge candidate `p` gives node `si` = `s`, if there is one.
    fn edge(&self, si: usize, s: EdgeMask, p: usize) -> Option<OutEdge> {
        let resolved = self.resolved;
        let e_mask = resolved.nodes()[p];
        let d = e_mask.difference(s);
        if d.is_empty() {
            return None;
        }
        let s_next = s.union(d);
        // Rule 1: numerators use the largest joins available — the first
        // hop goes straight to a min(h, |Q|)-size sub-query, later hops
        // use exactly-h extension patterns.
        let required = if s.is_empty() {
            self.h.min(self.m)
        } else {
            self.h.min(s_next.len())
        };
        if self.options.size_h_numerators && e_mask.len() != required {
            return None;
        }
        // E must be stored; I must be connected (a resolved node) and
        // stored; S′ must be a connected sub-query (a CEG node).
        let card_e = resolved.cards()[p]?;
        let i_mask = e_mask.intersect(s);
        let card_i = resolved.card(i_mask)?;
        let to = resolved.node_index(s_next)?;
        let closes_cycle = !self.cyc.is_empty() && self.cyc[to] > self.cyc[si];
        Some(OutEdge {
            pattern: p as u32,
            to: to as u32,
            rate: if card_e == 0 {
                0.0
            } else {
                card_e as f64 / card_i as f64
            },
            info: ExtInfo {
                ext: e_mask,
                inter: i_mask,
                closes_cycle,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg::{Aggr, Heuristic, PathLen};
    use ceg_exec::count;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::templates;

    /// A small graph with labels A=0, B=1, C=2, D=3, E=4 arranged so the
    /// running-example queries are non-empty.
    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(20);
        // A: 0..3 -> hub 4, B: 4 -> 5,6
        b.add_edge(0, 4, 0);
        b.add_edge(1, 4, 0);
        b.add_edge(2, 4, 0);
        b.add_edge(3, 4, 0);
        b.add_edge(4, 5, 1);
        b.add_edge(4, 6, 1);
        // C edges from 5 and 6
        b.add_edge(5, 7, 2);
        b.add_edge(5, 8, 2);
        b.add_edge(6, 9, 2);
        // D edges
        b.add_edge(5, 10, 3);
        b.add_edge(6, 10, 3);
        b.add_edge(6, 11, 3);
        // E edges
        b.add_edge(5, 12, 4);
        b.add_edge(6, 12, 4);
        b.build()
    }

    #[test]
    fn exact_for_queries_that_fit_in_table() {
        // a query of exactly h edges is answered exactly
        let g = toy();
        let q = templates::path(2, &[0, 1]); // A -> B
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        for h in Heuristic::all() {
            let est = ceg.ceg().estimate(h).unwrap();
            assert!((est - count(&g, &q) as f64).abs() < 1e-9, "{}", h.name());
        }
    }

    #[test]
    fn three_path_estimate_is_markov_formula() {
        // h=2 on a 3-path: single formula |AB|·|BC|/|B|
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        let ab = count(&g, &templates::path(2, &[0, 1])) as f64;
        let bc = count(&g, &templates::path(2, &[1, 2])) as f64;
        let b_card = g.label_count(1) as f64;
        // paths: start at AB then extend C, or start at BC then extend A;
        // both give the same estimate by symmetry of the formula
        let expect = ab * bc / b_card;
        let est = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Max))
            .unwrap();
        assert!((est - expect).abs() < 1e-9, "est={est} expect={expect}");
    }

    #[test]
    fn q5f_has_multiple_distinct_estimates() {
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 3, 4]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        let vals = ceg.ceg().path_estimates(10_000);
        assert!(vals.len() >= 2, "expected multiple estimates, got {vals:?}");
        // max-aggr ≥ min-aggr
        let max = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Max))
            .unwrap();
        let min = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Min))
            .unwrap();
        assert!(max >= min);
        assert_eq!(vals.first().copied().unwrap(), min);
        assert_eq!(vals.last().copied().unwrap(), max);
    }

    #[test]
    fn h3_creates_hop_length_choices() {
        // with h=3 on Q5f, short-hop (2 hops) and long-hop (3 hops) paths
        // both exist (Figure 3)
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 3, 4]);
        let t = MarkovTable::build_for_query(&g, &q, 3);
        let ceg = CegO::build(&q, &t);
        let max_h = ceg.ceg().max_hops().unwrap();
        let min_h = ceg.ceg().min_hops().unwrap();
        assert!(max_h > min_h, "max={max_h} min={min_h}");
    }

    #[test]
    fn first_hop_uses_full_h_patterns() {
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 3, 4]);
        let t = MarkovTable::build_for_query(&g, &q, 3);
        let ceg = CegO::build(&q, &t);
        for e in ceg.ceg().edges() {
            if e.from == ceg.ceg().bottom() {
                let info = ceg.ext_info(e.tag);
                assert_eq!(info.ext.len(), 3, "first hops must be 3-patterns");
                assert!(info.inter.is_empty());
            }
        }
    }

    #[test]
    fn early_cycle_closing_prunes_non_closing_edges() {
        // triangle with h=2: once S = two edges of the triangle, the only
        // extension offered must close the cycle.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 2);
        b.add_edge(3, 4, 0);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let q = ceg_query::QueryGraph::new(
            3,
            vec![
                ceg_query::QueryEdge::new(0, 1, 0),
                ceg_query::QueryEdge::new(1, 2, 1),
                ceg_query::QueryEdge::new(0, 2, 2),
            ],
        );
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        // every edge into the top node must be cycle-closing
        for e in ceg.ceg().edges() {
            if e.to == ceg.ceg().top() {
                assert!(ceg.ext_info(e.tag).closes_cycle);
            }
        }
        // and estimates exist
        assert!(ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Max))
            .is_some());
    }

    #[test]
    fn weight_override_changes_rates() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build_with_weights(&q, &t, |_, _| Some(1.0));
        let est = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Max))
            .unwrap();
        assert_eq!(est, 1.0);
    }

    #[test]
    fn streamed_pass_answers_the_built_ceg_or_stops_at_its_deadline() {
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 3, 4]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let resolved = t.resolve(&q).unwrap();
        let h = Heuristic::new(PathLen::MaxHop, Aggr::Max);
        let built = CegO::build(&q, &t).ceg().estimate(h);
        assert_eq!(CegO::estimate_resolved(&q, &resolved, h, None), Ok(built));
        let passed = Some(std::time::Instant::now());
        assert_eq!(
            CegO::estimate_resolved(&q, &resolved, h, passed),
            Err(DeadlinePassed)
        );
    }

    #[test]
    fn zero_count_subquery_estimates_zero() {
        let g = toy();
        // B -> A path never matches (no A edge leaves B targets)
        let q = templates::path(3, &[1, 0, 1]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        let est = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::AllHops, Aggr::Max))
            .unwrap();
        assert_eq!(est, 0.0);
    }
}
