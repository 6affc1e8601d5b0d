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

use ceg_catalog::{MarkovTable, ResolvedCards};
use ceg_query::cycles::cyclomatic_number;
use ceg_query::{EdgeMask, QueryGraph};

use crate::ceg::{Ceg, CegEdge};

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

    /// [`CegO::build`] from cards already resolved: the build reads the
    /// table through `resolved` only, so a caller holding a lock on the
    /// table can drop it first.
    pub fn from_resolved(query: &QueryGraph, resolved: ResolvedCards) -> Self {
        Self::build_full(query, resolved, CegOOptions::default(), |_, _| None)
    }

    fn build_full(
        query: &QueryGraph,
        resolved: ResolvedCards,
        options: CegOOptions,
        mut override_fn: impl FnMut(EdgeMask, &ExtInfo) -> Option<f64>,
    ) -> Self {
        let h = resolved.h();
        let m = query.num_edges();
        assert!(m >= 1, "queries must have at least one edge");

        // Node set: ∅ + all connected subsets, in cardinality order; the
        // candidate extension patterns are the nodes of 1..=h edges, and
        // their cards sit beside them.
        let nodes = resolved.nodes();
        let cards = resolved.cards();
        let top_mask = query.full_mask();
        let top = (nodes.len() - 1) as u32;
        assert_eq!(nodes[top as usize], top_mask, "queries must be connected");
        let cyc: Vec<usize> = nodes.iter().map(|&s| cyclomatic_number(query, s)).collect();

        let mut edges: Vec<CegEdge> = Vec::new();
        let mut ext_info: Vec<ExtInfo> = Vec::new();
        let mut candidate_edges: Vec<(CegEdge, ExtInfo)> = Vec::new();

        for (si, &s) in nodes[..top as usize].iter().enumerate() {
            candidate_edges.clear();
            for (e_mask, card_e) in nodes[1..cards.len()].iter().zip(&cards[1..]) {
                let d = e_mask.difference(s);
                if d.is_empty() {
                    continue;
                }
                let i_mask = e_mask.intersect(s);
                if s.is_empty() != i_mask.is_empty() {
                    // non-empty S must condition on a non-empty intersection
                    continue;
                }
                let s_next = s.union(d);
                // Rule 1: numerators use the largest joins available — the
                // first hop goes straight to a min(h, |Q|)-size sub-query,
                // later hops use exactly-h extension patterns.
                let required = if s.is_empty() {
                    h.min(m)
                } else {
                    h.min(s_next.len())
                };
                if options.size_h_numerators && e_mask.len() != required {
                    continue;
                }
                // E must be stored; I must be connected (a resolved node)
                // and stored.
                let Some(card_e) = *card_e else {
                    continue;
                };
                let Some(card_i) = resolved.card(i_mask) else {
                    continue;
                };
                // S′ must be a connected sub-query (a CEG node).
                let Some(to) = resolved.node_index(s_next) else {
                    continue;
                };
                let info = ExtInfo {
                    ext: *e_mask,
                    inter: i_mask,
                    closes_cycle: cyc[to] > cyc[si],
                };
                let default_rate = if card_e == 0 {
                    0.0
                } else {
                    card_e as f64 / card_i as f64
                };
                let rate = override_fn(s, &info).unwrap_or(default_rate);
                candidate_edges.push((
                    CegEdge {
                        from: si as u32,
                        to: to as u32,
                        rate,
                        tag: 0, // assigned below
                    },
                    info,
                ));
            }
            // Rule 2: early cycle closing.
            let any_closing =
                options.early_cycle_closing && candidate_edges.iter().any(|(_, i)| i.closes_cycle);
            for &(mut ce, info) in &candidate_edges {
                if any_closing && !info.closes_cycle {
                    continue;
                }
                ce.tag = ext_info.len() as u32;
                ext_info.push(info);
                edges.push(ce);
            }
        }

        let ceg = Ceg::new(nodes.len(), 0, top, edges);
        CegO {
            ceg,
            nodes: resolved.into_nodes(),
            ext_info,
        }
    }

    /// The underlying CEG (aggregation entry point).
    pub fn ceg(&self) -> &Ceg {
        &self.ceg
    }

    /// Node id → edge-subset mask.
    pub fn node_mask(&self, node: u32) -> EdgeMask {
        self.nodes[node as usize]
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
