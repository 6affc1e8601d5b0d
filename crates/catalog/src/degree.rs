//! Maximum-degree statistics for the pessimistic estimators.
//!
//! MOLP (Section 5.1) consumes `deg(X, Y, R_i)` — the maximum, over values
//! `v` of attributes `X`, of the number of distinct `Y`-tuples of `R_i`
//! containing `v` — for every `X ⊆ Y ⊆ A_i`. We store these for every base
//! relation, and (Section 5.1.1) for the results of 2-edge joins, which are
//! treated as additional ternary relations so that MOLP uses a strict
//! superset of the statistics available to the optimistic estimators.

use ceg_graph::stats::{all_label_stats, LabelStats};
use ceg_graph::{FxHashMap, LabelId, LabeledGraph};
use ceg_query::{Pattern, QueryEdge, QueryGraph, VarId};

/// Attribute-subset mask within a small pattern (≤ 8 variables).
pub type AttrMaskSmall = u8;

/// Degree statistics of one small-join result, indexed by canonical
/// pattern variables: `deg[(x, y)]` = `deg(X, Y, J)` for attribute masks
/// `x ⊆ y`.
#[derive(Debug, Clone)]
pub struct JoinStats {
    num_vars: VarId,
    /// `|J|` — the join's cardinality.
    cardinality: u64,
    deg: FxHashMap<(AttrMaskSmall, AttrMaskSmall), u64>,
}

impl JoinStats {
    /// Compute the full degree table of `pattern` by enumerating its
    /// matches in `graph`. Returns `None` when the number of matches
    /// exceeds `budget` (the statistic is then simply unavailable, as with
    /// any bounded statistics-collection pass).
    pub fn compute(graph: &LabeledGraph, pattern: &Pattern, budget: u64) -> Option<JoinStats> {
        let q = pattern.to_query();
        let k = q.num_vars();
        assert!(k <= 4, "join statistics limited to small patterns");
        let mut matches: Vec<[u32; 4]> = Vec::new();
        if !join_edges(graph, q.edges(), 0, &mut [0; 4], &mut matches, budget) {
            return None;
        }

        let full: AttrMaskSmall = ((1u16 << k) - 1) as AttrMaskSmall;
        let mut deg: FxHashMap<(AttrMaskSmall, AttrMaskSmall), u64> = FxHashMap::default();
        let project = |row: &[u32; 4], mask: AttrMaskSmall| -> u128 {
            let mut packed: u128 = 0;
            for v in 0..k {
                if mask & (1 << v) != 0 {
                    packed = (packed << 32) | row[v as usize] as u128;
                }
            }
            packed | ((mask as u128) << 120) // disambiguate masks
        };

        for y in 1..=full {
            // distinct Y-projections
            let mut proj: Vec<u128> = matches.iter().map(|r| project(r, y)).collect();
            proj.sort_unstable();
            proj.dedup();
            deg.insert((0, y), proj.len() as u64);

            // per-X-value maxima, for every proper non-empty X ⊂ Y
            let mut x = (y - 1) & y;
            while x != 0 {
                let mut groups: FxHashMap<u128, u64> = FxHashMap::default();
                // group the *distinct* Y-tuples by X-value
                let mut tuples: Vec<(u128, u128)> = matches
                    .iter()
                    .map(|r| (project(r, y), project(r, x)))
                    .collect();
                tuples.sort_unstable();
                tuples.dedup();
                for (_, xv) in &tuples {
                    *groups.entry(*xv).or_insert(0) += 1;
                }
                let m = groups.values().copied().max().unwrap_or(0);
                deg.insert((x, y), m);
                x = (x - 1) & y;
            }
        }

        Some(JoinStats {
            num_vars: k,
            cardinality: matches.len() as u64,
            deg,
        })
    }

    /// `|J|`.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Number of canonical variables.
    pub fn num_vars(&self) -> VarId {
        self.num_vars
    }

    /// `deg(X, Y, J)` for attribute masks over the canonical variables.
    /// `x = 0` yields `|π_Y J|`; `x == y` is the trivial degree 1.
    pub fn deg(&self, x: AttrMaskSmall, y: AttrMaskSmall) -> Option<u64> {
        if x == y {
            return Some(1);
        }
        self.deg.get(&(x, y)).copied()
    }

    /// All stored `(x, y, deg)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (AttrMaskSmall, AttrMaskSmall, u64)> + '_ {
        self.deg.iter().map(|(&(x, y), &d)| (x, y, d))
    }
}

/// Materialize a small join edge by edge: extend `row` (the variables
/// of `bound` are set) over `edges` — through a neighbour list when one
/// endpoint of the next edge is bound, a membership check when both
/// are, the whole relation when neither is — and push every completed
/// row. `false` as soon as `out` holds `budget` rows.
fn join_edges(
    graph: &LabeledGraph,
    edges: &[QueryEdge],
    bound: AttrMaskSmall,
    row: &mut [u32; 4],
    out: &mut Vec<[u32; 4]>,
    budget: u64,
) -> bool {
    let Some((e, rest)) = edges.split_first() else {
        out.push(*row);
        return (out.len() as u64) < budget;
    };
    let (s, d) = (e.src as usize, e.dst as usize);
    let after = bound | 1 << s | 1 << d;
    match (bound & 1 << s != 0, bound & 1 << d != 0) {
        (true, true) => {
            !graph.has_edge(row[s], row[d], e.label)
                || join_edges(graph, rest, after, row, out, budget)
        }
        (true, false) => graph.out_neighbors(row[s], e.label).iter().all(|&v| {
            row[d] = v;
            join_edges(graph, rest, after, row, out, budget)
        }),
        (false, true) => graph.in_neighbors(row[d], e.label).iter().all(|&u| {
            row[s] = u;
            join_edges(graph, rest, after, row, out, budget)
        }),
        (false, false) => graph.edges(e.label).all(|(u, v)| {
            // A self-loop edge binds one variable: only `u -> u` rows.
            if s == d && u != v {
                return true;
            }
            (row[s], row[d]) = (u, v);
            join_edges(graph, rest, after, row, out, budget)
        }),
    }
}

/// Degree statistics of every base relation, plus (optionally) of the
/// 2-edge joins appearing in a workload.
#[derive(Debug, Clone)]
pub struct DegreeStats {
    labels: Vec<LabelStats>,
    joins: FxHashMap<Pattern, JoinStats>,
}

impl DegreeStats {
    /// Base-relation statistics only.
    pub fn build_base(graph: &LabeledGraph) -> Self {
        DegreeStats {
            labels: all_label_stats(graph),
            joins: FxHashMap::default(),
        }
    }

    /// Base statistics plus degree statistics of every connected 2-edge
    /// sub-join of the workload queries (Section 5.1.1). `budget` caps the
    /// per-join enumeration work.
    pub fn build_with_joins(graph: &LabeledGraph, queries: &[QueryGraph], budget: u64) -> Self {
        let mut stats = Self::build_base(graph);
        for q in queries {
            for mask in q.connected_subsets_up_to(2) {
                if mask.len() != 2 {
                    continue;
                }
                let pat = Pattern::of_subquery(q, mask);
                if stats.joins.contains_key(&pat) {
                    continue;
                }
                if let Some(js) = JoinStats::compute(graph, &pat, budget) {
                    stats.joins.insert(pat, js);
                }
            }
        }
        stats
    }

    /// Statistics of base relation `l` (panics on unknown label).
    pub fn label(&self, l: LabelId) -> &LabelStats {
        &self.labels[l as usize]
    }

    /// Statistics of base relation `l`, if the label exists.
    pub fn label_opt(&self, l: LabelId) -> Option<&LabelStats> {
        self.labels.get(l as usize)
    }

    /// Join statistics of a canonical 2-edge pattern, if collected.
    pub fn join(&self, pattern: &Pattern) -> Option<&JoinStats> {
        self.joins.get(pattern)
    }

    /// Number of relations.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Number of stored join-statistics entries.
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    /// Two-label graph: 0 -A-> {1,2,3}, {1,2} -B-> 4.
    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(0, 3, 0);
        b.add_edge(1, 4, 1);
        b.add_edge(2, 4, 1);
        b.build()
    }

    #[test]
    fn base_stats_cover_all_labels() {
        let s = DegreeStats::build_base(&toy());
        assert_eq!(s.num_labels(), 2);
        assert_eq!(s.label(0).cardinality, 3);
        assert_eq!(s.label(0).max_out_degree, 3);
        assert_eq!(s.label(1).max_in_degree, 2);
    }

    #[test]
    fn join_stats_cardinality() {
        // join A(a0,a1) ⋈ B(a1,a2): matches (0,1,4), (0,2,4) → |J| = 2
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let pat = Pattern::of_subquery(&q, q.full_mask());
        let js = JoinStats::compute(&g, &pat, 1 << 20).unwrap();
        assert_eq!(js.cardinality(), 2);
        assert_eq!(js.num_vars(), 3);
    }

    /// The join is materialized here, not by the counting kernel: every
    /// way two edges can meet (chain, fan-out, fan-in, parallel pair,
    /// self-loop) yields exactly the rows the kernel counts.
    #[test]
    fn join_rows_match_the_exact_count() {
        let mut b = GraphBuilder::new(5);
        for (s, d, l) in [(0, 1, 0), (0, 2, 0), (1, 2, 0), (2, 2, 0), (3, 0, 0)] {
            b.add_edge(s, d, l);
        }
        for (s, d, l) in [(0, 1, 1), (1, 2, 1), (2, 2, 1), (2, 4, 1), (1, 1, 1)] {
            b.add_edge(s, d, l);
        }
        let g = b.build();
        let e = QueryEdge::new;
        for edges in [
            vec![e(0, 1, 0), e(1, 2, 1)],
            vec![e(0, 1, 0), e(0, 2, 1)],
            vec![e(0, 2, 1), e(1, 2, 0)],
            vec![e(0, 1, 0), e(0, 1, 1)],
            vec![e(0, 1, 1), e(1, 0, 0)],
            vec![e(0, 0, 0), e(0, 1, 1)],
            vec![e(0, 1, 0), e(1, 1, 1)],
        ] {
            let pat = Pattern::canonical(&edges);
            let js = JoinStats::compute(&g, &pat, 1 << 20).unwrap();
            assert_eq!(
                js.cardinality(),
                ceg_exec::count(&g, &pat.to_query()),
                "{pat:?}"
            );
        }
    }

    #[test]
    fn join_degree_values_are_exact() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let (pat, map) = Pattern::canonical_with_map(q.edges());
        let js = JoinStats::compute(&g, &pat, 1 << 20).unwrap();
        let canon = |v: VarId| map.iter().find(|&&(o, _)| o == v).unwrap().1;
        let m = |vs: &[VarId]| -> u8 { vs.iter().map(|&v| 1u8 << canon(v)).sum() };
        // matches in original vars: (a0,a1,a2) ∈ {(0,1,4),(0,2,4)}
        // distinct a0 values: {0} → |π_{a0}| = 1
        assert_eq!(js.deg(0, m(&[0])), Some(1));
        // distinct a1 values: {1,2} → 2
        assert_eq!(js.deg(0, m(&[1])), Some(2));
        // deg(a0 → {a0,a1}): vertex 0 pairs with two a1 values → 2
        assert_eq!(js.deg(m(&[0]), m(&[0, 1])), Some(2));
        // deg(a2 → full): value 4 appears in both matches → 2
        assert_eq!(js.deg(m(&[2]), m(&[0, 1, 2])), Some(2));
        // full-mask projection = cardinality
        assert_eq!(js.deg(0, m(&[0, 1, 2])), Some(2));
    }

    #[test]
    fn trivial_degree_is_one() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let pat = Pattern::of_subquery(&q, q.full_mask());
        let js = JoinStats::compute(&g, &pat, 1 << 20).unwrap();
        assert_eq!(js.deg(0b11, 0b11), Some(1));
    }

    #[test]
    fn budget_exceeded_returns_none() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let pat = Pattern::of_subquery(&q, q.full_mask());
        assert!(JoinStats::compute(&g, &pat, 1).is_none());
    }

    #[test]
    fn build_with_joins_collects_subjoins() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let s = DegreeStats::build_with_joins(&g, std::slice::from_ref(&q), 1 << 20);
        assert_eq!(s.num_joins(), 1);
        let pat = Pattern::of_subquery(&q, q.full_mask());
        assert!(s.join(&pat).is_some());
    }
}
