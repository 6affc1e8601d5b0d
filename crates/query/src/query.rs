//! The query graph representation.

use std::fmt;

use ceg_graph::LabelId;

use crate::mask::EdgeMask;
use crate::VarId;

/// One query edge: `src -label-> dst` between two query variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryEdge {
    pub src: VarId,
    pub dst: VarId,
    pub label: LabelId,
}

impl QueryEdge {
    pub fn new(src: VarId, dst: VarId, label: LabelId) -> Self {
        QueryEdge { src, dst, label }
    }

    /// True if `v` is one of the endpoints.
    #[inline]
    pub fn touches(&self, v: VarId) -> bool {
        self.src == v || self.dst == v
    }

    /// The endpoint other than `v` (panics if `v` is not an endpoint).
    #[inline]
    pub fn other(&self, v: VarId) -> VarId {
        if self.src == v {
            self.dst
        } else {
            debug_assert_eq!(self.dst, v);
            self.src
        }
    }
}

/// An edge-labeled subgraph query over variables `0..num_vars`.
///
/// Queries are restricted to at most 32 edges and 32 variables so that
/// edge subsets fit in an [`EdgeMask`] and variable sets in a `u32`
/// bitmask; the paper's largest workload query has 12 edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryGraph {
    num_vars: VarId,
    edges: Vec<QueryEdge>,
}

impl QueryGraph {
    /// Most edges a query may have: an edge subset is an [`EdgeMask`].
    pub const MAX_EDGES: usize = 32;
    /// Most variables a query may have: a variable set is a `u32` mask.
    pub const MAX_VARS: VarId = 32;
    /// Most connected edge subsets a query may have and still be
    /// estimated: CEG_O has one node per connected subset, and 32 edges
    /// admit up to 2^32 of them. The paper's largest query has 12 edges
    /// (at most 4,095 subsets); a 16-edge star has 65,535.
    pub const MAX_CONNECTED_SUBSETS: usize = 1 << 16;

    /// Build a query; panics on malformed input (self-loops are allowed,
    /// out-of-range variables, >32 edges and >32 variables are not).
    pub fn new(num_vars: VarId, edges: Vec<QueryEdge>) -> Self {
        assert!(
            edges.len() <= Self::MAX_EDGES,
            "queries are limited to 32 edges"
        );
        assert!(
            num_vars <= Self::MAX_VARS,
            "queries are limited to 32 variables"
        );
        for e in &edges {
            assert!(
                e.src < num_vars && e.dst < num_vars,
                "edge {:?} references a variable outside 0..{}",
                e,
                num_vars
            );
        }
        QueryGraph { num_vars, edges }
    }

    /// Number of query variables (attributes).
    #[inline]
    pub fn num_vars(&self) -> VarId {
        self.num_vars
    }

    /// Number of query edges (relations).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The query edges in declaration order.
    #[inline]
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// Edge at position `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> QueryEdge {
        self.edges[i]
    }

    /// Bitmask with every query edge set.
    #[inline]
    pub fn full_mask(&self) -> EdgeMask {
        EdgeMask::full(self.num_edges())
    }

    /// Bitmask of variables touched by the edges in `mask` (bit `v` set if
    /// variable `v` appears as an endpoint).
    pub fn vars_of(&self, mask: EdgeMask) -> u32 {
        let mut vars = 0u32;
        for i in mask.iter() {
            let e = self.edges[i];
            vars |= 1 << e.src;
            vars |= 1 << e.dst;
        }
        vars
    }

    /// Variables of the whole query as a bitmask.
    pub fn all_vars(&self) -> u32 {
        self.vars_of(self.full_mask())
    }

    /// Indices of edges incident to variable `v`.
    pub fn edges_at(&self, v: VarId) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.touches(v))
            .map(|(i, _)| i)
    }

    /// Degree of variable `v` in the query graph (number of incident edges).
    pub fn var_degree(&self, v: VarId) -> usize {
        self.edges_at(v).count()
    }

    /// Join variables: variables incident to ≥ 2 query edges.
    pub fn join_vars(&self) -> Vec<VarId> {
        (0..self.num_vars)
            .filter(|&v| self.var_degree(v) >= 2)
            .collect()
    }

    /// True if the edge set in `mask` induces a connected (multi)graph when
    /// edge directions are ignored. The empty mask counts as connected.
    pub fn is_connected_mask(&self, mask: EdgeMask) -> bool {
        let mut edges = mask.iter();
        let Some(first) = edges.next() else {
            return true;
        };
        let mut visited_edges = EdgeMask::single(first);
        let mut frontier_vars = (1u32 << self.edges[first].src) | (1 << self.edges[first].dst);
        loop {
            let mut grew = false;
            for i in mask.iter() {
                if visited_edges.contains(i) {
                    continue;
                }
                let e = self.edges[i];
                if frontier_vars & ((1 << e.src) | (1 << e.dst)) != 0 {
                    visited_edges = visited_edges.insert(i);
                    frontier_vars |= (1 << e.src) | (1 << e.dst);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        visited_edges == mask
    }

    /// True if the whole query is connected. The paper assumes connected
    /// queries (Section 4.2).
    pub fn is_connected(&self) -> bool {
        if self.edges.is_empty() {
            return true;
        }
        // The mask check covers edge-connectivity; isolated variables also
        // make a query disconnected.
        self.is_connected_mask(self.full_mask())
            && (0..self.num_vars).all(|v| self.var_degree(v) > 0 || self.num_vars == 1)
    }

    /// Enumerate all connected non-empty edge subsets, in increasing
    /// cardinality order (and increasing mask order within one
    /// cardinality). These are the CEG_O vertices (Section 4.2).
    pub fn connected_subsets(&self) -> Vec<EdgeMask> {
        self.enumerate_connected(self.num_edges(), usize::MAX)
            .expect("no limit was set")
    }

    /// The connected subsets of at most `max_edges` edges, in the order
    /// of [`QueryGraph::connected_subsets`] — the enumeration stops after
    /// level `max_edges` instead of filtering the full answer.
    pub fn connected_subsets_up_to(&self, max_edges: usize) -> Vec<EdgeMask> {
        self.enumerate_connected(max_edges, usize::MAX)
            .expect("no limit was set")
    }

    /// [`QueryGraph::connected_subsets`], or `None` once the query turns
    /// out to have more than [`QueryGraph::MAX_CONNECTED_SUBSETS`] of
    /// them. The enumeration gives up as it passes the limit, so a
    /// hostile 24-edge star costs milliseconds and a few megabytes, not
    /// 2^24 CEG_O nodes.
    pub fn connected_subsets_within_limit(&self) -> Option<Vec<EdgeMask>> {
        self.enumerate_connected(self.num_edges(), Self::MAX_CONNECTED_SUBSETS)
    }

    /// Level by level: the connected subsets of k + 1 edges are those of
    /// k edges extended by one adjacent edge, each reached once per edge
    /// it can shed while staying connected, so a sort + dedup per level
    /// is the "seen" set. One buffer holds the answer and the level
    /// under construction at its tail; memory follows the answer, never
    /// 2^m. `None` as soon as more than `limit` subsets exist.
    fn enumerate_connected(&self, max_edges: usize, limit: usize) -> Option<Vec<EdgeMask>> {
        if max_edges == 0 {
            return Some(Vec::new());
        }
        let mut out: Vec<EdgeMask> = (0..self.num_edges()).map(EdgeMask::single).collect();
        // `out[level_start..]` is the level of `size`-edge subsets.
        let (mut level_start, mut size) = (0, 1);
        loop {
            let level_end = out.len();
            if level_end > limit {
                return None;
            }
            if size == max_edges || level_start == level_end {
                return Some(out);
            }
            // A subset of `size + 1` edges is pushed at most `size + 1`
            // times, so a tail longer than this already holds more
            // distinct subsets than the limit leaves room for.
            let tail_cap = (limit - level_end).saturating_mul(size + 1);
            for at in level_start..level_end {
                let mask = out[at];
                let vars = self.vars_of(mask);
                for (i, e) in self.edges.iter().enumerate() {
                    if !mask.contains(i) && vars & ((1 << e.src) | (1 << e.dst)) != 0 {
                        out.push(mask.insert(i));
                    }
                }
                if out.len() - level_end > tail_cap {
                    return None;
                }
            }
            out[level_end..].sort_unstable();
            let mut kept = level_end;
            for at in level_end..out.len() {
                if at == level_end || out[at] != out[kept - 1] {
                    out[kept] = out[at];
                    kept += 1;
                }
            }
            out.truncate(kept);
            (level_start, size) = (level_end, size + 1);
        }
    }

    /// Extract the sub-query induced by `mask` as a standalone query with
    /// densely renumbered variables. Returns the sub-query and the map from
    /// new variable ids to the original ones.
    pub fn subquery(&self, mask: EdgeMask) -> (QueryGraph, Vec<VarId>) {
        let mut old_vars: Vec<VarId> = Vec::new();
        for i in mask.iter() {
            let e = self.edges[i];
            for v in [e.src, e.dst] {
                if !old_vars.contains(&v) {
                    old_vars.push(v);
                }
            }
        }
        old_vars.sort_unstable();
        let renumber = |v: VarId| old_vars.iter().position(|&x| x == v).unwrap() as VarId;
        let edges = mask
            .iter()
            .map(|i| {
                let e = self.edges[i];
                QueryEdge::new(renumber(e.src), renumber(e.dst), e.label)
            })
            .collect();
        (QueryGraph::new(old_vars.len() as VarId, edges), old_vars)
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q[{} vars;", self.num_vars)?;
        for (i, e) in self.edges.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}a{}-{}->a{}", e.src, e.label, e.dst)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3-path: a0 -0-> a1 -1-> a2.
    fn path3() -> QueryGraph {
        QueryGraph::new(3, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(1, 2, 1)])
    }

    /// Triangle: a0 -> a1 -> a2 -> a0, labels 0, 1, 2.
    fn triangle() -> QueryGraph {
        QueryGraph::new(
            3,
            vec![
                QueryEdge::new(0, 1, 0),
                QueryEdge::new(1, 2, 1),
                QueryEdge::new(2, 0, 2),
            ],
        )
    }

    #[test]
    fn vars_of_masks() {
        let q = path3();
        assert_eq!(q.vars_of(EdgeMask::single(0)), 0b011);
        assert_eq!(q.vars_of(EdgeMask::single(1)), 0b110);
        assert_eq!(q.all_vars(), 0b111);
    }

    #[test]
    fn connectivity_of_masks() {
        let q = QueryGraph::new(
            4,
            vec![
                QueryEdge::new(0, 1, 0),
                QueryEdge::new(2, 3, 1),
                QueryEdge::new(1, 2, 2),
            ],
        );
        // edges 0 and 1 alone are disconnected; adding edge 2 connects them.
        assert!(!q.is_connected_mask(EdgeMask::from_bits(0b011)));
        assert!(q.is_connected_mask(EdgeMask::from_bits(0b111)));
        assert!(q.is_connected_mask(EdgeMask::empty()));
        assert!(q.is_connected());
    }

    #[test]
    fn connected_subsets_of_triangle() {
        let q = triangle();
        let subs = q.connected_subsets();
        // every non-empty subset of a triangle is connected: 7 subsets.
        assert_eq!(subs.len(), 7);
        // ordered by cardinality
        assert!(subs.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn connected_subsets_of_disconnected_pairs() {
        let q = QueryGraph::new(
            4,
            vec![
                QueryEdge::new(0, 1, 0),
                QueryEdge::new(2, 3, 1),
                QueryEdge::new(1, 2, 2),
            ],
        );
        let subs = q.connected_subsets();
        // {0},{1},{2},{0,2},{1,2},{0,1,2} — but not {0,1}.
        assert_eq!(subs.len(), 6);
        assert!(!subs.contains(&EdgeMask::from_bits(0b011)));
    }

    #[test]
    fn subquery_renumbers_vars() {
        let q = path3();
        let (sub, vars) = q.subquery(EdgeMask::single(1));
        assert_eq!(sub.num_vars(), 2);
        assert_eq!(sub.edges(), &[QueryEdge::new(0, 1, 1)]);
        assert_eq!(vars, vec![1, 2]);
    }

    #[test]
    fn join_vars_of_path() {
        let q = path3();
        assert_eq!(q.join_vars(), vec![1]);
        assert_eq!(triangle().join_vars(), vec![0, 1, 2]);
    }

    #[test]
    fn degree_and_edges_at() {
        let q = triangle();
        assert_eq!(q.var_degree(0), 2);
        let at1: Vec<_> = q.edges_at(1).collect();
        assert_eq!(at1, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "references a variable")]
    fn out_of_range_var_panics() {
        QueryGraph::new(2, vec![QueryEdge::new(0, 5, 0)]);
    }

    #[test]
    #[should_panic(expected = "32 variables")]
    fn more_variables_than_mask_bits_panics() {
        let edges = (0..32).map(|i| QueryEdge::new(i, i + 1, 0)).collect();
        QueryGraph::new(33, edges);
    }

    #[test]
    fn connected_subsets_cost_the_answer_not_two_to_the_edges() {
        // The longest path the masks hold: 31 edges over 32 variables. Its
        // connected subsets are its 31 * 32 / 2 contiguous runs; a table
        // indexed by mask would be 2^31 entries.
        let q = QueryGraph::new(32, (0..31).map(|i| QueryEdge::new(i, i + 1, 0)).collect());
        assert!(q.is_connected());
        assert_eq!(q.connected_subsets().len(), 31 * 32 / 2);
    }

    #[test]
    fn display_is_readable() {
        let q = path3();
        let s = q.to_string();
        assert!(s.contains("a0-0->a1"));
        assert!(s.contains("a1-1->a2"));
    }

    #[test]
    fn connected_subsets_up_to_limits_size() {
        let q = triangle();
        let subs = q.connected_subsets_up_to(2);
        assert_eq!(subs.len(), 6); // 3 singletons + 3 pairs
    }

    #[test]
    fn connected_subsets_up_to_is_the_filtered_full_enumeration_on_every_template() {
        use crate::templates as t;
        let l = [0u16, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3];
        let mut queries = vec![
            t::path(1, &l[..1]),
            t::path(7, &l[..7]),
            t::star(6, &l[..6]),
            t::q5f(&l[..5]),
            t::cycle(3, &l[..3]),
            t::cycle(6, &l[..6]),
            t::diamond_cross(&l[..5]),
            t::clique4(&l[..6]),
            t::two_triangles(&l[..6]),
            t::square_triangle(&l[..7]),
            t::square_two_triangles(&l[..8]),
            t::petal(3, 2, &l[..6]),
            t::petal(3, 3, &l[..9]),
            t::flower(&l[..6]),
        ];
        for k in [6usize, 7, 8] {
            queries.extend((2..=k).map(|d| t::tree_depth(k, d, &l[..k])));
        }
        queries.extend((0..7).map(|i| t::job_template(i, &l[..t::job_template_size(i)])));
        for q in &queries {
            let all = q.connected_subsets();
            assert_eq!(q.connected_subsets_within_limit().as_ref(), Some(&all));
            for h in 0..=q.num_edges() + 1 {
                let filtered: Vec<EdgeMask> =
                    all.iter().copied().filter(|m| m.len() <= h).collect();
                assert_eq!(q.connected_subsets_up_to(h), filtered, "{q} h={h}");
            }
        }
    }

    #[test]
    fn enumeration_gives_up_past_the_connected_subset_limit() {
        let star = |k: usize| crate::templates::star(k, &vec![0; k]);
        // 2^16 - 1 non-empty subsets: the widest star still enumerated.
        let widest = star(16).connected_subsets_within_limit();
        assert_eq!(widest.map(|s| s.len()), Some((1 << 16) - 1));
        assert_eq!(star(17).connected_subsets_within_limit(), None);
        assert_eq!(star(24).connected_subsets_within_limit(), None);
        // The limit is on the answer, not the edge count: the longest
        // path has 496 subsets, and its first levels stay available.
        let path = QueryGraph::new(32, (0..31).map(|i| QueryEdge::new(i, i + 1, 0)).collect());
        assert!(path.connected_subsets_within_limit().is_some());
        assert_eq!(star(24).connected_subsets_up_to(2).len(), 24 + 276);
    }
}
