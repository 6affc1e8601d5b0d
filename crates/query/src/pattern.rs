//! Canonicalized small patterns — the keys of a Markov table.
//!
//! A Markov table (Section 4.1) stores the cardinality of every small join
//! (up to `h` edges). Two sub-queries that are identical up to variable
//! renaming have the same cardinality, so lookups go through a canonical
//! form: the lexicographically least edge list over all permutations of the
//! pattern's variables. Patterns have at most `h + 1 ≤ 4` variables in
//! practice (and we cap canonicalization at 8), so brute-force minimization
//! over permutations is cheap and — unlike hashing heuristics — exact.

use std::fmt;

use ceg_graph::LabelId;

use crate::query::{QueryEdge, QueryGraph};
use crate::VarId;

/// Maximum number of variables we canonicalize by brute force. `8! = 40320`
/// permutations, still trivial; the paper's statistics never exceed 4 vars.
const MAX_CANON_VARS: usize = 8;

/// A small connected pattern in canonical form.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    num_vars: VarId,
    /// Canonical, sorted edge list.
    edges: Vec<QueryEdge>,
}

/// Hashable key of a canonical pattern (the pattern itself is the key; this
/// alias documents intent at use sites).
pub type PatternKey = Pattern;

impl Pattern {
    /// Canonicalize a pattern given as an arbitrary edge list over
    /// arbitrary (possibly sparse) variable ids.
    pub fn canonical(edges: &[QueryEdge]) -> Self {
        Pattern::canonical_with_map(edges).0
    }

    /// Canonicalize and also return the mapping `(original var, canonical
    /// var)` realizing the canonical form. Statistics keyed per variable
    /// (e.g. small-join degree statistics, Section 5.1.1) are translated
    /// through this map.
    pub fn canonical_with_map(edges: &[QueryEdge]) -> (Self, Vec<(VarId, VarId)>) {
        let mut canon = Canonicalizer::default();
        let (vars, perm) = canon.run(edges.iter().copied());
        let map = vars
            .iter()
            .zip(&perm)
            .take(canon.pattern.num_vars as usize)
            .map(|(&orig, &to)| (orig, to))
            .collect();
        (canon.pattern, map)
    }

    /// Canonical form of the sub-query of `query` induced by an edge subset.
    pub fn of_subquery(query: &QueryGraph, mask: crate::EdgeMask) -> Self {
        let mut canon = Canonicalizer::default();
        canon.of_subquery(query, mask);
        canon.pattern
    }

    /// Number of variables.
    pub fn num_vars(&self) -> VarId {
        self.num_vars
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list.
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// View the pattern as a standalone query graph (for execution).
    pub fn to_query(&self) -> QueryGraph {
        QueryGraph::new(self.num_vars, self.edges.clone())
    }

    /// The labels used by the pattern, sorted with duplicates.
    pub fn labels(&self) -> Vec<LabelId> {
        let mut ls: Vec<LabelId> = self.edges.iter().map(|e| e.label).collect();
        ls.sort_unstable();
        ls
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P[")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}-{}->{}", e.src, e.label, e.dst)?;
        }
        write!(f, "]")
    }
}

/// Canonicalizes one pattern after another into the same buffers: a
/// caller that resolves all of a query's sub-patterns (a dozen per
/// estimate) touches the allocator for the first of them only.
#[derive(Debug, Default)]
pub struct Canonicalizer {
    /// The latest canonical form.
    pattern: Pattern,
    /// The input with its variables renumbered densely.
    dense: Vec<QueryEdge>,
    /// The permutation under trial.
    candidate: Vec<QueryEdge>,
}

impl Canonicalizer {
    /// Canonical form of the sub-query of `query` induced by `mask`,
    /// valid until the next call.
    pub fn of_subquery(&mut self, query: &QueryGraph, mask: crate::EdgeMask) -> &Pattern {
        self.run(mask.iter().map(|i| query.edge(i)));
        &self.pattern
    }

    /// Leave the canonical form of `edges` in `self.pattern`; returns the
    /// pattern's original variables (sorted) and, aligned with them, the
    /// canonical variable each maps to.
    fn run(
        &mut self,
        edges: impl Iterator<Item = QueryEdge>,
    ) -> ([VarId; MAX_CANON_VARS], [VarId; MAX_CANON_VARS]) {
        // Collect the distinct variables, sorted.
        let mut vars = [0 as VarId; MAX_CANON_VARS];
        let mut k = 0;
        self.dense.clear();
        for e in edges {
            for v in [e.src, e.dst] {
                if !vars[..k].contains(&v) {
                    assert!(
                        k < MAX_CANON_VARS,
                        "pattern with more than {MAX_CANON_VARS} variables exceeds canonicalization limit"
                    );
                    vars[k] = v;
                    k += 1;
                }
            }
            self.dense.push(e);
        }
        vars[..k].sort_unstable();
        // Dense renumber first so permutations are over 0..k.
        let dense_var = |v: VarId| vars[..k].iter().position(|&x| x == v).unwrap() as VarId;
        for e in &mut self.dense {
            *e = QueryEdge::new(dense_var(e.src), dense_var(e.dst), e.label);
        }

        // Brute-force minimum over permutations of variables; the first
        // permutation reaching the minimum is the one reported.
        let mut perm: [VarId; MAX_CANON_VARS] = std::array::from_fn(|v| v as VarId);
        let mut best_perm = perm;
        let mut found = false;
        let Canonicalizer {
            pattern,
            dense,
            candidate,
        } = self;
        pattern.num_vars = k as VarId;
        pattern.edges.clear();
        permute(&mut perm[..k], 0, &mut |p| {
            candidate.clear();
            candidate.extend(
                dense
                    .iter()
                    .map(|e| QueryEdge::new(p[e.src as usize], p[e.dst as usize], e.label)),
            );
            candidate.sort_unstable();
            candidate.dedup();
            if !found || *candidate < pattern.edges {
                found = true;
                std::mem::swap(&mut pattern.edges, candidate);
                best_perm[..k].copy_from_slice(p);
            }
        });
        (vars, best_perm)
    }
}

/// Heap's-algorithm-style permutation visitor.
fn permute(perm: &mut [VarId], i: usize, visit: &mut impl FnMut(&[VarId])) {
    if i == perm.len() {
        visit(perm);
        return;
    }
    for j in i..perm.len() {
        perm.swap(i, j);
        permute(perm, i + 1, visit);
        perm.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_invariance() {
        // a0 -0-> a1 -1-> a2 vs a5 -0-> a2 -1-> a7: same canonical pattern.
        let p1 = Pattern::canonical(&[QueryEdge::new(0, 1, 0), QueryEdge::new(1, 2, 1)]);
        let p2 = Pattern::canonical(&[QueryEdge::new(5, 2, 0), QueryEdge::new(2, 7, 1)]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn direction_matters() {
        // a0 -0-> a1 -1-> a2  vs  a0 -0-> a1 <-1- a2 are different patterns.
        let chain = Pattern::canonical(&[QueryEdge::new(0, 1, 0), QueryEdge::new(1, 2, 1)]);
        let meet = Pattern::canonical(&[QueryEdge::new(0, 1, 0), QueryEdge::new(2, 1, 1)]);
        assert_ne!(chain, meet);
    }

    #[test]
    fn labels_matter() {
        let p1 = Pattern::canonical(&[QueryEdge::new(0, 1, 0)]);
        let p2 = Pattern::canonical(&[QueryEdge::new(0, 1, 1)]);
        assert_ne!(p1, p2);
    }

    #[test]
    fn symmetric_pattern_is_stable() {
        // two parallel edges with the same label in both orders
        let p1 = Pattern::canonical(&[QueryEdge::new(0, 1, 0), QueryEdge::new(0, 2, 0)]);
        let p2 = Pattern::canonical(&[QueryEdge::new(3, 2, 0), QueryEdge::new(3, 1, 0)]);
        assert_eq!(p1, p2);
        assert_eq!(p1.num_vars(), 3);
    }

    #[test]
    fn triangle_rotations_are_equal() {
        let t = |a: VarId, b: VarId, c: VarId| {
            Pattern::canonical(&[
                QueryEdge::new(a, b, 0),
                QueryEdge::new(b, c, 0),
                QueryEdge::new(c, a, 0),
            ])
        };
        assert_eq!(t(0, 1, 2), t(1, 2, 0));
        assert_eq!(t(0, 1, 2), t(2, 0, 1));
    }

    #[test]
    fn to_query_roundtrip() {
        let p = Pattern::canonical(&[QueryEdge::new(0, 1, 3), QueryEdge::new(1, 2, 4)]);
        let q = p.to_query();
        assert_eq!(q.num_edges(), 2);
        assert_eq!(Pattern::of_subquery(&q, q.full_mask()), p);
    }

    #[test]
    fn empty_pattern() {
        let p = Pattern::canonical(&[]);
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.num_vars(), 0);
    }

    #[test]
    fn a_reused_canonicalizer_agrees_with_fresh_ones() {
        // One set of buffers across sub-queries of different sizes, in an
        // order that shrinks and grows them: every result must equal the
        // one-shot canonical form, and a 2-edge pattern must not keep a
        // third edge from the call before.
        let q = crate::templates::square_two_triangles(&[0, 1, 0, 2, 1, 0, 2, 1]);
        let mut canon = Canonicalizer::default();
        for h in [3, 1, 2] {
            for mask in q.connected_subsets_up_to(h) {
                let edges: Vec<QueryEdge> = mask.iter().map(|i| q.edge(i)).collect();
                let fresh = Pattern::canonical(&edges);
                assert_eq!(*canon.of_subquery(&q, mask), fresh, "mask {mask}");
                assert_eq!(Pattern::of_subquery(&q, mask), fresh);
            }
        }
    }

    #[test]
    fn labels_listed_sorted() {
        let p = Pattern::canonical(&[QueryEdge::new(0, 1, 5), QueryEdge::new(1, 2, 2)]);
        assert_eq!(p.labels(), vec![2, 5]);
    }
}

#[cfg(test)]
mod map_tests {
    use super::*;

    #[test]
    fn canonical_map_realizes_canonical_form() {
        let edges = [QueryEdge::new(5, 2, 0), QueryEdge::new(2, 7, 1)];
        let (p, map) = Pattern::canonical_with_map(&edges);
        let lookup = |v: VarId| map.iter().find(|&&(o, _)| o == v).unwrap().1;
        let mut mapped: Vec<QueryEdge> = edges
            .iter()
            .map(|e| QueryEdge::new(lookup(e.src), lookup(e.dst), e.label))
            .collect();
        mapped.sort_unstable();
        assert_eq!(mapped, p.edges().to_vec());
    }

    #[test]
    fn canonical_map_covers_all_vars() {
        let edges = [QueryEdge::new(1, 3, 0), QueryEdge::new(3, 9, 0)];
        let (p, map) = Pattern::canonical_with_map(&edges);
        assert_eq!(map.len(), 3);
        let mut canon_vars: Vec<VarId> = map.iter().map(|&(_, c)| c).collect();
        canon_vars.sort_unstable();
        assert_eq!(canon_vars, vec![0, 1, 2]);
        assert_eq!(p.num_vars(), 3);
    }
}
