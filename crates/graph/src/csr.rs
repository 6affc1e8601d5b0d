//! Compressed sparse row adjacency index.
//!
//! One [`Csr`] stores the adjacency of a single relation in a single
//! direction: `neighbors(v)` returns the sorted list of endpoints reachable
//! from `v` through edges of that relation. Sorted neighbour slices give
//! O(log d) membership tests and allow merge-intersection during matching.
//!
//! Only the *active* vertices — those with at least one neighbour — own a
//! row. A relation of a labeled graph typically touches a few percent of
//! the vertex domain, so a dense `|V| + 1` offset array per relation and
//! direction would dwarf the edges it indexes. The row directory is
//! instead a presence bitmap (one bit per vertex) with a running rank per
//! 64-bit word: `neighbors(v)` is a bit test, one `count_ones` and two
//! offset reads — still O(1), and a single word load for the common probe
//! of a vertex the relation does not touch. Everything that used to sweep
//! the domain walks [`Csr::rows`] instead.

use crate::VertexId;

/// CSR index over one direction of one relation.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// Size of the vertex domain the index was built over.
    num_vertices: usize,
    /// Bit `v % 64` of word `v / 64` is set iff vertex `v` has a row.
    /// Spans the domain, or is empty for a relation without edges.
    present: Vec<u64>,
    /// `rank[w]` = number of rows owned by vertices below `64 * w`.
    rank: Vec<u32>,
    /// `offsets[r]..offsets[r + 1]` indexes into `targets` for the `r`-th
    /// active vertex in id order; rows are never empty. No entries at all
    /// for a relation without edges.
    offsets: Vec<u32>,
    /// Concatenated, per-vertex-sorted neighbour lists.
    targets: Vec<VertexId>,
    /// Cached maximum degree (the index is immutable after construction;
    /// pessimistic bounds and matcher buffer sizing query this hot).
    max_degree: u32,
}

/// The set bit positions of `word`, ascending.
fn bits_of(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros();
            word &= word - 1;
            b
        })
    })
}

impl Csr {
    /// Build a CSR from `(from, to)` pairs over a domain of `num_vertices`.
    ///
    /// Pairs may arrive in any order; duplicates must already be removed by
    /// the caller (the [`crate::GraphBuilder`] does this).
    pub fn from_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        // Lexicographic order groups each source's targets, already
        // sorted, into one run per row.
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        let mut csr = Csr::with_domain(num_vertices, pairs.len());
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            csr.targets.extend(run.iter().map(|p| p.1));
            csr.seal_row(run[0].0);
        }
        csr.finish()
    }

    /// An index over `num_vertices` with no rows yet, to be filled in
    /// ascending vertex order: append a row's neighbours to `targets`,
    /// [`seal_row`](Self::seal_row) it, and [`finish`](Self::finish).
    fn with_domain(num_vertices: usize, edge_capacity: usize) -> Csr {
        Csr {
            num_vertices,
            targets: Vec::with_capacity(edge_capacity),
            ..Csr::default()
        }
    }

    /// Close the neighbours appended to `targets` since the last sealed
    /// row as the row of `v`. Appending nothing seals nothing: an empty
    /// row is simply absent from the directory.
    fn seal_row(&mut self, v: VertexId) {
        let start = self.offsets.last().map_or(0, |&o| o as usize);
        if self.targets.len() == start {
            return;
        }
        assert!((v as usize) < self.num_vertices, "row outside the domain");
        if self.present.is_empty() {
            // First row: a relation without edges never pays for a
            // directory.
            self.present = vec![0u64; self.num_vertices.div_ceil(64)];
            self.offsets.push(0);
        }
        self.present[v as usize >> 6] |= 1u64 << (v & 63);
        self.offsets.push(self.targets.len() as u32);
        self.max_degree = self.max_degree.max((self.targets.len() - start) as u32);
    }

    /// Derive the per-word ranks once every row is sealed.
    fn finish(mut self) -> Csr {
        let mut rows = 0u32;
        self.rank = self
            .present
            .iter()
            .map(|w| {
                let before = rows;
                rows += w.count_ones();
                before
            })
            .collect();
        self.offsets.shrink_to_fit();
        self.targets.shrink_to_fit();
        self
    }

    /// Number of vertices in the domain.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Position of `v`'s row among the active rows, if it has one.
    #[inline]
    pub(crate) fn row_index(&self, v: VertexId) -> Option<usize> {
        let w = v as usize >> 6;
        let word = *self.present.get(w)?;
        let bit = 1u64 << (v & 63);
        (word & bit != 0).then(|| self.rank[w] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// Sorted neighbours of `v`. Empty slice if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.row_index(v) {
            Some(r) => &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize],
            None => &[],
        }
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// True if an edge `v -> t` is present.
    #[inline]
    pub fn contains(&self, v: VertexId, t: VertexId) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Maximum degree over all vertices (0 for an empty index). O(1):
    /// cached at construction.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Number of vertices with non-zero degree (`|π_X R|` for this side).
    /// O(1): the number of rows.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Iterate the vertices with non-zero degree, in increasing id order.
    /// The matcher seeds unconstrained root variables from this list
    /// instead of scanning the whole domain.
    pub fn active_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.present
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| bits_of(word).map(move |b| (w * 64) as VertexId + b))
    }

    /// Iterate `(vertex, neighbours)` over the active vertices, in
    /// increasing id order; no slice is empty. This is how a relation is
    /// swept — edge iteration, rebase, transposition checks, the tree-DP
    /// folds — at a cost of its rows, not of the vertex domain.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.active_vertices()
            .zip(self.offsets.windows(2))
            .map(|(v, o)| (v, &self.targets[o[0] as usize..o[1] as usize]))
    }

    /// Iterate `(from, to)` pairs in vertex order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.rows()
            .flat_map(|(v, row)| row.iter().map(move |&t| (v, t)))
    }

    /// The `k`-th pair of [`Csr::iter_edges`], found by binary search over
    /// the offsets and the directory's ranks instead of a walk.
    pub fn nth_edge(&self, k: usize) -> Option<(VertexId, VertexId)> {
        let to = *self.targets.get(k)?;
        // The row whose offset range holds `k`; its vertex is the
        // `row`-th set bit of the directory.
        let row = self.offsets.partition_point(|&o| o as usize <= k) - 1;
        let w = self.rank.partition_point(|&r| r as usize <= row) - 1;
        let bit = bits_of(self.present[w]).nth(row - self.rank[w] as usize)?;
        Some(((w * 64) as VertexId + bit, to))
    }

    /// Bytes of heap the index holds: directory, offsets and targets.
    pub fn heap_bytes(&self) -> usize {
        self.present.capacity() * 8
            + (self.rank.capacity() + self.offsets.capacity() + self.targets.capacity()) * 4
    }

    /// Append the common neighbours of `u` and `v` (in this direction) to
    /// `out` — a slice-level building block for multi-way intersection.
    pub fn intersect_neighbors_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        crate::intersect::intersect_into(self.neighbors(u), self.neighbors(v), out);
    }

    /// Append the intersection of `v`'s neighbour list with an arbitrary
    /// sorted duplicate-free slice to `out`.
    pub fn intersect_with_into(&self, v: VertexId, other: &[VertexId], out: &mut Vec<VertexId>) {
        crate::intersect::intersect_into(self.neighbors(v), other, out);
    }

    /// Fold a delta into a fresh CSR over a (possibly larger) domain of
    /// `num_vertices`: one merge walk over the base rows and the delta's
    /// source groups — O(|base| + |delta|), untouched rows copied
    /// wholesale, no per-vertex sort and no pass over the domain.
    ///
    /// `adds` and `dels` are `(from, to)` pairs, sorted lexicographically
    /// and duplicate-free, and normalized against this CSR: every add is
    /// absent from the base, every del is present (see
    /// [`crate::GraphDelta::effective`]); the two sets are disjoint.
    pub fn rebase(
        &self,
        num_vertices: usize,
        adds: &[(VertexId, VertexId)],
        dels: &[(VertexId, VertexId)],
    ) -> Csr {
        debug_assert!(adds.is_sorted() && dels.is_sorted());
        debug_assert!(num_vertices >= self.num_vertices());
        let mut out = Csr::with_domain(
            num_vertices,
            (self.num_edges() + adds.len()).saturating_sub(dels.len()),
        );
        let mut base = self.rows().peekable();
        let (mut ai, mut di) = (0usize, 0usize);
        let (mut scratch_a, mut scratch_d) = (Vec::new(), Vec::new());
        // Every del names a base edge, so the sources to visit are the
        // base rows and the sources of the adds.
        while let Some(v) = match (base.peek(), adds.get(ai)) {
            (Some(&(b, _)), Some(&(a, _))) => Some(b.min(a)),
            (Some(&(b, _)), None) => Some(b),
            (None, add) => add.map(|&(a, _)| a),
        } {
            let row = base.next_if(|&(b, _)| b == v).map_or(&[][..], |(_, r)| r);
            let a0 = ai;
            while ai < adds.len() && adds[ai].0 == v {
                ai += 1;
            }
            let d0 = di;
            while di < dels.len() && dels[di].0 == v {
                di += 1;
            }
            if a0 == ai && d0 == di {
                out.targets.extend_from_slice(row);
            } else {
                scratch_a.clear();
                scratch_a.extend(adds[a0..ai].iter().map(|p| p.1));
                scratch_d.clear();
                scratch_d.extend(dels[d0..di].iter().map(|p| p.1));
                merge_row_into(row, &scratch_a, &scratch_d, &mut out.targets);
            }
            out.seal_row(v);
        }
        debug_assert_eq!(di, dels.len(), "every del must name a base edge");
        out.finish()
    }

    /// The arrays binary persistence writes ([`crate::snapshot`]): the
    /// offsets of the active rows and the targets they index. The row ids
    /// themselves are [`Csr::active_vertices`].
    pub(crate) fn raw_parts(&self) -> (&[u32], &[VertexId]) {
        (&self.offsets, &self.targets)
    }

    /// Rebuild a CSR over `num_vertices` from the persisted arrays — the
    /// ids of the active rows, their `rows.len() + 1` offsets and the
    /// targets — validating every structural invariant the matcher relies
    /// on: row ids strictly increasing and inside the domain, offsets
    /// from 0 to `targets.len()` with no empty row, strictly sorted
    /// (duplicate-free) rows. A corrupt snapshot surfaces as an error
    /// here instead of as misbehavior (or a panic) deep in a traversal.
    /// `offsets` and `targets` are moved in, not copied: a restore holds
    /// each relation once.
    pub(crate) fn from_raw_parts(
        num_vertices: usize,
        rows: &[VertexId],
        offsets: Vec<u32>,
        targets: Vec<VertexId>,
    ) -> Result<Csr, String> {
        if offsets.len() != rows.len() + 1 {
            return Err(format!(
                "CSR has {} rows but {} offsets",
                rows.len(),
                offsets.len()
            ));
        }
        if offsets[0] != 0 {
            return Err("CSR offsets must start at 0".into());
        }
        if offsets[rows.len()] as usize != targets.len() {
            return Err(format!(
                "CSR offsets end at {} but {} targets are stored",
                offsets[rows.len()],
                targets.len()
            ));
        }
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err("CSR row ids are not strictly increasing".into());
        }
        if rows.last().is_some_and(|&v| v as usize >= num_vertices) {
            return Err(format!(
                "CSR row id outside the domain of {num_vertices} vertices"
            ));
        }
        let mut max_degree = 0;
        for (&v, o) in rows.iter().zip(offsets.windows(2)) {
            let row = targets
                .get(o[0] as usize..o[1] as usize)
                .filter(|row| !row.is_empty())
                .ok_or_else(|| format!("CSR row of vertex {v} is empty or out of bounds"))?;
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "CSR neighbour list of vertex {v} is not strictly sorted"
                ));
            }
            max_degree = max_degree.max(row.len() as u32);
        }
        if rows.is_empty() {
            // A relation without edges keeps no directory and no offsets.
            return Ok(Csr::with_domain(num_vertices, 0));
        }
        let mut present = vec![0u64; num_vertices.div_ceil(64)];
        for &v in rows {
            present[v as usize >> 6] |= 1u64 << (v & 63);
        }
        let csr = Csr {
            num_vertices,
            present,
            rank: Vec::new(),
            offsets,
            targets,
            max_degree,
        };
        Ok(csr.finish())
    }
}

/// Append `base ∪ adds ∖ dels` to `out` — the canonical sorted-row merge
/// shared by [`Csr::rebase`] and [`crate::OverlayGraph`]'s patched
/// lists, so the subtle tie/advance invariants live in exactly one
/// place.
///
/// Preconditions (upheld by [`crate::GraphDelta::effective`] /
/// [`crate::GraphDelta::effective_by_label`]): all three inputs sorted
/// and duplicate-free, `adds` disjoint from `base`, `dels ⊆ base`, and
/// `adds` disjoint from `dels`.
pub(crate) fn merge_row_into(
    base: &[VertexId],
    adds: &[VertexId],
    dels: &[VertexId],
    out: &mut Vec<VertexId>,
) {
    let (mut bi, mut ai, mut di) = (0usize, 0usize, 0usize);
    while bi < base.len() || ai < adds.len() {
        let take_base = ai >= adds.len() || (bi < base.len() && base[bi] <= adds[ai]);
        if take_base {
            let t = base[bi];
            bi += 1;
            while di < dels.len() && dels[di] < t {
                di += 1;
            }
            if di < dels.len() && dels[di] == t {
                di += 1;
                continue; // deleted
            }
            out.push(t);
        } else {
            out.push(adds[ai]);
            ai += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_pairs(5, &[(0, 2), (0, 1), (2, 3), (4, 0), (2, 4)])
    }

    #[test]
    fn neighbors_are_sorted() {
        let c = sample();
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(2), &[3, 4]);
        assert_eq!(c.neighbors(1), &[] as &[VertexId]);
    }

    #[test]
    fn degree_and_membership() {
        let c = sample();
        assert_eq!(c.degree(0), 2);
        assert!(c.contains(0, 2));
        assert!(!c.contains(0, 3));
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn active_count_and_edge_count() {
        let c = sample();
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.num_active(), 3); // vertices 0, 2, 4
    }

    #[test]
    fn out_of_range_vertex_is_empty() {
        let c = sample();
        assert_eq!(c.neighbors(99), &[] as &[VertexId]);
        assert_eq!(c.degree(99), 0);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let c = sample();
        let mut edges: Vec<_> = c.iter_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 3), (2, 4), (4, 0)]);
    }

    #[test]
    fn nth_edge_is_the_nth_of_iter_edges() {
        // Rows in three directory words, with empty words between them.
        let pairs: Vec<(VertexId, VertexId)> = [0u32, 2, 63, 64, 200, 201, 449]
            .iter()
            .flat_map(|&v| (0..1 + v % 3).map(move |t| (v, t)))
            .collect();
        let c = Csr::from_pairs(450, &pairs);
        for (k, e) in c.iter_edges().enumerate() {
            assert_eq!(c.nth_edge(k), Some(e), "edge {k}");
        }
        assert_eq!(c.nth_edge(c.num_edges()), None);
        assert_eq!(Csr::default().nth_edge(0), None);
    }

    #[test]
    fn empty_csr() {
        let c = Csr::from_pairs(0, &[]);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.max_degree(), 0);
        assert_eq!(c.num_vertices(), 0);
    }

    #[test]
    fn active_vertices_in_order() {
        let c = sample();
        let active: Vec<_> = c.active_vertices().collect();
        assert_eq!(active, vec![0, 2, 4]);
    }

    #[test]
    fn rebase_merges_adds_and_dels() {
        let c = sample(); // 0->{1,2}, 2->{3,4}, 4->{0}
        let adds = [(0, 3), (1, 1), (4, 2)];
        let dels = [(2, 3), (4, 0)];
        let r = c.rebase(5, &adds, &dels);
        assert_eq!(r.neighbors(0), &[1, 2, 3]);
        assert_eq!(r.neighbors(1), &[1]);
        assert_eq!(r.neighbors(2), &[4]);
        assert_eq!(r.neighbors(4), &[2]);
        assert_eq!(r.num_edges(), 6);
        assert_eq!(r.max_degree(), 3);
        assert_eq!(r.num_active(), 4);
    }

    #[test]
    fn rebase_grows_the_domain() {
        let c = sample();
        let r = c.rebase(8, &[(6, 7)], &[]);
        assert_eq!(r.num_vertices(), 8);
        assert_eq!(r.neighbors(6), &[7]);
        assert_eq!(r.neighbors(0), c.neighbors(0));
        assert_eq!(r.num_edges(), c.num_edges() + 1);
    }

    #[test]
    fn rebase_empty_delta_is_identity() {
        let c = sample();
        let r = c.rebase(5, &[], &[]);
        for v in 0..5 {
            assert_eq!(r.neighbors(v), c.neighbors(v));
        }
        assert_eq!(r.max_degree(), c.max_degree());
        assert_eq!(r.num_active(), c.num_active());
    }

    #[test]
    fn rebase_can_delete_everything() {
        let c = Csr::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]);
        let r = c.rebase(3, &[], &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(r.num_edges(), 0);
        assert_eq!(r.max_degree(), 0);
        assert_eq!(r.num_active(), 0);
    }

    #[test]
    fn rebase_from_empty_base() {
        let c = Csr::default();
        let r = c.rebase(3, &[(0, 2), (2, 1)], &[]);
        assert_eq!(r.neighbors(0), &[2]);
        assert_eq!(r.neighbors(2), &[1]);
        assert_eq!(r.num_edges(), 2);
    }

    #[test]
    fn neighbor_intersection_helpers() {
        let c = Csr::from_pairs(6, &[(0, 1), (0, 3), (0, 5), (2, 3), (2, 4), (2, 5)]);
        let mut out = Vec::new();
        c.intersect_neighbors_into(0, 2, &mut out);
        assert_eq!(out, vec![3, 5]);
        out.clear();
        c.intersect_with_into(0, &[1, 2, 5], &mut out);
        assert_eq!(out, vec![1, 5]);
        out.clear();
        c.intersect_neighbors_into(1, 2, &mut out); // vertex 1 has no edges
        assert!(out.is_empty());
    }
}
