//! The edge-labeled directed graph: a set of binary relations.

use std::sync::Arc;

use crate::csr::Csr;
use crate::delta::GraphDelta;
use crate::{LabelId, VertexId};

/// A single labeled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    pub label: LabelId,
}

/// Immutable edge-labeled directed graph.
///
/// Conceptually this is the database `{R_0, …, R_{L-1}}` where relation
/// `R_l(src, dst)` holds the edges with label `l` (Section 2). Each relation
/// is indexed both forward (`src → dst`) and backward (`dst → src`).
///
/// Relations are held behind `Arc` so that [`LabeledGraph::rebase`] can
/// produce a successor graph rebuilding only the relations a delta
/// touches, sharing the untouched indexes byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct LabeledGraph {
    num_vertices: usize,
    fwd: Vec<Arc<Csr>>,
    bwd: Vec<Arc<Csr>>,
}

impl LabeledGraph {
    pub(crate) fn new(num_vertices: usize, fwd: Vec<Csr>, bwd: Vec<Csr>) -> Self {
        debug_assert_eq!(fwd.len(), bwd.len());
        LabeledGraph {
            num_vertices,
            fwd: fwd.into_iter().map(Arc::new).collect(),
            bwd: bwd.into_iter().map(Arc::new).collect(),
        }
    }

    /// Assemble a graph directly from per-label CSR pairs (the binary
    /// snapshot codec's constructor; the CSRs are already validated by
    /// [`Csr::from_raw_parts`]).
    pub(crate) fn from_csr_pairs(num_vertices: usize, pairs: Vec<(Csr, Csr)>) -> Self {
        let (fwd, bwd) = pairs.into_iter().unzip();
        LabeledGraph::new(num_vertices, fwd, bwd)
    }

    /// The per-label CSR pairs `(forward, backward)`, for binary
    /// persistence.
    pub(crate) fn csr_pairs(&self) -> impl Iterator<Item = (&Csr, &Csr)> {
        self.fwd.iter().zip(&self.bwd).map(|(f, b)| (&**f, &**b))
    }

    /// Number of vertices in the domain (vertex ids are `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of distinct edge labels (= relations).
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.fwd.len()
    }

    /// Total number of edges across all labels.
    pub fn num_edges(&self) -> usize {
        self.fwd.iter().map(|c| c.num_edges()).sum()
    }

    /// Cardinality `|R_l|` of one relation.
    #[inline]
    pub fn label_count(&self, l: LabelId) -> usize {
        self.fwd.get(l as usize).map_or(0, |c| c.num_edges())
    }

    /// Out-neighbours of `v` through label `l`, sorted.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        self.fwd.get(l as usize).map_or(&[], |c| c.neighbors(v))
    }

    /// In-neighbours of `v` through label `l`, sorted.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        self.bwd.get(l as usize).map_or(&[], |c| c.neighbors(v))
    }

    /// Out-degree of `v` for label `l` — `deg(src(v), R_l)` in paper terms.
    #[inline]
    pub fn out_degree(&self, v: VertexId, l: LabelId) -> usize {
        self.out_neighbors(v, l).len()
    }

    /// In-degree of `v` for label `l` — `deg(dst(v), R_l)`.
    #[inline]
    pub fn in_degree(&self, v: VertexId, l: LabelId) -> usize {
        self.in_neighbors(v, l).len()
    }

    /// True if edge `src -l-> dst` exists.
    #[inline]
    pub fn has_edge(&self, src: VertexId, dst: VertexId, l: LabelId) -> bool {
        self.fwd
            .get(l as usize)
            .is_some_and(|c| c.contains(src, dst))
    }

    /// Maximum out-degree over all vertices: `deg(src, R_l)` (maximum number
    /// of `dst` values per `src`), used by pessimistic bounds.
    pub fn max_out_degree(&self, l: LabelId) -> usize {
        self.fwd.get(l as usize).map_or(0, |c| c.max_degree())
    }

    /// Maximum in-degree over all vertices: `deg(dst, R_l)`.
    pub fn max_in_degree(&self, l: LabelId) -> usize {
        self.bwd.get(l as usize).map_or(0, |c| c.max_degree())
    }

    /// `|π_src R_l|` — number of distinct sources of label `l`.
    pub fn distinct_sources(&self, l: LabelId) -> usize {
        self.fwd.get(l as usize).map_or(0, |c| c.num_active())
    }

    /// `|π_dst R_l|` — number of distinct destinations of label `l`.
    pub fn distinct_targets(&self, l: LabelId) -> usize {
        self.bwd.get(l as usize).map_or(0, |c| c.num_active())
    }

    /// Iterate the distinct sources of label `l` (vertices with at least
    /// one out-edge under `l`), in increasing id order.
    pub fn sources(&self, l: LabelId) -> impl Iterator<Item = VertexId> + '_ {
        self.rows(l, false).map(|(v, _)| v)
    }

    /// Iterate the distinct destinations of label `l`, in increasing id
    /// order.
    pub fn targets(&self, l: LabelId) -> impl Iterator<Item = VertexId> + '_ {
        self.rows(l, true).map(|(v, _)| v)
    }

    /// Iterate `(vertex, neighbours)` over the non-empty adjacency lists
    /// of label `l`, in increasing vertex order: each source with its
    /// out-neighbours, or with `backward` each destination with its
    /// in-neighbours. Costs the relation's rows, not the vertex domain
    /// (see [`Csr::rows`]).
    pub fn rows(
        &self,
        l: LabelId,
        backward: bool,
    ) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        let dir = if backward { &self.bwd } else { &self.fwd };
        dir.get(l as usize).into_iter().flat_map(|c| c.rows())
    }

    /// Iterate the edges of one relation.
    pub fn edges(&self, l: LabelId) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.fwd
            .get(l as usize)
            .into_iter()
            .flat_map(|c| c.iter_edges())
    }

    /// The `k`-th edge of [`LabeledGraph::edges`], without the walk to it
    /// ([`Csr::nth_edge`]).
    pub fn nth_edge(&self, l: LabelId, k: usize) -> Option<(VertexId, VertexId)> {
        self.fwd.get(l as usize)?.nth_edge(k)
    }

    /// Iterate every edge in the graph.
    pub fn all_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_labels() as LabelId).flat_map(move |l| {
            self.edges(l)
                .map(move |(src, dst)| Edge { src, dst, label: l })
        })
    }

    /// Bytes of heap held by the adjacency indexes of every relation in
    /// both directions — O(|E|) plus 3/16 byte per vertex for each
    /// non-empty relation and direction, never a word per vertex.
    pub fn heap_bytes(&self) -> usize {
        self.csr_pairs()
            .map(|(f, b)| f.heap_bytes() + b.heap_bytes())
            .sum()
    }

    /// Build a sub-graph keeping only edges accepted by `keep`.
    ///
    /// Used by the bound-sketch optimization, which partitions relations by
    /// hashing attribute values (Section 5.2.1).
    pub fn filter(
        &self,
        mut keep: impl FnMut(VertexId, VertexId, LabelId) -> bool,
    ) -> LabeledGraph {
        let mut b = crate::GraphBuilder::with_labels(self.num_vertices, self.num_labels());
        for e in self.all_edges() {
            if keep(e.src, e.dst, e.label) {
                b.add_edge(e.src, e.dst, e.label);
            }
        }
        b.build()
    }

    /// Fold `delta` into a fresh graph. Only the relations the delta
    /// touches are rebuilt ([`Csr::rebase`], one O(|R_l| + |delta_l|)
    /// merge walk over rows per direction; the only domain-sized work is
    /// the new directory's bit per vertex); every other relation is
    /// shared with `self` via `Arc`, so rebasing a small delta over a
    /// large graph costs only the touched relations. The domain grows to
    /// cover any new vertex or label ids the delta mentions.
    pub fn rebase(&self, delta: &GraphDelta) -> LabeledGraph {
        let num_vertices = self
            .num_vertices
            .max(delta.max_vertex().map_or(0, |v| v as usize + 1));
        let num_labels = self
            .num_labels()
            .max(delta.max_label().map_or(0, |l| l as usize + 1));
        let mut fwd = self.fwd.clone();
        let mut bwd = self.bwd.clone();
        fwd.resize_with(num_labels, Default::default);
        bwd.resize_with(num_labels, Default::default);
        // One pass groups the effective delta per label (O(|delta| log),
        // not O(touched_labels × |delta|)); each forward group inherits
        // its (src, dst) order from the delta's (src, dst, label)
        // iteration order.
        for (l, (adds, dels)) in delta.effective_by_label(self) {
            let li = l as usize;
            fwd[li] = Arc::new(fwd[li].rebase(num_vertices, &adds, &dels));
            let rev = |ps: &[(VertexId, VertexId)]| {
                let mut r: Vec<(VertexId, VertexId)> = ps.iter().map(|&(s, d)| (d, s)).collect();
                r.sort_unstable();
                r
            };
            bwd[li] = Arc::new(bwd[li].rebase(num_vertices, &rev(&adds), &rev(&dels)));
        }
        LabeledGraph {
            num_vertices,
            fwd,
            bwd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Tiny two-label graph: label 0 = {0->1, 0->2, 1->2}, label 1 = {2->0}.
    fn sample() -> LabeledGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 1);
        b.build()
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_labels(), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.label_count(0), 3);
        assert_eq!(g.label_count(1), 1);
    }

    #[test]
    fn neighbors_both_directions() {
        let g = sample();
        assert_eq!(g.out_neighbors(0, 0), &[1, 2]);
        assert_eq!(g.in_neighbors(2, 0), &[0, 1]);
        assert_eq!(g.in_neighbors(0, 1), &[2]);
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.out_degree(0, 0), 2);
        assert_eq!(g.in_degree(2, 0), 2);
        assert_eq!(g.max_out_degree(0), 2);
        assert_eq!(g.max_in_degree(0), 2);
        assert_eq!(g.max_out_degree(1), 1);
    }

    #[test]
    fn projections() {
        let g = sample();
        assert_eq!(g.distinct_sources(0), 2); // 0 and 1
        assert_eq!(g.distinct_targets(0), 2); // 1 and 2
        assert_eq!(g.sources(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(g.targets(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.sources(9).count(), 0);
    }

    #[test]
    fn has_edge_checks_label() {
        let g = sample();
        assert!(g.has_edge(0, 1, 0));
        assert!(!g.has_edge(0, 1, 1));
        assert!(!g.has_edge(1, 0, 0));
    }

    #[test]
    fn filter_keeps_subset() {
        let g = sample();
        let f = g.filter(|s, _, _| s == 0);
        assert_eq!(f.num_edges(), 2);
        assert_eq!(f.num_vertices(), 3);
        assert!(f.has_edge(0, 1, 0));
        assert!(!f.has_edge(1, 2, 0));
    }

    #[test]
    fn all_edges_covers_every_label() {
        let g = sample();
        let mut es: Vec<_> = g.all_edges().collect();
        es.sort();
        assert_eq!(es.len(), 4);
        assert_eq!(es.last().unwrap().label, 1);
    }

    #[test]
    fn rebase_applies_delta_and_shares_untouched_relations() {
        let g = sample();
        let mut d = GraphDelta::new();
        d.add_edge(2, 1, 0);
        d.del_edge(0, 1, 0);
        let r = g.rebase(&d);
        assert!(r.has_edge(2, 1, 0));
        assert!(!r.has_edge(0, 1, 0));
        assert_eq!(r.num_edges(), g.num_edges());
        // label 1 untouched: the CSR is the same allocation, in both
        // directions.
        assert!(Arc::ptr_eq(&g.fwd[1], &r.fwd[1]));
        assert!(Arc::ptr_eq(&g.bwd[1], &r.bwd[1]));
        assert!(!Arc::ptr_eq(&g.fwd[0], &r.fwd[0]));
        assert!(!Arc::ptr_eq(&g.bwd[0], &r.bwd[0]));
        // forward and backward indexes stay consistent.
        assert_eq!(r.in_neighbors(1, 0), &[2]);
        assert_eq!(r.out_neighbors(0, 0), &[2]);
    }

    #[test]
    fn rebase_grows_domain_and_labels() {
        let g = sample();
        let mut d = GraphDelta::new();
        d.add_edge(5, 6, 4);
        let r = g.rebase(&d);
        assert_eq!(r.num_vertices(), 7);
        assert_eq!(r.num_labels(), 5);
        assert!(r.has_edge(5, 6, 4));
        assert_eq!(r.label_count(0), g.label_count(0));
        assert_eq!(r.in_neighbors(6, 4), &[5]);
    }

    #[test]
    fn rebase_matches_rebuild_from_edge_list() {
        let g = sample();
        let mut d = GraphDelta::new();
        d.del_edge(1, 2, 0);
        d.add_edge(1, 0, 1);
        d.add_edge(0, 1, 0); // no-op: already present
        let r = g.rebase(&d);
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(2, 0, 1);
        b.add_edge(1, 0, 1);
        let want = b.build();
        assert_eq!(r.num_edges(), want.num_edges());
        for e in want.all_edges() {
            assert!(r.has_edge(e.src, e.dst, e.label), "{e:?}");
        }
        assert_eq!(r.distinct_sources(1), want.distinct_sources(1));
        assert_eq!(r.max_in_degree(0), want.max_in_degree(0));
    }

    #[test]
    fn unknown_label_is_empty() {
        let g = sample();
        assert_eq!(g.label_count(9), 0);
        assert_eq!(g.out_neighbors(0, 9), &[] as &[VertexId]);
    }
}
