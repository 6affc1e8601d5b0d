//! Read-only graph access abstraction.
//!
//! The counting kernel (`ceg-exec`) only ever *reads* a graph: sorted
//! neighbour slices, degree aggregates, label cardinalities and endpoint
//! projections. [`GraphView`] captures exactly that surface so the kernel
//! runs unmodified on either the immutable CSR representation
//! ([`crate::LabeledGraph`]) or a base-plus-delta overlay
//! ([`crate::OverlayGraph`]) while a live service absorbs updates.

use crate::{LabelId, VertexId};

/// Read access to an edge-labeled directed graph.
///
/// Every method mirrors the corresponding [`crate::LabeledGraph`]
/// accessor; neighbour slices must be sorted and duplicate-free so the
/// merge/galloping intersection primitives apply unchanged.
pub trait GraphView {
    /// Number of vertices in the domain (vertex ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;

    /// Number of distinct edge labels (= relations).
    fn num_labels(&self) -> usize;

    /// Cardinality `|R_l|` of one relation.
    fn label_count(&self, l: LabelId) -> usize;

    /// Out-neighbours of `v` through label `l`, sorted.
    fn out_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId];

    /// In-neighbours of `v` through label `l`, sorted.
    fn in_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId];

    /// True if edge `src -l-> dst` exists.
    fn has_edge(&self, src: VertexId, dst: VertexId, l: LabelId) -> bool {
        self.out_neighbors(src, l).binary_search(&dst).is_ok()
    }

    /// Upper bound on the out-degree over all vertices. Exact for CSR
    /// graphs; an overlay may report a bound (deletions can strand a
    /// stale maximum) — callers use this for buffer sizing only.
    fn max_out_degree(&self, l: LabelId) -> usize;

    /// Upper bound on the in-degree over all vertices (see
    /// [`GraphView::max_out_degree`]).
    fn max_in_degree(&self, l: LabelId) -> usize;

    /// `|π_src R_l|` — number of distinct sources of label `l`.
    fn distinct_sources(&self, l: LabelId) -> usize;

    /// `|π_dst R_l|` — number of distinct destinations of label `l`.
    fn distinct_targets(&self, l: LabelId) -> usize;

    /// Iterate `(vertex, neighbours)` over the non-empty adjacency lists
    /// of label `l`, in increasing vertex order: each source with its
    /// out-neighbours, or with `backward` each destination with its
    /// in-neighbours. The way to sweep a relation: it costs the
    /// relation's rows, where probing `0..num_vertices` costs the domain.
    fn rows(&self, l: LabelId, backward: bool) -> impl Iterator<Item = (VertexId, &[VertexId])>;

    /// Append the distinct sources of label `l` to `out`, sorted.
    fn sources_into(&self, l: LabelId, out: &mut Vec<VertexId>) {
        out.extend(self.rows(l, false).map(|(v, _)| v));
    }

    /// Append the distinct destinations of label `l` to `out`, sorted.
    fn targets_into(&self, l: LabelId, out: &mut Vec<VertexId>) {
        out.extend(self.rows(l, true).map(|(v, _)| v));
    }
}

impl GraphView for crate::LabeledGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        crate::LabeledGraph::num_vertices(self)
    }

    #[inline]
    fn num_labels(&self) -> usize {
        crate::LabeledGraph::num_labels(self)
    }

    #[inline]
    fn label_count(&self, l: LabelId) -> usize {
        crate::LabeledGraph::label_count(self, l)
    }

    #[inline]
    fn out_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        crate::LabeledGraph::out_neighbors(self, v, l)
    }

    #[inline]
    fn in_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        crate::LabeledGraph::in_neighbors(self, v, l)
    }

    #[inline]
    fn has_edge(&self, src: VertexId, dst: VertexId, l: LabelId) -> bool {
        crate::LabeledGraph::has_edge(self, src, dst, l)
    }

    #[inline]
    fn max_out_degree(&self, l: LabelId) -> usize {
        crate::LabeledGraph::max_out_degree(self, l)
    }

    #[inline]
    fn max_in_degree(&self, l: LabelId) -> usize {
        crate::LabeledGraph::max_in_degree(self, l)
    }

    #[inline]
    fn distinct_sources(&self, l: LabelId) -> usize {
        crate::LabeledGraph::distinct_sources(self, l)
    }

    #[inline]
    fn distinct_targets(&self, l: LabelId) -> usize {
        crate::LabeledGraph::distinct_targets(self, l)
    }

    fn rows(&self, l: LabelId, backward: bool) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        crate::LabeledGraph::rows(self, l, backward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn view_roundtrip<G: GraphView>(g: &G) {
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.out_neighbors(0, 0), &[1, 2]);
        assert!(g.has_edge(0, 1, 0));
        assert!(!g.has_edge(1, 0, 0));
        let mut src = Vec::new();
        g.sources_into(0, &mut src);
        assert_eq!(src, vec![0]);
    }

    #[test]
    fn labeled_graph_is_a_view() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        let g = b.build();
        view_roundtrip(&g);
        assert_eq!(g.distinct_targets(0), 2);
        let mut tg = Vec::new();
        g.targets_into(0, &mut tg);
        assert_eq!(tg, vec![1, 2]);
    }
}
