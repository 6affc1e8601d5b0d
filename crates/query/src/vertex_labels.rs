//! Vertex-labeled queries via the unary-relation reduction.
//!
//! The paper evaluates edge-labeled queries "for simplicity" and notes
//! (Section 6.1) that vertex labels are handled "in a straightforward
//! manner … by extending Markov table entries to have vertex labels".
//! The cleanest realization is the classic reduction: a vertex label `ℓ`
//! is a unary relation `L_ℓ(v)`, stored as a self-loop edge `(v, v)` with
//! a dedicated edge label. Every part of the stack — executor, Markov
//! tables, CEGs, bounds — then works unchanged, and a Markov entry for a
//! pattern containing label loops *is* the vertex-labeled statistic. The
//! end-to-end behaviour (filtering, estimation) is exercised in the
//! workspace integration tests (`tests/integration.rs`).

use ceg_graph::{GraphBuilder, LabelId};

use crate::query::{QueryEdge, QueryGraph};
use crate::VarId;

/// Maps vertex labels into a reserved band of edge labels.
///
/// Construct it with the number of ordinary edge labels; vertex label `ℓ`
/// becomes edge label `base + ℓ`.
#[derive(Debug, Clone, Copy)]
pub struct VertexLabelSpace {
    base: LabelId,
}

impl VertexLabelSpace {
    /// Reserve vertex-label space above `num_edge_labels`.
    pub fn new(num_edge_labels: usize) -> Self {
        VertexLabelSpace {
            base: num_edge_labels as LabelId,
        }
    }

    /// The edge label encoding vertex label `vl`.
    fn encode(&self, vl: LabelId) -> LabelId {
        self.base + vl
    }

    /// Decode an edge label back to a vertex label, if it is one.
    pub fn decode(&self, l: LabelId) -> Option<LabelId> {
        l.checked_sub(self.base)
    }

    /// Tag a data vertex with a vertex label (adds the self-loop).
    pub fn label_vertex(&self, builder: &mut GraphBuilder, v: u32, vl: LabelId) {
        builder.add_edge(v, v, self.encode(vl));
    }

    /// Require query variable `var` to carry vertex label `vl`: returns a
    /// new query with the label-loop edge appended.
    pub fn with_vertex_label(&self, query: &QueryGraph, var: VarId, vl: LabelId) -> QueryGraph {
        let mut edges = query.edges().to_vec();
        edges.push(QueryEdge::new(var, var, self.encode(vl)));
        QueryGraph::new(query.num_vars(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;

    #[test]
    fn encode_decode_roundtrip() {
        let s = VertexLabelSpace::new(10);
        assert_eq!(s.encode(3), 13);
        assert_eq!(s.decode(13), Some(3));
        assert_eq!(s.decode(5), None);
    }

    #[test]
    fn with_vertex_label_appends_loop() {
        let s = VertexLabelSpace::new(4);
        let q = templates::path(2, &[0, 1]);
        let q2 = s.with_vertex_label(&q, 1, 2);
        assert_eq!(q2.num_edges(), 3);
        let e = q2.edge(2);
        assert_eq!((e.src, e.dst, e.label), (1, 1, 6));
        assert_eq!(s.decode(e.label), Some(2));
    }

    #[test]
    fn label_loop_keeps_query_connected() {
        let s = VertexLabelSpace::new(2);
        let q = s.with_vertex_label(&templates::path(2, &[0, 1]), 0, 1);
        assert!(q.is_connected());
        // the loop participates in connected subsets
        let subs = q.connected_subsets();
        assert!(subs.iter().any(|m| m.contains(2)));
    }

    #[test]
    fn labeling_vertices_in_builder() {
        let s = VertexLabelSpace::new(1);
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        s.label_vertex(&mut b, 1, 0);
        let g = b.build();
        assert!(g.has_edge(1, 1, 1));
        assert_eq!(g.num_labels(), 2);
    }
}
