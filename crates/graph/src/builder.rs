//! Incremental graph construction.

use crate::csr::Csr;
use crate::graph::LabeledGraph;
use crate::{LabelId, VertexId};

/// Builder that collects labeled edges and produces a [`LabeledGraph`].
///
/// Duplicate `(src, dst, label)` triples are removed at build time — the
/// relations of Section 2 are sets, not bags.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Per-label edge pairs, grown on demand.
    per_label: Vec<Vec<(VertexId, VertexId)>>,
}

impl GraphBuilder {
    /// Builder over the vertex domain `0..num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            per_label: Vec::new(),
        }
    }

    /// Builder with a pre-declared number of labels (avoids label-vector
    /// growth; useful when filtering an existing graph so empty relations
    /// keep their label ids).
    pub fn with_labels(num_vertices: usize, num_labels: usize) -> Self {
        GraphBuilder {
            num_vertices,
            per_label: vec![Vec::new(); num_labels],
        }
    }

    /// Add edge `src -label-> dst`, growing the vertex domain if needed.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: LabelId) {
        let needed = (src.max(dst) as usize) + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
        if label as usize >= self.per_label.len() {
            self.per_label.resize(label as usize + 1, Vec::new());
        }
        self.per_label[label as usize].push((src, dst));
    }

    /// Number of edges added so far (duplicates included).
    pub fn len(&self) -> usize {
        self.per_label.iter().map(Vec::len).sum()
    }

    /// True if no edge has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalize into an immutable [`LabeledGraph`]: per label one sort of
    /// the pairs for the forward index, and the backward index its
    /// [`Csr::transpose`].
    pub fn build(self) -> LabeledGraph {
        let n = self.num_vertices;
        let (fwd, bwd) = self
            .per_label
            .into_iter()
            .map(|mut pairs| {
                pairs.sort_unstable();
                pairs.dedup();
                let fwd = Csr::from_sorted_pairs(n, &pairs);
                let bwd = fwd.transpose();
                (fwd, bwd)
            })
            .unzip();
        LabeledGraph::new(n, fwd, bwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_removed() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn domain_grows_on_demand() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_labels(), 3);
        assert!(g.has_edge(5, 9, 2));
    }

    #[test]
    fn with_labels_preserves_empty_relations() {
        let b = GraphBuilder::with_labels(4, 7);
        let g = b.build();
        assert_eq!(g.num_labels(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    /// The forward index built from the sorted, deduplicated pairs is
    /// the one `Csr::from_pairs` builds from them in any order, and the
    /// backward index its transpose.
    #[test]
    fn build_hands_sorted_pairs_over_unchanged() {
        let mut b = GraphBuilder::new(0);
        let mut pairs = Vec::new();
        for i in 0..5_000u32 {
            let (s, d) = ((i * 7_919) % 9_001, (i * 104_729) % 8_999);
            b.add_edge(s, d, 1);
            b.add_edge(s, d, 1);
            pairs.push((s, d));
        }
        let g = b.build();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.reverse();
        let (fwd, bwd) = g.csr_pairs().nth(1).unwrap();
        let want = Csr::from_pairs(g.num_vertices(), &pairs);
        assert_eq!(*fwd, want);
        assert_eq!(fwd.heap_bytes(), want.heap_bytes());
        assert_eq!(*bwd, want.transpose());
    }

    #[test]
    fn len_counts_pending_edges() {
        let mut b = GraphBuilder::new(3);
        assert!(b.is_empty());
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        assert_eq!(b.len(), 2);
    }
}
