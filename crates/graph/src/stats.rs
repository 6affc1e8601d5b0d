//! Per-label summary statistics.
//!
//! These are the base-relation statistics every estimator in the paper
//! consumes: cardinalities, projection sizes, average and maximum degrees.

use crate::{LabelId, LabeledGraph};

/// Summary statistics of one relation `R_l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStats {
    pub label: LabelId,
    /// `|R_l|`.
    pub cardinality: usize,
    /// `|π_src R_l|`.
    pub distinct_sources: usize,
    /// `|π_dst R_l|`.
    pub distinct_targets: usize,
    /// `deg(src, R_l)` — maximum out-degree.
    pub max_out_degree: usize,
    /// `deg(dst, R_l)` — maximum in-degree.
    pub max_in_degree: usize,
}

impl LabelStats {
    /// Compute statistics for one label of `graph`.
    pub fn compute(graph: &LabeledGraph, label: LabelId) -> Self {
        LabelStats {
            label,
            cardinality: graph.label_count(label),
            distinct_sources: graph.distinct_sources(label),
            distinct_targets: graph.distinct_targets(label),
            max_out_degree: graph.max_out_degree(label),
            max_in_degree: graph.max_in_degree(label),
        }
    }
}

/// Statistics for every label of `graph`.
pub fn all_label_stats(graph: &LabeledGraph) -> Vec<LabelStats> {
    (0..graph.num_labels() as LabelId)
        .map(|l| LabelStats::compute(graph, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_of_star() {
        // vertex 0 has three out-edges with label 0
        let mut b = GraphBuilder::new(4);
        for d in 1..4 {
            b.add_edge(0, d, 0);
        }
        let g = b.build();
        let s = LabelStats::compute(&g, 0);
        assert_eq!(s.cardinality, 3);
        assert_eq!(s.distinct_sources, 1);
        assert_eq!(s.distinct_targets, 3);
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.max_in_degree, 1);
    }

    #[test]
    fn empty_relation_has_zero_stats() {
        let g = GraphBuilder::with_labels(3, 2).build();
        let s = LabelStats::compute(&g, 1);
        assert_eq!(s.cardinality, 0);
        assert_eq!((s.distinct_sources, s.distinct_targets), (0, 0));
        assert_eq!((s.max_out_degree, s.max_in_degree), (0, 0));
    }

    #[test]
    fn all_labels_covered() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 0, 1);
        let g = b.build();
        let all = all_label_stats(&g);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].label, 0);
        assert_eq!(all[1].label, 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn parallel_labels_are_independent() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 1); // same pair, different relation
        let g = b.build();
        assert_eq!(LabelStats::compute(&g, 0).cardinality, 1);
        assert_eq!(LabelStats::compute(&g, 1).cardinality, 1);
    }

    #[test]
    fn self_loop_counts_in_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 0);
        let g = b.build();
        let s = LabelStats::compute(&g, 0);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.distinct_sources, 1);
        assert_eq!(s.distinct_targets, 1);
    }
}
