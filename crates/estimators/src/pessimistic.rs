//! The pessimistic estimators: MOLP, CBS, and the sketched MOLP.

use ceg_graph::LabeledGraph;
use ceg_query::QueryGraph;

use crate::traits::CardinalityEstimator;
use crate::{bound_sketch, cbs, molp_bound, DegreeStats, MolpInstance};

/// The MOLP bound as an estimator (Section 5.1). With `use_joins` the
/// instance includes 2-edge-join degree statistics — a strict superset of
/// the optimistic estimators' statistics, as the paper's comparisons
/// require (Section 6.4).
pub struct MolpEstimator<'a> {
    stats: &'a DegreeStats,
    use_joins: bool,
}

impl<'a> MolpEstimator<'a> {
    pub fn new(stats: &'a DegreeStats, use_joins: bool) -> Self {
        MolpEstimator { stats, use_joins }
    }
}

impl CardinalityEstimator for MolpEstimator<'_> {
    fn name(&self) -> String {
        "MOLP".into()
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        let inst = MolpInstance::from_stats(query, self.stats, self.use_joins);
        let b = molp_bound(&inst);
        b.is_finite().then_some(b)
    }
}

/// The CBS estimator (Section 5.2): minimum bounding formula over
/// coverages. Identical to MOLP on acyclic binary queries (Appendix B);
/// potentially unsafe on cyclic ones (Appendix C).
pub struct CbsEstimator<'a> {
    stats: &'a DegreeStats,
}

impl<'a> CbsEstimator<'a> {
    pub fn new(stats: &'a DegreeStats) -> Self {
        CbsEstimator { stats }
    }
}

impl CardinalityEstimator for CbsEstimator<'_> {
    fn name(&self) -> String {
        "CBS".into()
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        let b = cbs::cbs_bound(query, self.stats);
        b.is_finite().then_some(b)
    }
}

/// MOLP with bound-sketch partitioning of budget `k` (Section 6.3).
pub struct SketchedMolp<'a> {
    graph: &'a LabeledGraph,
    k: u32,
}

impl<'a> SketchedMolp<'a> {
    pub fn new(graph: &'a LabeledGraph, k: u32) -> Self {
        SketchedMolp { graph, k }
    }
}

impl CardinalityEstimator for SketchedMolp<'_> {
    fn name(&self) -> String {
        format!("MOLP+bs{}", self.k)
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        let b = bound_sketch::molp_sketch_bound(self.graph, query, self.k);
        b.is_finite().then_some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(16);
        for i in 0..4 {
            b.add_edge(i, 4 + i, 0);
            b.add_edge(4 + i, 8 + (i % 3), 1);
        }
        b.add_edge(4, 8, 1);
        b.build()
    }

    #[test]
    fn molp_estimator_is_upper_bound() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        let mut est = MolpEstimator::new(&stats, false);
        let v = est.estimate(&q).unwrap();
        assert!(v >= count(&g, &q) as f64 - 1e-9);
    }

    #[test]
    fn cbs_equals_molp_on_acyclic() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        let a = MolpEstimator::new(&stats, false).estimate(&q).unwrap();
        let b = CbsEstimator::new(&stats).estimate(&q).unwrap();
        assert!((a.ln() - b.ln()).abs() < 1e-6);
    }

    #[test]
    fn sketched_molp_never_looser() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let direct = SketchedMolp::new(&g, 1).estimate(&q).unwrap();
        let sketched = SketchedMolp::new(&g, 16).estimate(&q).unwrap();
        assert!(sketched <= direct + 1e-9);
        assert!(sketched >= count(&g, &q) as f64 - 1e-9);
    }
}
