//! The optimistic estimators: CEG_O / CEG_OCR heuristics, the bound-sketch
//! variant, and the P* oracle.

use ceg_catalog::MarkovTable;
use ceg_core::{Aggr, CegO, Heuristic, PathLen};
use ceg_graph::LabeledGraph;
use ceg_query::cycles::has_large_cycle;
use ceg_query::QueryGraph;

use crate::traits::CardinalityEstimator;
use crate::{bound_sketch, build_ceg_ocr, oracle, CcrTable};

/// One of the nine optimistic estimators over CEG_O (or CEG_OCR when the
/// query has a cycle longer than the Markov table and closing rates are
/// available — the configuration Section 6.2 finds best).
pub struct OptimisticEstimator<'a> {
    table: &'a MarkovTable,
    ccr: Option<&'a CcrTable>,
    heuristic: Heuristic,
    /// Force CEG_O even for large-cycle queries (used by the Figure 11
    /// comparison, which evaluates both CEGs side by side).
    force_ceg_o: bool,
}

impl<'a> OptimisticEstimator<'a> {
    /// Estimator on CEG_O only.
    pub fn new(table: &'a MarkovTable, heuristic: Heuristic) -> Self {
        OptimisticEstimator {
            table,
            ccr: None,
            heuristic,
            force_ceg_o: false,
        }
    }

    /// Estimator that switches to CEG_OCR for large-cycle queries.
    pub fn with_ccr(table: &'a MarkovTable, ccr: &'a CcrTable, heuristic: Heuristic) -> Self {
        OptimisticEstimator {
            table,
            ccr: Some(ccr),
            heuristic,
            force_ceg_o: false,
        }
    }

    /// Estimator pinned to CEG_O regardless of cycle structure.
    pub fn ceg_o_only(table: &'a MarkovTable, heuristic: Heuristic) -> Self {
        OptimisticEstimator {
            table,
            ccr: None,
            heuristic,
            force_ceg_o: true,
        }
    }

    /// Estimator on CEG_O with the [`Heuristic::RECOMMENDED`] heuristic.
    pub fn recommended(table: &'a MarkovTable) -> Self {
        Self::new(table, Heuristic::RECOMMENDED)
    }

    fn build_ceg(&self, query: &QueryGraph) -> CegO {
        match self.ccr {
            Some(ccr) if !self.force_ceg_o && has_large_cycle(query, self.table.h()) => {
                build_ceg_ocr(query, self.table, ccr)
            }
            _ => CegO::build(query, self.table),
        }
    }
}

impl CardinalityEstimator for OptimisticEstimator<'_> {
    fn name(&self) -> String {
        let base = self.heuristic.name();
        match self.ccr {
            Some(_) if !self.force_ceg_o => format!("{base}(ocr)"),
            _ => base,
        }
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        self.build_ceg(query).ceg().estimate(self.heuristic)
    }
}

/// The P* oracle estimate for one query (Section 6.2.3): the CEG path
/// whose estimate is closest to the true cardinality.
pub fn pstar_estimate(
    query: &QueryGraph,
    table: &MarkovTable,
    ccr: Option<&CcrTable>,
    truth: f64,
) -> Option<f64> {
    let ceg = match ccr {
        Some(c) if has_large_cycle(query, table.h()) => build_ceg_ocr(query, table, c),
        _ => CegO::build(query, table),
    };
    oracle::oracle_estimate(ceg.ceg(), truth, oracle::DEFAULT_CAP)
}

/// Bound-sketch-refined optimistic estimator (Sections 5.2.2, 6.3): picks
/// the chosen heuristic's path, partitions the join attributes with budget
/// `k`, and sums per-partition evaluations of the formula.
pub struct SketchedOptimistic<'a> {
    graph: &'a LabeledGraph,
    table: &'a MarkovTable,
    path_len: PathLen,
    maximize: bool,
    k: u32,
}

impl<'a> SketchedOptimistic<'a> {
    pub fn new(
        graph: &'a LabeledGraph,
        table: &'a MarkovTable,
        path_len: PathLen,
        maximize: bool,
        k: u32,
    ) -> Self {
        SketchedOptimistic {
            graph,
            table,
            path_len,
            maximize,
            k,
        }
    }

    /// The configuration benchmarked in Figure 12: `max-hop-max` + sketch.
    pub fn max_hop_max(graph: &'a LabeledGraph, table: &'a MarkovTable, k: u32) -> Self {
        Self::new(graph, table, PathLen::MaxHop, true, k)
    }
}

impl CardinalityEstimator for SketchedOptimistic<'_> {
    fn name(&self) -> String {
        let aggr = if self.maximize { Aggr::Max } else { Aggr::Min };
        let base = Heuristic::new(self.path_len, aggr).name();
        format!("{base}+bs{}", self.k)
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        bound_sketch::optimistic_sketch_estimate(
            self.graph,
            query,
            self.table,
            self.path_len,
            self.maximize,
            self.k,
        )
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
            b.add_edge(4 + i, 8 + i, 1);
            b.add_edge(8 + i, 12 + (i % 2), 2);
        }
        b.build()
    }

    #[test]
    fn estimator_runs_all_heuristics() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        for h in Heuristic::all() {
            let mut est = OptimisticEstimator::new(&t, h);
            let v = est.estimate(&q).unwrap();
            assert!(v >= 0.0, "{}", est.name());
        }
    }

    #[test]
    fn recommended_is_max_hop_max() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        assert_eq!(OptimisticEstimator::recommended(&t).name(), "max-hop-max");
    }

    #[test]
    fn pstar_beats_or_matches_heuristics() {
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 2, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let truth = count(&g, &q) as f64;
        let star = pstar_estimate(&q, &t, None, truth).unwrap();
        let star_err = crate::oracle::qerror(star, truth);
        for h in Heuristic::all() {
            if h.aggr == Aggr::Avg {
                continue; // avg is not a single-path estimate
            }
            let mut e = OptimisticEstimator::new(&t, h);
            if let Some(v) = e.estimate(&q) {
                assert!(
                    star_err <= crate::oracle::qerror(v, truth) + 1e-9,
                    "P* {star} beaten by {} = {v} (truth {truth})",
                    h.name()
                );
            }
        }
    }

    #[test]
    fn sketched_k1_equals_plain_path_estimate() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let mut sk = SketchedOptimistic::max_hop_max(&g, &t, 1);
        assert_eq!(
            SketchedOptimistic::max_hop_max(&g, &t, 4).name(),
            "max-hop-max+bs4"
        );
        assert_eq!(
            SketchedOptimistic::new(&g, &t, PathLen::MinHop, false, 16).name(),
            "min-hop-min+bs16"
        );
        let mut plain = OptimisticEstimator::recommended(&t);
        let a = sk.estimate(&q).unwrap();
        let b = plain.estimate(&q).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
