//! Shared harness code for the figure/table binaries.

use std::time::Instant;

use ceg_catalog::MarkovTable;
use ceg_core::Heuristic;
use ceg_estimators::{pstar_estimate, CardinalityEstimator, CcrTable, OptimisticEstimator};
use ceg_graph::LabeledGraph;
use ceg_workload::qerror::{signed_log_qerror, QErrorSummary};
use ceg_workload::runner::EstimatorReport;
use ceg_workload::workloads::{TemplateReport, WorkloadQuery};
use ceg_workload::{Dataset, Workload};

/// Deterministic seed used by every harness (documented in EXPERIMENTS.md).
pub const SEED: u64 = 2022;

/// Generate a dataset and instantiate a workload on it, with progress
/// output (truth counting dominates setup time).
pub fn setup(ds: Dataset, wl: Workload, per_template: usize) -> (LabeledGraph, Vec<WorkloadQuery>) {
    let t0 = Instant::now();
    let graph = ds.generate(SEED);
    let (queries, reports) = wl.build_reported(&graph, per_template, SEED);
    let total = |field: fn(&TemplateReport) -> usize| reports.iter().map(field).sum::<usize>();
    eprintln!(
        "[setup] {} / {}: |V|={} |E|={} labels={} queries={} of {} \
         ({} over budget, {} empty, {} attempts) ({:.1?})",
        ds.name(),
        wl.name(),
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels(),
        queries.len(),
        total(|r| r.want),
        total(|r| r.over_budget),
        total(|r| r.empty),
        total(|r| r.attempts),
        t0.elapsed()
    );
    (graph, queries)
}

/// Build the workload-specific Markov table (Section 6: tables are built
/// per workload, like the paper's), counting patterns on the machine's
/// available cores (capped at 8 by `default_build_parallelism`) — the
/// table is identical to a serial build.
pub fn markov_for(graph: &LabeledGraph, queries: &[WorkloadQuery], h: usize) -> MarkovTable {
    let t0 = Instant::now();
    let table = ceg_workload::runner::build_markov_parallel(graph, queries, h);
    eprintln!(
        "[setup] Markov table h={h}: {} entries, {:.2} KiB ({:.1?})",
        table.len(),
        table.heap_bytes() as f64 / 1024.0,
        t0.elapsed()
    );
    table
}

/// Build the cycle-closing-rate table for a workload.
pub fn ccr_for(graph: &LabeledGraph, queries: &[WorkloadQuery], samples: u32) -> CcrTable {
    let t0 = Instant::now();
    let qs: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();
    let ccr = CcrTable::build(graph, &qs, samples, SEED);
    eprintln!(
        "[setup] CCR table: {} entries, {} samples each ({:.1?})",
        ccr.len(),
        samples,
        t0.elapsed()
    );
    ccr
}

/// The nine optimistic estimators on CEG_O, in the paper's plot order.
pub fn nine_estimators<'a>(table: &'a MarkovTable) -> Vec<Box<dyn CardinalityEstimator + 'a>> {
    Heuristic::all()
        .into_iter()
        .map(|h| {
            Box::new(OptimisticEstimator::ceg_o_only(table, h)) as Box<dyn CardinalityEstimator>
        })
        .collect()
}

/// The nine estimators on CEG_OCR (falls back to CEG_O on small-cycle or
/// acyclic queries, exactly as the estimator itself decides).
pub fn nine_estimators_ocr<'a>(
    table: &'a MarkovTable,
    ccr: &'a CcrTable,
) -> Vec<Box<dyn CardinalityEstimator + 'a>> {
    Heuristic::all()
        .into_iter()
        .map(|h| {
            Box::new(OptimisticEstimator::with_ccr(table, ccr, h)) as Box<dyn CardinalityEstimator>
        })
        .collect()
}

/// The P* oracle as a report row (Section 6.2.3).
pub fn pstar_report(
    queries: &[WorkloadQuery],
    table: &MarkovTable,
    ccr: Option<&CcrTable>,
) -> EstimatorReport {
    let t0 = Instant::now();
    let mut errors = Vec::with_capacity(queries.len());
    let mut failures = 0usize;
    for wq in queries {
        match pstar_estimate(&wq.query, table, ccr, wq.truth) {
            Some(e) => errors.push(signed_log_qerror(e, wq.truth)),
            None => failures += 1,
        }
    }
    let elapsed = t0.elapsed().as_secs_f64() * 1e6;
    EstimatorReport {
        name: "P*".into(),
        summary: QErrorSummary::from_signed(errors, failures),
        mean_time_us: if queries.is_empty() {
            0.0
        } else {
            elapsed / queries.len() as f64
        },
    }
}

/// Filter a workload by a query predicate.
pub fn filter_queries(
    queries: &[WorkloadQuery],
    pred: impl Fn(&WorkloadQuery) -> bool,
) -> Vec<WorkloadQuery> {
    queries.iter().filter(|q| pred(q)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_produces_nonempty_workload() {
        let (_g, w) = setup(Dataset::Hetionet, Workload::Job, 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn nine_estimators_have_distinct_names() {
        let (g, w) = setup(Dataset::Hetionet, Workload::Job, 1);
        let t = markov_for(&g, &w, 2);
        let ests = nine_estimators(&t);
        let mut names: Vec<String> = ests.iter().map(|e| e.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
