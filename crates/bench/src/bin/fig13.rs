//! Figure 13 — summary-based estimator comparison: max-hop-max (CEG_O),
//! MOLP (with 2-join degree statistics, a strict superset of the
//! optimistic statistics), Characteristic Sets, and SumRDF (Section 6.4),
//! h = 2.
//!
//! Expected shape (paper): max-hop-max wins by orders of magnitude in
//! mean q-error; MOLP never underestimates but is very loose; CS and
//! SumRDF underestimate virtually everywhere; SumRDF occasionally times
//! out (counted in the failures column).

use ceg_bench::common;
use ceg_core::{Aggr, Heuristic, PathLen};
use ceg_estimators::{
    CardinalityEstimator, CharacteristicSets, CsEstimator, DegreeStats, MolpEstimator,
    OptimisticEstimator, SumRdfEstimator, SummaryGraph,
};
use ceg_workload::runner::{render_table, run_estimators};
use ceg_workload::{Dataset, Workload};

fn main() {
    let combos = [
        (Dataset::Imdb, Workload::Job, 10),
        (Dataset::Hetionet, Workload::Acyclic, 3),
        (Dataset::Watdiv, Workload::Acyclic, 3),
        (Dataset::Epinions, Workload::Acyclic, 3),
        (Dataset::Yago, Workload::GCareAcyclic, 3),
    ];
    println!("Figure 13: summary-based estimator comparison (h = 2)");
    for (ds, wl, per_template) in combos {
        let (graph, queries) = common::setup(ds, wl, per_template);
        if queries.is_empty() {
            continue;
        }
        let table = common::markov_for(&graph, &queries, 2);
        let qs: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();
        let degs = DegreeStats::build_with_joins(&graph, &qs, 3_000_000);
        let cs = CharacteristicSets::build(&graph);
        let summary = SummaryGraph::build(&graph, 64);

        let mut ests: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(OptimisticEstimator::new(
                &table,
                Heuristic::new(PathLen::MaxHop, Aggr::Max),
            )),
            Box::new(MolpEstimator::new(&degs, true)),
            Box::new(CsEstimator::new(&cs)),
            Box::new(SumRdfEstimator::new(&summary, 3_000_000)),
        ];
        let reports = run_estimators(&queries, &mut ests);
        println!(
            "{}",
            render_table(&format!("{} / {}", ds.name(), wl.name()), &reports)
        );
    }
}
