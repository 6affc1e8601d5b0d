//! Extensions beyond the paper's evaluation (supplementary experiment):
//!
//! * **MaxEnt** — the maximum-entropy estimator the paper's Section 7
//!   sketches as future work, over the same Markov statistics;
//! * **JSUB** — index-based join sampling, the other G-CARE sampler
//!   family, next to WanderJoin;
//! * **sampled Markov tables** — approximate statistics construction
//!   (how catalogue systems build statistics at scale): accuracy of
//!   max-hop-max under exact vs sampled tables.

use ceg_bench::common;
use ceg_core::{Aggr, Heuristic, PathLen};
use ceg_estimators::markov::build_sampled;
use ceg_estimators::{
    CardinalityEstimator, JsubEstimator, MaxEntEstimator, OptimisticEstimator, WanderJoinEstimator,
};
use ceg_workload::runner::{render_table, run_estimators};
use ceg_workload::{Dataset, Workload};

fn main() {
    println!("Extensions: MaxEnt, JSUB and sampled statistics");
    let combos = [
        (Dataset::Imdb, Workload::Job, 8),
        (Dataset::Hetionet, Workload::Acyclic, 3),
    ];
    for (ds, wl, per_template) in combos {
        let (graph, queries) = common::setup(ds, wl, per_template);
        if queries.is_empty() {
            continue;
        }
        let table = common::markov_for(&graph, &queries, 2);
        let qs: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();
        let sampled = build_sampled(&graph, &qs, 2, 2000, common::SEED);

        let mhm = Heuristic::new(PathLen::MaxHop, Aggr::Max);
        let mut ests: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(OptimisticEstimator::new(&table, mhm)),
            Box::new(NamedOptimistic {
                inner: OptimisticEstimator::new(&sampled, mhm),
            }),
            Box::new(MaxEntEstimator::new(&graph, &table)),
            Box::new(WanderJoinEstimator::new(&graph, 0.05, common::SEED)),
            Box::new(JsubEstimator::new(&graph, 0.05, common::SEED)),
        ];
        let reports = run_estimators(&queries, &mut ests);
        println!(
            "{}",
            render_table(&format!("{} / {}", ds.name(), wl.name()), &reports)
        );
    }
}

/// Wrapper renaming the sampled-table estimator in reports.
struct NamedOptimistic<'a> {
    inner: OptimisticEstimator<'a>,
}

impl CardinalityEstimator for NamedOptimistic<'_> {
    fn name(&self) -> String {
        format!("{}(sampled)", self.inner.name())
    }
    fn estimate(&mut self, q: &ceg_query::QueryGraph) -> Option<f64> {
        self.inner.estimate(q)
    }
}
