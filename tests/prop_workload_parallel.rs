//! The pool `Workload::build` draws is a function of `(graph,
//! per_template, seed)` only — not of how many threads count its truths.
//!
//! `Workload::build` works in rounds: it draws as many embeddings as a
//! template still wants from the one seeded RNG, counts that round's
//! truths together on scoped workers, keeps the positive, in-budget ones
//! in draw order, and repeats. The oracle here is the loop it replaced —
//! draw one instance, count it, draw the next — over the same sampler and
//! the same templates. Equal pools mean the rounds made the same draws in
//! the same order and stopped each template on the same attempt.

use cegraph::exec::{exact_count, CountBudget};
use cegraph::graph::LabeledGraph;
use cegraph::workload::workloads::{EmbeddingSampler, TRUTH_BUDGET};
use cegraph::workload::{Dataset, TemplateReport, Workload, WorkloadQuery};

const FAMILIES: [Workload; 5] = [
    Workload::Job,
    Workload::Acyclic,
    Workload::Cyclic,
    Workload::GCareAcyclic,
    Workload::GCareCyclic,
];

/// One instance at a time: sample, count, keep or drop, sample again.
fn one_at_a_time(
    family: Workload,
    graph: &LabeledGraph,
    want: usize,
    seed: u64,
    budget: CountBudget,
) -> (Vec<WorkloadQuery>, Vec<TemplateReport>) {
    let mut sampler = EmbeddingSampler::new(graph, seed);
    let mut out = Vec::new();
    let mut reports = Vec::new();
    for template in family.templates() {
        let mut r = TemplateReport {
            template: template.name.clone(),
            want,
            attempts: 0,
            sampled: 0,
            over_budget: 0,
            empty: 0,
            kept: 0,
        };
        while r.kept < want && r.attempts < want * 400 {
            r.attempts += 1;
            let Some(query) = sampler.sample(&template) else {
                continue;
            };
            r.sampled += 1;
            let Some(truth) = exact_count(graph, &query, budget) else {
                r.over_budget += 1;
                continue;
            };
            if truth <= 0.0 {
                r.empty += 1;
                continue;
            }
            r.kept += 1;
            out.push(WorkloadQuery {
                query,
                template: template.name.clone(),
                truth,
            });
        }
        reports.push(r);
    }
    (out, reports)
}

fn assert_same_pool(
    what: &str,
    got: &(Vec<WorkloadQuery>, Vec<TemplateReport>),
    want: &(Vec<WorkloadQuery>, Vec<TemplateReport>),
) {
    assert_eq!(got.0.len(), want.0.len(), "{what}: pool size");
    for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
        assert_eq!(g.template, w.template, "{what}: instance {i}");
        assert_eq!(g.query, w.query, "{what}: instance {i}");
        assert_eq!(g.truth.to_bits(), w.truth.to_bits(), "{what}: instance {i}");
    }
    assert_eq!(got.1, want.1, "{what}: reports");
}

/// Rounds forced onto 1, 2, 3 and 8 workers against the oracle, whose
/// reports are returned.
fn check(
    family: Workload,
    graph: &LabeledGraph,
    per: usize,
    seed: u64,
    budget: CountBudget,
) -> Vec<TemplateReport> {
    let what = format!("{} per_template={per} seed={seed}", family.name());
    let oracle = one_at_a_time(family, graph, per, seed, budget);
    for r in &oracle.1 {
        assert_eq!(r.sampled, r.over_budget + r.empty + r.kept, "{what}");
        assert!(r.kept == r.want || r.attempts == r.want * 400, "{what}");
    }
    for workers in [1usize, 2, 3, 8] {
        let rounds = family.build_with(graph, per, seed, &|_| workers, budget);
        assert_same_pool(&format!("{what} workers={workers}"), &rounds, &oracle);
    }
    oracle.1
}

/// Every family at pools of 1, 5 and 40 per template and two seeds.
fn check_families(dataset: Dataset) {
    let graph = dataset.generate(42);
    // A 9-edge cycle of G-CARE-Cyclic that runs out of `TRUTH_BUDGET`
    // takes a second to do so and a pool of 240 meets a dozen, so that
    // family gets a budget that fails fast (and drops one instance in
    // four, mid-round); at the default budget it is
    // `public_build_is_the_reported_build`'s.
    let fails_fast = CountBudget::new(200_000);
    // Unoptimized, embedding 40 cliques and counting cycles takes most of
    // a minute: a debug build trims the two cyclic families, CI's release
    // run of this file does not.
    let trimmed = cfg!(debug_assertions);
    for family in FAMILIES {
        let (pers, seeds, budget): (&[usize], &[u64], _) = match family {
            Workload::Cyclic if trimmed => (&[1, 5, 12], &[7, 42], TRUTH_BUDGET),
            Workload::GCareCyclic if trimmed => (&[1, 5], &[7], fails_fast),
            Workload::GCareCyclic => (&[1, 5, 40], &[7, 42], fails_fast),
            _ => (&[1, 5, 40], &[7, 42], TRUTH_BUDGET),
        };
        for &seed in seeds {
            for &per in pers {
                check(family, &graph, per, seed, budget);
            }
        }
    }
}

#[test]
fn pool_is_the_same_at_any_worker_count_imdb() {
    check_families(Dataset::Imdb);
}

#[test]
fn pool_is_the_same_at_any_worker_count_hetionet() {
    check_families(Dataset::Hetionet);
}

#[test]
fn public_build_is_the_reported_build() {
    let graph = Dataset::Hetionet.generate(42);
    for family in FAMILIES {
        let oracle = one_at_a_time(family, &graph, 5, 7, TRUTH_BUDGET);
        let reported = family.build_reported(&graph, 5, 7);
        assert_same_pool(family.name(), &reported, &oracle);
        let built = family.build(&graph, 5, 7);
        assert_same_pool(family.name(), &(built, reported.1), &oracle);
    }
}

/// A budget nine cyclic truths in ten run out of: instances are dropped in
/// the middle of a round, so the rounds after it draw what the
/// one-at-a-time loop drew after the same drops.
#[test]
fn over_budget_drops_mid_round_leave_the_draws_unchanged() {
    let graph = Dataset::Hetionet.generate(42);
    let starved = CountBudget::new(3_000);
    let reports = check(Workload::Cyclic, &graph, 6, 7, starved);
    let dropped: usize = reports.iter().map(|r| r.over_budget).sum();
    let kept: usize = reports.iter().map(|r| r.kept).sum();
    assert!(dropped > kept, "{dropped} dropped, {kept} kept");
    assert!(kept > 0, "the starved budget kept nothing");
}
