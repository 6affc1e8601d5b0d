//! Counting benchmarks: the exact homomorphism counter and the
//! Markov-catalog construction built on it. `markov_build_h3_serial` is
//! the before/after evidence for kernel changes, `markov_fill_h2_g100k`
//! for the cost of filling a catalog of acyclic patterns on the wire
//! benchmark's large graph (`BENCH_counting.json`).
//!
//! Set `CEG_BENCH_SMOKE=1` to run with tiny sample counts (the CI smoke
//! step does this); set `CRITERION_JSON=<path>` to capture the means.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ceg_bench::common;
use ceg_catalog::MarkovTable;
use ceg_exec::count;
use ceg_query::templates;
use ceg_workload::{Dataset, DatasetSpec, Workload};

fn bench_counting(c: &mut Criterion) {
    let smoke = std::env::var("CEG_BENCH_SMOKE").is_ok();
    let (graph, queries) = common::setup(Dataset::Hetionet, Workload::Acyclic, 1);
    let qs: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();

    let mut group = c.benchmark_group("counting");
    group.sample_size(if smoke { 2 } else { 10 });

    // Per-query counting: a path (intersections of arity 1-2), a star
    // (repeated extension from one hub binding) and a cycle (the k-way
    // intersection closing the loop).
    let path4 = templates::path(4, &[0, 1, 2, 3]);
    let star4 = templates::star(4, &[0, 1, 2, 3]);
    let cycle6 = templates::cycle(6, &[0, 1, 2, 3, 4, 5]);
    group.bench_function("count_path4", |b| {
        b.iter(|| black_box(count(black_box(&graph), &path4)));
    });
    group.bench_function("count_star4", |b| {
        b.iter(|| black_box(count(black_box(&graph), &star4)));
    });
    group.bench_function("count_cycle6", |b| {
        b.iter(|| black_box(count(black_box(&graph), &cycle6)));
    });

    // Catalog construction: the acceptance workload (Hetionet acyclic,
    // h = 3), serial vs the two-phase parallel path (identical tables).
    group.bench_function("markov_build_h3_serial", |b| {
        b.iter(|| black_box(MarkovTable::build(black_box(&graph), &qs, 3)));
    });
    group.bench_function("markov_build_h3_jobs4", |b| {
        b.iter(|| black_box(MarkovTable::build_parallel(black_box(&graph), &qs, 3, 4)));
    });

    // A cold catalog fill at the service's depth on `bench/`'s g100k
    // rung (the IMDb stand-in scaled ten times, seed 7): every pattern
    // is a tree of one or two edges over relations that touch a few
    // percent of the 90k vertices.
    let g100k = DatasetSpec {
        num_vertices: 90_000,
        num_edges: 220_000,
        ..Dataset::Imdb.spec()
    }
    .generate(7);
    let pool: Vec<_> = [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&g100k, 4, 7))
        .map(|q| q.query)
        .collect();
    group.bench_function("markov_fill_h2_g100k", |b| {
        b.iter(|| black_box(MarkovTable::build(black_box(&g100k), &pool, 2)));
    });
    group.finish();
}

criterion_group!(benches, bench_counting);
criterion_main!(benches);
