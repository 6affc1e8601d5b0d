//! Live-update benchmarks: estimate latency under a mixed update/estimate
//! stream, and the cost of keeping the catalog consistent at commit time.
//!
//! * `estimate_steady/*` — batched estimation, cache off, frozen graph:
//!   the pure compute baseline,
//! * `estimate_cached_steady/*` — same traffic against a warm LRU on a
//!   frozen graph: the all-hits ceiling,
//! * `estimate_under_updates/*` — each iteration buffers one effective
//!   edge update, commits (epoch bump + incremental catalog recount +
//!   cache invalidation) and re-estimates the workload: what a client
//!   pays when updates interleave with estimates,
//! * `commit_incremental/*` — one effective update + commit alone: the
//!   incremental maintenance path (only touched-label entries recount),
//! * `commit_durable/*` — the same commit with a write-ahead log
//!   attached: one WAL append + `fdatasync` before the ack. The log
//!   lives under `CEG_WAL_BENCH_DIR` when set (CI pins it to tmpfs so
//!   the bench measures the commit path, not the device's fsync floor,
//!   which on ext4 exceeds the whole commit budget by itself),
//! * `catalog_rebuild/*` — the from-scratch `MarkovTable::build` a
//!   non-incremental design would pay per commit, for contrast.
//!
//! Set `CEG_BENCH_SMOKE=1` for tiny sample counts (CI) and
//! `CRITERION_JSON=<path>` to capture the means.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use ceg_bench::common;
use ceg_catalog::MarkovTable;
use ceg_graph::{LabeledGraph, VertexId};
use ceg_query::QueryGraph;
use ceg_service::{DatasetEntry, DatasetRegistry, Engine};
use ceg_workload::{Dataset, Workload};

/// An edge absent from the graph, to toggle (add on even steps, delete on
/// odd ones) so every commit is effective and bumps the epoch.
fn absent_edge(graph: &LabeledGraph) -> (VertexId, VertexId) {
    for s in 0..graph.num_vertices() as VertexId {
        for d in 0..graph.num_vertices() as VertexId {
            if !graph.has_edge(s, d, 0) {
                return (s, d);
            }
        }
    }
    unreachable!("relation 0 cannot be complete");
}

fn engine_for(graph: &LabeledGraph, cache_capacity: usize) -> (Engine, Arc<DatasetEntry>) {
    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert_graph("bench", graph.clone(), 2);
    (Engine::new(registry, cache_capacity), entry)
}

fn bench_updates(c: &mut Criterion) {
    let smoke = std::env::var("CEG_BENCH_SMOKE").is_ok();
    let (graph, workload) = common::setup(Dataset::Hetionet, Workload::Job, 2);
    let queries: Vec<QueryGraph> = workload.iter().map(|q| q.query.clone()).collect();
    let (src, dst) = absent_edge(&graph);

    let mut group = c.benchmark_group("updates");
    group.sample_size(if smoke { 2 } else { 10 });

    // Warm every engine once so the benches measure steady state, not
    // first-ever catalog fills.
    let (steady, _) = engine_for(&graph, 0);
    let (cached, _) = engine_for(&graph, 4096);
    let (live, live_entry) = engine_for(&graph, 4096);
    let (churn, churn_entry) = engine_for(&graph, 0);
    for engine in [&steady, &cached, &live, &churn] {
        common::estimate_all(engine, &queries);
    }

    group.bench_function("estimate_steady/job", |b| {
        b.iter(|| black_box(common::estimate_all(&steady, black_box(&queries))));
    });
    group.bench_function("estimate_cached_steady/job", |b| {
        b.iter(|| black_box(common::estimate_all(&cached, black_box(&queries))));
    });

    let mut flip = false;
    group.bench_function("estimate_under_updates/job", |b| {
        b.iter(|| {
            if flip {
                live_entry.del_edge(src, dst, 0).unwrap();
            } else {
                live_entry.add_edge(src, dst, 0).unwrap();
            }
            flip = !flip;
            let outcome = live_entry.commit();
            debug_assert!(outcome.added + outcome.deleted == 1);
            black_box(common::estimate_all(&live, black_box(&queries)))
        });
    });

    let mut flip = false;
    group.bench_function("commit_incremental/job", |b| {
        b.iter(|| {
            if flip {
                churn_entry.del_edge(src, dst, 0).unwrap();
            } else {
                churn_entry.add_edge(src, dst, 0).unwrap();
            }
            flip = !flip;
            black_box(churn_entry.commit())
        });
    });

    // Same commit, now crash-safe: WAL append + fdatasync per COMMIT.
    let wal_dir = std::env::var_os("CEG_WAL_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let scratch = wal_dir.join(format!("ceg-bench-durable-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let (durable, durable_entry) = engine_for(&graph, 0);
    common::estimate_all(&durable, &queries);
    durable_entry
        .attach_durability(
            Arc::new(ceg_graph::vfs::OsStorage),
            scratch.join("bench.cegsnap"),
            scratch.join("bench.cegwal"),
        )
        .unwrap();
    let mut flip = false;
    group.bench_function("commit_durable/job", |b| {
        b.iter(|| {
            if flip {
                durable_entry.del_edge(src, dst, 0).unwrap();
            } else {
                durable_entry.add_edge(src, dst, 0).unwrap();
            }
            flip = !flip;
            black_box(durable_entry.commit())
        });
    });

    group.bench_function("catalog_rebuild/job", |b| {
        b.iter(|| black_box(MarkovTable::build(black_box(&graph), &queries, 2)));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
