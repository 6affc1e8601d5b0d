//! Service-layer throughput on the engine directly (no socket in the
//! way): what one request of many queries saves over many requests of
//! one, plus the ceiling set by the LRU cache. Both shapes go through
//! the same `Engine::estimate_batch`; a request pins the epoch, hashes,
//! takes the cache lock for its probes and takes its admission permits
//! once, and runs its misses one after the other:
//!
//! * `one-at-a-time/*` — one `Engine::estimate` call per query,
//! * `batched/*` — one `Engine::estimate_batch` call for the workload,
//! * `cached/*` — the same traffic against a warm LRU (all hits),
//! * `explain_overhead/*` — the warm traffic with (`traced`) and without
//!   (`untraced`) a live per-request `Trace`, isolating what an
//!   `EXPLAIN_ESTIMATE` costs over a plain `ESTIMATE`.
//!
//! The first two run with caching disabled (capacity 0) so they measure
//! the estimation path, not the cache.
//!
//! `overload/*` drives a **live server** configured with a deliberately
//! tiny admission queue (`queue_cap: 4`) through flooded and
//! tight-deadline batches, so the typed `BUSY`/`TIMEOUT` rejection paths
//! get a perf trace too. After the group runs, the server's overload
//! counters (`busy_total`, `timeout_total`, `queued_peak`) are printed
//! and appended to `CRITERION_JSON` as `{"name": …, "counter": …}`
//! lines next to the timing records — the smoke evidence that admission
//! control actually engaged (`BENCH_service.json`).
//!
//! Set `CEG_BENCH_SMOKE=1` for tiny sample counts (CI) and
//! `CRITERION_JSON=<path>` to capture means + counters.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use ceg_bench::common;
use ceg_query::QueryGraph;
use ceg_service::{Client, DatasetRegistry, Engine, Server, ServerConfig};
use ceg_workload::{Dataset, Workload};

fn engine_for(graph: &ceg_graph::LabeledGraph, cache_capacity: usize) -> Engine {
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("bench", graph.clone(), 2);
    Engine::new(registry, cache_capacity)
}

fn bench_service(c: &mut Criterion) {
    let smoke = std::env::var("CEG_BENCH_SMOKE").is_ok();
    let (graph, workload) = common::setup(Dataset::Hetionet, Workload::Job, 2);
    let queries: Vec<QueryGraph> = workload.iter().map(|q| q.query.clone()).collect();

    let mut group = c.benchmark_group("service");
    group.sample_size(if smoke { 2 } else { 20 });

    // Warm catalogs once so the benches measure steady-state request
    // handling, not the first-ever pattern counting.
    let single = engine_for(&graph, 0);
    let batched = engine_for(&graph, 0);
    let cached = engine_for(&graph, 4096);
    common::estimate_all(&single, &queries);
    common::estimate_all(&batched, &queries);
    common::estimate_all(&cached, &queries);

    group.bench_function("one-at-a-time/job", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(single.estimate("bench", black_box(q)).unwrap());
            }
        });
    });
    group.bench_function("batched/job", |b| {
        b.iter(|| black_box(common::estimate_all(&batched, black_box(&queries))));
    });
    group.bench_function("cached/job", |b| {
        b.iter(|| black_box(common::estimate_all(&cached, black_box(&queries))));
    });
    // Tracing overhead, isolated: the same warm-cache traffic answered
    // through `Engine::explain` (a live `Trace` recording every span and
    // counter) vs the plain untraced path. The delta is what one
    // EXPLAIN_ESTIMATE costs over an ESTIMATE.
    group.bench_function("explain_overhead/untraced", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(cached.estimate("bench", black_box(q)).unwrap());
            }
        });
    });
    group.bench_function("explain_overhead/traced", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(cached.explain("bench", black_box(q), None).unwrap());
            }
        });
    });
    group.finish();

    bench_overload(c, &graph, &queries, smoke);
}

/// Wire-level overload: flooded and tight-deadline batches against a
/// server whose admission queue is deliberately tiny, so the typed
/// rejection paths are what gets measured.
fn bench_overload(
    c: &mut Criterion,
    graph: &ceg_graph::LabeledGraph,
    queries: &[QueryGraph],
    smoke: bool,
) {
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("bench", graph.clone(), 2);
    let server = Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0, // every slot takes the admission-controlled path
            queue_cap: 4,
            default_deadline_ms: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind bench server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let flood: Vec<QueryGraph> = queries.iter().cycle().take(64).cloned().collect();

    let mut group = c.benchmark_group("overload");
    group.sample_size(if smoke { 2 } else { 10 });
    // 64 cold slots against queue_cap=4: a mix of answered and
    // BUSY-rejected slots, timed end-to-end over the wire.
    group.bench_function("flooded_batch_64/job", |b| {
        b.iter(|| {
            black_box(
                client
                    .estimate_batch_with_deadline("bench", black_box(&flood), None)
                    .expect("typed replies"),
            )
        });
    });
    // The same batch already expired on arrival (`DEADLINE_MS=0`): every
    // admitted slot resolves to a typed TIMEOUT before it runs — the cost of
    // shedding a batch of dead work, and a guaranteed non-zero
    // `timeout_total` in the counter trace.
    group.bench_function("expired_deadline_batch_64/job", |b| {
        b.iter(|| {
            black_box(
                client
                    .estimate_batch_with_deadline("bench", black_box(&flood), Some(0))
                    .expect("typed replies"),
            )
        });
    });
    group.finish();

    // Emit the overload counters next to the timing records: proof in
    // the bench trace that admission control and deadlines engaged.
    let snapshot = server.engine().metrics_snapshot();
    for key in ["busy_total", "timeout_total", "queued", "queued_peak"] {
        let value = snapshot
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        println!("  overload/{key}: {value}");
        append_counter_record(&format!("overload/{key}"), value);
    }
}

/// Append one `{"name": …, "counter": …}` line to `CRITERION_JSON`, the
/// counter-valued sibling of the vendored criterion's timing records.
fn append_counter_record(name: &str, value: u64) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    let line = format!("{{\"name\":\"{name}\",\"counter\":{value}}}\n");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
