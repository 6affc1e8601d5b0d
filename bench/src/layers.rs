//! Per-layer numbers from direct calls into each crate's public
//! functions, on the graph and query pool of the workload being traced.
//! Every timed call is also a span in the trace file.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceg_catalog::MarkovTable;
use ceg_core::ceg_o::CegO;
use ceg_estimators::{CardinalityEstimator, OptimisticEstimator};
use ceg_graph::vfs::OsStorage;
use ceg_graph::wal::{WalOp, WalWriter};
use ceg_graph::{GraphDelta, OverlayGraph};
use ceg_query::{templates, QueryGraph};
use ceg_service::protocol::{Request, Response};
use ceg_service::{DatasetEntry, DatasetRegistry, Engine, EstimateCache, EstimateOutcome};
use ceg_workload::{UpdateOp, Workload};

use crate::inputs::{reference, G10K, H};
use crate::proc::Scratch;
use crate::report::{unit_of, Metric};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::wire::DATASET;
use crate::workload::Inputs;

/// Time spent repeating one fast call.
const BUDGET: Duration = Duration::from_millis(60);
/// Direct commits, WAL appends, rebases: slower calls repeated this often.
const SLOW_REPEATS: usize = 12;
/// Queries the warm-cache and estimator loops cycle over.
const SAMPLE_QUERIES: usize = 256;

struct Direct<'a> {
    tracer: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Direct<'_> {
    /// Median time of one call of `f`, repeated for [`BUDGET`]. Calls
    /// faster than the clock resolves are timed in groups.
    fn calls<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) {
        let probe = Instant::now();
        black_box(f());
        let group = if probe.elapsed() < Duration::from_micros(20) {
            64
        } else {
            1
        };
        let mut samples = Vec::new();
        let started = Instant::now();
        while started.elapsed() < BUDGET || samples.len() < 5 {
            let t = Instant::now();
            for _ in 0..group {
                black_box(f());
            }
            let took = t.elapsed();
            self.tracer.direct(name, t, took);
            samples.push(took.as_secs_f64() * 1e6 / group as f64);
        }
        self.out.push(Metric {
            name,
            value: median(&samples).unwrap_or(0.0),
            n: (samples.len() * group) as u64,
        });
    }

    /// Time one call of `f`, in the metric's own unit (`s` or `us`).
    fn once<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let took = t.elapsed();
        self.tracer.direct(name, t, took);
        self.samples(name, &[took]);
        r
    }

    /// Report the median of already-timed calls.
    fn samples(&mut self, name: &'static str, took: &[Duration]) {
        let scale = if unit_of(name) == "s" { 1.0 } else { 1e6 };
        let values: Vec<f64> = took.iter().map(|d| d.as_secs_f64() * scale).collect();
        self.out.push(Metric {
            name,
            value: median(&values).unwrap_or(0.0),
            n: values.len() as u64,
        });
    }

    fn value(&mut self, name: &'static str, value: f64, n: usize) {
        self.out.push(Metric {
            name,
            value,
            n: n as u64,
        });
    }
}

fn cycling<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T + 'a {
    let mut i = 0;
    move || {
        i = (i + 1) % items.len();
        &items[i]
    }
}

fn apply_ops(entry: &DatasetEntry, ops: &[UpdateOp]) -> Result<(), String> {
    for op in ops {
        match *op {
            UpdateOp::Add { src, dst, label } => entry.add_edge(src, dst, label)?,
            UpdateOp::Del { src, dst, label } => entry.del_edge(src, dst, label)?,
            UpdateOp::Commit => continue,
        };
    }
    Ok(())
}

fn delta_of(ops: &[UpdateOp]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for op in ops {
        match *op {
            UpdateOp::Add { src, dst, label } => delta.add_edge(src, dst, label),
            UpdateOp::Del { src, dst, label } => delta.del_edge(src, dst, label),
            UpdateOp::Commit => {}
        }
    }
    delta
}

/// Time `commits` on `entry`; returns the recounted patterns, WAL bytes
/// and effective edge operations they added up to.
fn timed_commits(
    d: &mut Direct,
    name: &'static str,
    entry: &DatasetEntry,
    commits: &[Vec<UpdateOp>],
) -> Result<(usize, u64, usize), String> {
    let mut took = Vec::new();
    let (mut recounted, mut wal_bytes, mut effective) = (0, 0, 0);
    for ops in commits {
        apply_ops(entry, ops)?;
        let t = Instant::now();
        let outcome = entry
            .try_commit()
            .map_err(|e| format!("direct commit: {e}"))?;
        took.push(t.elapsed());
        d.tracer.direct(name, t, t.elapsed());
        recounted += outcome.recounted;
        wal_bytes += outcome.wal_bytes;
        effective += outcome.added + outcome.deleted;
    }
    d.samples(name, &took);
    Ok((recounted, wal_bytes, effective))
}

/// Every direct per-layer metric, measured on `inputs`.
pub fn direct_layers(
    inputs: &Inputs,
    seed: u64,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut d = Direct {
        tracer,
        out: Vec::new(),
    };
    let graph = &inputs.graph;
    let queries = &inputs.queries[..inputs.queries.len().min(SAMPLE_QUERIES)];
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");

    // service::protocol, query::canon, service::cache
    let lines: Vec<String> = queries
        .iter()
        .map(|q| {
            Request::Estimate {
                dataset: DATASET.into(),
                query: q.clone(),
                deadline_ms: None,
            }
            .format()
        })
        .collect();
    let mut next_line = cycling(&lines);
    d.calls("protocol.parse_us", || Request::parse(next_line()));
    let reply = Response::Estimate {
        outcome: EstimateOutcome {
            value: Some(1234567.125),
            cached: true,
        },
        hits: 123_456,
        misses: 7_890,
    };
    d.calls("protocol.format_us", || reply.format());
    let mut next_query = cycling(queries);
    d.calls("query.canon_hash_us", || next_query().canonical_hash());

    let hashed: Vec<(&QueryGraph, u64)> = queries.iter().map(|q| (q, q.canonical_hash())).collect();
    let mut cache = EstimateCache::new(4096);
    for (q, h) in &hashed {
        cache.store_hashed(DATASET, q, *h, 0, Some(1.0));
    }
    let mut next_hashed = cycling(&hashed);
    d.calls("cache.probe_hit_us", || {
        let (q, h) = *next_hashed();
        cache.probe_hashed(DATASET, q, h, 0)
    });
    // At capacity, a store under a key never seen evicts the oldest
    // bucket; any u64 serves as the canonical hash of the key.
    let mut fresh_key = 1u64 << 40;
    for _ in 0..4096 {
        fresh_key += 1;
        cache.store_hashed(DATASET, &queries[0], fresh_key, 0, Some(1.0));
    }
    d.calls("cache.store_evict_us", || {
        fresh_key += 1;
        cache.store_hashed(DATASET, &queries[0], fresh_key, 0, Some(1.0))
    });

    // catalog: one from-scratch fill of every pattern the pool needs.
    let t = Instant::now();
    let table = MarkovTable::build(graph, &inputs.queries, H);
    d.tracer
        .direct("catalog.fill_us_per_pattern", t, t.elapsed());
    let fill_us = t.elapsed().as_secs_f64() * 1e6;
    d.value(
        "catalog.fill_us_per_pattern",
        fill_us / table.len().max(1) as f64,
        table.len(),
    );

    // core, estimators
    let acyclic: Vec<&QueryGraph> = queries
        .iter()
        .filter(|q| ceg_query::cycles::is_acyclic(q))
        .collect();
    let mut next_acyclic = cycling(&acyclic);
    d.calls("core.ceg_build_us", || CegO::build(next_acyclic(), &table));
    let mut next_acyclic = cycling(&acyclic);
    d.calls("estimators.estimate_acyclic_us", || {
        OptimisticEstimator::recommended(&table).estimate(next_acyclic())
    });
    let template_graph = G10K.graph(seed);
    let cyclic: Vec<QueryGraph> = Workload::Cyclic
        .build(&template_graph, 2, seed)
        .into_iter()
        .map(|q| q.query)
        .collect();
    let cyclic_table = MarkovTable::build(graph, &cyclic, H);
    let mut next_cyclic = cycling(&cyclic);
    d.calls("estimators.estimate_cyclic_us", || {
        OptimisticEstimator::recommended(&cyclic_table).estimate(next_cyclic())
    });
    // Accuracy of the reference estimator on the graph the pool was
    // instantiated on, where its ground truth holds.
    let on_template = if inputs.rung == G10K {
        reference(graph, &inputs.queries)
    } else {
        reference(&template_graph, &inputs.queries)
    };
    let mut qerrors: Vec<u64> = on_template
        .iter()
        .zip(&inputs.pool)
        .filter_map(|(est, q)| {
            est.filter(|e| *e > 0.0)
                .map(|e| (e / q.truth).max(q.truth / e))
        })
        // Kept in thousandths so the integer percentile code serves.
        .map(|qe| (qe * 1e3) as u64)
        .collect();
    qerrors.sort_unstable();
    for (name, p) in [
        ("estimators.qerror_p50", 0.5),
        ("estimators.qerror_p90", 0.9),
    ] {
        let value = tail_percentile(&qerrors, p).map_or(0.0, |v| v as f64 / 1e3);
        d.value(name, value, qerrors.len());
    }

    // exec: the counting kernel on fixed shapes, as `benches/counting.rs`.
    let path4 = templates::path(4, &[0, 1, 2, 3]);
    let star4 = templates::star(4, &[0, 1, 2, 3]);
    let cycle6 = templates::cycle(6, &[0, 1, 2, 3, 4, 5]);
    d.calls("exec.count_path4_us", || ceg_exec::count(graph, &path4));
    d.calls("exec.count_star4_us", || ceg_exec::count(graph, &star4));
    d.calls("exec.count_cycle6_us", || ceg_exec::count(graph, &cycle6));

    // service::engine on a warm catalog: through the cache, and without one.
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new(DATASET, graph.clone(), table.clone()));
    let warm = Engine::new(registry.clone(), 4096);
    for q in queries {
        warm.estimate(DATASET, q)?;
    }
    let mut next_query = cycling(queries);
    d.calls("engine.hit_us", || warm.estimate(DATASET, next_query()));
    let uncached = Engine::new(registry, 0);
    let mut next_query = cycling(queries);
    d.calls("engine.miss_us", || {
        uncached.estimate(DATASET, next_query())
    });

    // graph: delta application, and catalog maintenance after it.
    let (plain, durable) = inputs
        .updates
        .split_at(inputs.updates.len().min(SLOW_REPEATS));
    let durable = &durable[..durable.len().min(SLOW_REPEATS)];
    let deltas: Vec<GraphDelta> = plain.iter().map(|ops| delta_of(ops)).collect();
    let mut next_delta = cycling(&deltas);
    d.calls("graph.rebase_us", || graph.rebase(next_delta()));
    let mut next_delta = cycling(&deltas);
    d.calls("graph.overlay_build_us", || {
        OverlayGraph::new(graph, next_delta()).num_edges()
    });
    let mut took = Vec::new();
    let mut recounted = 0;
    for delta in &deltas {
        let after = graph.rebase(delta);
        let mut refreshed = table.clone();
        let t = Instant::now();
        recounted += refreshed.refresh_touched(&after, &delta.touched_labels(), 1);
        took.push(t.elapsed());
        d.tracer
            .direct("catalog.refresh_us_per_pattern", t, t.elapsed());
    }
    let total_us: f64 = took.iter().map(|t| t.as_secs_f64() * 1e6).sum();
    d.value(
        "catalog.refresh_us_per_pattern",
        total_us / recounted.max(1) as f64,
        recounted,
    );

    // service::registry: commits in memory, then through a WAL on disk.
    let entry = DatasetEntry::new(DATASET, graph.clone(), table.clone());
    timed_commits(&mut d, "registry.commit_us", &entry, plain)?;
    let snap = scratch.path("direct.cegsnap");
    let wal = scratch.path("direct.cegwal");
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&wal);
    d.once("graph.snapshot_write_s", || entry.write_snapshot(&snap))
        .map_err(|e| io("write snapshot", e))?;
    d.once("graph.snapshot_read_s", || {
        DatasetEntry::read_snapshot(DATASET, &snap)
    })
    .map_err(|e| io("read snapshot", e))?;
    entry
        .attach_durability(Arc::new(OsStorage), &snap, &wal)
        .map_err(|e| io("attach durability", e))?;
    let (recounted, wal_bytes, effective) =
        timed_commits(&mut d, "registry.commit_durable_us", &entry, durable)?;
    d.value(
        "registry.recounted_per_commit",
        recounted as f64 / durable.len().max(1) as f64,
        durable.len(),
    );
    d.value(
        "graph.wal_bytes_per_op",
        wal_bytes as f64 / effective.max(1) as f64,
        effective,
    );
    let last_epoch = entry.epoch();
    drop(entry);
    let (recovered, _) = d
        .once("registry.recover_s", || {
            DatasetEntry::recover(DATASET, Arc::new(OsStorage), &snap, &wal, 1)
        })
        .map_err(|e| io("recover", e))?;
    if recovered.epoch() != last_epoch {
        return Err(format!(
            "direct recovery reached epoch {}, not {last_epoch}",
            recovered.epoch()
        ));
    }
    drop(recovered);

    // graph::wal alone: append + fdatasync on the data dir's filesystem.
    let wal_only = scratch.path("append.cegwal");
    let _ = std::fs::remove_file(&wal_only);
    let (mut writer, _) = WalWriter::open(&OsStorage, &wal_only).map_err(|e| io("open WAL", e))?;
    let ops = [
        WalOp {
            src: 1,
            dst: 2,
            label: 0,
            del: false,
        },
        WalOp {
            src: 3,
            dst: 4,
            label: 1,
            del: true,
        },
    ];
    let mut took = Vec::new();
    for epoch in 1..=SLOW_REPEATS as u64 {
        let t = Instant::now();
        writer.append_tx(epoch, &ops).map_err(|e| io("append", e))?;
        took.push(t.elapsed());
        d.tracer.direct("graph.wal_append_us.disk", t, t.elapsed());
    }
    d.samples("graph.wal_append_us.disk", &took);

    d.once("graph.load_edges_s", || {
        ceg_graph::io::load_graph(&inputs.edges_path)
    })
    .map_err(|e| io("load edges", e))?;
    Ok(d.out)
}
