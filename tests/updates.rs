//! Differential tests of the live-update path, end to end.
//!
//! The acceptance bar for PR 4's tentpole: for random base graphs and
//! random update streams,
//!
//! 1. the incrementally maintained Markov catalog is **byte-identical**
//!    (persisted form) to a from-scratch rebuild on the rebased graph,
//! 2. estimates served after `COMMIT` match a cold server loaded with
//!    the final graph,
//! 3. cache entries from before an update can no longer hit (epoch
//!    invalidation), observable over the wire.

use std::sync::Arc;

use cegraph::catalog::io::write_markov;
use cegraph::catalog::MarkovTable;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use cegraph::service::{Client, DatasetEntry, DatasetRegistry, Engine, Server, ServerConfig};
use cegraph::workload::updates::{final_graph, generate_update_stream, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: u16 = 3;
const VERTICES: u32 = 16;

fn random_graph(rng: &mut StdRng, edges: usize) -> LabeledGraph {
    let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
    for _ in 0..edges {
        b.add_edge(
            rng.random_range(0..VERTICES),
            rng.random_range(0..VERTICES),
            rng.random_range(0..LABELS),
        );
    }
    b.build()
}

fn workload_queries() -> Vec<QueryGraph> {
    vec![
        templates::path(2, &[0, 1]),
        templates::path(2, &[1, 2]),
        templates::star(2, &[0, 2]),
        templates::path(3, &[0, 1, 2]),
        templates::cycle(3, &[0, 1, 2]),
    ]
}

fn table_bytes(t: &MarkovTable) -> Vec<u8> {
    let mut buf = Vec::new();
    write_markov(t, &mut buf).unwrap();
    buf
}

/// Drive one update stream through a live entry, committing at every
/// barrier; returns the number of effective commits (epoch bumps).
fn drive(entry: &DatasetEntry, stream: &[UpdateOp]) -> u64 {
    for op in stream {
        match *op {
            UpdateOp::Add { src, dst, label } => {
                entry.add_edge(src, dst, label).unwrap();
            }
            UpdateOp::Del { src, dst, label } => {
                entry.del_edge(src, dst, label).unwrap();
            }
            UpdateOp::Commit => {
                entry.commit();
            }
        }
    }
    entry.epoch()
}

/// (1) Incremental catalog maintenance == from-scratch rebuild on the
/// rebased graph, byte-identical in persisted form, across random
/// graphs × random streams.
#[test]
fn incremental_catalog_is_byte_identical_to_rebuild() {
    let queries = workload_queries();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_graph(&mut rng, 40);
        let stream = generate_update_stream(&base, 24, 5, seed ^ 0xCE6);
        let want_graph = final_graph(&base, &stream);
        let want_table = MarkovTable::build(&want_graph, &queries, 2);
        let want_bytes = table_bytes(&want_table);

        let entry = DatasetEntry::new("ds", base.clone(), MarkovTable::empty(2));
        // Seed the catalog with the workload's patterns pre-update, so
        // incremental maintenance has real entries to carry over and to
        // recount.
        entry.ensure_patterns(&queries);
        let epochs = drive(&entry, &stream);
        assert!(epochs > 0, "seed {seed}: stream should commit something");
        let live_bytes = entry.with_markov(table_bytes);
        assert_eq!(
            live_bytes, want_bytes,
            "seed {seed}: incremental catalog diverged from rebuild"
        );
        // The materialized graph agrees with folding the stream.
        let live = entry.materialized_graph();
        assert_eq!(live.num_edges(), want_graph.num_edges(), "seed {seed}");
        for e in want_graph.all_edges() {
            assert!(
                live.has_edge(e.src, e.dst, e.label),
                "seed {seed}: missing {e:?}"
            );
        }
    }
}

/// (2) A live engine that absorbed the stream answers every workload
/// query exactly like a cold engine loaded with the final graph.
#[test]
fn estimates_after_commit_match_cold_server() {
    let queries = workload_queries();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let base = random_graph(&mut rng, 50);
        let stream = generate_update_stream(&base, 20, 4, seed);

        let live_registry = Arc::new(DatasetRegistry::new());
        let live_entry = live_registry.insert_graph("ds", base.clone(), 2);
        let live = Engine::new(live_registry.clone(), 256);
        // Warm the live server pre-update so its caches hold pre-update
        // values that must all be invalidated.
        for q in &queries {
            live.estimate("ds", q).unwrap();
        }
        drive(&live_entry, &stream);

        let cold_registry = Arc::new(DatasetRegistry::new());
        cold_registry.insert_graph("ds", final_graph(&base, &stream), 2);
        let cold = Engine::new(cold_registry, 256);

        for q in &queries {
            let l = live.estimate("ds", q).unwrap();
            let c = cold.estimate("ds", q).unwrap();
            assert_eq!(
                l.value, c.value,
                "seed {seed}: live vs cold diverged on {q}"
            );
        }
    }
}

/// (3) Over the wire: ADD_EDGE/DEL_EDGE buffer (epoch unchanged, cache
/// still valid), COMMIT bumps the epoch, pre-update cache entries miss,
/// and the recomputed estimate reflects the new graph.
#[test]
fn wire_level_commit_bumps_epoch_and_invalidates_cache() {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(3, 4, 0);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", b.build(), 2);
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let q = templates::path(2, &[0, 1]);
    let first = client.estimate("default", &q).unwrap();
    assert_eq!(first.value, Some(2.0));
    assert!(!first.cached);
    assert!(client.estimate("default", &q).unwrap().cached);

    // Buffered updates are invisible: epoch stays 0, cache still hits.
    let ack = client.add_edge("default", 4, 0, 1).unwrap();
    assert_eq!((ack.epoch, ack.pending), (0, 1));
    let ack = client.del_edge("default", 9, 9, 2).unwrap(); // no-op del
    assert_eq!((ack.epoch, ack.pending), (0, 2));
    assert!(client.estimate("default", &q).unwrap().cached);

    // COMMIT: epoch bump visible in the reply; only the real insertion
    // survives normalization.
    let outcome = client.commit("default").unwrap();
    assert_eq!(outcome.epoch, 1);
    assert_eq!((outcome.added, outcome.deleted), (1, 0));
    assert!(outcome.recounted > 0);

    // The pre-update cache entry must miss, and the fresh estimate sees
    // the committed edge (3->4->0 now completes the path).
    let after = client.estimate("default", &q).unwrap();
    assert!(!after.cached, "pre-update cache entry must not hit");
    assert_eq!(after.value, Some(3.0));
    assert!(client.estimate("default", &q).unwrap().cached);

    // An effect-free commit keeps the epoch and the cache.
    let noop = client.commit("default").unwrap();
    assert_eq!(noop.epoch, 1);
    assert!(client.estimate("default", &q).unwrap().cached);

    // Unknown datasets and out-of-allowance ids are wire errors, not
    // panics (the id parses fine; the registry's domain+growth bound
    // rejects it).
    assert!(client.add_edge("nope", 0, 1, 0).is_err());
    assert!(client.commit("nope").is_err());
    assert!(client.add_edge("default", 50_000_000, 0, 0).is_err());
    client.ping().unwrap();
    client.quit().unwrap();
    server.shutdown();
}

/// Epochs also separate datasets: committing on one dataset must not
/// invalidate another's cache.
#[test]
fn commits_invalidate_per_dataset() {
    let graph = |n: u32| {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, n, 1);
        b.build()
    };
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("a", graph(2), 2);
    registry.insert_graph("b", graph(3), 2);
    let engine = Engine::new(registry, 64);
    let q = templates::path(2, &[0, 1]);
    engine.estimate("a", &q).unwrap();
    engine.estimate("b", &q).unwrap();
    engine.add_edge("a", 0, 3, 0).unwrap();
    engine.commit("a").unwrap();
    assert!(
        !engine.estimate("a", &q).unwrap().cached,
        "a was invalidated"
    );
    assert!(
        engine.estimate("b", &q).unwrap().cached,
        "b must stay cached"
    );
}
