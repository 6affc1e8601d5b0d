//! Concurrency stress test: 8 client threads fire a seeded random mix of
//! ESTIMATE / ESTIMATE_BATCH / ADD_EDGE / DEL_EDGE / COMMIT / SNAPSHOT at
//! one live server and assert the system-wide invariants that matter
//! under contention:
//!
//! 1. **Epoch monotonicity** — the epochs any single connection observes
//!    (in acks, commit outcomes and snapshot acks) never decrease,
//! 2. **No response interleaving corruption** — every reply parses as
//!    the typed response its request expects, batches answer exactly
//!    `n` ordered lines, and the connection survives the whole script,
//! 3. **Convergence** — after the dust settles (one final COMMIT), the
//!    live server's estimates equal a cold server loaded with the final
//!    committed graph, and every snapshot written along the way restores
//!    to a valid dataset at an epoch within the observed range.

use std::sync::Arc;

use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use cegraph::service::{Client, DatasetEntry, DatasetRegistry, Engine, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 60;
const VERTICES: u32 = 16;
const LABELS: u16 = 3;

fn base_graph() -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(0xCE6_57E55);
    let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
    for _ in 0..48 {
        b.add_edge(
            rng.random_range(0..VERTICES),
            rng.random_range(0..VERTICES),
            rng.random_range(0..LABELS),
        );
    }
    b.build()
}

fn probe_queries() -> Vec<QueryGraph> {
    vec![
        templates::path(2, &[0, 1]),
        templates::path(2, &[1, 2]),
        templates::star(2, &[0, 2]),
        templates::path(3, &[0, 1, 2]),
        templates::cycle(3, &[0, 1, 2]),
    ]
}

#[test]
fn concurrent_mixed_workload_keeps_every_invariant() {
    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert(DatasetEntry::new(
        "default",
        base_graph(),
        cegraph::catalog::MarkovTable::empty(2),
    ));
    let server = Server::start(
        registry.clone(),
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 512,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = probe_queries();

    let snapshot_paths: Vec<std::path::PathBuf> = (0..THREADS)
        .map(|t| {
            std::env::temp_dir().join(format!("ceg-stress-{}-{t}.cegsnap", std::process::id()))
        })
        .collect();

    std::thread::scope(|scope| {
        for (t, path) in snapshot_paths.iter().enumerate() {
            let queries = &queries;
            let snap_path = path.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                let mut client = Client::connect(addr).expect("connect");
                // Invariant 1: epochs this connection observes only grow.
                let mut last_epoch = 0u64;
                let observe = |epoch: u64, last: &mut u64| {
                    assert!(
                        epoch >= *last,
                        "thread {t}: epoch went backwards ({} -> {epoch})",
                        *last
                    );
                    *last = epoch;
                };
                for _ in 0..OPS_PER_THREAD {
                    let (src, dst, label) = (
                        rng.random_range(0..VERTICES),
                        rng.random_range(0..VERTICES),
                        rng.random_range(0..LABELS),
                    );
                    match rng.random_range(0..100u32) {
                        // Invariant 2 rides on every arm: the typed
                        // client methods fail loudly on any reply that
                        // is not the one their request expects.
                        0..=29 => {
                            let q = &queries[rng.random_range(0..queries.len())];
                            client.estimate("default", q).expect("estimate");
                        }
                        30..=49 => {
                            let k = rng.random_range(1..=4usize);
                            let batch: Vec<QueryGraph> = (0..k)
                                .map(|_| queries[rng.random_range(0..queries.len())].clone())
                                .collect();
                            let replies = client.estimate_batch("default", &batch).expect("batch");
                            assert_eq!(replies.len(), k, "thread {t}: batch reply count");
                        }
                        50..=69 => {
                            let ack = client
                                .add_edge("default", src, dst, label)
                                .expect("add_edge");
                            observe(ack.epoch, &mut last_epoch);
                        }
                        70..=84 => {
                            let ack = client
                                .del_edge("default", src, dst, label)
                                .expect("del_edge");
                            observe(ack.epoch, &mut last_epoch);
                        }
                        85..=94 => {
                            let outcome = client.commit("default").expect("commit");
                            observe(outcome.epoch, &mut last_epoch);
                        }
                        _ => {
                            let ack = client
                                .snapshot("default", snap_path.to_str().unwrap())
                                .expect("snapshot");
                            observe(ack.epoch, &mut last_epoch);
                        }
                    }
                }
                // The connection survived the whole script.
                client.ping().expect("ping at end");
                client.quit().expect("quit");
                last_epoch
            });
        }
    });

    // Settle: fold any leftover pending ops in, then compare against a
    // cold server loaded with the final committed graph.
    let mut client = Client::connect(addr).unwrap();
    client.commit("default").unwrap();
    let final_epoch = entry.epoch();
    let final_graph = entry.materialized_graph();

    let cold_registry = Arc::new(DatasetRegistry::new());
    cold_registry.insert_graph("default", final_graph, 2);
    let cold = Engine::new(cold_registry, 0);
    for q in &queries {
        let live = client.estimate("default", q).expect("live estimate");
        let coldv = cold.estimate("default", q).expect("cold estimate");
        assert_eq!(
            live.value, coldv.value,
            "live server diverged from cold rebuild on {q}"
        );
    }
    let metrics = client.metrics().unwrap();
    let requests = metrics.iter().find(|(k, _)| k == "requests_total");
    assert!(requests.is_some_and(|&(_, n)| n > 0));
    client.quit().unwrap();
    drop(server);

    // Every snapshot the threads wrote restores to a valid dataset at a
    // plausible (≤ final) epoch.
    let mut restored_any = false;
    for path in &snapshot_paths {
        if !path.exists() {
            continue; // this thread's RNG never drew SNAPSHOT
        }
        let snap = DatasetEntry::read_snapshot("restored", path).expect("snapshot restores");
        assert!(
            snap.epoch() <= final_epoch,
            "snapshot epoch {} beyond final {final_epoch}",
            snap.epoch()
        );
        restored_any = true;
        std::fs::remove_file(path).unwrap();
    }
    assert!(restored_any, "at least one thread should have snapshotted");
}
