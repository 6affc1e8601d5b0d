//! Graceful-drain lifecycle: `SHUTDOWN` arriving in the middle of a long
//! cold batch must leave the in-flight client with a complete, typed
//! transcript (estimates and `BUSY` lines — never a connection reset),
//! reject post-drain work with typed replies, and [`Server::drain`] must
//! write the dataset's final snapshot, which restores **byte-identically**
//! (the snapshot encoding is canonical, so restore → re-write → compare
//! is an exact check) and answers exactly like the drained server did.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryEdge, QueryGraph};
use cegraph::service::{
    Client, DatasetEntry, DatasetRegistry, Engine, QueryReply, Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Dense on purpose (about 115 out-edges per vertex and label): the kernel
// counts one fresh labeled triangle in 13-20 ms in a release build (2
// vCPU), so the 15 slots behind the first reply last about 0.2 s. The
// SHUTDOWN round trip racing them took 0.1-3.6 ms there, with the other
// tests of this file running beside it: the backlog outlives it more than
// 50 times over even when the sending thread is descheduled for a while.
const VERTICES: u32 = 512;
const LABELS: u16 = 3;

fn dense_graph() -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(0xD7A1);
    let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
    for _ in 0..200_000 {
        b.add_edge(
            rng.random_range(0..VERTICES),
            rng.random_range(0..VERTICES),
            rng.random_range(0..LABELS),
        );
    }
    b.build()
}

/// 16 distinct labeled transitive triangles (`0 -a-> 1 -b-> 2` and
/// `0 -c-> 2`; the shape has no automorphism, so distinct label triples
/// are distinct patterns). With the cache disabled and an h = 3 catalog,
/// every slot must count a cyclic pattern of its own, and only the kernel
/// counts cyclic patterns (acyclic ones go to the tree DP, which answers
/// a 3-edge path on this graph in well under a millisecond). The
/// backlog's length is therefore kernel work per slot — not estimator
/// speed, which a warm catalog would reduce it to — and a SHUTDOWN sent
/// after the first reply overtakes it.
fn long_cold_batch() -> Vec<QueryGraph> {
    (0..LABELS.pow(3))
        .take(16)
        .map(|code| {
            let [a, b, c] = [code / 9, code / 3 % 3, code % 3];
            QueryGraph::new(
                3,
                vec![
                    QueryEdge::new(0, 1, a),
                    QueryEdge::new(1, 2, b),
                    QueryEdge::new(0, 2, c),
                ],
            )
        })
        .collect()
}

fn scratch_dir(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ceg-drain-{stem}-{}", std::process::id()))
}

#[test]
fn shutdown_mid_batch_gives_typed_replies_and_a_restorable_snapshot() {
    let snap_dir = scratch_dir("mid-batch");
    let _ = std::fs::remove_dir_all(&snap_dir);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", dense_graph(), 3);
    let server = Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            queue_cap: 32,
            default_deadline_ms: None,
            drain_snapshot_dir: Some(snap_dir.clone()),
            drain_grace_ms: 10_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Commit a mutation first so the drained snapshot carries a
    // non-trivial epoch.
    let mut setup = Client::connect(addr).unwrap();
    setup.add_edge("default", 0, 5, 1).unwrap();
    let outcome = setup.commit("default").unwrap();
    assert_eq!(outcome.epoch, 1);
    // Reference answers for the post-restore comparison, computed before
    // the drain so they reflect exactly the state being snapshotted.
    let probes = [
        templates::path(2, &[0, 1]),
        templates::path(3, &[1, 2, 0]),
        templates::star(2, &[0, 2]),
    ];
    let expected: Vec<Option<f64>> = probes
        .iter()
        .map(|q| setup.estimate("default", q).unwrap().value)
        .collect();
    setup.quit().unwrap();

    // The in-flight client: a raw connection so the test controls (and
    // observes) every wire line of the long batch.
    let batch = long_cold_batch();
    let (first_reply_tx, first_reply_rx) = mpsc::channel();
    let in_flight = std::thread::spawn({
        let batch = batch.clone();
        move || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut request = format!("ESTIMATE_BATCH default {}\n", batch.len());
            for q in &batch {
                request.push_str(&format!("{} {}", q.num_vars(), q.num_edges()));
                for e in q.edges() {
                    request.push_str(&format!(" {} {} {}", e.src, e.dst, e.label));
                }
                request.push('\n');
            }
            writer.write_all(request.as_bytes()).expect("write batch");
            writer.flush().expect("flush");
            let mut read_line = || {
                let mut line = String::new();
                assert!(
                    reader.read_line(&mut line).expect("read") > 0,
                    "connection reset mid-batch"
                );
                // Strip the per-request `id=<n>` tail — this transcript
                // asserts on the reply bodies.
                let line = line.trim_end();
                match line.rsplit_once(' ') {
                    Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
                    _ => line.to_string(),
                }
            };
            assert_eq!(read_line(), format!("BATCH {}", batch.len()));
            let mut replies = vec![read_line()];
            first_reply_tx.send(()).expect("signal");
            for _ in 1..batch.len() {
                replies.push(read_line());
            }
            // The stream is still framed and the connection still serves.
            writer.write_all(b"PING\n").expect("ping");
            writer.flush().expect("flush");
            assert_eq!(read_line(), "PONG");
            replies
        }
    });

    // Once the first estimate is on the wire the batch is provably
    // mid-flight; shut the server down from a second connection.
    first_reply_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("first batch reply");
    let mut second = Client::connect(addr).unwrap();
    second
        .shutdown_server()
        .expect("SHUTDOWN acked with DRAINING");

    // Post-drain work gets typed rejections, not resets.
    let reply = second
        .estimate_with_deadline("default", &probes[0], None)
        .expect("typed reply while draining");
    assert!(
        matches!(reply, QueryReply::Busy(ref msg) if msg.contains("draining")),
        "estimate during drain must be a typed BUSY, got {reply:?}"
    );
    let err = second.add_edge("default", 1, 2, 0).unwrap_err();
    assert!(
        err.to_string().contains("BUSY"),
        "mutation during drain must surface the BUSY line, got {err}"
    );

    // The in-flight batch finishes with a full typed transcript: every
    // slot is an estimate or a BUSY — and since the drain overtook it,
    // at least one slot of each kind.
    let replies = in_flight.join().expect("in-flight client");
    assert_eq!(replies.len(), batch.len());
    let est = replies.iter().filter(|r| r.starts_with("EST ")).count();
    let busy = replies.iter().filter(|r| r.starts_with("BUSY ")).count();
    assert_eq!(
        est + busy,
        replies.len(),
        "every slot must be typed, got {replies:?}"
    );
    assert!(est >= 1, "the pre-drain slot(s) must be answered");
    assert!(busy >= 1, "the drain must overtake the 16-job backlog");
    second.quit().unwrap();

    // Drain writes the final snapshot and abandons nothing: every
    // admitted job resolved to a typed reply above.
    let report = server.drain().expect("drain");
    assert_eq!(report.abandoned, 0, "no job may be left unanswered");
    assert_eq!(report.snapshots.len(), 1);
    let (name, snap_path, bytes) = &report.snapshots[0];
    assert_eq!(name, "default");
    assert!(*bytes > 0);
    assert_eq!(
        std::fs::metadata(snap_path).unwrap().len(),
        *bytes,
        "reported byte count must match the file"
    );

    // Restore → re-write → compare: the canonical encoding makes this an
    // exact byte-identity check of what the drain persisted.
    let restored = DatasetEntry::read_snapshot("default", snap_path).expect("restore");
    assert_eq!(restored.epoch(), 1);
    let rewrite_path = snap_dir.join("rewrite.cegsnap");
    restored.write_snapshot(&rewrite_path).expect("re-write");
    assert_eq!(
        std::fs::read(snap_path).unwrap(),
        std::fs::read(&rewrite_path).unwrap(),
        "drain snapshot must restore byte-identically"
    );

    // And semantically: a cold engine over the restored dataset answers
    // exactly like the pre-drain server.
    let cold_registry = Arc::new(DatasetRegistry::new());
    cold_registry.load_snapshot("default", snap_path).unwrap();
    let cold = Engine::new(cold_registry, 0);
    for (q, want) in probes.iter().zip(&expected) {
        let got = cold.estimate("default", q).expect("cold estimate").value;
        assert_eq!(got, *want, "restored dataset diverged on {q}");
    }
    std::fs::remove_dir_all(&snap_dir).unwrap();
}

/// A drain on a quiet server is the trivial case CI's service-smoke also
/// exercises end-to-end: immediate, nothing abandoned, snapshot written.
#[test]
fn drain_on_idle_server_snapshots_every_dataset() {
    let snap_dir = scratch_dir("idle");
    let _ = std::fs::remove_dir_all(&snap_dir);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", dense_graph(), 2);
    let server = Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 64,
            drain_snapshot_dir: Some(snap_dir.clone()),
            drain_grace_ms: 1_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let report = server.drain().expect("drain");
    assert_eq!(report.abandoned, 0);
    let names: Vec<&str> = report
        .snapshots
        .iter()
        .map(|(name, _, _)| name.as_str())
        .collect();
    assert_eq!(names, ["default"]);
    for (name, path, _) in &report.snapshots {
        let restored = DatasetEntry::read_snapshot(name, path).expect("restore");
        assert_eq!(restored.epoch(), 0);
    }
    std::fs::remove_dir_all(&snap_dir).unwrap();
}

/// `EXPLAIN_ESTIMATE` against a draining server is answered with the one
/// line `BUSY server draining` where the `EXPLAIN <n>` head would be. The
/// client hands that back as the typed `QueryReply::Busy` its doc
/// promises — it used to fail with `expected EXPLAIN header` — and the
/// connection keeps serving.
#[test]
fn explain_against_a_draining_server_is_a_typed_busy() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", b.build(), 2);
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let query = templates::path(2, &[0, 1]);
    let served = client.explain("default", &query, None).expect("explain");
    assert!(matches!(served.reply, QueryReply::Estimate(_)));
    assert!(!served.counters.is_empty());

    server.request_drain();
    let refused = client
        .explain("default", &query, None)
        .expect("typed reply");
    assert_eq!(refused.reply, QueryReply::Busy("server draining".into()));
    assert!(refused.id.is_some());
    assert!(refused.spans.is_empty() && refused.counters.is_empty());
    client.ping().expect("the connection still answers PING");
    let drained = server.drain().expect("drain");
    assert_eq!(drained.abandoned, 0);
}
