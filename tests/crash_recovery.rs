//! The crash-recovery harness: kill the durable commit path at **every**
//! I/O step and prove the recovery contract each time.
//!
//! The contract, verified after every injected crash and after a real
//! `kill -9`:
//!
//! 1. **No acked commit is lost** — if `COMMIT` replied OK, the commit
//!    is present after recovery.
//! 2. **No unacked commit half-applies** — the recovered state is the
//!    base graph plus a *whole-transaction prefix* of the commit
//!    sequence, never a partial transaction. (An unacked commit whose
//!    WAL record happened to land completely *may* survive; it must
//!    then survive whole.)
//! 3. **Estimates match a control** — a server recovered from
//!    snapshot plus WAL answers byte-for-byte like one that executed
//!    the same committed prefix without ever crashing: same epoch,
//!    same edge set, same catalog bytes, same estimate.
//!
//! The sweep works like a record/replay fuzzer: one fault-free run
//! against [`FaultStorage`] learns how many storage operations the
//! workload performs, then the workload is re-run once per operation
//! index with `crash_after` armed there — covering every snapshot
//! write, WAL append and fsync, including the ones inside
//! `attach_durability` itself. The quick sweep models "page cache
//! lost" (reboot keeps 0 unsynced bytes); the `#[ignore]`d exhaustive
//! variant (nightly soak) also sweeps "one stray sector" and
//! "everything happened to land".

use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

use cegraph::catalog::io::write_markov;
use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, Heuristic, PathLen};
use cegraph::estimators::{CardinalityEstimator, OptimisticEstimator};
use cegraph::graph::vfs::{FaultPlan, FaultStorage, Storage};
use cegraph::graph::wal::{WalOp, WalWriter};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::templates;
use cegraph::query::QueryGraph;
use cegraph::service::{Client, DatasetEntry, DatasetRegistry, Server, ServerConfig};

const SNAP: &str = "/data/default.cegsnap";
const WAL: &str = "/data/default.cegwal";
const VERTICES: usize = 12;
const LABELS: usize = 3;

/// One scripted edge operation: `(src, dst, label, is_delete)`.
type Op = (u32, u32, u16, bool);

fn base_graph() -> LabeledGraph {
    let mut b = GraphBuilder::with_labels(VERTICES, LABELS);
    for (s, d, l) in [
        (0, 1, 0),
        (1, 2, 1),
        (2, 3, 2),
        (3, 4, 0),
        (4, 0, 2),
        (1, 3, 1),
        (2, 0, 1),
    ] {
        b.add_edge(s, d, l);
    }
    b.build()
}

/// The scripted commit sequence. Vertices 8..12 are untouched by the
/// base graph, so every transaction carries at least one genuinely new
/// edge — its effective delta is never empty and each acked commit
/// advances the epoch by exactly one. Redundant ops (re-adding a live
/// edge, deleting a dead one) are sprinkled in to prove the WAL logs
/// the *effective* delta.
fn workload() -> Vec<Vec<Op>> {
    vec![
        vec![(8, 9, 0, false), (0, 1, 0, true)],
        vec![(9, 10, 1, false), (8, 9, 0, false)], // redundant re-add
        vec![(10, 11, 2, false), (8, 9, 0, true)],
        vec![(8, 10, 1, false)],
        vec![(9, 11, 0, false), (4, 5, 1, false)],
        vec![(8, 11, 2, false), (9, 10, 1, true)],
        vec![(10, 8, 0, false), (0, 1, 0, true)], // redundant re-delete
        vec![(11, 9, 1, false), (2, 3, 2, true)],
    ]
}

fn queries() -> Vec<QueryGraph> {
    vec![
        templates::path(2, &[0, 1]),
        templates::star(2, &[1, 2]),
        templates::cycle(3, &[0, 1, 2]),
    ]
}

/// A fresh entry with a warm catalog, not yet durable.
fn plain_entry(name: &str) -> DatasetEntry {
    let entry = DatasetEntry::new(name, base_graph(), MarkovTable::empty(2));
    entry.ensure_patterns(&queries());
    entry
}

/// Buffer and commit every scripted transaction, like a client whose
/// `COMMIT`s may start failing mid-run. Returns how many commits were
/// **acked** (`try_commit` returned `Ok`) — the prefix recovery must
/// preserve.
fn drive(entry: &DatasetEntry, txs: &[Vec<Op>]) -> usize {
    let mut acked = 0;
    for tx in txs {
        for &(s, d, l, del) in tx {
            let buffered = if del {
                entry.del_edge(s, d, l)
            } else {
                entry.add_edge(s, d, l)
            };
            buffered.expect("buffering is in-memory and must not fail");
        }
        if entry.try_commit().is_ok() {
            acked += 1;
        }
    }
    acked
}

/// The uncrashed control: the same catalog warmup and the first `k`
/// transactions, committed without any durability in the way.
fn control_after(k: usize) -> DatasetEntry {
    let entry = plain_entry("control");
    let acked = drive(&entry, &workload()[..k]);
    assert_eq!(acked, k, "the control run cannot fail");
    entry
}

fn table_bytes(t: &MarkovTable) -> Vec<u8> {
    let mut buf = Vec::new();
    write_markov(t, &mut buf).unwrap();
    buf
}

fn estimate_path(entry: &DatasetEntry) -> Option<f64> {
    let q = templates::path(2, &[0, 1]);
    entry.with_markov(|t| {
        let mut est = OptimisticEstimator::new(t, Heuristic::new(PathLen::MaxHop, Aggr::Max));
        est.estimate(&q)
    })
}

/// The recovered entry must be indistinguishable from the control that
/// committed the same prefix: epoch, edge set (both directions of the
/// CSR), catalog bytes, and an actual estimate.
fn assert_matches_control(recovered: &DatasetEntry, k: usize) {
    let control = control_after(k);
    assert_eq!(
        recovered.epoch(),
        control.epoch(),
        "epoch after {k} commits"
    );
    assert_eq!(recovered.graph_summary(), control.graph_summary());
    let a = recovered.materialized_graph();
    let b = control.materialized_graph();
    assert_eq!(a.num_edges(), b.num_edges(), "edge count after {k} commits");
    for e in a.all_edges() {
        assert!(
            b.has_edge(e.src, e.dst, e.label),
            "recovered edge {e:?} is not in the control after {k} commits"
        );
    }
    assert_eq!(
        recovered.with_markov(table_bytes),
        control.with_markov(table_bytes),
        "catalog bytes diverge after {k} commits"
    );
    assert_eq!(estimate_path(recovered), estimate_path(&control));
}

/// Run the workload with a crash armed at storage operation `crash_at`,
/// reboot keeping `keep_unsynced` unsynced bytes per file, recover, and
/// check the contract. Returns `(acked, recovered_epoch)`.
fn crash_and_recover(crash_at: u64, keep_unsynced: usize) -> (usize, u64) {
    let fs = FaultStorage::new();
    fs.set_plan(FaultPlan::default().crash_after(crash_at));
    let entry = plain_entry("default");
    // If the crash hits inside attach_durability (baseline snapshot or
    // WAL creation), the server never came up — nothing was acked.
    let acked = match entry.attach_durability(Arc::new(fs.clone()), SNAP, WAL) {
        Ok(()) => drive(&entry, &workload()),
        Err(_) => 0,
    };
    drop(entry);

    fs.reboot(keep_unsynced);
    let storage: Arc<dyn Storage> = Arc::new(fs.clone());
    if !storage.exists(Path::new(SNAP)) {
        // The baseline snapshot never landed; attach must have failed
        // before any commit could be acked.
        assert_eq!(acked, 0, "commits were acked without a snapshot on disk");
        return (0, 0);
    }
    let (recovered, report) = DatasetEntry::recover("default", storage, SNAP, WAL, 1)
        .unwrap_or_else(|e| panic!("recovery after crash at op {crash_at} failed: {e}"));
    let epoch = recovered.epoch();
    assert_eq!(epoch, report.epoch);
    assert!(
        epoch >= acked as u64,
        "crash at op {crash_at}: {acked} commits were acked but recovery reached epoch {epoch}"
    );
    assert!(
        epoch <= workload().len() as u64,
        "crash at op {crash_at}: recovered epoch {epoch} beyond the workload"
    );
    // Whole-transaction prefix, matching the uncrashed control exactly.
    assert_matches_control(&recovered, epoch as usize);
    (acked, epoch)
}

/// One fault-free run to learn the operation budget the sweeps cover.
fn fault_free_op_count() -> u64 {
    let fs = FaultStorage::new();
    let entry = plain_entry("default");
    entry
        .attach_durability(Arc::new(fs.clone()), SNAP, WAL)
        .unwrap();
    let acked = drive(&entry, &workload());
    assert_eq!(
        acked,
        workload().len(),
        "the fault-free run must ack everything"
    );
    fs.op_count()
}

fn sweep(keep_unsynced: usize) {
    let total_ops = fault_free_op_count();
    assert!(
        total_ops > 20,
        "the workload performs real I/O ({total_ops} ops)"
    );
    let mut lossless = 0usize;
    for crash_at in 0..total_ops {
        let (acked, epoch) = crash_and_recover(crash_at, keep_unsynced);
        if epoch == acked as u64 {
            lossless += 1;
        }
    }
    // Sanity on the sweep itself: in the common case recovery lands
    // exactly on the acked prefix (the >= in crash_and_recover allows a
    // fully-durable unacked commit to survive, but that is the rare
    // shape, not the rule).
    assert!(
        lossless * 2 > total_ops as usize,
        "suspicious sweep: only {lossless}/{total_ops} crashes recovered to the acked epoch"
    );
}

/// The quick sweep: every crash point, page cache lost at reboot.
#[test]
fn every_crash_point_recovers_the_acked_prefix() {
    sweep(0);
}

/// The exhaustive soak variant: every crash point × every reboot shape
/// (all unsynced bytes lost / one stray byte survives / everything
/// happened to land). Run by the nightly workflow via `--ignored`.
#[test]
#[ignore = "exhaustive crash sweep; covered nightly by the soak job"]
fn exhaustive_crash_sweep_over_reboot_shapes() {
    for keep_unsynced in [0, 1, usize::MAX] {
        sweep(keep_unsynced);
    }
}

/// Transient storage failures (one ENOSPC, or one short write tearing a
/// record) must not lose anything either: the failed commit is refused,
/// a retry lands it, and recovery still matches the control. Sweeps the
/// failure over every post-attach operation.
#[test]
fn transient_failures_and_short_writes_never_lose_acked_commits() {
    // Learn where attach ends so the sweep targets the commit path.
    let fs = FaultStorage::new();
    let entry = plain_entry("default");
    entry
        .attach_durability(Arc::new(fs.clone()), SNAP, WAL)
        .unwrap();
    let attach_ops = fs.op_count();
    drive(&entry, &workload());
    let total_ops = fs.op_count();
    drop(entry);

    for fail_op in attach_ops..total_ops {
        for plan in [
            FaultPlan::default().fail_at(fail_op, std::io::ErrorKind::StorageFull),
            FaultPlan::default().short_write_at(fail_op),
        ] {
            let fs = FaultStorage::new();
            let entry = plain_entry("default");
            entry
                .attach_durability(Arc::new(fs.clone()), SNAP, WAL)
                .unwrap();
            fs.set_plan(plan);
            let mut acked = 0usize;
            for tx in &workload() {
                for &(s, d, l, del) in tx {
                    if del {
                        entry.del_edge(s, d, l).unwrap();
                    } else {
                        entry.add_edge(s, d, l).unwrap();
                    }
                }
                match entry.try_commit() {
                    Ok(_) => acked += 1,
                    Err(_) => {
                        // The injected failure is transient and the WAL
                        // repairs its tail, so one retry must succeed —
                        // with the same pending delta, restored intact.
                        entry.try_commit().unwrap_or_else(|e| {
                            panic!("retry after transient failure at op {fail_op}: {e}")
                        });
                        acked += 1;
                    }
                }
            }
            assert_eq!(acked, workload().len());
            drop(entry);
            fs.reboot(0);
            let (recovered, _) =
                DatasetEntry::recover("default", Arc::new(fs.clone()), SNAP, WAL, 1).unwrap();
            assert_matches_control(&recovered, workload().len());
        }
    }
}

/// Replay checks every transaction against the view the ones before it
/// left: a log that re-adds an edge already present — in the snapshot,
/// or added by an earlier transaction of the same log — cannot produce
/// its logged epoch, so recovery refuses it instead of serving a dataset
/// at the wrong epoch.
#[test]
fn a_log_that_disagrees_with_its_snapshot_is_refused() {
    let add = |src, dst, label| WalOp {
        src,
        dst,
        label,
        del: false,
    };
    // (0, 1, 0) is in the base graph; (8, 9, 0) is not.
    for log in [
        vec![(1, vec![add(0, 1, 0)])],
        vec![(1, vec![add(8, 9, 0)]), (2, vec![add(8, 9, 0)])],
    ] {
        let fs = FaultStorage::new();
        let storage: Arc<dyn Storage> = Arc::new(fs.clone());
        plain_entry("default")
            .attach_durability(storage.clone(), SNAP, WAL)
            .unwrap();
        let (mut writer, _) = WalWriter::open(&fs, Path::new(WAL)).unwrap();
        for (epoch, ops) in &log {
            writer.append_tx(*epoch, ops).unwrap();
        }
        drop(writer);
        let err = match DatasetEntry::recover("default", storage, SNAP, WAL, 1) {
            Ok((entry, _)) => panic!("recovered to epoch {} from {log:?}", entry.epoch()),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("WAL replay diverged"), "{err}");
    }
}

/// Replay folds the whole log into the snapshot graph at once; the
/// result must be what the live entry built one commit at a time, even
/// when the log adds, deletes and re-adds one edge and grows the vertex
/// domain and the label set on the way — including growth by an edge a
/// later transaction deletes again (a committed domain never shrinks).
#[test]
fn a_log_that_revisits_an_edge_and_grows_the_domain_recovers_identically() {
    let (grown_vertex, grown_label) = (VERTICES as u32 + 4, LABELS as u16 + 1);
    let (gone_vertex, gone_label) = (grown_vertex + 2, grown_label + 1);
    let txs: Vec<Vec<Op>> = vec![
        vec![
            (8, grown_vertex, grown_label, false),
            (8, gone_vertex, gone_label, false),
        ],
        vec![
            (8, grown_vertex, grown_label, true),
            (8, gone_vertex, gone_label, true),
        ],
        vec![(8, grown_vertex, grown_label, false), (0, 1, 0, true)],
        vec![(1, 2, 1, true), (grown_vertex, 8, 1, false)],
    ];
    let fs = FaultStorage::new();
    let storage: Arc<dyn Storage> = Arc::new(fs.clone());
    let live = plain_entry("default");
    live.attach_durability(storage.clone(), SNAP, WAL).unwrap();
    assert_eq!(drive(&live, &txs), txs.len());

    let (recovered, report) = DatasetEntry::recover("default", storage, SNAP, WAL, 1).unwrap();
    assert_eq!(report.snapshot_epoch, 0);
    assert_eq!(report.replayed_commits, txs.len());
    assert_eq!(recovered.epoch(), live.epoch());
    assert_eq!(
        recovered.with_markov(table_bytes),
        live.with_markov(table_bytes)
    );
    let (a, b) = (recovered.materialized_graph(), live.materialized_graph());
    assert_eq!(a.num_vertices(), gone_vertex as usize + 1);
    assert_eq!(a.num_labels(), gone_label as usize + 1);
    assert!(a.has_edge(8, grown_vertex, grown_label));
    assert!(!a.has_edge(8, gone_vertex, gone_label));
    // Same graph and catalog down to the persisted bytes.
    assert_eq!(
        (a.num_vertices(), a.num_labels()),
        (b.num_vertices(), b.num_labels())
    );
    let (snap_a, snap_b) = (Path::new("/cmp/a.cegsnap"), Path::new("/cmp/b.cegsnap"));
    recovered.write_snapshot_with(&fs, snap_a).unwrap();
    live.write_snapshot_with(&fs, snap_b).unwrap();
    assert_eq!(fs.dump(snap_a).unwrap(), fs.dump(snap_b).unwrap());
}

/// End to end over the wire: when the disk dies under a live server,
/// every later COMMIT is refused with a typed error (never a silent
/// in-memory-only apply), reads keep answering, and a restart recovers
/// exactly the acked commits.
#[test]
fn a_dead_disk_refuses_commits_and_a_restart_recovers_the_acked_state() {
    let fs = FaultStorage::new();
    let registry = Arc::new(DatasetRegistry::new());
    let entry = plain_entry("default");
    entry
        .attach_durability(Arc::new(fs.clone()), SNAP, WAL)
        .unwrap();
    registry.insert(entry);
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two commits acked while the disk is healthy.
    client.add_edge("default", 8, 9, 0).unwrap();
    let first = client.commit("default").unwrap();
    assert_eq!(first.epoch, 1);
    client.add_edge("default", 9, 10, 1).unwrap();
    assert_eq!(client.commit("default").unwrap().epoch, 2);

    // The disk dies. The next COMMIT must come back as a typed error.
    fs.set_plan(FaultPlan::default().crash_after(fs.op_count()));
    client.add_edge("default", 10, 11, 2).unwrap();
    let err = client.commit("default").unwrap_err();
    assert!(
        err.to_string().contains("not durable"),
        "commit on a dead disk: {err}"
    );
    // And it stays refused — the WAL is poisoned, not silently skipped.
    let err = client.commit("default").unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    // Reads do not need the disk.
    let reply = client
        .estimate("default", &templates::path(2, &[0, 1]))
        .unwrap();
    assert!(reply.value.is_some());
    drop(client);
    server.shutdown();

    // "Restart": reboot the storage and recover. Only the two acked
    // commits exist; the refused one left no trace.
    fs.reboot(0);
    let (recovered, report) =
        DatasetEntry::recover("default", Arc::new(fs.clone()), SNAP, WAL, 1).unwrap();
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(report.replayed_commits, 2);
    let g = recovered.materialized_graph();
    assert!(g.has_edge(8, 9, 0) && g.has_edge(9, 10, 1));
    assert!(!g.has_edge(10, 11, 2), "an unacked commit half-applied");
}

// ---------------------------------------------------------------------
// The real thing: a separate server process killed with SIGKILL.
// ---------------------------------------------------------------------

/// Read the child's stdout until the serving banner appears; return the
/// bound address and the boot epoch it printed.
fn wait_for_banner(stdout: &mut impl BufRead) -> (String, u64) {
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before printing its banner");
        if line.starts_with("serving `default`") {
            let addr = line
                .split(" on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .expect("banner carries the bound address")
                .to_string();
            let epoch = line
                .split("epoch ")
                .nth(1)
                .and_then(|rest| rest.split(')').next())
                .and_then(|e| e.parse().ok())
                .expect("banner carries the epoch");
            return (addr, epoch);
        }
    }
}

/// Kill a real `cegcli serve --data-dir` process with SIGKILL between
/// acked commits, restart it with the *same command line*, and verify
/// the recovered server continues at the acked epoch with matching
/// estimates. This is the one test no fault model can fake.
#[test]
fn kill_dash_nine_loses_no_acked_commit() {
    use std::process::{Command, Stdio};
    let dir = std::env::temp_dir().join(format!("ceg-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.edges");
    cegraph::graph::io::save_graph(&base_graph(), &graph_path).unwrap();
    let data_dir = dir.join("data");
    let serve_args = [
        "serve",
        "127.0.0.1:0",
        graph_path.to_str().unwrap(),
        "--data-dir",
        data_dir.to_str().unwrap(),
    ];
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_cegcli"))
            .args(serve_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cegcli serve")
    };

    let mut child = spawn();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (addr, epoch) = wait_for_banner(&mut stdout);
    assert_eq!(epoch, 0, "cold boot starts at epoch 0");

    let mut client = Client::connect(&addr).unwrap();
    let mut last_acked = 0;
    for tx in &workload() {
        for &(s, d, l, del) in tx {
            if del {
                client.del_edge("default", s, d, l).unwrap();
            } else {
                client.add_edge("default", s, d, l).unwrap();
            }
        }
        last_acked = client.commit("default").unwrap().epoch;
    }
    assert_eq!(last_acked, workload().len() as u64);
    let before = client
        .estimate("default", &templates::path(2, &[0, 1]))
        .unwrap()
        .value;
    drop(client);

    // SIGKILL: no drain, no final snapshot, no flush beyond what each
    // acked COMMIT already fsynced.
    child.kill().unwrap();
    child.wait().unwrap();

    // Same command line again: the data dir is authoritative now.
    let mut child = spawn();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let (addr, epoch) = wait_for_banner(&mut stdout);
    assert_eq!(
        epoch, last_acked,
        "restarted server must resume at the last acked epoch"
    );
    let mut client = Client::connect(&addr).unwrap();
    let after = client
        .estimate("default", &templates::path(2, &[0, 1]))
        .unwrap()
        .value;
    assert_eq!(before, after, "estimate changed across kill -9 + recovery");
    // A commit after recovery continues the epoch sequence.
    client.add_edge("default", 5, 6, 0).unwrap();
    assert_eq!(client.commit("default").unwrap().epoch, last_acked + 1);
    drop(client);
    // `cegcli shutdown` succeeds even though the server may be gone by
    // the time the CLI would say goodbye: DRAINING is all it waits for.
    let shutdown = Command::new(env!("CARGO_BIN_EXE_cegcli"))
        .args(["shutdown", &addr])
        .output()
        .expect("run cegcli shutdown");
    assert!(
        shutdown.status.success(),
        "cegcli shutdown must exit 0: {:?}, stderr: {}",
        shutdown.status,
        String::from_utf8_lossy(&shutdown.stderr)
    );
    let status = child.wait().unwrap();
    assert!(status.success(), "drained server exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
