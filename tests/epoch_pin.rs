//! Epoch-pinned dataset state, end to end.
//!
//! A request pins one immutable epoch state and reads epoch, cache tag,
//! graph and catalog from that pin; a commit builds the successor off to
//! the side and publishes it by pointer swap. Two consequences are pinned
//! here:
//!
//! 1. **Readers do not wait on a commit.** With `try_commit` parked
//!    inside the WAL's fdatasync, estimates (cache hits and catalog
//!    fills), `EXPLAIN_ESTIMATE`, `ADD_EDGE` and `SNAPSHOT` all complete
//!    and report the old epoch; the interleaving is forced with channels,
//!    not sleeps.
//! 2. **One estimate, one epoch.** Under readers racing a committer,
//!    every reply's `(epoch, value)` is bit-equal to the paper's
//!    estimator over a from-scratch Markov table on the model graph of
//!    exactly that epoch — never a blend of two.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use cegraph::catalog::MarkovTable;
use cegraph::core::sync::{LockRank, OrderedMutex};
use cegraph::estimators::{CardinalityEstimator, OptimisticEstimator};
use cegraph::graph::vfs::{FaultStorage, Storage, StorageFile};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use cegraph::service::{DatasetEntry, DatasetRegistry, Engine, QueryOutcome};
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

/// What the service must answer for `queries` on `graph`: the paper's
/// recommended optimistic estimator over a from-scratch Markov table,
/// with the engine's rule that a non-finite estimate is "cannot answer".
/// Compared as bits.
fn reference(graph: &LabeledGraph, queries: &[QueryGraph]) -> Vec<Option<u64>> {
    let table = MarkovTable::build(graph, queries, 2);
    let mut est = OptimisticEstimator::recommended(&table);
    queries
        .iter()
        .map(|q| est.estimate(q).filter(|v| v.is_finite()).map(f64::to_bits))
        .collect()
}

/// `(epoch, value bits)` of one `EXPLAIN_ESTIMATE`, plus its counters.
fn explain(engine: &Engine, q: &QueryGraph) -> (u64, Option<u64>, Vec<(&'static str, u64)>) {
    let (outcome, trace) = engine.explain("ds", q, None).unwrap();
    let QueryOutcome::Done(outcome) = outcome else {
        panic!("no deadline was set, yet the query timed out");
    };
    let counters = trace.counters().to_vec();
    let epoch = counter(&counters, "epoch");
    (epoch, outcome.value.map(f64::to_bits), counters)
}

fn counter(counters: &[(&'static str, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("EXPLAIN reported no `{name}` counter"))
        .1
}

// ---------------------------------------------------------------------
// (1) Readers do not wait on a commit
// ---------------------------------------------------------------------

/// Both ends of the rendezvous a gated `sync` parks on.
struct Gate {
    armed: AtomicBool,
    parked: Sender<()>,
    /// `LockRank::Wal`: taken under the durability mutex, like the
    /// simulated device it stands in front of.
    release: OrderedMutex<Receiver<()>>,
}

/// [`FaultStorage`] whose file `sync` — once armed — announces that it
/// is parked and then blocks until released: a commit can be held inside
/// its fdatasync for as long as the test likes.
struct GatedStorage {
    inner: FaultStorage,
    gate: Arc<Gate>,
}

struct GatedFile {
    inner: Box<dyn StorageFile>,
    gate: Arc<Gate>,
}

impl StorageFile for GatedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        if self.gate.armed.swap(false, Ordering::SeqCst) {
            self.gate.parked.send(()).expect("test is gone");
            self.gate.release.lock().recv().expect("test is gone");
        }
        Ok(())
    }
}

impl GatedStorage {
    fn gated(&self, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(GatedFile {
            inner: file,
            gate: self.gate.clone(),
        })
    }
}

impl Storage for GatedStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn open(&self, path: &Path) -> io::Result<(Box<dyn io::Read + Send>, u64)> {
        self.inner.open(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.gated(self.inner.create(path)?))
    }
    fn append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.gated(self.inner.append(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
}

/// If readers did queue behind the parked commit this test would
/// deadlock (the release is only sent after they return); the watchdog
/// turns that hang into a failure. It is not a latency bound.
const WATCHDOG: Duration = Duration::from_secs(120);

#[test]
fn readers_do_not_wait_on_a_commit_parked_in_fdatasync() {
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let base = random_graph(&mut rng, 48);
    let queries = workload_queries();
    let (hot, cold, explained) = (&queries[0], &queries[1], &queries[2]);

    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        parked: parked_tx,
        release: OrderedMutex::new(LockRank::Wal, release_rx),
    });
    let storage = Arc::new(GatedStorage {
        inner: FaultStorage::new(),
        gate: gate.clone(),
    });

    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert(DatasetEntry::new("ds", base.clone(), MarkovTable::empty(2)));
    entry
        .attach_durability(storage, "/data/ds.cegsnap", "/data/ds.cegwal")
        .unwrap();
    let engine = Engine::new(registry, 64);
    let before = reference(&base, &queries);
    assert_eq!(
        engine.estimate("ds", hot).unwrap().value.map(f64::to_bits),
        before[0]
    );

    // An edge the 16-vertex base cannot have: the commit is effective.
    let (src, dst, label) = (VERTICES, VERTICES + 1, 0);
    entry.add_edge(src, dst, label).unwrap();
    let mut after_graph = GraphBuilder::with_labels(VERTICES as usize + 2, LABELS as usize);
    for e in base.all_edges() {
        after_graph.add_edge(e.src, e.dst, e.label);
    }
    after_graph.add_edge(src, dst, label);
    let after = reference(&after_graph.build(), &queries);

    let snap_path =
        std::env::temp_dir().join(format!("ceg-epoch-pin-{}.cegsnap", std::process::id()));
    std::thread::scope(|s| {
        gate.armed.store(true, Ordering::SeqCst);
        let commit = s.spawn(|| entry.try_commit());
        parked_rx
            .recv_timeout(WATCHDOG)
            .expect("the commit never reached its fdatasync");

        // The commit now sits inside fdatasync, holding whatever it
        // holds. Everything a reader can ask for must still be served,
        // from epoch 0.
        let (done_tx, done_rx) = mpsc::channel();
        let (engine, entry, before, snap_path) = (&engine, &entry, &before, &snap_path);
        // `move`: a failed assertion drops `done_tx`, which ends the wait
        // below at once.
        let readers = s.spawn(move || {
            // A cache hit, tagged with the pinned epoch.
            let hit = engine.estimate("ds", hot).unwrap();
            assert!(hit.cached);
            assert_eq!(hit.value.map(f64::to_bits), before[0]);
            // A cold miss: catalog fill and estimation on the pinned state.
            let miss = engine.estimate("ds", cold).unwrap();
            assert!(!miss.cached);
            assert_eq!(miss.value.map(f64::to_bits), before[1]);
            // EXPLAIN_ESTIMATE names the epoch that answered.
            let (epoch, value, _) = explain(engine, explained);
            assert_eq!((epoch, value), (0, before[2]));
            // ADD_EDGE buffers behind the ops the commit already took.
            let ack = engine.add_edge("ds", 0, 1, 2).unwrap();
            assert_eq!((ack.epoch, ack.pending), (0, 1));
            // SNAPSHOT persists the old epoch.
            let (epoch, bytes) = entry.write_snapshot(snap_path).unwrap();
            assert_eq!(epoch, 0);
            assert!(bytes > 0);
            assert_eq!(entry.epoch(), 0);
            done_tx.send(()).unwrap();
        });
        let served = done_rx.recv_timeout(WATCHDOG);
        release_tx.send(()).unwrap();
        readers.join().unwrap();
        served.expect("readers queued behind a commit parked in fdatasync");

        let outcome = commit.join().unwrap().unwrap();
        assert_eq!((outcome.epoch, outcome.added), (1, 1));
        assert!(outcome.wal_bytes > 0);
    });
    let restored = DatasetEntry::read_snapshot("restored", &snap_path).unwrap();
    std::fs::remove_file(&snap_path).unwrap();
    assert_eq!(restored.epoch(), 0);
    assert_eq!(restored.graph_summary().1, base.num_edges());

    // Published: the new epoch answers, and what was cached under the
    // old one is a stale miss that is recomputed, not served.
    assert_eq!(entry.epoch(), 1);
    let (epoch, value, counters) = explain(&engine, hot);
    assert_eq!((epoch, value), (1, after[0]));
    assert_eq!(counter(&counters, "cache_stale_miss"), 1);
    assert_eq!(counter(&counters, "cache_hit"), 0);
}

// ---------------------------------------------------------------------
// (2) One estimate, one epoch
// ---------------------------------------------------------------------

const READERS: usize = 3;
/// Replies the readers must collect between two commits, so every epoch
/// is observed while it is current and commits land during estimates
/// rather than before the first or after the last.
const REPLIES_PER_EPOCH: usize = 12;

/// The model: the reference answers for every epoch a scripted stream
/// produces, found by folding the stream into the base graph at each
/// commit barrier. An epoch begins wherever the edge set changed.
fn model(
    base: &LabeledGraph,
    stream: &[UpdateOp],
    queries: &[QueryGraph],
) -> Vec<Vec<Option<u64>>> {
    let edges = |g: &LabeledGraph| {
        let mut edges: Vec<_> = g.all_edges().collect();
        edges.sort_unstable();
        edges
    };
    let mut current = edges(base);
    let mut epochs = vec![reference(base, queries)];
    for (i, op) in stream.iter().enumerate() {
        if *op == UpdateOp::Commit {
            let graph = final_graph(base, &stream[..i]);
            let now = edges(&graph);
            if now != current {
                current = now;
                epochs.push(reference(&graph, queries));
            }
        }
    }
    epochs
}

/// Readers race a committer over one scripted stream; every reply must
/// be the model's answer for the epoch the reply names.
fn check_interleaving(seed: u64, ops: usize) {
    let queries = workload_queries();
    let mut rng = StdRng::seed_from_u64(seed);
    let base = random_graph(&mut rng, 40);
    let stream = generate_update_stream(&base, ops, 3, seed ^ 0xE90C);
    let expected = model(&base, &stream, &queries);

    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert(DatasetEntry::new("ds", base, MarkovTable::empty(2)));
    // Smaller than the query set: hits, stale misses, cold misses and
    // evictions all occur.
    let engine = Engine::new(registry, 4);
    let replies = AtomicUsize::new(0);
    let committed = AtomicBool::new(false);

    let seen: Vec<Vec<(u64, usize, Option<u64>)>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (engine, queries, replies, committed) =
                    (&engine, &queries, &replies, &committed);
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = r;
                    while !committed.load(Ordering::SeqCst) {
                        let qi = i % queries.len();
                        let (epoch, value, _) = explain(engine, &queries[qi]);
                        seen.push((epoch, qi, value));
                        replies.fetch_add(1, Ordering::SeqCst);
                        i += 1;
                    }
                    seen
                })
            })
            .collect();
        // Let the readers collect a round of replies from the epoch
        // that is current now.
        let observe = || {
            let target = replies.load(Ordering::SeqCst) + REPLIES_PER_EPOCH;
            while replies.load(Ordering::SeqCst) < target {
                std::thread::yield_now();
            }
        };
        let mut epoch = 0;
        for op in &stream {
            match *op {
                UpdateOp::Add { src, dst, label } => {
                    entry.add_edge(src, dst, label).unwrap();
                }
                UpdateOp::Del { src, dst, label } => {
                    entry.del_edge(src, dst, label).unwrap();
                }
                UpdateOp::Commit => {
                    observe();
                    epoch = entry.commit().epoch;
                }
            }
        }
        observe();
        committed.store(true, Ordering::SeqCst);
        assert_eq!(
            epoch as usize + 1,
            expected.len(),
            "seed {seed}: the model and the entry disagree on which commits were effective"
        );
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    let mut epochs_seen = vec![false; expected.len()];
    for (epoch, qi, value) in seen.into_iter().flatten() {
        let want = expected
            .get(epoch as usize)
            .unwrap_or_else(|| panic!("seed {seed}: reply names unknown epoch {epoch}"));
        assert_eq!(
            value, want[qi],
            "seed {seed}: query {qi} answered at epoch {epoch} \
             with a value that is not that epoch's"
        );
        epochs_seen[epoch as usize] = true;
    }
    assert!(
        epochs_seen.iter().all(|&s| s),
        "seed {seed}: some epoch was never observed: {epochs_seen:?}"
    );
}

#[test]
fn every_reply_is_the_answer_of_the_epoch_it_names() {
    for seed in 0..9 {
        check_interleaving(seed, 24);
    }
}

/// The long seed budget, for the nightly soak (which also runs the suite
/// with the lock-rank checker compiled into the release profile).
#[test]
#[ignore = "long seed budget; run by the nightly soak"]
fn every_reply_is_the_answer_of_the_epoch_it_names_soak() {
    for seed in 100..500 {
        check_interleaving(seed, 90);
    }
}
