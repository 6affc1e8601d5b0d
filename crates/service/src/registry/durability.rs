//! Crash safety: the write-ahead log, the snapshot it replays onto, and
//! the fold of one into the other. [`Durability`] is the one type that
//! touches the log.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ceg_graph::sync::OrderedMutexGuard;
use ceg_graph::vfs::{OsStorage, Storage};
use ceg_graph::wal::{WalOp, WalScan, WalWriter, WAL_HEADER_LEN};
use ceg_graph::{Edge, GraphDelta};

use super::{DatasetEntry, EpochState};

/// What [`DatasetEntry::recover`] replayed, for logs and metrics.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epoch persisted in the snapshot the replay started from.
    pub snapshot_epoch: u64,
    /// Committed transactions replayed from the WAL tail.
    pub replayed_commits: usize,
    /// Edge operations inside those transactions.
    pub replayed_ops: usize,
    /// Epoch after replay — what the last acked commit reached.
    pub epoch: u64,
    /// Present when the log ended in damage (torn tail from a crash):
    /// the scanner's diagnosis of where and why the scan stopped. The
    /// damage is already truncated away by the time recovery returns.
    pub torn_tail: Option<String>,
}

/// What one WAL rotation did: the log was folded into a fresh snapshot
/// and truncated back to an empty header.
#[derive(Debug, Clone, Copy)]
pub struct RotateOutcome {
    /// Epoch the fold captured.
    pub epoch: u64,
    /// Size of the written snapshot.
    pub snapshot_bytes: u64,
    /// WAL bytes retired by the truncate (header excluded).
    pub wal_bytes_folded: u64,
}

/// Durable-commit state of one dataset: the open WAL appender, the
/// storage and path of the snapshot it replays onto, and that
/// snapshot's size, which decides when the log folds
/// ([`DatasetEntry::maybe_rotate`]). Without one, a dataset commits in
/// memory only.
pub(super) struct Durability {
    storage: Arc<dyn Storage>,
    snap_path: PathBuf,
    writer: WalWriter,
    snapshot_bytes: u64,
    /// Set when a failed append could not be repaired (torn bytes may
    /// follow the durable prefix): a new record after them would be
    /// invisible to recovery, so every later commit is refused.
    poisoned: bool,
}

impl Durability {
    /// Open the log at `wal_path` onto the snapshot at `snap_path`,
    /// `snapshot_bytes` long. [`WalWriter::open`] truncates a torn tail;
    /// the scan is what a replay applies.
    fn open(
        storage: Arc<dyn Storage>,
        snap_path: PathBuf,
        wal_path: &Path,
        snapshot_bytes: u64,
    ) -> io::Result<(Durability, WalScan)> {
        let (writer, scan) = WalWriter::open(&*storage, wal_path)?;
        let durability = Durability {
            storage,
            snap_path,
            writer,
            snapshot_bytes,
            poisoned: false,
        };
        Ok((durability, scan))
    }

    /// Refuse to append after an unrepaired failure.
    pub(super) fn writable(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "WAL is poisoned by an earlier unrepaired append failure — \
                 restart the server to recover",
            ));
        }
        Ok(())
    }

    /// Log `delta` as the transaction that creates `epoch` and fsync it;
    /// returns the bytes appended. A failed append cuts its torn bytes,
    /// or poisons the log if even that fails.
    pub(super) fn append(&mut self, epoch: u64, delta: &GraphDelta) -> io::Result<u64> {
        let op = |e: Edge, del| WalOp {
            src: e.src,
            dst: e.dst,
            label: e.label,
            del,
        };
        let adds = delta.adds().map(|e| op(e, false));
        let ops: Vec<WalOp> = adds.chain(delta.dels().map(|e| op(e, true))).collect();
        self.writer.append_tx(epoch, &ops).inspect_err(|_| {
            if self.writer.repair(&*self.storage).is_err() {
                self.poisoned = true;
            }
        })
    }

    /// Bytes of the log past its header: what a fold would retire.
    fn logged_bytes(&self) -> u64 {
        self.writer.len().saturating_sub(WAL_HEADER_LEN)
    }

    /// True if `path` names this log's snapshot: both compared with
    /// their directory resolved (`..`, symlinks) where it resolves.
    fn names_snapshot(&self, path: &Path) -> bool {
        let key = |p: &Path| resolved(p).unwrap_or_else(|| p.to_path_buf());
        key(path) == key(&self.snap_path)
    }
}

/// `path`'s canonical directory joined with its file name.
fn resolved(path: &Path) -> Option<PathBuf> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = std::fs::canonicalize(dir.unwrap_or(Path::new("."))).ok()?;
    Some(dir.join(path.file_name()?))
}

impl DatasetEntry {
    /// The commit mutex, or the typed error a panic under it left.
    pub(super) fn lock_durability(&self) -> io::Result<OrderedMutexGuard<'_, Option<Durability>>> {
        let dur = self.durability.checked_lock();
        dur.map_err(|e| io::Error::other(self.poisoned_msg(e)))
    }

    /// True if `path` is the snapshot this dataset's log replays onto,
    /// which only a fold may replace: a `SNAPSHOT` there could land
    /// after a fold and put an older epoch back.
    pub(crate) fn owns_snapshot(&self, path: &Path) -> io::Result<bool> {
        let dur = self.lock_durability()?;
        Ok(dur.as_ref().is_some_and(|d| d.names_snapshot(path)))
    }

    /// Persist the committed state — graph, Markov catalog, epoch — to a
    /// `.cegsnap` file; returns `(epoch, bytes written)`. One pinned
    /// state's graph and a clone of its catalog are streamed out with no
    /// lock held; the pending update buffer is not captured.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> io::Result<(u64, u64)> {
        self.write_snapshot_with(&OsStorage, path.as_ref())
    }

    /// [`DatasetEntry::write_snapshot`] through an explicit [`Storage`]:
    /// the seam the fold and the fault-injection tests write through.
    pub fn write_snapshot_with(
        &self,
        storage: &dyn Storage,
        path: &Path,
    ) -> io::Result<(u64, u64)> {
        let st = self.pin();
        let markov = st.catalog().clone();
        ceg_catalog::io::write_snapshot_with(storage, path, &st.graph, &markov, st.epoch())?;
        Ok((st.epoch(), storage.len(path)?))
    }

    /// Restore an entry from a `.cegsnap` file: graph and catalog as
    /// persisted, and the epoch sequence continued, so estimates cached
    /// against the old process's epochs are never confused with fresh
    /// ones. Corrupt or truncated files are errors, never panics.
    pub fn read_snapshot(name: impl Into<String>, path: impl AsRef<Path>) -> io::Result<Self> {
        let snap = ceg_catalog::io::read_snapshot(path)?;
        let state = EpochState::new(snap.graph, snap.epoch, snap.markov);
        Ok(Self::from_state(name.into(), state, None))
    }

    /// Make this dataset's commits crash-safe: each effective commit is
    /// appended to the WAL at `wal_path` and fsynced before it is applied
    /// or acked. A baseline snapshot is written to `snap_path` first if
    /// none exists. Errors if durability is already attached, or if the
    /// WAL holds commits past this entry's epoch: that log needs
    /// [`DatasetEntry::recover`], and the next fold would drop them.
    pub fn attach_durability(
        &self,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> io::Result<()> {
        let (snap_path, wal_path) = (snap_path.into(), wal_path.into());
        let mut dur = self.lock_durability()?;
        if dur.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "durability already attached",
            ));
        }
        let snapshot_bytes = if storage.exists(&snap_path) {
            storage.len(&snap_path)?
        } else {
            self.write_snapshot_with(&*storage, &snap_path)?.1
        };
        let (durability, scan) = Durability::open(storage, snap_path, &wal_path, snapshot_bytes)?;
        if let Some(last) = scan.last_epoch().filter(|&e| e > self.epoch()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL at {} holds commits up to epoch {last} but the dataset is at epoch {} — \
                     recover from the snapshot + WAL instead of attaching",
                    wal_path.display(),
                    self.epoch(),
                ),
            ));
        }
        *dur = Some(durability);
        Ok(())
    }

    /// Rebuild a dataset exactly as the last acked commit left it: load
    /// the snapshot, merge the effective delta of every later WAL
    /// transaction into one delta (one that does not produce its logged
    /// epoch is an error), then do what one live commit does with it —
    /// fold it into the graph **once** and recount the catalog **once**
    /// over the touched labels (counts are exact, so this equals a fold
    /// and a recount per transaction) — and attach the WAL. A torn tail,
    /// by the ack protocol never acked, is truncated and reported.
    ///
    /// The last argument is ignored: every count runs on the calling
    /// thread. `bench/src/layers.rs` still passes it; ROADMAP item 1(g)
    /// deletes it.
    pub fn recover(
        name: impl Into<String>,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
        _ignored: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        let (snap_path, wal_path) = (snap_path.into(), wal_path.into());
        let snap = ceg_catalog::io::read_snapshot_with(&*storage, &snap_path)?;
        let snapshot_bytes = storage.len(&snap_path)?;
        let snapshot_epoch = snap.epoch;
        let mut state = EpochState::new(snap.graph, snapshot_epoch, snap.markov);
        let (durability, scan) = Durability::open(storage, snap_path, &wal_path, snapshot_bytes)?;
        let mut report = RecoveryReport {
            snapshot_epoch,
            replayed_commits: 0,
            replayed_ops: 0,
            epoch: snapshot_epoch,
            torn_tail: scan.diagnosis.clone(),
        };
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        // Every replayed transaction, merged: with the snapshot graph
        // under it, the committed view the next transaction applies to.
        let mut replayed = GraphDelta::new();
        // Epochs at or below the snapshot's were folded into it already.
        for tx in scan.txs.iter().filter(|tx| tx.epoch > snapshot_epoch) {
            let mut delta = GraphDelta::new();
            for op in &tx.ops {
                state
                    .check_update(op.src, op.dst, op.label)
                    .map_err(|e| invalid(format!("WAL replay: op rejected: {e}")))?;
                if op.del {
                    delta.del_edge(op.src, op.dst, op.label);
                } else {
                    delta.add_edge(op.src, op.dst, op.label);
                }
            }
            let effective = delta.effective(|e| {
                replayed
                    .edge_override(e.src, e.dst, e.label)
                    .unwrap_or_else(|| state.graph.has_edge(e.src, e.dst, e.label))
            });
            if !effective.is_empty() {
                replayed.merge(&effective);
                report.epoch += 1;
            }
            if report.epoch != tx.epoch {
                return Err(invalid(format!(
                    "WAL replay diverged: transaction for epoch {} \
                     produced epoch {} — snapshot and log disagree",
                    tx.epoch, report.epoch
                )));
            }
            report.replayed_commits += 1;
            report.replayed_ops += tx.ops.len();
        }
        state.fold(&replayed, report.epoch);
        state.recount(&replayed.touched_labels());
        let entry = Self::from_state(name.into(), state, Some(durability));
        Ok((entry, report))
    }

    /// Fold the WAL into a fresh snapshot and truncate it, once the log's
    /// bytes past its header reach the size of the snapshot it replays
    /// onto; `Ok(None)` before that, or without durability. So recovery
    /// reads at most about twice the snapshot's bytes, and a fold
    /// rewrites S snapshot bytes only after S log bytes arrived: writes
    /// are at most doubled at any graph size.
    ///
    /// The durability lock keeps commits out, so the pinned state is the
    /// log's last epoch. The snapshot is written **atomically first**
    /// (tmp + rename), the WAL truncated **after**: a crash between the
    /// two leaves a log of epochs the snapshot covers, which replay
    /// skips. The reverse order would lose acked commits
    /// (`fold_crash_at_every_storage_step_recovers_the_acked_epoch`).
    pub(crate) fn maybe_rotate(&self) -> io::Result<Option<RotateOutcome>> {
        let mut dur = self.lock_durability()?;
        let Some(d) = dur
            .as_mut()
            .filter(|d| d.logged_bytes() >= d.snapshot_bytes)
        else {
            return Ok(None);
        };
        let wal_bytes_folded = d.logged_bytes();
        let (epoch, snapshot_bytes) = self.write_snapshot_with(&*d.storage, &d.snap_path)?;
        d.writer.reset(&*d.storage)?;
        d.snapshot_bytes = snapshot_bytes;
        Ok(Some(RotateOutcome {
            epoch,
            snapshot_bytes,
            wal_bytes_folded,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_catalog::MarkovTable;
    use ceg_graph::vfs::{FaultPlan, FaultStorage};
    use ceg_graph::GraphBuilder;

    const SNAP: &str = "/data/toy.cegsnap";
    const WAL: &str = "/data/toy.cegwal";

    fn toy_entry() -> DatasetEntry {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 0);
        DatasetEntry::new("toy", b.build(), MarkovTable::empty(2))
    }

    #[test]
    fn a_poisoned_commit_mutex_is_a_typed_error_on_every_path() {
        let entry = toy_entry();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = entry.lock_durability();
            panic!("a commit panics under the durability mutex");
        }));
        let fs = Arc::new(FaultStorage::new());
        let errors = [
            entry.maybe_rotate().map(|_| ()).unwrap_err(),
            entry.attach_durability(fs, SNAP, WAL).unwrap_err(),
            entry.try_commit().map(|_| ()).unwrap_err(),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(msg.contains("dataset `toy` unavailable"), "{msg}");
            assert!(msg.contains("poisoned"), "{msg}");
        }
    }

    /// A durable toy entry on `fs`, committed until its log has reached
    /// the size of its snapshot: the next `maybe_rotate` folds.
    fn entry_due_to_fold(fs: &FaultStorage) -> DatasetEntry {
        let entry = toy_entry();
        entry
            .attach_durability(Arc::new(fs.clone()), SNAP, WAL)
            .unwrap();
        let logged = || fs.len(Path::new(WAL)).unwrap() - WAL_HEADER_LEN;
        for i in 0.. {
            if logged() >= fs.len(Path::new(SNAP)).unwrap() {
                break;
            }
            assert!(i < 64, "the log never outgrew its snapshot");
            entry.add_edge(10 + i, 11 + i, 0).unwrap();
            entry.try_commit().unwrap();
        }
        entry
    }

    #[test]
    fn fold_crash_at_every_storage_step_recovers_the_acked_epoch() {
        let fs = FaultStorage::new();
        let entry = entry_due_to_fold(&fs);
        let start = fs.op_count();
        entry
            .maybe_rotate()
            .unwrap()
            .expect("the log reached its snapshot");
        let steps = fs.op_count() - start;
        assert!(steps >= 2, "a fold writes a snapshot and truncates the log");
        for keep_unsynced in [0, usize::MAX] {
            for k in 0..=steps {
                let fs = FaultStorage::new();
                let entry = entry_due_to_fold(&fs);
                fs.set_plan(FaultPlan::default().crash_after(fs.op_count() + k));
                // The fold fails at step `k` (or completes when `k` is
                // past its last step); either way nothing acked is lost.
                let _ = entry.maybe_rotate();
                fs.reboot(keep_unsynced);
                let case = format!("crash at fold step {k}, reboot({keep_unsynced})");
                let (recovered, _) = DatasetEntry::recover("toy", Arc::new(fs), SNAP, WAL, 1)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(recovered.epoch(), entry.epoch(), "{case}");
                let (live, back) = (entry.materialized_graph(), recovered.materialized_graph());
                assert_eq!(live.num_edges(), back.num_edges(), "{case}");
                for e in live.all_edges() {
                    assert!(back.has_edge(e.src, e.dst, e.label), "{case}: {e:?}");
                }
            }
        }
    }
}
