//! The dataset registry: load graphs and catalogs once, share forever —
//! and, since the live-update work, replace them safely while serving.
//!
//! `cegcli estimate` pays the full cost of loading the graph and building
//! the Markov catalog on every invocation. The registry is the service's
//! fix: each dataset is loaded once into a [`DatasetEntry`] and shared
//! across requests and worker threads via `Arc`.
//!
//! # Live updates
//!
//! A dataset's committed state is one immutable **epoch state**: one CSR
//! graph, the epoch number and the Markov catalog counted on exactly that
//! graph. The entry publishes it behind an `Arc`; a request *pins* the
//! `Arc` once, on entry, and reads epoch, cache tag, graph and catalog
//! from that pin for its whole life, so an estimate is always the paper's
//! number for **one** epoch.
//!
//! Edge updates buffer in a *pending* delta ([`DatasetEntry::add_edge`] /
//! [`DatasetEntry::del_edge`]) that readers never see. A
//! [`DatasetEntry::try_commit`] reduces it to the part that changes the
//! current graph, logs that effective delta, builds the successor off to
//! the side — the delta folded into a fresh CSR
//! ([`LabeledGraph::rebase`]: the touched relations are rebuilt, every
//! other one is shared with the predecessor), a *clone* of the catalog
//! recounted for the touched labels ([`MarkovTable::refresh_touched`]),
//! epoch + 1 — and publishes it by swapping the pointer, which
//! invalidates every cached estimate tagged with an older epoch (see
//! [`crate::cache::EstimateCache`]).
//!
//! Commits are serialised by the durability mutex, which no reader
//! takes. The only locks a reader meets are the pointer slot (held for
//! an `Arc` clone or swap) and its pin's catalog lock (held for hash-map
//! lookups and the inserts of a catalog fill) — never across the WAL
//! fsync, a rebase or a recount.
//!
//! Invariant: **a state's catalog describes that state's graph.** Counts
//! taken on a pinned graph go into that pin's catalog only; a fill the
//! successor misses is simply recounted on demand at the new epoch
//! (docs/ARCHITECTURE.md, "Live updates").

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use ceg_catalog::io::load_markov;
use ceg_catalog::{count_patterns, FillStats, MarkovTable};
use ceg_graph::io::load_graph;
use ceg_graph::sync::{LockPoisoned, LockRank, OrderedMutex, OrderedReadGuard, OrderedRwLock};
use ceg_graph::vfs::{OsStorage, Storage};
use ceg_graph::wal::{WalOp, WalWriter};
use ceg_graph::{FxHashMap, FxHashSet, GraphDelta, LabelId, LabeledGraph, VertexId};
use ceg_query::{Pattern, QueryGraph};

/// What one [`DatasetEntry::try_commit`] did, echoed over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Epoch after the commit (unchanged if the commit was a no-op).
    pub epoch: u64,
    /// Edges actually inserted (pending adds the graph lacked).
    pub added: usize,
    /// Edges actually deleted (pending dels the graph had).
    pub deleted: usize,
    /// Catalog entries recounted by incremental maintenance.
    pub recounted: usize,
    /// True if the commit changed the graph (its delta was folded into a
    /// fresh CSR); false for a no-op commit.
    pub rebased: bool,
    /// WAL bytes appended (and fsynced) for this commit before it was
    /// applied — 0 for no-op commits and for datasets running without
    /// durability attached. Not echoed over the wire.
    pub wal_bytes: u64,
}

/// Durable-commit state of one dataset: the open WAL appender plus the
/// storage and snapshot path rotation folds it into, and that
/// snapshot's size, which decides when the fold happens
/// ([`DatasetEntry::maybe_rotate`]). Absent (the common test
/// configuration) a dataset commits in memory only.
struct Durability {
    storage: Arc<dyn Storage>,
    snap_path: PathBuf,
    writer: WalWriter,
    /// Bytes of the snapshot the log replays onto.
    snapshot_bytes: u64,
    /// Set when a failed append could not be repaired (torn bytes may
    /// follow the durable prefix). Every later commit is refused: a new
    /// record after torn bytes would be invisible to recovery.
    poisoned: bool,
}

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

/// What one catalog fill did — the catalog half of an `EXPLAIN_ESTIMATE`
/// breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnsureOutcome {
    /// Patterns inserted into the catalog by this call.
    pub added: usize,
    /// Counting-kernel work done filling them (zero if nothing was
    /// missing).
    pub fill: FillStats,
}

/// One committed epoch of a dataset — everything an estimate reads.
/// Once published only the catalog changes: it *grows*, by exact counts
/// taken on this state's own graph.
pub(crate) struct EpochState {
    /// The committed graph, in the ids the client sent.
    graph: Arc<LabeledGraph>,
    epoch: u64,
    /// Same rank as the slot that publishes this state (the two never
    /// nest). Held for lookups, a fill's inserts or one clone — never
    /// across counting or I/O.
    markov: OrderedRwLock<MarkovTable>,
}

impl EpochState {
    /// `graph` as committed epoch `epoch`, moved in as loaded.
    fn new(graph: LabeledGraph, epoch: u64, markov: MarkovTable) -> Self {
        EpochState {
            graph: Arc::new(graph),
            epoch,
            markov: OrderedRwLock::new(LockRank::DatasetState, markov),
        }
    }

    /// The epoch this state was committed as.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This epoch's catalog, read-locked (many readers at once).
    pub(crate) fn catalog(&self) -> OrderedReadGuard<'_, MarkovTable> {
        self.markov.read()
    }

    /// Validate one update op against the committed domain plus the
    /// growth allowance ([`MAX_UPDATE_VERTEX`] / [`MAX_UPDATE_LABEL`]):
    /// ids the graph already covers are always legal, growth beyond it
    /// is bounded.
    fn check_update(&self, src: VertexId, dst: VertexId, label: LabelId) -> Result<(), String> {
        let num_vertices = self.graph.num_vertices();
        let num_labels = self.graph.num_labels();
        let vertex_bound = num_vertices.max(MAX_UPDATE_VERTEX as usize + 1);
        if (src as usize) >= vertex_bound || (dst as usize) >= vertex_bound {
            return Err(format!(
                "vertex id out of range (dataset domain is 0..{num_vertices}, \
                 new vertices are limited to {MAX_UPDATE_VERTEX})"
            ));
        }
        let label_bound = num_labels.max(MAX_UPDATE_LABEL as usize + 1);
        if (label as usize) >= label_bound {
            return Err(format!(
                "label out of range (dataset has {num_labels} labels, \
                 new labels are limited to {MAX_UPDATE_LABEL})"
            ));
        }
        Ok(())
    }

    /// An unpublished copy to build the successor from: the graph is
    /// shared, the catalog cloned.
    fn fork(&self) -> EpochState {
        EpochState {
            graph: self.graph.clone(),
            epoch: self.epoch,
            markov: OrderedRwLock::new(LockRank::DatasetState, self.catalog().clone()),
        }
    }

    /// Advance this (unpublished) state to `epoch`: fold `delta` into a
    /// fresh CSR (untouched relations stay shared with the predecessor)
    /// and recount the catalog entries naming a label it touches on that
    /// graph. Returns how many were recounted.
    fn advance(&mut self, delta: &GraphDelta, epoch: u64, jobs: usize) -> usize {
        self.graph = Arc::new(self.graph.rebase(delta));
        self.epoch = epoch;
        self.markov
            .get_mut()
            .refresh_touched(&self.graph, &delta.touched_labels(), jobs)
    }

    /// Count `missing` — patterns this epoch's catalog lacked when a
    /// query was resolved against it ([`MarkovTable::resolve`]) — on up
    /// to `jobs` scoped worker threads, with no lock held: readers keep
    /// estimating while a fill runs. Counts taken on this state's graph
    /// go into this state's catalog, so a commit landing meanwhile cannot
    /// make them stale.
    ///
    /// Counting stops at `deadline` (mid-pattern, via the kernel's
    /// [`ceg_exec::CountBudget`] hook) and only *completed* counts are
    /// inserted: an abandoned fill leaves its patterns missing.
    pub(crate) fn fill(
        &self,
        missing: &[Pattern],
        deadline: Option<Instant>,
        jobs: usize,
    ) -> EnsureOutcome {
        let mut outcome = EnsureOutcome::default();
        if missing.is_empty() {
            return outcome;
        }
        let budget = match deadline {
            Some(d) => ceg_exec::CountBudget::until(d),
            None => ceg_exec::CountBudget::UNLIMITED,
        };
        let (counts, fill) = count_patterns(&self.graph, missing, jobs, budget);
        outcome.fill = fill;
        let mut table = self.markov.write();
        for (pat, card) in missing.iter().zip(counts) {
            // Abandoned counts insert nothing: a partial count must
            // never enter the catalog as if it were exact.
            let Some(card) = card else { continue };
            if table.card(pat).is_none() {
                table.insert(pat.clone(), card);
                outcome.added += 1;
            }
        }
        outcome
    }
}

/// One registered dataset: the published epoch state plus the pending
/// (uncommitted) update buffer.
pub struct DatasetEntry {
    name: String,
    h: usize,
    /// Worker threads used when counting patterns (catalog growth and
    /// commit-time recounts).
    jobs: usize,
    /// Refuse to buffer more than this many uncommitted operations.
    pending_cap: usize,
    /// The published epoch state. The lock is held for an `Arc` clone
    /// (a pin) or a pointer swap (the end of a commit), nothing else.
    current: OrderedRwLock<Arc<EpochState>>,
    pending: OrderedMutex<GraphDelta>,
    /// Crash-safety state, attached by [`DatasetEntry::attach_durability`]
    /// or [`DatasetEntry::recover`], and the commit mutex: commit holds it
    /// from taking the pending delta to publishing the successor, so the
    /// log's transaction order matches the epoch order and the state
    /// commit pinned is still current when it swaps. Readers never take
    /// it; it ranks below `current` and `pending`, which commit and
    /// rotation take under it.
    durability: OrderedMutex<Option<Durability>>,
    /// Cache-missing estimates on this dataset that the engine has
    /// admitted and not yet answered; its admission budget counts here.
    pub(crate) admitted: AtomicUsize,
}

/// Largest vertex id an update may introduce **beyond** the dataset's
/// current domain. Vertices the graph already has are always updatable
/// (a 45M-vertex dataset accepts updates across its whole domain).
///
/// A far id costs the graph little: each relation-direction it lands in
/// pays one page and, at this bound, a page table of at most 4,096 slots
/// (48 KiB; see [`ceg_graph::Csr`]). The bound protects what is sized by
/// `num_vertices()` rather than by the edges: the tree DP's scratch (one
/// weight per vertex, 128 MiB of `u64` at 2^24 ids), the kernel's bitset
/// (a bit per vertex), and the page tables, which an id near `u32::MAX`
/// would take to 2^20 slots (12 MiB) per touched relation-direction.
pub const MAX_UPDATE_VERTEX: VertexId = (1 << 24) - 1;

/// Largest label an update may introduce beyond the dataset's current
/// label set (one relation pair of CSRs exists per label).
pub const MAX_UPDATE_LABEL: LabelId = 4095;

/// Default cap on buffered (uncommitted) operations per dataset: a
/// client that streams updates without ever committing is refused
/// instead of growing server memory without bound.
pub const MAX_PENDING_OPS: usize = 1 << 20;

impl DatasetEntry {
    /// Wrap an already-loaded graph and catalog. Catalog gaps are counted
    /// serially; see [`DatasetEntry::with_jobs`].
    pub fn new(name: impl Into<String>, graph: LabeledGraph, markov: MarkovTable) -> Self {
        Self::from_state(name.into(), EpochState::new(graph, 0, markov))
    }

    fn from_state(name: String, state: EpochState) -> Self {
        let h = state.catalog().h();
        DatasetEntry {
            name,
            h,
            jobs: 1,
            pending_cap: MAX_PENDING_OPS,
            current: OrderedRwLock::new(LockRank::DatasetState, Arc::new(state)),
            pending: OrderedMutex::new(LockRank::PendingDelta, GraphDelta::new()),
            durability: OrderedMutex::new(LockRank::Durability, None),
            admitted: AtomicUsize::new(0),
        }
    }

    /// Set the number of worker threads used to count missing patterns
    /// when the catalog grows (`cegcli serve --jobs` lands here).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The typed error a poisoned update-path lock funnels into. The
    /// durability mutex is held across I/O and a recount, so a panic
    /// there degrades this dataset's commits (`ERR dataset ... poisoned`)
    /// instead of killing the connection that trips over the lock next.
    fn poisoned_msg(&self, err: LockPoisoned) -> String {
        format!("dataset `{}` unavailable: {err}", self.name)
    }

    /// Worker threads used for catalog growth.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Dataset name (the wire-protocol identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Markov hop depth `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Pin the current epoch state. Everything a request reads — epoch,
    /// cache tag, graph, catalog — must come from one pin; it stays
    /// alive and fillable whatever commits publish meanwhile.
    pub(crate) fn pin(&self) -> Arc<EpochState> {
        self.current.read().clone()
    }

    /// Current committed epoch (0 until the first effective commit).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Buffered (uncommitted) edge operations.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// `(num_vertices, num_edges)` of the committed graph.
    pub fn graph_summary(&self) -> (usize, usize) {
        let st = self.pin();
        (st.graph.num_vertices(), st.graph.num_edges())
    }

    /// Heap bytes of the committed graph's adjacency indexes
    /// ([`LabeledGraph::heap_bytes`]) — everything the dataset keeps
    /// resident for its graph; divided by the edge count it is the
    /// storage cost per edge, which must not depend on the vertex domain.
    pub fn graph_bytes(&self) -> usize {
        self.pin().graph.heap_bytes()
    }

    /// A copy of the committed graph (its relations stay shared). Tests
    /// use this to compare a live server against a cold one loaded with
    /// the final graph.
    pub fn materialized_graph(&self) -> LabeledGraph {
        (*self.pin().graph).clone()
    }

    /// Record one bounds-checked op into the pending buffer, enforcing
    /// the pending cap; ids are buffered as the client sent them.
    fn buffer_update(
        &self,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
        del: bool,
    ) -> Result<(u64, usize), String> {
        let st = self.pin();
        st.check_update(src, dst, label)?;
        let mut pending = self
            .pending
            .checked_lock()
            .map_err(|e| self.poisoned_msg(e))?;
        // Replacing an already-buffered op never grows the buffer, so it
        // is allowed even at the cap.
        if pending.len() >= self.pending_cap && pending.edge_override(src, dst, label).is_none() {
            return Err(format!(
                "pending update buffer full ({} ops) — COMMIT before buffering more",
                pending.len()
            ));
        }
        if del {
            pending.del_edge(src, dst, label);
        } else {
            pending.add_edge(src, dst, label);
        }
        Ok((st.epoch, pending.len()))
    }

    /// Buffer an edge insertion; invisible to estimates until
    /// [`DatasetEntry::try_commit`]. Returns `(current epoch, pending ops)`,
    /// or an error if the op is out of bounds or the pending buffer is
    /// at its cap.
    pub fn add_edge(
        &self,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<(u64, usize), String> {
        self.buffer_update(src, dst, label, false)
    }

    /// Buffer an edge deletion; see [`DatasetEntry::add_edge`].
    pub fn del_edge(
        &self,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<(u64, usize), String> {
        self.buffer_update(src, dst, label, true)
    }

    /// Apply the pending delta: build the successor state (delta folded
    /// into a fresh CSR; touched catalog entries recounted; epoch bumped)
    /// and publish it. A commit with no effective change (empty pending
    /// buffer, or only no-ops) keeps the epoch — cached estimates stay
    /// valid.
    ///
    /// With durability attached the effective delta is appended to the
    /// WAL and fsynced **before** the successor state is built: after
    /// `Ok` the commit survives any crash; after `Err` nothing was
    /// published and the taken ops are back in the pending buffer (ahead
    /// of anything buffered meanwhile), so the client sees a failed
    /// COMMIT it may retry, never a half-applied one. Without durability
    /// only a poisoned lock makes it fail.
    ///
    /// Readers are never blocked: until the pointer swap they keep
    /// pinning, filling and estimating on the current state.
    pub fn try_commit(&self) -> io::Result<CommitOutcome> {
        let mut dur = self
            .durability
            .checked_lock()
            .map_err(|e| io::Error::other(self.poisoned_msg(e)))?;
        if let Some(d) = dur.as_ref() {
            if d.poisoned {
                return Err(io::Error::other(
                    "WAL is poisoned by an earlier unrepaired append failure — \
                     restart the server to recover",
                ));
            }
        }
        let delta = std::mem::take(
            &mut *self
                .pending
                .checked_lock()
                .map_err(|e| io::Error::other(self.poisoned_msg(e)))?,
        );
        // Only commits publish, and the durability mutex serialises
        // them: `cur` stays the current state until this call swaps it.
        let cur = self.pin();
        let effective = delta.effective(|e| cur.graph.has_edge(e.src, e.dst, e.label));
        if effective.is_empty() {
            return Ok(CommitOutcome {
                epoch: cur.epoch,
                added: 0,
                deleted: 0,
                recounted: 0,
                rebased: false,
                wal_bytes: 0,
            });
        }
        let epoch = cur.epoch + 1;
        // Durability barrier: the effective delta, stamped with the
        // epoch it will create, must be on disk before a successor is
        // built. On failure the taken ops are restored to the pending
        // buffer (merged *under* anything buffered since, so later
        // client ops still win) and nothing is published. The log holds
        // the same ids as the wire, the CSR and the snapshot.
        let mut wal_bytes = 0;
        if let Some(d) = dur.as_mut() {
            let ops: Vec<WalOp> = effective
                .adds()
                .map(|e| WalOp {
                    src: e.src,
                    dst: e.dst,
                    label: e.label,
                    del: false,
                })
                .chain(effective.dels().map(|e| WalOp {
                    src: e.src,
                    dst: e.dst,
                    label: e.label,
                    del: true,
                }))
                .collect();
            match d.writer.append_tx(epoch, &ops) {
                Ok(n) => wal_bytes = n,
                Err(e) => {
                    if d.writer.repair(&*d.storage).is_err() {
                        d.poisoned = true;
                    }
                    // Best effort: a lock poisoned at this point cannot
                    // improve on the append error already being returned.
                    if let Ok(mut pending) = self.pending.checked_lock() {
                        let mut restored = delta;
                        restored.merge(&pending);
                        *pending = restored;
                    }
                    return Err(e);
                }
            }
        }
        let mut next = cur.fork();
        let recounted = next.advance(&effective, epoch, self.jobs);
        // `cur` outlives the swap, so the superseded state is never freed
        // under the slot lock; it goes when its last pin does.
        *self.current.write() = Arc::new(next);
        Ok(CommitOutcome {
            epoch,
            added: effective.adds().count(),
            deleted: effective.dels().count(),
            recounted,
            rebased: true,
            wal_bytes,
        })
    }

    /// Run `f` on the current epoch's catalog (tests and diagnostics;
    /// requests read the catalog of the state they pinned).
    pub fn with_markov<R>(&self, f: impl FnOnce(&MarkovTable) -> R) -> R {
        f(&self.pin().catalog())
    }

    /// Make sure every connected sub-pattern (≤ `h` edges) of `queries`
    /// is in the current epoch's catalog, without a deadline. Returns how
    /// many patterns were added.
    pub fn ensure_patterns(&self, queries: &[QueryGraph]) -> usize {
        let state = self.pin();
        // One fill for the batch: a pattern several queries share is
        // counted once. A query past the connected-subset limit resolves
        // to nothing and is skipped — it would not be estimated either.
        let mut missing: Vec<Pattern> = Vec::new();
        let mut seen: FxHashSet<Pattern> = FxHashSet::default();
        for resolved in queries.iter().filter_map(|q| state.catalog().resolve(q)) {
            for pat in resolved.missing() {
                if seen.insert(pat.clone()) {
                    missing.push(pat.clone());
                }
            }
        }
        state.fill(&missing, None, self.jobs).added
    }

    /// Catalog size (stored patterns) right now.
    pub fn catalog_len(&self) -> usize {
        self.pin().catalog().len()
    }

    /// Heap bytes of the committed catalog right now
    /// ([`MarkovTable::heap_bytes`]).
    pub fn catalog_bytes(&self) -> usize {
        self.pin().catalog().heap_bytes()
    }

    /// Persist the committed state — graph, Markov catalog, epoch — to a
    /// binary `.cegsnap` file. Returns `(epoch, bytes written)`. One
    /// epoch state is pinned and its catalog cloned; the pinned graph's
    /// arrays and the clone's entries are then streamed to the file
    /// through its write buffer — no copy of the graph is made, here, at
    /// a first boot's baseline or at a WAL rotation — and write + fsync
    /// happen with no lock held. The pending update buffer is not
    /// captured.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> io::Result<(u64, u64)> {
        self.write_snapshot_with(&OsStorage, path.as_ref())
    }

    /// [`DatasetEntry::write_snapshot`] through an explicit
    /// [`Storage`] — the seam rotation and the fault-injection tests
    /// write through.
    pub fn write_snapshot_with(
        &self,
        storage: &dyn Storage,
        path: &Path,
    ) -> io::Result<(u64, u64)> {
        let st = self.pin();
        let markov = st.catalog().clone();
        ceg_catalog::io::write_snapshot_with(storage, path, &st.graph, &markov, st.epoch)?;
        Ok((st.epoch, storage.len(path)?))
    }

    /// Restore an entry from a `.cegsnap` file written by
    /// [`DatasetEntry::write_snapshot`]: the graph and catalog come back
    /// exactly as persisted and the epoch sequence continues where it
    /// left off. Corrupt or truncated files are errors, never panics.
    pub fn read_snapshot(name: impl Into<String>, path: impl AsRef<Path>) -> io::Result<Self> {
        let snap = ceg_catalog::io::read_snapshot(path)?;
        // The epoch sequence continues: estimates cached against the old
        // process's epochs can never be confused with fresh ones.
        let state = EpochState::new(snap.graph, snap.epoch, snap.markov);
        Ok(Self::from_state(name.into(), state))
    }

    /// Make this dataset's commits crash-safe: every effective commit is
    /// appended to the WAL at `wal_path` and fsynced before it is
    /// applied or acked. A baseline snapshot is written to `snap_path`
    /// first if none exists (recovery always has a snapshot to start
    /// from). Errors if durability is already attached, or if the WAL
    /// holds commits beyond this entry's epoch — that log needs
    /// [`DatasetEntry::recover`], not a fresh attach, and attaching
    /// would silently drop acked commits at the next rotation.
    pub fn attach_durability(
        &self,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> io::Result<()> {
        let snap_path = snap_path.into();
        let wal_path = wal_path.into();
        let mut dur = self.durability.lock();
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
        let (writer, scan) = WalWriter::open(&*storage, &wal_path)?;
        if scan.last_epoch().is_some_and(|e| e > self.epoch()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL at {} holds commits up to epoch {} but the dataset is at epoch {} — \
                     recover from the snapshot + WAL instead of attaching",
                    wal_path.display(),
                    scan.last_epoch().unwrap_or(0),
                    self.epoch(),
                ),
            ));
        }
        *dur = Some(Durability {
            storage,
            snap_path,
            writer,
            snapshot_bytes,
            poisoned: false,
        });
        Ok(())
    }

    /// Rebuild a dataset exactly as the last acked commit left it: load
    /// the snapshot, merge the effective delta of every WAL transaction
    /// with a later epoch into one delta (a transaction that does not
    /// produce its logged epoch is an error), then do what one live
    /// commit does with it — fold it into the graph **once** and recount
    /// the catalog **once** over the union of touched labels; counts are
    /// exact, so this equals a fold and a recount per transaction — and
    /// attach the WAL for new appends. A torn tail — the fingerprint of a
    /// crash mid append — is truncated by the scan and reported, never an
    /// error: by the ack protocol those bytes were never acked.
    pub fn recover(
        name: impl Into<String>,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
        jobs: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        let snap_path = snap_path.into();
        let wal_path = wal_path.into();
        let snap = ceg_catalog::io::read_snapshot_with(&*storage, &snap_path)?;
        let snapshot_bytes = storage.len(&snap_path)?;
        let snapshot_epoch = snap.epoch;
        let mut state = EpochState::new(snap.graph, snapshot_epoch, snap.markov);
        let (writer, scan) = WalWriter::open(&*storage, &wal_path)?;
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
        for tx in &scan.txs {
            // Epochs at or below the snapshot's were already folded in
            // by the rotation that wrote it; skip them.
            if tx.epoch <= snapshot_epoch {
                continue;
            }
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
        state.advance(&replayed, report.epoch, jobs);
        let entry = Self::from_state(name.into(), state).with_jobs(jobs);
        *entry.durability.lock() = Some(Durability {
            storage,
            snap_path,
            writer,
            snapshot_bytes,
            poisoned: false,
        });
        Ok((entry, report))
    }

    /// Fold the WAL into a fresh snapshot and truncate it once the log's
    /// bytes past its header reach the size of the snapshot it replays
    /// onto. Returns `Ok(None)` when the log is still shorter, or when
    /// no durability is attached.
    ///
    /// The rule is worked out from the data, not set: the log never
    /// outgrows its snapshot, so recovery reads at most about twice the
    /// snapshot's bytes; and a fold rewrites S snapshot bytes only after
    /// at least S log bytes arrived, so writes are at most doubled at
    /// any graph size.
    pub(crate) fn maybe_rotate(&self) -> io::Result<Option<RotateOutcome>> {
        let mut dur = self.durability.lock();
        let Some(d) = dur.as_mut() else {
            return Ok(None);
        };
        if d.writer
            .len()
            .saturating_sub(ceg_graph::wal::WAL_HEADER_LEN)
            < d.snapshot_bytes
        {
            return Ok(None);
        }
        Self::rotate_locked(self, d).map(Some)
    }

    /// The fold itself, under the durability lock (so no commit is in
    /// flight and the pinned state is the log's last epoch). Order
    /// matters for crash safety: the snapshot is written **atomically
    /// first** (tmp + rename), the WAL truncated **after**. A crash
    /// between the two leaves a new snapshot plus a log of now-stale
    /// transactions — harmless, because replay skips epochs the snapshot
    /// already covers. The reverse order would lose acked commits.
    fn rotate_locked(&self, d: &mut Durability) -> io::Result<RotateOutcome> {
        let folded = d
            .writer
            .len()
            .saturating_sub(ceg_graph::wal::WAL_HEADER_LEN);
        let (epoch, snapshot_bytes) = self.write_snapshot_with(&*d.storage, &d.snap_path)?;
        d.writer.reset(&*d.storage)?;
        d.snapshot_bytes = snapshot_bytes;
        Ok(RotateOutcome {
            epoch,
            snapshot_bytes,
            wal_bytes_folded: folded,
        })
    }
}

/// Name → dataset map shared by every connection.
pub struct DatasetRegistry {
    map: OrderedRwLock<FxHashMap<String, Arc<DatasetEntry>>>,
    /// Catalog-growth worker threads handed to entries registered through
    /// [`DatasetRegistry::insert_graph`] / [`DatasetRegistry::load_files`].
    default_jobs: usize,
}

impl DatasetRegistry {
    /// An empty registry whose datasets count missing patterns serially.
    pub fn new() -> Self {
        Self::with_jobs(1)
    }

    /// An empty registry whose datasets grow their catalogs on up to
    /// `jobs` worker threads.
    pub fn with_jobs(jobs: usize) -> Self {
        DatasetRegistry {
            map: OrderedRwLock::new(LockRank::Registry, FxHashMap::default()),
            default_jobs: jobs.max(1),
        }
    }

    /// Register a prepared entry, replacing any previous dataset with the
    /// same name. Returns the shared handle.
    pub fn insert(&self, entry: DatasetEntry) -> Arc<DatasetEntry> {
        let entry = Arc::new(entry);
        self.map
            .write()
            .insert(entry.name().to_string(), entry.clone());
        entry
    }

    /// Register a graph with an empty hop-`h` catalog (it fills on demand).
    pub fn insert_graph(
        &self,
        name: impl Into<String>,
        graph: LabeledGraph,
        h: usize,
    ) -> Arc<DatasetEntry> {
        self.insert(
            DatasetEntry::new(name, graph, MarkovTable::empty(h)).with_jobs(self.default_jobs),
        )
    }

    /// Load a dataset from an edge-list file, with an optional persisted
    /// Markov catalog (`cegcli stats` output). Without one, an empty
    /// hop-`h` catalog is built on demand as requests arrive.
    pub fn load_files(
        &self,
        name: impl Into<String>,
        edges_path: impl AsRef<Path>,
        markov_path: Option<&str>,
        h: usize,
    ) -> io::Result<Arc<DatasetEntry>> {
        let graph = load_graph(edges_path)?;
        let markov = match markov_path {
            Some(path) => load_markov(path)?,
            None => MarkovTable::empty(h),
        };
        Ok(self.insert(DatasetEntry::new(name, graph, markov).with_jobs(self.default_jobs)))
    }

    /// Restore a dataset from a `.cegsnap` snapshot file and register it
    /// (see [`DatasetEntry::read_snapshot`]).
    pub fn load_snapshot(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> io::Result<Arc<DatasetEntry>> {
        Ok(self.insert(DatasetEntry::read_snapshot(name, path)?.with_jobs(self.default_jobs)))
    }

    /// Recover a dataset from snapshot + WAL (see
    /// [`DatasetEntry::recover`]), register it with durability attached,
    /// and report what was replayed.
    pub fn recover(
        &self,
        name: impl Into<String>,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> io::Result<(Arc<DatasetEntry>, RecoveryReport)> {
        let (entry, report) =
            DatasetEntry::recover(name, storage, snap_path, wal_path, self.default_jobs)?;
        Ok((self.insert(entry), report))
    }

    /// Shared handle to a dataset, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.map.read().get(name).cloned()
    }

    /// Registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.map.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(3, 4, 0);
        b.build()
    }

    #[test]
    fn ensure_patterns_fills_catalog_once() {
        let registry = DatasetRegistry::new();
        let entry = registry.insert_graph("toy", toy_graph(), 2);
        let q = templates::path(2, &[0, 1]);
        assert_eq!(entry.catalog_len(), 0);
        let added = entry.ensure_patterns(std::slice::from_ref(&q));
        assert!(added > 0);
        let len = entry.catalog_len();
        // Same queries again: nothing to add.
        assert_eq!(entry.ensure_patterns(std::slice::from_ref(&q)), 0);
        assert_eq!(entry.catalog_len(), len);
        // The filled catalog answers the full query pattern.
        let card = entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask()));
        assert_eq!(card, Some(2)); // 0->1->{2,3}
    }

    #[test]
    fn batch_ensure_deduplicates_across_queries() {
        let registry = DatasetRegistry::new();
        let entry = registry.insert_graph("toy", toy_graph(), 2);
        // Two isomorphic queries share all patterns: batch counts them once.
        let q1 = templates::path(2, &[0, 1]);
        let q2 = templates::path(2, &[0, 1]);
        let added = entry.ensure_patterns(&[q1, q2]);
        assert_eq!(added, entry.catalog_len());
    }

    #[test]
    fn parallel_growth_matches_serial_catalog() {
        let serial = DatasetRegistry::new();
        let parallel = DatasetRegistry::with_jobs(4);
        assert_eq!(serial.default_jobs, 1);
        assert_eq!(parallel.default_jobs, 4);
        let es = serial.insert_graph("toy", toy_graph(), 2);
        let ep = parallel.insert_graph("toy", toy_graph(), 2);
        assert_eq!(ep.jobs(), 4);
        let queries = [templates::path(2, &[0, 1]), templates::star(2, &[1, 1])];
        assert_eq!(es.ensure_patterns(&queries), ep.ensure_patterns(&queries));
        // Collect from one catalog, then compare against the other:
        // nesting the two read locks would trip the lock-rank checker
        // (two dataset-state locks held at once).
        assert_catalogs_equal(&es, &ep);
    }

    /// Assert two entries hold identical catalogs without ever holding
    /// both state locks at once (same rank: the checker forbids it).
    fn assert_catalogs_equal(a: &DatasetEntry, b: &DatasetEntry) {
        let entries: Vec<(Pattern, u64)> =
            a.with_markov(|t| t.iter().map(|(p, c)| (p.clone(), c)).collect());
        b.with_markov(|t| {
            assert_eq!(t.len(), entries.len());
            for (p, c) in &entries {
                assert_eq!(t.card(p), Some(*c), "pattern {p}");
            }
        });
    }

    #[test]
    fn registry_lookup_and_names() {
        let registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        registry.insert_graph("b", toy_graph(), 2);
        registry.insert_graph("a", toy_graph(), 2);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn updates_are_invisible_until_commit() {
        let registry = DatasetRegistry::new();
        let entry = registry.insert_graph("toy", toy_graph(), 2);
        let q = templates::path(2, &[0, 1]);
        entry.ensure_patterns(std::slice::from_ref(&q));
        let before = entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask()));
        assert_eq!(before, Some(2));

        let (epoch, pending) = entry.add_edge(0, 3, 0).unwrap(); // 0 -0-> 3 -1-> nothing... feeds 3->4? label mismatch
        assert_eq!(epoch, 0);
        assert_eq!(pending, 1);
        // Nothing changed yet.
        assert_eq!(
            entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
            Some(2)
        );
        assert_eq!(entry.epoch(), 0);

        let outcome = entry.try_commit().unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.added, 1);
        assert_eq!(outcome.deleted, 0);
        assert!(outcome.recounted > 0);
        assert_eq!(entry.epoch(), 1);
        assert_eq!(entry.pending_len(), 0);
        // 0->{1,3} under label 0, then label 1 out of 1 (2 ways) and 3 (0).
        assert_eq!(
            entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
            Some(2)
        );
        // A structural change that feeds the path: 4 -1-> 0 extends 3->4.
        entry.add_edge(4, 0, 1).unwrap();
        let outcome = entry.try_commit().unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(
            entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
            Some(3)
        );
    }

    #[test]
    fn pending_buffer_is_capped() {
        let mut entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
        entry.pending_cap = 2;
        entry.add_edge(0, 2, 0).unwrap();
        entry.add_edge(0, 3, 0).unwrap();
        let err = entry.add_edge(0, 4, 0).unwrap_err();
        assert!(err.contains("pending update buffer full"), "{err}");
        // Replacing an already-buffered op does not grow the buffer, so
        // it is allowed even at the cap.
        entry.del_edge(0, 2, 0).unwrap();
        assert_eq!(entry.pending_len(), 2);
        // COMMIT drains the buffer and new updates flow again.
        entry.try_commit().unwrap();
        entry.add_edge(0, 4, 0).unwrap();
    }

    #[test]
    fn updates_are_bounds_checked_against_domain_plus_growth() {
        let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
        // Growth within the allowance is fine even beyond the domain (5).
        entry
            .add_edge(MAX_UPDATE_VERTEX, 0, MAX_UPDATE_LABEL)
            .unwrap();
        // Beyond the allowance (and the 5-vertex domain): refused.
        let err = entry.add_edge(MAX_UPDATE_VERTEX + 1, 0, 0).unwrap_err();
        assert!(err.contains("vertex id out of range"), "{err}");
        let err = entry.del_edge(0, 1, MAX_UPDATE_LABEL + 1).unwrap_err();
        assert!(err.contains("label out of range"), "{err}");
        // The bound is max(domain, allowance): after the commit grows the
        // committed domain, ids inside it stay updatable — a dataset
        // larger than the allowance is never locked out of its own
        // vertices.
        entry.try_commit().unwrap();
        assert!(entry.add_edge(MAX_UPDATE_VERTEX, 1, 0).is_ok());
    }

    #[test]
    fn noop_commit_keeps_epoch() {
        let registry = DatasetRegistry::new();
        let entry = registry.insert_graph("toy", toy_graph(), 2);
        assert_eq!(entry.try_commit().unwrap().epoch, 0); // empty pending buffer
        entry.add_edge(0, 1, 0).unwrap(); // already present
        entry.del_edge(2, 0, 1).unwrap(); // absent
        let outcome = entry.try_commit().unwrap();
        assert_eq!(outcome.epoch, 0);
        assert_eq!((outcome.added, outcome.deleted), (0, 0));
        assert_eq!(entry.epoch(), 0);
        // Mixed with effective ops, the no-ops are stripped and only the
        // rest is counted.
        entry.add_edge(0, 1, 0).unwrap(); // already present
        entry.add_edge(4, 0, 0).unwrap(); // genuinely new
        entry.del_edge(1, 2, 1).unwrap(); // genuinely deleted
        entry.del_edge(2, 0, 1).unwrap(); // absent
        let outcome = entry.try_commit().unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!((outcome.added, outcome.deleted), (1, 1));
    }

    #[test]
    fn add_then_del_in_one_batch_collapses() {
        let registry = DatasetRegistry::new();
        let entry = registry.insert_graph("toy", toy_graph(), 2);
        entry.add_edge(2, 4, 0).unwrap();
        entry.del_edge(2, 4, 0).unwrap();
        let outcome = entry.try_commit().unwrap();
        assert_eq!(outcome.epoch, 0, "last-writer-wins: net no-op");
        entry.del_edge(0, 1, 0).unwrap();
        entry.add_edge(0, 1, 0).unwrap();
        assert_eq!(entry.try_commit().unwrap().epoch, 0);
    }

    #[test]
    fn snapshot_roundtrips_through_the_registry() {
        use ceg_catalog::io::write_markov;
        let bytes_of = |t: &MarkovTable| {
            let mut buf = Vec::new();
            write_markov(t, &mut buf).unwrap();
            buf
        };
        let path =
            std::env::temp_dir().join(format!("ceg-registry-snap-{}.cegsnap", std::process::id()));
        let registry = DatasetRegistry::with_jobs(2);
        let entry = registry.insert(DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2)));
        let q = templates::path(2, &[0, 1]);
        entry.ensure_patterns(std::slice::from_ref(&q));
        entry.add_edge(4, 0, 1).unwrap();
        entry.try_commit().unwrap();
        assert_eq!(entry.epoch(), 1);
        // Pending ops must NOT be captured.
        entry.add_edge(2, 2, 0).unwrap();

        let (epoch, bytes) = entry.write_snapshot(&path).unwrap();
        assert_eq!(epoch, 1);
        assert!(bytes > 0);

        let restored = registry.load_snapshot("restored", &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(restored.epoch(), 1);
        assert_eq!(restored.jobs(), 2);
        assert_eq!(restored.pending_len(), 0);
        assert_eq!(restored.graph_summary(), entry.graph_summary());
        // Catalog byte-identical to the live one (locks taken one at a
        // time: same-rank nesting trips the lock-rank checker).
        let live_bytes = entry.with_markov(|t| bytes_of(t));
        let restored_bytes = restored.with_markov(|t| bytes_of(t));
        assert_eq!(live_bytes, restored_bytes);
        // The epoch sequence continues, it does not restart.
        restored.add_edge(2, 2, 0).unwrap();
        assert_eq!(restored.try_commit().unwrap().epoch, 2);
    }

    #[test]
    fn wire_ids_address_edges_and_snapshot_bytes_round_trip() {
        let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));

        // An update addresses exactly the edge whose ids the client sent.
        entry.del_edge(1, 2, 1).unwrap();
        entry.add_edge(4, 0, 1).unwrap();
        entry.try_commit().unwrap();
        let after = entry.materialized_graph();
        assert!(!after.has_edge(1, 2, 1));
        assert!(after.has_edge(4, 0, 1));
        assert!(after.has_edge(1, 3, 1), "untouched edges survive");

        // Snapshot round-trip: bytes written by the live entry restore
        // into an entry that writes the identical bytes, and estimates
        // agree between the live and the cold server.
        let q = templates::path(2, &[0, 1]);
        entry.ensure_patterns(std::slice::from_ref(&q));
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("ceg-renum-1-{}.cegsnap", std::process::id()));
        let p2 = dir.join(format!("ceg-renum-2-{}.cegsnap", std::process::id()));
        entry.write_snapshot(&p1).unwrap();
        let registry = DatasetRegistry::new();
        let cold = registry.load_snapshot("cold", &p1).unwrap();
        cold.write_snapshot(&p2).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
        assert_eq!(b1, b2, "snapshot bytes must round-trip identically");
        assert_eq!(
            entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
            cold.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
            "live and cold estimates agree"
        );
    }

    #[test]
    fn snapshot_restore_of_corrupt_file_is_an_error() {
        let path =
            std::env::temp_dir().join(format!("ceg-registry-junk-{}.cegsnap", std::process::id()));
        std::fs::write(&path, b"garbage").unwrap();
        let registry = DatasetRegistry::new();
        assert!(registry.load_snapshot("x", &path).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(registry.get("x").is_none());
    }

    #[test]
    fn commit_shares_untouched_relations_with_the_predecessor() {
        // What keeps a commit's cost and peak memory proportional to the
        // relations it touches: the successor's CSR for every other label
        // is the predecessor's allocation, in both directions.
        let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
        let before = entry.pin();
        entry.add_edge(0, 3, 0).unwrap();
        assert!(entry.try_commit().unwrap().rebased);
        let after = entry.pin();
        assert_eq!(after.epoch(), before.epoch() + 1);
        let (old, new) = (&before.graph, &after.graph);
        assert!(std::ptr::eq(
            old.out_neighbors(1, 1),
            new.out_neighbors(1, 1)
        ));
        assert!(std::ptr::eq(old.in_neighbors(2, 1), new.in_neighbors(2, 1)));
        // Label 0 was rebuilt beside the pinned predecessor's.
        assert_eq!(old.out_neighbors(0, 0).len(), 1);
        assert_eq!(new.out_neighbors(0, 0).len(), 2);
        assert!(!std::ptr::eq(
            old.out_neighbors(3, 0).as_ptr(),
            new.out_neighbors(3, 0).as_ptr()
        ));
    }

    mod durability {
        use super::*;
        use ceg_graph::vfs::{FaultPlan, FaultStorage};

        fn paths() -> (PathBuf, PathBuf) {
            (
                PathBuf::from("/data/toy.cegsnap"),
                PathBuf::from("/data/toy.cegwal"),
            )
        }

        fn durable_entry(fs: &FaultStorage) -> DatasetEntry {
            let (snap, wal) = paths();
            let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
            entry
                .attach_durability(Arc::new(fs.clone()), snap, wal)
                .unwrap();
            entry
        }

        /// Compare two entries as an estimator would see them: same
        /// epoch, same committed edges, same catalog entries.
        fn assert_same_committed(a: &DatasetEntry, b: &DatasetEntry) {
            assert_eq!(a.epoch(), b.epoch());
            let (ga, gb) = (a.materialized_graph(), b.materialized_graph());
            assert_eq!(ga.num_edges(), gb.num_edges());
            for e in ga.all_edges() {
                assert!(gb.has_edge(e.src, e.dst, e.label), "{e:?}");
            }
            assert_catalogs_equal(a, b);
        }

        #[test]
        fn attach_writes_a_baseline_snapshot_and_an_empty_wal() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            let (snap, wal) = paths();
            assert!(fs.exists(&snap));
            assert_eq!(fs.len(&wal).unwrap(), ceg_graph::wal::WAL_HEADER_LEN);
            entry.add_edge(0, 4, 1).unwrap();
            assert!(entry.try_commit().unwrap().wal_bytes > 0);
        }

        #[test]
        fn committed_transactions_recover_exactly() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            entry.add_edge(0, 4, 1).unwrap();
            entry.add_edge(2, 3, 0).unwrap();
            let out = entry.try_commit().unwrap();
            assert_eq!(out.epoch, 1);
            assert!(out.wal_bytes > 0);
            entry.del_edge(0, 1, 0).unwrap();
            entry.try_commit().unwrap();

            let (snap, wal) = paths();
            let (recovered, report) =
                DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
            assert_eq!(report.snapshot_epoch, 0);
            assert_eq!(report.replayed_commits, 2);
            assert_eq!(report.replayed_ops, 3);
            assert!(report.torn_tail.is_none());
            assert_same_committed(&entry, &recovered);
        }

        #[test]
        fn noop_commit_appends_nothing() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            let (_, wal) = paths();
            let before = fs.len(&wal).unwrap();
            // Adding an edge the graph already has is effectively empty.
            entry.add_edge(0, 1, 0).unwrap();
            let out = entry.try_commit().unwrap();
            assert_eq!(out.epoch, 0);
            assert_eq!(out.wal_bytes, 0);
            assert_eq!(fs.len(&wal).unwrap(), before);
        }

        #[test]
        fn failed_append_restores_pending_and_applies_nothing() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            fs.set_plan(FaultPlan::default().fail_at(fs.op_count(), io::ErrorKind::Other));
            entry.add_edge(0, 4, 1).unwrap();
            let err = entry.try_commit().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Other);
            // Nothing applied, nothing acked, op still pending.
            assert_eq!(entry.epoch(), 0);
            assert!(!entry.materialized_graph().has_edge(0, 4, 1));
            assert_eq!(entry.pending_len(), 1);
            // The plan is one-shot: the retry commits the restored op.
            let out = entry.try_commit().unwrap();
            assert_eq!(out.epoch, 1);
            assert!(entry.materialized_graph().has_edge(0, 4, 1));
        }

        #[test]
        fn append_failure_keeps_later_ops_buffered_after_restore() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            fs.set_plan(FaultPlan::default().fail_at(fs.op_count(), io::ErrorKind::WriteZero));
            entry.add_edge(0, 4, 1).unwrap();
            entry.try_commit().unwrap_err();
            // An op buffered after the failure must survive the restore
            // and win over the restored delta where they overlap.
            entry.del_edge(0, 4, 1).unwrap();
            let out = entry.try_commit().unwrap();
            assert_eq!(out.epoch, 0, "add then del of an absent edge is a no-op");
            assert!(!entry.materialized_graph().has_edge(0, 4, 1));
        }

        #[test]
        fn crashed_storage_poisons_the_wal_and_refuses_commits() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            entry.add_edge(0, 4, 1).unwrap();
            entry.try_commit().unwrap();
            // Storage dies: the append fails AND the repair truncate
            // fails, so the writer can no longer trust its tail.
            fs.set_plan(FaultPlan::default().crash_after(0));
            entry.add_edge(2, 3, 0).unwrap();
            entry.try_commit().unwrap_err();
            entry.add_edge(2, 4, 0).unwrap();
            let err = entry.try_commit().unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            // The acked commit is still durable: reboot and recover.
            fs.reboot(0);
            let (snap, wal) = paths();
            let (recovered, report) =
                DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
            assert_eq!(report.replayed_commits, 1);
            assert_eq!(recovered.epoch(), 1);
            assert!(recovered.materialized_graph().has_edge(0, 4, 1));
            assert!(!recovered.materialized_graph().has_edge(2, 3, 0));
        }

        /// Buffer and commit one new edge `(i, i + 1)` among the ids the
        /// toy graph lacks, so every commit is effective.
        fn commit_new_edge(entry: &DatasetEntry, i: u32) {
            entry.add_edge(10 + i, 11 + i, 0).unwrap();
            assert!(entry.try_commit().unwrap().wal_bytes > 0);
        }

        #[test]
        fn rotation_folds_the_log_and_recovery_still_matches() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            let (snap, wal) = paths();
            let baseline = fs.len(&snap).unwrap();
            let mut commits = 0;
            let out = loop {
                assert!(commits < 64, "the log never outgrew its snapshot");
                commit_new_edge(&entry, commits);
                commits += 1;
                if let Some(out) = entry.maybe_rotate().unwrap() {
                    break out;
                }
            };
            assert_eq!(out.epoch, u64::from(commits));
            assert!(out.wal_bytes_folded >= baseline);
            assert_eq!(out.snapshot_bytes, fs.len(&snap).unwrap());
            assert_eq!(fs.len(&wal).unwrap(), ceg_graph::wal::WAL_HEADER_LEN);
            // Post-rotation commits land in the fresh log.
            entry.del_edge(0, 1, 0).unwrap();
            entry.try_commit().unwrap();
            let (recovered, report) =
                DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
            assert_eq!(report.snapshot_epoch, u64::from(commits));
            assert_eq!(report.replayed_commits, 1);
            assert_same_committed(&entry, &recovered);
        }

        #[test]
        fn maybe_rotate_folds_once_the_log_reaches_its_snapshot() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            let (snap, wal) = paths();
            let logged = || fs.len(&wal).unwrap() - ceg_graph::wal::WAL_HEADER_LEN;
            assert!(entry.maybe_rotate().unwrap().is_none(), "empty log");
            commit_new_edge(&entry, 0);
            assert!(logged() < fs.len(&snap).unwrap());
            assert!(entry.maybe_rotate().unwrap().is_none(), "shorter log");
            let mut i = 1;
            while logged() < fs.len(&snap).unwrap() {
                commit_new_edge(&entry, i);
                i += 1;
            }
            let before = logged();
            let out = entry.maybe_rotate().unwrap().expect("log as long");
            assert_eq!(out.wal_bytes_folded, before);
            assert_eq!(logged(), 0);
            // The next fold waits for the log to reach the new snapshot.
            commit_new_edge(&entry, i);
            assert!(entry.maybe_rotate().unwrap().is_none(), "fresh log");
        }

        #[test]
        fn attach_refuses_a_wal_ahead_of_the_entry() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            entry.add_edge(0, 4, 1).unwrap();
            entry.try_commit().unwrap();
            // A fresh entry at epoch 0 must not adopt this epoch-1 log.
            let fresh = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
            let (snap, wal) = paths();
            let err = fresh
                .attach_durability(Arc::new(fs.clone()), snap, wal)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("recover"), "{err}");
        }

        #[test]
        fn torn_tail_is_reported_and_acked_prefix_recovers() {
            let fs = FaultStorage::new();
            let entry = durable_entry(&fs);
            entry.add_edge(0, 4, 1).unwrap();
            entry.try_commit().unwrap();
            // Crash mid-append of the second commit: half the record's
            // bytes land, unsynced.
            fs.set_plan(FaultPlan::default().crash_after(0));
            entry.add_edge(2, 3, 0).unwrap();
            entry.try_commit().unwrap_err();
            fs.reboot(usize::MAX); // keep every torn byte
            let (snap, wal) = paths();
            let (recovered, report) =
                DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
            assert!(report.torn_tail.is_some());
            assert_eq!(report.replayed_commits, 1);
            assert_eq!(recovered.epoch(), 1);
            assert!(!recovered.materialized_graph().has_edge(2, 3, 0));
            // The torn bytes were truncated: new commits append cleanly.
            recovered.add_edge(2, 3, 0).unwrap();
            assert_eq!(recovered.try_commit().unwrap().epoch, 2);
        }
    }
}
