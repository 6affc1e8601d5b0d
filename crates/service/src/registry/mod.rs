//! The dataset registry: the process's one dataset is loaded once into a
//! [`DatasetEntry`] and shared across connections via `Arc`, and its
//! committed state is replaced safely while serving.
//!
//! A dataset's committed state is one immutable epoch state (`epoch`):
//! a CSR graph, its epoch number and the Markov catalog counted on
//! exactly that graph. A request *pins* it once and reads epoch, cache
//! tag, graph and catalog from that pin for its whole life, so an
//! estimate is always the paper's number for **one** epoch. Invariant:
//! **a state's catalog describes that state's graph** — counts taken on
//! a pinned graph go into that pin's catalog only (docs/ARCHITECTURE.md,
//! "Live updates").
//!
//! Updates buffer in a pending [`GraphDelta`] that readers never see.
//! [`DatasetEntry::try_commit`] (`commit`) runs a commit as its stages:
//! effective delta, log, fork + fold + recount, publish — a pointer swap
//! after which every estimate cached at an older epoch misses. Commits
//! serialise on the durability mutex, which no reader takes: a reader
//! meets only the pointer slot and its pin's catalog lock, never a WAL
//! fsync, a rebase or a recount. `durability` owns the log and the
//! snapshot file it replays onto: attach, recover, fold.

mod commit;
mod durability;
mod epoch;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ceg_catalog::MarkovTable;
use ceg_graph::sync::{LockPoisoned, LockRank, OrderedMutex, OrderedRwLock};
use ceg_graph::vfs::Storage;
use ceg_graph::{FxHashSet, GraphDelta, LabelId, LabeledGraph, VertexId};
use ceg_query::{Pattern, QueryGraph};

pub use commit::CommitOutcome;
use durability::Durability;
pub use durability::{RecoveryReport, RotateOutcome};
pub(crate) use epoch::EpochState;
pub use epoch::{EnsureOutcome, MAX_UPDATE_LABEL, MAX_UPDATE_VERTEX};

/// One registered dataset: the published epoch state plus the pending
/// (uncommitted) update buffer.
pub struct DatasetEntry {
    name: String,
    /// Refuse to buffer more than this many uncommitted operations.
    pending_cap: usize,
    /// The published epoch state. The lock is held for an `Arc` clone
    /// (a pin) or a pointer swap (the end of a commit), nothing else.
    current: OrderedRwLock<Arc<EpochState>>,
    pending: OrderedMutex<GraphDelta>,
    /// The log ([`DatasetEntry::attach_durability`] or
    /// [`DatasetEntry::recover`]) and the commit mutex, held from taking
    /// the pending delta to the swap, so log order is epoch order.
    /// Readers never take it; `current` and `pending` rank above it.
    durability: OrderedMutex<Option<Durability>>,
}

/// Default cap on buffered (uncommitted) operations: a client that
/// never commits is refused, not given unbounded memory.
pub const MAX_PENDING_OPS: usize = 1 << 20;

impl DatasetEntry {
    /// Wrap an already-loaded graph and catalog.
    pub fn new(name: impl Into<String>, graph: LabeledGraph, markov: MarkovTable) -> Self {
        Self::from_state(name.into(), EpochState::new(graph, 0, markov), None)
    }

    fn from_state(name: String, state: EpochState, durability: Option<Durability>) -> Self {
        DatasetEntry {
            name,
            pending_cap: MAX_PENDING_OPS,
            current: OrderedRwLock::new(LockRank::DatasetState, Arc::new(state)),
            pending: OrderedMutex::new(LockRank::PendingDelta, GraphDelta::new()),
            durability: OrderedMutex::new(LockRank::Durability, durability),
        }
    }

    /// The typed error a poisoned update-path lock funnels into: a panic
    /// under one degrades this dataset's updates, not the connection.
    fn poisoned_msg(&self, err: LockPoisoned) -> String {
        format!("dataset `{}` unavailable: {err}", self.name)
    }

    /// Dataset name (the wire-protocol identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Markov hop depth `h`.
    pub fn h(&self) -> usize {
        self.pin().catalog().h()
    }

    /// Pin the current epoch state: everything a request reads comes
    /// from one pin, alive and fillable whatever commits publish.
    pub(crate) fn pin(&self) -> Arc<EpochState> {
        self.current.read().clone()
    }

    /// Current committed epoch (0 until the first effective commit).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch()
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
    /// ([`LabeledGraph::heap_bytes`]): its storage cost.
    pub fn graph_bytes(&self) -> usize {
        self.pin().graph.heap_bytes()
    }

    /// A copy of the committed graph (its relations stay shared), for
    /// tests that compare a live server against a cold one.
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
        Ok((st.epoch(), pending.len()))
    }

    /// Buffer an edge insertion, invisible until [`DatasetEntry::try_commit`].
    /// Returns `(current epoch, pending ops)`; refuses an out-of-bounds op
    /// or a full buffer.
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
        state.fill(&missing, None).added
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
}

/// The one dataset a process serves, shared by every connection.
///
/// The registry holds at most one [`DatasetEntry`]: the first
/// [`DatasetRegistry::insert`] (or `insert_graph`, `load_snapshot`,
/// `recover`) registers it, and every later call returns that first
/// dataset unchanged, dropping the entry it was handed or loaded (a
/// later `recover` still reads, and repairs, the files it is given).
pub struct DatasetRegistry {
    slot: OnceLock<Arc<DatasetEntry>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DatasetRegistry {
            slot: OnceLock::new(),
        }
    }

    /// Register a prepared entry, unless a dataset is registered already.
    /// Returns the registered dataset: `entry`, or the first one.
    pub fn insert(&self, entry: DatasetEntry) -> Arc<DatasetEntry> {
        self.slot.get_or_init(|| Arc::new(entry)).clone()
    }

    /// Register a graph with an empty hop-`h` catalog (it fills on demand).
    pub fn insert_graph(
        &self,
        name: impl Into<String>,
        graph: LabeledGraph,
        h: usize,
    ) -> Arc<DatasetEntry> {
        self.insert(DatasetEntry::new(name, graph, MarkovTable::empty(h)))
    }

    /// Restore a dataset from a `.cegsnap` snapshot file and register it
    /// (see [`DatasetEntry::read_snapshot`]).
    pub fn load_snapshot(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> io::Result<Arc<DatasetEntry>> {
        Ok(self.insert(DatasetEntry::read_snapshot(name, path)?))
    }

    /// Recover a dataset from snapshot + WAL ([`DatasetEntry::recover`])
    /// and register it, durable.
    pub fn recover(
        &self,
        name: impl Into<String>,
        storage: Arc<dyn Storage>,
        snap_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> io::Result<(Arc<DatasetEntry>, RecoveryReport)> {
        let (entry, report) = DatasetEntry::recover(name, storage, snap_path, wal_path, 1)?;
        Ok((self.insert(entry), report))
    }

    /// The registered dataset, if it is called `name`.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.slot.get().filter(|e| e.name == name).cloned()
    }

    /// The registered dataset, whatever its name.
    pub(crate) fn dataset(&self) -> Option<&Arc<DatasetEntry>> {
        self.slot.get()
    }
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests;
