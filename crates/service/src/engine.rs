//! The transport-independent estimation core.
//!
//! One [`Engine`] per server: it owns the shared [`EstimateCache`], a
//! handle to the [`DatasetRegistry`] and the overload controls, and has
//! **one estimate path**, [`Engine::estimate_batch`], which runs start to
//! finish on the calling thread against one pinned epoch of the dataset:
//!
//! 1. hash every query once and probe the cache once — hits are answered
//!    here, before any admission, so a hit never waits behind cold work;
//! 2. every miss takes a per-dataset admission permit, all up front
//!    (`QueueFull` beyond the cap);
//! 3. in request order, each admitted miss waits for one of a fixed
//!    number of run slots, re-checks drain and deadline, fills its
//!    missing catalog patterns, estimates, stores the result, releases
//!    slot and permit, and only then hands its outcome to the caller.
//!
//! The TCP server (`ESTIMATE`, each slot of `ESTIMATE_BATCH`,
//! `EXPLAIN_ESTIMATE`), benches and tests all drive this same function,
//! so what a socket client gets is measurable without a socket in the
//! way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

use ceg_core::ceg_o::DeadlinePassed;
use ceg_core::sync::{self, LockRank, OrderedMutex};
use ceg_core::trace::Trace;
use ceg_core::{CegO, Heuristic};
use ceg_graph::{LabelId, VertexId};
use ceg_query::QueryGraph;

use crate::cache::{EstimateCache, ProbeOutcome};
use crate::metrics::{Metrics, Series};
use crate::registry::{CommitOutcome, DatasetEntry, DatasetRegistry, EpochState};

/// Entries kept in the slow-query ring buffer (oldest evicted first).
const SLOWLOG_CAP: usize = 128;

/// A per-dataset gauge: what `METRICS` calls `dataset_<name>_<gauge>` and
/// `METRICS_PROM` calls `ceg_dataset_<gauge>{dataset="<name>"}`.
type DatasetGauge = (&'static str, fn(&DatasetEntry) -> u64);

const DATASET_GAUGES: [DatasetGauge; 4] = [
    ("epoch", |e| e.epoch()),
    ("pending_ops", |e| e.pending_len() as u64),
    ("catalog_entries", |e| e.catalog_len() as u64),
    ("graph_bytes", |e| e.graph_bytes() as u64),
];

/// Default slow-query threshold: misses slower than this are logged.
pub const DEFAULT_SLOW_QUERY_THRESHOLD_MS: u64 = 250;

/// One slow-query record: which query was slow, where it spent the
/// time, and the epoch it ran against. Kept in a bounded ring
/// ([`Engine::slowlog`]) and surfaced by the `SLOWLOG` wire command and
/// the drain report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Request id the server assigned at accept time (0 for direct API
    /// callers that have none).
    pub id: u64,
    /// Dataset the query ran against.
    pub dataset: String,
    /// Committed epoch at execution time.
    pub epoch: u64,
    /// The miss's latency in microseconds: its request's cache pass,
    /// its wait for a run slot, its fill and its estimation.
    pub micros: u64,
    /// Microseconds in the cache pass (including cache-lock wait).
    pub cache_us: u64,
    /// Microseconds filling missing catalog patterns.
    pub fill_us: u64,
    /// Microseconds in the estimation pass.
    pub estimate_us: u64,
    /// The query, in wire grammar (`<vars> <src> <dst> <label> ...`).
    pub query: String,
}

/// One estimate with its cache provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateOutcome {
    /// The estimate; `None` when the estimator cannot answer the query.
    pub value: Option<f64>,
    /// True if served from the LRU cache.
    pub cached: bool,
}

/// The fate of one query: answered, abandoned at its deadline, or
/// refused by overload control. There is no partial state — a query
/// whose catalog fill was cut short times out; its half-counted patterns
/// are discarded, never cached or reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// Answered (computed or cache-served).
    Done(EstimateOutcome),
    /// Abandoned: the deadline passed before the answer was ready.
    TimedOut,
    /// Refused: a miss, and its dataset already had as many misses
    /// admitted as the cap allows (the wire's `BUSY queue full`).
    QueueFull,
    /// Refused: a drain began before the miss got to run (the wire's
    /// `BUSY server draining`).
    Draining,
    /// Rejected: the query has more than
    /// [`QueryGraph::MAX_CONNECTED_SUBSETS`] connected sub-queries, and
    /// CEG_O has a node for each (the wire's `ERR`, naming the limit).
    TooWide,
}

/// What one request carries into [`Engine::estimate_batch`].
#[derive(Default)]
pub struct RequestCtx<'a> {
    /// The server's request id (0 for direct API callers that have
    /// none); labels slow-query records.
    pub id: u64,
    /// When the request's misses stop being worth running (`None` =
    /// unbounded). Checked after the run-slot wait, between plan depths
    /// inside the counting kernel and before each size level of the
    /// CEG_O pass; hits are answered regardless.
    pub deadline: Option<Instant>,
    /// Records the span/counter breakdown when present — what
    /// `EXPLAIN_ESTIMATE` adds; it changes what is reported, never what
    /// is computed.
    pub trace: Option<&'a mut Trace>,
}

/// Acknowledgement of one buffered `ADD_EDGE`/`DEL_EDGE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateAck {
    /// Current committed epoch (updates do not bump it; commits do).
    pub epoch: u64,
    /// Buffered operations awaiting `COMMIT`, after this one.
    pub pending: usize,
}

/// Acknowledgement of a `SNAPSHOT`: what was durably written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotAck {
    /// The committed epoch the snapshot captured.
    pub epoch: u64,
    /// Size of the written `.cegsnap` file in bytes.
    pub bytes: u64,
}

/// Counter snapshot reported over the wire by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    pub requests: u64,
    /// Calls of [`Engine::estimate_batch`]: one per `ESTIMATE`,
    /// `EXPLAIN_ESTIMATE` or `ESTIMATE_BATCH` request.
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub datasets: u64,
    /// Requests rejected with `BUSY` (admission control or drain).
    pub busy: u64,
    /// Requests answered with `TIMEOUT`.
    pub timeouts: u64,
    /// Misses admitted and not yet answered (waiting for a run slot or
    /// running).
    pub queued: u64,
}

/// Overload control on the estimate path: a per-dataset bound on
/// admitted misses (counted on the [`DatasetEntry`]) and a fixed number
/// of run slots. Both hand out RAII guards, so neither bound can leak
/// whatever way a miss ends.
struct Overload {
    /// Most misses one dataset may have admitted at once.
    queue_cap: usize,
    /// Free run slots, of `max(2, available_parallelism)`: how many
    /// misses count and estimate at once, however many connections
    /// there are. `LockRank::PoolShard`: taken with nothing else held,
    /// for the counter update only.
    free_slots: OrderedMutex<usize>,
    slot_freed: Condvar,
}

impl Overload {
    fn new(queue_cap: usize) -> Self {
        let slots = thread::available_parallelism()
            .map_or(2, |n| n.get())
            .max(2);
        Overload {
            queue_cap,
            free_slots: OrderedMutex::new(LockRank::PoolShard, slots),
            slot_freed: Condvar::new(),
        }
    }

    /// Admit one miss on `entry`; `None` means the dataset is at its cap
    /// and the miss must be refused.
    fn try_admit<'a>(&self, entry: &'a DatasetEntry, metrics: &'a Metrics) -> Option<Permit<'a>> {
        // Exact bound: a compare-exchange loop never overshoots the cap,
        // unlike fetch_add-then-undo.
        let counter = &entry.admitted;
        let mut cur = counter.load(Ordering::Relaxed);
        loop {
            if cur >= self.queue_cap {
                return None;
            }
            match counter.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        metrics.job_enqueued();
        Some(Permit { counter, metrics })
    }

    /// Wait for a run slot; `None` means `deadline` passed first.
    fn run_slot(&self, deadline: Option<Instant>) -> Option<RunSlot<'_>> {
        let mut free = self.free_slots.lock();
        while *free == 0 {
            let wait = match deadline {
                Some(d) => d.checked_duration_since(Instant::now())?,
                None => Duration::from_secs(3600),
            };
            free = sync::wait_timeout(&self.slot_freed, free, wait).0;
        }
        *free -= 1;
        Some(RunSlot(self))
    }
}

/// One admitted miss; dropping it frees the dataset's admission slot.
struct Permit<'a> {
    counter: &'a AtomicUsize,
    metrics: &'a Metrics,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
        self.metrics.job_finished();
    }
}

/// One held run slot; dropping it wakes one waiter.
struct RunSlot<'a>(&'a Overload);

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        // `checked_lock`: a drop may run during an unwind and must not
        // panic; the lock is held for counter updates only, so poison
        // cannot happen in practice.
        if let Ok(mut free) = self.0.free_slots.checked_lock() {
            *free += 1;
        }
        self.0.slot_freed.notify_one();
    }
}

/// Shared estimation core: registry + cache + overload control +
/// counters + metrics.
pub struct Engine {
    registry: Arc<DatasetRegistry>,
    /// `LockRank::Cache`: taken after the registry map and any dataset
    /// locks are released, before the slowlog/metrics rank.
    cache: OrderedMutex<EstimateCache>,
    overload: Overload,
    /// Set once by [`Engine::begin_drain`]; misses that have not started
    /// running are refused from then on.
    draining: AtomicBool,
    metrics: Arc<Metrics>,
    slowlog: OrderedMutex<VecDeque<SlowQueryEntry>>,
    slow_threshold_us: AtomicU64,
}

impl Engine {
    /// An engine over `registry` with an LRU cache of `cache_capacity`
    /// buckets (0 disables caching) and no admission cap.
    pub fn new(registry: Arc<DatasetRegistry>, cache_capacity: usize) -> Self {
        Engine::with_queue_cap(registry, cache_capacity, usize::MAX)
    }

    /// [`Engine::new`] refusing a dataset's misses beyond `queue_cap`
    /// admitted at once — how the server applies
    /// [`crate::ServerConfig::queue_cap`].
    pub(crate) fn with_queue_cap(
        registry: Arc<DatasetRegistry>,
        cache_capacity: usize,
        queue_cap: usize,
    ) -> Self {
        Engine {
            registry,
            cache: OrderedMutex::new(LockRank::Cache, EstimateCache::new(cache_capacity)),
            overload: Overload::new(queue_cap),
            draining: AtomicBool::new(false),
            metrics: Arc::new(Metrics::new()),
            slowlog: OrderedMutex::new(LockRank::Metrics, VecDeque::new()),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_QUERY_THRESHOLD_MS * 1000),
        }
    }

    /// Set the slow-query threshold: misses whose latency reaches `ms`
    /// milliseconds are recorded in the slow-query ring.
    /// `u64::MAX / 1000` or larger effectively disables the log.
    pub fn set_slow_query_threshold_ms(&self, ms: u64) {
        self.slow_threshold_us
            .store(ms.saturating_mul(1000), Ordering::Relaxed);
    }

    /// Current slow-query threshold in milliseconds.
    pub fn slow_query_threshold_ms(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed) / 1000
    }

    /// The most recent `n` slow-query records, newest first. A poisoned
    /// ring (a panic mid-push) yields an empty log rather than killing
    /// the `SLOWLOG` handler: the records are diagnostics, not state.
    pub fn slowlog(&self, n: usize) -> Vec<SlowQueryEntry> {
        match self.slowlog.checked_lock() {
            Ok(log) => log.iter().rev().take(n).cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<DatasetRegistry> {
        &self.registry
    }

    /// The shared metrics registry (latency histograms, overload
    /// counters) — the server, `cegcli` and the benches all record here.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Start refusing estimates: from here on every request, and every
    /// admitted miss that has not started running, is `Draining`.
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Has [`Engine::begin_drain`] been called?
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Estimate one query (a batch of one, no deadline).
    pub fn estimate(&self, dataset: &str, query: &QueryGraph) -> Result<EstimateOutcome, String> {
        match self.estimate_one(dataset, query, RequestCtx::default())? {
            QueryOutcome::Done(outcome) => Ok(outcome),
            refused => Err(format!("estimate refused: {refused:?}")),
        }
    }

    /// Estimate one query with an **enabled** [`Trace`]: the result is
    /// bit-identical to [`Engine::estimate`] (same call, same cache,
    /// same catalog, same estimator), plus the recorded span/counter
    /// breakdown `EXPLAIN_ESTIMATE` reports.
    pub fn explain(
        &self,
        dataset: &str,
        query: &QueryGraph,
        deadline: Option<Instant>,
    ) -> Result<(QueryOutcome, Trace), String> {
        let mut trace = Trace::enabled();
        let ctx = RequestCtx {
            id: 0,
            deadline,
            trace: Some(&mut trace),
        };
        let outcome = self.estimate_one(dataset, query, ctx)?;
        Ok((outcome, trace))
    }

    /// A batch of one: the single outcome of [`Engine::estimate_batch`].
    pub(crate) fn estimate_one(
        &self,
        dataset: &str,
        query: &QueryGraph,
        ctx: RequestCtx<'_>,
    ) -> Result<QueryOutcome, String> {
        let mut outcome = None;
        self.estimate_batch(dataset, std::slice::from_ref(query), ctx, |o| {
            outcome = Some(o)
        })?;
        outcome.ok_or_else(|| "internal error: batch of one produced no outcome".to_string())
    }

    /// The one estimate path: answer `queries` against one pinned epoch
    /// of `dataset`, handing each outcome to `reply` in request order as
    /// soon as it is known (so a caller can stream them). `Err` means
    /// nothing was answered (unknown dataset) and `reply` was not called.
    ///
    /// Every query is hashed once and probed once, under one cache lock;
    /// hits are final there. Every miss then takes its admission permit
    /// — all of them before the first one runs, so a wide cold batch
    /// meets the cap as a whole — and the admitted ones run one after
    /// the other on this thread (`run_miss`). Overlapping patterns across
    /// the batch are still counted once: a later miss finds what an
    /// earlier fill inserted in the pinned catalog.
    pub fn estimate_batch(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
        mut ctx: RequestCtx<'_>,
        mut reply: impl FnMut(QueryOutcome),
    ) -> Result<(), String> {
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        self.metrics.add(Series::Requests, queries.len() as u64);
        self.metrics.inc(Series::Batches);
        if self.draining() {
            for _ in queries {
                self.metrics.inc(Series::Busy);
                reply(QueryOutcome::Draining);
            }
            return Ok(());
        }

        // One estimate, one epoch: the cache tag, the catalog that is
        // filled and read, and the epoch EXPLAIN and the slow log report
        // all come from this one pinned state, whatever commits publish
        // while the batch runs. The cache is epoch-aware: entries stored
        // under an older epoch miss.
        let state = entry.pin();
        let epoch = state.epoch();
        // The WL canonical hash is the expensive part of a cache probe;
        // compute it outside the cache lock so concurrent requests only
        // serialize on the map operations themselves.
        let hashes: Vec<u64> = queries.iter().map(|q| q.canonical_hash()).collect();
        let cache_started = Instant::now();
        // A poisoned cache (a panic under the cache lock) must not take
        // estimation down with it: every query is treated as a cold miss
        // and answered from the catalog, uncached.
        let mut cache = self.cache.checked_lock().ok();
        let lock_wait_us = cache_started.elapsed().as_micros() as u64;
        let probed: Vec<ProbeOutcome> = queries
            .iter()
            .zip(&hashes)
            .map(|(q, &hash)| match cache.as_mut() {
                Some(cache) => cache.probe_hashed(dataset, q, hash, epoch),
                None => ProbeOutcome::ColdMiss,
            })
            .collect();
        drop(cache);
        let cache_us = cache_started.elapsed().as_micros() as u64;
        if let Some(t) = ctx.trace.as_deref_mut() {
            let count =
                |kind: fn(&ProbeOutcome) -> bool| probed.iter().filter(|p| kind(p)).count() as u64;
            t.counter("epoch", epoch);
            t.record_span_micros("lock_wait", lock_wait_us);
            t.record_span_micros("cache_probe", cache_us);
            t.counter("cache_hit", count(|p| matches!(p, ProbeOutcome::Hit(_))));
            t.counter("cache_stale_miss", count(|p| *p == ProbeOutcome::StaleMiss));
            t.counter("cache_cold_miss", count(|p| *p == ProbeOutcome::ColdMiss));
        }

        enum Slot<'a> {
            Ready(QueryOutcome),
            Admitted(Permit<'a>),
        }
        let slots: Vec<Slot<'_>> = probed
            .into_iter()
            .map(|probe| match probe {
                ProbeOutcome::Hit(value) => Slot::Ready(QueryOutcome::Done(EstimateOutcome {
                    value,
                    cached: true,
                })),
                _ => match self.overload.try_admit(&entry, &self.metrics) {
                    Some(permit) => Slot::Admitted(permit),
                    None => {
                        self.metrics.inc(Series::Busy);
                        Slot::Ready(QueryOutcome::QueueFull)
                    }
                },
            })
            .collect();
        for ((slot, query), &hash) in slots.into_iter().zip(queries).zip(&hashes) {
            reply(match slot {
                Slot::Ready(outcome) => outcome,
                Slot::Admitted(permit) => {
                    let outcome = self.run_miss(&entry, &state, cache_us, query, hash, &mut ctx);
                    // Released before the caller can put the answer on
                    // the wire: a client that reads it and asks for
                    // STATS next must see the gauge settled.
                    drop(permit);
                    outcome
                }
            });
        }
        Ok(())
    }

    /// Run one admitted miss on the calling thread: wait for a run slot
    /// (the wait is what `queue_wait` measures), refuse it if a drain
    /// began or its deadline passed meanwhile, else count its missing
    /// patterns on the request's pinned `state`, estimate, and store the
    /// result in the cache. `cache_us` is the request's cache pass,
    /// charged to the miss's slow-log record.
    fn run_miss(
        &self,
        entry: &DatasetEntry,
        state: &EpochState,
        cache_us: u64,
        query: &QueryGraph,
        hash: u64,
        ctx: &mut RequestCtx<'_>,
    ) -> QueryOutcome {
        let started = Instant::now();
        let slot = self.overload.run_slot(ctx.deadline);
        let waited = started.elapsed();
        self.metrics.queue_wait.record(waited);
        if let Some(t) = ctx.trace.as_deref_mut() {
            t.record_span_micros("queue_wait", waited.as_micros() as u64);
        }
        if self.draining() {
            // A drain overtook the wait: refuse rather than start cold
            // work the process is trying to finish.
            self.metrics.inc(Series::Busy);
            return QueryOutcome::Draining;
        }
        if slot.is_none() || ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            // Dead before it started — the typed TIMEOUT costs nothing,
            // running the estimate anyway would.
            self.metrics.inc(Series::Timeout);
            return QueryOutcome::TimedOut;
        }

        // Resolve: the one pass over the query's sub-patterns. The
        // catalog read lock is held for the resolve alone — not across
        // the fill, the CEG build or the path choice.
        let fill_started = Instant::now();
        let Some(mut resolved) = state.catalog().resolve(query) else {
            return QueryOutcome::TooWide;
        };
        let ensured = state.fill(resolved.missing(), ctx.deadline, entry.jobs());
        if !resolved.is_complete() {
            // Cold path: read back what the fill (or a concurrent one)
            // inserted. A fill cut short at the deadline stays incomplete.
            let Some(refreshed) = state.catalog().resolve(query) else {
                return QueryOutcome::TooWide;
            };
            resolved = refreshed;
        }
        let fill_us = fill_started.elapsed().as_micros() as u64;
        self.metrics.record_kernel(&ensured.fill.kernel);
        if let Some(t) = ctx.trace.as_deref_mut() {
            if ensured.fill.patterns_counted > 0 {
                t.record_span_micros("catalog_fill", fill_us);
            }
            t.counter("catalog_patterns_counted", ensured.fill.patterns_counted);
            t.counter("catalog_patterns_added", ensured.added as u64);
            t.counter(
                "catalog_fill_max_pattern_us",
                ensured.fill.max_pattern_micros,
            );
            for (name, value) in ensured.fill.kernel.fields() {
                t.counter(name, value);
            }
        }
        let estimate_started = Instant::now();
        let mut degenerate = false;
        // `None` marks a miss abandoned at the deadline: in the fill
        // (incomplete patterns) or in the estimate. Completeness and every
        // cardinality the estimate divides come from the same resolved
        // snapshot, so a concurrent fill cannot make the two disagree.
        let value: Option<Option<f64>> = if !resolved.is_complete() {
            None
        } else if query.num_edges() == 0 || !query.is_connected() {
            // The CEG estimators assume connected, non-empty queries;
            // anything else is unanswerable, not a panic (wire input is
            // rejected at parse time, this guards direct API callers).
            Some(None)
        } else {
            // A degenerate catalog (zero-count patterns dividing each
            // other) can surface NaN/inf; that is "cannot answer", never
            // a number we put on the wire.
            let recommended = Heuristic::RECOMMENDED;
            match CegO::estimate_resolved(query, &resolved, recommended, ctx.deadline) {
                Err(DeadlinePassed) => None,
                Ok(Some(v)) if !v.is_finite() => {
                    degenerate = true;
                    Some(None)
                }
                Ok(v) => Some(v),
            }
        };
        let estimate_us = estimate_started.elapsed().as_micros() as u64;
        if degenerate {
            self.metrics.inc(Series::Degenerate);
        }
        if let Some(t) = ctx.trace.as_deref_mut() {
            t.record_span_micros("estimate", estimate_us);
            t.counter("estimator_degenerate", degenerate as u64);
        }
        let outcome = match value {
            Some(value) => {
                // Poisoned cache: the fresh result is still served, it
                // just is not stored (the next identical query
                // recomputes).
                if let Ok(mut cache) = self.cache.checked_lock() {
                    cache.store_hashed(entry.name(), query, hash, state.epoch(), value);
                }
                QueryOutcome::Done(EstimateOutcome {
                    value,
                    cached: false,
                })
            }
            None => {
                self.metrics.inc(Series::Timeout);
                QueryOutcome::TimedOut
            }
        };
        drop(slot);
        let micros = cache_us + started.elapsed().as_micros() as u64;
        if micros >= self.slow_threshold_us.load(Ordering::Relaxed) {
            // Best-effort: a poisoned ring drops the record, never the
            // estimate.
            if let Ok(mut log) = self.slowlog.checked_lock() {
                if log.len() == SLOWLOG_CAP {
                    log.pop_front();
                }
                log.push_back(SlowQueryEntry {
                    id: ctx.id,
                    dataset: entry.name().to_string(),
                    epoch: state.epoch(),
                    micros,
                    cache_us,
                    fill_us,
                    estimate_us,
                    query: crate::protocol::format_query(query),
                });
            }
        }
        outcome
    }

    /// Buffer an edge insertion on a dataset (visible after `COMMIT`).
    pub fn add_edge(
        &self,
        dataset: &str,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<UpdateAck, String> {
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        let (epoch, pending) = entry.add_edge(src, dst, label)?;
        Ok(UpdateAck { epoch, pending })
    }

    /// Buffer an edge deletion on a dataset (visible after `COMMIT`).
    pub fn del_edge(
        &self,
        dataset: &str,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<UpdateAck, String> {
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        let (epoch, pending) = entry.del_edge(src, dst, label)?;
        Ok(UpdateAck { epoch, pending })
    }

    /// Commit a dataset's pending updates: apply the delta, incrementally
    /// maintain the catalog and bump the epoch (which invalidates the
    /// dataset's cached estimates). On a dataset with durability
    /// attached the effective delta hits the WAL (fsynced) before it is
    /// applied; a WAL failure refuses the commit with nothing applied
    /// and the ops still pending.
    pub fn commit(&self, dataset: &str) -> Result<CommitOutcome, String> {
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        match entry.try_commit() {
            Ok(outcome) => {
                if outcome.wal_bytes > 0 {
                    self.metrics.inc(Series::WalCommits);
                    self.metrics.add(Series::WalBytes, outcome.wal_bytes);
                }
                Ok(outcome)
            }
            Err(e) => {
                self.metrics.inc(Series::WalErrors);
                Err(format!("commit not durable: {e}"))
            }
        }
    }

    /// Rotate a dataset's WAL if either configured trigger fires (see
    /// [`crate::registry::DatasetEntry::maybe_rotate`]); the server calls
    /// this after each
    /// acked `COMMIT`. Rotation failures are reported but change no
    /// committed state — the log keeps growing and the next trigger
    /// retries.
    pub fn maybe_rotate(
        &self,
        dataset: &str,
        rotate_bytes: u64,
        snapshot_interval_commits: u64,
    ) -> Result<Option<crate::registry::RotateOutcome>, String> {
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        let rotated = entry
            .maybe_rotate(rotate_bytes, snapshot_interval_commits)
            .map_err(|e| format!("WAL rotation failed: {e}"))?;
        if rotated.is_some() {
            self.metrics.inc(Series::WalRotations);
        }
        Ok(rotated)
    }

    /// Fold one boot-time recovery's [`crate::registry::RecoveryReport`]
    /// into the metrics (`cegcli serve --data-dir` calls this per
    /// recovered dataset).
    pub fn record_recovery(&self, report: &crate::registry::RecoveryReport) {
        let replayed = report.replayed_commits as u64;
        self.metrics.add(Series::WalRecoveredCommits, replayed);
        if report.torn_tail.is_some() {
            self.metrics.inc(Series::WalTornTails);
        }
    }

    /// Persist a dataset's committed graph, Markov catalog and epoch to
    /// a `.cegsnap` file at `path` (on this process's filesystem). The
    /// pending (uncommitted) update buffer is deliberately excluded: a
    /// snapshot captures committed state only.
    ///
    /// This is the handler behind the unauthenticated `SNAPSHOT` wire
    /// command, i.e. a remote-triggered filesystem write. The path must
    /// end in `.cegsnap`, so a client can only (atomically) replace
    /// snapshot files — never clobber arbitrary files the server
    /// process can write.
    pub fn snapshot(&self, dataset: &str, path: &str) -> Result<SnapshotAck, String> {
        if !path.ends_with(".cegsnap") {
            return Err("snapshot path must end in .cegsnap".into());
        }
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        let (epoch, bytes) = entry
            .write_snapshot(path)
            .map_err(|e| format!("snapshot failed: {e}"))?;
        Ok(SnapshotAck { epoch, bytes })
    }

    /// Snapshot of the engine counters. A poisoned cache reports its
    /// counters as zero — `STATS` keeps answering on a degraded server.
    pub fn stats(&self) -> EngineStats {
        let (cache_hits, cache_misses) = match self.cache.checked_lock() {
            Ok(cache) => (cache.hits(), cache.misses()),
            Err(_) => (0, 0),
        };
        EngineStats {
            requests: self.metrics.get(Series::Requests),
            batches: self.metrics.get(Series::Batches),
            cache_hits,
            cache_misses,
            datasets: self.registry.len() as u64,
            busy: self.metrics.get(Series::Busy),
            timeouts: self.metrics.get(Series::Timeout),
            queued: self.metrics.get(Series::Queued),
        }
    }

    /// Copy the cache's and the registry's own counts into their series,
    /// so a dump reads every scalar from the one table. A poisoned cache
    /// reports zeros, as in [`Engine::stats`].
    fn sample(&self) {
        let (hits, misses, stale, entries) = match self.cache.checked_lock() {
            Ok(cache) => (
                cache.hits(),
                cache.misses(),
                cache.stale_misses(),
                cache.len() as u64,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        self.metrics.set(Series::CacheHits, hits);
        self.metrics.set(Series::CacheMisses, misses);
        self.metrics.set(Series::CacheStaleMisses, stale);
        self.metrics.set(Series::CacheEntries, entries);
        self.metrics
            .set(Series::Datasets, self.registry.len() as u64);
    }

    /// The full metrics dump behind the `METRICS` wire command: every
    /// [`Metrics::snapshot`] pair, the engine's own series (requests,
    /// cache) and the per-dataset gauges, as stable `(key, value)` pairs.
    pub fn metrics_snapshot(&self) -> Vec<(String, u64)> {
        self.sample();
        let mut out = self.metrics.snapshot();
        let engine_rows = self.metrics.rows(true);
        out.extend(engine_rows.map(|(&(_, key, ..), v)| (key.to_string(), v)));
        for name in self.registry.names() {
            if let Some(entry) = self.registry.get(&name) {
                for (gauge, get) in DATASET_GAUGES {
                    out.push((format!("dataset_{name}_{gauge}"), get(&entry)));
                }
            }
        }
        out
    }

    /// The Prometheus text-exposition dump behind `METRICS_PROM`: the
    /// same series as [`Engine::metrics_snapshot`] (dataset names become
    /// label values, so the family set is stable regardless of what is
    /// registered).
    pub fn metrics_prom(&self) -> Vec<String> {
        self.sample();
        let mut out = self.metrics.prom_lines();
        self.metrics.scalar_prom(true, &mut out);
        // Per-dataset families are omitted entirely when no dataset is
        // registered — a `# TYPE` line with zero samples is invalid
        // exposition (and our own checker rejects it).
        let names = self.registry.names();
        if !names.is_empty() {
            for (gauge, get) in DATASET_GAUGES {
                out.push(format!("# TYPE ceg_dataset_{gauge} gauge"));
                for name in &names {
                    if let Some(entry) = self.registry.get(name) {
                        let value = get(&entry);
                        out.push(format!("ceg_dataset_{gauge}{{dataset=\"{name}\"}} {value}"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn engine() -> Engine {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(3, 4, 0);
        let registry = Arc::new(DatasetRegistry::new());
        registry.insert_graph("toy", b.build(), 2);
        Engine::new(registry, 64)
    }

    #[test]
    fn repeated_query_is_served_from_cache() {
        let engine = engine();
        let q = templates::path(2, &[0, 1]);
        let first = engine.estimate("toy", &q).unwrap();
        assert!(!first.cached);
        assert_eq!(first.value, Some(2.0)); // exact: the query fits in the table
        let second = engine.estimate("toy", &q).unwrap();
        assert!(second.cached);
        assert_eq!(second.value, first.value);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn batch_mixes_hits_and_misses() {
        let engine = engine();
        let a = templates::path(2, &[0, 1]);
        let b = templates::path(2, &[1, 0]);
        engine.estimate("toy", &a).unwrap();
        let mut cached = Vec::new();
        engine
            .estimate_batch("toy", &[a, b], RequestCtx::default(), |o| match o {
                QueryOutcome::Done(outcome) => cached.push(outcome.cached),
                refused => panic!("unbounded engine refused a query: {refused:?}"),
            })
            .unwrap();
        assert_eq!(cached, [true, false]);
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let engine = engine();
        let q = templates::path(2, &[0, 1]);
        assert!(engine.estimate("nope", &q).is_err());
    }

    #[test]
    fn commit_invalidates_cached_estimates() {
        let engine = engine();
        let q = templates::path(2, &[0, 1]);
        assert_eq!(engine.estimate("toy", &q).unwrap().value, Some(2.0));
        assert!(engine.estimate("toy", &q).unwrap().cached);

        // Buffered updates change nothing: still a (valid) cache hit.
        let ack = engine.add_edge("toy", 4, 0, 1).unwrap();
        assert_eq!((ack.epoch, ack.pending), (0, 1));
        assert!(engine.estimate("toy", &q).unwrap().cached);

        // Commit: epoch bumps, the pre-update entry must miss, and the
        // recomputed estimate reflects the new graph (3->4 now extends).
        let outcome = engine.commit("toy").unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.added, 1);
        let after = engine.estimate("toy", &q).unwrap();
        assert!(!after.cached, "stale cache entry must miss after commit");
        assert_eq!(after.value, Some(3.0));
        // And the fresh value is cached again at the new epoch.
        assert!(engine.estimate("toy", &q).unwrap().cached);
        assert!(engine.add_edge("nope", 0, 1, 0).is_err());
        assert!(engine.commit("nope").is_err());
    }

    #[test]
    fn unanswerable_queries_yield_none_not_panic() {
        use ceg_query::{QueryEdge, QueryGraph};
        let engine = engine();
        // Zero edges and a disconnected pair: the CEG estimators assert
        // on both, so the engine must answer None instead of unwinding.
        let empty = QueryGraph::new(1, vec![]);
        let disconnected =
            QueryGraph::new(4, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(2, 3, 1)]);
        for q in [empty, disconnected] {
            let out = engine.estimate("toy", &q).unwrap();
            assert_eq!(out.value, None);
            // And the verdict is cached like any other result.
            assert!(engine.estimate("toy", &q).unwrap().cached);
        }
    }
}
