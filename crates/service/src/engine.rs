//! The transport-independent estimation core.
//!
//! One [`Engine`] per server: it owns the shared [`EstimateCache`], a
//! handle to the [`DatasetRegistry`] (the one dataset) and the overload
//! controls, and has **one estimate path**, [`Engine::estimate_batch`],
//! which runs against one pinned epoch of the dataset:
//!
//! 1. hash every query once and probe the cache once — hits are answered
//!    here, before any admission, so a hit never waits behind cold work;
//! 2. every miss takes an admission permit, all up front (`QueueFull`
//!    beyond the cap);
//! 3. the admitted misses are claimed off one cursor by the calling
//!    thread and, when there are two or more, by `min(run slots,
//!    misses) - 1` scoped helpers ([`ceg_exec::for_each_ordered`]); each
//!    miss waits for one of a fixed number of run slots, re-checks
//!    drain and deadline, fills its missing catalog patterns, estimates,
//!    stores the result and releases its slot; it holds no slot while
//!    the caller may write (`wait` before a fill gives the slot back
//!    first);
//! 4. the calling thread hands the outcomes to the caller in request
//!    order, each ready prefix as soon as it is ready, releasing each
//!    permit first, and tells the caller before it blocks
//!    ([`Handover::Wait`]), so the server can flush just then.
//!
//! The TCP server (`ESTIMATE`, each slot of `ESTIMATE_BATCH`,
//! `EXPLAIN_ESTIMATE`), benches and tests all drive this same function,
//! so what a socket client gets is measurable without a socket in the
//! way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

use ceg_core::ceg_o::DeadlinePassed;
use ceg_core::trace::Trace;
use ceg_core::{CegO, Heuristic};
use ceg_exec::Handover;
use ceg_graph::sync::{self, LockRank, OrderedMutex};
use ceg_graph::{LabelId, VertexId};
use ceg_query::{Certificate, QueryGraph};

use crate::cache::{EstimateCache, ProbeOutcome};
use crate::metrics::{Metrics, Series};
use crate::registry::{CommitOutcome, DatasetEntry, DatasetRegistry, EnsureOutcome, EpochState};

/// Entries kept in the slow-query ring buffer (oldest evicted first).
const SLOWLOG_CAP: usize = 128;

/// A dataset gauge: what `METRICS` calls `dataset_<name>_<gauge>` and
/// `METRICS_PROM` calls `ceg_dataset_<gauge>{dataset="<name>"}`.
type DatasetGauge = (&'static str, fn(&DatasetEntry) -> u64);

const DATASET_GAUGES: [DatasetGauge; 5] = [
    ("epoch", |e| e.epoch()),
    ("pending_ops", |e| e.pending_len() as u64),
    ("catalog_entries", |e| e.catalog_len() as u64),
    ("graph_bytes", |e| e.graph_bytes() as u64),
    ("catalog_bytes", |e| e.catalog_bytes() as u64),
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
    /// Refused: a miss, and as many misses were already admitted as the
    /// cap allows (the wire's `BUSY queue full`).
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

/// Overload control on the estimate path: a bound on admitted misses and
/// a fixed number of run slots. Both hand out RAII guards, so neither
/// bound can leak whatever way a miss ends. The admitted misses are the
/// [`Series::Queued`] cell itself.
struct Overload {
    /// Most misses admitted at once.
    queue_cap: u64,
    /// Run slots in all, `max(2, available_parallelism)`: how many
    /// misses count and estimate at once, however many connections and
    /// batch helpers there are.
    run_slots: usize,
    /// Free run slots. `LockRank::RunGate`: taken with nothing else
    /// held, for the counter update only.
    free_slots: OrderedMutex<usize>,
    slot_freed: Condvar,
}

impl Overload {
    fn new(queue_cap: usize) -> Self {
        let slots = thread::available_parallelism()
            .map_or(2, |n| n.get())
            .max(2);
        Overload {
            queue_cap: queue_cap as u64,
            run_slots: slots,
            free_slots: OrderedMutex::new(LockRank::RunGate, slots),
            slot_freed: Condvar::new(),
        }
    }

    /// An empty admission guard for one batch's misses.
    fn permits<'a>(&'a self, metrics: &'a Metrics) -> Permits<'a> {
        Permits {
            overload: self,
            metrics,
            held: 0,
        }
    }

    /// Wait for a run slot; `None` means `deadline` passed first. When
    /// no slot is free, `wait` runs first, with no lock held.
    fn run_slot(&self, deadline: Option<Instant>, wait: &mut dyn FnMut()) -> Option<RunSlot<'_>> {
        let mut free = self.free_slots.lock();
        if *free == 0 {
            drop(free);
            wait();
            free = self.free_slots.lock();
        }
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

/// One batch's admitted misses. Each is released as its outcome is
/// handed on; dropping the guard releases the rest.
struct Permits<'a> {
    overload: &'a Overload,
    metrics: &'a Metrics,
    held: usize,
}

impl Permits<'_> {
    /// Admit one more miss; `false` means the cap is reached and the
    /// miss must be refused.
    fn try_admit(&mut self) -> bool {
        let admitted = self.metrics.try_enqueue(self.overload.queue_cap);
        if admitted {
            self.held += 1;
        }
        admitted
    }

    /// Release one admitted miss, answered.
    fn release_one(&mut self) {
        if self.held > 0 {
            self.held -= 1;
            self.metrics.job_finished();
        }
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        while self.held > 0 {
            self.release_one();
        }
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

/// What one miss did, for the request's [`Trace`]. A miss may run on a
/// batch helper, so it reports here and the connection thread records
/// the report, in request order, when it hands the outcome on.
struct MissReport {
    queue_wait_us: u64,
    /// Set when the miss got past its run-slot wait and resolved.
    ran: Option<MissRun>,
}

struct MissRun {
    fill_us: u64,
    ensured: EnsureOutcome,
    estimate_us: u64,
    degenerate: bool,
}

impl MissReport {
    fn record(&self, t: &mut Trace) {
        t.record_span_micros("queue_wait", self.queue_wait_us);
        let Some(run) = &self.ran else { return };
        let fill = &run.ensured.fill;
        if fill.patterns_counted > 0 {
            t.record_span_micros("catalog_fill", run.fill_us);
        }
        t.counter("catalog_patterns_counted", fill.patterns_counted);
        t.counter("catalog_patterns_added", run.ensured.added as u64);
        t.counter("catalog_fill_max_pattern_us", fill.max_pattern_micros);
        for (name, value) in fill.kernel.fields() {
            t.counter(name, value);
        }
        t.record_span_micros("estimate", run.estimate_us);
        t.counter("estimator_degenerate", run.degenerate as u64);
    }
}

/// What every miss of one request shares: the dataset and its pinned
/// epoch, the request's cache pass (charged to each miss's slow-log
/// record), its id and its deadline.
#[derive(Clone, Copy)]
struct Miss<'a> {
    entry: &'a DatasetEntry,
    state: &'a EpochState,
    cache_us: u64,
    id: u64,
    deadline: Option<Instant>,
}

/// Shared estimation core: registry + cache + overload control +
/// counters + metrics.
pub struct Engine {
    registry: Arc<DatasetRegistry>,
    /// `LockRank::Cache`: taken after any dataset locks are released,
    /// before the slowlog/metrics rank.
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
    /// entries (0 disables caching) and no admission cap.
    pub fn new(registry: Arc<DatasetRegistry>, cache_capacity: usize) -> Self {
        Engine::with_queue_cap(registry, cache_capacity, usize::MAX)
    }

    /// [`Engine::new`] refusing misses beyond `queue_cap` admitted at
    /// once — how the server applies
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

    /// The registered dataset `dataset`, or the wire's
    /// ``unknown dataset `…` `` error.
    fn entry(&self, dataset: &str) -> Result<Arc<DatasetEntry>, String> {
        self.registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))
    }

    /// Set the slow-query threshold: misses whose latency reaches `ms`
    /// milliseconds are recorded in the slow-query ring.
    /// `u64::MAX / 1000` or larger effectively disables the log.
    pub(crate) fn set_slow_query_threshold_ms(&self, ms: u64) {
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

    /// Estimate one query with a [`Trace`]: the result is
    /// bit-identical to [`Engine::estimate`] (same call, same cache,
    /// same catalog, same estimator), plus the recorded span/counter
    /// breakdown `EXPLAIN_ESTIMATE` reports. `id` is
    /// [`RequestCtx::id`]: the server's request id, 0 for a caller that
    /// has none.
    pub fn explain(
        &self,
        dataset: &str,
        query: &QueryGraph,
        deadline: Option<Instant>,
        id: u64,
    ) -> Result<(QueryOutcome, Trace), String> {
        let mut trace = Trace::default();
        let ctx = RequestCtx {
            id,
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
        self.estimate_batch(dataset, std::slice::from_ref(query), ctx, |step| {
            if let Handover::Done(_, o) = step {
                outcome = Some(o);
            }
        })?;
        outcome.ok_or_else(|| "internal error: batch of one produced no outcome".to_string())
    }

    /// The one estimate path: answer `queries` against one pinned epoch
    /// of `dataset`, handing each outcome to `reply` as
    /// [`Handover::Done`] in request order as soon as it is known, and
    /// [`Handover::Wait`] before this thread blocks (on a run slot, a
    /// catalog fill or a helper's result), so a caller can hold its
    /// output back until then. `Err` means nothing was answered (unknown
    /// dataset) and `reply` was not called.
    ///
    /// Every query gets one certificate (outside the cache lock) and one
    /// probe (all under one lock); hits are final there. Every miss then
    /// takes its admission permit — all of them before the first one
    /// runs, so a wide cold batch meets the cap as a whole — and the
    /// admitted ones (`run_miss`) are claimed off one cursor by this
    /// thread and `min(run slots, misses) - 1` scoped helpers
    /// ([`ceg_exec::for_each_ordered`]); each still waits for a run slot
    /// of its own. A batch with at most one miss spawns nothing. A later
    /// miss finds what an earlier fill inserted in the pinned catalog;
    /// two misses that run at once may count a shared pattern twice,
    /// with the same answers.
    pub fn estimate_batch(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
        ctx: RequestCtx<'_>,
        mut reply: impl FnMut(Handover<QueryOutcome>),
    ) -> Result<(), String> {
        let entry = self.entry(dataset)?;
        self.metrics.add(Series::Requests, queries.len() as u64);
        self.metrics.inc(Series::Batches);
        if self.draining() {
            for i in 0..queries.len() {
                self.metrics.inc(Series::Busy);
                reply(Handover::Done(i, QueryOutcome::Draining));
            }
            return Ok(());
        }
        let RequestCtx {
            id,
            deadline,
            mut trace,
        } = ctx;

        // One estimate, one epoch: the cache tag, the catalog that is
        // filled and read, and the epoch EXPLAIN and the slow log report
        // all come from this one pinned state, whatever commits publish
        // while the batch runs. The cache is epoch-aware: entries stored
        // under an older epoch miss.
        let state = entry.pin();
        let epoch = state.epoch();
        // The certificate is the expensive part of a cache probe; compute
        // it outside the cache lock so concurrent requests only serialize
        // on the map operations themselves.
        let certificates: Vec<Certificate> = queries.iter().map(QueryGraph::certificate).collect();
        let cache_started = Instant::now();
        // A poisoned cache (a panic under the cache lock) must not take
        // estimation down with it: every query is treated as a cold miss
        // and answered from the catalog, uncached and uncounted.
        let mut cache = self.cache.checked_lock().ok();
        let lock_wait_us = cache_started.elapsed().as_micros() as u64;
        let probing = cache.is_some();
        let probed: Vec<ProbeOutcome> = certificates
            .iter()
            .map(|certificate| match cache.as_mut() {
                Some(cache) => cache.probe(certificate, epoch),
                None => ProbeOutcome::ColdMiss,
            })
            .collect();
        drop(cache);
        let cache_us = cache_started.elapsed().as_micros() as u64;
        let count =
            |kind: fn(&ProbeOutcome) -> bool| probed.iter().filter(|p| kind(p)).count() as u64;
        let hits = count(|p| matches!(p, ProbeOutcome::Hit(_)));
        let stale = count(|p| *p == ProbeOutcome::StaleMiss);
        let cold = probed.len() as u64 - hits - stale;
        if probing {
            self.metrics.add(Series::CacheHits, hits);
            self.metrics.add(Series::CacheMisses, stale + cold);
            self.metrics.add(Series::CacheStaleMisses, stale);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.counter("epoch", epoch);
            t.record_span_micros("lock_wait", lock_wait_us);
            t.record_span_micros("cache_probe", cache_us);
            t.counter("cache_hit", hits);
            t.counter("cache_stale_miss", stale);
            t.counter("cache_cold_miss", cold);
        }

        enum Slot<'q> {
            Ready(QueryOutcome),
            Admitted(&'q QueryGraph, &'q Certificate),
        }
        let mut permits = self.overload.permits(&self.metrics);
        let slots: Vec<Slot<'_>> = probed
            .into_iter()
            .zip(queries.iter().zip(&certificates))
            .map(|(probe, (query, certificate))| match probe {
                ProbeOutcome::Hit(value) => Slot::Ready(QueryOutcome::Done(EstimateOutcome {
                    value,
                    cached: true,
                })),
                _ if permits.try_admit() => Slot::Admitted(query, certificate),
                _ => {
                    self.metrics.inc(Series::Busy);
                    Slot::Ready(QueryOutcome::QueueFull)
                }
            })
            .collect();
        let workers = permits.held.min(self.overload.run_slots);
        let miss = Miss {
            entry: &entry,
            state: &state,
            cache_us,
            id,
            deadline,
        };
        let run = |slot: &Slot<'_>, wait: &mut dyn FnMut()| match *slot {
            Slot::Ready(outcome) => (outcome, None),
            Slot::Admitted(query, certificate) => {
                let (outcome, report) = self.run_miss(&miss, query, certificate, wait);
                (outcome, Some(report))
            }
        };
        let hand_on = |step: Handover<(QueryOutcome, Option<MissReport>)>| match step {
            Handover::Wait => reply(Handover::Wait),
            Handover::Done(i, (outcome, report)) => {
                if let Some(report) = report {
                    if let Some(t) = trace.as_deref_mut() {
                        report.record(t);
                    }
                    // Released before the caller can put the answer on
                    // the wire: a client that reads it and asks for
                    // METRICS next must see `queued` settled.
                    permits.release_one();
                }
                reply(Handover::Done(i, outcome));
            }
        };
        ceg_exec::for_each_ordered(&slots, workers, run, hand_on);
        Ok(())
    }

    /// What a miss that has waited for a run slot gets instead of
    /// running, if anything: `Draining` when a drain overtook the wait,
    /// rather than start cold work the process is trying to finish;
    /// `TimedOut` when the wait ended without a slot or past the deadline
    /// — the typed TIMEOUT costs nothing, running the estimate anyway
    /// would.
    fn refuse(&self, slotted: bool, deadline: Option<Instant>) -> Option<QueryOutcome> {
        if self.draining() {
            self.metrics.inc(Series::Busy);
            Some(QueryOutcome::Draining)
        } else if !slotted || deadline.is_some_and(|d| Instant::now() >= d) {
            self.metrics.inc(Series::Timeout);
            Some(QueryOutcome::TimedOut)
        } else {
            None
        }
    }

    /// Run one admitted miss: wait for a run slot (the wait is what
    /// `queue_wait` measures; `wait` runs first if no slot is free),
    /// refuse it if a drain began or its deadline passed meanwhile, else
    /// count its missing patterns on the request's pinned `state`,
    /// estimate, and store the result in the cache. Before counting,
    /// `wait` runs with the slot given back, which is then taken again
    /// and re-checked the same way.
    fn run_miss(
        &self,
        miss: &Miss<'_>,
        query: &QueryGraph,
        certificate: &Certificate,
        wait: &mut dyn FnMut(),
    ) -> (QueryOutcome, MissReport) {
        let Miss {
            entry,
            state,
            cache_us,
            id,
            deadline,
        } = *miss;
        let started = Instant::now();
        let mut slot = self.overload.run_slot(deadline, wait);
        let waited = started.elapsed();
        self.metrics.queue_wait.record(waited);
        let mut report = MissReport {
            queue_wait_us: waited.as_micros() as u64,
            ran: None,
        };
        if let Some(refused) = self.refuse(slot.is_some(), deadline) {
            return (refused, report);
        }

        // Resolve: the one pass over the query's sub-patterns. The
        // catalog read lock is held for the resolve alone — not across
        // the fill, the CEG build or the path choice.
        let fill_started = Instant::now();
        let Some(mut resolved) = state.catalog().resolve(query) else {
            return (QueryOutcome::TooWide, report);
        };
        if !resolved.is_complete() {
            // Kernel work ahead: let the caller send what it holds first,
            // with the slot given back. That write can block for as long
            // as its client does not read, and must not keep other
            // connections' misses from every slot meanwhile. Waiting for
            // the slot again counts in `fill_us`.
            drop(slot);
            wait();
            slot = self.overload.run_slot(deadline, wait);
            if let Some(refused) = self.refuse(slot.is_some(), deadline) {
                return (refused, report);
            }
        }
        let ensured = state.fill(resolved.missing(), deadline);
        if !resolved.is_complete() {
            // Cold path: read back what the fill (or a concurrent one)
            // inserted. A fill cut short at the deadline stays incomplete.
            let Some(refreshed) = state.catalog().resolve(query) else {
                return (QueryOutcome::TooWide, report);
            };
            resolved = refreshed;
        }
        let fill_us = fill_started.elapsed().as_micros() as u64;
        self.metrics.record_kernel(&ensured.fill.kernel);
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
            match CegO::estimate_resolved(query, &resolved, recommended, deadline) {
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
        report.ran = Some(MissRun {
            fill_us,
            ensured,
            estimate_us,
            degenerate,
        });
        let outcome = match value {
            Some(value) => {
                // Poisoned cache: the fresh result is still served, it
                // just is not stored (the next identical query
                // recomputes).
                if let Ok(mut cache) = self.cache.checked_lock() {
                    cache.store(certificate, state.epoch(), value);
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
                    id,
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
        (outcome, report)
    }

    /// Buffer an edge insertion on a dataset (visible after `COMMIT`).
    pub fn add_edge(
        &self,
        dataset: &str,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<UpdateAck, String> {
        let (epoch, pending) = self.entry(dataset)?.add_edge(src, dst, label)?;
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
        let (epoch, pending) = self.entry(dataset)?.del_edge(src, dst, label)?;
        Ok(UpdateAck { epoch, pending })
    }

    /// Commit a dataset's pending updates ([`DatasetEntry::try_commit`]):
    /// the next epoch invalidates the dataset's cached estimates. A WAL
    /// failure refuses the commit with nothing applied, the ops pending.
    pub fn commit(&self, dataset: &str) -> Result<CommitOutcome, String> {
        match self.entry(dataset)?.try_commit() {
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

    /// Fold a dataset's WAL into its snapshot once the log is as large
    /// ([`DatasetEntry::maybe_rotate`]), after each acked `COMMIT`. A
    /// failure changes no committed state: the next commit retries.
    pub(crate) fn maybe_rotate(
        &self,
        dataset: &str,
    ) -> Result<Option<crate::registry::RotateOutcome>, String> {
        let rotated = self
            .entry(dataset)?
            .maybe_rotate()
            .map_err(|e| format!("WAL rotation failed: {e}"))?;
        if rotated.is_some() {
            self.metrics.inc(Series::WalRotations);
        }
        Ok(rotated)
    }

    /// Fold one boot-time recovery's [`crate::registry::RecoveryReport`]
    /// into the metrics (`cegcli serve --data-dir` calls this once it
    /// has recovered its dataset).
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
    /// process can write — and not the snapshot a durable dataset's log
    /// replays onto, which only its fold may replace.
    pub fn snapshot(&self, dataset: &str, path: &str) -> Result<SnapshotAck, String> {
        if !path.ends_with(".cegsnap") {
            return Err("snapshot path must end in .cegsnap".into());
        }
        let entry = self.entry(dataset)?;
        if entry
            .owns_snapshot(path.as_ref())
            .map_err(|e| e.to_string())?
        {
            return Err(format!(
                "snapshot path {path} is the durable snapshot of dataset `{dataset}`"
            ));
        }
        let (epoch, bytes) = entry
            .write_snapshot(path)
            .map_err(|e| format!("snapshot failed: {e}"))?;
        Ok(SnapshotAck { epoch, bytes })
    }

    /// Read the gauges — the cache's size, the registered datasets and
    /// the process's resident set — into their series, so a dump reads
    /// every scalar from the one table. A poisoned cache reports zeros.
    fn sample(&self) {
        let (entries, bytes, written) = match self.cache.checked_lock() {
            Ok(cache) => (
                cache.len() as u64,
                cache.heap_bytes() as u64,
                cache.written_bytes() as u64,
            ),
            Err(_) => (0, 0, 0),
        };
        self.metrics.set(Series::CacheEntries, entries);
        self.metrics.set(Series::CacheBytes, bytes);
        let dataset = self.registry.dataset();
        self.metrics.set(Series::Datasets, dataset.is_some() as u64);

        let status_bytes = |field| crate::memory::proc_status(field).map_or(0, |kb| kb * 1024);
        let anon = status_bytes("RssAnon");
        self.metrics.set(Series::RssAnonBytes, anon);
        self.metrics
            .set(Series::RssFileBytes, status_bytes("RssFile"));
        self.metrics.set(Series::HwmBytes, status_bytes("VmHWM"));
        let threads = crate::memory::proc_status("Threads").unwrap_or(0);
        self.metrics.set(Series::Threads, threads);
        // The cache's written bytes, not `cache_bytes`: the slab's
        // untouched reserve is allocated but never resident.
        let resident = dataset.map_or(0, |e| e.graph_bytes() + e.catalog_bytes());
        let accounted = written.saturating_add(resident as u64);
        self.metrics
            .set(Series::UnaccountedBytes, anon.saturating_sub(accounted));
    }

    /// The full metrics dump behind the `METRICS` wire command: every
    /// [`Metrics::snapshot`] pair, then the dataset's gauges, as stable
    /// `(key, value)` pairs.
    pub fn metrics_snapshot(&self) -> Vec<(String, u64)> {
        self.sample();
        let mut out = self.metrics.snapshot();
        if let Some(entry) = self.registry.dataset() {
            for (gauge, get) in DATASET_GAUGES {
                out.push((format!("dataset_{}_{gauge}", entry.name()), get(entry)));
            }
        }
        out
    }

    /// The Prometheus text-exposition dump behind `METRICS_PROM`: the
    /// same series as [`Engine::metrics_snapshot`] (the dataset's name
    /// becomes a label value, so the family names do not depend on it).
    pub fn metrics_prom(&self) -> Vec<String> {
        self.sample();
        let mut out = self.metrics.prom_lines();
        // The dataset families are omitted entirely before a dataset is
        // registered — a `# TYPE` line with zero samples is invalid
        // exposition (and our own checker rejects it).
        if let Some(entry) = self.registry.dataset() {
            let name = entry.name();
            for (gauge, get) in DATASET_GAUGES {
                out.push(format!("# TYPE ceg_dataset_{gauge} gauge"));
                let value = get(entry);
                out.push(format!("ceg_dataset_{gauge}{{dataset=\"{name}\"}} {value}"));
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
        let metrics = engine.metrics();
        assert_eq!(metrics.get(Series::CacheHits), 1);
        assert_eq!(metrics.get(Series::CacheMisses), 1);
        assert_eq!(metrics.get(Series::Requests), 2);
    }

    #[test]
    fn batch_mixes_hits_and_misses() {
        let engine = engine();
        let a = templates::path(2, &[0, 1]);
        let b = templates::path(2, &[1, 0]);
        engine.estimate("toy", &a).unwrap();
        let mut cached = Vec::new();
        engine
            .estimate_batch("toy", &[a, b], RequestCtx::default(), |step| match step {
                Handover::Done(_, QueryOutcome::Done(outcome)) => cached.push(outcome.cached),
                Handover::Done(_, refused) => {
                    panic!("unbounded engine refused a query: {refused:?}")
                }
                Handover::Wait => {}
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

    #[test]
    fn snapshot_refuses_the_durable_snapshot_of_any_dataset() {
        use ceg_graph::vfs::OsStorage;
        let engine = engine();
        let dir = std::env::temp_dir().join(format!("ceg-engine-owned-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let snap = dir.join("toy.cegsnap");
        let entry = engine.registry.get("toy").unwrap();
        entry
            .attach_durability(Arc::new(OsStorage), &snap, dir.join("toy.cegwal"))
            .unwrap();
        // The dataset moves past the baseline, so a write would change
        // the file's bytes.
        engine.add_edge("toy", 4, 0, 1).unwrap();
        engine.commit("toy").unwrap();
        let before = std::fs::read(&snap).unwrap();
        let d = dir.display();
        for path in [
            format!("{d}/toy.cegsnap"),
            format!("{d}/./toy.cegsnap"),
            format!("{d}/sub/../toy.cegsnap"),
        ] {
            let err = engine.snapshot("toy", &path).unwrap_err();
            assert!(err.contains("durable snapshot of dataset `toy`"), "{err}");
        }
        let sibling = format!("{d}/copy.cegsnap");
        assert_eq!(engine.snapshot("toy", &sibling).unwrap().epoch, 1);
        assert_eq!(std::fs::read(&snap).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
