//! The transport-independent estimation core.
//!
//! One [`Engine`] per server: it owns the shared [`EstimateCache`] and a
//! handle to the [`DatasetRegistry`], and turns a batch of queries into a
//! batch of estimates against **one pinned epoch** of the dataset, in
//! three phases — cache lookups, one amortized catalog fill for all
//! misses, then per-query estimation under a single catalog read lock.
//! The TCP server, `cegcli`, benches and tests all drive this
//! same type, so the batched path is measurable without a socket in the
//! way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ceg_core::sync::{LockRank, OrderedMutex};
use ceg_core::trace::Trace;
use ceg_estimators::{CardinalityEstimator, OptimisticEstimator};
use ceg_graph::{LabelId, VertexId};
use ceg_query::{Pattern, QueryGraph};

use crate::cache::{EstimateCache, ProbeOutcome};
use crate::metrics::Metrics;
use crate::registry::{CommitOutcome, DatasetRegistry};

/// Entries kept in the slow-query ring buffer (oldest evicted first).
const SLOWLOG_CAP: usize = 128;

/// Default slow-query threshold: batches slower than this are logged.
pub const DEFAULT_SLOW_QUERY_THRESHOLD_MS: u64 = 250;

/// One slow-query record: which query was slow, where its batch spent
/// the time, and the epoch it ran against. Kept in a bounded ring
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
    /// Total batch latency in microseconds.
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

/// The fate of one deadline-bounded query: answered, or abandoned at its
/// deadline. There is no partial state — a query whose catalog fill was
/// cut short times out; its half-counted patterns are discarded, never
/// cached or reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// Answered (computed or cache-served).
    Done(EstimateOutcome),
    /// Abandoned: the deadline passed before the answer was ready.
    TimedOut,
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
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub datasets: u64,
    /// Requests rejected with `BUSY` (admission control or drain).
    pub busy: u64,
    /// Requests answered with `TIMEOUT`.
    pub timeouts: u64,
    /// Estimate jobs currently queued.
    pub queued: u64,
}

/// Shared estimation core: registry + cache + counters + metrics.
pub struct Engine {
    registry: Arc<DatasetRegistry>,
    /// `LockRank::Cache`: taken after the registry map and any dataset
    /// locks are released, before the slowlog/metrics rank.
    cache: OrderedMutex<EstimateCache>,
    requests: AtomicU64,
    batches: AtomicU64,
    metrics: Arc<Metrics>,
    slowlog: OrderedMutex<VecDeque<SlowQueryEntry>>,
    slow_threshold_us: AtomicU64,
}

impl Engine {
    /// An engine over `registry` with an LRU cache of `cache_capacity`
    /// buckets (0 disables caching).
    pub fn new(registry: Arc<DatasetRegistry>, cache_capacity: usize) -> Self {
        Engine {
            registry,
            cache: OrderedMutex::new(LockRank::Cache, EstimateCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            metrics: Arc::new(Metrics::new()),
            slowlog: OrderedMutex::new(LockRank::Metrics, VecDeque::new()),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_QUERY_THRESHOLD_MS * 1000),
        }
    }

    /// Set the slow-query threshold: batches whose wall-clock latency
    /// reaches `ms` milliseconds are recorded in the slow-query ring.
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

    /// Fast-path cache probe: answer `query` from the LRU cache without
    /// touching the worker pool or the catalog. `None` means "not
    /// cached" and records nothing — the request then takes the full
    /// path, whose own lookup counts the authoritative hit-or-miss.
    ///
    /// Connection handlers call this before enqueueing, which keeps warm
    /// traffic responsive even when every worker is grinding on cold
    /// queries (and is what the overload suite's fairness bound
    /// measures).
    pub fn try_cached(&self, dataset: &str, query: &QueryGraph) -> Option<EstimateOutcome> {
        let epoch = self.registry.get(dataset)?.epoch();
        let hash = query.canonical_hash();
        // A poisoned cache is indistinguishable from a miss here: the
        // request falls through to the full path, which degrades the
        // same way (serves uncached, skips the store).
        let value = self
            .cache
            .checked_lock()
            .ok()?
            .peek_hashed(dataset, query, hash, epoch)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        Some(EstimateOutcome {
            value,
            cached: true,
        })
    }

    /// Estimate one query (a batch of one).
    pub fn estimate(&self, dataset: &str, query: &QueryGraph) -> Result<EstimateOutcome, String> {
        self.estimate_batch(dataset, std::slice::from_ref(query))?
            .into_iter()
            .next()
            .ok_or_else(|| "internal error: batch of one produced no outcome".to_string())
    }

    /// Estimate a batch of queries against one dataset.
    ///
    /// Phases: (1) one cache pass under the cache lock; (2) one
    /// `ensure_patterns` call for **all** misses, so overlapping patterns
    /// across the batch are counted once and the catalog write lock is
    /// taken at most once; (3) estimation for the misses under a single
    /// catalog read lock; (4) one cache pass to store the new results.
    pub fn estimate_batch(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
    ) -> Result<Vec<EstimateOutcome>, String> {
        let deadlines = vec![None; queries.len()];
        Ok(self
            .estimate_batch_deadline(dataset, queries, &deadlines)?
            .into_iter()
            .map(|o| match o {
                QueryOutcome::Done(outcome) => outcome,
                QueryOutcome::TimedOut => unreachable!("no deadline, no timeout"),
            })
            .collect())
    }

    /// [`Engine::estimate_batch`] with a per-query deadline (`None` =
    /// unbounded). A query whose deadline has already passed at entry is
    /// answered `TimedOut` without any work; the rest take the usual
    /// cache pass, one shared catalog fill (bounded by the **latest**
    /// deadline among the misses, so no query's counting outlives every
    /// waiter), and an estimation pass. A miss whose sub-pattern counts
    /// did not all complete by its deadline is `TimedOut` — partial
    /// counts are discarded, never cached, never reported.
    pub fn estimate_batch_deadline(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
        deadlines: &[Option<Instant>],
    ) -> Result<Vec<QueryOutcome>, String> {
        self.batch_inner(dataset, queries, deadlines, None, None)
    }

    /// [`Engine::estimate_batch_deadline`] with the server's per-request
    /// ids attached (they label slow-query records).
    pub fn estimate_batch_deadline_ids(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
        deadlines: &[Option<Instant>],
        ids: &[u64],
    ) -> Result<Vec<QueryOutcome>, String> {
        self.batch_inner(dataset, queries, deadlines, Some(ids), None)
    }

    /// Estimate one query with an **enabled** [`Trace`]: the result is
    /// bit-identical to [`Engine::estimate`] (same cache, same catalog,
    /// same estimator), plus the recorded span/counter breakdown. This
    /// is the handler behind `EXPLAIN_ESTIMATE`.
    pub fn explain(
        &self,
        dataset: &str,
        query: &QueryGraph,
        deadline: Option<Instant>,
    ) -> Result<(QueryOutcome, Trace), String> {
        let mut trace = Trace::enabled();
        let outcomes = self.batch_inner(
            dataset,
            std::slice::from_ref(query),
            &[deadline],
            None,
            Some(&mut trace),
        )?;
        let outcome = outcomes
            .into_iter()
            .next()
            .ok_or_else(|| "internal error: batch of one produced no outcome".to_string())?;
        Ok((outcome, trace))
    }

    /// The one batched estimation path everything above funnels into.
    /// `ids` (when given) label slow-query records with the server's
    /// request ids; `trace` (when given) records the span/counter
    /// breakdown. Both are `None` on the hot path, which then differs
    /// from the pre-trace code by four `Instant::now` calls per batch.
    fn batch_inner(
        &self,
        dataset: &str,
        queries: &[QueryGraph],
        deadlines: &[Option<Instant>],
        ids: Option<&[u64]>,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<QueryOutcome>, String> {
        debug_assert_eq!(queries.len(), deadlines.len());
        let started = Instant::now();
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
        self.requests
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);

        // One estimate, one epoch: the cache tag, the catalog that is
        // filled and read, and the epoch EXPLAIN and the slow log report
        // all come from this one pinned state, whatever commits publish
        // while the batch runs. The cache is epoch-aware: entries stored
        // under an older epoch miss.
        let state = entry.pin();
        let epoch = state.epoch();
        // The WL canonical hash is the expensive part of a cache probe;
        // compute it outside the cache lock so concurrent workers only
        // serialize on the map operations themselves.
        let hashes: Vec<u64> = queries.iter().map(|q| q.canonical_hash()).collect();
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        let mut miss_indices: Vec<usize> = Vec::new();
        let (mut hits, mut stale_misses, mut cold_misses) = (0u64, 0u64, 0u64);
        let cache_started = Instant::now();
        let lock_wait_us;
        {
            let now = Instant::now();
            // A poisoned cache (a panic under the cache lock) must not
            // take estimation down with it: every query is treated as a
            // cold miss and answered from the catalog, uncached.
            let mut cache = self.cache.checked_lock().ok();
            lock_wait_us = now.elapsed().as_micros() as u64;
            for (i, q) in queries.iter().enumerate() {
                if deadlines[i].is_some_and(|d| now >= d) {
                    self.metrics.record_timeout();
                    outcomes[i] = Some(QueryOutcome::TimedOut);
                    continue;
                }
                let probe = match cache.as_mut() {
                    Some(cache) => cache.probe_hashed(dataset, q, hashes[i], epoch),
                    None => ProbeOutcome::ColdMiss,
                };
                match probe {
                    ProbeOutcome::Hit(value) => {
                        hits += 1;
                        outcomes[i] = Some(QueryOutcome::Done(EstimateOutcome {
                            value,
                            cached: true,
                        }));
                    }
                    ProbeOutcome::StaleMiss => {
                        stale_misses += 1;
                        miss_indices.push(i);
                    }
                    ProbeOutcome::ColdMiss => {
                        cold_misses += 1;
                        miss_indices.push(i);
                    }
                }
            }
        }
        let cache_us = cache_started.elapsed().as_micros() as u64;
        if let Some(t) = trace.as_deref_mut() {
            t.counter("epoch", epoch);
            t.record_span_micros("lock_wait", lock_wait_us);
            t.record_span_micros("cache_probe", cache_us);
            t.counter("cache_hit", hits);
            t.counter("cache_stale_miss", stale_misses);
            t.counter("cache_cold_miss", cold_misses);
        }
        let mut fill_us = 0u64;
        let mut estimate_us = 0u64;
        if !miss_indices.is_empty() {
            let miss_queries: Vec<QueryGraph> =
                miss_indices.iter().map(|&i| queries[i].clone()).collect();
            // One shared fill for the whole group, bounded by the latest
            // miss deadline: counting may only be abandoned once *every*
            // waiting query's deadline has passed, so an early deadline
            // can never starve a patient query of its patterns. An
            // unbounded query in the group lifts the bound entirely.
            let group_deadline = miss_indices
                .iter()
                .map(|&i| deadlines[i])
                .try_fold(None::<Instant>, |acc, d| {
                    d.map(|d| Some(acc.map_or(d, |a| a.max(d))))
                })
                .flatten();
            let fill_started = Instant::now();
            let ensured = state.ensure_patterns(&miss_queries, group_deadline, entry.jobs());
            fill_us = fill_started.elapsed().as_micros() as u64;
            self.metrics.record_kernel(&ensured.fill.kernel);
            if let Some(t) = trace.as_deref_mut() {
                if ensured.fill.patterns_counted > 0 {
                    t.record_span_micros("catalog_fill", fill_us);
                }
                t.counter("view_overlay", ensured.overlay as u64);
                t.counter("catalog_patterns_counted", ensured.fill.patterns_counted);
                t.counter("catalog_patterns_added", ensured.added as u64);
                t.counter(
                    "catalog_fill_max_pattern_us",
                    ensured.fill.max_pattern_micros,
                );
                let k = &ensured.fill.kernel;
                t.counter("kernel_candidates", k.candidates);
                t.counter("kernel_intersect_merge", k.merge_intersections);
                t.counter("kernel_intersect_gallop", k.gallop_intersections);
                t.counter("kernel_intersect_bitset", k.bitset_intersections);
                t.counter("kernel_suffix_shortcuts", k.suffix_shortcuts);
                t.counter("kernel_memo_hits", k.memo_hits);
                t.counter("kernel_budget_consumed", k.budget_consumed);
                t.counter("kernel_deepest_level", k.deepest_level);
            }
            let h = entry.h();
            // `None` marks a query whose fill was abandoned (incomplete
            // patterns): completeness is checked under the same catalog
            // read lock as the estimation, so a concurrent fill cannot
            // make the two passes disagree.
            let estimate_started = Instant::now();
            let mut degenerate = 0u64;
            let values: Vec<Option<Option<f64>>> = {
                let table = state.catalog();
                let mut est = OptimisticEstimator::recommended(&table);
                miss_queries
                    .iter()
                    .map(|q| {
                        let complete = q
                            .connected_subsets_up_to(h)
                            .into_iter()
                            .all(|mask| table.card(&Pattern::of_subquery(q, mask)).is_some());
                        if !complete {
                            return None;
                        }
                        // The CEG estimators assume connected, non-empty
                        // queries; anything else is unanswerable, not a
                        // panic (wire input is rejected at parse time,
                        // this guards direct API callers).
                        if q.num_edges() == 0 || !q.is_connected() {
                            Some(None)
                        } else {
                            // A degenerate catalog (zero-count patterns
                            // dividing each other) can surface NaN/inf;
                            // that is "cannot answer", never a number we
                            // put on the wire.
                            match est.estimate(q) {
                                Some(v) if !v.is_finite() => {
                                    degenerate += 1;
                                    Some(None)
                                }
                                v => Some(v),
                            }
                        }
                    })
                    .collect()
            };
            estimate_us = estimate_started.elapsed().as_micros() as u64;
            for _ in 0..degenerate {
                self.metrics.record_estimator_degenerate();
            }
            if let Some(t) = trace {
                t.record_span_micros("estimate", estimate_us);
                t.counter("estimator_degenerate", degenerate);
            }
            // Poisoned cache: the fresh results are still served below,
            // they just are not stored (next identical query recomputes).
            let mut cache = self.cache.checked_lock().ok();
            for (&i, value) in miss_indices.iter().zip(&values) {
                match value {
                    Some(value) => {
                        if let Some(cache) = cache.as_mut() {
                            cache.store_hashed(dataset, &queries[i], hashes[i], epoch, *value);
                        }
                        outcomes[i] = Some(QueryOutcome::Done(EstimateOutcome {
                            value: *value,
                            cached: false,
                        }));
                    }
                    None => {
                        self.metrics.record_timeout();
                        outcomes[i] = Some(QueryOutcome::TimedOut);
                    }
                }
            }
        }
        let total_us = started.elapsed().as_micros() as u64;
        let threshold_us = self.slow_threshold_us.load(Ordering::Relaxed);
        if total_us >= threshold_us && !miss_indices.is_empty() {
            self.record_slow(
                dataset,
                epoch,
                total_us,
                cache_us,
                fill_us,
                estimate_us,
                queries,
                &miss_indices,
                ids,
            );
        }
        // Every slot was filled: hits/timeouts in the cache pass, the
        // rest in the store pass above.
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("outcome slot left unfilled"))
            .collect())
    }

    /// Push one slow-query record per cache-missing query of a batch that
    /// crossed the threshold (hits were served from the cache and did not
    /// cause the latency). The ring holds [`SLOWLOG_CAP`] entries.
    #[allow(clippy::too_many_arguments)]
    fn record_slow(
        &self,
        dataset: &str,
        epoch: u64,
        total_us: u64,
        cache_us: u64,
        fill_us: u64,
        estimate_us: u64,
        queries: &[QueryGraph],
        miss_indices: &[usize],
        ids: Option<&[u64]>,
    ) {
        // Best-effort: a poisoned ring drops the records, never the batch.
        let Ok(mut log) = self.slowlog.checked_lock() else {
            return;
        };
        for &i in miss_indices {
            if log.len() == SLOWLOG_CAP {
                log.pop_front();
            }
            log.push_back(SlowQueryEntry {
                id: ids.map_or(0, |ids| ids.get(i).copied().unwrap_or(0)),
                dataset: dataset.to_string(),
                epoch,
                micros: total_us,
                cache_us,
                fill_us,
                estimate_us,
                query: crate::protocol::format_query(&queries[i]),
            });
        }
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
                    self.metrics.record_wal_commit(outcome.wal_bytes);
                }
                Ok(outcome)
            }
            Err(e) => {
                self.metrics.record_wal_error();
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
            self.metrics.record_wal_rotation();
        }
        Ok(rotated)
    }

    /// Fold one boot-time recovery's [`crate::registry::RecoveryReport`]
    /// into the metrics (`cegcli serve --data-dir` calls this per
    /// recovered dataset).
    pub fn record_recovery(&self, report: &crate::registry::RecoveryReport) {
        self.metrics
            .record_wal_recovery(report.replayed_commits as u64, report.torn_tail.is_some());
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
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            datasets: self.registry.len() as u64,
            busy: self.metrics.busy(),
            timeouts: self.metrics.timeouts(),
            queued: self.metrics.queued(),
        }
    }

    /// The full metrics dump behind the `METRICS` wire command: every
    /// [`Metrics::snapshot`] counter plus engine-level cache and
    /// per-dataset epoch/pending gauges, as stable `(key, value)` pairs.
    pub fn metrics_snapshot(&self) -> Vec<(String, u64)> {
        let mut out = self.metrics.snapshot();
        let (hits, misses, stale, entries) = match self.cache.checked_lock() {
            Ok(cache) => (
                cache.hits(),
                cache.misses(),
                cache.stale_misses(),
                cache.len() as u64,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        out.push((
            "requests_total".into(),
            self.requests.load(Ordering::Relaxed),
        ));
        out.push(("batches_total".into(), self.batches.load(Ordering::Relaxed)));
        out.push(("cache_hits".into(), hits));
        out.push(("cache_misses".into(), misses));
        out.push(("cache_stale_misses".into(), stale));
        out.push(("cache_entries".into(), entries));
        out.push(("datasets".into(), self.registry.len() as u64));
        for name in self.registry.names() {
            if let Some(entry) = self.registry.get(&name) {
                out.push((format!("dataset_{name}_epoch"), entry.epoch()));
                out.push((
                    format!("dataset_{name}_pending_ops"),
                    entry.pending_len() as u64,
                ));
                out.push((
                    format!("dataset_{name}_catalog_entries"),
                    entry.catalog_len() as u64,
                ));
            }
        }
        out
    }

    /// The Prometheus text-exposition dump behind `METRICS_PROM`: every
    /// [`Metrics::prom_lines`] family plus engine-level cache counters
    /// and per-dataset gauges (dataset names become label values, so the
    /// family set is stable regardless of what is registered).
    pub fn metrics_prom(&self) -> Vec<String> {
        let mut out = self.metrics.prom_lines();
        let (hits, misses, stale, entries) = match self.cache.checked_lock() {
            Ok(cache) => (
                cache.hits(),
                cache.misses(),
                cache.stale_misses(),
                cache.len() as u64,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        let counters = [
            ("ceg_requests_total", self.requests.load(Ordering::Relaxed)),
            ("ceg_batches_total", self.batches.load(Ordering::Relaxed)),
            ("ceg_cache_hits_total", hits),
            ("ceg_cache_misses_total", misses),
            ("ceg_cache_stale_misses_total", stale),
        ];
        for (name, value) in counters {
            out.push(format!("# TYPE {name} counter"));
            out.push(format!("{name} {value}"));
        }
        let gauges = [
            ("ceg_cache_entries", entries),
            ("ceg_datasets", self.registry.len() as u64),
        ];
        for (name, value) in gauges {
            out.push(format!("# TYPE {name} gauge"));
            out.push(format!("{name} {value}"));
        }
        // Per-dataset families are omitted entirely when no dataset is
        // registered — a `# TYPE` line with zero samples is invalid
        // exposition (and our own checker rejects it).
        let names = self.registry.names();
        if !names.is_empty() {
            for (family, get) in [
                ("ceg_dataset_epoch", 0usize),
                ("ceg_dataset_pending_ops", 1),
                ("ceg_dataset_catalog_entries", 2),
            ] {
                out.push(format!("# TYPE {family} gauge"));
                for name in &names {
                    if let Some(entry) = self.registry.get(name) {
                        let value = match get {
                            0 => entry.epoch(),
                            1 => entry.pending_len() as u64,
                            _ => entry.catalog_len() as u64,
                        };
                        out.push(format!("{family}{{dataset=\"{name}\"}} {value}"));
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
        let out = engine.estimate_batch("toy", &[a, b]).unwrap();
        assert!(out[0].cached);
        assert!(!out[1].cached);
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
