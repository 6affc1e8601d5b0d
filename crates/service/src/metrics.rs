//! Lock-free service metrics: latency histograms per wire command, queue
//! depths, and overload counters.
//!
//! Everything here is plain atomics — recording a sample on the request
//! path is a handful of relaxed `fetch_add`s, never a lock — so the
//! metrics layer cannot itself become a contention point under the very
//! overload it is meant to make visible. One [`Metrics`] instance lives
//! on the [`crate::Engine`] and is shared by the TCP server, `cegcli`,
//! the benches and the tests.
//!
//! The [`METRICS` wire command](crate::protocol) dumps
//! [`Metrics::snapshot`] as parseable `<key> <value>` lines; the key
//! reference lives in `docs/ARCHITECTURE.md` ("Overload & lifecycle").

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 microsecond buckets: bucket `i` covers latencies in
/// `[2^(i-1), 2^i)` µs (bucket 0 is `< 1µs`), so bucket 31 tops out
/// above half an hour — far beyond any latency this service can produce.
const BUCKETS: usize = 32;

/// A lock-free log2-bucketed latency histogram (microsecond resolution).
///
/// Quantiles come back as the upper bound of the bucket the quantile
/// falls in — within 2× of the true value, which is exactly the fidelity
/// an overload dashboard needs (is p99 1ms or 1s?), at the cost of one
/// relaxed `fetch_add` per sample.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

fn bucket_of(micros: u64) -> usize {
    ((u64::BITS - micros.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// The upper bound (in µs) of the bucket holding quantile `q` in
    /// `[0, 1]`. Monotone in `q`.
    ///
    /// Edge cases are pinned: an **empty histogram returns 0** (there is
    /// no bucket to name), and under concurrent recording the rank is
    /// computed from the *same* one-pass bucket snapshot it is then
    /// resolved against — never from the separate `count` atomic, which
    /// can disagree with the buckets mid-`record` (a torn read that
    /// previously walked past every bucket and answered the bogus top
    /// bucket).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        // Unreachable: rank <= total == the sum of the scanned counts.
        1u64 << (BUCKETS - 1)
    }

    /// One relaxed load per bucket, in bucket order — the raw counts
    /// behind [`Histogram::quantile_micros`] and the Prometheus
    /// `_bucket` series.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        counts
    }

    /// Render this histogram as a Prometheus text-exposition family:
    /// `# TYPE` line, cumulative `_bucket{le="..."}` series (bucket `i`
    /// has upper bound `2^i` µs; the top bucket is `+Inf`), `_sum` and
    /// `_count`. `_count` is derived from the same bucket snapshot as
    /// the series, so the cumulative counts are monotone and consistent
    /// even under concurrent recording.
    pub fn prom_into(&self, family: &str, out: &mut Vec<String>) {
        let counts = self.bucket_counts();
        out.push(format!("# TYPE {family} histogram"));
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if i == BUCKETS - 1 {
                out.push(format!("{family}_bucket{{le=\"+Inf\"}} {cum}"));
            } else {
                out.push(format!("{family}_bucket{{le=\"{}\"}} {cum}", 1u64 << i));
            }
        }
        out.push(format!("{family}_sum {}", self.sum_micros()));
        out.push(format!("{family}_count {cum}"));
    }
}

/// The wire commands we track latency for, one histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Estimate,
    EstimateBatch,
    ExplainEstimate,
    AddEdge,
    DelEdge,
    Commit,
    Snapshot,
    Stats,
    Metrics,
    MetricsProm,
    SlowLog,
    Ping,
}

/// Number of tracked commands (the latency-histogram array size).
const COMMANDS: usize = 12;

impl Command {
    const ALL: [Command; COMMANDS] = [
        Command::Estimate,
        Command::EstimateBatch,
        Command::ExplainEstimate,
        Command::AddEdge,
        Command::DelEdge,
        Command::Commit,
        Command::Snapshot,
        Command::Stats,
        Command::Metrics,
        Command::MetricsProm,
        Command::SlowLog,
        Command::Ping,
    ];

    /// The snake_case metrics-key fragment for this command.
    pub fn key(self) -> &'static str {
        match self {
            Command::Estimate => "estimate",
            Command::EstimateBatch => "estimate_batch",
            Command::ExplainEstimate => "explain_estimate",
            Command::AddEdge => "add_edge",
            Command::DelEdge => "del_edge",
            Command::Commit => "commit",
            Command::Snapshot => "snapshot",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::MetricsProm => "metrics_prom",
            Command::SlowLog => "slowlog",
            Command::Ping => "ping",
        }
    }

    /// This command's slot in the per-command arrays: [`Command::ALL`]
    /// lists the variants in declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// The service-wide metrics registry.
pub struct Metrics {
    /// Wall-clock request latency per command (parse to last reply byte
    /// flushed), recorded by the connection handlers.
    latency: [Histogram; COMMANDS],
    /// Time admitted misses waited for a run slot.
    queue_wait: Histogram,
    /// Requests rejected with `BUSY` (admission control or drain).
    busy: AtomicU64,
    /// Requests answered with `TIMEOUT` (deadline exceeded).
    timeouts: AtomicU64,
    /// Requests answered with `ERR`.
    errors: AtomicU64,
    /// Misses admitted and not yet answered (waiting for a run slot or
    /// running).
    queued: AtomicU64,
    /// High-water mark of `queued`.
    queued_peak: AtomicU64,
    /// Estimates clamped because an estimator produced `NaN`/`inf` on a
    /// degenerate catalog (answered `none` instead of garbage).
    degenerate: AtomicU64,
    /// Counting-kernel totals, aggregated over every catalog fill.
    kernel_candidates: AtomicU64,
    kernel_merge: AtomicU64,
    kernel_gallop: AtomicU64,
    kernel_bitset: AtomicU64,
    kernel_suffix: AtomicU64,
    kernel_memo_hits: AtomicU64,
    kernel_budget: AtomicU64,
    /// Durable commits appended (and fsynced) to a WAL.
    wal_commits: AtomicU64,
    /// WAL bytes appended across those commits.
    wal_bytes: AtomicU64,
    /// WAL-append failures (the commit was refused, nothing applied).
    wal_errors: AtomicU64,
    /// Log rotations: WAL folded into a snapshot and truncated.
    wal_rotations: AtomicU64,
    /// Committed transactions replayed from WAL tails at boot.
    wal_recovered_commits: AtomicU64,
    /// Recoveries that found (and truncated) a torn WAL tail.
    wal_torn_tails: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            latency: Default::default(),
            queue_wait: Histogram::new(),
            busy: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            queued_peak: AtomicU64::new(0),
            degenerate: AtomicU64::new(0),
            kernel_candidates: AtomicU64::new(0),
            kernel_merge: AtomicU64::new(0),
            kernel_gallop: AtomicU64::new(0),
            kernel_bitset: AtomicU64::new(0),
            kernel_suffix: AtomicU64::new(0),
            kernel_memo_hits: AtomicU64::new(0),
            kernel_budget: AtomicU64::new(0),
            wal_commits: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_errors: AtomicU64::new(0),
            wal_rotations: AtomicU64::new(0),
            wal_recovered_commits: AtomicU64::new(0),
            wal_torn_tails: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency histogram of one command.
    pub fn latency(&self, cmd: Command) -> &Histogram {
        &self.latency[cmd.index()]
    }

    /// Record one request's wall-clock latency.
    pub fn record_latency(&self, cmd: Command, latency: Duration) {
        self.latency(cmd).record(latency);
    }

    /// The queue-wait histogram (admission to run slot).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Count one `BUSY` rejection.
    pub fn record_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `TIMEOUT` reply.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `ERR` reply.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One miss was admitted.
    pub fn job_enqueued(&self) {
        let now = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queued_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// One admitted miss ended (answered, refused after its wait, or
    /// dropped with its permit).
    pub fn job_finished(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count one degenerate (`NaN`/`inf`) estimate clamped to `none`.
    pub fn record_estimator_degenerate(&self) {
        self.degenerate.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one counting run's [`ceg_exec::KernelStats`] into the global
    /// kernel totals (a handful of relaxed `fetch_add`s per catalog
    /// fill, not per candidate).
    pub fn record_kernel(&self, stats: &ceg_exec::KernelStats) {
        self.kernel_candidates
            .fetch_add(stats.candidates, Ordering::Relaxed);
        self.kernel_merge
            .fetch_add(stats.merge_intersections, Ordering::Relaxed);
        self.kernel_gallop
            .fetch_add(stats.gallop_intersections, Ordering::Relaxed);
        self.kernel_bitset
            .fetch_add(stats.bitset_intersections, Ordering::Relaxed);
        self.kernel_suffix
            .fetch_add(stats.suffix_shortcuts, Ordering::Relaxed);
        self.kernel_memo_hits
            .fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.kernel_budget
            .fetch_add(stats.budget_consumed, Ordering::Relaxed);
    }

    /// Count one durable commit: `wal_bytes` appended + fsynced before
    /// the ack.
    pub fn record_wal_commit(&self, wal_bytes: u64) {
        self.wal_commits.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(wal_bytes, Ordering::Relaxed);
    }

    /// Count one refused commit (WAL append failed; nothing applied).
    pub fn record_wal_error(&self) {
        self.wal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one WAL rotation (log folded into a snapshot).
    pub fn record_wal_rotation(&self) {
        self.wal_rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one boot-time recovery into the totals: `commits` replayed,
    /// plus whether a torn tail was found and truncated.
    pub fn record_wal_recovery(&self, commits: u64, torn_tail: bool) {
        self.wal_recovered_commits
            .fetch_add(commits, Ordering::Relaxed);
        if torn_tail {
            self.wal_torn_tails.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Durable commits so far.
    pub fn wal_commits(&self) -> u64 {
        self.wal_commits.load(Ordering::Relaxed)
    }

    /// Degenerate estimates clamped so far.
    pub fn estimator_degenerate(&self) -> u64 {
        self.degenerate.load(Ordering::Relaxed)
    }

    /// `BUSY` rejections so far.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// `TIMEOUT` replies so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// `ERR` replies so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Misses admitted and not yet answered.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue gauge.
    pub fn queued_peak(&self) -> u64 {
        self.queued_peak.load(Ordering::Relaxed)
    }

    /// Dump every counter as sorted-stable `(key, value)` pairs — the
    /// payload of the `METRICS` wire reply. Keys are snake_case and
    /// stable across releases; values are plain integers (latencies in
    /// microseconds).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = vec![
            ("busy_total".into(), self.busy()),
            ("timeout_total".into(), self.timeouts()),
            ("error_total".into(), self.errors()),
            (
                "estimator_degenerate_total".into(),
                self.estimator_degenerate(),
            ),
            ("queued".into(), self.queued()),
            ("queued_peak".into(), self.queued_peak()),
            (
                "kernel_candidates_total".into(),
                self.kernel_candidates.load(Ordering::Relaxed),
            ),
            (
                "kernel_intersect_merge_total".into(),
                self.kernel_merge.load(Ordering::Relaxed),
            ),
            (
                "kernel_intersect_gallop_total".into(),
                self.kernel_gallop.load(Ordering::Relaxed),
            ),
            (
                "kernel_intersect_bitset_total".into(),
                self.kernel_bitset.load(Ordering::Relaxed),
            ),
            (
                "kernel_suffix_shortcuts_total".into(),
                self.kernel_suffix.load(Ordering::Relaxed),
            ),
            (
                "kernel_memo_hits_total".into(),
                self.kernel_memo_hits.load(Ordering::Relaxed),
            ),
            (
                "kernel_budget_consumed_total".into(),
                self.kernel_budget.load(Ordering::Relaxed),
            ),
            (
                "wal_commits_total".into(),
                self.wal_commits.load(Ordering::Relaxed),
            ),
            (
                "wal_bytes_total".into(),
                self.wal_bytes.load(Ordering::Relaxed),
            ),
            (
                "wal_errors_total".into(),
                self.wal_errors.load(Ordering::Relaxed),
            ),
            (
                "wal_rotations_total".into(),
                self.wal_rotations.load(Ordering::Relaxed),
            ),
            (
                "wal_recovered_commits_total".into(),
                self.wal_recovered_commits.load(Ordering::Relaxed),
            ),
            (
                "wal_torn_tails_total".into(),
                self.wal_torn_tails.load(Ordering::Relaxed),
            ),
            ("queue_wait_count".into(), self.queue_wait.count()),
            ("queue_wait_sum_us".into(), self.queue_wait.sum_micros()),
            (
                "queue_wait_p50_us".into(),
                self.queue_wait.quantile_micros(0.50),
            ),
            (
                "queue_wait_p99_us".into(),
                self.queue_wait.quantile_micros(0.99),
            ),
        ];
        for cmd in Command::ALL {
            let h = self.latency(cmd);
            let k = cmd.key();
            out.push((format!("latency_{k}_count"), h.count()));
            out.push((format!("latency_{k}_sum_us"), h.sum_micros()));
            out.push((format!("latency_{k}_p50_us"), h.quantile_micros(0.50)));
            out.push((format!("latency_{k}_p99_us"), h.quantile_micros(0.99)));
        }
        out
    }

    /// Render the metrics-owned families in Prometheus text exposition
    /// format: one `counter`/`gauge` family per scalar, one `histogram`
    /// family per latency histogram. The engine appends its own families
    /// (cache, datasets) for the full `METRICS_PROM` payload.
    pub fn prom_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let counter = |out: &mut Vec<String>, name: &str, v: u64| {
            out.push(format!("# TYPE {name} counter"));
            out.push(format!("{name} {v}"));
        };
        let gauge = |out: &mut Vec<String>, name: &str, v: u64| {
            out.push(format!("# TYPE {name} gauge"));
            out.push(format!("{name} {v}"));
        };
        counter(&mut out, "ceg_busy_total", self.busy());
        counter(&mut out, "ceg_timeout_total", self.timeouts());
        counter(&mut out, "ceg_error_total", self.errors());
        counter(
            &mut out,
            "ceg_estimator_degenerate_total",
            self.estimator_degenerate(),
        );
        counter(
            &mut out,
            "ceg_kernel_candidates_total",
            self.kernel_candidates.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_intersect_merge_total",
            self.kernel_merge.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_intersect_gallop_total",
            self.kernel_gallop.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_intersect_bitset_total",
            self.kernel_bitset.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_suffix_shortcuts_total",
            self.kernel_suffix.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_memo_hits_total",
            self.kernel_memo_hits.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_kernel_budget_consumed_total",
            self.kernel_budget.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_commits_total",
            self.wal_commits.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_bytes_total",
            self.wal_bytes.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_errors_total",
            self.wal_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_rotations_total",
            self.wal_rotations.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_recovered_commits_total",
            self.wal_recovered_commits.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "ceg_wal_torn_tails_total",
            self.wal_torn_tails.load(Ordering::Relaxed),
        );
        gauge(&mut out, "ceg_queued", self.queued());
        gauge(&mut out, "ceg_queued_peak", self.queued_peak());
        self.queue_wait.prom_into("ceg_queue_wait_micros", &mut out);
        for cmd in Command::ALL {
            self.latency(cmd)
                .prom_into(&format!("ceg_latency_{}_micros", cmd.key()), &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_recorded_samples() {
        let h = Histogram::new();
        assert_eq!(h.quantile_micros(0.99), 0);
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(100));
        assert_eq!(h.count(), 100);
        // p50 lands in the 100µs bucket: upper bound within 2× above.
        let p50 = h.quantile_micros(0.50);
        assert!((100..=256).contains(&p50), "p50={p50}");
        // p100 must see the 100ms straggler.
        let p100 = h.quantile_micros(1.0);
        assert!(p100 >= 100_000, "p100={p100}");
        // Monotone in q.
        assert!(h.quantile_micros(0.5) <= h.quantile_micros(0.99));
        assert!(h.quantile_micros(0.99) <= h.quantile_micros(1.0));
    }

    #[test]
    fn empty_histogram_quantile_is_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile_micros(q), 0, "q={q}");
        }
    }

    #[test]
    fn torn_count_vs_bucket_reads_stay_in_range() {
        // Simulate the torn read: the bucket stores and the `count`
        // store in `record` are separate relaxed atomics, so a reader
        // can observe `count` ahead of the buckets. Force the worst
        // case by recording via the public API and then bumping `count`
        // behind the histogram's back.
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.count.fetch_add(1_000, Ordering::Relaxed);
        // The quantile must resolve against the bucket snapshot — the
        // single real sample's bucket — never fall through to the bogus
        // `2^31` top bucket.
        for q in [0.5, 0.99, 1.0] {
            let v = h.quantile_micros(q);
            assert_eq!(v, 128, "q={q}: rank must clamp to the bucket sum");
        }
    }

    #[test]
    fn histogram_prom_rendering_is_cumulative_and_consistent() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(5));
        let mut lines = Vec::new();
        h.prom_into("ceg_test_micros", &mut lines);
        assert_eq!(lines[0], "# TYPE ceg_test_micros histogram");
        let buckets: Vec<u64> = lines
            .iter()
            .filter(|l| l.starts_with("ceg_test_micros_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), 32);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert_eq!(*buckets.last().unwrap(), 3);
        assert!(lines.iter().any(|l| l == "ceg_test_micros_count 3"));
        assert!(lines.iter().any(|l| l.contains("_bucket{le=\"+Inf\"} 3")));
    }

    #[test]
    fn queue_gauge_tracks_peak() {
        let m = Metrics::new();
        m.job_enqueued();
        m.job_enqueued();
        m.job_finished();
        m.job_enqueued();
        assert_eq!(m.queued(), 2);
        assert_eq!(m.queued_peak(), 2);
        m.job_finished();
        m.job_finished();
        assert_eq!(m.queued(), 0);
        assert_eq!(m.queued_peak(), 2);
    }

    #[test]
    fn wal_counters_surface_in_snapshot_and_prom() {
        let m = Metrics::new();
        m.record_wal_commit(128);
        m.record_wal_commit(64);
        m.record_wal_error();
        m.record_wal_rotation();
        m.record_wal_recovery(3, true);
        m.record_wal_recovery(2, false);
        let snap = m.snapshot();
        let get = |k: &str| {
            snap.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing key {k}"))
        };
        assert_eq!(get("wal_commits_total"), 2);
        assert_eq!(get("wal_bytes_total"), 192);
        assert_eq!(get("wal_errors_total"), 1);
        assert_eq!(get("wal_rotations_total"), 1);
        assert_eq!(get("wal_recovered_commits_total"), 5);
        assert_eq!(get("wal_torn_tails_total"), 1);
        let prom = m.prom_lines();
        assert!(prom.iter().any(|l| l == "ceg_wal_commits_total 2"));
        assert!(prom.iter().any(|l| l == "ceg_wal_bytes_total 192"));
        assert!(prom.iter().any(|l| l == "ceg_wal_torn_tails_total 1"));
    }

    #[test]
    fn snapshot_has_stable_parseable_keys() {
        let m = Metrics::new();
        m.record_busy();
        m.record_timeout();
        m.record_latency(Command::Estimate, Duration::from_micros(50));
        let snap = m.snapshot();
        let get = |k: &str| {
            snap.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing key {k}"))
        };
        assert_eq!(get("busy_total"), 1);
        assert_eq!(get("timeout_total"), 1);
        assert_eq!(get("latency_estimate_count"), 1);
        assert_eq!(get("latency_ping_count"), 0);
        // Keys are unique.
        let mut keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), snap.len());
        // A command's histogram is found by discriminant.
        for (i, cmd) in Command::ALL.into_iter().enumerate() {
            assert_eq!(cmd.index(), i, "{cmd:?} is out of declaration order in ALL");
        }
    }
}
