//! Lock-free service metrics: latency histograms per wire command, and a
//! table of scalar series (queue depths, overload, kernel, WAL and cache
//! counters).
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

use crate::protocol::Command;

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

/// The scalar series; a series' one row in the `SERIES` table is all of its declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Replies sent: `BUSY` (admission control or drain), `TIMEOUT`, `ERR`.
    Busy,
    Timeout,
    Error,
    /// Estimates clamped because an estimator produced `NaN`/`inf` on a
    /// degenerate catalog (answered `none` instead of garbage).
    Degenerate,
    /// Misses admitted and not yet answered, and the high-water mark of that.
    Queued,
    QueuedPeak,
    /// Counting-kernel totals over every catalog fill: the summed fields
    /// of [`ceg_exec::KernelStats`], in its field order.
    KernelCandidates,
    KernelMerge,
    KernelGallop,
    KernelBitset,
    KernelSuffix,
    KernelMemoHits,
    KernelBudget,
    /// Durable commits appended (and fsynced) to a WAL, the bytes appended
    /// across them, refused commits (the append failed), and rotations
    /// (the log folded into a snapshot and truncated).
    WalCommits,
    WalBytes,
    WalErrors,
    WalRotations,
    /// Commits replayed from WAL tails at boot; recoveries that truncated a torn tail.
    WalRecoveredCommits,
    WalTornTails,
    /// Queries and `estimate_batch` calls. From here on the series are the
    /// engine's: it counts these two and samples the rest before a dump.
    Requests,
    Batches,
    CacheHits,
    CacheMisses,
    CacheStaleMisses,
    CacheEntries,
    Datasets,
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// One row per scalar series, in [`Series`] order: the series, its
/// `METRICS` key, its Prometheus family where that is not `ceg_<key>`, and
/// its Prometheus type. `METRICS` lists a group of rows as they stand here,
/// `METRICS_PROM` its counters, then its gauges; a new series is one row.
type Row = (Series, &'static str, Option<&'static str>, &'static str);

#[rustfmt::skip]
const SERIES: [Row; 26] = [
    (Series::Busy, "busy_total", None, COUNTER),
    (Series::Timeout, "timeout_total", None, COUNTER),
    (Series::Error, "error_total", None, COUNTER),
    (Series::Degenerate, "estimator_degenerate_total", None, COUNTER),
    (Series::Queued, "queued", None, GAUGE),
    (Series::QueuedPeak, "queued_peak", None, GAUGE),
    (Series::KernelCandidates, "kernel_candidates_total", None, COUNTER),
    (Series::KernelMerge, "kernel_intersect_merge_total", None, COUNTER),
    (Series::KernelGallop, "kernel_intersect_gallop_total", None, COUNTER),
    (Series::KernelBitset, "kernel_intersect_bitset_total", None, COUNTER),
    (Series::KernelSuffix, "kernel_suffix_shortcuts_total", None, COUNTER),
    (Series::KernelMemoHits, "kernel_memo_hits_total", None, COUNTER),
    (Series::KernelBudget, "kernel_budget_consumed_total", None, COUNTER),
    (Series::WalCommits, "wal_commits_total", None, COUNTER),
    (Series::WalBytes, "wal_bytes_total", None, COUNTER),
    (Series::WalErrors, "wal_errors_total", None, COUNTER),
    (Series::WalRotations, "wal_rotations_total", None, COUNTER),
    (Series::WalRecoveredCommits, "wal_recovered_commits_total", None, COUNTER),
    (Series::WalTornTails, "wal_torn_tails_total", None, COUNTER),
    (Series::Requests, "requests_total", None, COUNTER),
    (Series::Batches, "batches_total", None, COUNTER),
    (Series::CacheHits, "cache_hits", Some("ceg_cache_hits_total"), COUNTER),
    (Series::CacheMisses, "cache_misses", Some("ceg_cache_misses_total"), COUNTER),
    (Series::CacheStaleMisses, "cache_stale_misses", Some("ceg_cache_stale_misses_total"), COUNTER),
    (Series::CacheEntries, "cache_entries", None, GAUGE),
    (Series::Datasets, "datasets", None, GAUGE),
];

/// The service-wide metrics registry: one cell per [`Series`] and the wall-clock
/// latency of each served command (parse to last reply byte flushed).
#[derive(Default)]
pub struct Metrics {
    values: [AtomicU64; SERIES.len()],
    latency: [Histogram; Command::TRACKED],
    /// Time admitted misses waited for a run slot.
    pub(crate) queue_wait: Histogram,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, series: Series) -> &AtomicU64 {
        &self.values[series as usize]
    }

    /// Count one event on `series`.
    pub fn inc(&self, series: Series) {
        self.add(series, 1);
    }

    /// Add `n` to `series`.
    pub fn add(&self, series: Series, n: u64) {
        self.cell(series).fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite `series` with a level read elsewhere.
    pub fn set(&self, series: Series, value: u64) {
        self.cell(series).store(value, Ordering::Relaxed);
    }

    /// The current value of `series`.
    pub fn get(&self, series: Series) -> u64 {
        self.cell(series).load(Ordering::Relaxed)
    }

    /// The latency histogram of one command; `None` for `SHUTDOWN` and
    /// `QUIT`, which are lifecycle events rather than served commands.
    pub fn latency(&self, cmd: Command) -> Option<&Histogram> {
        self.latency.get(cmd as usize)
    }

    /// One miss was admitted.
    pub fn job_enqueued(&self) {
        let now = self.cell(Series::Queued).fetch_add(1, Ordering::Relaxed) + 1;
        let peak = self.cell(Series::QueuedPeak);
        peak.fetch_max(now, Ordering::Relaxed);
    }

    /// One admitted miss ended (answered, refused after its wait, or
    /// dropped with its permit).
    pub fn job_finished(&self) {
        self.cell(Series::Queued).fetch_sub(1, Ordering::Relaxed);
    }

    /// Fold one counting run's [`ceg_exec::KernelStats`] into the kernel
    /// totals: its summed fields have a series each, in field order up to
    /// where the WAL series begin (`deepest_level`, a maximum, has none).
    pub fn record_kernel(&self, stats: &ceg_exec::KernelStats) {
        let kernel = Series::KernelCandidates as usize..Series::WalCommits as usize;
        let cells = self.values.iter().take(kernel.end).skip(kernel.start);
        for (cell, (_, value)) in cells.zip(stats.fields()) {
            cell.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// The rows of one group with their current values: the engine's
    /// ([`Series::Requests`] on), or the ones recorded here.
    pub(crate) fn rows(&self, engine: bool) -> impl Iterator<Item = (&'static Row, u64)> + '_ {
        let split = Series::Requests as usize;
        let rows = SERIES.iter().zip(&self.values);
        rows.filter(move |((series, ..), _)| (*series as usize >= split) == engine)
            .map(|(row, cell)| (row, cell.load(Ordering::Relaxed)))
    }

    /// Append one group's Prometheus families, counters before gauges.
    pub(crate) fn scalar_prom(&self, engine: bool, out: &mut Vec<String>) {
        for prom_type in [COUNTER, GAUGE] {
            let of_type = self.rows(engine).filter(|((.., t), _)| *t == prom_type);
            for (&(_, key, family, _), v) in of_type {
                let family = family.map_or_else(|| format!("ceg_{key}"), String::from);
                out.push(format!("# TYPE {family} {prom_type}"));
                out.push(format!("{family} {v}"));
            }
        }
    }

    /// Every histogram with the stem of its names: `queue_wait`, then
    /// `latency_<command keyword in lower case>` per served command.
    fn histograms(&self) -> impl Iterator<Item = (String, &Histogram)> {
        let latency = Command::ALL.iter().zip(&self.latency);
        let latency = latency.map(|((_, name, _), h)| (name.to_ascii_lowercase(), h));
        std::iter::once(("queue_wait".to_string(), &self.queue_wait))
            .chain(latency.map(|(key, h)| (format!("latency_{key}"), h)))
    }

    /// Everything recorded here as `(key, value)` pairs in a stable order —
    /// the first part of the `METRICS` wire reply (the engine appends its
    /// own series and the per-dataset gauges). Keys are snake_case and
    /// stable across releases; latencies are in microseconds.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let key_value = |(&(_, key, ..), v): (&Row, u64)| (key.to_string(), v);
        let mut out: Vec<_> = self.rows(false).map(key_value).collect();
        for (stem, h) in self.histograms() {
            out.push((format!("{stem}_count"), h.count()));
            out.push((format!("{stem}_sum_us"), h.sum_micros()));
            out.push((format!("{stem}_p50_us"), h.quantile_micros(0.50)));
            out.push((format!("{stem}_p99_us"), h.quantile_micros(0.99)));
        }
        out
    }

    /// The same series in Prometheus text exposition format, a family per
    /// scalar and per histogram; the engine appends its own families
    /// (cache, datasets) for the full `METRICS_PROM` payload.
    pub fn prom_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.scalar_prom(false, &mut out);
        for (stem, h) in self.histograms() {
            h.prom_into(&format!("ceg_{stem}_micros"), &mut out);
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
        assert_eq!(m.get(Series::Queued), 2);
        assert_eq!(m.get(Series::QueuedPeak), 2);
        m.job_finished();
        m.job_finished();
        assert_eq!(m.get(Series::Queued), 0);
        assert_eq!(m.get(Series::QueuedPeak), 2);
    }

    #[test]
    fn wal_counters_surface_in_snapshot_and_prom() {
        let m = Metrics::new();
        m.add(Series::WalCommits, 2);
        m.add(Series::WalBytes, 128 + 64);
        m.inc(Series::WalErrors);
        m.inc(Series::WalRotations);
        m.add(Series::WalRecoveredCommits, 3 + 2);
        m.inc(Series::WalTornTails);
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
        m.inc(Series::Busy);
        m.inc(Series::Timeout);
        let estimate = m.latency(Command::Estimate).expect("a served command");
        estimate.record(Duration::from_micros(50));
        assert!(m.latency(Command::Quit).is_none());
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
    }

    #[test]
    fn every_series_has_its_row_and_the_kernel_rows_follow_kernel_stats() {
        // A series' cell and row are found by discriminant.
        for (i, (series, ..)) in SERIES.iter().enumerate() {
            assert_eq!(*series as usize, i, "{series:?} is out of order in SERIES");
        }
        // `record_kernel` pairs rows with `KernelStats::fields` by
        // position; the names say it pairs them right.
        let stats = ceg_exec::KernelStats {
            candidates: 1,
            merge_intersections: 2,
            gallop_intersections: 3,
            bitset_intersections: 4,
            suffix_shortcuts: 5,
            memo_hits: 6,
            budget_consumed: 7,
            deepest_level: 8,
        };
        let m = Metrics::new();
        m.record_kernel(&stats);
        let snap = m.snapshot();
        for (name, value) in stats.fields().into_iter().take(7) {
            let key = format!("{name}_total");
            assert!(snap.contains(&(key.clone(), value)), "{key} != {value}");
        }
        assert_eq!(m.get(Series::WalCommits), 0, "deepest_level has no series");
        // The two groups partition the table.
        assert_eq!(m.rows(false).count() + m.rows(true).count(), SERIES.len());
        assert_eq!(
            m.rows(true).next().map(|(row, _)| row.1),
            Some("requests_total")
        );
    }
}
