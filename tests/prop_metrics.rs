//! Property tests for the metrics layer and its wire key surface.
//!
//! Two things are pinned here. First, the lock-free log2 `Histogram` is
//! driven against a naive sorted-vector reference: for any sample set
//! and any quantile, the histogram's answer must bracket the true
//! quantile within its documented 2× bucket fidelity, stay monotone in
//! `q`, and keep `count`/`sum` exact. Second, the *names* in the
//! `METRICS` snapshot and the `METRICS_PROM` exposition are a public
//! interface — dashboards and the CI smoke scripts grep for them — so
//! the exact key sets are asserted, turning an accidental rename into a
//! test failure instead of a silently broken dashboard.

use std::collections::BTreeSet;
use std::time::Duration;

use cegraph::graph::GraphBuilder;
use cegraph::service::{DatasetRegistry, Engine, Histogram, Metrics};
use proptest::prelude::*;

/// The true quantile of a sorted sample set: the smallest value with at
/// least `ceil(q * n)` samples at or below it (matching the histogram's
/// rank definition).
fn ref_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len() as u64;
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    /// For arbitrary samples, the histogram quantile is the upper bound
    /// of the bucket holding the true quantile: `true <= answer < 2*true`
    /// (with the bucket-0 floor for sub-microsecond samples).
    #[test]
    fn histogram_quantile_brackets_the_true_quantile(
        samples in prop::collection::vec(0u64..=10_000_000, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(Duration::from_micros(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum_micros(), samples.iter().sum::<u64>());
        for &q in &qs {
            let truth = ref_quantile(&sorted, q);
            let got = h.quantile_micros(q);
            // Bucket i covers [2^(i-1), 2^i): the reported upper bound
            // is >= the true value and < 2x it (bucket 0 reports 1).
            prop_assert!(got >= truth, "q={q}: got {got} < true {truth}");
            prop_assert!(
                got <= truth.max(1).saturating_mul(2),
                "q={q}: got {got} > 2x true {truth}"
            );
        }
    }

    /// Quantiles are monotone in `q` regardless of the sample set.
    #[test]
    fn histogram_quantiles_are_monotone_in_q(
        samples in prop::collection::vec(0u64..=1_000_000, 0..100),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(Duration::from_micros(s));
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.quantile_micros(w[0]) <= h.quantile_micros(w[1]));
        }
    }

    /// The cumulative `_bucket` series always ends at `_count`, for any
    /// sample set — the invariant the Prometheus checker enforces on a
    /// live server.
    #[test]
    fn histogram_prom_count_matches_inf_bucket(
        samples in prop::collection::vec(0u64..=10_000_000, 0..100),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(Duration::from_micros(s));
        }
        let mut lines = Vec::new();
        h.prom_into("x", &mut lines);
        let value_of = |needle: &str| -> u64 {
            lines
                .iter()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        prop_assert_eq!(value_of("x_bucket{le=\"+Inf\"}"), samples.len() as u64);
        prop_assert_eq!(value_of("x_count"), samples.len() as u64);
        prop_assert_eq!(value_of("x_sum"), samples.iter().sum::<u64>());
    }
}

/// The exact `METRICS` key set. A rename or deletion here breaks
/// dashboards and the CI greps; additions are fine but must be made
/// deliberately (update this list in the same change).
#[test]
fn metrics_snapshot_keys_are_stable() {
    let snapshot = Metrics::new().snapshot();
    let keys: BTreeSet<&str> = snapshot.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys.len(), snapshot.len(), "duplicate metrics keys");

    let mut expected: BTreeSet<String> = [
        "busy_total",
        "timeout_total",
        "error_total",
        "estimator_degenerate_total",
        "queued",
        "queued_peak",
        "kernel_candidates_total",
        "kernel_intersect_merge_total",
        "kernel_intersect_gallop_total",
        "kernel_intersect_bitset_total",
        "kernel_suffix_shortcuts_total",
        "kernel_memo_hits_total",
        "kernel_budget_consumed_total",
        "queue_wait_count",
        "queue_wait_sum_us",
        "queue_wait_p50_us",
        "queue_wait_p99_us",
        "wal_commits_total",
        "wal_bytes_total",
        "wal_errors_total",
        "wal_rotations_total",
        "wal_recovered_commits_total",
        "wal_torn_tails_total",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for cmd in [
        "estimate",
        "estimate_batch",
        "explain_estimate",
        "add_edge",
        "del_edge",
        "commit",
        "snapshot",
        "stats",
        "metrics",
        "metrics_prom",
        "slowlog",
        "ping",
    ] {
        for suffix in ["count", "sum_us", "p50_us", "p99_us"] {
            expected.insert(format!("latency_{cmd}_{suffix}"));
        }
    }
    let got: BTreeSet<String> = keys.iter().map(|k| k.to_string()).collect();
    assert_eq!(got, expected);
}

/// The exact per-dataset gauges the engine adds to both dumps, and the
/// one that makes storage cost readable from outside the process:
/// `graph_bytes` over the edge count is bytes per edge.
#[test]
fn dataset_gauges_are_stable() {
    let mut b = GraphBuilder::new(300);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 299, 1);
    let registry = std::sync::Arc::new(DatasetRegistry::new());
    registry.insert_graph("toy", b.build(), 2);
    let engine = Engine::new(registry, 16);

    let snapshot = engine.metrics_snapshot();
    let got: BTreeSet<&str> = snapshot
        .iter()
        .filter_map(|(k, _)| k.strip_prefix("dataset_toy_"))
        .collect();
    let gauges = ["epoch", "pending_ops", "catalog_entries", "graph_bytes"];
    assert_eq!(got, BTreeSet::from(gauges));

    let prom = engine.metrics_prom();
    let families: BTreeSet<&str> = prom
        .iter()
        .filter_map(|l| l.strip_prefix("# TYPE ceg_dataset_"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(families, BTreeSet::from(gauges));

    // Two one-edge relations over 300 vertices: per relation and
    // direction 5 bitmap words, 5 ranks, 2 offsets and 1 target.
    let bytes = |line: Option<&str>| line.and_then(|v| v.parse::<u64>().ok());
    let want = Some(4 * (5 * 8 + 5 * 4 + 2 * 4 + 4));
    let from_snapshot = snapshot
        .iter()
        .find(|(k, _)| k == "dataset_toy_graph_bytes")
        .map(|(_, v)| *v);
    assert_eq!(from_snapshot, want);
    let from_prom = prom
        .iter()
        .find_map(|l| l.strip_prefix("ceg_dataset_graph_bytes{dataset=\"toy\"} "));
    assert_eq!(bytes(from_prom), want);
}

/// The exact set of `# TYPE`d family names in the metrics-owned part of
/// the Prometheus exposition (the engine appends cache families on top;
/// the per-dataset ones are pinned by `dataset_gauges_are_stable`).
#[test]
fn metrics_prom_families_are_stable() {
    let lines = Metrics::new().prom_lines();
    let families: BTreeSet<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();

    let mut expected: BTreeSet<String> = [
        "ceg_busy_total",
        "ceg_timeout_total",
        "ceg_error_total",
        "ceg_estimator_degenerate_total",
        "ceg_kernel_candidates_total",
        "ceg_kernel_intersect_merge_total",
        "ceg_kernel_intersect_gallop_total",
        "ceg_kernel_intersect_bitset_total",
        "ceg_kernel_suffix_shortcuts_total",
        "ceg_kernel_memo_hits_total",
        "ceg_kernel_budget_consumed_total",
        "ceg_queued",
        "ceg_queued_peak",
        "ceg_queue_wait_micros",
        "ceg_wal_commits_total",
        "ceg_wal_bytes_total",
        "ceg_wal_errors_total",
        "ceg_wal_rotations_total",
        "ceg_wal_recovered_commits_total",
        "ceg_wal_torn_tails_total",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for cmd in [
        "estimate",
        "estimate_batch",
        "explain_estimate",
        "add_edge",
        "del_edge",
        "commit",
        "snapshot",
        "stats",
        "metrics",
        "metrics_prom",
        "slowlog",
        "ping",
    ] {
        expected.insert(format!("ceg_latency_{cmd}_micros"));
    }
    let got: BTreeSet<String> = families.iter().map(|f| f.to_string()).collect();
    assert_eq!(got, expected);

    // Every sample line belongs to a declared family: the exposition the
    // server serves must pass the same structural checks `cegcli prom
    // --check` applies.
    for line in &lines {
        if line.starts_with('#') {
            continue;
        }
        let name = line.split([' ', '{']).next().unwrap();
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            families.contains(base) || families.contains(name),
            "sample `{name}` has no # TYPE family"
        );
    }
}
