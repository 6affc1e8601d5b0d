//! The traced run: the workload's traffic with every single estimate
//! sent as `EXPLAIN_ESTIMATE`, a short untraced stretch to price the
//! tracing, and the direct per-layer calls. Spans are kept in memory and
//! written out once, when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::inputs::reference;
use crate::layers::direct_layers;
use crate::report::Metric;
use crate::stats::{median_sorted, tail_percentile};
use crate::wire::{Tally, TracedRequest, SPANS};
use crate::workload::{server_metrics, set_up, traffic, Ctx, Outcome, Spec};

/// Spans kept for the file; later ones are counted and dropped.
const MAX_SPANS: usize = 60_000;

struct Span {
    id: u64,
    parent: Option<u64>,
    /// Spans of one request share it.
    trace: u64,
    name: &'static str,
    /// Offset from the tracer's origin; the server reports durations
    /// only, so its spans have none.
    start_us: Option<f64>,
    dur_us: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            dropped: 0,
        }
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        trace: u64,
        name: &'static str,
        start_us: Option<f64>,
        dur_us: f64,
    ) -> u64 {
        self.next_id += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                id: self.next_id,
                parent,
                trace,
                name,
                start_us,
                dur_us,
            });
        } else {
            self.dropped += 1;
        }
        self.next_id
    }

    /// A harness-side span around one direct call (or group of calls).
    pub fn direct(&mut self, name: &'static str, started: Instant, took: Duration) {
        let start_us = started.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let trace = self.next_id + 1;
        self.push(None, trace, name, Some(start_us), took.as_secs_f64() * 1e6);
    }

    /// The client-side span of one wire request and, under it, the spans
    /// the server reported. `phase_offset_us` places the phase on the
    /// tracer's clock.
    fn wire(&mut self, r: &TracedRequest, phase_offset_us: f64) {
        let start_us = phase_offset_us + r.sample.sent_ns as f64 / 1e3;
        let dur_us = (r.sample.end_ns - r.sample.sent_ns) as f64 / 1e3;
        let trace = self.next_id + 1;
        let root = self.push(None, trace, "wire", Some(start_us), dur_us);
        let span_us = |name| r.breakdown.span_us(name) as f64;
        for name in ["queue_wait", "catalog_fill", "estimate"] {
            if span_us(name) > 0.0 {
                self.push(Some(root), trace, name, None, span_us(name));
            }
        }
        if span_us("cache_probe") > 0.0 {
            let probe = self.push(
                Some(root),
                trace,
                "cache_probe",
                None,
                span_us("cache_probe"),
            );
            if span_us("lock_wait") > 0.0 {
                self.push(Some(probe), trace, "lock_wait", None, span_us("lock_wait"));
            }
        }
    }

    /// One JSON object per span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let start = s.start_us.map_or("null".to_string(), |v| format!("{v:.3}"));
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{start},\"dur_us\":{:.3}}}",
                s.trace, s.id, s.name, s.dur_us
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}

/// Time inside the server that its own spans account for. `lock_wait`
/// lies inside `cache_probe` and is not added again.
fn accounted_us(r: &TracedRequest) -> u64 {
    SPANS
        .iter()
        .filter(|name| **name != "lock_wait")
        .map(|name| r.breakdown.span_us(name))
        .sum()
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// `a / b`, or 0 where there is nothing to divide by.
fn over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The wire-derived per-layer metrics of the traced traffic.
fn wire_layers(
    out: &mut Vec<Metric>,
    traced: &Tally,
    steady: Option<&Tally>,
    commit_ns: &[u64],
    plain_p50_ns: f64,
) {
    let reqs = &traced.traced;
    let n = reqs.len() as u64;
    let mut push = |name: &'static str, value: f64| out.push(Metric { name, value, n });
    let wire_ns = sorted(reqs.iter().map(|r| r.sample.end_ns - r.sample.sent_ns));
    let p50 = |v: &[u64]| median_sorted(v).unwrap_or(0.0);
    // 0 where the phase was too short to support the percentile.
    let p99 = |v: &[u64]| tail_percentile(v, 0.99).unwrap_or(0) as f64;
    push("server.wire_us_p50", p50(&wire_ns) / 1e3);
    push("server.wire_us_p99", p99(&wire_ns) / 1e3);
    let residual =
        sorted(reqs.iter().map(|r| {
            ((r.sample.end_ns - r.sample.sent_ns) / 1000).saturating_sub(accounted_us(r))
        }));
    push("server.residual_us_p50", p50(&residual));
    let span = |name: &str| sorted(reqs.iter().map(|r| r.breakdown.span_us(name)));
    push("engine.lock_wait_us_p50", p50(&span("lock_wait")));
    push("engine.lock_wait_us_p99", p99(&span("lock_wait")));
    push("cache.probe_us_p50", p50(&span("cache_probe")));
    push("catalog.fill_us_p50", p50(&span("catalog_fill")));
    push("estimators.estimate_us_p50", p50(&span("estimate")));
    let latencies = traced.sorted_latencies_ns();
    push("trace.overhead_ratio", over(p50(&latencies), plain_p50_ns));

    let total = |name: &str| reqs.iter().map(|r| r.breakdown.counter(name)).sum::<u64>();
    let (hit, stale, cold) = (
        total("cache_hit"),
        total("cache_stale_miss"),
        total("cache_cold_miss"),
    );
    push("cache.hit_ratio", ratio(hit, hit + stale + cold));
    push("cache.stale_miss_share", ratio(stale, hit + stale + cold));
    push(
        "catalog.patterns_counted_per_query",
        ratio(total("catalog_patterns_counted"), n),
    );
    let candidates = total("kernel_candidates");
    push("exec.candidates_per_query", ratio(candidates, n));
    push(
        "exec.memo_hit_ratio",
        ratio(total("kernel_memo_hits"), candidates),
    );
    let (merge, gallop, bitset) = (
        total("kernel_intersect_merge"),
        total("kernel_intersect_gallop"),
        total("kernel_intersect_bitset"),
    );
    push("exec.bitset_share", ratio(bitset, merge + gallop + bitset));

    // Commits beside the traffic: `churn` only, 0 elsewhere. Timed from
    // the due time; p95 because the steady stretch is too short for p99.
    let p95 = |v: &[u64]| tail_percentile(v, 0.95).unwrap_or(0) as f64;
    let steady_p95 = steady.map_or(0.0, |s| p95(&s.sorted_latencies_ns()));
    let churn_p95 = if steady.is_some() {
        p95(&latencies)
    } else {
        0.0
    };
    push("churn.p95_us", churn_p95 / 1e3);
    push("churn.steady_p95_us", steady_p95 / 1e3);
    push("churn.interference_ratio", over(churn_p95, steady_p95));
    push(
        "churn.commit_us_p50",
        p50(&sorted(commit_ns.iter().copied())) / 1e3,
    );
    let lag = sorted(traced.samples.iter().map(|s| s.sent_ns - s.due_ns));
    push(
        "loadgen.lag_us_p99",
        if steady.is_some() {
            p99(&lag) / 1e3
        } else {
            0.0
        },
    );
}

/// One traced run: every per-layer metric.
pub fn run_traced(spec: &Spec, ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, live, _) = set_up(spec, ctx)?;
    let ref0 = reference(&inputs.graph, &inputs.queries);

    let phase_offset_us = tracer.origin.elapsed().as_secs_f64() * 1e6;
    let mut traced = traffic(
        spec,
        ctx,
        live,
        &inputs,
        Some(&ref0),
        &inputs.updates,
        ctx.seconds,
        true,
    )?;
    out.violations.append(&mut traced.violations);
    out.phases.append(&mut traced.phases);
    out.count(&traced.singles);
    if let Some(steady) = &traced.steady {
        out.count(steady);
    }
    for r in &traced.singles.traced {
        tracer.wire(r, phase_offset_us);
    }

    // The same traffic untraced, briefly: what tracing costs. Commits
    // made above moved the epoch, so values are not compared here.
    let done = traced.commits.latencies_ns.len();
    let plain = traffic(
        spec,
        ctx,
        traced.live,
        &inputs,
        None,
        &inputs.updates[done..],
        ctx.seconds / 5.0,
        false,
    )?;
    out.count(&plain.singles);
    out.phases.push(("untraced", ctx.seconds / 5.0));
    let plain_p50_ns = median_sorted(&plain.singles.sorted_latencies_ns()).unwrap_or(0.0);
    wire_layers(
        &mut out.metrics,
        &traced.singles,
        traced.steady.as_ref(),
        &traced.commits.latencies_ns,
        plain_p50_ns,
    );
    let server = server_metrics(&plain.live)?;
    out.metrics.push(Metric {
        name: "server.queue_wait_us_p50",
        value: server["queue_wait_p50_us"] as f64,
        n: server["queue_wait_count"],
    });
    drop(plain);

    let started = Instant::now();
    out.metrics
        .extend(direct_layers(&inputs, ctx.seed, ctx.scratch, tracer)?);
    out.phases.push(("direct", started.elapsed().as_secs_f64()));
    Ok(out)
}
