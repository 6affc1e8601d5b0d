//! The metric tables (the same names, units and bounds `BENCHMARK.json`
//! declares), the environment every record carries, and the JSON lines
//! the harness prints.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// Unused (0) for per-layer metrics, which are not gated.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the service sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", 0.25),
    MetricDef {
        name: "estimate_within_20ms",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
    },
    lower("server_rss_mb", "MiB", 0.10),
    lower("snapshot_bytes_per_edge", "B/edge", 0.05),
];

/// Printed with every end-to-end run but not part of the gated set: on
/// the shared two-core sandbox the machine's own speed moves by a third
/// from one run to the next, and every timing moves with it.
pub const UNGATED: &[MetricDef] = &[
    layer("estimate_qps", "1/s", Higher),
    layer("estimate_p50_us", "us", Lower),
    layer("estimate_p95_us", "us", Lower),
    layer("estimate_p99_us", "us", Lower),
    layer("server_cpu_us_per_estimate", "us", Lower),
    layer("commit_p50_us", "us", Lower),
    layer("boot_s", "s", Lower),
    layer("snapshot_s", "s", Lower),
    layer("restore_s", "s", Lower),
    layer("recovery_s", "s", Lower),
];

use Better::{Higher, Lower};

/// One layer each, from the traced run; informational, not gated. A
/// metric that does not apply to a workload (no commits ran beside its
/// traffic, say) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Wire: client-side span per request and its EXPLAIN child spans.
    layer("server.wire_us_p50", "us", Lower),
    layer("server.wire_us_p99", "us", Lower),
    layer("server.residual_us_p50", "us", Lower),
    layer("server.queue_wait_us_p50", "us", Lower),
    layer("engine.lock_wait_us_p50", "us", Lower),
    layer("engine.lock_wait_us_p99", "us", Lower),
    layer("cache.probe_us_p50", "us", Lower),
    layer("catalog.fill_us_p50", "us", Lower),
    layer("estimators.estimate_us_p50", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.stale_miss_share", "ratio", Lower),
    layer("catalog.patterns_counted_per_query", "count", Lower),
    layer("exec.candidates_per_query", "count", Lower),
    layer("exec.memo_hit_ratio", "ratio", Higher),
    layer("exec.bitset_share", "ratio", Higher),
    layer("churn.p95_us", "us", Lower),
    layer("churn.steady_p95_us", "us", Lower),
    layer("churn.interference_ratio", "ratio", Lower),
    layer("churn.commit_us_p50", "us", Lower),
    layer("loadgen.lag_us_p99", "us", Lower),
    // Direct calls into each crate, on the workload's graph and pool.
    layer("protocol.parse_us", "us", Lower),
    layer("protocol.format_us", "us", Lower),
    layer("query.canon_hash_us", "us", Lower),
    layer("cache.probe_hit_us", "us", Lower),
    layer("cache.store_evict_us", "us", Lower),
    layer("engine.hit_us", "us", Lower),
    layer("engine.miss_us", "us", Lower),
    layer("estimators.estimate_acyclic_us", "us", Lower),
    layer("estimators.estimate_cyclic_us", "us", Lower),
    layer("estimators.qerror_p50", "ratio", Lower),
    layer("estimators.qerror_p90", "ratio", Lower),
    layer("core.ceg_build_us", "us", Lower),
    layer("exec.count_path4_us", "us", Lower),
    layer("exec.count_star4_us", "us", Lower),
    layer("exec.count_cycle6_us", "us", Lower),
    layer("catalog.fill_us_per_pattern", "us", Lower),
    layer("catalog.refresh_us_per_pattern", "us", Lower),
    layer("registry.commit_us", "us", Lower),
    layer("registry.commit_durable_us", "us", Lower),
    layer("registry.recounted_per_commit", "count", Lower),
    layer("registry.recover_s", "s", Lower),
    layer("graph.wal_append_us.disk", "us", Lower),
    layer("graph.wal_bytes_per_op", "B", Lower),
    layer("graph.rebase_us", "us", Lower),
    layer("graph.overlay_build_us", "us", Lower),
    layer("graph.load_edges_s", "s", Lower),
    layer("graph.snapshot_write_s", "s", Lower),
    layer("graph.snapshot_read_s", "s", Lower),
];

/// One measured number: what every output record is built from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples the value summarizes.
    pub n: u64,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(UNGATED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// Where and on what a run was measured; part of every record.
pub struct Env {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
    pub data_fs: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, mount, fs) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

impl Env {
    pub fn detect(data_dir: &Path) -> Env {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Env {
            // A benchmark checkout is not always a git repository.
            commit: first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into()),
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
                .to_string(),
            data_fs: fs_type(data_dir),
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured (never `NaN`/`inf`, which
/// JSON cannot carry; those become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// One record per (workload, metric): the value with its unit and sample
/// count, and everything needed to tell two records apart later.
pub fn record_line(
    env: &Env,
    workload: &str,
    seed: u64,
    phases: &[(&'static str, f64)],
    m: &Metric,
) -> String {
    let phases: Vec<String> = phases
        .iter()
        .map(|(name, s)| format!("{}:{}", json_str(name), json_num(*s)))
        .collect();
    format!(
        "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"n\":{},\"seed\":{},\
         \"commit\":{},\"rustc\":{},\"nproc\":{},\"cpu\":{},\"data_fs\":{},\"phase_s\":{{{}}}}}",
        json_str(workload),
        json_str(m.name),
        json_num(m.value),
        json_str(unit_of(m.name)),
        m.n,
        seed,
        json_str(&env.commit),
        json_str(&env.rustc),
        env.nproc,
        json_str(&env.cpu),
        json_str(&env.data_fs),
        phases.join(","),
    )
}

/// The last line of a single-workload run: the object the benchmark
/// contract reads.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(unit_of(m.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// `BENCHMARK.json` as it must read: the command, the run length, and the
/// workload and metric tables above. `cegbench benchmark-json` prints it;
/// a test holds the file at the repository root to it.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::workload::SPECS
        .iter()
        .map(|spec| (spec.name, spec.why))
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.as_str()),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Length of the timed phase the benchmark declares, and the default.
pub const RUN_SECONDS: u32 = 10;

/// `repeat`: per (workload, metric) the median, quartiles, the spread the
/// acceptance check uses (`(q3 - q1) / median`) and the full range, each
/// against the metric's bound.
pub fn repeat_table(workloads: &[&str], runs: &[Vec<(&str, Vec<Metric>)>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<26} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for w in workloads {
        for def in END_TO_END.iter().chain(UNGATED) {
            let values: Vec<f64> = runs
                .iter()
                .flat_map(|run| run.iter().filter(|(name, _)| name == w))
                .flat_map(|(_, metrics)| metrics.iter().filter(|m| m.name == def.name))
                .map(|m| m.value)
                .collect();
            let (Some(med), Some([q1, _, q3])) = (median(&values), quartiles(&values)) else {
                continue;
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let spread = (q3 - q1) / med;
            let verdict = if def.bound == 0.0 {
                "ungated"
            } else if spread <= def.bound / 3.0 {
                "steady"
            } else if spread <= def.bound {
                "within bound"
            } else {
                "DOES NOT REPEAT"
            };
            let _ = writeln!(
                out,
                "{:<8} {:<26} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                w,
                def.name,
                values.len(),
                med,
                q1,
                q3,
                spread,
                (hi - lo) / med,
                def.bound,
                verdict
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                n: 3,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cegbench benchmark-json`"
        );
        assert!(crate::workload::SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }

    #[test]
    fn fs_type_of_root_is_known() {
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
