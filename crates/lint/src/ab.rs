//! `cargo xtask ab`: paired runs of the wire benchmark (`bench/`) on two
//! revisions, and the statistics a performance claim is judged by.
//!
//! ```text
//! cargo xtask ab <parent-rev> [<change-rev>] --workload W --metric M
//!     [--pairs N] [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! Each revision (the change defaults to `HEAD`) is checked out in a
//! `git worktree` at `target/ab/parent` or `target/ab/change` and built
//! by its own `bench/run.sh` into its own target directory
//! (`target/ab/<side>.target`). Both are kept between runs: a later run
//! moves a kept worktree to its revision with a forced checkout, which
//! rewrites only the files that differ, so the others keep their mtimes,
//! cargo's fingerprints of them hold and the rebuild is incremental. The
//! `bench/Cargo.lock` each build rewrites is restored after it. The runs come
//! in blocks of two pairs, parent-change-change-parent or
//! change-parent-parent-change, each block's order drawn from the seed, so
//! neither side always runs second. Every run is
//! `cegbench --workload W --seed S` in its side's worktree, and its value
//! is the record (`bench/src/report.rs::record_line`) for metric `M`.
//!
//! The printed table is what a claim cites: each pair's values,
//! difference (change − parent) and ratio; the sign count; each side's
//! median and interquartile range; and the median difference and median
//! ratio, each with a 95 % percentile-bootstrap interval over the pairs
//! (seeded by `S`). A claim is met iff the difference's interval excludes
//! zero in the metric's better direction (read from the change's
//! `cegbench benchmark-json`). Exit status: 0 met, 1 not met, 2 the runs
//! could not be made.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Json};

const USAGE: &str = "usage: cargo xtask ab <parent-rev> [<change-rev>] --workload W --metric M \
                     [--pairs N] [--seed S] [--seconds T] [--trace 0|1]";

/// Bootstrap resamples per interval.
const RESAMPLES: usize = 10_000;

struct Args {
    parent: String,
    change: String,
    workload: String,
    metric: String,
    pairs: usize,
    seed: u64,
    seconds: Option<String>,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut revs = Vec::new();
    let (mut workload, mut metric) = (None, None);
    let mut out = Args {
        parent: String::new(),
        change: "HEAD".into(),
        workload: String::new(),
        metric: String::new(),
        pairs: 10,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or(format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--metric" => metric = Some(value()?),
            "--pairs" => {
                out.pairs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or("--pairs takes a count of at least 2")?
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => out.seconds = Some(value()?),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            rev => revs.push(rev.to_string()),
        }
    }
    match revs.len() {
        1 => out.parent = revs.remove(0),
        2 => {
            out.change = revs.remove(1);
            out.parent = revs.remove(0);
        }
        _ => return Err("give a parent revision and at most one change revision".into()),
    }
    out.workload = workload.ok_or("--workload is required")?;
    out.metric = metric.ok_or("--metric is required")?;
    Ok(out)
}

/// `cargo xtask ab …`: run the comparison, print the table, return the
/// exit status.
pub fn ab_main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xtask ab: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(root) = std::env::current_dir()
        .ok()
        .and_then(|cwd| crate::find_repo_root(&cwd))
    else {
        eprintln!("xtask ab: no workspace root found");
        return 2;
    };
    match run(&root, &args) {
        Ok(report) => {
            print!("{}", report.table);
            i32::from(!report.met)
        }
        Err(e) => {
            eprintln!("xtask ab: {e}");
            2
        }
    }
}

/// Which side goes first in each pair, two pairs to a block.
#[derive(Clone, Copy, PartialEq, Debug)]
enum First {
    Parent,
    Change,
}

/// `pairs` pair orders in ABBA / BAAB blocks, each block's order drawn
/// from `rng`; an odd last pair is the first half of its block.
fn schedule(pairs: usize, rng: &mut SplitMix) -> Vec<First> {
    let mut order = Vec::with_capacity(pairs);
    while order.len() < pairs {
        let (a, b) = if rng.next() & 1 == 0 {
            (First::Parent, First::Change)
        } else {
            (First::Change, First::Parent)
        };
        order.push(a);
        if order.len() < pairs {
            order.push(b);
        }
    }
    order
}

/// SplitMix64: a seeded stream for the block orders and the bootstrap.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the median is `q = 0.5`).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A 95 % percentile-bootstrap interval for the median of `values`.
fn bootstrap_median(values: &[f64], rng: &mut SplitMix) -> (f64, f64) {
    let mut sample = vec![0.0; values.len()];
    let medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            for slot in sample.iter_mut() {
                *slot = values[rng.below(values.len())];
            }
            median(&sample)
        })
        .collect();
    (quantile(&medians, 0.025), quantile(&medians, 0.975))
}

/// The metric's better direction, as `benchmark-json` declares it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Better {
    Lower,
    Higher,
}

/// One finished comparison.
struct Report {
    table: String,
    met: bool,
}

/// The statistics of `pairs` of (parent, change) values, as the table
/// prints them, and whether a claim in direction `better` is met.
fn summarize(
    metric: &str,
    order: &[First],
    pairs: &[(f64, f64)],
    better: Option<Better>,
    rng: &mut SplitMix,
) -> Report {
    use std::fmt::Write as _;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "| pair | order | parent | change | change − parent | ratio |"
    );
    let _ = writeln!(t, "|---|---|---|---|---|---|");
    for (i, (&(a, b), first)) in pairs.iter().zip(order).enumerate() {
        let order = match first {
            First::Parent => "PC",
            First::Change => "CP",
        };
        let _ = writeln!(
            t,
            "| {} | {order} | {a:.4} | {b:.4} | {:+.4} | {:.3} |",
            i + 1,
            b - a,
            b / a
        );
    }
    let diffs: Vec<f64> = pairs.iter().map(|&(a, b)| b - a).collect();
    let ratios: Vec<f64> = pairs.iter().map(|&(a, b)| b / a).collect();
    let side = |pick: fn(&(f64, f64)) -> f64| pairs.iter().map(pick).collect::<Vec<f64>>();
    let (parent, change) = (side(|p| p.0), side(|p| p.1));
    let iqr = |v: &[f64]| quantile(v, 0.75) - quantile(v, 0.25);
    let lower = diffs.iter().filter(|&&d| d < 0.0).count();
    let higher = diffs.iter().filter(|&&d| d > 0.0).count();
    let (d_lo, d_hi) = bootstrap_median(&diffs, rng);
    let (r_lo, r_hi) = bootstrap_median(&ratios, rng);
    let n = pairs.len();
    let _ = writeln!(t);
    let _ = writeln!(
        t,
        "{metric}: change lower in {lower}/{n} pairs, higher in {higher}/{n}"
    );
    let _ = writeln!(
        t,
        "parent median {:.4} (IQR {:.4}); change median {:.4} (IQR {:.4}); medians differ by {:+.4}",
        median(&parent),
        iqr(&parent),
        median(&change),
        iqr(&change),
        median(&change) - median(&parent)
    );
    let _ = writeln!(
        t,
        "median difference {:+.4}, 95 % bootstrap interval [{d_lo:+.4}, {d_hi:+.4}]",
        median(&diffs)
    );
    let _ = writeln!(
        t,
        "median ratio {:.3}, 95 % bootstrap interval [{r_lo:.3}, {r_hi:.3}]",
        median(&ratios)
    );
    let met = match better {
        Some(Better::Lower) => d_hi < 0.0,
        Some(Better::Higher) => d_lo > 0.0,
        None => false,
    };
    let _ = match better {
        Some(b) => {
            let verdict = if met { "met" } else { "not met" };
            writeln!(t, "claim ({b:?} is better): {verdict}")
        }
        None => writeln!(t, "claim: no declared direction for `{metric}`"),
    };
    Report { table: t, met }
}

/// One side of the comparison: a worktree of its revision and the target
/// directory its `bench/run.sh` builds into.
struct Side {
    name: &'static str,
    sha: String,
    tree: PathBuf,
    target: PathBuf,
}

impl Side {
    fn bench(&self) -> PathBuf {
        self.target.join("release").join("cegbench")
    }
}

fn path_str(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Run `git` in `dir`; its trimmed stdout, or its stderr as the error.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    } else {
        Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Whether `tree` is the top of a worktree of its own. A directory
/// that is not (a leftover, or one git no longer knows) sits inside the
/// main checkout, where git would find the root's repository instead.
fn is_worktree(tree: &Path) -> bool {
    let Ok(top) = git(tree, &["rev-parse", "--show-toplevel"]) else {
        return false;
    };
    match (Path::new(&top).canonicalize(), tree.canonicalize()) {
        (Ok(top), Ok(tree)) => top == tree,
        _ => false,
    }
}

/// Put `side`'s revision in its worktree: a kept worktree is moved with
/// `checkout --detach --force`, which leaves a file that does not differ
/// untouched; anything else at its path is replaced by a new worktree.
fn checkout(root: &Path, side: &Side) -> Result<(), String> {
    if is_worktree(&side.tree) {
        return git(&side.tree, &["checkout", "--detach", "--force", &side.sha]).map(drop);
    }
    let tree = path_str(&side.tree);
    if side.tree.exists() {
        let _ = git(root, &["worktree", "remove", "--force", &tree]);
        let _ = std::fs::remove_dir_all(&side.tree);
    }
    git(root, &["worktree", "prune"])?;
    git(root, &["worktree", "add", "--detach", &tree, &side.sha]).map(drop)
}

/// Check `side` out and build it; returns what its `cegbench
/// benchmark-json` prints.
fn build(root: &Path, side: &Side) -> Result<String, String> {
    checkout(root, side)?;
    eprintln!("xtask ab: building {} ({})", side.name, &side.sha[..12]);
    let out = Command::new("bash")
        .arg(side.tree.join("bench").join("run.sh"))
        .arg("benchmark-json")
        .env("CARGO_TARGET_DIR", &side.target)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("bench/run.sh: {e}"))?;
    // The build rewrites the tracked lock file (nothing passes --locked).
    git(&side.tree, &["checkout", "--", "bench/Cargo.lock"])?;
    if !out.status.success() {
        return Err(format!(
            "{}: bench/run.sh failed ({})",
            side.name, out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The metric's better direction in a `benchmark-json` document.
fn declared_direction(benchmark_json: &str, metric: &str) -> Option<Better> {
    let doc = json::parse(benchmark_json).ok()?;
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|list| doc.get(list).and_then(Json::as_array))
        .flatten()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        .and_then(|m| match m.get("better").and_then(Json::as_str)? {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        })
}

/// The value of `metric` for `workload` among a run's record lines.
fn record_value(stdout: &str, workload: &str, metric: &str) -> Option<(f64, Option<String>)> {
    stdout
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("metric").and_then(Json::as_str) == Some(metric)
        })
        .and_then(|r| {
            let commit = r.get("commit").and_then(Json::as_str).map(str::to_string);
            Some((r.get("value")?.as_f64()?, commit))
        })
}

/// One `cegbench` run of `side`: the metric's value.
fn measure(side: &Side, args: &Args) -> Result<f64, String> {
    let mut cmd = Command::new(side.bench());
    cmd.current_dir(&side.tree)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(seconds) = &args.seconds {
        cmd.args(["--seconds", seconds]);
    }
    let out = cmd.output().map_err(|e| format!("cegbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}: cegbench failed ({}):\n{}",
            side.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (value, commit) = record_value(&stdout, &args.workload, &args.metric).ok_or_else(|| {
        format!(
            "{}: no `{}` record for workload `{}`",
            side.name, args.metric, args.workload
        )
    })?;
    if let Some(commit) = commit.filter(|c| c != "unknown") {
        if !side.sha.starts_with(&commit) {
            return Err(format!("{}: the record names commit {commit}", side.name));
        }
    }
    Ok(value)
}

fn run(root: &Path, args: &Args) -> Result<Report, String> {
    let base = root.join("target").join("ab");
    std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    let side = |name: &'static str, rev: &str| -> Result<Side, String> {
        Ok(Side {
            name,
            sha: git(
                root,
                &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
            )?,
            tree: base.join(name),
            target: base.join(format!("{name}.target")),
        })
    };
    let (parent, change) = (side("parent", &args.parent)?, side("change", &args.change)?);
    build(root, &parent)?;
    let declared = build(root, &change)?;
    let better = declared_direction(&declared, &args.metric);

    let mut rng = SplitMix(args.seed);
    let order = schedule(args.pairs, &mut rng);
    let mut pairs = Vec::with_capacity(args.pairs);
    for (i, first) in order.iter().enumerate() {
        let (a, b) = match first {
            First::Parent => {
                let a = measure(&parent, args)?;
                (a, measure(&change, args)?)
            }
            First::Change => {
                let b = measure(&change, args)?;
                (measure(&parent, args)?, b)
            }
        };
        eprintln!(
            "xtask ab: pair {}/{}: parent {a:.4}, change {b:.4}",
            i + 1,
            args.pairs
        );
        pairs.push((a, b));
    }
    let mut report = summarize(&args.metric, &order, &pairs, better, &mut rng);
    let head = format!(
        "`cargo xtask ab` {} ({}) → {} ({}): `{}` on `{}`, seed {}, {} pairs\n\n",
        args.parent,
        &parent.sha[..12],
        args.change,
        &change.sha[..12],
        args.metric,
        args.workload,
        args.seed,
        args.pairs
    );
    report.table.insert_str(0, &head);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&words)
    }

    #[test]
    fn arguments_parse_with_their_defaults() {
        let a = args("e98450e --workload wide --metric setup_s").unwrap();
        assert_eq!((a.parent.as_str(), a.change.as_str()), ("e98450e", "HEAD"));
        assert_eq!((a.pairs, a.seed, a.trace), (10, 1, false));
        assert_eq!(a.seconds, None);
        let a = args("p c --workload hot --metric m --pairs 4 --seed 9 --seconds 1 --trace 1");
        let a = a.unwrap();
        assert_eq!((a.parent.as_str(), a.change.as_str()), ("p", "c"));
        assert_eq!((a.pairs, a.seed, a.trace), (4, 9, true));
        assert_eq!(a.seconds.as_deref(), Some("1"));
        for bad in [
            "--workload w --metric m",
            "p --metric m",
            "p --workload w",
            "p c d --workload w --metric m",
            "p --workload w --metric m --pairs 1",
            "p --workload w --metric m --trace 2",
            "p --workload w --metric m --bogus 1",
            "p --workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn blocks_alternate_within_and_follow_the_seed() {
        let order = schedule(10, &mut SplitMix(1));
        assert_eq!(order.len(), 10);
        for block in order.chunks(2) {
            assert_ne!(block[0], block[1], "a block is ABBA or BAAB: {order:?}");
        }
        assert_eq!(order, schedule(10, &mut SplitMix(1)));
        let orders: Vec<Vec<First>> = (0..8).map(|s| schedule(10, &mut SplitMix(s))).collect();
        assert!(
            orders.iter().any(|o| o != &orders[0]),
            "the seed draws the order"
        );
        assert_eq!(schedule(3, &mut SplitMix(5)).len(), 3);
    }

    #[test]
    fn only_the_top_of_a_worktree_is_one() {
        let root = crate::find_repo_root(&std::env::current_dir().unwrap()).unwrap();
        assert!(is_worktree(&root));
        // Inside the main checkout git finds the root's repository: a
        // forced checkout there would rewrite the root's files.
        assert!(!is_worktree(&root.join("crates")));
        assert!(!is_worktree(&root.join("target").join("no-such-worktree")));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn a_clear_gain_is_met_and_noise_is_not() {
        let order = schedule(10, &mut SplitMix(3));
        let gain: Vec<(f64, f64)> = (0..10)
            .map(|i| (0.34 + 0.01 * (i % 3) as f64, 0.28 + 0.01 * (i % 4) as f64))
            .collect();
        let report = summarize(
            "setup_s",
            &order,
            &gain,
            Some(Better::Lower),
            &mut SplitMix(1),
        );
        assert!(report.met, "{}", report.table);
        assert!(report.table.contains("change lower in 10/10 pairs"));
        // The same gain claimed the other way is not met.
        let wrong = summarize("m", &order, &gain, Some(Better::Higher), &mut SplitMix(1));
        assert!(!wrong.met);
        // Pairs of one build: differences on both sides of zero.
        let noise: Vec<(f64, f64)> = (0..10)
            .map(|i| (0.30, 0.30 + if i % 2 == 0 { 0.01 } else { -0.01 }))
            .collect();
        let report = summarize(
            "setup_s",
            &order,
            &noise,
            Some(Better::Lower),
            &mut SplitMix(1),
        );
        assert!(!report.met, "{}", report.table);
        let undeclared = summarize("x", &order, &gain, None, &mut SplitMix(1));
        assert!(!undeclared.met);
        assert!(undeclared.table.contains("no declared direction"));
    }

    #[test]
    fn the_metric_is_read_from_the_run_records() {
        let stdout = concat!(
            "{\"workload\":\"wide\",\"metric\":\"boot_s\",\"value\":0.007,\"commit\":\"abc\"}\n",
            "{\"workload\":\"wide\",\"metric\":\"setup_s\",\"value\":0.34,\"commit\":\"abc\"}\n",
            "{\"correct\":true,\"metrics\":{\"setup_s\":{\"value\":0.34,\"unit\":\"s\"}}}\n",
        );
        let (value, commit) = record_value(stdout, "wide", "setup_s").unwrap();
        assert_eq!((value, commit.as_deref()), (0.34, Some("abc")));
        assert!(record_value(stdout, "hot", "setup_s").is_none());
        let declared = r#"{"end_to_end": [{"name": "setup_s", "better": "lower"}],
                           "per_layer": [{"name": "cache.hit_ratio", "better": "higher"}]}"#;
        assert_eq!(declared_direction(declared, "setup_s"), Some(Better::Lower));
        assert_eq!(
            declared_direction(declared, "cache.hit_ratio"),
            Some(Better::Higher)
        );
        assert_eq!(declared_direction(declared, "boot_s"), None);
    }
}
