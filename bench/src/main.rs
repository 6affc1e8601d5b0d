//! `cegbench`: wire-level benchmark of the CEG estimation service.
//! See `bench/README.md`.

mod inputs;
mod layers;
mod proc;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use proc::Scratch;
use report::{
    benchmark_json, contract_line, record_line, repeat_table, Env, Metric, END_TO_END, PER_LAYER,
    RUN_SECONDS,
};
use trace::{run_traced, Tracer};
use workload::{run_end_to_end, Ctx, Outcome, Spec, SPECS};

const USAGE: &str = "usage: cegbench [trace | repeat <n>] [--workload hot|wide|churn|cold] \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    repeat: Option<usize>,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        repeat: None,
        workload: None,
        seed: 2022,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("missing value after {flag}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "trace" => out.traced = true,
            "repeat" => {
                let n = value("repeat", &mut it)?;
                out.repeat = Some(
                    n.parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("repeat needs a count of at least 2")?,
                );
            }
            "--workload" => {
                let name = value(arg, &mut it)?;
                out.workload = Some(
                    SPECS
                        .iter()
                        .find(|s| s.name == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => out.seed = value(arg, &mut it)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                out.seconds = value(arg, &mut it)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                out.traced = match value(arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if out.smoke {
        out.seconds /= 10.0;
    }
    Ok(out)
}

fn print_records(env: &Env, spec: &Spec, seed: u64, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{}", record_line(env, spec.name, seed, &outcome.phases, m));
    }
    for v in &outcome.violations {
        eprintln!("cegbench: {}: {v}", spec.name);
    }
    if outcome.failed > 0 {
        eprintln!(
            "cegbench: {}: {} of {} operations failed",
            spec.name, outcome.failed, outcome.attempted
        );
    }
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["benchmark-json"] {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    // `<target>/release/cegbench`: the server binary is built beside it,
    // and scratch files go under the same target directory.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let release_dir = exe.parent().ok_or("executable has no directory")?;
    let cegcli = release_dir.join("cegcli");
    if !cegcli.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release --bin cegcli`",
            cegcli.display()
        ));
    }
    let target_dir: PathBuf = release_dir.parent().unwrap_or(release_dir).to_path_buf();
    let scratch = Scratch::create(&target_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let env = Env::detect(&scratch.path(""));
    let specs: Vec<&Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let mut all_correct = true;
    let mut runs = Vec::new();
    for i in 0..args.repeat.unwrap_or(1) {
        let seed = args.seed + i as u64;
        let mut run: Vec<(&str, Vec<Metric>)> = Vec::new();
        for spec in &specs {
            let ctx = Ctx {
                cegcli: &cegcli,
                scratch: &scratch,
                seed,
                seconds: args.seconds,
                smoke: args.smoke,
            };
            eprintln!(
                "cegbench: {} seed {seed} {}s{}",
                spec.name,
                args.seconds,
                if args.traced { " traced" } else { "" }
            );
            let outcome = if args.traced {
                let mut tracer = Tracer::new();
                let outcome = run_traced(spec, &ctx, &mut tracer);
                let path = target_dir
                    .join("cegbench")
                    .join(format!("trace-{}.jsonl", spec.name));
                tracer
                    .write(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                outcome?
            } else {
                run_end_to_end(spec, &ctx)?
            };
            print_records(&env, spec, seed, &outcome);
            all_correct &= outcome.correct();
            if args.workload.is_some() && args.repeat.is_none() {
                // The contract's object: exactly the declared metrics.
                let declared = if args.traced { PER_LAYER } else { END_TO_END };
                let metrics = declared
                    .iter()
                    .map(|d| outcome.metrics.iter().find(|m| m.name == d.name).cloned())
                    .collect::<Option<Vec<Metric>>>()
                    .ok_or("a declared metric was not measured")?;
                println!(
                    "{}",
                    contract_line(
                        outcome.correct(),
                        outcome.attempted.max(1),
                        outcome.failed,
                        &metrics
                    )
                );
            }
            run.push((spec.name, outcome.metrics));
        }
        runs.push(run);
    }
    if args.repeat.is_some() {
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        print!("{}", repeat_table(&names, &runs));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "cegbench: FAILED: wrong answers, failed operations or a violated workload guard"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("cegbench: {e}");
            ExitCode::from(2)
        }
    }
}
