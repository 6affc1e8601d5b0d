//! `cegcli` — command-line front end for the cegraph library.
//!
//! Run `cegcli` with no arguments for the usage block: one line per row
//! of [`COMMANDS`], the table every subcommand is declared in.
//!
//! `explain` has two forms, told apart by the first argument: a graph
//! file renders the query's CEG_O locally as DOT; a server address
//! (contains `:`) sends `EXPLAIN_ESTIMATE` and prints the estimate with
//! the server-side span/counter trace that produced it.
//!
//! `serve` drains gracefully on SIGTERM or a wire `SHUTDOWN`: it stops
//! accepting, lets in-flight work resolve to typed replies, writes one
//! final snapshot per dataset into `--drain-dir` (if given), and exits 0.
//!
//! `serve --data-dir <dir>` makes commits crash-safe: every `COMMIT` is
//! fsynced to `<dir>/default.cegwal` before it is acked, and the log is
//! periodically folded into `<dir>/default.cegsnap` (tune with
//! `--wal-rotate-bytes N` / `--snapshot-every N`). When the directory
//! already holds a snapshot, boot recovers from snapshot + WAL instead
//! of the graph arguments — a restart after `kill -9` resumes exactly
//! where the last acked commit left off. `cegcli wal` prints what a log
//! file holds (committed transactions, epoch range, any torn tail)
//! without needing a server.
//!
//! `workload` writes the same file for the same graph, count and seed
//! whatever the machine; for each template that ends short of
//! `<per-template>` instances it prints `# <template> kept k of want (b
//! over budget, e empty, a attempts)` on stderr.
//!
//! Exit discipline: argument errors print the offending subcommand's
//! usage on stderr and exit 2; runtime failures (I/O, server errors)
//! print only the message and exit 1; success exits 0.

use std::process::ExitCode;
use std::sync::Arc;

use cegraph::catalog::io::{load_markov, save_markov};
use cegraph::catalog::MarkovTable;
use cegraph::core::render::{ceg_o_to_dot, molp_path_to_string};
use cegraph::core::{molp_min_path, Aggr, CegO, Heuristic, MolpInstance, PathLen};
use cegraph::estimators::{CardinalityEstimator, OptimisticEstimator};
use cegraph::graph::io::{load_graph, save_graph};
use cegraph::service::{Client, DatasetRegistry, Server, ServerConfig};
use cegraph::workload::io::{load_workload, save_workload};
use cegraph::workload::qerror::signed_log_qerror;
use cegraph::workload::runner::build_markov_parallel;
use cegraph::workload::{Dataset, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.msg);
            // Usage errors (bad/missing arguments) get the usage dump;
            // runtime failures (I/O, server errors) already said what
            // went wrong — a usage block would only bury the message.
            if err.kind == ErrorKind::Usage {
                eprintln!();
                match err.cmd.and_then(usage_for) {
                    // An argument error inside a known subcommand: show
                    // just that subcommand's usage, not the full block.
                    Some(usage) => eprintln!("usage:\n  {usage}"),
                    None => eprintln!("{}", full_usage().trim_end()),
                }
            }
            ExitCode::from(err.exit_code())
        }
    }
}

/// How a CLI invocation failed — the two classes exit differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// The arguments were wrong: usage on stderr, exit 2.
    Usage,
    /// The arguments were fine but the work failed: message only, exit 1.
    Runtime,
}

/// A CLI failure: the kind, the message, and (once `run` has found the
/// subcommand's row) whose usage to print for usage errors.
#[derive(Debug)]
struct CmdError {
    cmd: Option<&'static str>,
    kind: ErrorKind,
    msg: String,
}

impl CmdError {
    fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Runtime => 1,
        }
    }

    fn usage(msg: impl Into<String>) -> CmdError {
        CmdError {
            cmd: None,
            kind: ErrorKind::Usage,
            msg: msg.into(),
        }
    }

    fn runtime(msg: impl ToString) -> CmdError {
        CmdError {
            cmd: None,
            kind: ErrorKind::Runtime,
            msg: msg.to_string(),
        }
    }
}

/// `?`-friendly conversions: bare strings are argument-parsing errors
/// (the dominant case in the subcommand bodies), I/O errors are runtime.
impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::usage(msg)
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> Self {
        CmdError::usage(msg)
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::runtime(e)
    }
}

type CmdResult = Result<(), CmdError>;

/// One subcommand: its name; its positional arguments as the usage line
/// shows them; the `--flag`s its handler strips, as the usage line shows
/// them (one written `--name <placeholder>` takes a value); the most
/// arguments that may be left once those are stripped; the handler.
type Row = (
    &'static str,
    &'static str,
    &'static [&'static str],
    usize,
    fn(&[String]) -> CmdResult,
);

#[rustfmt::skip]
const COMMANDS: &[Row] = &[
    ("generate", "<imdb|yago|dblp|watdiv|hetionet|epinions> <seed> <out.edges>", &[], 3, generate),
    ("workload", "<graph.edges> <job|acyclic|cyclic|gcare-acyclic|gcare-cyclic> <per-template> <seed> <out.wl>", &[], 5, workload),
    ("stats", "<graph.edges> <queries.wl> <h> <out.markov>", &["--jobs N"], 4, stats),
    ("estimate", "<graph.edges> <queries.wl> [markov.file] [heuristic]", &["--jobs N"], 4, estimate),
    ("molp", "<graph.edges> <queries.wl>", &[], 2, molp),
    // A graph file renders the query's CEG_O as DOT; a server address
    // prints the estimate and the server-side trace behind it.
    ("explain", "(<graph.edges> | <addr>) <queries.wl> <query-index> [dataset]", &["--deadline-ms N"], 4, explain),
    ("serve", "<addr> [<graph.edges> [markov.file|-] [h]]",
     &["--snapshot <file.cegsnap>", "--data-dir <dir>", "--wal-rotate-bytes N", "--snapshot-every N", "--jobs N", "--drain-dir <dir>"],
     4, serve),
    ("query", "<addr> <queries.wl> [dataset]", &["--batch", "--deadline-ms N"], 3, query_cmd),
    ("update", "<addr> <updates.upd> [dataset]", &[], 3, update_cmd),
    ("snapshot", "<addr> <out.cegsnap> [dataset]", &[], 3, snapshot_cmd),
    ("metrics", "<addr>", &[], 1, metrics_cmd),
    ("prom", "<addr>", &["--check"], 1, prom_cmd),
    ("slowlog", "<addr> [n]", &[], 2, slowlog_cmd),
    ("shutdown", "<addr>", &[], 1, shutdown_cmd),
    ("wal", "<file.cegwal>", &[], 1, wal_cmd),
    // The same pass as `cargo xtask lint`; the exit code carries the
    // verdict (0 clean, 1 diagnostics, 2 could not run).
    ("lint", "", &[], 0, |_| std::process::exit(ceg_lint::lint_main())),
];

fn usage_line(&(name, args, flags, ..): &Row) -> String {
    let mut line = format!("cegcli {name} {args}");
    for flag in flags {
        line.push_str(&format!(" [{flag}]"));
    }
    // `lint` takes nothing.
    line.trim_end().to_string()
}

fn usage_for(cmd: &str) -> Option<String> {
    COMMANDS.iter().find(|row| row.0 == cmd).map(usage_line)
}

fn full_usage() -> String {
    let mut out = String::from("usage:\n");
    for row in COMMANDS {
        out.push_str("  ");
        out.push_str(&usage_line(row));
        out.push('\n');
    }
    out
}

/// Strip the subcommand's `flags` from `args`: more than `max` arguments
/// left is an error here, for every subcommand, before its handler opens
/// a file or a socket.
fn check_positionals(args: &[String], flags: &[&str], max: usize) -> Result<(), String> {
    let mut rest = args.to_vec();
    for flag in flags {
        rest = match flag.split_once(' ') {
            Some((valued, _)) => take_opt(&rest, valued.trim_start_matches('-'))?.0,
            None => take_flag(&rest, flag.trim_start_matches('-')).0,
        };
    }
    if rest.len() > max {
        return Err("unexpected extra arguments".into());
    }
    Ok(())
}

fn run(args: &[String]) -> CmdResult {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CmdError::usage("missing command"))?;
    let &(name, _, flags, max, handler) = COMMANDS
        .iter()
        .find(|row| row.0 == cmd)
        .ok_or_else(|| CmdError::usage(format!("unknown command `{cmd}`")))?;
    check_positionals(rest, flags, max)
        .map_err(CmdError::from)
        .and_then(|()| handler(rest))
        .map_err(|e| CmdError {
            cmd: Some(name),
            ..e
        })
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    Ok(match name {
        "imdb" => Dataset::Imdb,
        "yago" => Dataset::Yago,
        "dblp" => Dataset::Dblp,
        "watdiv" => Dataset::Watdiv,
        "hetionet" => Dataset::Hetionet,
        "epinions" => Dataset::Epinions,
        _ => return Err(format!("unknown dataset `{name}`")),
    })
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Ok(match name {
        "job" => Workload::Job,
        "acyclic" => Workload::Acyclic,
        "cyclic" => Workload::Cyclic,
        "gcare-acyclic" => Workload::GCareAcyclic,
        "gcare-cyclic" => Workload::GCareCyclic,
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

fn parse_heuristic(name: &str) -> Result<Heuristic, String> {
    for h in Heuristic::all() {
        if h.name() == name {
            return Ok(h);
        }
    }
    Err(format!("unknown heuristic `{name}` (try max-hop-max)"))
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing {what}"))
}

/// Strip `--jobs N` (see [`take_opt`]) and return the worker count:
/// 1 (serial) without the flag, every available core for `--jobs 0`.
fn take_jobs(args: &[String]) -> Result<(Vec<String>, usize), String> {
    let (rest, value) = take_opt(args, "jobs")?;
    let jobs = match value {
        None => 1,
        Some(n) => match n.parse().map_err(|_| format!("bad --jobs value `{n}`"))? {
            // Explicit "all cores": uncapped, unlike the conservative
            // default_build_parallelism() used by implicit callers.
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            jobs => jobs,
        },
    };
    Ok((rest, jobs))
}

/// Strip `--deadline-ms N` (see [`take_opt`]): the per-request deadline
/// of `query` and wire `explain`.
fn take_deadline_ms(args: &[String]) -> Result<(Vec<String>, Option<u64>), String> {
    let (rest, value) = take_opt(args, "deadline-ms")?;
    let deadline_ms = value
        .map(|s| {
            s.parse()
                .map_err(|_| format!("bad --deadline-ms value `{s}`"))
        })
        .transpose()?;
    Ok((rest, deadline_ms))
}

/// Strip a boolean `--<name>` flag from the argument list. A repeated
/// flag is harmless (idempotent), so it is not an error.
fn take_flag(args: &[String], name: &str) -> (Vec<String>, bool) {
    let flag = format!("--{name}");
    let rest: Vec<String> = args.iter().filter(|a| **a != flag).cloned().collect();
    let present = rest.len() != args.len();
    (rest, present)
}

/// Strip a valued `--<name> <value>` / `--<name>=<value>` option from the
/// argument list. A repeated option is an error (a silent last-one-wins
/// hides typos in scripts), and so is a flag-shaped value, so `--jobs
/// --foo` reports the missing value instead of a confusing parse failure.
fn take_opt(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value: Option<String> = None;
    let mut set = |v: String| -> Result<(), String> {
        if value.replace(v).is_some() {
            return Err(format!("duplicate {flag} flag"));
        }
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == flag {
            let v = it.next().ok_or(format!("missing value after {flag}"))?;
            if v.starts_with('-') {
                return Err(format!(
                    "{flag} needs a value, got the flag-like token `{v}`"
                ));
            }
            set(v.clone())?;
        } else if let Some(v) = a.strip_prefix(&prefix) {
            if v.starts_with('-') {
                return Err(format!(
                    "{flag} needs a value, got the flag-like token `{v}`"
                ));
            }
            set(v.to_string())?;
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, value))
}

fn generate(args: &[String]) -> CmdResult {
    let ds = parse_dataset(arg(args, 0, "dataset")?)?;
    let seed: u64 = arg(args, 1, "seed")?.parse().map_err(|_| "bad seed")?;
    let out = arg(args, 2, "output path")?;
    let g = ds.generate(seed);
    save_graph(&g, out).map_err(CmdError::runtime)?;
    println!(
        "{}: |V|={} |E|={} labels={} -> {out}",
        ds.name(),
        g.num_vertices(),
        g.num_edges(),
        g.num_labels()
    );
    Ok(())
}

fn workload(args: &[String]) -> CmdResult {
    // Validate every argument before touching the filesystem, so bad
    // invocations are always usage errors, never half-done work.
    let graph_path = arg(args, 0, "graph path")?;
    let wl = parse_workload(arg(args, 1, "workload")?)?;
    let per: usize = arg(args, 2, "per-template")?
        .parse()
        .map_err(|_| "bad per-template")?;
    let seed: u64 = arg(args, 3, "seed")?.parse().map_err(|_| "bad seed")?;
    let out = arg(args, 4, "output path")?;
    let g = load_graph(graph_path).map_err(CmdError::runtime)?;
    let (queries, reports) = wl.build_reported(&g, per, seed);
    for r in reports.iter().filter(|r| r.kept < r.want) {
        eprintln!(
            "# {} kept {} of {} ({} over budget, {} empty, {} attempts)",
            r.template, r.kept, r.want, r.over_budget, r.empty, r.attempts
        );
    }
    save_workload(&queries, out).map_err(CmdError::runtime)?;
    println!("{}: {} queries -> {out}", wl.name(), queries.len());
    Ok(())
}

fn stats(args: &[String]) -> CmdResult {
    let (args, jobs) = take_jobs(args)?;
    // Arguments first, filesystem second (see `workload`).
    let graph_path = arg(&args, 0, "graph path")?;
    let workload_path = arg(&args, 1, "workload path")?;
    let h: usize = arg(&args, 2, "h")?.parse().map_err(|_| "bad h")?;
    let out = arg(&args, 3, "output path")?;
    let g = load_graph(graph_path).map_err(CmdError::runtime)?;
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let table = build_markov_parallel(&g, &queries, h, jobs);
    save_markov(&table, out).map_err(CmdError::runtime)?;
    println!(
        "markov table h={h}: {} entries (~{:.1} KB, {jobs} jobs) -> {out}",
        table.len(),
        table.approx_bytes() as f64 / 1024.0
    );
    Ok(())
}

fn estimate(args: &[String]) -> CmdResult {
    let (args, jobs) = take_jobs(args)?;
    let args = &args[..];
    // Arguments first, filesystem (and catalog building) second (see
    // `workload`) — a bad heuristic name must not cost two file loads
    // and a catalog build before it is reported.
    let graph_path = arg(args, 0, "graph path")?;
    let workload_path = arg(args, 1, "workload path")?;
    let heuristic = match args.get(3) {
        Some(name) => parse_heuristic(name)?,
        None => Heuristic::new(PathLen::MaxHop, Aggr::Max),
    };
    let g = load_graph(graph_path).map_err(CmdError::runtime)?;
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let table = match args.get(2) {
        Some(path) => load_markov(path).map_err(CmdError::runtime)?,
        None => build_markov_parallel(&g, &queries, 2, jobs),
    };
    let mut est = OptimisticEstimator::new(&table, heuristic);
    println!(
        "{:<20} {:>14} {:>14} {:>9}",
        "template", "estimate", "truth", "log10-q"
    );
    for wq in &queries {
        match est.estimate(&wq.query) {
            Some(e) => println!(
                "{:<20} {:>14.1} {:>14.1} {:>9.2}",
                wq.template,
                e,
                wq.truth,
                signed_log_qerror(e, wq.truth)
            ),
            None => println!("{:<20} {:>14} {:>14.1}", wq.template, "-", wq.truth),
        }
    }
    Ok(())
}

fn molp(args: &[String]) -> CmdResult {
    let g = load_graph(arg(args, 0, "graph path")?).map_err(CmdError::runtime)?;
    let queries = load_workload(arg(args, 1, "workload path")?).map_err(CmdError::runtime)?;
    for wq in &queries {
        let inst = MolpInstance::from_graph(&g, &wq.query);
        let Some((bound, steps)) = molp_min_path(&inst) else {
            println!("{}: unbounded", wq.template);
            continue;
        };
        println!(
            "{}: MOLP bound {bound:.1} (truth {}), minimum path:",
            wq.template, wq.truth
        );
        print!("{}", molp_path_to_string(&wq.query, &steps));
    }
    Ok(())
}

fn explain(args: &[String]) -> CmdResult {
    // Two forms share the verb: a server address (contains `:`) sends
    // EXPLAIN_ESTIMATE to a running server; a graph file renders the
    // CEG_O locally. File paths with a colon are not a thing this CLI
    // produces, addresses without one are not accepted by `connect`.
    if arg(args, 0, "graph path or server address")?.contains(':') {
        return explain_wire(args);
    }
    if args.len() > 3 {
        return Err(CmdError::usage(
            "a graph file takes neither [dataset] nor --deadline-ms",
        ));
    }
    // Arguments first, filesystem second (see `workload`).
    let graph_path = arg(args, 0, "graph path")?;
    let workload_path = arg(args, 1, "workload path")?;
    let idx: usize = arg(args, 2, "query index")?
        .parse()
        .map_err(|_| "bad index")?;
    let g = load_graph(graph_path).map_err(CmdError::runtime)?;
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let wq = queries.get(idx).ok_or("query index out of range")?;
    let table = MarkovTable::build_for_query(&g, &wq.query, 2);
    let ceg = CegO::build(&wq.query, &table);
    print!("{}", ceg_o_to_dot(&ceg, &wq.query));
    Ok(())
}

/// The wire form of `explain`: send one workload query as
/// `EXPLAIN_ESTIMATE` and print the estimate plus the server-side trace
/// (named wall-clock spans and counters) that produced it.
fn explain_wire(args: &[String]) -> CmdResult {
    use cegraph::service::QueryReply;
    let (args, deadline_ms) = take_deadline_ms(args)?;
    // Arguments first, filesystem second (see `workload`).
    let addr = arg(&args, 0, "server address")?;
    let workload_path = arg(&args, 1, "workload path")?;
    let idx: usize = arg(&args, 2, "query index")?
        .parse()
        .map_err(|_| "bad index")?;
    let dataset = args.get(3).map(String::as_str).unwrap_or("default");
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let wq = queries.get(idx).ok_or("query index out of range")?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let ex = client
        .explain(dataset, &wq.query, deadline_ms)
        .map_err(CmdError::runtime)?;
    println!(
        "query {idx} ({}) on `{dataset}` id={}",
        wq.template,
        ex.id.map_or_else(|| "?".to_string(), |i| i.to_string())
    );
    match &ex.reply {
        QueryReply::Estimate(r) => {
            let cache = if r.cached { "hit" } else { "miss" };
            match r.value {
                Some(e) => println!(
                    "estimate {e:.1} (truth {:.1}, log10-q {:.2}, cache {cache})",
                    wq.truth,
                    signed_log_qerror(e, wq.truth)
                ),
                None => println!("estimate - (truth {:.1}, cache {cache})", wq.truth),
            }
        }
        QueryReply::Timeout { deadline_ms } => println!("timeout after {deadline_ms}ms"),
        QueryReply::Busy(msg) => println!("busy: {msg}"),
    }
    println!("spans:");
    for (name, micros) in &ex.spans {
        println!("  {name:<28} {micros:>10} us");
    }
    println!("counters:");
    for (name, value) in &ex.counters {
        println!("  {name:<28} {value:>10}");
    }
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// SIGTERM (and nothing else) flips this; the serve loop notices and
/// starts a graceful drain. A signal handler may only do async-signal-safe
/// work, which a relaxed store into a static atomic is.
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_RECEIVED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Install the SIGTERM handler via the raw libc `signal(2)` symbol — the
/// build environment has no crates-registry access, so no `libc`/`signal-hook`.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Run the estimation server until a drain is requested (SIGTERM or the
/// wire `SHUTDOWN` command), then exit 0 after writing one final
/// snapshot per dataset into `--drain-dir` (if given). The graph (and
/// optional persisted Markov catalog) is loaded once and registered as
/// dataset `default`; without a catalog (omitted or `-`), statistics are
/// counted on demand at hop depth `h` (default 2, like `cegcli stats`)
/// as requests arrive and kept warm. `--jobs N` counts missing patterns
/// on up to `N` worker threads (`--jobs 0` = all cores).
fn serve(args: &[String]) -> CmdResult {
    let (args, jobs) = take_jobs(args)?;
    let (args, snapshot_path) = take_opt(&args, "snapshot")?;
    let (args, drain_dir) = take_opt(&args, "drain-dir")?;
    let (args, data_dir) = take_opt(&args, "data-dir")?;
    let (args, rotate_bytes) = take_opt(&args, "wal-rotate-bytes")?;
    let (args, snapshot_every) = take_opt(&args, "snapshot-every")?;
    let args = &args[..];
    let defaults = ServerConfig::default();
    let parse_u64 = |name: &str, v: &Option<String>, default: u64| -> Result<u64, CmdError> {
        match v {
            Some(s) => s
                .parse()
                .map_err(|_| CmdError::usage(format!("bad --{name} value `{s}`"))),
            None => Ok(default),
        }
    };
    let wal_rotate_bytes = parse_u64("wal-rotate-bytes", &rotate_bytes, defaults.wal_rotate_bytes)?;
    let snapshot_interval_commits = parse_u64(
        "snapshot-every",
        &snapshot_every,
        defaults.snapshot_interval_commits,
    )?;
    if data_dir.is_none() && (rotate_bytes.is_some() || snapshot_every.is_some()) {
        return Err(CmdError::usage(
            "--wal-rotate-bytes / --snapshot-every tune the write-ahead log, which needs --data-dir",
        ));
    }
    if data_dir.is_some() && snapshot_path.is_some() {
        return Err(CmdError::usage(
            "--data-dir and --snapshot both pick the boot state; use one",
        ));
    }
    let addr = arg(args, 0, "listen address")?;
    let registry = Arc::new(DatasetRegistry::with_jobs(jobs));
    // Load the graph/markov/h positional arguments — the cold-boot path,
    // shared by plain serving and the first boot of a durable data dir.
    let load_from_files =
        |args: &[String]| -> Result<Arc<cegraph::service::DatasetEntry>, CmdError> {
            let graph_path = arg(args, 1, "graph path")?;
            let markov_path = args.get(2).map(String::as_str).filter(|p| *p != "-");
            let h: usize = match args.get(3) {
                Some(s) => s.parse().map_err(|_| "bad h")?,
                None => 2,
            };
            if args.len() > 4 {
                return Err(CmdError::usage("unexpected extra arguments"));
            }
            let entry = registry
                .load_files("default", graph_path, markov_path, h)
                .map_err(CmdError::runtime)?;
            // A persisted catalog carries its own hop depth; refuse a
            // contradictory explicit h instead of silently ignoring it.
            if args.get(3).is_some() && entry.h() != h {
                return Err(CmdError::usage(format!(
                    "markov file was built at h={}, which contradicts the requested h={h}",
                    entry.h()
                )));
            }
            Ok(entry)
        };
    let mut recovery: Option<cegraph::service::RecoveryReport> = None;
    let mut boot_note = "";
    let entry = if let Some(dir) = &data_dir {
        use cegraph::graph::snapshot::sweep_orphan_temps;
        use cegraph::graph::vfs::OsStorage;
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        // A hard crash mid-rotation can leave half-written temp files
        // behind; sweep them before any writer is live.
        let swept = sweep_orphan_temps(&OsStorage, dir)?;
        for path in &swept {
            println!("swept orphaned temp file {}", path.display());
        }
        let snap = dir.join("default.cegsnap");
        let wal = dir.join("default.cegwal");
        if snap.exists() {
            // The data dir is authoritative once initialized: the graph
            // arguments were its seed and are ignored on restart, so the
            // exact same command line survives a crash loop.
            if args.len() > 1 {
                println!(
                    "data dir {} is already initialized; recovering from it and \
                     ignoring the graph arguments",
                    dir.display()
                );
            }
            let (entry, report) = registry
                .recover("default", Arc::new(OsStorage), &snap, &wal)
                .map_err(CmdError::runtime)?;
            println!(
                "recovered `default` from {}: snapshot epoch {}, replayed {} commits \
                 ({} ops) -> epoch {}{}",
                dir.display(),
                report.snapshot_epoch,
                report.replayed_commits,
                report.replayed_ops,
                report.epoch,
                report
                    .torn_tail
                    .as_deref()
                    .map(|d| format!(", torn tail truncated ({d})"))
                    .unwrap_or_default(),
            );
            recovery = Some(report);
            boot_note = ", recovered from data dir";
            entry
        } else {
            let entry = load_from_files(args)?;
            entry
                .attach_durability(Arc::new(OsStorage), &snap, &wal)
                .map_err(CmdError::runtime)?;
            boot_note = ", durable commits";
            entry
        }
    } else if let Some(snap) = &snapshot_path {
        // Boot-time restore: the snapshot carries graph, catalog and
        // epoch, so a graph/markov/h argument would contradict it.
        if args.len() > 1 {
            return Err(CmdError::usage(
                "--snapshot replaces the graph/markov/h arguments",
            ));
        }
        boot_note = ", restored from snapshot";
        registry
            .load_snapshot("default", snap)
            .map_err(CmdError::runtime)?
    } else {
        load_from_files(args)?
    };
    let config = ServerConfig {
        drain_snapshot_dir: drain_dir.map(std::path::PathBuf::from),
        wal_rotate_bytes,
        snapshot_interval_commits,
        ..ServerConfig::default()
    };
    let server = Server::start(registry, addr, config.clone()).map_err(CmdError::runtime)?;
    if let Some(report) = &recovery {
        server.engine().record_recovery(report);
    }
    let (num_vertices, num_edges) = entry.graph_summary();
    println!(
        "serving `default` ({} vertices, {} edges, {} catalog entries, epoch {}) on {} \
         [estimates run on their connection's thread, cache {} buckets, {} catalog jobs{}]",
        num_vertices,
        num_edges,
        entry.catalog_len(),
        entry.epoch(),
        server.local_addr(),
        config.cache_capacity,
        entry.jobs(),
        boot_note,
    );
    // Serve until a drain is requested: SIGTERM flips the static flag
    // (checked every wakeup), the wire SHUTDOWN command trips the
    // server's own condvar directly.
    install_sigterm_handler();
    loop {
        if SIGTERM_RECEIVED.load(std::sync::atomic::Ordering::Relaxed) {
            server.request_drain();
        }
        if server.wait_drain_requested(std::time::Duration::from_millis(200)) {
            break;
        }
    }
    println!("drain requested, shutting down...");
    let report = server.drain().map_err(CmdError::runtime)?;
    for (name, path, bytes) in &report.snapshots {
        println!(
            "final snapshot of `{name}` -> {} ({bytes} bytes)",
            path.display()
        );
    }
    if report.abandoned > 0 {
        println!("{} in-flight requests abandoned at drain", report.abandoned);
    }
    println!("drained, exiting");
    Ok(())
}

/// Send every query of a workload file to a running server and print the
/// estimates next to the stored ground truth. With `--batch`, the whole
/// workload travels as one `ESTIMATE_BATCH` — a single wire round-trip
/// instead of one per query. `--deadline-ms N` bounds each request (the
/// whole batch, with `--batch`); overload rejections print as `busy` /
/// `timeout` rows rather than aborting the run.
fn query_cmd(args: &[String]) -> CmdResult {
    use cegraph::service::QueryReply;
    let (args, batch) = take_flag(args, "batch");
    let (args, deadline_ms) = take_deadline_ms(&args)?;
    // Arguments first, filesystem second (see `workload`).
    let addr = arg(&args, 0, "server address")?;
    let workload_path = arg(&args, 1, "workload path")?;
    let dataset = args.get(2).map(String::as_str).unwrap_or("default");
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let replies: Vec<QueryReply> = if batch {
        let qs: Vec<_> = queries.iter().map(|wq| wq.query.clone()).collect();
        client
            .estimate_batch_with_deadline(dataset, &qs, deadline_ms)
            .map_err(CmdError::runtime)?
    } else {
        let mut replies = Vec::with_capacity(queries.len());
        for wq in &queries {
            replies.push(
                client
                    .estimate_with_deadline(dataset, &wq.query, deadline_ms)
                    .map_err(CmdError::runtime)?,
            );
        }
        replies
    };
    println!(
        "{:<20} {:>14} {:>14} {:>9} {:>6}",
        "template", "estimate", "truth", "log10-q", "cache"
    );
    let (mut busy, mut timeouts) = (0usize, 0usize);
    for (wq, reply) in queries.iter().zip(&replies) {
        let reply = match reply {
            QueryReply::Estimate(r) => r,
            QueryReply::Busy(_) => {
                busy += 1;
                println!("{:<20} {:>14} {:>14.1}", wq.template, "busy", wq.truth);
                continue;
            }
            QueryReply::Timeout { .. } => {
                timeouts += 1;
                println!("{:<20} {:>14} {:>14.1}", wq.template, "timeout", wq.truth);
                continue;
            }
        };
        let cache = if reply.cached { "hit" } else { "miss" };
        match reply.value {
            Some(e) => println!(
                "{:<20} {:>14.1} {:>14.1} {:>9.2} {:>6}",
                wq.template,
                e,
                wq.truth,
                signed_log_qerror(e, wq.truth),
                cache
            ),
            None => println!(
                "{:<20} {:>14} {:>14.1} {:>9} {:>6}",
                wq.template, "-", wq.truth, "-", cache
            ),
        }
    }
    if busy + timeouts > 0 {
        println!("{busy} busy rejections, {timeouts} timeouts");
    }
    let stats = client.stats().map_err(CmdError::runtime)?;
    println!(
        "server: {} requests in {} batches, cache {} hits / {} misses",
        stats.requests, stats.batches, stats.cache_hits, stats.cache_misses
    );
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Stream a scripted `.upd` update file to a running server: `add`/`del`
/// lines buffer into the dataset's pending delta, each `commit` applies
/// the batch and prints what it did (epoch, effective adds/dels, catalog
/// entries recounted, whether the commit changed the graph).
fn update_cmd(args: &[String]) -> CmdResult {
    use cegraph::workload::updates::{load_updates, UpdateOp};
    let addr = arg(args, 0, "server address")?;
    let stream = load_updates(arg(args, 1, "updates path")?).map_err(CmdError::runtime)?;
    let dataset = args.get(2).map(String::as_str).unwrap_or("default");
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let (mut adds, mut dels, mut commits) = (0usize, 0usize, 0usize);
    for op in &stream {
        match *op {
            UpdateOp::Add { src, dst, label } => {
                client
                    .add_edge(dataset, src, dst, label)
                    .map_err(CmdError::runtime)?;
                adds += 1;
            }
            UpdateOp::Del { src, dst, label } => {
                client
                    .del_edge(dataset, src, dst, label)
                    .map_err(CmdError::runtime)?;
                dels += 1;
            }
            UpdateOp::Commit => {
                let c = client.commit(dataset).map_err(CmdError::runtime)?;
                commits += 1;
                println!(
                    "commit #{commits}: epoch={} added={} deleted={} recounted={} rebased={}",
                    c.epoch, c.added, c.deleted, c.recounted, c.rebased
                );
            }
        }
    }
    println!(
        "streamed {} operations ({adds} adds, {dels} dels, {commits} commits) to `{dataset}`",
        stream.len()
    );
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Ask a running server to persist a dataset's committed graph, Markov
/// catalog and epoch to a binary `.cegsnap` file on the **server's**
/// filesystem; `cegcli serve --snapshot <file>` restores from it.
fn snapshot_cmd(args: &[String]) -> CmdResult {
    let addr = arg(args, 0, "server address")?;
    let path = arg(args, 1, "snapshot output path")?;
    let dataset = args.get(2).map(String::as_str).unwrap_or("default");
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let ack = client.snapshot(dataset, path).map_err(CmdError::runtime)?;
    println!(
        "snapshot of `{dataset}` at epoch {} -> {path} ({} bytes)",
        ack.epoch, ack.bytes
    );
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Dump a running server's metrics registry (latency quantiles per
/// command, queue depths, BUSY/timeout/error counters) as `<key> <value>`
/// lines — grep-friendly for dashboards and CI smoke checks.
fn metrics_cmd(args: &[String]) -> CmdResult {
    let addr = arg(args, 0, "server address")?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let pairs = client.metrics().map_err(CmdError::runtime)?;
    for (key, value) in &pairs {
        println!("{key} {value}");
    }
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Dump a running server's metrics registry in Prometheus text
/// exposition format (the `METRICS_PROM` command). With `--check`, the
/// exposition is also validated locally — every `# TYPE`d family has at
/// least one sample, histogram buckets are cumulative and agree with
/// `_count` — and a malformed exposition is a runtime error (exit 1),
/// which is what the CI smoke step greps for.
fn prom_cmd(args: &[String]) -> CmdResult {
    let (args, check) = take_flag(args, "check");
    let addr = arg(&args, 0, "server address")?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let lines = client.metrics_prom().map_err(CmdError::runtime)?;
    for line in &lines {
        println!("{line}");
    }
    if check {
        let (families, samples) = check_exposition(&lines).map_err(CmdError::runtime)?;
        eprintln!("exposition OK: {families} families, {samples} samples");
    }
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Validate a Prometheus text exposition: every sample belongs to a
/// declared (`# TYPE`) family, every declared family has at least one
/// sample, histogram buckets are cumulative with a closing `+Inf` that
/// matches `_count`. Returns `(families, samples)` on success.
fn check_exposition(lines: &[String]) -> Result<(usize, usize), String> {
    use std::collections::HashMap;
    #[derive(Default)]
    struct Hist {
        last_bucket: Option<f64>,
        inf: Option<f64>,
        count: Option<f64>,
    }
    let mut families: HashMap<String, &str> = HashMap::new();
    let mut sampled: HashMap<String, usize> = HashMap::new();
    let mut hists: HashMap<String, Hist> = HashMap::new();
    let mut samples = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or(format!("line {lineno}: # TYPE without a metric name"))?;
            let kind = match it.next() {
                Some(k @ ("counter" | "gauge" | "histogram")) => k,
                Some(k) => return Err(format!("line {lineno}: unknown metric type `{k}`")),
                None => return Err(format!("line {lineno}: # TYPE `{name}` without a type")),
            };
            if families.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {lineno}: duplicate # TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (id, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: sample without a value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value `{value}`"))?;
        let name = id.split('{').next().unwrap_or(id);
        // A histogram's samples carry suffixed names; fold them back
        // onto the declared family.
        let family = [("_bucket"), ("_sum"), ("_count")]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| families.get(*base).copied() == Some("histogram"))
            })
            .unwrap_or(name);
        let Some(&kind) = families.get(family) else {
            return Err(format!(
                "line {lineno}: sample `{name}` has no preceding # TYPE"
            ));
        };
        *sampled.entry(family.to_string()).or_insert(0) += 1;
        samples += 1;
        if kind == "counter" && value < 0.0 {
            return Err(format!("line {lineno}: negative counter `{name}`"));
        }
        if kind == "histogram" {
            let h = hists.entry(family.to_string()).or_default();
            if name.ends_with("_bucket") {
                if h.last_bucket.is_some_and(|last| value < last) {
                    return Err(format!(
                        "line {lineno}: bucket of `{family}` not cumulative ({value} after {})",
                        h.last_bucket.unwrap()
                    ));
                }
                h.last_bucket = Some(value);
                if id.contains("le=\"+Inf\"") {
                    h.inf = Some(value);
                }
            } else if name.ends_with("_count") {
                h.count = Some(value);
            }
        }
    }
    for name in families.keys() {
        if sampled.get(name).copied().unwrap_or(0) == 0 {
            return Err(format!("family `{name}` declared but has no samples"));
        }
    }
    for (name, h) in &hists {
        let inf = h
            .inf
            .ok_or(format!("histogram `{name}` lacks an le=\"+Inf\" bucket"))?;
        match h.count {
            Some(c) if c == inf => {}
            Some(c) => {
                return Err(format!(
                    "histogram `{name}`: _count {c} disagrees with +Inf bucket {inf}"
                ))
            }
            None => return Err(format!("histogram `{name}` lacks a _count sample")),
        }
    }
    Ok((families.len(), samples))
}

/// Dump a running server's slow-query log, newest first (the `SLOWLOG`
/// command): request id, dataset, epoch, phase timings and the query
/// itself for every over-threshold estimate the server kept.
fn slowlog_cmd(args: &[String]) -> CmdResult {
    let addr = arg(args, 0, "server address")?;
    let n: Option<usize> = args
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad entry count `{s}`")))
        .transpose()?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    let entries = client.slowlog(n).map_err(CmdError::runtime)?;
    if entries.is_empty() {
        println!("slow-query log is empty");
    }
    for e in &entries {
        println!(
            "id={} dataset={} epoch={} total={}us (cache {}us, fill {}us, estimate {}us) query: {}",
            e.id, e.dataset, e.epoch, e.micros, e.cache_us, e.fill_us, e.estimate_us, e.query
        );
    }
    client.quit().map_err(CmdError::runtime)?;
    Ok(())
}

/// Ask a running server to drain gracefully: it stops accepting work,
/// answers in-flight clients with typed replies, writes its final
/// snapshots (if configured with `--drain-dir`) and exits 0.
fn shutdown_cmd(args: &[String]) -> CmdResult {
    let addr = arg(args, 0, "server address")?;
    let mut client = Client::connect(addr).map_err(CmdError::runtime)?;
    client.shutdown_server().map_err(CmdError::runtime)?;
    println!("server at {addr} is draining");
    // No QUIT: `DRAINING` is the whole contract. The server process may
    // exit the moment that line is on the wire, and a farewell sent to a
    // closed socket would turn a successful shutdown into exit code 1.
    Ok(())
}

/// Inspect a `.cegwal` write-ahead log offline: the committed
/// transactions it holds (epoch and operation counts), how much of the
/// file is trustworthy, and — after a crash — the scanner's diagnosis
/// of the torn tail. Damage is reported, never "repaired": the file is
/// only read.
fn wal_cmd(args: &[String]) -> CmdResult {
    use cegraph::graph::wal::scan_bytes;
    let path = arg(args, 0, "WAL path")?;
    let bytes = std::fs::read(path).map_err(CmdError::runtime)?;
    let scan = scan_bytes(&bytes).map_err(CmdError::runtime)?;
    println!(
        "{path}: {} bytes, {} records, {} committed transactions",
        bytes.len(),
        scan.records,
        scan.txs.len()
    );
    for tx in &scan.txs {
        let (adds, dels) = tx
            .ops
            .iter()
            .fold((0usize, 0usize), |(a, d), op| match op.del {
                false => (a + 1, d),
                true => (a, d + 1),
            });
        println!(
            "  epoch {:>6}: {:>5} ops ({adds} adds, {dels} dels)",
            tx.epoch,
            tx.ops.len()
        );
    }
    match (scan.last_epoch(), scan.txs.first()) {
        (Some(last), Some(first)) => println!("epoch range {}..={last}", first.epoch),
        _ => println!("no committed transactions"),
    }
    let trailing = bytes.len() as u64 - scan.valid_len.min(bytes.len() as u64);
    match &scan.diagnosis {
        Some(why) => println!(
            "torn tail: {trailing} trailing bytes beyond valid length {} ({why}); \
             re-opening for append would truncate them",
            scan.valid_len
        ),
        None => println!(
            "clean: every byte accounted for (valid length {})",
            scan.valid_len
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{take_flag, take_jobs, take_opt};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_jobs_default_is_serial() {
        let (rest, jobs) = take_jobs(&strs(&["a", "b"])).unwrap();
        assert_eq!(rest, strs(&["a", "b"]));
        assert_eq!(jobs, 1);
    }

    #[test]
    fn take_jobs_accepts_both_spellings() {
        let (rest, jobs) = take_jobs(&strs(&["a", "--jobs", "3", "b"])).unwrap();
        assert_eq!(rest, strs(&["a", "b"]));
        assert_eq!(jobs, 3);
        let (rest, jobs) = take_jobs(&strs(&["--jobs=5", "x"])).unwrap();
        assert_eq!(rest, strs(&["x"]));
        assert_eq!(jobs, 5);
    }

    #[test]
    fn take_jobs_zero_means_all_cores() {
        let (_, jobs) = take_jobs(&strs(&["--jobs", "0"])).unwrap();
        assert!(jobs >= 1);
    }

    #[test]
    fn take_flag_strips_every_occurrence() {
        let (rest, on) = take_flag(&strs(&["a", "--batch", "b"]), "batch");
        assert_eq!(rest, strs(&["a", "b"]));
        assert!(on);
        let (rest, on) = take_flag(&strs(&["a", "b"]), "batch");
        assert_eq!(rest, strs(&["a", "b"]));
        assert!(!on);
        let (rest, on) = take_flag(&strs(&["--batch", "--batch"]), "batch");
        assert!(rest.is_empty());
        assert!(on);
    }

    #[test]
    fn take_opt_accepts_both_spellings_and_rejects_abuse() {
        let (rest, v) =
            take_opt(&strs(&["a", "--snapshot", "s.cegsnap", "b"]), "snapshot").unwrap();
        assert_eq!(rest, strs(&["a", "b"]));
        assert_eq!(v.as_deref(), Some("s.cegsnap"));
        let (rest, v) = take_opt(&strs(&["--snapshot=s.cegsnap"]), "snapshot").unwrap();
        assert!(rest.is_empty());
        assert_eq!(v.as_deref(), Some("s.cegsnap"));
        let (_, v) = take_opt(&strs(&["a"]), "snapshot").unwrap();
        assert_eq!(v, None);
        assert!(take_opt(&strs(&["--snapshot"]), "snapshot").is_err());
        assert!(take_opt(&strs(&["--snapshot", "--x"]), "snapshot").is_err());
        assert!(take_opt(&strs(&["--snapshot=-2"]), "snapshot").is_err());
        for twice in [
            ["--snapshot=a", "--snapshot", "b"].as_slice(),
            &["--snapshot=a", "--snapshot=b"],
            &["--snapshot", "a", "--snapshot", "b"],
        ] {
            let err = take_opt(&strs(twice), "snapshot").unwrap_err();
            assert!(err.contains("duplicate"), "{err}");
        }
    }

    // --- Prometheus exposition checker ------------------------------------

    use super::check_exposition;

    fn expo(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn check_exposition_accepts_a_well_formed_dump() {
        let lines = expo(&[
            "# TYPE ceg_requests_total counter",
            "ceg_requests_total 42",
            "# TYPE ceg_dataset_epoch gauge",
            "ceg_dataset_epoch{dataset=\"default\"} 3",
            "# TYPE ceg_dataset_graph_bytes gauge",
            "ceg_dataset_graph_bytes{dataset=\"default\"} 2977816",
            "# TYPE ceg_latency_estimate_us histogram",
            "ceg_latency_estimate_us_bucket{le=\"1\"} 0",
            "ceg_latency_estimate_us_bucket{le=\"2\"} 2",
            "ceg_latency_estimate_us_bucket{le=\"+Inf\"} 5",
            "ceg_latency_estimate_us_sum 900",
            "ceg_latency_estimate_us_count 5",
        ]);
        assert_eq!(check_exposition(&lines), Ok((4, 8)));
    }

    #[test]
    fn check_exposition_rejects_malformed_dumps() {
        for (lines, needle) in [
            // A declared family with no samples is invalid exposition.
            (expo(&["# TYPE ceg_requests_total counter"]), "no samples"),
            // A sample must follow its # TYPE declaration.
            (expo(&["ceg_requests_total 42"]), "no preceding # TYPE"),
            (
                expo(&[
                    "# TYPE h histogram",
                    "h_bucket{le=\"1\"} 5",
                    "h_bucket{le=\"2\"} 3",
                    "h_bucket{le=\"+Inf\"} 5",
                    "h_sum 1",
                    "h_count 5",
                ]),
                "not cumulative",
            ),
            (
                expo(&[
                    "# TYPE h histogram",
                    "h_bucket{le=\"+Inf\"} 5",
                    "h_sum 1",
                    "h_count 4",
                ]),
                "disagrees",
            ),
            (
                expo(&["# TYPE h histogram", "h_bucket{le=\"1\"} 5", "h_count 5"]),
                "+Inf",
            ),
            (
                expo(&["# TYPE x counter", "# TYPE x counter", "x 1"]),
                "duplicate",
            ),
            (expo(&["# TYPE x widget", "x 1"]), "unknown metric type"),
            (expo(&["# TYPE x counter", "x nope"]), "bad sample value"),
        ] {
            let err = check_exposition(&lines).unwrap_err();
            assert!(err.contains(needle), "{lines:?}: `{err}` lacks `{needle}`");
        }
    }

    // --- exit-path normalization -----------------------------------------
    //
    // The contract `main` builds on: argument mistakes are Usage errors
    // (usage block on stderr, exit 2), failures doing the work are
    // Runtime errors (message only, exit 1) — never mixed.

    use super::{run, usage_for, CmdError, ErrorKind, COMMANDS};

    fn fail(args: &[&str]) -> CmdError {
        run(&strs(args)).expect_err("should fail")
    }

    #[test]
    fn missing_and_unknown_commands_are_usage_errors() {
        let err = fail(&[]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, None);
        assert_eq!(err.exit_code(), 2);
        let err = fail(&["frobnicate"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, None);
    }

    #[test]
    fn missing_arguments_are_usage_errors_tagged_with_the_subcommand() {
        // `lint` takes no arguments (and exits the process).
        for &(name, ..) in COMMANDS.iter().filter(|row| row.0 != "lint") {
            let err = fail(&[name]);
            assert_eq!(err.kind, ErrorKind::Usage, "{name}: {}", err.msg);
            assert_eq!(err.cmd, Some(name));
            assert_eq!(err.exit_code(), 2);
            let usage = usage_for(name).expect("every row has a usage line");
            assert!(usage.starts_with(&format!("cegcli {name} ")), "{usage}");
        }
        for args in [
            vec!["generate", "hetionet"],
            vec!["explain", "g", "w"],
            vec!["explain", "127.0.0.1:0", "w"],
            vec!["slowlog", "127.0.0.1:0", "zero"],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.cmd, Some(args[0]), "{args:?}");
        }
    }

    #[test]
    fn one_positional_too_many_is_a_usage_error_before_any_io() {
        // Every row, flags or not: nothing listens on the address and no
        // path exists, so an error of the other kind means the handler ran.
        for &(name, _, flags, max, _) in COMMANDS {
            let mut args = vec![name.to_string()];
            args.extend(vec!["127.0.0.1:1".to_string(); max + 1]);
            args.extend(flags.iter().map(|flag| match flag.split_once(' ') {
                Some((valued, _)) => format!("{valued}=1"),
                None => flag.to_string(),
            }));
            let err = run(&args).expect_err("should fail");
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.msg, "unexpected extra arguments", "{args:?}");
            assert_eq!(err.cmd, Some(name), "{args:?}");
        }
        // The local form of `explain` takes one positional fewer than the
        // wire form, and no deadline.
        for args in [
            vec!["explain", "g", "w", "0", "default"],
            vec!["explain", "g", "w", "0", "--deadline-ms=5"],
        ] {
            assert_eq!(fail(&args).kind, ErrorKind::Usage, "{args:?}");
        }
    }

    #[test]
    fn bad_argument_values_are_usage_errors() {
        let err = fail(&["generate", "hetionet", "not-a-seed", "/tmp/x.edges"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        let err = fail(&["stats", "g", "w", "2", "out", "--jobs", "x"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        let err = fail(&["serve", "addr", "graph", "--snapshot", "s", "extra"]);
        assert_eq!(err.kind, ErrorKind::Usage);
    }

    #[test]
    fn durability_flags_are_validated_before_any_io() {
        // The WAL tuning knobs are meaningless without a data dir, and
        // two boot-state sources contradict each other; both must fail
        // as usage errors without touching the filesystem or network.
        for args in [
            vec!["serve", "addr", "g", "--wal-rotate-bytes", "4096"],
            vec!["serve", "addr", "g", "--snapshot-every", "8"],
            vec!["serve", "addr", "--snapshot", "s", "--data-dir", "d"],
            vec![
                "serve",
                "addr",
                "g",
                "--data-dir",
                "d",
                "--wal-rotate-bytes",
                "nope",
            ],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.cmd, Some("serve"), "{args:?}");
        }
    }

    // --- `wal` inspection --------------------------------------------------

    #[test]
    fn wal_without_a_path_is_a_usage_error() {
        let err = fail(&["wal"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert_eq!(err.cmd, Some("wal"));
        let err = fail(&["wal", "a.cegwal", "extra"]);
        assert_eq!(err.kind, ErrorKind::Usage);
    }

    #[test]
    fn wal_on_a_missing_or_non_wal_file_is_a_runtime_error() {
        let err = fail(&["wal", "/no/such/file.cegwal"]);
        assert_eq!(err.kind, ErrorKind::Runtime);
        // A file that exists but is no WAL (wrong magic).
        let path = std::env::temp_dir().join("cegcli-not-a-wal.cegwal");
        std::fs::write(&path, b"definitely not a write-ahead log").unwrap();
        let err = fail(&["wal", path.to_str().unwrap()]);
        assert_eq!(err.kind, ErrorKind::Runtime, "{}", err.msg);
        assert!(err.msg.contains("not a WAL"), "{}", err.msg);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_prints_committed_transactions_from_a_real_log() {
        use cegraph::graph::vfs::OsStorage;
        use cegraph::graph::wal::{WalOp, WalWriter};
        let path = std::env::temp_dir().join("cegcli-wal-inspect.cegwal");
        let _ = std::fs::remove_file(&path);
        let (mut w, _) = WalWriter::open(&OsStorage, &path).unwrap();
        w.append_tx(
            1,
            &[WalOp {
                src: 0,
                dst: 1,
                label: 0,
                del: false,
            }],
        )
        .unwrap();
        w.append_tx(
            2,
            &[WalOp {
                src: 0,
                dst: 1,
                label: 0,
                del: true,
            }],
        )
        .unwrap();
        drop(w);
        // The command is exercised end-to-end through `run` — success
        // means the file parsed and printed without a panic.
        run(&strs(&["wal", path.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn io_failures_are_runtime_errors_without_usage_dump() {
        for args in [
            vec!["estimate", "/no/such/file.edges", "/no/such/file.wl"],
            vec!["molp", "/no/such/file.edges", "/no/such/file.wl"],
            vec![
                "serve",
                "127.0.0.1:0",
                "--snapshot",
                "/no/such/file.cegsnap",
            ],
            // Nothing listens on a reserved port of the discard range.
            vec!["snapshot", "127.0.0.1:1", "/tmp/x.cegsnap"],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Runtime, "{args:?}: {}", err.msg);
            assert_eq!(err.exit_code(), 1, "{args:?}");
        }
    }
}
