//! `cegtool` — every cegraph command but the server: generate graphs and
//! workloads, build Markov tables, estimate, bound and explain queries,
//! talk to a running `cegcli serve`, inspect a write-ahead log.
//!
//! Run `cegtool` with no arguments for the usage block: one line per row
//! of [`COMMANDS`], the table every subcommand is declared in. The server
//! is `cegcli serve`, a binary of its own, so the offline crates this one
//! links (`ceg-estimators`, `ceg-workload`) stay out of the served
//! image.
//!
//! `explain` has two forms, told apart by the first argument: a graph
//! file renders the query's CEG_O locally as DOT; a server address
//! (contains `:`) sends `EXPLAIN_ESTIMATE` and prints the estimate with
//! the server-side span/counter trace that produced it.
//!
//! `wal` prints what a log file written by `cegcli serve --data-dir`
//! holds (committed transactions, epoch range, any torn tail) without
//! needing a server.
//!
//! `stats`, `estimate` and `workload` count on the machine's cores
//! (`default_build_parallelism`), and what they write or print is the
//! same on any number of cores. `workload` writes the same file for the
//! same graph, count and seed; for each template that ends short of
//! `<per-template>` instances it prints `# <template> kept k of want (b
//! over budget, e empty, a attempts)` on stderr.
//!
//! Exit discipline: argument errors print the offending subcommand's
//! usage on stderr and exit 2; runtime failures (I/O, server errors)
//! print only the message and exit 1; success exits 0.

mod cli;

use std::process::ExitCode;

use cegraph::catalog::io::{read_snapshot, write_snapshot};
use cegraph::catalog::MarkovTable;
use cegraph::core::{CegO, Heuristic};
use cegraph::estimators::render::{ceg_o_to_dot, molp_path_to_string};
use cegraph::estimators::{molp_min_path, CardinalityEstimator, MolpInstance, OptimisticEstimator};
use cegraph::graph::io::{load_graph, save_graph};
use cegraph::service::Client;
use cegraph::workload::io::{load_workload, save_workload};
use cegraph::workload::qerror::signed_log_qerror;
use cegraph::workload::runner::build_markov_parallel;
use cegraph::workload::{Dataset, Workload};

use cli::{arg, parse_h, take_flag, take_opt, Bin, CmdError, CmdResult, Row};

fn main() -> ExitCode {
    cli::main(&CEGTOOL)
}

const CEGTOOL: Bin = Bin {
    name: "cegtool",
    commands: COMMANDS,
    hint: |cmd| (cmd == "serve").then_some("the server is `cegcli serve`"),
};

#[rustfmt::skip]
const COMMANDS: &[Row] = &[
    ("generate", "<imdb|yago|dblp|watdiv|hetionet|epinions> <seed> <out.edges>", &[], 3, generate),
    ("workload", "<graph.edges> <job|acyclic|cyclic|gcare-acyclic|gcare-cyclic> <per-template> <seed> <out.wl>", &[], 5, workload),
    ("stats", "<graph.edges> <queries.wl> <h> <out.cegsnap>", &[], 4, stats),
    // A `.cegsnap` brings its own catalog; an edge list has one built.
    ("estimate", "(<graph.edges> | <stats.cegsnap>) <queries.wl> [heuristic]", &[], 3, estimate),
    ("molp", "<graph.edges> <queries.wl>", &[], 2, molp),
    // A graph file renders the query's CEG_O as DOT; a server address
    // prints the estimate and the server-side trace behind it.
    ("explain", "(<graph.edges> | <addr>) <queries.wl> <query-index> [dataset]", &["--deadline-ms N"], 4, explain),
    ("query", "<addr> <queries.wl> [dataset]", &["--batch", "--deadline-ms N"], 3, query_cmd),
    ("update", "<addr> <updates.upd> [dataset]", &[], 3, update_cmd),
    ("snapshot", "<addr> <out.cegsnap> [dataset]", &[], 3, snapshot_cmd),
    ("metrics", "<addr>", &[], 1, metrics_cmd),
    ("prom", "<addr>", &["--check"], 1, prom_cmd),
    ("slowlog", "<addr> [n]", &[], 2, slowlog_cmd),
    ("shutdown", "<addr>", &[], 1, shutdown_cmd),
    ("wal", "<file.cegwal>", &[], 1, wal_cmd),
];

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
    // Arguments first, filesystem second (see `workload`).
    let graph_path = arg(args, 0, "graph path")?;
    let workload_path = arg(args, 1, "workload path")?;
    let h = parse_h(arg(args, 2, "h")?)?;
    let out = arg(args, 3, "output path")?;
    // The wire `SNAPSHOT`'s rule: what writes a snapshot writes a `.cegsnap`.
    if !out.ends_with(".cegsnap") {
        return Err("output path must end in .cegsnap".into());
    }
    let g = load_graph(graph_path).map_err(CmdError::runtime)?;
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let table = build_markov_parallel(&g, &queries, h);
    write_snapshot(out, &g, &table, 0).map_err(CmdError::runtime)?;
    println!(
        "markov table h={h}: {} entries ({:.1} KiB) -> {out}",
        table.len(),
        table.heap_bytes() as f64 / 1024.0
    );
    Ok(())
}

fn estimate(args: &[String]) -> CmdResult {
    // Arguments first, filesystem (and catalog building) second (see
    // `workload`) — a bad heuristic name must not cost two file loads
    // and a catalog build before it is reported.
    let data_path = arg(args, 0, "graph or snapshot path")?;
    let workload_path = arg(args, 1, "workload path")?;
    let heuristic = match args.get(2) {
        Some(name) => parse_heuristic(name)?,
        None => Heuristic::RECOMMENDED,
    };
    let queries = load_workload(workload_path).map_err(CmdError::runtime)?;
    let table = if data_path.ends_with(".cegsnap") {
        read_snapshot(data_path).map_err(CmdError::runtime)?.markov
    } else {
        let g = load_graph(data_path).map_err(CmdError::runtime)?;
        build_markov_parallel(&g, &queries, 2)
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
    let metrics = client.metrics().map_err(CmdError::runtime)?;
    let get = |key: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    };
    println!(
        "server: {} requests in {} batches, cache {} hits / {} misses",
        get("requests_total"),
        get("batches_total"),
        get("cache_hits"),
        get("cache_misses")
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
        "{path}: {} bytes, {} committed transactions",
        bytes.len(),
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
    use super::cli::{self, usage_for, CmdError, ErrorKind};
    use super::{check_exposition, CEGTOOL, COMMANDS};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    // --- Prometheus exposition checker ------------------------------------

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
    // The contract `cli::main` builds on: argument mistakes are Usage
    // errors (usage block on stderr, exit 2), failures doing the work are
    // Runtime errors (message only, exit 1) — never mixed.

    fn run(args: &[String]) -> Result<(), CmdError> {
        cli::run(&CEGTOOL, args)
    }

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
        assert_eq!(err.msg, "unknown command `frobnicate`");
        // The server is the other binary; the error says which.
        let err = fail(&["serve", "127.0.0.1:0", "g.edges"]);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert!(
            err.msg.starts_with("unknown command `serve`"),
            "{}",
            err.msg
        );
        assert!(err.msg.contains("`cegcli serve`"), "{}", err.msg);
    }

    #[test]
    fn missing_arguments_are_usage_errors_tagged_with_the_subcommand() {
        for &(name, ..) in COMMANDS {
            let err = fail(&[name]);
            assert_eq!(err.kind, ErrorKind::Usage, "{name}: {}", err.msg);
            assert_eq!(err.cmd, Some(name));
            assert_eq!(err.exit_code(), 2);
            let usage = usage_for(&CEGTOOL, name).expect("every row has a usage line");
            assert!(usage.starts_with(&format!("cegtool {name} ")), "{usage}");
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
        // No worker count: the offline commands use the machine's cores.
        for args in [
            vec!["stats", "g", "w", "2", "out", "--jobs", "x"],
            vec!["stats", "g", "w", "2", "out.cegsnap", "--jobs", "2"],
            vec!["estimate", "g", "w", "--jobs", "2"],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Usage, "{args:?}: {}", err.msg);
            assert_eq!(err.cmd, Some(args[0]), "{args:?}");
            assert_eq!(err.msg, "unknown flag `--jobs`", "{args:?}");
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
        let path = std::env::temp_dir().join("cegtool-not-a-wal.cegwal");
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
        let path = std::env::temp_dir().join("cegtool-wal-inspect.cegwal");
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
            // Nothing listens on a reserved port of the discard range.
            vec!["snapshot", "127.0.0.1:1", "/tmp/x.cegsnap"],
        ] {
            let err = fail(&args);
            assert_eq!(err.kind, ErrorKind::Runtime, "{args:?}: {}", err.msg);
            assert_eq!(err.exit_code(), 1, "{args:?}");
        }
    }
}
