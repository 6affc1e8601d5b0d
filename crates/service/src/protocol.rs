//! The line-delimited text wire protocol.
//!
//! One request per line, one response line per request — trivially
//! scriptable with netcat and stable for tests. Numbers are plain ASCII;
//! `f64` values round-trip through Rust's shortest-representation
//! `Display`/`FromStr`.
//!
//! ```text
//! client -> server                                server -> client
//! -----------------------------------------------------------------------
//! PING                                            PONG
//! ESTIMATE <ds> [DEADLINE_MS=<ms>] <nv> <ne> (<src> <dst> <lbl>)*
//!                                                 EST <value|none> cache=<hit|miss> hits=<n> misses=<n>
//! ESTIMATE_BATCH <ds> <n> [DEADLINE_MS=<ms>]      BATCH <n>
//!   then n lines: <nv> <ne> (<src> <dst> <lbl>)*    then n ordered EST/BUSY/TIMEOUT/ERR lines
//! ADD_EDGE <ds> <src> <dst> <lbl>                 OK epoch=<n> pending=<n>
//! DEL_EDGE <ds> <src> <dst> <lbl>                 OK epoch=<n> pending=<n>
//! COMMIT <ds>                                     COMMITTED epoch=<n> added=<n> deleted=<n> recounted=<n> rebased=<0|1>
//! SNAPSHOT <ds> <path>                            SNAPSHOTTED epoch=<n> bytes=<n>
//! METRICS                                         METRICS <n>, then n lines: <key> <value>
//! METRICS_PROM                                    METRICS_PROM <n>, then n Prometheus exposition lines
//! EXPLAIN_ESTIMATE <ds> [DEADLINE_MS=<ms>] <query>
//!                                                 EXPLAIN <n>, then the EST (or BUSY/TIMEOUT) line,
//!                                                   then span/counter breakdown lines
//! SLOWLOG [n]                                     SLOWLOG <n>, then n slow-query record lines
//! SHUTDOWN                                        DRAINING
//! QUIT                                            BYE
//! (estimate rejected by admission/drain)          BUSY <message>
//! (estimate abandoned at its deadline)            TIMEOUT deadline_ms=<ms>
//! (anything malformed; `PING x`, `COMMIT d x` are) ERR <message>
//! (query too wide to estimate)                    ERR query has more than 65536 connected sub-queries
//! ```
//!
//! # Overload & lifecycle commands
//!
//! `DEADLINE_MS` bounds one estimate (or a whole batch) in wall-clock
//! milliseconds from the moment the server parses it; a request that
//! cannot be answered in time gets a typed `TIMEOUT` reply, never a
//! partial line. `BUSY` is the admission-control rejection: the
//! server already has its cap of cache misses admitted (or it is
//! draining) and the request was refused *before* any counting or
//! estimation, so it is safe to resend. `METRICS` dumps the whole
//! metrics registry as `<key> <value>` lines: among them
//! `batches_total` counts engine calls, one per `ESTIMATE`,
//! `EXPLAIN_ESTIMATE` or `ESTIMATE_BATCH` request whatever it hit or
//! missed, and `queued` is the number of misses admitted and not yet
//! answered. An `EST` line's `hits=` and `misses=` are `METRICS`'s
//! `cache_hits` and `cache_misses` as the line was written. The `BATCH`,
//! `EXPLAIN`, `METRICS`, `METRICS_PROM` and `SLOWLOG` replies share one
//! framing: a head line `<KEYWORD> <n>` ([`Response::Counted`]), then
//! exactly `n` body lines; a request refused as a whole (`ERR`, or `BUSY`
//! during a drain) is that single typed line in place of the head.
//! Tokens after a complete request are an error for every command.
//! `SHUTDOWN` asks the server to drain: the reply `DRAINING` confirms,
//! new work is BUSY-rejected, and the process writes its final snapshot
//! and exits once in-flight work settles (see `cegcli serve`).
//!
//! A query is limited to 32 edges and 32 variables (it is analysed with
//! `u32` masks) and to `QueryGraph::MAX_CONNECTED_SUBSETS` = 65,536
//! connected edge subsets: CEG_O has one node per subset, so a 24-edge
//! star — a valid line — would ask for 16.7 M nodes. The first two
//! limits are syntax and fail the request (a whole batch) at parse
//! time; the third is found when the miss resolves its sub-patterns and
//! answers `ERR` for that query alone: the `ESTIMATE` or
//! `EXPLAIN_ESTIMATE` reply, or that slot of an `ESTIMATE_BATCH`.
//!
//! `ESTIMATE_BATCH` is the only multi-line request: its header announces
//! how many query lines follow (each the `<nv> <ne> <triples>` tail of an
//! `ESTIMATE`, i.e. exactly one workload-file line), and the server
//! answers with a `BATCH <n>` header followed by `n` response lines in
//! request order — one wire round-trip for the whole batch. A malformed
//! query line fails the *whole* batch with a single `ERR` (the server
//! still consumes all `n` lines, so the connection stays in sync).
//!
//! `SNAPSHOT` writes the dataset's committed graph, Markov catalog and
//! epoch to `<path>` **on the server's filesystem** as a binary
//! `.cegsnap` file, atomically (temp file + sync + rename); `cegcli serve
//! --snapshot <path>` restores from it at boot. Because this is a
//! remote-triggered write, the path must end in `.cegsnap` and must not
//! be the snapshot a durable dataset's log replays onto, which only the
//! log's fold replaces (`ERR … is the durable snapshot of dataset …`).
//!
//! # Observability commands
//!
//! Every reply line (and every `BATCH` body line) carries a trailing
//! ` id=<n>` token: the per-request id the server assigned when it read
//! the request. Clients strip it with [`split_id`] before parsing; the
//! id correlates replies with server-side slow-query records. Counted
//! body lines under `METRICS`/`METRICS_PROM`/`EXPLAIN`/`SLOWLOG` headers
//! are *not* stamped — their grammar owns the whole line.
//!
//! `EXPLAIN_ESTIMATE` runs the exact same estimation path as `ESTIMATE`
//! (same cache, same catalog, same estimator — the estimate is
//! bit-identical) with a per-request trace enabled, and answers with a
//! counted breakdown: the EST line first, then `span <name> <micros>`
//! and `counter <name> <value>` lines ([`ExplainItem`]). `SLOWLOG [n]`
//! returns the newest `n` (default: all) entries of the server's
//! slow-query ring — requests whose batch latency crossed the
//! configured threshold — newest first. `METRICS_PROM` is the same
//! registry as `METRICS` rendered in Prometheus text exposition format
//! (`# TYPE` lines, `_bucket`/`_sum`/`_count` histogram series).
//!
//! `ADD_EDGE`/`DEL_EDGE` buffer into the dataset's pending delta and are
//! invisible to `ESTIMATE` until a `COMMIT` applies them — which bumps
//! the dataset epoch and thereby invalidates every cached estimate
//! computed before it. The wire layer only checks syntax; the registry
//! validates ids against the dataset's domain plus a bounded growth
//! allowance ([`crate::registry::MAX_UPDATE_VERTEX`]) and enforces the
//! pending-buffer cap, answering violations with `ERR`.

use std::io::{self, BufWriter, Write};
use std::iter::Peekable;
use std::str::{FromStr, SplitWhitespace};

use ceg_graph::{LabelId, VertexId};
use ceg_query::{QueryEdge, QueryGraph, VarId};

use crate::engine::{EstimateOutcome, SlowQueryEntry, SnapshotAck, UpdateAck};
use crate::metrics::{Metrics, Series};
use crate::registry::CommitOutcome;

/// Largest number of queries one `ESTIMATE_BATCH` may carry. Big enough
/// for any sane client batch, small enough that a hostile header cannot
/// make the server buffer unbounded lines.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// The wire commands. [`Command::ALL`] is the one place a command's
/// keyword is written: [`Request::parse`] and [`Request::format`] read it
/// from there, and the metrics key of a command (`latency_<key>_count`,
/// `ceg_latency_<key>_micros`) is that keyword in lower case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Estimate,
    EstimateBatch,
    ExplainEstimate,
    AddEdge,
    DelEdge,
    Commit,
    Snapshot,
    Metrics,
    MetricsProm,
    SlowLog,
    Ping,
    Shutdown,
    Quit,
}

impl Command {
    /// Every command in declaration order (a command's discriminant is
    /// its position here) with its wire keyword and, for the five
    /// answered with a counted reply, the keyword of that reply's head.
    #[rustfmt::skip]
    pub const ALL: [(Command, &'static str, Option<&'static str>); 13] = [
        (Command::Estimate, "ESTIMATE", None),
        (Command::EstimateBatch, "ESTIMATE_BATCH", Some("BATCH")),
        (Command::ExplainEstimate, "EXPLAIN_ESTIMATE", Some("EXPLAIN")),
        (Command::AddEdge, "ADD_EDGE", None),
        (Command::DelEdge, "DEL_EDGE", None),
        (Command::Commit, "COMMIT", None),
        (Command::Snapshot, "SNAPSHOT", None),
        (Command::Metrics, "METRICS", Some("METRICS")),
        (Command::MetricsProm, "METRICS_PROM", Some("METRICS_PROM")),
        (Command::SlowLog, "SLOWLOG", Some("SLOWLOG")),
        (Command::Ping, "PING", None),
        (Command::Shutdown, "SHUTDOWN", None),
        (Command::Quit, "QUIT", None),
    ];

    /// The leading commands of [`Command::ALL`] that are served and so
    /// have a latency histogram; `SHUTDOWN` and `QUIT` after them are
    /// lifecycle events.
    pub const TRACKED: usize = 11;

    /// The wire keyword.
    pub fn name(self) -> &'static str {
        Self::ALL.get(self as usize).map_or("", |row| row.1)
    }

    fn from_name(word: &str) -> Option<Command> {
        Self::ALL.iter().find(|row| row.1 == word).map(|row| row.0)
    }

    /// The keyword that heads this command's counted reply.
    fn head(self) -> &'static str {
        let head = Self::ALL.get(self as usize).and_then(|&(.., head)| head);
        head.unwrap_or(self.name())
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Full metrics-registry dump.
    Metrics,
    /// Ask the server to drain and shut down.
    Shutdown,
    /// Estimate one query against a named dataset, optionally bounded by
    /// a wall-clock deadline in milliseconds.
    Estimate {
        dataset: String,
        query: QueryGraph,
        deadline_ms: Option<u64>,
    },
    /// `ESTIMATE` with tracing enabled: same grammar, and the reply is a
    /// counted `EXPLAIN <n>` breakdown (EST line first, then span and
    /// counter lines) instead of a single EST line.
    ExplainEstimate {
        dataset: String,
        query: QueryGraph,
        deadline_ms: Option<u64>,
    },
    /// Fetch the most recent `n` slow-query records (all of them when
    /// `None`).
    SlowLog { n: Option<usize> },
    /// Metrics in Prometheus text exposition format.
    MetricsProm,
    /// Estimate an ordered batch of queries against one dataset in a
    /// single round-trip (the only multi-line request). The deadline, if
    /// any, covers the whole batch.
    EstimateBatch {
        dataset: String,
        queries: Vec<QueryGraph>,
        deadline_ms: Option<u64>,
    },
    /// Persist the dataset's committed graph + catalog + epoch to a
    /// `.cegsnap` file on the server's filesystem.
    Snapshot { dataset: String, path: String },
    /// Buffer an edge insertion into the dataset's pending delta.
    AddEdge {
        dataset: String,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    },
    /// Buffer an edge deletion into the dataset's pending delta.
    DelEdge {
        dataset: String,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    },
    /// Apply the dataset's pending delta and bump its epoch.
    Commit { dataset: String },
    /// Close the connection.
    Quit,
}

/// The one token reader behind every line grammar of this module: it
/// walks a line's whitespace-separated tokens and words the three
/// failures — a token that is absent, one that does not parse, one too
/// many — the same way everywhere. `ctx` prefixes the message (the
/// command or reply keyword).
struct Cursor<'a>(Peekable<SplitWhitespace<'a>>);

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Self {
        Cursor(line.split_whitespace().peekable())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    /// The next positional token parsed as `T`, `None` at the end of the
    /// line; `<ctx>: bad <name>` if it does not parse.
    fn opt<T: FromStr>(&mut self, ctx: &str, name: &str) -> Result<Option<T>, String> {
        let parsed = self.next().map(str::parse::<T>).transpose();
        parsed.map_err(|_| format!("{ctx}: bad {name}"))
    }

    /// [`Cursor::opt`] for a token that must be there: `<ctx>: missing
    /// <name>` otherwise.
    fn field<T: FromStr>(&mut self, ctx: &str, name: &str) -> Result<T, String> {
        self.opt(ctx, name)?
            .ok_or_else(|| format!("{ctx}: missing {name}"))
    }

    /// The value of the next token, which must read `<key>=<value>`.
    fn kv_str(&mut self, key: &str) -> Result<&'a str, String> {
        let tok = self.next().ok_or_else(|| format!("missing {key}=…"))?;
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| format!("expected {key}=…, got `{tok}`"))
    }

    /// [`Cursor::kv_str`] parsed as `T`; `<ctx>: bad <key>` if the value
    /// does not parse.
    fn kv<T: FromStr>(&mut self, ctx: &str, key: &str) -> Result<T, String> {
        let value = self.kv_str(key)?;
        value.parse().map_err(|_| format!("{ctx}: bad {key}"))
    }

    /// Consume an optional `DEADLINE_MS=<ms>` token. A next token that is
    /// not a deadline attribute is left for the caller (it starts the
    /// query encoding, or is a trailing token).
    fn deadline(&mut self, ctx: &str) -> Result<Option<u64>, String> {
        let Some(value) = self.0.peek().and_then(|t| t.strip_prefix("DEADLINE_MS=")) else {
            return Ok(None);
        };
        self.0.next();
        let bad = |_| format!("{ctx}: bad DEADLINE_MS value");
        Ok(Some(value.parse().map_err(bad)?))
    }

    /// The line must end here: `<ctx>: trailing tokens` otherwise.
    fn end(&mut self, ctx: &str) -> Result<(), String> {
        let trailing = self.next().map(|_| format!("{ctx}: trailing tokens"));
        trailing.map_or(Ok(()), Err)
    }
}

/// Parse a query encoding `<nv> <ne> (<src> <dst> <lbl>)*` up to the end
/// of the line — the tail of an `ESTIMATE` line, or one full
/// `ESTIMATE_BATCH` query line. `ctx` prefixes error messages.
fn parse_query(ctx: &str, cur: &mut Cursor<'_>) -> Result<QueryGraph, String> {
    let nv: VarId = cur.field(ctx, "num_vars")?;
    let ne: usize = cur.field(ctx, "num_edges")?;
    // Edge subsets and variable sets are `u32` bitmasks downstream
    // (`EdgeMask`, `QueryGraph::vars_of`): a query that outgrows either
    // stops here, not in a shift.
    if nv > QueryGraph::MAX_VARS {
        return Err(format!("{ctx}: queries are limited to 32 variables"));
    }
    if ne > QueryGraph::MAX_EDGES {
        return Err(format!("{ctx}: queries are limited to 32 edges"));
    }
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let truncated = || format!("{ctx}: truncated edge list");
        let src: VarId = cur.opt(ctx, "src")?.ok_or_else(truncated)?;
        let dst: VarId = cur.opt(ctx, "dst")?.ok_or_else(truncated)?;
        let label: u16 = cur.opt(ctx, "label")?.ok_or_else(truncated)?;
        if src >= nv || dst >= nv {
            return Err(format!(
                "{ctx}: edge endpoint out of range (vars are 0..{nv})"
            ));
        }
        edges.push(QueryEdge::new(src, dst, label));
    }
    cur.end(ctx).map_err(|e| format!("{e} after edge list"))?;
    if edges.is_empty() {
        return Err(format!("{ctx}: query must have at least one edge"));
    }
    let query = QueryGraph::new(nv, edges);
    // The estimators assume connected queries (paper §4.2); rejecting
    // here keeps malformed wire input out of the engine.
    if !query.is_connected() {
        return Err(format!("{ctx}: query must be connected"));
    }
    Ok(query)
}

/// Append a query in its wire encoding `<nv> <ne> (<src> <dst> <lbl>)*`.
fn format_query_tokens(line: &mut String, query: &QueryGraph) {
    line.push_str(&format!("{} {}", query.num_vars(), query.num_edges()));
    for e in query.edges() {
        line.push_str(&format!(" {} {} {}", e.src, e.dst, e.label));
    }
}

/// A query's wire encoding as an owned string (slow-query records keep
/// the query text in exactly the grammar an `ESTIMATE` line would use).
pub fn format_query(query: &QueryGraph) -> String {
    let mut s = String::new();
    format_query_tokens(&mut s, query);
    s
}

/// Append the per-request id tail ` id=<n>` the server stamps on every
/// reply line (and on `ERR`/`BUSY`/`TIMEOUT` lines) so a client can
/// correlate replies with its requests and server-side slow-query
/// records. Counted *body* lines (metric/span/slowlog lines under a
/// header) are never stamped — their grammar has no id tail.
fn append_id(line: &mut String, id: u64) {
    line.push_str(&format!(" id={id}"));
}

/// Split a reply line into its payload and the ` id=<n>` tail, if one is
/// present. Lines without a parseable tail come back unchanged — the
/// helper never fails, so clients interoperate with servers that do not
/// stamp ids.
pub fn split_id(line: &str) -> (&str, Option<u64>) {
    if let Some((head, tail)) = line.rsplit_once(' ') {
        if let Some(id) = tail.strip_prefix("id=").and_then(|v| v.parse().ok()) {
            return (head, Some(id));
        }
    }
    (line, None)
}

/// Parse an `ESTIMATE_BATCH <ds> <n> [DEADLINE_MS=<ms>]` header line,
/// validating the count against [`MAX_BATCH_QUERIES`]. The server uses
/// this to learn how many query lines to read before it can hand the
/// whole text to [`Request::parse`].
pub(crate) fn parse_batch_header(line: &str) -> Result<(String, usize, Option<u64>), String> {
    let ctx = Command::EstimateBatch.name();
    let mut cur = Cursor::new(line);
    if cur.next() != Some(ctx) {
        return Err("not an ESTIMATE_BATCH header".into());
    }
    let dataset = cur.field(ctx, "dataset")?;
    let n: usize = cur.field(ctx, "query count")?;
    let deadline_ms = cur.deadline(ctx)?;
    cur.end(ctx)?;
    if n == 0 {
        return Err(format!("{ctx}: query count must be at least 1"));
    }
    if n > MAX_BATCH_QUERIES {
        return Err(format!(
            "{ctx}: query count {n} exceeds the limit of {MAX_BATCH_QUERIES}"
        ));
    }
    Ok((dataset, n, deadline_ms))
}

/// The count of a counted reply head of the given kind.
fn counted_header(line: &str, kind: Command) -> Result<usize, String> {
    match Response::parse(line)? {
        Response::Counted { kind: k, n } if k == kind => Ok(n),
        _ => Err(format!("expected {} header, got `{line}`", kind.head())),
    }
}

/// Parse a `BATCH <n>` response header (kept for `bench/src/wire.rs`;
/// everything else reads the head of a reply through [`Response::parse`]).
pub fn parse_batch_response_header(line: &str) -> Result<usize, String> {
    counted_header(line, Command::EstimateBatch)
}

/// Parse an `EXPLAIN <n>` response header (kept for `bench/src/wire.rs`,
/// as [`parse_batch_response_header`] is).
pub fn parse_explain_response_header(line: &str) -> Result<usize, String> {
    counted_header(line, Command::ExplainEstimate)
}

/// Render one `<key> <value>` line of a `METRICS` reply body — the
/// counterpart of [`parse_metric_line`], so the body grammar has exactly
/// one owner on each side of the wire.
pub(crate) fn format_metric_line(key: &str, value: u64) -> String {
    format!("{key} {value}")
}

/// Parse one `<key> <value>` line of a `METRICS` reply body.
pub(crate) fn parse_metric_line(line: &str) -> Result<(String, u64), String> {
    let ctx = "metric line";
    let mut cur = Cursor::new(line);
    let pair = (cur.field(ctx, "key")?, cur.field(ctx, "value")?);
    cur.end(ctx)?;
    Ok(pair)
}

/// One line of an `EXPLAIN` breakdown body (after the leading EST line):
/// a measured span or an accumulated counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainItem {
    /// `span <name> <micros>`
    Span { name: String, micros: u64 },
    /// `counter <name> <value>`
    Counter { name: String, value: u64 },
}

impl ExplainItem {
    /// Render as one wire line.
    pub fn format(&self) -> String {
        match self {
            ExplainItem::Span { name, micros } => format!("span {name} {micros}"),
            ExplainItem::Counter { name, value } => format!("counter {name} {value}"),
        }
    }

    /// Parse one breakdown line.
    pub fn parse(line: &str) -> Result<ExplainItem, String> {
        let ctx = "explain line";
        let mut cur = Cursor::new(line);
        let kind = cur.next().ok_or("explain line: empty")?;
        let (name, value) = (cur.field(ctx, "name")?, cur.field(ctx, "value")?);
        cur.end(ctx)?;
        match kind {
            "span" => Ok(ExplainItem::Span {
                name,
                micros: value,
            }),
            "counter" => Ok(ExplainItem::Counter { name, value }),
            other => Err(format!("explain line: unknown kind `{other}`")),
        }
    }
}

/// Render one slow-query record as a wire line. The query encoding goes
/// **last** because it contains spaces; every other field is a fixed
/// `key=value` token.
pub(crate) fn format_slowlog_entry(e: &SlowQueryEntry) -> String {
    format!(
        "id={} dataset={} epoch={} micros={} cache_us={} fill_us={} estimate_us={} query={}",
        e.id, e.dataset, e.epoch, e.micros, e.cache_us, e.fill_us, e.estimate_us, e.query
    )
}

/// Parse one slow-query record line.
pub(crate) fn parse_slowlog_entry(line: &str) -> Result<SlowQueryEntry, String> {
    let ctx = "slowlog";
    let mut cur = Cursor::new(line);
    let mut entry = SlowQueryEntry {
        id: cur.kv(ctx, "id")?,
        dataset: cur.kv(ctx, "dataset")?,
        epoch: cur.kv(ctx, "epoch")?,
        micros: cur.kv(ctx, "micros")?,
        cache_us: cur.kv(ctx, "cache_us")?,
        fill_us: cur.kv(ctx, "fill_us")?,
        estimate_us: cur.kv(ctx, "estimate_us")?,
        query: cur.kv_str("query")?.to_string(),
    };
    while let Some(tok) = cur.next() {
        entry.query.push(' ');
        entry.query.push_str(tok);
    }
    Ok(entry)
}

impl Request {
    /// The command this request is an instance of.
    pub(crate) fn command(&self) -> Command {
        match self {
            Request::Ping => Command::Ping,
            Request::Metrics => Command::Metrics,
            Request::MetricsProm => Command::MetricsProm,
            Request::SlowLog { .. } => Command::SlowLog,
            Request::Estimate { .. } => Command::Estimate,
            Request::ExplainEstimate { .. } => Command::ExplainEstimate,
            Request::EstimateBatch { .. } => Command::EstimateBatch,
            Request::AddEdge { .. } => Command::AddEdge,
            Request::DelEdge { .. } => Command::DelEdge,
            Request::Commit { .. } => Command::Commit,
            Request::Snapshot { .. } => Command::Snapshot,
            Request::Shutdown => Command::Shutdown,
            Request::Quit => Command::Quit,
        }
    }

    /// Parse one request. Input is a single line for every command except
    /// `ESTIMATE_BATCH`, whose header line is followed by the announced
    /// number of query lines (the server assembles them before calling
    /// this). Tokens after a complete request are an error for every
    /// command.
    pub fn parse(input: &str) -> Result<Request, String> {
        let mut lines = input.lines();
        let line = lines.next().unwrap_or("");
        let mut cur = Cursor::new(line);
        let word = cur.next().ok_or("empty request")?;
        let cmd = Command::from_name(word).ok_or_else(|| format!("unknown command `{word}`"))?;
        let ctx = cmd.name();
        let request = match cmd {
            Command::EstimateBatch => {
                let (dataset, n, deadline_ms) = parse_batch_header(line)?;
                let mut queries = Vec::with_capacity(n);
                for i in 1..=n {
                    let qline = lines
                        .next()
                        .ok_or(format!("{ctx}: missing query line {i}"))?;
                    let qctx = format!("{ctx} query {i}");
                    queries.push(parse_query(&qctx, &mut Cursor::new(qline))?);
                }
                if lines.next().is_some() {
                    return Err(format!("{ctx}: trailing lines after the batch"));
                }
                return Ok(Request::EstimateBatch {
                    dataset,
                    queries,
                    deadline_ms,
                });
            }
            Command::Ping => Request::Ping,
            Command::Metrics => Request::Metrics,
            Command::MetricsProm => Request::MetricsProm,
            Command::Shutdown => Request::Shutdown,
            Command::Quit => Request::Quit,
            Command::SlowLog => Request::SlowLog {
                n: cur.opt(ctx, "entry count")?,
            },
            Command::Commit => Request::Commit {
                dataset: cur.field(ctx, "dataset")?,
            },
            // Syntax only; domain and growth bounds are the registry's job.
            Command::AddEdge | Command::DelEdge => {
                let dataset = cur.field(ctx, "dataset")?;
                let src = cur.field(ctx, "src")?;
                let dst = cur.field(ctx, "dst")?;
                let label = cur.field(ctx, "label")?;
                if cmd == Command::AddEdge {
                    Request::AddEdge {
                        dataset,
                        src,
                        dst,
                        label,
                    }
                } else {
                    Request::DelEdge {
                        dataset,
                        src,
                        dst,
                        label,
                    }
                }
            }
            Command::Estimate | Command::ExplainEstimate => {
                let dataset = cur.field(ctx, "dataset")?;
                let deadline_ms = cur.deadline(ctx)?;
                let query = parse_query(ctx, &mut cur)?;
                if cmd == Command::Estimate {
                    Request::Estimate {
                        dataset,
                        query,
                        deadline_ms,
                    }
                } else {
                    Request::ExplainEstimate {
                        dataset,
                        query,
                        deadline_ms,
                    }
                }
            }
            Command::Snapshot => {
                let dataset = cur.field(ctx, "dataset")?;
                let path = cur.field(ctx, "path")?;
                cur.end(ctx)
                    .map_err(|e| format!("{e} (paths cannot contain spaces)"))?;
                Request::Snapshot { dataset, path }
            }
        };
        cur.end(ctx)?;
        if lines.next().is_some() {
            return Err("trailing lines after a single-line request".into());
        }
        Ok(request)
    }

    /// Render the request in wire form (no trailing newline). Every
    /// request is one line except `ESTIMATE_BATCH`, which renders as its
    /// header followed by one line per query.
    pub fn format(&self) -> String {
        let name = self.command().name();
        match self {
            Request::Ping
            | Request::Metrics
            | Request::MetricsProm
            | Request::Shutdown
            | Request::Quit
            | Request::SlowLog { n: None } => name.into(),
            Request::SlowLog { n: Some(n) } => format!("{name} {n}"),
            Request::Commit { dataset } => format!("{name} {dataset}"),
            Request::Snapshot { dataset, path } => format!("{name} {dataset} {path}"),
            Request::AddEdge {
                dataset,
                src,
                dst,
                label,
            }
            | Request::DelEdge {
                dataset,
                src,
                dst,
                label,
            } => format!("{name} {dataset} {src} {dst} {label}"),
            Request::EstimateBatch {
                dataset,
                queries,
                deadline_ms,
            } => {
                let mut text = format!("{name} {dataset} {}", queries.len());
                if let Some(ms) = deadline_ms {
                    text.push_str(&format!(" DEADLINE_MS={ms}"));
                }
                for q in queries {
                    text.push('\n');
                    format_query_tokens(&mut text, q);
                }
                text
            }
            Request::Estimate {
                dataset,
                query,
                deadline_ms,
            }
            | Request::ExplainEstimate {
                dataset,
                query,
                deadline_ms,
            } => {
                let mut line = format!("{name} {dataset} ");
                if let Some(ms) = deadline_ms {
                    line.push_str(&format!("DEADLINE_MS={ms} "));
                }
                format_query_tokens(&mut line, query);
                line
            }
        }
    }
}

/// A parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    /// Estimate plus the server-wide cache counters *after* this request.
    Estimate {
        outcome: EstimateOutcome,
        hits: u64,
        misses: u64,
    },
    /// Acknowledgement of a buffered `ADD_EDGE`/`DEL_EDGE`.
    Updated(UpdateAck),
    /// Result of a `COMMIT`.
    Committed(CommitOutcome),
    /// Result of a `SNAPSHOT`: the persisted epoch and file size.
    Snapshotted(SnapshotAck),
    /// The head of a counted reply — `BATCH`, `EXPLAIN`, `METRICS`,
    /// `METRICS_PROM` or `SLOWLOG <n>` — which `n` body lines follow.
    /// `kind` is the command being answered, one of those five.
    Counted {
        kind: Command,
        n: usize,
    },
    /// Admission-control rejection: the request was refused before any
    /// counting or estimation was spent on it (queue full, or server
    /// draining).
    Busy(String),
    /// The request's deadline passed before an answer was produced.
    Timeout {
        /// The deadline the request carried (or the server default), in
        /// milliseconds — echoed so clients can correlate.
        deadline_ms: u64,
    },
    /// Acknowledgement of `SHUTDOWN`: the server is draining.
    Draining,
    Error(String),
    Bye,
}

impl Response {
    /// Render the response as one wire line (no trailing newline).
    pub fn format(&self) -> String {
        match self {
            Response::Pong => "PONG".into(),
            Response::Bye => "BYE".into(),
            Response::Draining => "DRAINING".into(),
            Response::Error(msg) => format!("ERR {msg}"),
            Response::Busy(msg) => format!("BUSY {msg}"),
            Response::Counted { kind, n } => format!("{} {n}", kind.head()),
            Response::Timeout { deadline_ms } => {
                format!("TIMEOUT deadline_ms={deadline_ms}")
            }
            Response::Estimate {
                outcome,
                hits,
                misses,
            } => {
                let value = match outcome.value {
                    Some(v) => v.to_string(),
                    None => "none".into(),
                };
                let cache = if outcome.cached { "hit" } else { "miss" };
                format!("EST {value} cache={cache} hits={hits} misses={misses}")
            }
            Response::Updated(ack) => {
                format!("OK epoch={} pending={}", ack.epoch, ack.pending)
            }
            Response::Committed(c) => format!(
                "COMMITTED epoch={} added={} deleted={} recounted={} rebased={}",
                c.epoch, c.added, c.deleted, c.recounted, c.rebased as u8
            ),
            Response::Snapshotted(s) => {
                format!("SNAPSHOTTED epoch={} bytes={}", s.epoch, s.bytes)
            }
        }
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut cur = Cursor::new(line);
        let ctx = cur.next().ok_or("empty response")?;
        // `ERR` and `BUSY` carry free text: everything after the keyword.
        let message = || {
            let rest = line.trim_start();
            rest.strip_prefix(ctx).unwrap_or(rest).trim().to_string()
        };
        Ok(match ctx {
            "PONG" => Response::Pong,
            "BYE" => Response::Bye,
            "DRAINING" => Response::Draining,
            "ERR" => Response::Error(message()),
            "BUSY" => Response::Busy(message()),
            "TIMEOUT" => Response::Timeout {
                deadline_ms: cur.kv(ctx, "deadline_ms")?,
            },
            "EST" => {
                let value = match cur.next().ok_or("EST: missing value")? {
                    "none" => None,
                    v => Some(v.parse::<f64>().map_err(|_| "EST: bad value")?),
                };
                let cached = match cur.kv_str("cache")? {
                    "hit" => true,
                    "miss" => false,
                    other => return Err(format!("EST: bad cache flag `{other}`")),
                };
                Response::Estimate {
                    outcome: EstimateOutcome { value, cached },
                    hits: cur.kv(ctx, "hits")?,
                    misses: cur.kv(ctx, "misses")?,
                }
            }
            "OK" => Response::Updated(UpdateAck {
                epoch: cur.kv(ctx, "epoch")?,
                pending: cur.kv(ctx, "pending")?,
            }),
            "COMMITTED" => Response::Committed(CommitOutcome {
                epoch: cur.kv(ctx, "epoch")?,
                added: cur.kv(ctx, "added")?,
                deleted: cur.kv(ctx, "deleted")?,
                recounted: cur.kv(ctx, "recounted")?,
                rebased: match cur.kv_str("rebased")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("COMMITTED: bad rebased flag `{other}`")),
                },
                // Not part of the wire format: a server-side detail
                // the client cannot observe.
                wal_bytes: 0,
            }),
            "SNAPSHOTTED" => Response::Snapshotted(SnapshotAck {
                epoch: cur.kv(ctx, "epoch")?,
                bytes: cur.kv(ctx, "bytes")?,
            }),
            other => {
                let row = Command::ALL.iter().find(|(.., head)| *head == Some(other));
                let &(kind, ..) = row.ok_or_else(|| format!("unknown response `{other}`"))?;
                let n = cur.field(ctx, "count")?;
                cur.end(ctx)?;
                Response::Counted { kind, n }
            }
        })
    }
}

/// The outgoing side of one connection, and the only way the server
/// writes to a client: whole typed replies into a buffer, which goes out
/// on [`ReplyWriter::flush`] — at the end of each request and wherever
/// the handler would otherwise wait.
pub(crate) struct ReplyWriter<'m, W: Write> {
    out: BufWriter<W>,
    metrics: &'m Metrics,
}

impl<'m, W: Write> ReplyWriter<'m, W> {
    /// Wrap a connection's raw writer in a buffer of `capacity` bytes.
    /// Every `ERR` sent through it is counted on `metrics`.
    pub(crate) fn new(writer: W, capacity: usize, metrics: &'m Metrics) -> Self {
        ReplyWriter {
            out: BufWriter::with_capacity(capacity, writer),
            metrics,
        }
    }

    /// Write one reply: the head line `response` — stamped with the
    /// request's ` id=<n>` tail — then, under a [`Response::Counted`]
    /// head, its `body` lines as they are (their grammar owns the whole
    /// line). Every error actually sent to a client is counted exactly
    /// once here, no matter which layer produced it.
    pub(crate) fn send(&mut self, response: &Response, body: &[String], id: u64) -> io::Result<()> {
        if matches!(response, Response::Error(_)) {
            self.metrics.inc(Series::Error);
        }
        let mut line = response.format();
        append_id(&mut line, id);
        writeln!(self.out, "{line}")?;
        for line in body {
            writeln!(self.out, "{line}")?;
        }
        Ok(())
    }

    /// Send what the buffer holds.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_query::templates;

    #[test]
    fn estimate_roundtrip() {
        let req = Request::Estimate {
            dataset: "imdb".into(),
            query: templates::path(2, &[3, 4]),
            deadline_ms: None,
        };
        let line = req.format();
        assert_eq!(line, "ESTIMATE imdb 3 2 0 1 3 1 2 4");
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn estimate_deadline_roundtrip() {
        let req = Request::Estimate {
            dataset: "imdb".into(),
            query: templates::path(2, &[3, 4]),
            deadline_ms: Some(250),
        };
        let line = req.format();
        assert_eq!(line, "ESTIMATE imdb DEADLINE_MS=250 3 2 0 1 3 1 2 4");
        assert_eq!(Request::parse(&line).unwrap(), req);
        // A malformed deadline value is rejected, not silently treated as
        // the start of the query.
        assert!(Request::parse("ESTIMATE imdb DEADLINE_MS=abc 3 2 0 1 3 1 2 4").is_err());
        assert!(Request::parse("ESTIMATE imdb DEADLINE_MS= 3 2 0 1 3 1 2 4").is_err());
    }

    #[test]
    fn simple_requests_roundtrip() {
        for req in [
            Request::Ping,
            Request::Metrics,
            Request::Shutdown,
            Request::Quit,
        ] {
            assert_eq!(Request::parse(&req.format()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "BOGUS",
            "ESTIMATE",
            "ESTIMATE ds",
            "ESTIMATE ds 3",
            "ESTIMATE ds 3 1",
            "ESTIMATE ds 3 1 0 1",         // truncated edge
            "ESTIMATE ds 2 1 0 5 0",       // endpoint out of range
            "ESTIMATE ds 3 1 0 1 0 9 9 9", // trailing tokens
            "ESTIMATE ds 3 99 0 1 0",      // too many edges
            "ESTIMATE ds 1 0",             // zero edges
            "ESTIMATE ds 4 2 0 1 0 2 3 1", // disconnected
            // Tokens after a bare command are an error like any other.
            "PING x",
            "METRICS x",
            "SHUTDOWN please-dont",
            "QUIT x",
        ] {
            assert!(Request::parse(line).is_err(), "should reject: {line:?}");
        }
        assert_eq!(
            Request::parse("SHUTDOWN please-dont"),
            Err("SHUTDOWN: trailing tokens".into())
        );
    }

    #[test]
    fn command_keywords_are_declared_in_discriminant_order() {
        let mut counted = 0;
        for (i, (cmd, name, head)) in Command::ALL.into_iter().enumerate() {
            assert_eq!(cmd as usize, i, "{cmd:?} is out of declaration order");
            assert_eq!(cmd.name(), name);
            assert_eq!(Command::from_name(name), Some(cmd));
            if let Some(head) = head {
                counted += 1;
                let reply = Response::Counted { kind: cmd, n: 3 };
                assert_eq!(reply.format(), format!("{head} 3"));
                assert_eq!(Response::parse(&reply.format()).unwrap(), reply);
            }
        }
        assert_eq!(counted, 5);
    }

    #[test]
    fn update_requests_roundtrip() {
        let add = Request::AddEdge {
            dataset: "imdb".into(),
            src: 17,
            dst: 4,
            label: 2,
        };
        assert_eq!(add.format(), "ADD_EDGE imdb 17 4 2");
        assert_eq!(Request::parse(&add.format()).unwrap(), add);
        let del = Request::DelEdge {
            dataset: "imdb".into(),
            src: 4,
            dst: 17,
            label: 0,
        };
        assert_eq!(del.format(), "DEL_EDGE imdb 4 17 0");
        assert_eq!(Request::parse(&del.format()).unwrap(), del);
        let commit = Request::Commit {
            dataset: "imdb".into(),
        };
        assert_eq!(commit.format(), "COMMIT imdb");
        assert_eq!(Request::parse(&commit.format()).unwrap(), commit);
    }

    #[test]
    fn malformed_update_requests_are_rejected() {
        for line in [
            "ADD_EDGE",
            "ADD_EDGE ds",
            "ADD_EDGE ds 1",
            "ADD_EDGE ds 1 2",
            "ADD_EDGE ds 1 2 x",
            "ADD_EDGE ds 1 2 3 4",         // trailing token
            "ADD_EDGE ds 99999999999 0 0", // src wider than a VertexId
            "ADD_EDGE ds 0 0 99999",       // label wider than a LabelId
            "DEL_EDGE ds -1 0 0",          // negative id
            "COMMIT",
            "COMMIT ds extra",
        ] {
            assert!(Request::parse(line).is_err(), "should reject: {line:?}");
        }
        // Any id that fits the wire types parses; domain/growth bounds
        // are the registry's job, answered with ERR.
        assert!(Request::parse("ADD_EDGE ds 4294967295 0 65535").is_ok());
    }

    #[test]
    fn estimate_batch_roundtrips_multiline() {
        let req = Request::EstimateBatch {
            dataset: "imdb".into(),
            queries: vec![templates::path(2, &[3, 4]), templates::path(2, &[0, 1])],
            deadline_ms: None,
        };
        let text = req.format();
        assert_eq!(
            text,
            "ESTIMATE_BATCH imdb 2\n3 2 0 1 3 1 2 4\n3 2 0 1 0 1 2 1"
        );
        assert_eq!(Request::parse(&text).unwrap(), req);
        assert_eq!(
            parse_batch_header(text.lines().next().unwrap()).unwrap(),
            ("imdb".to_string(), 2, None)
        );
    }

    #[test]
    fn estimate_batch_deadline_roundtrips() {
        let req = Request::EstimateBatch {
            dataset: "imdb".into(),
            queries: vec![templates::path(2, &[3, 4])],
            deadline_ms: Some(1500),
        };
        let text = req.format();
        assert_eq!(
            text,
            "ESTIMATE_BATCH imdb 1 DEADLINE_MS=1500\n3 2 0 1 3 1 2 4"
        );
        assert_eq!(Request::parse(&text).unwrap(), req);
        assert_eq!(
            parse_batch_header(text.lines().next().unwrap()).unwrap(),
            ("imdb".to_string(), 1, Some(1500))
        );
        assert!(parse_batch_header("ESTIMATE_BATCH ds 1 DEADLINE_MS=x").is_err());
        assert!(parse_batch_header("ESTIMATE_BATCH ds 1 DEADLINE_MS=5 junk").is_err());
    }

    #[test]
    fn malformed_batches_are_rejected() {
        for text in [
            "ESTIMATE_BATCH",                       // no dataset
            "ESTIMATE_BATCH ds",                    // no count
            "ESTIMATE_BATCH ds x",                  // bad count
            "ESTIMATE_BATCH ds 0",                  // zero queries
            "ESTIMATE_BATCH ds 2 extra",            // trailing tokens
            "ESTIMATE_BATCH ds 99999",              // over the cap
            "ESTIMATE_BATCH ds 2\n2 1 0 1 0",       // missing second query
            "ESTIMATE_BATCH ds 1\n2 1 0 1",         // truncated query line
            "ESTIMATE_BATCH ds 1\n2 1 0 1 0\njunk", // trailing line
        ] {
            assert!(Request::parse(text).is_err(), "should reject: {text:?}");
        }
        // Single-line requests reject stray extra lines too.
        assert!(Request::parse("PING\nPING").is_err());
    }

    #[test]
    fn snapshot_request_roundtrips() {
        let req = Request::Snapshot {
            dataset: "imdb".into(),
            path: "/tmp/imdb.cegsnap".into(),
        };
        assert_eq!(req.format(), "SNAPSHOT imdb /tmp/imdb.cegsnap");
        assert_eq!(Request::parse(&req.format()).unwrap(), req);
        for line in ["SNAPSHOT", "SNAPSHOT ds", "SNAPSHOT ds /a/b extra"] {
            assert!(Request::parse(line).is_err(), "should reject: {line:?}");
        }
    }

    #[test]
    fn snapshot_response_roundtrips() {
        let r = Response::Snapshotted(SnapshotAck {
            epoch: 12,
            bytes: 4096,
        });
        assert_eq!(r.format(), "SNAPSHOTTED epoch=12 bytes=4096");
        assert_eq!(Response::parse(&r.format()).unwrap(), r);
    }

    #[test]
    fn batch_response_header_roundtrips() {
        let head = Response::Counted {
            kind: Command::EstimateBatch,
            n: 7,
        };
        assert_eq!(head.format(), "BATCH 7");
        assert_eq!(Response::parse("BATCH 7").unwrap(), head);
        assert_eq!(parse_batch_response_header("BATCH 7").unwrap(), 7);
        for line in ["BATCH", "BATCH x", "BATCH 1 2", "EST 1 cache=hit"] {
            assert!(parse_batch_response_header(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn update_responses_roundtrip() {
        let responses = [
            Response::Updated(UpdateAck {
                epoch: 3,
                pending: 17,
            }),
            Response::Committed(CommitOutcome {
                epoch: 4,
                added: 2,
                deleted: 1,
                recounted: 9,
                rebased: true,
                wal_bytes: 0,
            }),
            Response::Committed(CommitOutcome {
                epoch: 4,
                added: 0,
                deleted: 0,
                recounted: 0,
                rebased: false,
                wal_bytes: 0,
            }),
        ];
        for r in responses {
            assert_eq!(Response::parse(&r.format()).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = [
            Response::Pong,
            Response::Bye,
            Response::Error("unknown dataset `x`".into()),
            Response::Estimate {
                outcome: EstimateOutcome {
                    value: Some(1234.5),
                    cached: true,
                },
                hits: 7,
                misses: 3,
            },
            Response::Estimate {
                outcome: EstimateOutcome {
                    value: None,
                    cached: false,
                },
                hits: 0,
                misses: 1,
            },
            Response::Busy("queue full for dataset `imdb`".into()),
            Response::Timeout { deadline_ms: 250 },
            Response::Draining,
        ];
        for r in responses {
            assert_eq!(Response::parse(&r.format()).unwrap(), r);
        }
    }

    #[test]
    fn metrics_response_header_roundtrips() {
        let head = Response::Counted {
            kind: Command::Metrics,
            n: 12,
        };
        assert_eq!(head.format(), "METRICS 12");
        assert_eq!(Response::parse("METRICS 12").unwrap(), head);
        for (line, err) in [
            ("METRICS", "METRICS: missing count"),
            ("METRICS x", "METRICS: bad count"),
            ("METRICS 1 2", "METRICS: trailing tokens"),
        ] {
            assert_eq!(Response::parse(line), Err(err.into()));
        }
        assert_eq!(
            parse_metric_line("busy_total 7").unwrap(),
            ("busy_total".to_string(), 7)
        );
        for line in ["", "key", "key x", "key 1 2"] {
            assert!(parse_metric_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn explain_requests_roundtrip() {
        let req = Request::ExplainEstimate {
            dataset: "imdb".into(),
            query: templates::path(2, &[3, 4]),
            deadline_ms: Some(250),
        };
        assert_eq!(
            req.format(),
            "EXPLAIN_ESTIMATE imdb DEADLINE_MS=250 3 2 0 1 3 1 2 4"
        );
        assert_eq!(Request::parse(&req.format()).unwrap(), req);
        // Same grammar as ESTIMATE: same rejections.
        assert!(Request::parse("EXPLAIN_ESTIMATE ds 3 1 0 1").is_err());
        assert!(Request::parse("EXPLAIN_ESTIMATE ds DEADLINE_MS=x 3 1 0 1 0").is_err());
    }

    #[test]
    fn slowlog_and_prom_requests_roundtrip() {
        for req in [
            Request::SlowLog { n: None },
            Request::SlowLog { n: Some(5) },
            Request::MetricsProm,
        ] {
            assert_eq!(Request::parse(&req.format()).unwrap(), req);
        }
        assert!(Request::parse("SLOWLOG x").is_err());
        assert!(Request::parse("SLOWLOG 1 2").is_err());
        assert!(Request::parse("METRICS_PROM extra").is_err());
    }

    #[test]
    fn explain_headers_and_items_roundtrip() {
        let head = Response::Counted {
            kind: Command::ExplainEstimate,
            n: 9,
        };
        assert_eq!(head.format(), "EXPLAIN 9");
        assert_eq!(parse_explain_response_header("EXPLAIN 9").unwrap(), 9);
        assert!(parse_explain_response_header("EXPLAIN").is_err());
        assert!(parse_explain_response_header("BATCH 9").is_err());
        let items = [
            ExplainItem::Span {
                name: "catalog_fill".into(),
                micros: 1234,
            },
            ExplainItem::Counter {
                name: "kernel_candidates".into(),
                value: 42,
            },
        ];
        for item in items {
            assert_eq!(ExplainItem::parse(&item.format()).unwrap(), item);
        }
        for line in ["", "span x", "counter x y z", "gauge x 1", "span x 1 2"] {
            assert!(ExplainItem::parse(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn slowlog_entries_roundtrip() {
        use crate::engine::SlowQueryEntry;
        let e = SlowQueryEntry {
            id: 17,
            dataset: "imdb".into(),
            epoch: 3,
            micros: 312_000,
            cache_us: 12,
            fill_us: 300_000,
            estimate_us: 400,
            query: "3 2 0 1 3 1 2 4".into(),
        };
        let line = format_slowlog_entry(&e);
        assert_eq!(
            line,
            "id=17 dataset=imdb epoch=3 micros=312000 cache_us=12 \
             fill_us=300000 estimate_us=400 query=3 2 0 1 3 1 2 4"
        );
        assert_eq!(parse_slowlog_entry(&line).unwrap(), e);
        let head = Response::Counted {
            kind: Command::SlowLog,
            n: 2,
        };
        assert_eq!(head.format(), "SLOWLOG 2");
        assert_eq!(Response::parse("SLOWLOG 2").unwrap(), head);
        assert!(parse_slowlog_entry("id=1 dataset=x").is_err());
    }

    #[test]
    fn metrics_prom_header_roundtrips() {
        let head = Response::Counted {
            kind: Command::MetricsProm,
            n: 40,
        };
        assert_eq!(head.format(), "METRICS_PROM 40");
        assert_eq!(Response::parse("METRICS_PROM 40").unwrap(), head);
        assert_ne!(Response::parse("METRICS 40").unwrap(), head);
    }

    #[test]
    fn id_tail_appends_and_splits() {
        let mut line = "EST 42 cache=hit hits=1 misses=0".to_string();
        append_id(&mut line, 7);
        assert_eq!(line, "EST 42 cache=hit hits=1 misses=0 id=7");
        let (payload, id) = split_id(&line);
        assert_eq!(payload, "EST 42 cache=hit hits=1 misses=0");
        assert_eq!(id, Some(7));
        // Lines without a tail pass through untouched.
        assert_eq!(split_id("PONG"), ("PONG", None));
        assert_eq!(split_id("ERR bad id=x"), ("ERR bad id=x", None));
        // The stripped payload still parses.
        assert!(Response::parse(payload).is_ok());
    }

    #[test]
    fn estimate_values_roundtrip_exactly() {
        // Display/FromStr round-trips f64 exactly (shortest representation).
        for v in [0.1, 1e300, 123456789.123456, f64::MIN_POSITIVE] {
            let r = Response::Estimate {
                outcome: EstimateOutcome {
                    value: Some(v),
                    cached: false,
                },
                hits: 0,
                misses: 0,
            };
            match Response::parse(&r.format()).unwrap() {
                Response::Estimate { outcome, .. } => assert_eq!(outcome.value, Some(v)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
