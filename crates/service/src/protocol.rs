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
//! STATS                                           STATS requests=<n> batches=<n> hits=<n> misses=<n> datasets=<n> busy=<n> timeouts=<n> queued=<n>
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
//! (anything malformed)                            ERR <message>
//! (query too wide to estimate)                    ERR query has more than 65536 connected sub-queries
//! ```
//!
//! # Overload & lifecycle commands
//!
//! `DEADLINE_MS` bounds one estimate (or a whole batch) in wall-clock
//! milliseconds from the moment the server parses it; a request that
//! cannot be answered in time gets a typed `TIMEOUT` reply, never a
//! partial line. `BUSY` is the admission-control rejection: the
//! dataset already has its cap of cache misses admitted (or the server
//! is draining) and the request was refused *before* any counting or
//! estimation — clients retry with backoff. `STATS batches=` counts
//! engine calls: one per `ESTIMATE`, `EXPLAIN_ESTIMATE` or
//! `ESTIMATE_BATCH` request, whatever it hit or missed; `queued=` is the
//! number of misses admitted and not yet answered. `METRICS` dumps the whole metrics registry as `<key> <value>`
//! lines under a counted header (same framing discipline as `BATCH`).
//! `SHUTDOWN` asks the server to drain: the reply `DRAINING` confirms,
//! new work is BUSY-rejected, and the process writes final snapshots and
//! exits once in-flight work settles (see `cegcli serve`).
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
//! `.cegsnap` file (see `ceg_graph::snapshot`); `cegcli serve
//! --snapshot <path>` restores from it at boot. Because this is a
//! remote-triggered filesystem write, the path must end in `.cegsnap`
//! (a client can only replace snapshot files, never truncate arbitrary
//! server-writable files), and the write is atomic (temp file + sync +
//! rename), so a failed or concurrent snapshot never destroys the
//! previous good one.
//!
//! The query encoding (`num_vars num_edges` then `src dst label` triples)
//! matches the persisted workload format of `ceg-workload::io`, so a
//! workload file line maps 1:1 onto an `ESTIMATE` line.
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

use ceg_graph::{LabelId, VertexId};
use ceg_query::{QueryEdge, QueryGraph, VarId};

use crate::engine::{EngineStats, EstimateOutcome, SnapshotAck, UpdateAck};
use crate::registry::CommitOutcome;

/// Largest number of queries one `ESTIMATE_BATCH` may carry. Big enough
/// for any sane client batch, small enough that a hostile header cannot
/// make the server buffer unbounded lines.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
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

/// Parse the tail of an `ADD_EDGE`/`DEL_EDGE` line: `<ds> <src> <dst>
/// <label>` (syntax only; domain/growth bounds are the registry's job).
fn parse_update<'a>(
    cmd: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<(String, VertexId, VertexId, LabelId), String> {
    let dataset = it
        .next()
        .ok_or(format!("{cmd}: missing dataset"))?
        .to_string();
    let src: VertexId = it
        .next()
        .ok_or(format!("{cmd}: missing src"))?
        .parse()
        .map_err(|_| format!("{cmd}: bad src"))?;
    let dst: VertexId = it
        .next()
        .ok_or(format!("{cmd}: missing dst"))?
        .parse()
        .map_err(|_| format!("{cmd}: bad dst"))?;
    let label: LabelId = it
        .next()
        .ok_or(format!("{cmd}: missing label"))?
        .parse()
        .map_err(|_| format!("{cmd}: bad label"))?;
    if it.next().is_some() {
        return Err(format!("{cmd}: trailing tokens"));
    }
    Ok((dataset, src, dst, label))
}

/// Parse a query encoding `<nv> <ne> (<src> <dst> <lbl>)*` from a token
/// stream — the tail of an `ESTIMATE` line, or one full `ESTIMATE_BATCH`
/// query line. `ctx` prefixes error messages.
fn parse_query_tokens<'a>(
    ctx: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<QueryGraph, String> {
    let nv: VarId = it
        .next()
        .ok_or(format!("{ctx}: missing num_vars"))?
        .parse()
        .map_err(|_| format!("{ctx}: bad num_vars"))?;
    let ne: usize = it
        .next()
        .ok_or(format!("{ctx}: missing num_edges"))?
        .parse()
        .map_err(|_| format!("{ctx}: bad num_edges"))?;
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
        let src: VarId = it
            .next()
            .ok_or(format!("{ctx}: truncated edge list"))?
            .parse()
            .map_err(|_| format!("{ctx}: bad src"))?;
        let dst: VarId = it
            .next()
            .ok_or(format!("{ctx}: truncated edge list"))?
            .parse()
            .map_err(|_| format!("{ctx}: bad dst"))?;
        let label: u16 = it
            .next()
            .ok_or(format!("{ctx}: truncated edge list"))?
            .parse()
            .map_err(|_| format!("{ctx}: bad label"))?;
        if src >= nv || dst >= nv {
            return Err(format!(
                "{ctx}: edge endpoint out of range (vars are 0..{nv})"
            ));
        }
        edges.push(QueryEdge::new(src, dst, label));
    }
    if it.next().is_some() {
        return Err(format!("{ctx}: trailing tokens after edge list"));
    }
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

/// Parse an optional `DEADLINE_MS=<ms>` token. Returns `Ok(None)` if the
/// token is absent (`tok` was `None` or not a deadline attribute — the
/// caller decides what the token means then), `Ok(Some(ms))` on a valid
/// deadline, and an error on a malformed value.
fn parse_deadline_token(ctx: &str, tok: Option<&str>) -> Result<Option<u64>, String> {
    match tok.and_then(|t| t.strip_prefix("DEADLINE_MS=")) {
        None => Ok(None),
        Some(rest) => rest
            .parse()
            .map(Some)
            .map_err(|_| format!("{ctx}: bad DEADLINE_MS value")),
    }
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
pub fn append_id(line: &mut String, id: u64) {
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
pub fn parse_batch_header(line: &str) -> Result<(String, usize, Option<u64>), String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("ESTIMATE_BATCH") => {}
        _ => return Err("not an ESTIMATE_BATCH header".into()),
    }
    let dataset = it
        .next()
        .ok_or("ESTIMATE_BATCH: missing dataset")?
        .to_string();
    let n: usize = it
        .next()
        .ok_or("ESTIMATE_BATCH: missing query count")?
        .parse()
        .map_err(|_| "ESTIMATE_BATCH: bad query count")?;
    let tail = it.next();
    let deadline_ms = parse_deadline_token("ESTIMATE_BATCH", tail)?;
    if (tail.is_some() && deadline_ms.is_none()) || it.next().is_some() {
        return Err("ESTIMATE_BATCH: trailing tokens".into());
    }
    if n == 0 {
        return Err("ESTIMATE_BATCH: query count must be at least 1".into());
    }
    if n > MAX_BATCH_QUERIES {
        return Err(format!(
            "ESTIMATE_BATCH: query count {n} exceeds the limit of {MAX_BATCH_QUERIES}"
        ));
    }
    Ok((dataset, n, deadline_ms))
}

/// Render the `BATCH <n>` response header that precedes a batch's `n`
/// ordered response lines.
pub fn batch_response_header(n: usize) -> String {
    format!("BATCH {n}")
}

/// Parse a `BATCH <n>` response header.
pub fn parse_batch_response_header(line: &str) -> Result<usize, String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("BATCH") => {}
        _ => return Err(format!("expected BATCH header, got `{line}`")),
    }
    let n: usize = it
        .next()
        .ok_or("BATCH: missing count")?
        .parse()
        .map_err(|_| "BATCH: bad count")?;
    if it.next().is_some() {
        return Err("BATCH: trailing tokens".into());
    }
    Ok(n)
}

/// Render the `METRICS <n>` response header that precedes `n`
/// `<key> <value>` lines.
pub fn metrics_response_header(n: usize) -> String {
    format!("METRICS {n}")
}

/// Parse a `METRICS <n>` response header.
pub fn parse_metrics_response_header(line: &str) -> Result<usize, String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("METRICS") => {}
        _ => return Err(format!("expected METRICS header, got `{line}`")),
    }
    let n: usize = it
        .next()
        .ok_or("METRICS: missing count")?
        .parse()
        .map_err(|_| "METRICS: bad count")?;
    if it.next().is_some() {
        return Err("METRICS: trailing tokens".into());
    }
    Ok(n)
}

/// Render one `<key> <value>` line of a `METRICS` reply body — the
/// counterpart of [`parse_metric_line`], so the body grammar has exactly
/// one owner on each side of the wire.
pub fn format_metric_line(key: &str, value: u64) -> String {
    format!("{key} {value}")
}

/// One Prometheus text-exposition line of a `METRICS_PROM` reply body.
/// The engine already renders full exposition lines; this pass-through
/// exists so every byte a connection handler writes still flows through
/// a `protocol::` constructor (the typed-reply lint keys on that).
pub fn format_prom_line(line: &str) -> &str {
    line
}

/// Parse one `<key> <value>` line of a `METRICS` reply body.
pub fn parse_metric_line(line: &str) -> Result<(String, u64), String> {
    let mut it = line.split_whitespace();
    let key = it.next().ok_or("metric line: missing key")?.to_string();
    let value: u64 = it
        .next()
        .ok_or("metric line: missing value")?
        .parse()
        .map_err(|_| format!("metric line: bad value for `{key}`"))?;
    if it.next().is_some() {
        return Err("metric line: trailing tokens".into());
    }
    Ok((key, value))
}

/// Render the `EXPLAIN <n>` response header that precedes the EST (or
/// TIMEOUT) line and the span/counter breakdown of an
/// `EXPLAIN_ESTIMATE`.
pub fn explain_response_header(n: usize) -> String {
    format!("EXPLAIN {n}")
}

/// Parse an `EXPLAIN <n>` response header.
pub fn parse_explain_response_header(line: &str) -> Result<usize, String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("EXPLAIN") => {}
        _ => return Err(format!("expected EXPLAIN header, got `{line}`")),
    }
    let n: usize = it
        .next()
        .ok_or("EXPLAIN: missing count")?
        .parse()
        .map_err(|_| "EXPLAIN: bad count")?;
    if it.next().is_some() {
        return Err("EXPLAIN: trailing tokens".into());
    }
    Ok(n)
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
        let mut it = line.split_whitespace();
        let kind = it.next().ok_or("explain line: empty")?;
        let name = it
            .next()
            .ok_or(format!("explain line: missing name in `{line}`"))?
            .to_string();
        let value: u64 = it
            .next()
            .ok_or(format!("explain line: missing value in `{line}`"))?
            .parse()
            .map_err(|_| format!("explain line: bad value in `{line}`"))?;
        if it.next().is_some() {
            return Err(format!("explain line: trailing tokens in `{line}`"));
        }
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

/// Render the `SLOWLOG <n>` response header that precedes `n` slow-query
/// record lines.
pub fn slowlog_response_header(n: usize) -> String {
    format!("SLOWLOG {n}")
}

/// Parse a `SLOWLOG <n>` response header.
pub fn parse_slowlog_response_header(line: &str) -> Result<usize, String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("SLOWLOG") => {}
        _ => return Err(format!("expected SLOWLOG header, got `{line}`")),
    }
    let n: usize = it
        .next()
        .ok_or("SLOWLOG: missing count")?
        .parse()
        .map_err(|_| "SLOWLOG: bad count")?;
    if it.next().is_some() {
        return Err("SLOWLOG: trailing tokens".into());
    }
    Ok(n)
}

/// Render one slow-query record as a wire line. The query encoding goes
/// **last** because it contains spaces; every other field is a fixed
/// `key=value` token.
pub fn format_slowlog_entry(e: &crate::engine::SlowQueryEntry) -> String {
    format!(
        "id={} dataset={} epoch={} micros={} cache_us={} fill_us={} estimate_us={} query={}",
        e.id, e.dataset, e.epoch, e.micros, e.cache_us, e.fill_us, e.estimate_us, e.query
    )
}

/// Parse one slow-query record line.
pub fn parse_slowlog_entry(line: &str) -> Result<crate::engine::SlowQueryEntry, String> {
    let mut it = line.split_whitespace();
    let id = kv(it.next(), "id")?
        .parse()
        .map_err(|_| "slowlog: bad id")?;
    let dataset = kv(it.next(), "dataset")?.to_string();
    let epoch = kv(it.next(), "epoch")?
        .parse()
        .map_err(|_| "slowlog: bad epoch")?;
    let micros = kv(it.next(), "micros")?
        .parse()
        .map_err(|_| "slowlog: bad micros")?;
    let cache_us = kv(it.next(), "cache_us")?
        .parse()
        .map_err(|_| "slowlog: bad cache_us")?;
    let fill_us = kv(it.next(), "fill_us")?
        .parse()
        .map_err(|_| "slowlog: bad fill_us")?;
    let estimate_us = kv(it.next(), "estimate_us")?
        .parse()
        .map_err(|_| "slowlog: bad estimate_us")?;
    let first = kv(it.next(), "query")?;
    let mut query = first.to_string();
    for tok in it {
        query.push(' ');
        query.push_str(tok);
    }
    Ok(crate::engine::SlowQueryEntry {
        id,
        dataset,
        epoch,
        micros,
        cache_us,
        fill_us,
        estimate_us,
        query,
    })
}

/// Render the `METRICS_PROM <n>` response header that precedes `n`
/// Prometheus text-exposition lines.
pub fn metrics_prom_response_header(n: usize) -> String {
    format!("METRICS_PROM {n}")
}

/// Parse a `METRICS_PROM <n>` response header.
pub fn parse_metrics_prom_response_header(line: &str) -> Result<usize, String> {
    let mut it = line.split_whitespace();
    match it.next() {
        Some("METRICS_PROM") => {}
        _ => return Err(format!("expected METRICS_PROM header, got `{line}`")),
    }
    let n: usize = it
        .next()
        .ok_or("METRICS_PROM: missing count")?
        .parse()
        .map_err(|_| "METRICS_PROM: bad count")?;
    if it.next().is_some() {
        return Err("METRICS_PROM: trailing tokens".into());
    }
    Ok(n)
}

impl Request {
    /// Parse one request. Input is a single line for every command except
    /// `ESTIMATE_BATCH`, whose header line is followed by the announced
    /// number of query lines (the server assembles them before calling
    /// this).
    pub fn parse(input: &str) -> Result<Request, String> {
        let mut lines = input.lines();
        let line = lines.next().unwrap_or("");
        if line.split_whitespace().next() == Some("ESTIMATE_BATCH") {
            let (dataset, n, deadline_ms) = parse_batch_header(line)?;
            let mut queries = Vec::with_capacity(n);
            for i in 0..n {
                let qline = lines
                    .next()
                    .ok_or(format!("ESTIMATE_BATCH: missing query line {}", i + 1))?;
                let ctx = format!("ESTIMATE_BATCH query {}", i + 1);
                queries.push(parse_query_tokens(&ctx, &mut qline.split_whitespace())?);
            }
            if lines.next().is_some() {
                return Err("ESTIMATE_BATCH: trailing lines after the batch".into());
            }
            return Ok(Request::EstimateBatch {
                dataset,
                queries,
                deadline_ms,
            });
        }
        let request = Self::parse_single_line(&mut line.split_whitespace())?;
        if lines.next().is_some() {
            return Err("trailing lines after a single-line request".into());
        }
        Ok(request)
    }

    /// Parse a single-line request (everything but `ESTIMATE_BATCH`,
    /// which [`Request::parse`] assembles from its follow-up lines).
    fn parse_single_line<'a>(
        mut it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Request, String> {
        match it.next() {
            Some("PING") => Ok(Request::Ping),
            Some("STATS") => Ok(Request::Stats),
            Some("METRICS") => Ok(Request::Metrics),
            Some("METRICS_PROM") => {
                if it.next().is_some() {
                    return Err("METRICS_PROM: trailing tokens".into());
                }
                Ok(Request::MetricsProm)
            }
            Some("SLOWLOG") => {
                let n = match it.next() {
                    None => None,
                    Some(tok) => Some(
                        tok.parse::<usize>()
                            .map_err(|_| "SLOWLOG: bad entry count".to_string())?,
                    ),
                };
                if it.next().is_some() {
                    return Err("SLOWLOG: trailing tokens".into());
                }
                Ok(Request::SlowLog { n })
            }
            Some("SHUTDOWN") => Ok(Request::Shutdown),
            Some("QUIT") => Ok(Request::Quit),
            Some("ADD_EDGE") => {
                let (dataset, src, dst, label) = parse_update("ADD_EDGE", &mut it)?;
                Ok(Request::AddEdge {
                    dataset,
                    src,
                    dst,
                    label,
                })
            }
            Some("DEL_EDGE") => {
                let (dataset, src, dst, label) = parse_update("DEL_EDGE", &mut it)?;
                Ok(Request::DelEdge {
                    dataset,
                    src,
                    dst,
                    label,
                })
            }
            Some("COMMIT") => {
                let dataset = it.next().ok_or("COMMIT: missing dataset")?.to_string();
                if it.next().is_some() {
                    return Err("COMMIT: trailing tokens".into());
                }
                Ok(Request::Commit { dataset })
            }
            Some(cmd @ ("ESTIMATE" | "EXPLAIN_ESTIMATE")) => {
                let dataset = it
                    .next()
                    .ok_or(format!("{cmd}: missing dataset"))?
                    .to_string();
                // The deadline attribute is optional; if the next token
                // isn't one, it is the start of the query encoding.
                let first = it.next().ok_or(format!("{cmd}: missing num_vars"))?;
                let deadline_ms = parse_deadline_token(cmd, Some(first))?;
                let query = if deadline_ms.is_some() {
                    parse_query_tokens(cmd, it)?
                } else {
                    parse_query_tokens(cmd, &mut std::iter::once(first).chain(it))?
                };
                if cmd == "EXPLAIN_ESTIMATE" {
                    Ok(Request::ExplainEstimate {
                        dataset,
                        query,
                        deadline_ms,
                    })
                } else {
                    Ok(Request::Estimate {
                        dataset,
                        query,
                        deadline_ms,
                    })
                }
            }
            Some("SNAPSHOT") => {
                let dataset = it.next().ok_or("SNAPSHOT: missing dataset")?.to_string();
                let path = it.next().ok_or("SNAPSHOT: missing path")?.to_string();
                if it.next().is_some() {
                    return Err("SNAPSHOT: trailing tokens (paths cannot contain spaces)".into());
                }
                Ok(Request::Snapshot { dataset, path })
            }
            Some(other) => Err(format!("unknown command `{other}`")),
            None => Err("empty request".into()),
        }
    }

    /// Render the request in wire form (no trailing newline). Every
    /// request is one line except `ESTIMATE_BATCH`, which renders as its
    /// header followed by one line per query.
    pub fn format(&self) -> String {
        match self {
            Request::Ping => "PING".into(),
            Request::Stats => "STATS".into(),
            Request::Metrics => "METRICS".into(),
            Request::Shutdown => "SHUTDOWN".into(),
            Request::Quit => "QUIT".into(),
            Request::Snapshot { dataset, path } => format!("SNAPSHOT {dataset} {path}"),
            Request::EstimateBatch {
                dataset,
                queries,
                deadline_ms,
            } => {
                let mut text = format!("ESTIMATE_BATCH {dataset} {}", queries.len());
                if let Some(ms) = deadline_ms {
                    text.push_str(&format!(" DEADLINE_MS={ms}"));
                }
                for q in queries {
                    text.push('\n');
                    format_query_tokens(&mut text, q);
                }
                text
            }
            Request::AddEdge {
                dataset,
                src,
                dst,
                label,
            } => format!("ADD_EDGE {dataset} {src} {dst} {label}"),
            Request::DelEdge {
                dataset,
                src,
                dst,
                label,
            } => format!("DEL_EDGE {dataset} {src} {dst} {label}"),
            Request::Commit { dataset } => format!("COMMIT {dataset}"),
            Request::Estimate {
                dataset,
                query,
                deadline_ms,
            } => {
                let mut line = format!("ESTIMATE {dataset} ");
                if let Some(ms) = deadline_ms {
                    line.push_str(&format!("DEADLINE_MS={ms} "));
                }
                format_query_tokens(&mut line, query);
                line
            }
            Request::ExplainEstimate {
                dataset,
                query,
                deadline_ms,
            } => {
                let mut line = format!("EXPLAIN_ESTIMATE {dataset} ");
                if let Some(ms) = deadline_ms {
                    line.push_str(&format!("DEADLINE_MS={ms} "));
                }
                format_query_tokens(&mut line, query);
                line
            }
            Request::SlowLog { n } => match n {
                Some(n) => format!("SLOWLOG {n}"),
                None => "SLOWLOG".into(),
            },
            Request::MetricsProm => "METRICS_PROM".into(),
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
    Stats(EngineStats),
    /// Acknowledgement of a buffered `ADD_EDGE`/`DEL_EDGE`.
    Updated(UpdateAck),
    /// Result of a `COMMIT`.
    Committed(CommitOutcome),
    /// Result of a `SNAPSHOT`: the persisted epoch and file size.
    Snapshotted(SnapshotAck),
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
            Response::Stats(s) => format!(
                "STATS requests={} batches={} hits={} misses={} datasets={} \
                 busy={} timeouts={} queued={}",
                s.requests,
                s.batches,
                s.cache_hits,
                s.cache_misses,
                s.datasets,
                s.busy,
                s.timeouts,
                s.queued
            ),
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
        let mut it = line.split_whitespace();
        match it.next() {
            Some("PONG") => Ok(Response::Pong),
            Some("BYE") => Ok(Response::Bye),
            Some("DRAINING") => Ok(Response::Draining),
            Some("ERR") => {
                let rest = line.trim_start();
                Ok(Response::Error(
                    rest.strip_prefix("ERR").unwrap_or(rest).trim().to_string(),
                ))
            }
            Some("BUSY") => {
                let rest = line.trim_start();
                Ok(Response::Busy(
                    rest.strip_prefix("BUSY").unwrap_or(rest).trim().to_string(),
                ))
            }
            Some("TIMEOUT") => {
                let deadline_ms = kv(it.next(), "deadline_ms")?
                    .parse()
                    .map_err(|_| "TIMEOUT: bad deadline_ms")?;
                Ok(Response::Timeout { deadline_ms })
            }
            Some("EST") => {
                let value_tok = it.next().ok_or("EST: missing value")?;
                let value = match value_tok {
                    "none" => None,
                    v => Some(v.parse::<f64>().map_err(|_| "EST: bad value")?),
                };
                let cached = match kv(it.next(), "cache")? {
                    "hit" => true,
                    "miss" => false,
                    other => return Err(format!("EST: bad cache flag `{other}`")),
                };
                let hits = kv(it.next(), "hits")?
                    .parse()
                    .map_err(|_| "EST: bad hits")?;
                let misses = kv(it.next(), "misses")?
                    .parse()
                    .map_err(|_| "EST: bad misses")?;
                Ok(Response::Estimate {
                    outcome: EstimateOutcome { value, cached },
                    hits,
                    misses,
                })
            }
            Some("OK") => {
                let epoch = kv(it.next(), "epoch")?
                    .parse()
                    .map_err(|_| "OK: bad epoch")?;
                let pending = kv(it.next(), "pending")?
                    .parse()
                    .map_err(|_| "OK: bad pending")?;
                Ok(Response::Updated(UpdateAck { epoch, pending }))
            }
            Some("COMMITTED") => {
                let epoch = kv(it.next(), "epoch")?
                    .parse()
                    .map_err(|_| "COMMITTED: bad epoch")?;
                let added = kv(it.next(), "added")?
                    .parse()
                    .map_err(|_| "COMMITTED: bad added")?;
                let deleted = kv(it.next(), "deleted")?
                    .parse()
                    .map_err(|_| "COMMITTED: bad deleted")?;
                let recounted = kv(it.next(), "recounted")?
                    .parse()
                    .map_err(|_| "COMMITTED: bad recounted")?;
                let rebased = match kv(it.next(), "rebased")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("COMMITTED: bad rebased flag `{other}`")),
                };
                Ok(Response::Committed(CommitOutcome {
                    epoch,
                    added,
                    deleted,
                    recounted,
                    rebased,
                    // Not part of the wire format: a server-side detail
                    // the client cannot observe.
                    wal_bytes: 0,
                }))
            }
            Some("SNAPSHOTTED") => {
                let epoch = kv(it.next(), "epoch")?
                    .parse()
                    .map_err(|_| "SNAPSHOTTED: bad epoch")?;
                let bytes = kv(it.next(), "bytes")?
                    .parse()
                    .map_err(|_| "SNAPSHOTTED: bad bytes")?;
                Ok(Response::Snapshotted(SnapshotAck { epoch, bytes }))
            }
            Some("STATS") => {
                let requests = kv(it.next(), "requests")?
                    .parse()
                    .map_err(|_| "STATS: bad requests")?;
                let batches = kv(it.next(), "batches")?
                    .parse()
                    .map_err(|_| "STATS: bad batches")?;
                let cache_hits = kv(it.next(), "hits")?
                    .parse()
                    .map_err(|_| "STATS: bad hits")?;
                let cache_misses = kv(it.next(), "misses")?
                    .parse()
                    .map_err(|_| "STATS: bad misses")?;
                let datasets = kv(it.next(), "datasets")?
                    .parse()
                    .map_err(|_| "STATS: bad datasets")?;
                let busy = kv(it.next(), "busy")?
                    .parse()
                    .map_err(|_| "STATS: bad busy")?;
                let timeouts = kv(it.next(), "timeouts")?
                    .parse()
                    .map_err(|_| "STATS: bad timeouts")?;
                let queued = kv(it.next(), "queued")?
                    .parse()
                    .map_err(|_| "STATS: bad queued")?;
                Ok(Response::Stats(EngineStats {
                    requests,
                    batches,
                    cache_hits,
                    cache_misses,
                    datasets,
                    busy,
                    timeouts,
                    queued,
                }))
            }
            Some(other) => Err(format!("unknown response `{other}`")),
            None => Err("empty response".into()),
        }
    }
}

/// Extract the value of a `key=value` token, checking the key.
fn kv<'a>(tok: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let tok = tok.ok_or_else(|| format!("missing {key}=…"))?;
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=…, got `{tok}`"))
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
            Request::Stats,
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
        ] {
            assert!(Request::parse(line).is_err(), "should reject: {line:?}");
        }
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
        assert_eq!(batch_response_header(7), "BATCH 7");
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
            Response::Stats(EngineStats {
                requests: 10,
                batches: 4,
                cache_hits: 6,
                cache_misses: 4,
                datasets: 2,
                busy: 3,
                timeouts: 1,
                queued: 5,
            }),
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
        assert_eq!(metrics_response_header(12), "METRICS 12");
        assert_eq!(parse_metrics_response_header("METRICS 12").unwrap(), 12);
        for line in ["METRICS", "METRICS x", "METRICS 1 2", "BATCH 3"] {
            assert!(parse_metrics_response_header(line).is_err(), "{line:?}");
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
        assert_eq!(explain_response_header(9), "EXPLAIN 9");
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
        assert_eq!(slowlog_response_header(2), "SLOWLOG 2");
        assert_eq!(parse_slowlog_response_header("SLOWLOG 2").unwrap(), 2);
        assert!(parse_slowlog_entry("id=1 dataset=x").is_err());
    }

    #[test]
    fn metrics_prom_header_roundtrips() {
        assert_eq!(metrics_prom_response_header(40), "METRICS_PROM 40");
        assert_eq!(
            parse_metrics_prom_response_header("METRICS_PROM 40").unwrap(),
            40
        );
        assert!(parse_metrics_prom_response_header("METRICS 40").is_err());
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
