//! The TCP front end: accept loop, connection handlers and the drain
//! lifecycle. There are no worker threads: the thread that reads a
//! request runs it.
//!
//! Request lifecycle:
//!
//! 1. A connection handler thread reads one protocol line and parses it.
//! 2. `ESTIMATE`, `ESTIMATE_BATCH` and `EXPLAIN_ESTIMATE` all call
//!    [`Engine::estimate_batch`] on the handler thread. It hashes and
//!    probes once — a cache hit is answered there and never waits behind
//!    cold work — then applies overload control to the misses: each
//!    dataset has a bounded budget of admitted misses
//!    ([`ServerConfig::queue_cap`]; beyond it the answer is `BUSY`
//!    immediately), and a fixed number of run slots
//!    (`max(2, available_parallelism)`) bounds how many misses count and
//!    estimate at once however many connections are open. A miss that
//!    waited for its slot past its deadline is a typed `TIMEOUT`, one a
//!    drain overtook a typed `BUSY`; the rest run with the deadline
//!    checked between plan depths inside the counting kernel.
//! 3. The handler writes each reply line as its outcome arrives (a batch
//!    streams its slots in request order). `PING`/`STATS`/`METRICS` are
//!    answered inline too; `SHUTDOWN` flips the drain flag and answers
//!    `DRAINING`.
//!
//! Every accepted request is answered with exactly one of: an estimate,
//! a typed `BUSY`, a typed `TIMEOUT`, or an `ERR` — nothing is silently
//! dropped, which is what makes the overload tests assertable.
//!
//! Concurrency discipline: a request pins one immutable epoch state, the
//! Markov catalog is behind an `RwLock` written only by fills, the cache
//! behind a `Mutex` held for probes/stores only — never during counting
//! or estimation. Admission counters and the metrics registry are plain
//! atomics.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ceg_core::sync::{self, LockRank, OrderedMutex};
use ceg_core::trace::Trace;
use ceg_query::QueryGraph;

use crate::engine::{
    Engine, QueryOutcome, RequestCtx, SlowQueryEntry, DEFAULT_SLOW_QUERY_THRESHOLD_MS,
};
use crate::metrics::{Metrics, Series};
use crate::protocol::{self, Command, ExplainItem, Request, Response};
use crate::registry::DatasetRegistry;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// LRU estimate-cache capacity in hash buckets (0 disables caching).
    pub cache_capacity: usize,
    /// Admission control: maximum cache-missing estimates admitted
    /// (waiting for a run slot or running) per dataset. Misses beyond
    /// the cap get a typed `BUSY` instead of waiting without bound.
    pub queue_cap: usize,
    /// Deadline applied to estimates that don't carry their own
    /// `DEADLINE_MS`. `None` means unbounded (seed behaviour).
    pub default_deadline_ms: Option<u64>,
    /// Where [`Server::drain`] writes one final `<dataset>.cegsnap` per
    /// dataset. `None` skips the final snapshots.
    pub drain_snapshot_dir: Option<PathBuf>,
    /// How long [`Server::drain`] waits for admitted misses to settle
    /// before abandoning them (their connection handlers still answer
    /// them; this just bounds process exit).
    pub drain_grace_ms: u64,
    /// Misses at least this slow (wall-clock milliseconds) are recorded
    /// in the slow-query ring (`SLOWLOG`).
    pub slow_query_threshold_ms: u64,
    /// After an acked `COMMIT`, fold a dataset's WAL into a fresh
    /// snapshot once the log reaches this many bytes (0 disables the
    /// byte trigger). Only affects datasets with durability attached.
    pub wal_rotate_bytes: u64,
    /// Commit-count rotation trigger: fold the WAL after this many
    /// effective commits since the last snapshot (0 disables).
    pub snapshot_interval_commits: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 4096,
            queue_cap: 1024,
            default_deadline_ms: Some(30_000),
            drain_snapshot_dir: None,
            drain_grace_ms: 5_000,
            slow_query_threshold_ms: DEFAULT_SLOW_QUERY_THRESHOLD_MS,
            wal_rotate_bytes: 1 << 22,
            snapshot_interval_commits: 0,
        }
    }
}

/// A condvar so `cegcli serve` can block on "has anyone asked us to
/// shut down?" instead of polling. The drain flag itself lives in the
/// engine, which re-checks it before starting each miss.
struct Lifecycle {
    /// `LockRank::PoolShard`: the wait loop parks on this with nothing
    /// else held, and `request_drain` touches only the flag itself.
    signal: OrderedMutex<bool>,
    cv: Condvar,
}

impl Lifecycle {
    fn new() -> Self {
        Lifecycle {
            signal: OrderedMutex::new(LockRank::PoolShard, false),
            cv: Condvar::new(),
        }
    }

    /// Wake everyone blocked in [`Lifecycle::wait_drain_requested`].
    fn notify(&self) {
        let mut flag = self.signal.lock();
        *flag = true;
        self.cv.notify_all();
    }

    fn wait_drain_requested(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut flag = self.signal.lock();
        while !*flag {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = sync::wait_timeout(&self.cv, flag, deadline - now);
            flag = guard;
        }
        true
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    engine: Arc<Engine>,
    lifecycle: Lifecycle,
    default_deadline_ms: Option<u64>,
    /// WAL rotation triggers checked after each acked `COMMIT` (see
    /// [`ServerConfig::wal_rotate_bytes`] /
    /// [`ServerConfig::snapshot_interval_commits`]).
    wal_rotate_bytes: u64,
    snapshot_interval_commits: u64,
    /// Per-request id source: every request a connection handler reads
    /// gets the next id, echoed as the ` id=<n>` reply tail and stamped
    /// on slow-query records.
    next_request_id: AtomicU64,
}

impl Shared {
    fn request_drain(&self) {
        self.engine.begin_drain();
        self.lifecycle.notify();
    }
}

/// What [`Server::drain`] did.
#[derive(Debug)]
pub struct DrainReport {
    /// `(dataset, path, bytes)` for each final snapshot written.
    pub snapshots: Vec<(String, PathBuf, u64)>,
    /// Misses still admitted when the grace period expired (their typed
    /// replies are their connection handlers' job; this only bounds
    /// process exit).
    pub abandoned: u64,
    /// The slow-query ring at drain time, newest first — slow queries
    /// from the final serving window survive into the shutdown report
    /// instead of dying with the process.
    pub slowlog: Vec<SlowQueryEntry>,
}

/// A running estimation server. [`Server::shutdown`] (or dropping the
/// server) stops accepting and joins the accept thread; open connections
/// keep their handler threads, so in-flight requests are always
/// answered. [`Server::drain`] is the graceful variant: flip the drain
/// flag first so in-flight work resolves to typed replies, then write
/// final snapshots.
pub struct Server {
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    config: ServerConfig,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving the datasets in `registry`.
    pub fn start(
        registry: Arc<DatasetRegistry>,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::with_queue_cap(
            registry,
            config.cache_capacity,
            config.queue_cap.max(1),
        ));
        engine.set_slow_query_threshold_ms(config.slow_query_threshold_ms);
        let shared = Arc::new(Shared {
            engine: engine.clone(),
            lifecycle: Lifecycle::new(),
            default_deadline_ms: config.default_deadline_ms,
            wal_rotate_bytes: config.wal_rotate_bytes,
            snapshot_interval_commits: config.snapshot_interval_commits,
            next_request_id: AtomicU64::new(1),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = shared.clone();
            let stop = stop.clone();
            thread::Builder::new()
                .name("ceg-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = shared.clone();
                        let _ = thread::Builder::new()
                            .name("ceg-conn".into())
                            .stack_size(CONN_STACK_BYTES)
                            .spawn(move || {
                                let _ = serve_connection(stream, &shared);
                            });
                    }
                })?
        };
        Ok(Server {
            engine,
            shared,
            config,
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (counters, registry) — handy in tests and benches.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Flip the drain flag (as the wire `SHUTDOWN` command does): new
    /// work is BUSY-rejected from this point on. The caller still owns
    /// the actual teardown via [`Server::drain`].
    pub fn request_drain(&self) {
        self.shared.request_drain();
    }

    /// Has anyone (wire `SHUTDOWN`, signal handler, or
    /// [`Server::request_drain`]) asked for a drain?
    pub fn drain_requested(&self) -> bool {
        self.engine.draining()
    }

    /// Block up to `timeout` for a drain request; `true` if one arrived.
    /// `cegcli serve` sits in this instead of a poll loop.
    pub fn wait_drain_requested(&self, timeout: Duration) -> bool {
        self.shared.lifecycle.wait_drain_requested(timeout)
    }

    /// Gracefully drain and stop: reject new work, stop accepting, wait
    /// up to the grace period for admitted misses to resolve into typed
    /// replies, then write one final snapshot per dataset into
    /// `drain_snapshot_dir` (if configured).
    pub fn drain(mut self) -> io::Result<DrainReport> {
        self.shared.request_drain();
        // Stop accepting before snapshotting; existing connections keep
        // their handler threads and with them the typed-reply guarantee.
        self.stop_accepting();
        let grace_until = Instant::now() + Duration::from_millis(self.config.drain_grace_ms);
        let metrics = self.engine.metrics().clone();
        while metrics.get(Series::Queued) > 0 && Instant::now() < grace_until {
            thread::sleep(Duration::from_millis(1));
        }
        let abandoned = metrics.get(Series::Queued);
        let mut snapshots = Vec::new();
        if let Some(dir) = self.config.drain_snapshot_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            for name in self.engine.registry().names() {
                let Some(entry) = self.engine.registry().get(&name) else {
                    continue;
                };
                let path = dir.join(format!("{name}.cegsnap"));
                let (_epoch, bytes) = entry.write_snapshot(&path)?;
                snapshots.push((name, path, bytes));
            }
        }
        Ok(DrainReport {
            snapshots,
            abandoned,
            slowlog: self.engine.slowlog(usize::MAX),
        })
    }

    /// Stop accepting new connections and join the accept thread.
    /// Connection handlers finish the requests they are running and exit
    /// when their clients disconnect.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Longest accepted request line. The largest legal request (32 edges,
/// maximal numbers, a long dataset name) is well under 1 KB; anything
/// bigger is garbage, and without a cap a client that never sends a
/// newline would grow the read buffer without bound.
const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Stream-buffer capacity per direction. Small on purpose: an idle
/// connection holds exactly two of these plus a (shrunk) line buffer.
const STREAM_BUF_BYTES: usize = 4 * 1024;

/// The line buffer is shrunk back to this after any request that grew it
/// (a big batch, an overlong-garbage line), so idle connections don't pin
/// up to [`MAX_LINE_BYTES`] each.
const IDLE_LINE_CAP: usize = 1024;

/// Connection-handler stack size. The handler runs the estimate itself:
/// the counting kernel recurses once per pattern variable (at most the
/// Markov depth `h` + 1) and the isomorphism search once per query
/// variable (at most 32). Measured on a debug build, whose frames are
/// the largest: the maximal 32-edge query needs under 64 KB at `h` = 3
/// and at `h` = 6 alike, so this keeps a 4x margin;
/// `tests/service.rs::maximal_query_answers_on_the_connection_thread`
/// aborts if it stops being enough. A fleet of idle connections should
/// cost kilobytes apiece, not the 8 MB Linux default.
const CONN_STACK_BYTES: usize = 256 * 1024;

/// Outcome of reading one capped request line.
enum LineRead {
    /// A complete line (newline stripped is up to the caller).
    Line,
    /// Client closed the connection.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] without a newline.
    TooLong,
}

/// Read one request line into `line` (cleared first), enforcing the
/// length cap.
fn read_request_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<LineRead> {
    line.clear();
    let n = io::Read::take(reader, MAX_LINE_BYTES).read_line(line)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if n as u64 >= MAX_LINE_BYTES && !line.ends_with('\n') {
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

/// Resolve a request's effective deadline: its own `DEADLINE_MS`, else
/// the server default, else unbounded. A value so large the clock cannot
/// represent it is treated as unbounded rather than panicking.
fn effective_deadline(request_ms: Option<u64>, default_ms: Option<u64>) -> Option<(Instant, u64)> {
    let ms = request_ms.or(default_ms)?;
    let at = Instant::now().checked_add(Duration::from_millis(ms))?;
    Some((at, ms))
}

/// Write one reply and flush: the head line `response` — stamped with
/// the request's ` id=<n>` tail — then, under a [`Response::Counted`]
/// head, its `body` lines as they are (their grammar owns the whole
/// line). The single funnel every byte a handler sends goes through, and
/// so the place `ERR` is counted: every error actually sent to a client
/// is counted exactly once here, no matter which layer produced it.
fn write_reply(
    writer: &mut BufWriter<TcpStream>,
    metrics: &Metrics,
    response: &Response,
    body: &[String],
    id: u64,
) -> io::Result<()> {
    if matches!(response, Response::Error(_)) {
        metrics.inc(Series::Error);
    }
    let mut line = response.format();
    protocol::append_id(&mut line, id);
    writeln!(writer, "{line}")?;
    for line in body {
        writeln!(writer, "{line}")?;
    }
    writer.flush()
}

/// The reply line for one estimate outcome. `deadline` is the request's
/// effective deadline, whose millisecond value a `TIMEOUT` echoes.
fn outcome_response(
    engine: &Engine,
    dataset: &str,
    outcome: QueryOutcome,
    deadline: Option<(Instant, u64)>,
) -> Response {
    match outcome {
        QueryOutcome::Done(outcome) => {
            let stats = engine.stats();
            Response::Estimate {
                outcome,
                hits: stats.cache_hits,
                misses: stats.cache_misses,
            }
        }
        QueryOutcome::TimedOut => Response::Timeout {
            deadline_ms: deadline.map_or(0, |(_, ms)| ms),
        },
        QueryOutcome::QueueFull => Response::Busy(format!("queue full for dataset `{dataset}`")),
        QueryOutcome::Draining => Response::Busy("server draining".into()),
        QueryOutcome::TooWide => Response::Error(format!(
            "query has more than {} connected sub-queries",
            QueryGraph::MAX_CONNECTED_SUBSETS
        )),
    }
}

/// Answer `queries` (an `ESTIMATE`, or the slots of an `ESTIMATE_BATCH`
/// whose header is already written) with one reply line each, written
/// and flushed as the engine produces it — a batch streams, and a drain
/// that overtakes it shows up in its later slots.
fn write_estimates(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    dataset: &str,
    queries: &[QueryGraph],
    deadline_ms: Option<u64>,
    id: u64,
) -> io::Result<()> {
    let engine = &shared.engine;
    let deadline = effective_deadline(deadline_ms, shared.default_deadline_ms);
    let ctx = RequestCtx {
        id,
        deadline: deadline.map(|(at, _)| at),
        trace: None,
    };
    let mut written = Ok(());
    let answered = engine.estimate_batch(dataset, queries, ctx, |outcome| {
        if written.is_ok() {
            let response = outcome_response(engine, dataset, outcome, deadline);
            written = write_reply(writer, engine.metrics(), &response, &[], id);
        }
    });
    if let Err(msg) = answered {
        for _ in queries {
            let err = Response::Error(msg.clone());
            write_reply(writer, engine.metrics(), &err, &[], id)?;
        }
    }
    written
}

/// Run `EXPLAIN_ESTIMATE`: `ESTIMATE` with a live trace — the same engine
/// call, under the same admission and run-slot bounds, so the trace
/// covers what a plain estimate would have done. The reply is a counted
/// breakdown, returned as its body lines (the estimate's own reply line,
/// then the spans and counters); a rejected query has none and gets the
/// one `ERR` line `ESTIMATE` would send.
fn explain(
    shared: &Shared,
    dataset: &str,
    query: &QueryGraph,
    deadline_ms: Option<u64>,
    id: u64,
) -> Result<Vec<String>, Response> {
    let engine = &shared.engine;
    let deadline = effective_deadline(deadline_ms, shared.default_deadline_ms);
    let mut trace = Trace::enabled();
    let ctx = RequestCtx {
        id,
        deadline: deadline.map(|(at, _)| at),
        trace: Some(&mut trace),
    };
    let first = match engine.estimate_one(dataset, query, ctx) {
        Err(msg) => Response::Error(msg),
        Ok(outcome) => outcome_response(engine, dataset, outcome, deadline),
    };
    if matches!(first, Response::Error(_)) {
        return Err(first);
    }
    let mut body = vec![first.format()];
    body.extend(trace.spans().iter().map(|&(name, micros)| {
        let name = name.into();
        ExplainItem::Span { name, micros }.format()
    }));
    body.extend(trace.counters().iter().map(|&(name, value)| {
        let name = name.into();
        ExplainItem::Counter { name, value }.format()
    }));
    Ok(body)
}

/// Answer one parsed request; `Ok(false)` closes the connection (`QUIT`).
fn serve_request(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    request: Request,
    id: u64,
) -> io::Result<bool> {
    let engine = &shared.engine;
    let metrics = engine.metrics();
    let kind = request.command();
    let mut body = Vec::new();
    let result = |r: Result<Response, String>| r.unwrap_or_else(Response::Error);
    // The head of a counted reply to this request, over `body`.
    let counted = |body: &[String]| {
        let n = body.len();
        Response::Counted { kind, n }
    };
    let response = match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(engine.stats()),
        Request::Metrics => {
            let pairs = engine.metrics_snapshot().into_iter();
            body.extend(pairs.map(|(key, v)| protocol::format_metric_line(&key, v)));
            counted(&body)
        }
        Request::MetricsProm => {
            body = engine.metrics_prom();
            counted(&body)
        }
        Request::SlowLog { n } => {
            let entries = engine.slowlog(n.unwrap_or(usize::MAX));
            body.extend(entries.iter().map(protocol::format_slowlog_entry));
            counted(&body)
        }
        Request::Shutdown => {
            // Refuse new work at once, but wake whoever waits for the
            // drain request (`cegcli serve`, which then exits the
            // process) only once the DRAINING line is on the wire.
            engine.begin_drain();
            let written = write_reply(writer, metrics, &Response::Draining, &[], id);
            shared.lifecycle.notify();
            return written.map(|()| true);
        }
        Request::Quit => {
            write_reply(writer, metrics, &Response::Bye, &[], id)?;
            return Ok(false);
        }
        // A batch answers in request order under a BATCH header — one
        // wire round-trip. The header goes out first and every slot is
        // flushed as it resolves, so answers stream back; they are not
        // held until the whole batch completes. During a drain the
        // engine answers each slot BUSY.
        Request::EstimateBatch {
            dataset,
            queries,
            deadline_ms,
        } => {
            let n = queries.len();
            write_reply(writer, metrics, &Response::Counted { kind, n }, &[], id)?;
            write_estimates(writer, shared, &dataset, &queries, deadline_ms, id)?;
            return Ok(true);
        }
        // During a drain every other state-touching command is rejected
        // with a typed BUSY: the final snapshots must see a frozen
        // registry, and no new estimate may start.
        _ if engine.draining() => {
            metrics.inc(Series::Busy);
            Response::Busy("server draining".into())
        }
        Request::Estimate {
            dataset,
            query,
            deadline_ms,
        } => {
            let queries = std::slice::from_ref(&query);
            write_estimates(writer, shared, &dataset, queries, deadline_ms, id)?;
            return Ok(true);
        }
        Request::ExplainEstimate {
            dataset,
            query,
            deadline_ms,
        } => match explain(shared, &dataset, &query, deadline_ms, id) {
            Err(refusal) => refusal,
            Ok(lines) => {
                body = lines;
                counted(&body)
            }
        },
        Request::AddEdge {
            dataset,
            src,
            dst,
            label,
        } => result(
            engine
                .add_edge(&dataset, src, dst, label)
                .map(Response::Updated),
        ),
        Request::DelEdge {
            dataset,
            src,
            dst,
            label,
        } => result(
            engine
                .del_edge(&dataset, src, dst, label)
                .map(Response::Updated),
        ),
        // SNAPSHOT pins one epoch state and writes it with no lock held.
        Request::Snapshot { dataset, path } => {
            result(engine.snapshot(&dataset, &path).map(Response::Snapshotted))
        }
        Request::Commit { dataset } => {
            let response = result(engine.commit(&dataset).map(Response::Committed));
            write_reply(writer, metrics, &response, &[], id)?;
            // Rotation runs *after* the ack went out: the client's
            // COMMIT latency never includes the snapshot fold, and a
            // rotation failure cannot un-ack a durable commit — the
            // log just keeps growing until a later fold succeeds.
            if matches!(response, Response::Committed(o) if o.wal_bytes > 0) {
                let _ = engine.maybe_rotate(
                    &dataset,
                    shared.wal_rotate_bytes,
                    shared.snapshot_interval_commits,
                );
            }
            return Ok(true);
        }
    };
    write_reply(writer, metrics, &response, &body, id)?;
    Ok(true)
}

/// The refusal of a line past [`MAX_LINE_BYTES`].
fn too_long() -> Response {
    Response::Error("request line too long".into())
}

/// Per-connection loop: one request in, one response out (a batch counts
/// as one request with one multi-line response). Everything runs on this
/// thread, estimates included.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // One write syscall per response line, and no Nagle delay on it:
    // an unbuffered `writeln!` issues several small writes per line,
    // which interacts with delayed ACKs into ~40ms per round-trip.
    stream.set_nodelay(true)?;
    let metrics = shared.engine.metrics().clone();
    let mut writer = BufWriter::with_capacity(STREAM_BUF_BYTES, stream.try_clone()?);
    let mut reader = BufReader::with_capacity(STREAM_BUF_BYTES, stream);
    let mut line = String::new();
    loop {
        match read_request_line(&mut reader, &mut line)? {
            LineRead::Eof => break,
            LineRead::TooLong => {
                // Overlong line: refuse and drop the connection — the
                // rest of the stream is the same unterminated line.
                let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
                write_reply(&mut writer, &metrics, &too_long(), &[], id)?;
                break;
            }
            LineRead::Line => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        // The per-request id: assigned the moment a request is read,
        // echoed on every reply line it produces, and stamped on any
        // slow-query record it leaves behind.
        let req_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        // ESTIMATE_BATCH is the one multi-line request: its header says
        // how many query lines follow. Read them (still one capped line
        // at a time) before parsing, so the stream stays framed even
        // when a query line is malformed. A bad *header* leaves the
        // follow-up line count unknowable, so — like an overlong line —
        // it closes the connection instead of desynchronizing it.
        let mut request_text = std::mem::take(&mut line);
        if request_text.split_whitespace().next() == Some(Command::EstimateBatch.name()) {
            match protocol::parse_batch_header(&request_text) {
                Err(msg) => {
                    write_reply(&mut writer, &metrics, &Response::Error(msg), &[], req_id)?;
                    break;
                }
                Ok((_, n, _)) => {
                    for _ in 0..n {
                        match read_request_line(&mut reader, &mut line)? {
                            LineRead::Eof => return Ok(()),
                            LineRead::TooLong => {
                                write_reply(&mut writer, &metrics, &too_long(), &[], req_id)?;
                                return Ok(());
                            }
                            LineRead::Line => {
                                if !request_text.ends_with('\n') {
                                    request_text.push('\n');
                                }
                                request_text.push_str(&line);
                            }
                        }
                    }
                }
            }
        }
        // A big request (batch lines, overlong garbage) may have grown
        // the reusable line buffer to MAX_LINE_BYTES; give it back so an
        // idle connection holds only the small stream buffers.
        if line.capacity() > IDLE_LINE_CAP {
            line.shrink_to(IDLE_LINE_CAP);
        }
        let parsed = Request::parse(&request_text);
        drop(request_text);
        match parsed {
            Err(msg) => write_reply(&mut writer, &metrics, &Response::Error(msg), &[], req_id)?,
            Ok(request) => {
                let latency = metrics.latency(request.command());
                let open = serve_request(&mut writer, shared, request, req_id)?;
                if let Some(histogram) = latency {
                    histogram.record(started.elapsed());
                }
                if !open {
                    break;
                }
            }
        }
    }
    Ok(())
}
