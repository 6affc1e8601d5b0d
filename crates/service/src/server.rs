//! The TCP front end: accept loop, connection handlers and the drain
//! lifecycle. There is no worker pool: the thread that reads a request
//! runs it, and a batch with several misses shares them with scoped
//! helpers that end with the request.
//!
//! Request lifecycle:
//!
//! 1. A connection handler thread reads one protocol line and parses it.
//! 2. `ESTIMATE`, `ESTIMATE_BATCH` and `EXPLAIN_ESTIMATE` all call
//!    [`Engine::estimate_batch`] on the handler thread: cache hits are
//!    answered at once; a miss needs an admission permit
//!    ([`ServerConfig::queue_cap`], else `BUSY`) and a run slot before
//!    its deadline (else `TIMEOUT`).
//! 3. The handler writes each reply line into its buffer as its outcome
//!    arrives (a batch's slots in request order), and flushes at the end
//!    of the request and whenever the engine is about to wait — on a run
//!    slot, a catalog fill or a helper's result — so a cold batch streams
//!    and a warm one leaves in one write. `PING`/`METRICS` are
//!    answered inline too; `SHUTDOWN` flips the drain flag and answers
//!    `DRAINING`.
//!
//! Every accepted request is answered with exactly one of: an estimate,
//! a typed `BUSY`, a typed `TIMEOUT`, or an `ERR` — nothing is silently
//! dropped, which is what makes the overload tests assertable. The loop
//! reads any [`Read`] and writes any [`Write`]: a socket is a two-line
//! shell around it, and [`Server::serve_io`] runs it over other ends.
//!
//! Concurrency discipline: a request pins one immutable epoch state, the
//! Markov catalog is behind an `RwLock` written only by fills, the cache
//! behind a `Mutex` held for probes/stores only — never during counting
//! or estimation. Admission counters and the metrics registry are plain
//! atomics.

use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ceg_exec::Handover;
use ceg_graph::sync::{self, LockRank, OrderedMutex};
use ceg_query::QueryGraph;

use crate::engine::{
    Engine, QueryOutcome, RequestCtx, SlowQueryEntry, DEFAULT_SLOW_QUERY_THRESHOLD_MS,
};
use crate::metrics::{Metrics, Series};
use crate::protocol::{self, Command, ExplainItem, ReplyWriter, Request, Response};
use crate::registry::DatasetRegistry;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// LRU estimate-cache capacity in entries, one per isomorphism class
    /// of query (0 disables caching). Entries, not hash buckets: the two
    /// differ only under a WL hash collision, whose two classes take two
    /// entries.
    pub cache_capacity: usize,
    /// Admission control: maximum cache-missing estimates admitted
    /// (waiting for a run slot or running) at once. Misses beyond the
    /// cap get a typed `BUSY` instead of waiting without bound.
    pub queue_cap: usize,
    /// Deadline applied to estimates that don't carry their own
    /// `DEADLINE_MS`. `None` means unbounded (seed behaviour).
    pub default_deadline_ms: Option<u64>,
    /// Where [`Server::drain`] writes the dataset's final
    /// `<dataset>.cegsnap`. `None` skips the final snapshot.
    pub drain_snapshot_dir: Option<PathBuf>,
    /// How long [`Server::drain`] waits for admitted misses to settle
    /// before abandoning them (their connection handlers still answer
    /// them; this just bounds process exit).
    pub drain_grace_ms: u64,
    /// Misses at least this slow (wall-clock milliseconds) are recorded
    /// in the slow-query ring (`SLOWLOG`).
    pub slow_query_threshold_ms: u64,
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
        }
    }
}

/// A condvar so `cegcli serve` can block on "has anyone asked us to
/// shut down?" instead of polling. The drain flag itself lives in the
/// engine, which re-checks it before starting each miss.
struct Lifecycle {
    /// `LockRank::RunGate`: the wait loop parks on this with nothing
    /// else held, and `request_drain` touches only the flag itself.
    signal: OrderedMutex<bool>,
    cv: Condvar,
}

impl Lifecycle {
    fn new() -> Self {
        Lifecycle {
            signal: OrderedMutex::new(LockRank::RunGate, false),
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
    /// Per-request id source: every request a connection handler reads
    /// gets the next id, echoed as the ` id=<n>` reply tail and stamped
    /// on slow-query records.
    next_request_id: AtomicU64,
    /// Set when the server stops accepting connections.
    stop: AtomicBool,
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
    /// `(dataset, path, bytes)` of the final snapshot, if one was written.
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

/// A running estimation server. Dropping it stops accepting and joins
/// the accept thread; open connections keep their handler threads, so
/// in-flight requests are always answered. [`Server::drain`] is the
/// graceful variant: flip the drain flag first so in-flight work
/// resolves to typed replies, then write the final snapshot.
pub struct Server {
    shared: Arc<Shared>,
    config: ServerConfig,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving the dataset in `registry`.
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
            engine,
            lifecycle: Lifecycle::new(),
            default_deadline_ms: config.default_deadline_ms,
            next_request_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let accept = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("ceg-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = shared.clone();
                        let _ = thread::Builder::new()
                            .name("ceg-conn".into())
                            .stack_size(CONN_STACK_BYTES)
                            .spawn(move || {
                                let _ = serve_socket(stream, &shared);
                            });
                    }
                })?
        };
        Ok(Server {
            shared,
            config,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (counters, registry) — handy in tests and benches.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
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
        self.shared.engine.draining()
    }

    /// Block up to `timeout` for a drain request; `true` if one arrived.
    /// `cegcli serve` sits in this instead of a poll loop.
    pub fn wait_drain_requested(&self, timeout: Duration) -> bool {
        self.shared.lifecycle.wait_drain_requested(timeout)
    }

    /// Gracefully drain and stop: reject new work, stop accepting, wait
    /// up to the grace period for admitted misses to resolve into typed
    /// replies, then write the dataset's final snapshot into
    /// `drain_snapshot_dir` (if configured).
    pub fn drain(mut self) -> io::Result<DrainReport> {
        self.shared.request_drain();
        // Stop accepting before snapshotting; existing connections keep
        // their handler threads and with them the typed-reply guarantee.
        self.stop_accepting();
        let grace_until = Instant::now() + Duration::from_millis(self.config.drain_grace_ms);
        let metrics = self.shared.engine.metrics().clone();
        while metrics.get(Series::Queued) > 0 && Instant::now() < grace_until {
            thread::sleep(Duration::from_millis(1));
        }
        let abandoned = metrics.get(Series::Queued);
        let mut snapshots = Vec::new();
        let dataset = self.shared.engine.registry().dataset();
        if let (Some(dir), Some(entry)) = (&self.config.drain_snapshot_dir, dataset) {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}.cegsnap", entry.name()));
            let (_epoch, bytes) = entry.write_snapshot(&path)?;
            snapshots.push((entry.name().to_string(), path, bytes));
        }
        Ok(DrainReport {
            snapshots,
            abandoned,
            slowlog: self.shared.engine.slowlog(usize::MAX),
        })
    }

    /// Serve one connection on the calling thread, as the accept loop
    /// serves a socket: requests from `reader` until its end, `QUIT` or a
    /// framing error; replies to `writer` in one write per socket send.
    pub fn serve_io(&self, reader: impl Read, writer: impl Write) -> io::Result<()> {
        serve_connection(reader, writer, &self.shared)
    }

    /// Stop accepting and join the accept thread, once. Connection handlers
    /// finish their requests and exit when their clients disconnect.
    fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
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

/// The request buffer is shrunk back to this after any request that grew it
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
    /// A line, newline included unless the input ended.
    Line,
    /// Client closed the connection.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] without a newline.
    TooLong,
}

/// Append one request line's bytes to `buf`, enforcing the length cap.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    let n = io::Read::take(reader, MAX_LINE_BYTES).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if n as u64 >= MAX_LINE_BYTES && !buf.ends_with(b"\n") {
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

/// The reply line for one estimate outcome, with the server-wide cache
/// counters as they stand. `deadline` is the request's effective
/// deadline, whose millisecond value a `TIMEOUT` echoes.
fn outcome_response(
    metrics: &Metrics,
    dataset: &str,
    outcome: QueryOutcome,
    deadline: Option<(Instant, u64)>,
) -> Response {
    match outcome {
        QueryOutcome::Done(outcome) => Response::Estimate {
            outcome,
            hits: metrics.get(Series::CacheHits),
            misses: metrics.get(Series::CacheMisses),
        },
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
/// as the engine produces it and flushed whenever the engine is about to
/// wait — a cold batch streams, and a drain that overtakes it shows up
/// in its later slots; a warm one leaves in one write at the end.
fn write_estimates(
    replies: &mut ReplyWriter<'_, impl Write>,
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
    let answered = engine.estimate_batch(dataset, queries, ctx, |step| {
        if written.is_ok() {
            written = match step {
                Handover::Done(_, outcome) => {
                    let response = outcome_response(engine.metrics(), dataset, outcome, deadline);
                    replies.send(&response, &[], id)
                }
                Handover::Wait => replies.flush(),
            };
        }
    });
    if let Err(msg) = answered {
        for _ in queries {
            let err = Response::Error(msg.clone());
            replies.send(&err, &[], id)?;
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
    let (outcome, trace) = engine
        .explain(dataset, query, deadline.map(|(at, _)| at), id)
        .map_err(Response::Error)?;
    let first = outcome_response(engine.metrics(), dataset, outcome, deadline);
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

/// Answer one parsed request into `replies`' buffer, which the caller
/// flushes; `Ok(false)` closes the connection (`QUIT`).
fn serve_request(
    replies: &mut ReplyWriter<'_, impl Write>,
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
            let written = replies
                .send(&Response::Draining, &[], id)
                .and_then(|()| replies.flush());
            shared.lifecycle.notify();
            return written.map(|()| true);
        }
        Request::Quit => {
            replies.send(&Response::Bye, &[], id)?;
            return Ok(false);
        }
        // A batch answers in request order under a BATCH header — one
        // wire round-trip. The header is written first and every slot as
        // it resolves; the buffer goes out whenever the engine would
        // wait, so a cold batch's answers stream back, and a warm batch
        // leaves in one write. During a drain the engine answers each
        // slot BUSY.
        Request::EstimateBatch {
            dataset,
            queries,
            deadline_ms,
        } => {
            let n = queries.len();
            replies.send(&Response::Counted { kind, n }, &[], id)?;
            write_estimates(replies, shared, &dataset, &queries, deadline_ms, id)?;
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
            write_estimates(replies, shared, &dataset, queries, deadline_ms, id)?;
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
            replies.send(&response, &[], id)?;
            replies.flush()?;
            // Rotation runs *after* the ack went out: the client's
            // COMMIT latency never includes the snapshot fold, and a
            // rotation failure cannot un-ack a durable commit — the
            // log just keeps growing until a later fold succeeds.
            if let Response::Committed(outcome) = &response {
                if outcome.wal_bytes > 0 {
                    let _ = engine.maybe_rotate(&dataset);
                }
                // The predecessor epoch's pages and catalog clone were
                // freed into this thread's arena, which glibc keeps
                // resident; hand them back, after the ack like the fold.
                crate::memory::release_freed_heap();
            }
            return Ok(true);
        }
    };
    replies.send(&response, &body, id)?;
    Ok(true)
}

// The refusals of a line past `MAX_LINE_BYTES` and of non-UTF-8 bytes.
const TOO_LONG: &str = "request line too long";
const NOT_UTF8: &str = "request is not UTF-8";

/// The socket shell around [`serve_connection`]: no Nagle delay on its one
/// write per request (or per wait), which delayed ACKs would hold ~40ms.
fn serve_socket(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true)?;
    serve_connection(&stream, &stream, shared)
}

/// Answer `ERR <msg>` and close: the stream can no longer be framed.
fn refuse(replies: &mut ReplyWriter<'_, impl Write>, msg: String, id: u64) -> io::Result<()> {
    replies.send(&Response::Error(msg), &[], id)?;
    replies.flush()
}

/// Per-connection loop: one request in, one response out (a batch counts
/// as one request with one multi-line response). Everything runs on this
/// thread, estimates included, but for a batch's helpers. Only the buffers
/// outlive a request; each `replies.flush()` is where a socket would send.
fn serve_connection(reader: impl Read, writer: impl Write, shared: &Shared) -> io::Result<()> {
    let metrics = shared.engine.metrics();
    let mut reader = BufReader::with_capacity(STREAM_BUF_BYTES, reader);
    let mut replies = ReplyWriter::new(writer, STREAM_BUF_BYTES, metrics);
    // One request's bytes: a line, or a batch's header and query lines.
    // Taken at its idle size up front, so it sits low in this thread's heap
    // and pins no freed serving pages (~50 KiB of `cold`'s `server_rss_mb`).
    let mut buf = Vec::with_capacity(IDLE_LINE_CAP);
    loop {
        // Give back what a big request grew (up to MAX_LINE_BYTES), so an
        // idle connection holds only the small stream buffers.
        buf.clear();
        buf.shrink_to(IDLE_LINE_CAP);
        match read_request_line(&mut reader, &mut buf)? {
            LineRead::Eof => return Ok(()),
            // The rest of the stream is the same unterminated line.
            LineRead::TooLong => {
                let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
                return refuse(&mut replies, TOO_LONG.into(), id);
            }
            LineRead::Line => {}
        }
        // Read lossily to find a blank line or a batch header; a request
        // that is not UTF-8 is refused below, after its batch lines.
        let head = String::from_utf8_lossy(&buf);
        if head.trim().is_empty() {
            continue;
        }
        let batch = (head.split_whitespace().next() == Some(Command::EstimateBatch.name()))
            .then(|| protocol::parse_batch_header(&head));
        let started = Instant::now();
        // The per-request id: assigned the moment a request is read,
        // echoed on every reply line it produces, and stamped on any
        // slow-query record it leaves behind.
        let req_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        let parsed = match batch {
            None => match head {
                Cow::Borrowed(text) => Request::parse(text),
                Cow::Owned(_) => Err(NOT_UTF8.into()),
            },
            // ESTIMATE_BATCH is the one multi-line request: its header
            // says how many query lines follow. Read them (still one
            // capped line at a time) before parsing, so the stream stays
            // framed even when a query line is malformed. A bad *header*
            // leaves the line count unknowable, so — like an overlong
            // line — it closes the connection instead of desynchronizing.
            Some(Err(msg)) => return refuse(&mut replies, msg, req_id),
            Some(Ok((_, n, _))) => {
                for _ in 0..n {
                    match read_request_line(&mut reader, &mut buf)? {
                        LineRead::Eof => return Ok(()),
                        LineRead::TooLong => return refuse(&mut replies, TOO_LONG.into(), req_id),
                        LineRead::Line => {}
                    }
                }
                std::str::from_utf8(&buf).map_or(Err(NOT_UTF8.into()), Request::parse)
            }
        };
        match parsed {
            Err(msg) => {
                replies.send(&Response::Error(msg), &[], req_id)?;
                replies.flush()?;
            }
            Ok(request) => {
                let latency = metrics.latency(request.command());
                let open = serve_request(&mut replies, shared, request, req_id)?;
                replies.flush()?;
                if let Some(histogram) = latency {
                    histogram.record(started.elapsed());
                }
                if !open {
                    return Ok(());
                }
            }
        }
    }
}
