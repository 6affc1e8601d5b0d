//! The TCP front end: accept loop, connection handlers, batching workers,
//! admission control and the drain lifecycle.
//!
//! Request lifecycle:
//!
//! 1. A connection handler thread reads one protocol line and parses it.
//! 2. `ESTIMATE` requests first try the estimate cache inline (a cache
//!    hit never waits behind queued cold work), then pass admission
//!    control: each dataset has a bounded in-flight budget
//!    ([`ServerConfig::queue_cap`]) and a full queue answers `BUSY`
//!    immediately instead of queueing without bound. Admitted jobs are
//!    spread round-robin over the worker-pool shards, carrying a reply
//!    channel and their deadline. (Round-robin rather than
//!    pin-by-dataset: the common deployment serves one dataset, which a
//!    dataset pin would serialize onto a single worker.)
//! 3. The shard's worker drains its queue into a batch (up to
//!    `batch_max`), drops jobs whose deadline already passed (typed
//!    `TIMEOUT`) or that arrived after a drain began (typed `BUSY`),
//!    groups the rest by dataset, and runs each group through
//!    [`Engine::estimate_batch_deadline`] — one cache pass, one catalog
//!    fill, one estimation pass for the whole group, with the deadline
//!    checked between plan depths inside the counting kernel.
//! 4. Each reply flows back over its channel; the handler writes one
//!    response line. `PING`/`STATS`/`METRICS` are answered inline by the
//!    handler; `SHUTDOWN` flips the drain flag and answers `DRAINING`.
//!
//! Every accepted request is answered with exactly one of: an estimate,
//! a typed `BUSY`, a typed `TIMEOUT`, or an `ERR` — nothing is silently
//! dropped, which is what makes the overload tests assertable.
//!
//! Concurrency discipline: the graph is immutable, the Markov catalog is
//! behind an `RwLock` written only by batch fills, the cache behind a
//! `Mutex` held for lookups/stores only — never during counting or
//! estimation. Admission counters and the metrics registry are plain
//! atomics.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ceg_core::sync::{self, LockRank, OrderedMutex};
use ceg_query::QueryGraph;

use crate::engine::{Engine, QueryOutcome, SlowQueryEntry, DEFAULT_SLOW_QUERY_THRESHOLD_MS};
use crate::metrics::{Command, Metrics};
use crate::pool::WorkerPool;
use crate::protocol::{Request, Response};
use crate::registry::DatasetRegistry;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= queue shards) for estimation requests.
    pub workers: usize,
    /// Maximum requests drained into one worker batch.
    pub batch_max: usize,
    /// LRU estimate-cache capacity in hash buckets (0 disables caching).
    pub cache_capacity: usize,
    /// Admission control: maximum estimate jobs in flight (queued or
    /// running) per dataset. Requests beyond the cap get a typed `BUSY`
    /// instead of queueing without bound.
    pub queue_cap: usize,
    /// Deadline applied to estimates that don't carry their own
    /// `DEADLINE_MS`. `None` means unbounded (seed behaviour).
    pub default_deadline_ms: Option<u64>,
    /// Where [`Server::drain`] writes one final `<dataset>.cegsnap` per
    /// dataset. `None` skips the final snapshots.
    pub drain_snapshot_dir: Option<PathBuf>,
    /// How long [`Server::drain`] waits for admitted jobs to settle
    /// before abandoning them (they still get typed replies from the
    /// workers; this just bounds process exit).
    pub drain_grace_ms: u64,
    /// Estimate batches at least this slow (wall-clock milliseconds) are
    /// recorded in the slow-query ring (`SLOWLOG`).
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
            workers: thread::available_parallelism()
                .map_or(2, |n| n.get())
                .max(2),
            batch_max: 32,
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

/// Per-dataset bounded admission: a job may enter the worker queues only
/// while the dataset's in-flight count is below the cap. The permit is
/// RAII — dropping the job (answered, rejected, or abandoned) releases
/// its slot, so the bound cannot leak.
struct Admission {
    cap: usize,
    /// `LockRank::Metrics`: held only for the map lookup/insert, never
    /// across the compare-exchange loop or any dataset lock.
    counters: OrderedMutex<HashMap<String, Arc<AtomicUsize>>>,
}

impl Admission {
    fn new(cap: usize) -> Self {
        Admission {
            cap,
            counters: OrderedMutex::new(LockRank::Metrics, HashMap::new()),
        }
    }

    /// Try to admit one job for `dataset`; `None` means the queue is
    /// full and the caller must answer `BUSY`.
    fn try_admit(&self, dataset: &str, metrics: &Arc<Metrics>) -> Option<AdmissionPermit> {
        let counter = {
            let mut map = self.counters.lock();
            match map.get(dataset) {
                Some(c) => c.clone(),
                None => {
                    let c = Arc::new(AtomicUsize::new(0));
                    map.insert(dataset.to_string(), c.clone());
                    c
                }
            }
        };
        // Exact bound: a compare-exchange loop never overshoots the cap,
        // unlike fetch_add-then-undo.
        let mut cur = counter.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                return None;
            }
            match counter.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        metrics.job_enqueued();
        Some(AdmissionPermit {
            counter,
            metrics: metrics.clone(),
        })
    }
}

/// RAII admission slot: released on drop, wherever the job ends up.
struct AdmissionPermit {
    counter: Arc<AtomicUsize>,
    metrics: Arc<Metrics>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
        self.metrics.job_finished();
    }
}

/// The drain flag plus a condvar so `cegcli serve` can block on "has
/// anyone asked us to shut down?" instead of polling.
struct Lifecycle {
    draining: AtomicBool,
    /// `LockRank::PoolShard`: the wait loop parks on this with nothing
    /// else held, and `request_drain` touches only the flag itself.
    signal: OrderedMutex<bool>,
    cv: Condvar,
}

impl Lifecycle {
    fn new() -> Self {
        Lifecycle {
            draining: AtomicBool::new(false),
            signal: OrderedMutex::new(LockRank::PoolShard, false),
            cv: Condvar::new(),
        }
    }

    fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut flag = self.signal.lock();
        *flag = true;
        self.cv.notify_all();
    }

    fn drain_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
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

/// State shared by the accept loop, every connection handler and the
/// workers.
struct Shared {
    engine: Arc<Engine>,
    admission: Admission,
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

/// One queued estimation request.
struct EstimateJob {
    /// The request id assigned when the request was read.
    id: u64,
    dataset: String,
    query: QueryGraph,
    reply: mpsc::Sender<Response>,
    /// Absolute deadline plus the millisecond value to echo in `TIMEOUT`.
    deadline: Option<(Instant, u64)>,
    enqueued_at: Instant,
    /// Held for the job's whole queued+running life; dropping it releases
    /// the dataset's admission slot.
    _permit: AdmissionPermit,
}

/// What [`Server::drain`] did.
#[derive(Debug)]
pub struct DrainReport {
    /// `(dataset, path, bytes)` for each final snapshot written.
    pub snapshots: Vec<(String, PathBuf, u64)>,
    /// Jobs still in flight when the grace period expired (their typed
    /// replies are the workers' job; this only bounds process exit).
    pub abandoned: u64,
    /// The slow-query ring at drain time, newest first — slow queries
    /// from the final serving window survive into the shutdown report
    /// instead of dying with the process.
    pub slowlog: Vec<SlowQueryEntry>,
}

/// A running estimation server. [`Server::shutdown`] (or dropping the
/// server) stops accepting and joins the accept thread; the worker pool
/// lives until the last open connection is done with it, so in-flight
/// requests are always answered. [`Server::drain`] is the graceful
/// variant: flip the drain flag first so in-flight work resolves to
/// typed replies, then write final snapshots.
pub struct Server {
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    config: ServerConfig,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool<EstimateJob>>>,
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
        let engine = Arc::new(Engine::new(registry, config.cache_capacity));
        engine.set_slow_query_threshold_ms(config.slow_query_threshold_ms);
        let shared = Arc::new(Shared {
            engine: engine.clone(),
            admission: Admission::new(config.queue_cap.max(1)),
            lifecycle: Lifecycle::new(),
            default_deadline_ms: config.default_deadline_ms,
            wal_rotate_bytes: config.wal_rotate_bytes,
            snapshot_interval_commits: config.snapshot_interval_commits,
            next_request_id: AtomicU64::new(1),
        });
        let pool = {
            let shared = shared.clone();
            Arc::new(WorkerPool::new(
                config.workers,
                config.batch_max,
                move |batch| handle_batch(&shared, batch),
            ))
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = shared.clone();
            let pool = pool.clone();
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
                        let pool = pool.clone();
                        // Small stacks: the handler only parses lines and
                        // shuttles replies, and a fleet of idle
                        // connections should cost kilobytes, not the 8MB
                        // Linux default, apiece.
                        let _ = thread::Builder::new()
                            .name("ceg-conn".into())
                            .stack_size(CONN_STACK_BYTES)
                            .spawn(move || {
                                let _ = serve_connection(stream, &shared, &pool);
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
            pool: Some(pool),
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
        self.shared.lifecycle.request_drain();
    }

    /// Has anyone (wire `SHUTDOWN`, signal handler, or
    /// [`Server::request_drain`]) asked for a drain?
    pub fn drain_requested(&self) -> bool {
        self.shared.lifecycle.drain_requested()
    }

    /// Block up to `timeout` for a drain request; `true` if one arrived.
    /// `cegcli serve` sits in this instead of a poll loop.
    pub fn wait_drain_requested(&self, timeout: Duration) -> bool {
        self.shared.lifecycle.wait_drain_requested(timeout)
    }

    /// Gracefully drain and stop: reject new work, stop accepting, wait
    /// up to the grace period for admitted jobs to resolve into typed
    /// replies, then write one final snapshot per dataset into
    /// `drain_snapshot_dir` (if configured).
    pub fn drain(mut self) -> io::Result<DrainReport> {
        self.shared.lifecycle.request_drain();
        // Stop accepting before snapshotting; existing connections keep
        // their typed-reply guarantee via the drained workers.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let grace_until = Instant::now() + Duration::from_millis(self.config.drain_grace_ms);
        let metrics = self.engine.metrics().clone();
        while metrics.queued() > 0 && Instant::now() < grace_until {
            thread::sleep(Duration::from_millis(1));
        }
        let abandoned = metrics.queued();
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
        // Dropping `self` releases the pool handle; workers exit once the
        // remaining connection handlers drop theirs.
        Ok(DrainReport {
            snapshots,
            abandoned,
            slowlog: self.engine.slowlog(usize::MAX),
        })
    }

    /// Stop accepting new connections and join the accept thread. Worker
    /// threads drain outstanding requests and exit once the last open
    /// connection releases them.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Release our pool handle; the pool's own Drop joins the workers
        // once the remaining connection handlers (if any) drop theirs.
        self.pool.take();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
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

/// Connection-handler stack size. The handler parses lines and shuttles
/// channel replies — nothing recursive.
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

/// The latency bucket a request is recorded under (`None` for `QUIT` and
/// `SHUTDOWN`, which are lifecycle events rather than served commands).
fn command_of(req: &Request) -> Option<Command> {
    Some(match req {
        Request::Ping => Command::Ping,
        Request::Stats => Command::Stats,
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
        Request::Quit | Request::Shutdown => return None,
    })
}

/// Resolve a request's effective deadline: its own `DEADLINE_MS`, else
/// the server default, else unbounded. A value so large the clock cannot
/// represent it is treated as unbounded rather than panicking.
fn effective_deadline(request_ms: Option<u64>, default_ms: Option<u64>) -> Option<(Instant, u64)> {
    let ms = request_ms.or(default_ms)?;
    let at = Instant::now().checked_add(Duration::from_millis(ms))?;
    Some((at, ms))
}

/// Write one reply line — stamped with the request's ` id=<n>` tail —
/// and flush. The single funnel for `ERR` accounting: every error
/// actually sent to a client is counted exactly once here, no matter
/// which layer produced it.
fn write_reply(
    writer: &mut BufWriter<TcpStream>,
    metrics: &Metrics,
    response: &Response,
    id: u64,
) -> io::Result<()> {
    if matches!(response, Response::Error(_)) {
        metrics.record_error();
    }
    let mut line = response.format();
    crate::protocol::append_id(&mut line, id);
    writeln!(writer, "{line}")?;
    writer.flush()
}

/// Write a counted-reply header line with the request's id tail. The
/// `n` body lines that follow are *not* stamped — their grammar owns
/// the whole line.
fn write_counted_header(
    writer: &mut BufWriter<TcpStream>,
    mut header: String,
    id: u64,
) -> io::Result<()> {
    crate::protocol::append_id(&mut header, id);
    writeln!(writer, "{header}")
}

/// An ordered slot of a batch reply: answered inline (cache hit or
/// rejection) or still owed by a worker.
enum Slot {
    Ready(Response),
    Pending(mpsc::Receiver<Response>),
}

/// Per-connection loop: one request in, one response out (a batch counts
/// as one request with one multi-line response). Estimates try the cache
/// inline, then admission control, then the queue shards; workers regroup
/// their drained batches by dataset, so same-dataset requests that arrive
/// together still amortize (and one hot dataset is not pinned to one
/// worker).
fn serve_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool<EstimateJob>>,
) -> io::Result<()> {
    // One write syscall per response line, and no Nagle delay on it:
    // an unbuffered `writeln!` issues several small writes per line,
    // which interacts with delayed ACKs into ~40ms per round-trip.
    stream.set_nodelay(true)?;
    let engine = &shared.engine;
    let metrics = engine.metrics().clone();
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
                write_reply(
                    &mut writer,
                    &metrics,
                    &Response::Error("request line too long".into()),
                    id,
                )?;
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
        if request_text.split_whitespace().next() == Some("ESTIMATE_BATCH") {
            match crate::protocol::parse_batch_header(&request_text) {
                Err(msg) => {
                    write_reply(&mut writer, &metrics, &Response::Error(msg), req_id)?;
                    break;
                }
                Ok((_, n, _)) => {
                    for _ in 0..n {
                        match read_request_line(&mut reader, &mut line)? {
                            LineRead::Eof => return Ok(()),
                            LineRead::TooLong => {
                                write_reply(
                                    &mut writer,
                                    &metrics,
                                    &Response::Error("request line too long".into()),
                                    req_id,
                                )?;
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
        let cmd = parsed.as_ref().ok().and_then(command_of);
        let draining = shared.lifecycle.drain_requested();
        match parsed {
            Err(msg) => write_reply(&mut writer, &metrics, &Response::Error(msg), req_id)?,
            Ok(Request::Ping) => write_reply(&mut writer, &metrics, &Response::Pong, req_id)?,
            Ok(Request::Stats) => write_reply(
                &mut writer,
                &metrics,
                &Response::Stats(engine.stats()),
                req_id,
            )?,
            Ok(Request::Metrics) => {
                let snap = engine.metrics_snapshot();
                write_counted_header(
                    &mut writer,
                    crate::protocol::metrics_response_header(snap.len()),
                    req_id,
                )?;
                for (key, value) in snap {
                    writeln!(
                        writer,
                        "{}",
                        crate::protocol::format_metric_line(&key, value)
                    )?;
                }
                writer.flush()?;
            }
            Ok(Request::MetricsProm) => {
                let lines = engine.metrics_prom();
                write_counted_header(
                    &mut writer,
                    crate::protocol::metrics_prom_response_header(lines.len()),
                    req_id,
                )?;
                for l in lines {
                    writeln!(writer, "{}", crate::protocol::format_prom_line(&l))?;
                }
                writer.flush()?;
            }
            Ok(Request::SlowLog { n }) => {
                let entries = engine.slowlog(n.unwrap_or(usize::MAX));
                write_counted_header(
                    &mut writer,
                    crate::protocol::slowlog_response_header(entries.len()),
                    req_id,
                )?;
                for e in &entries {
                    writeln!(writer, "{}", crate::protocol::format_slowlog_entry(e))?;
                }
                writer.flush()?;
            }
            Ok(Request::Shutdown) => {
                shared.lifecycle.request_drain();
                write_reply(&mut writer, &metrics, &Response::Draining, req_id)?;
            }
            Ok(Request::Quit) => {
                write_reply(&mut writer, &metrics, &Response::Bye, req_id)?;
                break;
            }
            // During a drain every state-touching command is rejected
            // with a typed BUSY: the final snapshots must see a frozen
            // registry, and estimate queues are being emptied.
            Ok(
                Request::AddEdge { .. }
                | Request::DelEdge { .. }
                | Request::Commit { .. }
                | Request::Snapshot { .. }
                | Request::Estimate { .. }
                | Request::ExplainEstimate { .. },
            ) if draining => {
                metrics.record_busy();
                write_reply(
                    &mut writer,
                    &metrics,
                    &Response::Busy("server draining".into()),
                    req_id,
                )?;
            }
            // Updates are answered inline by the handler: buffering an
            // edge is a cheap mutex push, and COMMIT is the explicitly
            // heavy call whose latency the client opted into — neither
            // benefits from the estimate batching shards.
            Ok(Request::AddEdge {
                dataset,
                src,
                dst,
                label,
            }) => {
                let resp = match engine.add_edge(&dataset, src, dst, label) {
                    Ok(ack) => Response::Updated(ack),
                    Err(msg) => Response::Error(msg),
                };
                write_reply(&mut writer, &metrics, &resp, req_id)?;
            }
            Ok(Request::DelEdge {
                dataset,
                src,
                dst,
                label,
            }) => {
                let resp = match engine.del_edge(&dataset, src, dst, label) {
                    Ok(ack) => Response::Updated(ack),
                    Err(msg) => Response::Error(msg),
                };
                write_reply(&mut writer, &metrics, &resp, req_id)?;
            }
            Ok(Request::Commit { dataset }) => {
                let resp = match engine.commit(&dataset) {
                    Ok(outcome) => Response::Committed(outcome),
                    Err(msg) => Response::Error(msg),
                };
                write_reply(&mut writer, &metrics, &resp, req_id)?;
                // Rotation runs *after* the ack went out: the client's
                // COMMIT latency never includes the snapshot fold, and a
                // rotation failure cannot un-ack a durable commit — the
                // log just keeps growing until a later fold succeeds.
                if matches!(resp, Response::Committed(o) if o.wal_bytes > 0) {
                    let _ = engine.maybe_rotate(
                        &dataset,
                        shared.wal_rotate_bytes,
                        shared.snapshot_interval_commits,
                    );
                }
            }
            // SNAPSHOT pins one epoch state and writes it with no lock
            // held; answered inline like COMMIT — the client opted into
            // its latency.
            Ok(Request::Snapshot { dataset, path }) => {
                let resp = match engine.snapshot(&dataset, &path) {
                    Ok(ack) => Response::Snapshotted(ack),
                    Err(msg) => Response::Error(msg),
                };
                write_reply(&mut writer, &metrics, &resp, req_id)?;
            }
            // EXPLAIN_ESTIMATE runs inline on the handler thread (like
            // COMMIT: the client explicitly opted into its latency) so
            // the trace covers the complete request with no queue in the
            // way. The estimate is computed by the exact same engine
            // path as ESTIMATE.
            Ok(Request::ExplainEstimate {
                dataset,
                query,
                deadline_ms,
            }) => {
                let deadline = effective_deadline(deadline_ms, shared.default_deadline_ms);
                match engine.explain(&dataset, &query, deadline.map(|(at, _)| at)) {
                    Err(msg) => write_reply(&mut writer, &metrics, &Response::Error(msg), req_id)?,
                    Ok((outcome, mut trace)) => {
                        // Inline execution has no worker queue; the span
                        // is recorded (as zero) so the breakdown's span
                        // set is the same shape queued requests report
                        // in the slow-query log.
                        trace.record_span_micros("queue_wait", 0);
                        let stats = engine.stats();
                        let first = match outcome {
                            QueryOutcome::Done(outcome) => Response::Estimate {
                                outcome,
                                hits: stats.cache_hits,
                                misses: stats.cache_misses,
                            },
                            QueryOutcome::TimedOut => Response::Timeout {
                                deadline_ms: deadline.map_or(0, |(_, ms)| ms),
                            },
                        };
                        let n = 1 + trace.spans().len() + trace.counters().len();
                        write_counted_header(
                            &mut writer,
                            crate::protocol::explain_response_header(n),
                            req_id,
                        )?;
                        writeln!(writer, "{}", first.format())?;
                        for &(name, micros) in trace.spans() {
                            writeln!(
                                writer,
                                "{}",
                                crate::protocol::ExplainItem::Span {
                                    name: name.into(),
                                    micros
                                }
                                .format()
                            )?;
                        }
                        for &(name, value) in trace.counters() {
                            writeln!(
                                writer,
                                "{}",
                                crate::protocol::ExplainItem::Counter {
                                    name: name.into(),
                                    value
                                }
                                .format()
                            )?;
                        }
                        writer.flush()?;
                    }
                }
            }
            // A batch fans its cache misses across the pool shards (each
            // worker still regroups by dataset) and streams the answers
            // back in request order under a BATCH header — one wire
            // round-trip, pool-level parallelism. Cache hits and
            // admission rejections are resolved inline so they never
            // wait behind queued cold work.
            Ok(Request::EstimateBatch {
                dataset,
                queries,
                deadline_ms,
            }) => {
                let slots: Vec<Slot> = queries
                    .into_iter()
                    .map(|query| {
                        if draining {
                            metrics.record_busy();
                            return Slot::Ready(Response::Busy("server draining".into()));
                        }
                        if let Some(outcome) = engine.try_cached(&dataset, &query) {
                            let stats = engine.stats();
                            return Slot::Ready(Response::Estimate {
                                outcome,
                                hits: stats.cache_hits,
                                misses: stats.cache_misses,
                            });
                        }
                        match shared.admission.try_admit(&dataset, &metrics) {
                            None => {
                                metrics.record_busy();
                                Slot::Ready(Response::Busy(format!(
                                    "queue full for dataset `{dataset}`"
                                )))
                            }
                            Some(permit) => {
                                let (tx, rx) = mpsc::channel();
                                pool.submit(EstimateJob {
                                    id: req_id,
                                    dataset: dataset.clone(),
                                    query,
                                    reply: tx,
                                    deadline: effective_deadline(
                                        deadline_ms,
                                        shared.default_deadline_ms,
                                    ),
                                    enqueued_at: Instant::now(),
                                    _permit: permit,
                                });
                                Slot::Pending(rx)
                            }
                        }
                    })
                    .collect();
                write_counted_header(
                    &mut writer,
                    crate::protocol::batch_response_header(slots.len()),
                    req_id,
                )?;
                // Flush per line: answers stream back as workers finish,
                // they are not held until the whole batch completes.
                writer.flush()?;
                for slot in slots {
                    let reply = match slot {
                        Slot::Ready(resp) => resp,
                        Slot::Pending(rx) => rx
                            .recv()
                            .unwrap_or_else(|_| Response::Error("server shutting down".into())),
                    };
                    write_reply(&mut writer, &metrics, &reply, req_id)?;
                }
            }
            Ok(Request::Estimate {
                dataset,
                query,
                deadline_ms,
            }) => {
                let resp = if let Some(outcome) = engine.try_cached(&dataset, &query) {
                    let stats = engine.stats();
                    Response::Estimate {
                        outcome,
                        hits: stats.cache_hits,
                        misses: stats.cache_misses,
                    }
                } else {
                    match shared.admission.try_admit(&dataset, &metrics) {
                        None => {
                            metrics.record_busy();
                            Response::Busy(format!("queue full for dataset `{dataset}`"))
                        }
                        Some(permit) => {
                            let (tx, rx) = mpsc::channel();
                            pool.submit(EstimateJob {
                                id: req_id,
                                dataset,
                                query,
                                reply: tx,
                                deadline: effective_deadline(
                                    deadline_ms,
                                    shared.default_deadline_ms,
                                ),
                                enqueued_at: Instant::now(),
                                _permit: permit,
                            });
                            rx.recv()
                                .unwrap_or_else(|_| Response::Error("server shutting down".into()))
                        }
                    }
                };
                write_reply(&mut writer, &metrics, &resp, req_id)?;
            }
        };
        if let Some(c) = cmd {
            metrics.record_latency(c, started.elapsed());
        }
    }
    Ok(())
}

/// Send a job its reply, releasing the admission slot *first*: once the
/// reply line is observable on the wire, the client's very next request
/// (a sequential STATS, say) must already see the queue gauge settled.
fn respond(job: EstimateJob, response: Response) {
    let EstimateJob {
        reply,
        _permit: permit,
        ..
    } = job;
    drop(permit);
    let _ = reply.send(response);
}

/// Worker handler: resolve drained jobs whose deadline already passed or
/// that a drain overtook, then group the rest by dataset and estimate
/// each group in one engine call.
fn handle_batch(shared: &Shared, batch: Vec<EstimateJob>) {
    let engine = &shared.engine;
    let metrics = engine.metrics();
    let now = Instant::now();
    let draining = shared.lifecycle.drain_requested();
    // Group while preserving arrival order within each dataset.
    let mut groups: Vec<(String, Vec<EstimateJob>)> = Vec::new();
    for job in batch {
        metrics
            .queue_wait()
            .record(now.saturating_duration_since(job.enqueued_at));
        if draining {
            // A drain raced the queue: reject rather than start cold
            // work the process is trying to finish.
            metrics.record_busy();
            respond(job, Response::Busy("server draining".into()));
            continue;
        }
        if let Some((at, ms)) = job.deadline {
            if now >= at {
                // Dead on arrival at dequeue — the typed TIMEOUT costs
                // nothing, running the estimate anyway would.
                metrics.record_timeout();
                respond(job, Response::Timeout { deadline_ms: ms });
                continue;
            }
        }
        match groups.iter_mut().find(|(ds, _)| *ds == job.dataset) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((job.dataset.clone(), vec![job])),
        }
    }
    for (dataset, jobs) in groups {
        let queries: Vec<QueryGraph> = jobs.iter().map(|j| j.query.clone()).collect();
        let deadlines: Vec<Option<Instant>> =
            jobs.iter().map(|j| j.deadline.map(|(at, _)| at)).collect();
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        match engine.estimate_batch_deadline_ids(&dataset, &queries, &deadlines, &ids) {
            Ok(outcomes) => {
                let stats = engine.stats();
                for (job, outcome) in jobs.into_iter().zip(outcomes) {
                    let reply = match outcome {
                        QueryOutcome::Done(outcome) => Response::Estimate {
                            outcome,
                            hits: stats.cache_hits,
                            misses: stats.cache_misses,
                        },
                        // The engine already counted this timeout.
                        QueryOutcome::TimedOut => Response::Timeout {
                            deadline_ms: job.deadline.map_or(0, |(_, ms)| ms),
                        },
                    };
                    respond(job, reply);
                }
            }
            Err(msg) => {
                for job in jobs {
                    respond(job, Response::Error(msg.clone()));
                }
            }
        }
    }
}
