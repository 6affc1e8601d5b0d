//! A small blocking client for the wire protocol.
//!
//! Used by `cegcli query`, the integration tests and the CI smoke script;
//! anything that can write lines to a TCP socket (netcat included) speaks
//! the same protocol.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ceg_graph::{LabelId, VertexId};
use ceg_query::QueryGraph;

use crate::engine::{EngineStats, SlowQueryEntry, SnapshotAck, UpdateAck};
use crate::protocol::{
    parse_metric_line, parse_slowlog_entry, split_id, ExplainItem, Request, Response,
};
use crate::registry::CommitOutcome;

/// The answer to one `ESTIMATE` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReply {
    /// The estimate; `None` when the estimator cannot answer.
    pub value: Option<f64>,
    /// True if the server answered from its LRU cache.
    pub cached: bool,
    /// Server-wide cache hits after this request.
    pub hits: u64,
    /// Server-wide cache misses after this request.
    pub misses: u64,
}

/// The typed outcome of one estimate slot: an answer, or one of the
/// overload rejections the server may send instead. The deadline-aware
/// client methods return these so callers can distinguish "retry with
/// backoff" (`Busy`) from "the work exceeded its budget" (`Timeout`)
/// without string-matching error text.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// A normal estimate reply.
    Estimate(EstimateReply),
    /// Rejected by admission control (queue full) or a draining server.
    Busy(String),
    /// Abandoned at its deadline; carries the deadline the server
    /// enforced, in milliseconds.
    Timeout {
        /// The enforced deadline in milliseconds.
        deadline_ms: u64,
    },
}

impl QueryReply {
    /// The estimate, or the overload rejection as an `io::Error` of kind
    /// `WouldBlock` (`Busy`) / `TimedOut` (`Timeout`) — what the
    /// non-typed client methods return.
    pub fn into_estimate(self) -> io::Result<EstimateReply> {
        match self {
            QueryReply::Estimate(reply) => Ok(reply),
            QueryReply::Busy(msg) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("server busy: {msg}"),
            )),
            QueryReply::Timeout { deadline_ms } => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("estimate exceeded its {deadline_ms}ms deadline"),
            )),
        }
    }
}

/// The answer to one `EXPLAIN_ESTIMATE` request: the same typed outcome
/// an `ESTIMATE` would produce, plus the server-side trace that produced
/// it — named wall-clock spans and named counters, in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReply {
    /// The estimate outcome — bit-identical to what `ESTIMATE` returns
    /// for the same query against the same server state.
    pub reply: QueryReply,
    /// The request id the server assigned (echoed as the `id=` tail on
    /// the reply header; the same id tags the SLOWLOG entry if the
    /// request was slow).
    pub id: Option<u64>,
    /// Wall-clock spans as `(name, micros)`, e.g. `("catalog_fill", 412)`.
    pub spans: Vec<(String, u64)>,
    /// Counters as `(name, value)`, e.g. `("cache_cold_miss", 1)`.
    pub counters: Vec<(String, u64)>,
}

impl ExplainReply {
    /// Look up a span duration by name.
    pub fn span(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Retry policy for [`Client::connect_with`] and the `*_retry` request
/// methods. The defaults reproduce the historical client exactly: one
/// connect attempt, no retries.
///
/// Retries are **bounded and idempotent-only**: connection attempts and
/// `BUSY`-rejected read-only requests (estimates) are retried with
/// exponential backoff plus deterministic jitter. `COMMIT` is *never*
/// retried by this policy — a commit whose reply was lost may have been
/// durably applied, and blindly resending it would double-apply the
/// delta. Callers own commit retries, checking the epoch first.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect attempts before giving up (minimum 1).
    pub connect_attempts: u32,
    /// Retries after a `BUSY` reply to an idempotent request (0 = the
    /// historical fail-fast behaviour).
    pub busy_retries: u32,
    /// Base backoff: attempt `i` sleeps about `backoff * 2^i`, jittered
    /// to avoid retry convoys from many clients at once.
    pub backoff: Duration,
    /// Cap on any single backoff sleep.
    pub backoff_max: Duration,
    /// Seed for the deterministic jitter stream (tests pin it; real
    /// clients can leave the default, distinct client *instances* still
    /// de-correlate via their attempt timing).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 1,
            busy_retries: 0,
            backoff: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            jitter_seed: 0x5DEE_CE66_D123_4567,
        }
    }
}

/// One connection to a running estimation server.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered so each request leaves in one write syscall — an
    /// unbuffered `writeln!` issues several small writes, which Nagle +
    /// delayed ACKs stretch into ~40ms per round-trip.
    writer: BufWriter<TcpStream>,
    config: ClientConfig,
    /// xorshift64 jitter state (the service crate deliberately has no
    /// RNG dependency; retry jitter needs spread, not randomness).
    jitter: u64,
}

impl Client {
    /// Connect to a server at `addr` (single attempt, no retries — the
    /// historical behaviour; see [`Client::connect_with`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect under a retry policy: up to
    /// [`ClientConfig::connect_attempts`] TCP connects, sleeping a
    /// jittered exponential backoff between failures. Returns the last
    /// connect error if every attempt fails.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let mut jitter = config.jitter_seed.max(1);
        let attempts = config.connect_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(&config, attempt - 1, &mut jitter));
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Client {
                        writer: BufWriter::new(stream.try_clone()?),
                        reader: BufReader::new(stream),
                        config,
                        jitter,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no connect attempts made")))
    }

    /// Read one line as the server sent it, minus the line ending.
    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Send `request` and read the head of its reply, with the request id
    /// the server stamped on it. The head of any reply is a [`Response`]:
    /// the whole reply, or the [`Response::Counted`] line that announces
    /// how many body lines follow.
    fn roundtrip_id(&mut self, request: &Request) -> io::Result<(Response, Option<u64>)> {
        writeln!(self.writer, "{}", request.format())?;
        self.writer.flush()?;
        let line = self.read_line()?;
        let (body, id) = split_id(&line);
        Ok((Response::parse(body).map_err(invalid)?, id))
    }

    fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        Ok(self.roundtrip_id(request)?.0)
    }

    /// [`Client::roundtrip_id`] for a command answered with a counted
    /// reply: under the counted head of that command, also read the body
    /// lines it announces — all of them, as they are, so no parse error
    /// further up leaves lines in the stream. A request refused as a
    /// whole is a single `ERR`, `BUSY` or `TIMEOUT` line: that head comes
    /// back alone.
    fn roundtrip_counted(
        &mut self,
        request: &Request,
    ) -> io::Result<(Response, Option<u64>, Vec<String>)> {
        let (head, id) = self.roundtrip_id(request)?;
        let mut body = Vec::new();
        if let Response::Counted { kind, n } = head {
            if kind != request.command() {
                return Err(Self::protocol_error(head));
            }
            for _ in 0..n {
                body.push(self.read_line()?);
            }
        }
        Ok((head, id, body))
    }

    /// The body of a counted reply, for the commands that can make
    /// nothing of a refusal but an error.
    fn counted_body(&mut self, request: &Request) -> io::Result<Vec<String>> {
        match self.roundtrip_counted(request)? {
            (Response::Counted { .. }, _, body) => Ok(body),
            (other, ..) => Err(Self::protocol_error(other)),
        }
    }

    fn protocol_error(response: Response) -> io::Error {
        let msg = match response {
            Response::Error(msg) => msg,
            other => format!("unexpected response `{}`", other.format()),
        };
        io::Error::other(msg)
    }

    /// The typed outcome an estimate's reply line stands for.
    fn query_reply(response: Response) -> io::Result<QueryReply> {
        match response {
            Response::Estimate {
                outcome,
                hits,
                misses,
            } => Ok(QueryReply::Estimate(EstimateReply {
                value: outcome.value,
                cached: outcome.cached,
                hits,
                misses,
            })),
            Response::Busy(msg) => Ok(QueryReply::Busy(msg)),
            Response::Timeout { deadline_ms } => Ok(QueryReply::Timeout { deadline_ms }),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Estimate `query` against the named dataset.
    ///
    /// `BUSY`/`TIMEOUT` replies surface as `io::Error`s of kind
    /// `WouldBlock`/`TimedOut`; use [`Client::estimate_with_deadline`]
    /// for the typed outcomes.
    pub fn estimate(&mut self, dataset: &str, query: &QueryGraph) -> io::Result<EstimateReply> {
        self.estimate_with_deadline(dataset, query, None)?
            .into_estimate()
    }

    /// [`Client::estimate_with_deadline`] under the client's retry
    /// policy: a `BUSY` reply is retried up to
    /// [`ClientConfig::busy_retries`] times with jittered exponential
    /// backoff (estimates are idempotent — re-asking an overloaded
    /// server is always safe). The final `BUSY` is returned typed, so an
    /// exhausted budget is still distinguishable from a timeout.
    pub fn estimate_with_retry(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        deadline_ms: Option<u64>,
    ) -> io::Result<QueryReply> {
        let mut attempt = 0;
        loop {
            match self.estimate_with_deadline(dataset, query, deadline_ms)? {
                QueryReply::Busy(_) if attempt < self.config.busy_retries => {
                    std::thread::sleep(backoff_delay(&self.config, attempt, &mut self.jitter));
                    attempt += 1;
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Estimate `query`, optionally bounding the server's work to
    /// `deadline_ms` milliseconds, and return the typed outcome
    /// (estimate, `BUSY`, or `TIMEOUT`). With `None` the server applies
    /// its own default deadline, if configured.
    pub fn estimate_with_deadline(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        deadline_ms: Option<u64>,
    ) -> io::Result<QueryReply> {
        let request = Request::Estimate {
            dataset: dataset.to_string(),
            query: query.clone(),
            deadline_ms,
        };
        Self::query_reply(self.roundtrip(&request)?)
    }

    /// Estimate an ordered batch of queries against one dataset in one
    /// wire round-trip per [`crate::protocol::MAX_BATCH_QUERIES`]-sized
    /// chunk (`ESTIMATE_BATCH`): the server streams each chunk's answers
    /// back in request order as it computes them.
    /// Replies line up index-for-index with `queries`. An empty batch
    /// is answered locally without touching the wire.
    pub fn estimate_batch(
        &mut self,
        dataset: &str,
        queries: &[QueryGraph],
    ) -> io::Result<Vec<EstimateReply>> {
        let replies = self.estimate_batch_with_deadline(dataset, queries, None)?;
        replies.into_iter().map(QueryReply::into_estimate).collect()
    }

    /// Like [`Client::estimate_batch`], but with an optional whole-batch
    /// deadline and typed per-slot outcomes: every slot lines up
    /// index-for-index with `queries` and is an estimate, a `BUSY`, or a
    /// `TIMEOUT` — an overloaded server never desynchronizes the stream.
    /// Oversized batches are chunked; the deadline then applies to each
    /// chunk separately.
    pub fn estimate_batch_with_deadline(
        &mut self,
        dataset: &str,
        queries: &[QueryGraph],
        deadline_ms: Option<u64>,
    ) -> io::Result<Vec<QueryReply>> {
        // Chunk transparently: sending a header past the server's batch
        // cap is an unrecoverable framing error that would drop the
        // connection, so an oversized workload must never reach the wire
        // as one batch.
        if queries.len() > crate::protocol::MAX_BATCH_QUERIES {
            let mut replies = Vec::with_capacity(queries.len());
            for chunk in queries.chunks(crate::protocol::MAX_BATCH_QUERIES) {
                replies.extend(self.estimate_batch_with_deadline(dataset, chunk, deadline_ms)?);
            }
            return Ok(replies);
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let request = Request::EstimateBatch {
            dataset: dataset.to_string(),
            queries: queries.to_vec(),
            deadline_ms,
        };
        let body = self.counted_body(&request)?;
        if body.len() != queries.len() {
            return Err(invalid(format!(
                "batch of {} answered with {} replies",
                queries.len(),
                body.len()
            )));
        }
        // A slot is an estimate, a BUSY or a TIMEOUT; anything else (a
        // per-query ERR) fails the batch with the first such line.
        let slot =
            |line: &String| Self::query_reply(Response::parse(split_id(line).0).map_err(invalid)?);
        body.iter().map(slot).collect()
    }

    /// Ask the server to persist the dataset's committed graph, catalog
    /// and epoch to a `.cegsnap` file at `path` on the **server's**
    /// filesystem.
    pub fn snapshot(&mut self, dataset: &str, path: &str) -> io::Result<SnapshotAck> {
        let request = Request::Snapshot {
            dataset: dataset.to_string(),
            path: path.to_string(),
        };
        match self.roundtrip(&request)? {
            Response::Snapshotted(ack) => Ok(ack),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Buffer an edge insertion on the named dataset (invisible to
    /// estimates until [`Client::commit`]).
    pub fn add_edge(
        &mut self,
        dataset: &str,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> io::Result<UpdateAck> {
        let request = Request::AddEdge {
            dataset: dataset.to_string(),
            src,
            dst,
            label,
        };
        match self.roundtrip(&request)? {
            Response::Updated(ack) => Ok(ack),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Buffer an edge deletion on the named dataset.
    pub fn del_edge(
        &mut self,
        dataset: &str,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> io::Result<UpdateAck> {
        let request = Request::DelEdge {
            dataset: dataset.to_string(),
            src,
            dst,
            label,
        };
        match self.roundtrip(&request)? {
            Response::Updated(ack) => Ok(ack),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Commit the dataset's pending updates, bumping its epoch and
    /// invalidating cached estimates computed before the commit.
    pub fn commit(&mut self, dataset: &str) -> io::Result<CommitOutcome> {
        let request = Request::Commit {
            dataset: dataset.to_string(),
        };
        match self.roundtrip(&request)? {
            Response::Committed(outcome) => Ok(outcome),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Fetch the server's counter snapshot.
    pub fn stats(&mut self) -> io::Result<EngineStats> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Fetch the full metrics registry as `(key, value)` pairs (the
    /// `METRICS` command) — latency histogram quantiles per command,
    /// queue depths, and the BUSY/timeout/error counters.
    pub fn metrics(&mut self) -> io::Result<Vec<(String, u64)>> {
        let body = self.counted_body(&Request::Metrics)?;
        let pairs = body.iter().map(|line| parse_metric_line(line));
        pairs.collect::<Result<_, _>>().map_err(invalid)
    }

    /// Estimate one query and return the outcome **plus** the server-side
    /// trace that produced it (the `EXPLAIN_ESTIMATE` command). The
    /// estimate is exactly what [`Client::estimate_with_deadline`] would
    /// return for the same query at the same moment — explain changes
    /// what is reported, never what is computed.
    pub fn explain(
        &mut self,
        dataset: &str,
        query: &QueryGraph,
        deadline_ms: Option<u64>,
    ) -> io::Result<ExplainReply> {
        let request = Request::ExplainEstimate {
            dataset: dataset.to_string(),
            query: query.clone(),
            deadline_ms,
        };
        let (head, id, body) = self.roundtrip_counted(&request)?;
        let (first, items) = match head {
            Response::Counted { .. } => {
                let (first, items) = body
                    .split_first()
                    .ok_or_else(|| invalid("EXPLAIN reply announced zero lines".into()))?;
                (Response::parse(first).map_err(invalid)?, items)
            }
            // A refused explain is one typed line and has no breakdown.
            refused => (refused, Default::default()),
        };
        let mut explained = ExplainReply {
            reply: Self::query_reply(first)?,
            id,
            spans: Vec::new(),
            counters: Vec::new(),
        };
        for line in items {
            match ExplainItem::parse(line).map_err(invalid)? {
                ExplainItem::Span { name, micros } => explained.spans.push((name, micros)),
                ExplainItem::Counter { name, value } => explained.counters.push((name, value)),
            }
        }
        Ok(explained)
    }

    /// Fetch the most recent slow-query log entries, newest first (the
    /// `SLOWLOG` command). `n` bounds the count; `None` returns the whole
    /// ring (at most the server's ring capacity).
    pub fn slowlog(&mut self, n: Option<usize>) -> io::Result<Vec<SlowQueryEntry>> {
        let body = self.counted_body(&Request::SlowLog { n })?;
        let entries = body.iter().map(|line| parse_slowlog_entry(line));
        entries.collect::<Result<_, _>>().map_err(invalid)
    }

    /// Fetch the metrics registry in Prometheus text exposition format
    /// (the `METRICS_PROM` command), one exposition line per element.
    pub fn metrics_prom(&mut self) -> io::Result<Vec<String>> {
        // Exposition lines come back verbatim: a label value may end in
        // ` id=<n>`, and nothing here splits it off.
        self.counted_body(&Request::MetricsProm)
    }

    /// Ask the server to drain and shut down (the `SHUTDOWN` command).
    /// The connection stays usable for `PING`/`STATS`/`METRICS` while
    /// the drain proceeds; estimates and updates get `BUSY`.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Draining => Ok(()),
            other => Err(Self::protocol_error(other)),
        }
    }

    /// Politely close the connection.
    pub fn quit(mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Quit)? {
            Response::Bye => Ok(()),
            other => Err(Self::protocol_error(other)),
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The sleep before retry `attempt` (0-based): `backoff * 2^attempt`,
/// capped at `backoff_max`, with the top half jittered by an xorshift64
/// step of `state` — deterministic per seed, de-correlated across
/// retries.
fn backoff_delay(config: &ClientConfig, attempt: u32, state: &mut u64) -> Duration {
    let base = config
        .backoff
        .checked_mul(1u32 << attempt.min(16))
        .unwrap_or(config.backoff_max)
        .min(config.backoff_max);
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let nanos = base.as_nanos().min(u64::MAX as u128) as u64;
    // Keep at least half the exponential step so retries still spread
    // over time; jitter the other half.
    Duration::from_nanos(nanos / 2 + x % (nanos / 2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EstimateOutcome;
    use std::net::TcpListener;

    fn fast_config() -> ClientConfig {
        ClientConfig {
            connect_attempts: 20,
            busy_retries: 3,
            backoff: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
            jitter_seed: 42,
        }
    }

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let config = ClientConfig {
            backoff: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let mut state = 7u64;
        let d0 = backoff_delay(&config, 0, &mut state);
        let d3 = backoff_delay(&config, 3, &mut state);
        let d9 = backoff_delay(&config, 9, &mut state);
        assert!(d0 >= Duration::from_millis(5) && d0 <= Duration::from_millis(10));
        assert!(d3 >= Duration::from_millis(40) && d3 <= Duration::from_millis(80));
        assert!(d9 >= Duration::from_millis(50) && d9 <= Duration::from_millis(100));
        // Same seed → same stream (deterministic for tests)…
        let (mut a, mut b) = (42u64, 42u64);
        assert_eq!(
            backoff_delay(&config, 1, &mut a),
            backoff_delay(&config, 1, &mut b)
        );
        // …and consecutive steps of one stream jitter differently.
        assert_ne!(
            backoff_delay(&config, 1, &mut a),
            backoff_delay(&config, 1, &mut a)
        );
    }

    #[test]
    fn connect_with_retries_until_the_listener_appears() {
        // Learn a free port, leave it unbound, and only start listening
        // after a delay — the flaky-listener scenario (server still
        // booting, or restarting after a crash).
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let listener = TcpListener::bind(addr).expect("rebind");
            let (_stream, _) = listener.accept().expect("accept");
            // Hold the stream open long enough for the client to finish
            // its connect handshake.
            std::thread::sleep(Duration::from_millis(20));
        });
        let client = Client::connect_with(addr, fast_config());
        assert!(client.is_ok(), "{:?}", client.err());
        drop(client);
        server.join().unwrap();

        // A single attempt against the now-dead port fails fast.
        assert!(Client::connect(addr).is_err());
    }

    #[test]
    fn estimate_retries_through_busy_and_never_gives_up_early() {
        // A fake server that answers the first two ESTIMATEs with BUSY
        // and the third with a real estimate — the client must retry
        // exactly through the BUSYs and surface the answer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut estimates = 0;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let resp = if line.starts_with("ESTIMATE") {
                    estimates += 1;
                    if estimates <= 2 {
                        Response::Busy("queue full".into())
                    } else {
                        Response::Estimate {
                            outcome: EstimateOutcome {
                                value: Some(8.0),
                                cached: false,
                            },
                            hits: 0,
                            misses: 1,
                        }
                    }
                } else {
                    Response::Bye
                };
                writeln!(writer, "{}", resp.format()).unwrap();
                writer.flush().unwrap();
                if matches!(resp, Response::Bye) {
                    return;
                }
            }
        });
        let mut client = Client::connect_with(addr, fast_config()).unwrap();
        let q = ceg_query::templates::path(1, &[0]);
        let reply = client.estimate_with_retry("toy", &q, None).unwrap();
        assert_eq!(
            reply,
            QueryReply::Estimate(EstimateReply {
                value: Some(8.0),
                cached: false,
                hits: 0,
                misses: 1,
            })
        );
        let _ = client.quit();
        server.join().unwrap();
    }

    #[test]
    fn busy_retries_are_bounded_and_the_final_busy_is_typed() {
        // A server that is BUSY forever: the client must stop after its
        // configured budget and hand back the typed BUSY, not loop.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut answered = 0usize;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !line.starts_with("ESTIMATE") {
                    break;
                }
                answered += 1;
                writeln!(writer, "{}", Response::Busy("drain".into()).format()).unwrap();
                writer.flush().unwrap();
                line.clear();
            }
            answered
        });
        let config = ClientConfig {
            busy_retries: 2,
            ..fast_config()
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        let q = ceg_query::templates::path(1, &[0]);
        let reply = client.estimate_with_retry("toy", &q, None).unwrap();
        assert_eq!(reply, QueryReply::Busy("drain".into()));
        drop(client);
        // 1 initial try + 2 retries, not one more.
        assert_eq!(server.join().unwrap(), 3);
    }
}
