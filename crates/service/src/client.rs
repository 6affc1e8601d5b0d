//! A small blocking client for the wire protocol.
//!
//! Used by `cegtool query`, the integration tests and the CI smoke script;
//! anything that can write lines to a TCP socket (netcat included) speaks
//! the same protocol.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ceg_graph::{LabelId, VertexId};
use ceg_query::QueryGraph;

use crate::engine::{SlowQueryEntry, SnapshotAck, UpdateAck};
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
/// client methods return these so callers can distinguish "refused
/// before any work, safe to resend" (`Busy`) from "the work exceeded
/// its budget" (`Timeout`) without string-matching error text.
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
    fn into_estimate(self) -> io::Result<EstimateReply> {
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

/// One connection to a running estimation server.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered so each request leaves in one write syscall — an
    /// unbuffered `writeln!` issues several small writes, which Nagle +
    /// delayed ACKs stretch into ~40ms per round-trip.
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server at `addr` (one attempt, no retries).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
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
    /// The connection stays usable for `PING`/`METRICS` while
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_to_a_closed_port_errors() {
        // Learn a free port and leave it unbound: one attempt, no retry.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        assert!(Client::connect(addr).is_err());
    }
}
