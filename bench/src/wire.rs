//! The load generator's side of the wire: pre-rendered requests written
//! with one syscall each, replies parsed by the service's own protocol
//! module, and the closed-loop and open-loop drivers.
//!
//! Requests are rendered once, before timing, so the measured round trip
//! holds the server's work and the socket, not the harness formatting a
//! query. Every reply is compared with the reference value for its query.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ceg_query::QueryGraph;
use ceg_service::protocol::{
    parse_batch_response_header, parse_explain_response_header, split_id, ExplainItem, Request,
    Response,
};

pub const DATASET: &str = "default";

/// One request as it goes on the wire, and the pool queries it asks about
/// in reply order.
pub struct Op {
    text: String,
    pub queries: Vec<u32>,
}

impl Op {
    /// `ESTIMATE` of pool query `idx`, or `EXPLAIN_ESTIMATE` when traced.
    pub fn single(idx: u32, query: &QueryGraph, traced: bool) -> Op {
        let (dataset, query, deadline_ms) = (DATASET.to_string(), query.clone(), None);
        let request = if traced {
            Request::ExplainEstimate {
                dataset,
                query,
                deadline_ms,
            }
        } else {
            Request::Estimate {
                dataset,
                query,
                deadline_ms,
            }
        };
        Op {
            text: request.format() + "\n",
            queries: vec![idx],
        }
    }

    /// One `ESTIMATE_BATCH` of the given pool queries.
    pub fn batch(indices: &[u32], pool: &[QueryGraph]) -> Op {
        let request = Request::EstimateBatch {
            dataset: DATASET.to_string(),
            queries: indices.iter().map(|&i| pool[i as usize].clone()).collect(),
            deadline_ms: None,
        };
        Op {
            text: request.format() + "\n",
            queries: indices.to_vec(),
        }
    }
}

/// What the server said about one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    Estimate {
        value: Option<f64>,
        cached: bool,
    },
    /// `BUSY`, `TIMEOUT` or `ERR`: the request was not answered.
    Refused,
}

/// Server-side spans an `EXPLAIN_ESTIMATE` reply may carry. `lock_wait`
/// lies inside `cache_probe`; the others do not overlap.
pub const SPANS: [&str; 5] = [
    "queue_wait",
    "lock_wait",
    "cache_probe",
    "catalog_fill",
    "estimate",
];

/// Server-side counters kept from an `EXPLAIN_ESTIMATE` reply.
pub const COUNTERS: [&str; 9] = [
    "cache_hit",
    "cache_stale_miss",
    "cache_cold_miss",
    "catalog_patterns_counted",
    "kernel_candidates",
    "kernel_intersect_merge",
    "kernel_intersect_gallop",
    "kernel_intersect_bitset",
    "kernel_memo_hits",
];

/// The server's account of one traced request, indexed like [`SPANS`]
/// and [`COUNTERS`]. A span the server did not record reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    pub spans_us: [u64; SPANS.len()],
    pub counters: [u64; COUNTERS.len()],
}

impl Breakdown {
    pub fn span_us(&self, name: &str) -> u64 {
        SPANS
            .iter()
            .position(|s| *s == name)
            .map_or(0, |i| self.spans_us[i])
    }

    pub fn counter(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|s| *s == name)
            .map_or(0, |i| self.counters[i])
    }
}

/// The parsed reply to one [`Op`]; the buffer is reused across requests.
#[derive(Default)]
pub struct Reply {
    pub answers: Vec<Answer>,
    /// Present for `EXPLAIN_ESTIMATE` only.
    pub breakdown: Option<Breakdown>,
}

/// One estimate connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    line: String,
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            line: String::new(),
        })
    }

    /// Read one reply line without its ` id=<n>` tail.
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(split_id(self.line.trim_end()).0)
    }

    fn read_answer(&mut self) -> io::Result<Answer> {
        match Response::parse(self.read_line()?).map_err(bad_data)? {
            Response::Estimate { outcome, .. } => Ok(Answer::Estimate {
                value: outcome.value,
                cached: outcome.cached,
            }),
            Response::Busy(_) | Response::Timeout { .. } | Response::Error(_) => {
                Ok(Answer::Refused)
            }
            other => Err(bad_data(format!("unexpected reply `{}`", other.format()))),
        }
    }

    /// Send `op` and read its whole reply into `reply`.
    pub fn exchange(&mut self, op: &Op, reply: &mut Reply) -> io::Result<()> {
        reply.answers.clear();
        reply.breakdown = None;
        self.stream.write_all(op.text.as_bytes())?;
        let head = self.read_line()?;
        if head.starts_with("BATCH") {
            let n = parse_batch_response_header(head).map_err(bad_data)?;
            for _ in 0..n {
                let answer = self.read_answer()?;
                reply.answers.push(answer);
            }
        } else if head.starts_with("EXPLAIN") {
            let n = parse_explain_response_header(head).map_err(bad_data)?;
            let answer = self.read_answer()?;
            reply.answers.push(answer);
            let mut b = Breakdown::default();
            for _ in 1..n {
                match ExplainItem::parse(self.read_line()?).map_err(bad_data)? {
                    ExplainItem::Span { name, micros } => {
                        if let Some(i) = SPANS.iter().position(|s| *s == name) {
                            b.spans_us[i] = micros;
                        }
                    }
                    ExplainItem::Counter { name, value } => {
                        if let Some(i) = COUNTERS.iter().position(|s| *s == name) {
                            b.counters[i] = value;
                        }
                    }
                }
            }
            reply.breakdown = Some(b);
        } else if head.starts_with("ERR") {
            // A refused batch or explain is one `ERR` line for the lot.
            reply.answers.resize(op.queries.len(), Answer::Refused);
        } else {
            let answer = match Response::parse(head).map_err(bad_data)? {
                Response::Estimate { outcome, .. } => Answer::Estimate {
                    value: outcome.value,
                    cached: outcome.cached,
                },
                Response::Busy(_) | Response::Timeout { .. } => Answer::Refused,
                other => return Err(bad_data(format!("unexpected reply `{}`", other.format()))),
            };
            reply.answers.push(answer);
        }
        Ok(())
    }
}

/// One request's timing, in nanoseconds from the phase origin.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due. A closed loop sends when the previous
    /// reply arrived, so there `due == sent`.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub end_ns: u64,
    /// Queries the reply answered.
    pub weight: u32,
}

impl Sample {
    /// Latency from the due time: in an open loop this charges a stall to
    /// every request that had to wait behind it.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }
}

/// One traced request: the client-side span and the server's account.
#[derive(Debug, Clone, Copy)]
pub struct TracedRequest {
    pub sample: Sample,
    pub breakdown: Breakdown,
}

/// Everything one connection observed during a phase.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub traced: Vec<TracedRequest>,
    /// Queries asked.
    pub attempted: u64,
    /// Queries refused, failed by I/O, or answered with the wrong value.
    pub failed: u64,
    /// Queries answered from the server's cache.
    pub hits: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.traced.extend(other.traced);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.hits += other.hits;
    }

    /// Ascending latencies in nanoseconds.
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(Sample::latency_ns).collect();
        v.sort_unstable();
        v
    }

    fn record(&mut self, op: &Op, reply: &Reply, sample: Sample, expected: Option<&[Option<f64>]>) {
        self.attempted += op.queries.len() as u64;
        // A short reply leaves its unanswered queries failed.
        self.failed += (op.queries.len() - reply.answers.len().min(op.queries.len())) as u64;
        for (&idx, answer) in op.queries.iter().zip(&reply.answers) {
            match *answer {
                Answer::Refused => self.failed += 1,
                Answer::Estimate { value, cached } => {
                    self.hits += cached as u64;
                    let wrong = expected.is_some_and(|e| {
                        e[idx as usize].map(f64::to_bits) != value.map(f64::to_bits)
                    });
                    self.failed += wrong as u64;
                }
            }
        }
        self.samples.push(sample);
        if let Some(breakdown) = reply.breakdown {
            self.traced.push(TracedRequest { sample, breakdown });
        }
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// What the drivers share: where the phase clock starts, the reference
/// values (every answer is compared bit for bit with the one for its
/// query, when given), and the tally so far.
struct Driver<'a> {
    origin: Instant,
    expected: Option<&'a [Option<f64>]>,
    tally: Tally,
    reply: Reply,
}

impl Driver<'_> {
    /// Send `op` now, timing it from `due`; returns when the reply ended.
    fn send(&mut self, conn: &mut Conn, op: &Op, due: Instant) -> io::Result<Instant> {
        let sent = Instant::now();
        conn.exchange(op, &mut self.reply)?;
        let end = Instant::now();
        let sample = Sample {
            due_ns: ns_since(self.origin, due),
            sent_ns: ns_since(self.origin, sent),
            end_ns: ns_since(self.origin, end),
            weight: self.reply.answers.len() as u32,
        };
        self.tally.record(op, &self.reply, sample, self.expected);
        Ok(end)
    }
}

fn driver(origin: Instant, expected: Option<&[Option<f64>]>) -> Driver<'_> {
    Driver {
        origin,
        expected,
        tally: Tally::default(),
        reply: Reply::default(),
    }
}

/// Closed loop: send each of `ops` as soon as the previous reply arrived,
/// until they run out or `until` passes.
pub fn closed_loop<'a>(
    conn: &mut Conn,
    ops: impl Iterator<Item = &'a Op>,
    origin: Instant,
    until: Option<Instant>,
    expected: Option<&[Option<f64>]>,
) -> io::Result<Tally> {
    let mut d = driver(origin, expected);
    let mut due = Instant::now();
    for op in ops {
        if until.is_some_and(|u| due >= u) {
            break;
        }
        due = d.send(conn, op, due)?;
    }
    Ok(d.tally)
}

/// Sleep until shortly before `due`, then spin: `thread::sleep` alone
/// overshoots by a scheduler quantum, which would be charged to the
/// server as latency from the due time.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: request `i` is due at `start + i / rate_hz` whether or not
/// earlier replies have arrived; on one connection a late reply delays
/// the sends behind it, and each of those is timed from its due time.
pub fn open_loop(
    conn: &mut Conn,
    ops: &[Op],
    rate_hz: f64,
    origin: Instant,
    start: Instant,
    until: Instant,
    expected: Option<&[Option<f64>]>,
) -> io::Result<Tally> {
    let mut d = driver(origin, expected);
    for (i, op) in ops.iter().cycle().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
        if due >= until {
            break;
        }
        wait_until(due);
        d.send(conn, op, due)?;
    }
    Ok(d.tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_percentile;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const STALL: Duration = Duration::from_millis(50);

    /// A server that answers every line with a fixed estimate and stalls
    /// once, for [`STALL`], before its 100th reply.
    fn stub_server() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut line = String::new();
            let mut reader = BufReader::new(stream);
            let mut served = 0u64;
            while !stop_seen.load(Ordering::SeqCst) {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                served += 1;
                if served == 100 {
                    std::thread::sleep(STALL);
                }
                if writer
                    .write_all(
                        format!("EST 7 cache=miss hits=0 misses={served} id={served}\n").as_bytes(),
                    )
                    .is_err()
                {
                    break;
                }
            }
        });
        (addr, stop, handle)
    }

    fn ping_ops() -> Vec<Op> {
        let q = ceg_query::templates::path(2, &[0, 1]);
        vec![Op::single(0, &q, false)]
    }

    fn p99_ms(tally: &Tally) -> f64 {
        let p99 = tail_percentile(&tally.sorted_latencies_ns(), 0.99).expect("enough samples");
        p99 as f64 / 1e6
    }

    /// Coordinated omission: one 50 ms stall delays ~50 requests of a
    /// 1 kHz open loop, so its p99 shows the stall; a closed loop simply
    /// sends less while stalled, one request sees it, and p99 does not.
    #[test]
    fn open_loop_p99_shows_a_stall_that_a_closed_loop_hides() {
        let expected = [Some(7.0)];

        let (addr, stop, server) = stub_server();
        let mut conn = Conn::connect(addr).unwrap();
        let start = Instant::now();
        let until = start + Duration::from_millis(1500);
        let open = open_loop(
            &mut conn,
            &ping_ops(),
            1000.0,
            start,
            start,
            until,
            Some(&expected),
        )
        .unwrap();
        stop.store(true, Ordering::SeqCst);
        drop(conn);
        server.join().unwrap();
        assert_eq!(open.failed, 0);
        assert!(open.samples.len() >= 1400, "sent {}", open.samples.len());
        assert!(
            p99_ms(&open) > 25.0,
            "open-loop p99 {} ms hides the stall",
            p99_ms(&open)
        );

        let (addr, stop, server) = stub_server();
        let mut conn = Conn::connect(addr).unwrap();
        let start = Instant::now();
        let ops = ping_ops();
        let until = Some(start + Duration::from_millis(500));
        let closed =
            closed_loop(&mut conn, ops.iter().cycle(), start, until, Some(&expected)).unwrap();
        stop.store(true, Ordering::SeqCst);
        drop(conn);
        server.join().unwrap();
        assert_eq!(closed.failed, 0);
        assert!(
            closed.samples.len() >= 1100,
            "sent {}",
            closed.samples.len()
        );
        let worst = closed.sorted_latencies_ns().last().copied().unwrap() as f64 / 1e6;
        assert!(worst >= 45.0, "the stalled request itself took {worst} ms");
        assert!(
            p99_ms(&closed) < 10.0,
            "closed-loop p99 {} ms",
            p99_ms(&closed)
        );
    }

    #[test]
    fn wrong_and_refused_answers_count_as_failed() {
        let mut tally = Tally::default();
        let op = Op {
            text: String::new(),
            queries: vec![0, 1, 2, 3],
        };
        let reply = Reply {
            answers: vec![
                Answer::Estimate {
                    value: Some(1.0),
                    cached: true,
                },
                Answer::Estimate {
                    value: Some(2.5),
                    cached: false,
                },
                Answer::Refused,
            ],
            ..Reply::default()
        };
        let sample = Sample {
            due_ns: 0,
            sent_ns: 0,
            end_ns: 5,
            weight: 3,
        };
        let expected = [Some(1.0), Some(2.0), Some(3.0), None];
        tally.record(&op, &reply, sample, Some(&expected));
        // One wrong value, one refusal, one query the short reply skipped.
        assert_eq!((tally.attempted, tally.failed, tally.hits), (4, 3, 1));
    }
}
