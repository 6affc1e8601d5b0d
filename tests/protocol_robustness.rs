//! Protocol robustness: malformed, truncated and oversized wire input —
//! scripted and seeded-random — must come back as `ERR` lines (or a
//! clean framing disconnect for input that cannot be re-synchronized),
//! with the server staying up throughout. No panic ever crosses a
//! connection handler.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use cegraph::graph::GraphBuilder;
use cegraph::service::{Client, DatasetRegistry, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn start_server() -> Server {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(3, 4, 0);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", b.build(), 2);
    Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawConn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
    }

    /// Read one response line; `None` on a server-side disconnect. The
    /// per-request `id=<n>` tail is stripped — this suite asserts on
    /// reply bodies.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => {
                let line = line.trim_end();
                Some(match line.rsplit_once(' ') {
                    Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
                    _ => line.to_string(),
                })
            }
            Err(_) => None,
        }
    }
}

/// Every scripted malformed line earns exactly one `ERR` response, and
/// the same connection keeps serving afterwards.
#[test]
fn scripted_malformed_lines_get_err_and_connection_survives() {
    let server = start_server();
    let mut conn = RawConn::connect(server.local_addr());
    for line in [
        "BOGUS",
        "ESTIMATE",
        "ESTIMATE default",
        "ESTIMATE default 3",
        "ESTIMATE default 3 1 0 1",                       // truncated edge
        "ESTIMATE default 2 1 0 5 0",                     // endpoint out of range
        "ESTIMATE default 3 1 0 1 0 9 9 9",               // trailing tokens
        "ESTIMATE default 3 99 0 1 0",                    // too many edges
        "ESTIMATE default 1 0",                           // zero edges
        "ESTIMATE default 4 2 0 1 0 2 3 1",               // disconnected
        "ESTIMATE nope 3 2 0 1 0 1 2 1",                  // unknown dataset
        "ADD_EDGE default 1 2",                           // truncated update
        "ADD_EDGE default 99999999999 0 0",               // overflows VertexId
        "ADD_EDGE default 99999999 0 0",                  // parses, fails domain bound
        "COMMIT",                                         // missing dataset
        "COMMIT nope",                                    // unknown dataset
        "SNAPSHOT default",                               // missing path
        "SNAPSHOT nope /tmp/x.cegsnap",                   // unknown dataset
        "SNAPSHOT default /no/such/dir/x.cegsnap",        // unwritable path
        "ESTIMATE_BATCH default 1\n2 1 0 1",              // truncated query line
        "ESTIMATE_BATCH default 2\n2 1 0 1 0\n2 1 0 5 0", // bad 2nd query
        "\u{1}\u{2}\u{3} binary garbage",
        // Tokens after a bare command: an error, not a PONG, a drain or
        // a closed connection.
        "PING x",
        "STATS x",
        "METRICS x",
        "SHUTDOWN please-dont",
        "QUIT x",
    ] {
        conn.send(format!("{line}\n").as_bytes());
        let reply = conn.read_line().expect("server must answer, not drop");
        assert!(
            reply.starts_with("ERR "),
            "line {line:?} should earn ERR, got {reply:?}"
        );
        // The connection still serves real traffic.
        conn.send(b"PING\n");
        assert_eq!(conn.read_line().as_deref(), Some("PONG"));
    }
    // `SHUTDOWN please-dont` did not start a drain.
    assert!(!server.drain_requested());
    conn.send(b"ESTIMATE default 2 1 0 1 0\n");
    let reply = conn.read_line().expect("server must answer");
    assert!(reply.starts_with("EST "), "{reply:?}");
    server.shutdown();
}

/// A query must fit the `u32` masks it is analysed with: 32 edges *and*
/// 32 variables. A 33-variable path and a 32-edge star (33 variables,
/// 2^32 connected subsets) each earn one typed `ERR` on every command
/// that carries a query, and the connection keeps serving.
#[test]
fn queries_that_outgrow_the_masks_get_one_typed_err() {
    let path: String = (0..32).map(|i| format!(" {i} {} 0", i + 1)).collect();
    let star: String = (1..=32).map(|i| format!(" 0 {i} 0")).collect();
    let server = start_server();
    let mut conn = RawConn::connect(server.local_addr());
    for edges in [path, star] {
        for request in [
            format!("ESTIMATE default 33 32{edges}"),
            format!("EXPLAIN_ESTIMATE default 33 32{edges}"),
            format!("ESTIMATE_BATCH default 2\n2 1 0 1 0\n33 32{edges}"),
        ] {
            conn.send(format!("{request}\n").as_bytes());
            let reply = conn.read_line().expect("server must answer, not drop");
            assert!(
                reply.starts_with("ERR ") && reply.contains("32 variables"),
                "{request:?} should earn the variable-limit ERR, got {reply:?}"
            );
            conn.send(b"PING\n");
            assert_eq!(conn.read_line().as_deref(), Some("PONG"));
        }
    }
    // The largest query the masks do hold still parses and is answered.
    let path31: String = (0..31).map(|i| format!(" {i} {} 0", i + 1)).collect();
    conn.send(format!("ESTIMATE default 32 31{path31}\n").as_bytes());
    let reply = conn.read_line().expect("server must answer");
    assert!(reply.starts_with("EST "), "{reply:?}");
    server.shutdown();
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// CEG_O has one node per connected subset, and a star's subsets are all
/// of its 2^k - 1 edge subsets: a 24-edge star is a valid 25-variable
/// query whose CEG would hold 16.7 M nodes. The enumeration gives up as
/// it passes `QueryGraph::MAX_CONNECTED_SUBSETS`, so every command that
/// carries the query answers one typed `ERR` naming the limit — at once,
/// in flat memory, with the connection still serving.
#[test]
fn a_star_too_wide_for_ceg_o_gets_one_typed_err() {
    let star = |k: usize| -> String {
        let edges: String = (1..=k).map(|i| format!(" 0 {i} 0")).collect();
        format!("{} {k}{edges}", k + 1)
    };
    let limit = cegraph::query::QueryGraph::MAX_CONNECTED_SUBSETS.to_string();
    let server = start_server();
    let mut conn = RawConn::connect(server.local_addr());
    let rss_before = peak_rss_kib();
    for (request, header) in [
        (format!("ESTIMATE default {}", star(24)), None),
        (format!("EXPLAIN_ESTIMATE default {}", star(24)), None),
        (
            format!("ESTIMATE_BATCH default 2\n2 1 0 1 0\n{}", star(24)),
            Some("BATCH 2"),
        ),
    ] {
        let started = std::time::Instant::now();
        conn.send(format!("{request}\n").as_bytes());
        if let Some(header) = header {
            // Per slot: the batch's other query is answered as usual.
            assert_eq!(conn.read_line().as_deref(), Some(header));
            let first = conn.read_line().expect("slot 0");
            assert!(first.starts_with("EST "), "{first:?}");
        }
        let reply = conn.read_line().expect("server must answer, not drop");
        assert!(
            reply.starts_with("ERR ") && reply.contains(&limit),
            "{request:?} should earn the subset-limit ERR, got {reply:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "the rejection took {:?}",
            started.elapsed()
        );
        conn.send(b"PING\n");
        assert_eq!(conn.read_line().as_deref(), Some("PONG"));
    }
    let grown_kib = peak_rss_kib().saturating_sub(rss_before);
    assert!(grown_kib < 16 * 1024, "peak RSS grew {grown_kib} KiB");
    // The paper's widest shape — a 12-edge star, 4,096 CEG_O nodes — is
    // still answered.
    conn.send(format!("ESTIMATE default {}\n", star(12)).as_bytes());
    let reply = conn.read_line().expect("server must answer");
    assert!(reply.starts_with("EST "), "{reply:?}");
    server.shutdown();
}

/// Framing violations that cannot be re-synchronized — an oversized
/// line, a garbage batch count — answer one `ERR` and drop only that
/// connection; the server itself keeps accepting.
#[test]
fn unsyncable_framing_drops_the_connection_not_the_server() {
    let server = start_server();
    let addr = server.local_addr();

    // A line past the 64 KB cap with no newline.
    let mut conn = RawConn::connect(addr);
    conn.send(&vec![b'A'; 80 * 1024]);
    assert_eq!(
        conn.read_line().as_deref(),
        Some("ERR request line too long")
    );
    assert_eq!(conn.read_line(), None, "connection must be dropped");

    // A batch header whose count is garbage: the query-line count is
    // unknowable, so staying on the connection would desynchronize it.
    for header in [
        "ESTIMATE_BATCH default x\n",
        "ESTIMATE_BATCH default 0\n",
        "ESTIMATE_BATCH default 99999\n",
        "ESTIMATE_BATCH default\n",
    ] {
        let mut conn = RawConn::connect(addr);
        conn.send(header.as_bytes());
        let reply = conn.read_line().expect("one ERR before the drop");
        assert!(reply.starts_with("ERR "), "{header:?} -> {reply:?}");
        assert_eq!(conn.read_line(), None, "{header:?} must drop the conn");
    }

    // A batch abandoned mid-way (client disconnects) must not wedge the
    // server.
    let mut conn = RawConn::connect(addr);
    conn.send(b"ESTIMATE_BATCH default 3\n2 1 0 1 0\n");
    drop(conn);

    // The server is still alive and serving.
    let mut client = Client::connect(addr).expect("server still accepting");
    client.ping().expect("ping");
    assert!(client
        .estimate("default", &cegraph::query::templates::path(2, &[0, 1]))
        .expect("estimate")
        .value
        .is_some());
    client.quit().unwrap();
    server.shutdown();
}

/// Seeded fuzz: random garbage lines and random mutations of valid
/// requests. Every line must produce exactly one response line (any
/// kind), after which the connection must still answer PING — i.e. the
/// parser never desynchronizes and nothing panics server-side.
#[test]
fn fuzzed_lines_never_desync_or_kill_the_server() {
    let server = start_server();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(0xF022);

    let valid = [
        "ESTIMATE default 3 2 0 1 0 1 2 1",
        "ADD_EDGE default 1 2 0",
        "DEL_EDGE default 0 1 0",
        "COMMIT default",
        "STATS",
    ];
    let charset: Vec<char> = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz0123456789 -=."
        .chars()
        .collect();

    let mut conn = RawConn::connect(addr);
    for round in 0..400 {
        let line: String = match rng.random_range(0..3u32) {
            // Pure random token soup.
            0 => {
                let len = rng.random_range(0..60usize);
                (0..len)
                    .map(|_| charset[rng.random_range(0..charset.len())])
                    .collect()
            }
            // A valid request, mutated: truncate, or swap one char.
            1 => {
                let base = valid[rng.random_range(0..valid.len())];
                let mut s: Vec<char> = base.chars().collect();
                if rng.random_range(0..2u32) == 0 && !s.is_empty() {
                    s.truncate(rng.random_range(0..s.len()));
                } else if !s.is_empty() {
                    let i = rng.random_range(0..s.len());
                    s[i] = charset[rng.random_range(0..charset.len())];
                }
                s.into_iter().collect()
            }
            // A valid request verbatim (mutations must not poison the
            // connection for real traffic).
            _ => valid[rng.random_range(0..valid.len())].to_string(),
        };
        // Empty/whitespace lines are ignored by the server (no response),
        // and QUIT-shaped lines would close the connection legitimately:
        // skip both so "one line in, one line out" stays assertable.
        if line.trim().is_empty() || line.trim_start().starts_with("QUIT") {
            continue;
        }
        conn.send(format!("{line}\n").as_bytes());
        let reply = conn
            .read_line()
            .unwrap_or_else(|| panic!("round {round}: server dropped on {line:?}"));
        assert!(!reply.is_empty(), "round {round}: empty reply to {line:?}");
        conn.send(b"PING\n");
        assert_eq!(
            conn.read_line().as_deref(),
            Some("PONG"),
            "round {round}: connection desynced after {line:?}"
        );
    }
    server.shutdown();
}
