//! Protocol robustness: malformed, truncated and oversized wire input —
//! scripted and seeded-random — must come back as `ERR` lines (or a
//! clean framing disconnect for input that cannot be re-synchronized),
//! with the server staying up throughout. No panic ever crosses a
//! connection handler.

use cegraph::service::{Client, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod raw_conn;
use raw_conn::{start_server, RawConn};

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
    drop(server);
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
    drop(server);
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
    drop(server);
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
        "PING",
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
    drop(server);
}

/// Run `input` as one connection through [`Server::serve_io`]: how the
/// loop ended, and the reply lines with their `id=<n>` tails stripped.
fn serve_bytes(server: &Server, input: &[u8]) -> (std::io::Result<()>, Vec<String>) {
    let mut out = Vec::new();
    let ended = server.serve_io(input, &mut out);
    let lines = String::from_utf8(out).expect("replies are UTF-8");
    let lines = lines.lines().map(|line| match line.rsplit_once(' ') {
        Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
        _ => line.to_string(),
    });
    (ended, lines.collect())
}

/// A well-framed request that is not UTF-8 — a line, or a batch whose
/// query line is not — earns one `ERR`, and the connection keeps serving.
#[test]
fn a_request_that_is_not_utf8_gets_one_err_and_the_connection_survives() {
    let server = start_server();
    let not_utf8 = "ERR request is not UTF-8";
    for input in [
        &b"PING\n\xff\xfe\nPING\n"[..],
        b"PING\nESTIMATE_BATCH default 2\n2 1 0 1 0\n2 1 0 \xff 0\nPING\n",
        b"PING\nESTIMATE_BATCH def\xffault 2\n2 1 0 1 0\n2 1 0 1 0\nPING\n",
    ] {
        let (ended, lines) = serve_bytes(&server, input);
        assert!(ended.is_ok(), "{input:?}: {ended:?}");
        assert_eq!(lines, ["PONG", not_utf8, "PONG"], "{input:?}");
    }
}

/// The framing paths inside a batch body: an overlong query line answers
/// exactly one `ERR` and closes the connection, as at top level, and end
/// of input in the middle of a batch writes nothing.
#[test]
fn a_batch_body_keeps_the_framing_rules() {
    let server = start_server();
    let long = vec![b'A'; 80 * 1024];
    let too_long = ["ERR request line too long"];
    for head in [&b""[..], b"ESTIMATE_BATCH default 2\n2 1 0 1 0\n"] {
        let input = [head, &long, b"\nPING\n"].concat();
        let (ended, lines) = serve_bytes(&server, &input);
        assert!(ended.is_ok(), "{ended:?}");
        assert_eq!(lines, too_long, "the connection must close after the ERR");
    }
    let (ended, lines) = serve_bytes(&server, b"ESTIMATE_BATCH default 3\n2 1 0 1 0\n");
    assert!(ended.is_ok(), "{ended:?}");
    assert!(lines.is_empty(), "{lines:?}");
}
