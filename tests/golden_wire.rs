//! A golden wire transcript, recorded on the build before PR 23 rewrote
//! the service shell's parser, reply framing and metrics rendering.
//!
//! `tests/fixtures/golden_wire.txt` holds three things:
//!
//! 1. `== requests`: every request of [`SCRIPT`] — one per `missing` /
//!    `bad` / `trailing` / `truncated` / limit branch of the request
//!    grammar plus one well-formed request per command — sent over a real
//!    socket, each on its own connection, with its exact reply (id tails
//!    stripped). Counted bodies whose values are timings keep their names
//!    and have the value masked with `*`. After the reply the connection
//!    is probed with `PING`; `! closed` marks the ones the server dropped.
//! 2. `== METRICS` / `== METRICS_PROM`: the full text of
//!    `Engine::metrics_snapshot()` and `Engine::metrics_prom()` for a
//!    fresh engine holding one two-edge dataset — key order, `# TYPE`
//!    lines and the bucket layout. The resident-set and thread gauges
//!    keep their names and have the value masked with `*`.
//! 3. `== changed by …`: the one intended wire change, kept apart so
//!    everything above it is the recording of the parent, byte for byte.
//!    The bare commands ignored what followed the keyword
//!    (`SHUTDOWN please-dont` drained the server, `QUIT x` closed the
//!    connection); now they answer `ERR <CMD>: trailing tokens` like
//!    every other command, and the estimate that closes the block shows
//!    the server is not draining.
//!
//! Re-recorded once since, when `STATS` left the wire (`METRICS` carries
//! its counters as `requests_total`, `batches_total`, `cache_hits`,
//! `cache_misses`, `busy_total`, `timeout_total` and `queued`): its
//! exchanges left both scripts, its `latency_stats_*` keys and
//! `ceg_latency_stats_micros` family left the dumps, and the scalar keys
//! of both dumps follow the `SERIES` table of
//! `crates/service/src/metrics.rs` in one pass. Every `EST` line stayed
//! byte-identical.
//!
//! Regenerate (only when the wire is *meant* to change) with
//! `GOLDEN_WIRE_WRITE=1 cargo test --release --test golden_wire`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use cegraph::graph::GraphBuilder;
use cegraph::service::{DatasetRegistry, Engine, Server, ServerConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_wire.txt"
);

/// The `METRICS` keys whose values are the process's resident set and
/// thread count.
const PROCESS_GAUGES: [&str; 5] = [
    "rss_anon_bytes",
    "rss_file_bytes",
    "hwm_bytes",
    "threads",
    "unaccounted_bytes",
];

/// The heading of the block PR 23 changed on purpose.
const CHANGED: &str = "== changed by PR 23: trailing tokens on the bare commands";

/// Sent in order against one server. `{TMP}` is a scratch directory,
/// `{LONG}` an 80 KiB line with no newline, `{STAR24}` a 24-edge star.
const SCRIPT: &[&str] = &[
    // One well-formed request per command (SHUTDOWN and QUIT close the
    // script).
    "PING",
    "ESTIMATE default 3 2 0 1 0 1 2 1",
    "ESTIMATE default 3 2 0 1 0 1 2 1",
    "ESTIMATE default DEADLINE_MS=5000 3 2 0 1 1 1 2 0",
    "ESTIMATE default DEADLINE_MS=0 2 1 0 1 1",
    "EXPLAIN_ESTIMATE default 2 1 0 1 0",
    "EXPLAIN_ESTIMATE default DEADLINE_MS=0 3 2 0 1 1 1 2 1",
    "ESTIMATE_BATCH default 2\n2 1 0 1 0\n3 2 0 1 0 1 2 1",
    "ESTIMATE_BATCH default 1 DEADLINE_MS=5000\n2 1 0 1 1",
    "ADD_EDGE default 4 0 1",
    "DEL_EDGE default 0 1 0",
    "COMMIT default",
    "COMMIT default",
    "ESTIMATE default 3 2 0 1 0 1 2 1",
    "SNAPSHOT default {TMP}/golden.cegsnap",
    "SLOWLOG",
    "SLOWLOG 1",
    "METRICS",
    "METRICS_PROM",
    // Unknown and empty-ish input.
    "BOGUS",
    "estimate default 2 1 0 1 0",
    // ESTIMATE: every branch of the query grammar.
    "ESTIMATE",
    "ESTIMATE default",
    "ESTIMATE default DEADLINE_MS=abc 2 1 0 1 0",
    "ESTIMATE default DEADLINE_MS= 2 1 0 1 0",
    "ESTIMATE default DEADLINE_MS=5",
    "ESTIMATE default x",
    "ESTIMATE default 3",
    "ESTIMATE default 3 x",
    "ESTIMATE default 33 1 0 1 0",
    "ESTIMATE default 3 33 0 1 0",
    "ESTIMATE default 3 1",
    "ESTIMATE default 3 1 0",
    "ESTIMATE default 3 1 0 1",
    "ESTIMATE default 3 1 x 1 0",
    "ESTIMATE default 3 1 0 x 0",
    "ESTIMATE default 3 1 0 1 99999",
    "ESTIMATE default 3 1 0 1 -1",
    "ESTIMATE default 2 1 0 5 0",
    "ESTIMATE default 3 1 0 1 0 9 9 9",
    "ESTIMATE default 1 0",
    "ESTIMATE default 4 2 0 1 0 2 3 1",
    "ESTIMATE nope 3 2 0 1 0 1 2 1",
    "ESTIMATE default {STAR24}",
    // EXPLAIN_ESTIMATE shares the grammar and names itself in errors.
    "EXPLAIN_ESTIMATE",
    "EXPLAIN_ESTIMATE default",
    "EXPLAIN_ESTIMATE default DEADLINE_MS=x 2 1 0 1 0",
    "EXPLAIN_ESTIMATE default 3 1 0 1",
    "EXPLAIN_ESTIMATE default 3 1 0 1 0 7",
    "EXPLAIN_ESTIMATE nope 2 1 0 1 0",
    "EXPLAIN_ESTIMATE default {STAR24}",
    // ESTIMATE_BATCH: a bad header closes the connection, a bad query
    // line fails the batch and keeps it.
    "ESTIMATE_BATCH",
    "ESTIMATE_BATCH default",
    "ESTIMATE_BATCH default x",
    "ESTIMATE_BATCH default 0",
    "ESTIMATE_BATCH default 1025",
    "ESTIMATE_BATCH default 2 extra",
    "ESTIMATE_BATCH default 1 DEADLINE_MS=x",
    "ESTIMATE_BATCH default 1 DEADLINE_MS=5 junk",
    "ESTIMATE_BATCH default 1\n2 1 0 1",
    "ESTIMATE_BATCH default 2\n2 1 0 1 0\n2 1 0 5 0",
    "ESTIMATE_BATCH default 2\n2 1 0 1 0\n3 x",
    "ESTIMATE_BATCH default 1\n33 1 0 1 0",
    "ESTIMATE_BATCH nope 1\n2 1 0 1 0",
    "ESTIMATE_BATCH default 2\n2 1 0 1 0\n{STAR24}",
    // ADD_EDGE / DEL_EDGE.
    "ADD_EDGE",
    "ADD_EDGE default",
    "ADD_EDGE default 1",
    "ADD_EDGE default 1 2",
    "ADD_EDGE default x 2 0",
    "ADD_EDGE default 1 x 0",
    "ADD_EDGE default 1 2 x",
    "ADD_EDGE default 1 2 3 4",
    "ADD_EDGE default 99999999999 0 0",
    "ADD_EDGE default 0 0 99999",
    "ADD_EDGE default 99999999 0 0",
    "ADD_EDGE default 0 1 65535",
    "ADD_EDGE nope 0 1 0",
    "DEL_EDGE",
    "DEL_EDGE default",
    "DEL_EDGE default -1 0 0",
    "DEL_EDGE default 1 2",
    "DEL_EDGE default 1 2 0 x",
    "DEL_EDGE nope 0 1 0",
    // COMMIT / SNAPSHOT / SLOWLOG / METRICS_PROM.
    "COMMIT",
    "COMMIT default extra",
    "COMMIT nope",
    "SNAPSHOT",
    "SNAPSHOT default",
    "SNAPSHOT default {TMP}/a b.cegsnap",
    "SNAPSHOT default {TMP}/golden.txt",
    "SNAPSHOT nope {TMP}/golden.cegsnap",
    "SNAPSHOT default {TMP}/no/such/dir/x.cegsnap",
    "SLOWLOG x",
    "SLOWLOG -1",
    "SLOWLOG 1 2",
    "METRICS_PROM x",
    // Framing that cannot be re-synchronized.
    "{LONG}",
    // Lifecycle: a drain refuses new work with typed replies.
    "SHUTDOWN",
    "PING",
    "ESTIMATE default 3 2 0 1 0 1 2 1",
    "EXPLAIN_ESTIMATE default 2 1 0 1 0",
    "ESTIMATE_BATCH default 2\n2 1 0 1 0\n2 1 0 1 1",
    "ADD_EDGE default 0 1 0",
    "DEL_EDGE default 0 1 0",
    "COMMIT default",
    "SNAPSHOT default {TMP}/golden.cegsnap",
    "QUIT",
];

/// The bare commands with a trailing token, then an estimate that tells a
/// draining server from a serving one.
const CHANGED_SCRIPT: &[&str] = &[
    "PING x",
    "METRICS x",
    "SHUTDOWN please-dont",
    "QUIT x",
    "ESTIMATE default 2 1 0 1 0",
];

fn start_server() -> Server {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(3, 4, 0);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", b.build(), 2);
    let config = ServerConfig {
        cache_capacity: 64,
        // Every answered miss leaves a slow-query record, so SLOWLOG has
        // a body to pin.
        slow_query_threshold_ms: 0,
        ..ServerConfig::default()
    };
    Server::start(registry, "127.0.0.1:0", config).unwrap()
}

/// Read one reply line without its ` id=<n>` tail; `None` once the
/// server has closed the connection.
fn read_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => {
            let line = line.trim_end();
            Some(match line.rsplit_once(' ') {
                Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
                _ => line.to_string(),
            })
        }
    }
}

/// `line` with its last token replaced by `*`.
fn mask_last(line: &str) -> String {
    match line.rsplit_once(' ') {
        Some((head, _)) => format!("{head} *"),
        None => line.to_string(),
    }
}

/// A slow-query record with its four timings masked.
fn mask_slowlog(line: &str) -> String {
    line.split(' ')
        .map(|tok| match tok.split_once('=') {
            Some((k @ ("micros" | "cache_us" | "fill_us" | "estimate_us"), _)) => format!("{k}=*"),
            _ => tok.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Send one scripted request on a fresh connection and append what came
/// back to `out`.
fn exchange(addr: SocketAddr, shown: &str, tmp: &str, out: &mut String) {
    let star24: String = {
        let edges: String = (1..=24).map(|i| format!(" 0 {i} 0")).collect();
        format!("25 24{edges}")
    };
    for line in shown.lines() {
        writeln!(out, "> {line}").unwrap();
    }
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    if shown == "{LONG}" {
        writer.write_all(&vec![b'A'; 80 * 1024]).expect("write");
    } else {
        let text = shown.replace("{TMP}", tmp).replace("{STAR24}", &star24);
        writer
            .write_all(format!("{text}\n").as_bytes())
            .expect("write");
    }
    let Some(head) = read_line(&mut reader) else {
        writeln!(out, "! closed").unwrap();
        return;
    };
    writeln!(out, "< {head}").unwrap();
    let counted = head.split_once(' ').and_then(|(kind, n)| {
        let kinds = ["BATCH", "METRICS", "METRICS_PROM", "EXPLAIN", "SLOWLOG"];
        Some((
            kinds.into_iter().find(|k| *k == kind)?,
            n.parse::<usize>().ok()?,
        ))
    });
    if let Some((kind, n)) = counted {
        for i in 0..n {
            // Body lines other than a batch's replies carry no id tail;
            // read them raw.
            let body = if kind == "BATCH" {
                read_line(&mut reader).expect("counted body line")
            } else {
                let mut raw = String::new();
                reader.read_line(&mut raw).expect("counted body line");
                raw.trim_end().to_string()
            };
            let body = match kind {
                "BATCH" => body,
                "EXPLAIN" if i == 0 => body,
                "EXPLAIN" if body.starts_with("span ") || body.contains("_us ") => mask_last(&body),
                "EXPLAIN" => body,
                "SLOWLOG" => mask_slowlog(&body),
                _ if body.starts_with('#') => body,
                _ => mask_last(&body),
            };
            writeln!(out, "< {body}").unwrap();
        }
    }
    // Did the connection survive?
    let _ = writer.write_all(b"PING\n");
    if read_line(&mut reader).as_deref() != Some("PONG") {
        writeln!(out, "! closed").unwrap();
    }
}

fn run_script(script: &[&str], tmp: &str, out: &mut String) {
    let server = start_server();
    for request in script {
        exchange(server.local_addr(), request, tmp, out);
    }
    drop(server);
}

/// `(recorded on the parent, changed by PR 23)`.
fn render() -> (String, String) {
    let tmp = std::env::temp_dir().join(format!("ceg-golden-wire-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    let tmp_str = tmp.to_str().expect("utf-8 temp dir").to_string();

    let mut out = String::from("== requests\n");
    run_script(SCRIPT, &tmp_str, &mut out);

    let mut b = GraphBuilder::new(300);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 299, 1);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("toy", b.build(), 2);
    let engine = Engine::new(registry, 16);
    let process_gauge = |key: &str| PROCESS_GAUGES.contains(&key);
    out.push_str("== METRICS\n");
    for (key, value) in engine.metrics_snapshot() {
        if process_gauge(&key) {
            writeln!(out, "{key} *").unwrap();
        } else {
            writeln!(out, "{key} {value}").unwrap();
        }
    }
    out.push_str("== METRICS_PROM\n");
    for line in engine.metrics_prom() {
        let family = line.strip_prefix("ceg_").and_then(|l| l.split_once(' '));
        if family.is_some_and(|(key, _)| process_gauge(key)) {
            writeln!(out, "{}", mask_last(&line)).unwrap();
        } else {
            writeln!(out, "{line}").unwrap();
        }
    }

    let mut changed = format!("{CHANGED}\n");
    run_script(CHANGED_SCRIPT, &tmp_str, &mut changed);
    let _ = std::fs::remove_dir_all(&tmp);
    (out, changed)
}

fn assert_same_lines(got: &str, want: &str, what: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: line {} moved", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{what}: line count moved"
    );
}

#[test]
fn the_wire_matches_the_recorded_transcript() {
    assert!(SCRIPT.len() >= 60, "the script shrank");
    let (got, got_changed) = render();
    if std::env::var_os("GOLDEN_WIRE_WRITE").is_some() {
        std::fs::write(FIXTURE, format!("{got}{got_changed}")).expect("write golden fixture");
        return;
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is checked in");
    let split = fixture
        .find(CHANGED)
        .expect("the fixture has the PR 23 block");
    let (want, want_changed) = fixture.split_at(split);
    assert_same_lines(&got, want, "recorded on the parent");
    assert_same_lines(&got_changed, want_changed, "changed by PR 23");
}
