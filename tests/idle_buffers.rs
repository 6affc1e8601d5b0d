//! Idle-connection memory: a fleet of connections that each sent one
//! large (near the 64 KB cap, still answerable) request line and then
//! went idle must not pin its grown read buffers. The server shrinks the
//! per-connection line buffer back to ~1 KB after every oversized
//! request, so resident memory grows by small per-connection state —
//! stream buffers, a touched stack page or two — not by 64 KB a piece.
//!
//! The check is a process-RSS regression (server and test share this
//! process): without the shrink, ~1k idle connections retain ~60 MB;
//! with it, the delta stays well under the asserted bound even counting
//! allocator arenas that hold freed chunks.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cegraph::graph::GraphBuilder;
use cegraph::service::{proc_status, DatasetRegistry, Server, ServerConfig};

/// Per-connection RSS allowance (KB) once idle: 4 KB read + 4 KB write
/// stream buffers, the shrunk 1 KB line buffer, a couple of touched
/// 4 KB stack/TCB pages, allocator slack.
const IDLE_KB_PER_CONN: u64 = 24;

/// Soft open-file limit from `/proc/self/limits`; `None` off-Linux.
fn soft_fd_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

struct IdleConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl IdleConn {
    fn connect(addr: std::net::SocketAddr) -> IdleConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        IdleConn {
            writer: stream.try_clone().expect("clone"),
            // Small client-side buffer: the measurement targets the
            // server's per-connection state, not the harness's.
            reader: BufReader::with_capacity(1024, stream),
        }
    }

    fn roundtrip(&mut self, request: &[u8]) -> String {
        self.writer.write_all(request).expect("write");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("read") > 0,
            "server closed the connection"
        );
        // Strip the per-request `id=<n>` tail; the assertions here are
        // about the reply bodies.
        let line = line.trim_end();
        match line.rsplit_once(' ') {
            Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
            _ => line.to_string(),
        }
    }
}

#[test]
fn thousand_idle_connections_do_not_pin_grown_read_buffers() {
    let Some(fd_limit) = soft_fd_limit() else {
        eprintln!("skipping: /proc/self/limits unavailable (non-Linux)");
        return;
    };
    if proc_status("VmRSS").is_none() {
        eprintln!("skipping: /proc/self/status has no VmRSS");
        return;
    }
    // Each connection costs two fds in this process (client + server
    // end); leave headroom for everything else the test binary holds.
    let n = 1000usize.min(((fd_limit.saturating_sub(128)) / 2) as usize);
    assert!(n >= 64, "fd limit {fd_limit} too low to say anything");

    let registry = Arc::new(DatasetRegistry::new());
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(2, 3, 0);
    registry.insert_graph("default", b.build(), 2);
    let server = Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Establish the fleet and force every handler thread fully up (one
    // PING each) before taking the baseline, so thread stacks and stream
    // buffers are counted in *both* measurements and the delta isolates
    // what the big lines leave behind.
    let mut conns: Vec<IdleConn> = (0..n).map(|_| IdleConn::connect(addr)).collect();
    for conn in &mut conns {
        assert_eq!(conn.roundtrip(b"PING\n"), "PONG");
    }
    let rss_before = proc_status("VmRSS").unwrap();

    // One ~56 KB garbage line per connection: under the 64 KB framing
    // cap, so the server answers `ERR` and keeps the connection — but
    // its line buffer has ballooned and must be given back.
    let mut big = String::with_capacity(57 * 1024);
    big.push_str("BOGUS ");
    while big.len() < 56 * 1024 {
        big.push('x');
    }
    big.push('\n');
    for conn in &mut conns {
        let reply = conn.roundtrip(big.as_bytes());
        assert!(reply.starts_with("ERR "), "got {reply:?}");
    }
    // The fleet is idle again; the same connections still serve.
    for conn in &mut conns {
        assert_eq!(conn.roundtrip(b"PING\n"), "PONG");
    }
    std::thread::sleep(Duration::from_millis(200));

    let rss_after = proc_status("VmRSS").unwrap();
    let delta_kb = rss_after.saturating_sub(rss_before);
    let bound_kb = (n as u64) * IDLE_KB_PER_CONN;
    assert!(
        delta_kb <= bound_kb,
        "{n} idle connections retained {delta_kb} KB (> {bound_kb} KB): \
         grown read buffers are being pinned"
    );

    drop(conns);
    drop(server);
}
