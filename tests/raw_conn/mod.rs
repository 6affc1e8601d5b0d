//! A test server over a four-edge toy graph, and a raw line-level
//! connection to it: what the wire suites send and read byte for byte.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use cegraph::graph::GraphBuilder;
use cegraph::service::{DatasetRegistry, Server, ServerConfig};

/// A server on an ephemeral port over the toy graph, as dataset
/// `default`, with a 64-entry cache.
pub fn start_server() -> Server {
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

/// One connection, written in bytes and read a line at a time.
pub struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    pub fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawConn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    pub fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
    }

    /// Read one response line; `None` on a server-side disconnect. The
    /// per-request `id=<n>` tail is stripped — this suite asserts on
    /// reply bodies.
    pub fn read_line(&mut self) -> Option<String> {
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
