//! Wire-level tests of the snapshot + batch tentpole: a server restarted
//! from a `.cegsnap` must be indistinguishable from the one that wrote
//! it — byte-identical responses, same estimates, same epoch — and the
//! batched estimation path must agree answer-for-answer with the
//! one-at-a-time path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cegraph::graph::GraphBuilder;
use cegraph::query::templates;
use cegraph::service::{Client, DatasetRegistry, Server, ServerConfig};

fn toy_registry() -> Arc<DatasetRegistry> {
    let mut b = GraphBuilder::new(6);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(3, 4, 0);
    b.add_edge(4, 5, 2);
    b.add_edge(5, 0, 0);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", b.build(), 2);
    registry
}

fn config() -> ServerConfig {
    ServerConfig {
        cache_capacity: 256,
        ..ServerConfig::default()
    }
}

fn snap_path(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ceg-snap-test-{stem}-{}.cegsnap",
        std::process::id()
    ))
}

/// Send raw request lines and collect exactly `expect` response lines.
/// The per-request `id=<n>` tail is stripped: ids are a per-server
/// monotone sequence (the writer server has already handled the setup
/// requests), so byte-identity is asserted on the reply bodies.
fn raw_exchange(addr: std::net::SocketAddr, request: &str, expect: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(request.as_bytes()).expect("write");
    writer.flush().expect("flush");
    (0..expect)
        .map(|_| {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
            let line = line.trim_end();
            match line.rsplit_once(' ') {
                Some((body, tail)) if tail.starts_with("id=") => body.to_string(),
                _ => line.to_string(),
            }
        })
        .collect()
}

/// The tentpole acceptance test: mutate a live server, snapshot it over
/// the wire, restart a second server from the file, and drive both
/// through the **same** probe script on fresh connections — every
/// response byte must match, including estimates, cache flags, epochs
/// and the follow-up commit's epoch.
#[test]
fn restarted_server_answers_byte_identically() {
    let server1 = Server::start(toy_registry(), "127.0.0.1:0", config()).unwrap();
    let mut client = Client::connect(server1.local_addr()).unwrap();

    // Mutate: two effective commits, so the epoch is non-trivial.
    client.add_edge("default", 2, 3, 0).unwrap();
    client.commit("default").unwrap();
    client.add_edge("default", 4, 0, 1).unwrap();
    client.del_edge("default", 5, 0, 0).unwrap();
    let outcome = client.commit("default").unwrap();
    assert_eq!(outcome.epoch, 2);

    // Snapshot the committed state over the wire. No estimate has been
    // served yet, so both servers will start the probe with identical
    // cache counters.
    let path = snap_path("restart");
    let ack = client.snapshot("default", path.to_str().unwrap()).unwrap();
    assert_eq!(ack.epoch, 2);
    assert!(ack.bytes > 0);
    client.quit().unwrap();

    // The byte-identity probe uses single-request round-trips only: one
    // connection serializes them completely, so every byte — estimates,
    // cache flags, epochs, even the server-wide counters — is
    // deterministic. 8 requests, 8 response lines.
    let q1 = templates::path(2, &[0, 1]);
    let q2 = templates::star(2, &[1, 1]);
    let q3 = templates::path(3, &[0, 1, 2]);
    let fmt = |q: &cegraph::query::QueryGraph| {
        let mut s = format!("{} {}", q.num_vars(), q.num_edges());
        for e in q.edges() {
            s.push_str(&format!(" {} {} {}", e.src, e.dst, e.label));
        }
        s
    };
    let probe = format!(
        "ESTIMATE default {q1}\nESTIMATE default {q1}\nESTIMATE default {q3}\n\
         ADD_EDGE default 3 5 2\nCOMMIT default\nESTIMATE default {q2}\nPING\nSTATS\n",
        q1 = fmt(&q1),
        q2 = fmt(&q2),
        q3 = fmt(&q3),
    );

    // Restart path: a second server restored from the snapshot file.
    let registry2 = Arc::new(DatasetRegistry::new());
    registry2.load_snapshot("default", &path).unwrap();
    let server2 = Server::start(registry2, "127.0.0.1:0", config()).unwrap();

    let replies1 = raw_exchange(server1.local_addr(), &probe, 8);
    let replies2 = raw_exchange(server2.local_addr(), &probe, 8);
    assert_eq!(
        replies1, replies2,
        "a restarted-from-snapshot server must answer byte-identically"
    );

    // Sanity on the shared transcript: real estimates, a cache hit, the
    // continued epoch sequence.
    assert!(replies1[0].starts_with("EST "), "{}", replies1[0]);
    assert!(replies1[0].contains("cache=miss"));
    assert!(replies1[1].contains("cache=hit"));
    assert!(replies1[3].starts_with("OK epoch=2"), "{}", replies1[3]);
    assert!(
        replies1[4].starts_with("COMMITTED epoch=3"),
        "{}",
        replies1[4]
    );

    // The batched path agrees too, on its deterministic prefix: the
    // batch header and each reply's value + cache flag. (The trailing
    // server-wide hit/miss counters depend on how the pool drained the
    // batch — timing, not state — so they are not compared.)
    let batch = format!(
        "ESTIMATE_BATCH default 3\n{}\n{}\n{}\n",
        fmt(&q1),
        fmt(&q2),
        fmt(&q3)
    );
    let strip = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .map(|l| {
                l.split_whitespace()
                    .take_while(|tok| !tok.starts_with("hits="))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    let batch1 = strip(raw_exchange(server1.local_addr(), &batch, 4));
    let batch2 = strip(raw_exchange(server2.local_addr(), &batch, 4));
    assert_eq!(batch1, batch2, "batched estimates must agree after restart");
    assert_eq!(batch1[0], "BATCH 3");
    for line in &batch1[1..] {
        assert!(line.starts_with("EST "), "{line}");
    }

    std::fs::remove_file(&path).unwrap();
    server1.shutdown();
    server2.shutdown();
}

/// Batch answers must agree exactly with single-query answers, arrive in
/// request order, and mix cache hits and misses per query.
#[test]
fn batch_estimates_match_singles_in_order() {
    let server = Server::start(toy_registry(), "127.0.0.1:0", config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let queries = vec![
        templates::path(2, &[0, 1]),
        templates::star(2, &[1, 1]),
        templates::path(3, &[0, 1, 2]),
        templates::path(2, &[1, 0]),
        templates::path(2, &[0, 1]), // duplicate: must hit within the batch's epoch
    ];
    // Warm exactly one query through the single path.
    let single = client.estimate("default", &queries[0]).unwrap();
    assert!(!single.cached);

    let replies = client.estimate_batch("default", &queries).unwrap();
    assert_eq!(replies.len(), queries.len());
    assert_eq!(replies[0].value, single.value, "batch must agree");
    assert!(replies[0].cached, "warmed query must hit inside the batch");

    // Every reply agrees with a fresh single estimate of the same query
    // (all cached now, same values).
    for (q, batch_reply) in queries.iter().zip(&replies) {
        let again = client.estimate("default", q).unwrap();
        assert_eq!(again.value, batch_reply.value);
        assert!(again.cached);
    }

    // Empty batch: answered locally, no wire traffic.
    assert!(client.estimate_batch("default", &[]).unwrap().is_empty());

    // A batch past the server's MAX_BATCH_QUERIES cap is chunked
    // transparently by the client instead of tripping the server's
    // framing guard (which would drop the connection).
    let oversized: Vec<_> =
        std::iter::repeat_n(queries[0].clone(), cegraph::service::MAX_BATCH_QUERIES + 1).collect();
    let chunked = client.estimate_batch("default", &oversized).unwrap();
    assert_eq!(chunked.len(), oversized.len());
    assert!(chunked.iter().all(|r| r.value == single.value));

    // Unknown dataset: every query in the batch reports the error; the
    // connection survives.
    assert!(client.estimate_batch("nope", &queries).is_err());
    client.ping().unwrap();
    client.quit().unwrap();
    server.shutdown();
}

/// SNAPSHOT failure modes over the wire: unknown dataset and unwritable
/// path are `ERR` responses, and the connection (and server) survive.
#[test]
fn snapshot_errors_are_reported_and_server_survives() {
    let server = Server::start(toy_registry(), "127.0.0.1:0", config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let err = client
        .snapshot("nope", "/tmp/whatever.cegsnap")
        .unwrap_err();
    assert!(err.to_string().contains("unknown dataset"), "{err}");
    client.ping().unwrap();

    let err = client
        .snapshot("default", "/no/such/dir/x.cegsnap")
        .unwrap_err();
    assert!(err.to_string().contains("snapshot failed"), "{err}");
    client.ping().unwrap();

    // The wire command is a remote-triggered filesystem write: only
    // `.cegsnap` paths are allowed, so a client can never truncate an
    // arbitrary file the server process can write.
    let err = client
        .snapshot("default", "/tmp/innocent-file.txt")
        .unwrap_err();
    assert!(err.to_string().contains(".cegsnap"), "{err}");
    client.ping().unwrap();

    // And a good one still works afterwards.
    let path = snap_path("errors");
    let ack = client.snapshot("default", path.to_str().unwrap()).unwrap();
    assert_eq!(ack.epoch, 0);
    let snap = cegraph::catalog::io::read_snapshot(&path).unwrap();
    assert_eq!(snap.epoch, 0);
    assert_eq!(snap.graph.num_edges(), 6);
    std::fs::remove_file(&path).unwrap();
    client.quit().unwrap();
    server.shutdown();
}

/// An uncommitted pending buffer is NOT captured: restore reflects the
/// last committed state only.
#[test]
fn snapshot_excludes_pending_updates() {
    let registry = toy_registry();
    let entry = registry.get("default").unwrap();
    let server = Server::start(registry.clone(), "127.0.0.1:0", config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let ack = client.add_edge("default", 0, 5, 1).unwrap();
    assert_eq!(ack.pending, 1);
    let path = snap_path("pending");
    client.snapshot("default", path.to_str().unwrap()).unwrap();
    assert_eq!(entry.pending_len(), 1, "snapshot must not drain pending");

    let snap = cegraph::catalog::io::read_snapshot(&path).unwrap();
    assert!(!snap.graph.has_edge(0, 5, 1), "pending op must not persist");
    assert_eq!(snap.epoch, 0);
    std::fs::remove_file(&path).unwrap();
    client.quit().unwrap();
    server.shutdown();
}
