//! Integration tests for the estimation service: a real server on an
//! ephemeral port, concurrent clients, and observable cache behavior.

use std::sync::Arc;
use std::thread;

use cegraph::service::{Client, DatasetEntry, DatasetRegistry, QueryReply, Server, ServerConfig};
use cegraph::workload::{Dataset, Workload, WorkloadQuery};

fn start_server() -> (Server, Vec<WorkloadQuery>) {
    let graph = Dataset::Hetionet.generate(4);
    let queries = Workload::Job.build(&graph, 1, 4);
    assert!(!queries.is_empty());
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new(
        "default",
        graph,
        cegraph::catalog::MarkovTable::empty(2),
    ));
    let config = ServerConfig {
        cache_capacity: 1024,
        ..ServerConfig::default()
    };
    let server = Server::start(registry, "127.0.0.1:0", config).expect("bind ephemeral port");
    (server, queries)
}

/// ≥ 4 concurrent client threads fire the same workload; every thread
/// must observe identical estimates (whether computed or cache-served),
/// and afterwards a repeated query must be a verified cache hit.
#[test]
fn concurrent_clients_get_identical_estimates_and_cache_hits() {
    let (server, queries) = start_server();
    let addr = server.local_addr();

    const CLIENTS: usize = 5;
    let per_thread: Vec<Vec<Option<f64>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    queries
                        .iter()
                        .map(|wq| client.estimate("default", &wq.query).expect("estimate"))
                        .map(|reply| reply.value)
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &per_thread[1..] {
        assert_eq!(&per_thread[0], other, "all clients must agree");
    }
    assert!(per_thread[0].iter().all(|v| v.is_some()));

    // Every query has been answered at least once, so a fresh client
    // repeating one must hit the LRU cache — observable through the
    // protocol's cache flag and the server-wide hit counter.
    let mut client = Client::connect(addr).expect("connect");
    let before = client.stats().expect("stats");
    let reply = client
        .estimate("default", &queries[0].query)
        .expect("estimate");
    assert!(reply.cached, "repeated query must be served from cache");
    assert_eq!(reply.value, per_thread[0][0]);
    assert!(reply.hits > before.cache_hits);

    // Every lookup is accounted for. Concurrent first arrivals of the
    // same query may each miss (both compute the same deterministic
    // value), so misses is at least — not exactly — the distinct-query
    // count; everything else must have hit.
    let stats = client.stats().expect("stats");
    let total_lookups = (CLIENTS * queries.len()) as u64 + 1;
    assert_eq!(stats.cache_hits + stats.cache_misses, total_lookups);
    assert!(stats.cache_misses >= queries.len() as u64);
    assert!(stats.cache_hits >= 1);
    server.shutdown();
}

/// The cache key is the renaming-invariant canonical hash: a client
/// sending a variable-renamed version of an already-served query gets a
/// cache hit with the identical estimate.
#[test]
fn isomorphic_queries_share_cache_entries() {
    let (server, queries) = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let wq = &queries[0];
    let first = client.estimate("default", &wq.query).expect("estimate");
    assert!(!first.cached);

    // Reverse the variable numbering: same pattern, different labels on
    // the variables.
    let n = wq.query.num_vars();
    let renamed = {
        use cegraph::query::{QueryEdge, QueryGraph};
        let edges = wq
            .query
            .edges()
            .iter()
            .map(|e| QueryEdge::new(n - 1 - e.src, n - 1 - e.dst, e.label))
            .collect();
        QueryGraph::new(n, edges)
    };
    assert!(renamed.is_isomorphic(&wq.query));
    let second = client.estimate("default", &renamed).expect("estimate");
    assert!(second.cached, "isomorphic rename must hit the cache");
    assert_eq!(second.value, first.value);
    server.shutdown();
}

/// Protocol-level errors (unknown dataset, malformed lines) come back as
/// `ERR` responses without killing the connection.
#[test]
fn errors_are_reported_and_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (server, queries) = start_server();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let err = client.estimate("no-such-dataset", &queries[0].query);
    assert!(err.is_err());
    // Same connection still works afterwards.
    client.ping().expect("ping after error");
    let ok = client.estimate("default", &queries[0].query).expect("ok");
    assert!(ok.value.is_some());

    // Raw socket with a malformed line: one ERR line back, then normal
    // service resumes on the same connection.
    let stream = std::net::TcpStream::connect(addr).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "ESTIMATE default 3 99 0 1 0").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("ERR "), "got: {line}");
    // Every reply line carries the request's `id=<n>` tail.
    assert!(line
        .trim_end()
        .rsplit(' ')
        .next()
        .unwrap()
        .starts_with("id="));
    writeln!(writer, "PING").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.trim_end().starts_with("PONG id="), "got: {line}");

    // A request line with no newline cannot grow the server's buffer
    // without bound: past the cap the server refuses and disconnects.
    let stream = std::net::TcpStream::connect(addr).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&vec![b'A'; 80 * 1024]).expect("write");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.trim_end().starts_with("ERR request line too long"),
        "got: {line}"
    );
    server.shutdown();
}

/// The tentpole acceptance check: `EXPLAIN_ESTIMATE` answers exactly
/// like `ESTIMATE` while naming the work. Cold, the breakdown shows the
/// catalog fill and nonzero kernel intersection counters; warm, it shows
/// a cache hit and no kernel work at all.
#[test]
fn explain_estimate_traces_cold_and_warm_paths() {
    // The cyclic workload at hop depth 3 is the interesting case: its
    // 3-edge sub-patterns include shared-destination shapes, so the
    // catalog fill exercises the kernel's intersection loop (a chain-only
    // fill never intersects — every level extends from one list).
    let graph = Dataset::Hetionet.generate(4);
    let queries = Workload::Cyclic.build(&graph, 1, 4);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new(
        "default",
        graph,
        cegraph::catalog::MarkovTable::empty(3),
    ));
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Cold pass over the workload: every explain computes (and caches)
    // its estimate and names every stage of the miss path.
    let mut intersecting: Option<(usize, u64, Option<f64>)> = None;
    let mut last_id = 0;
    for (i, wq) in queries.iter().enumerate() {
        let cold = client
            .explain("default", &wq.query, None)
            .expect("cold explain");
        let QueryReply::Estimate(est) = &cold.reply else {
            panic!(
                "cold explain must produce an estimate, got {:?}",
                cold.reply
            );
        };
        assert!(!est.cached, "query {i} unexpectedly cached");
        let id = cold.id.expect("reply header must carry the request id");
        assert!(id > last_id, "request ids are monotone");
        last_id = id;
        for span in [
            "queue_wait",
            "lock_wait",
            "cache_probe",
            "catalog_fill",
            "estimate",
        ] {
            assert!(
                cold.span(span).is_some(),
                "cold explain {i} lacks span `{span}`: {:?}",
                cold.spans
            );
        }
        assert_eq!(cold.counter("cache_cold_miss"), Some(1));
        assert_eq!(cold.counter("cache_hit"), Some(0));
        assert!(cold.counter("catalog_patterns_counted").unwrap() > 0);
        assert!(cold.counter("kernel_candidates").unwrap() > 0);
        // The three intersection-path counters are pinned names: EXPLAIN
        // output must always carry all of them, split by strategy.
        let intersections = cold.counter("kernel_intersect_merge").unwrap()
            + cold.counter("kernel_intersect_gallop").unwrap()
            + cold.counter("kernel_intersect_bitset").unwrap();
        if intersections > 0 && intersecting.is_none() {
            intersecting = Some((i, intersections, est.value));
        }
    }
    let (idx, intersections, cold_value) =
        intersecting.expect("some cyclic query must exercise the intersection loop");
    assert!(intersections > 0);

    // A plain ESTIMATE of the same query returns the identical value —
    // explain changes what is reported, never what is computed.
    let wq = &queries[idx];
    let plain = client.estimate("default", &wq.query).expect("estimate");
    assert!(plain.cached);
    assert_eq!(plain.value, cold_value);

    // Warm: a cache hit, and none of the fill/kernel machinery ran.
    let warm = client
        .explain("default", &wq.query, None)
        .expect("warm explain");
    let QueryReply::Estimate(warm_est) = &warm.reply else {
        panic!("warm explain must produce an estimate");
    };
    assert!(warm_est.cached);
    assert_eq!(warm_est.value, cold_value);
    assert_eq!(warm.counter("cache_hit"), Some(1));
    assert_eq!(warm.counter("cache_cold_miss"), Some(0));
    for span in ["catalog_fill", "estimate"] {
        assert!(
            warm.span(span).is_none(),
            "warm explain must not run `{span}`: {:?}",
            warm.spans
        );
    }
    assert_eq!(warm.counter("kernel_candidates"), None);
    server.shutdown();
}

/// With the slow-query threshold at zero every computed estimate lands
/// in the ring-buffer slow-query log, tagged with the request id the
/// reply carried; cache hits stay out of it. `METRICS_PROM` serves a
/// structurally valid exposition alongside.
#[test]
fn slowlog_records_misses_and_prom_exposition_is_served() {
    let graph = Dataset::Hetionet.generate(4);
    let queries = Workload::Job.build(&graph, 1, 4);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new(
        "default",
        graph,
        cegraph::catalog::MarkovTable::empty(2),
    ));
    let config = ServerConfig {
        slow_query_threshold_ms: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(registry, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    assert!(client.slowlog(None).expect("slowlog").is_empty());
    let wq = &queries[0];
    let first = client.estimate("default", &wq.query).expect("estimate");
    let entries = client.slowlog(None).expect("slowlog");
    assert_eq!(entries.len(), 1, "one computed estimate, one entry");
    assert_eq!(entries[0].dataset, "default");
    assert!(entries[0].id > 0, "entry carries the request id");
    assert!(!entries[0].query.is_empty());

    // A cache hit did not cause the latency, so it is not logged.
    let again = client.estimate("default", &wq.query).expect("estimate");
    assert!(again.cached);
    assert_eq!(again.value, first.value);
    assert_eq!(client.slowlog(None).expect("slowlog").len(), 1);

    // Newest first: a second distinct query leads the log.
    if queries.len() > 1 {
        client
            .estimate("default", &queries[1].query)
            .expect("estimate");
        let entries = client.slowlog(None).expect("slowlog");
        assert_eq!(entries.len(), 2);
        assert!(entries[0].id > entries[1].id, "newest first");
        assert_eq!(client.slowlog(Some(1)).expect("slowlog").len(), 1);
    }

    // The Prometheus exposition is non-trivial and structurally sound:
    // every `# TYPE`d family (including the per-dataset gauges) has at
    // least one sample, and the estimate-latency histogram recorded the
    // requests above.
    let lines = client.metrics_prom().expect("metrics_prom");
    let families: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for family in [
        "ceg_requests_total",
        "ceg_cache_hits_total",
        "ceg_dataset_epoch",
        "ceg_latency_estimate_micros",
    ] {
        assert!(families.contains(&family), "missing family `{family}`");
    }
    assert!(lines
        .iter()
        .any(|l| l.starts_with("ceg_dataset_epoch{dataset=\"default\"}")));
    let count = lines
        .iter()
        .find(|l| l.starts_with("ceg_latency_estimate_micros_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert!(count >= 2, "estimate latency histogram must have samples");
    server.shutdown();
}

/// `ESTIMATE`, a slot of `ESTIMATE_BATCH` and `EXPLAIN_ESTIMATE` are one
/// engine call: sent the same cold query against the same state, each
/// computes the bit-identical value, and `EXPLAIN` names the stages with
/// the span names clients and `cegbench` parse.
#[test]
fn one_query_through_the_three_commands_is_bit_equal() {
    let graph = Dataset::Hetionet.generate(4);
    let queries = Workload::Cyclic.build(&graph, 1, 4);
    let start = || {
        let registry = Arc::new(DatasetRegistry::new());
        registry.insert(DatasetEntry::new(
            "default",
            graph.clone(),
            cegraph::catalog::MarkovTable::empty(3),
        ));
        // No cache: every command computes its answer from the catalog.
        let config = ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        };
        Server::start(registry, "127.0.0.1:0", config).expect("bind")
    };
    for wq in &queries {
        let q = &wq.query;
        // A fresh server per command, so all three start from the same
        // empty catalog and none rides on another's fill.
        let bits = |reply: QueryReply| match reply {
            QueryReply::Estimate(est) => {
                assert!(!est.cached);
                est.value.map(f64::to_bits)
            }
            other => panic!("expected an estimate, got {other:?}"),
        };
        let (single, batched, explained) = {
            let (a, b, c) = (start(), start(), start());
            let single = Client::connect(a.local_addr())
                .expect("connect")
                .estimate_with_deadline("default", q, None)
                .expect("estimate");
            let mut batch = Client::connect(b.local_addr())
                .expect("connect")
                .estimate_batch_with_deadline("default", std::slice::from_ref(q), None)
                .expect("batch");
            let explained = Client::connect(c.local_addr())
                .expect("connect")
                .explain("default", q, None)
                .expect("explain");
            for server in [a, b, c] {
                server.shutdown();
            }
            (single, batch.remove(0), explained)
        };
        let mut names: Vec<&str> = explained.spans.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "cache_probe",
                "catalog_fill",
                "estimate",
                "lock_wait",
                "queue_wait"
            ],
            "span names of a cold EXPLAIN_ESTIMATE"
        );
        let want = bits(single);
        assert_eq!(bits(batched), want, "ESTIMATE_BATCH diverged on {q}");
        assert_eq!(
            bits(explained.reply),
            want,
            "EXPLAIN_ESTIMATE diverged on {q}"
        );
    }
}

/// The connection thread runs the counting kernel, the isomorphism
/// search and the CEG construction itself, so its stack must hold the
/// largest legal query — 32 edges — in an unoptimized build too. This
/// test is what holds `CONN_STACK_BYTES`: a stack overflow aborts the
/// test process.
#[test]
fn maximal_query_answers_on_the_connection_thread() {
    use cegraph::query::templates;

    let graph = Dataset::Hetionet.generate(4);
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert(DatasetEntry::new(
        "default",
        graph,
        cegraph::catalog::MarkovTable::empty(3),
    ));
    let config = ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(registry, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A cycle, not a path: 32 edges over 32 variables, the most both
    // `EdgeMask` and the variable bit sets hold.
    let labels: Vec<u16> = (0..32).map(|i| i % 3).collect();
    let q = templates::cycle(32, &labels);
    assert_eq!((q.num_edges(), q.num_vars()), (32, 32));

    let single = client
        .estimate_with_deadline("default", &q, None)
        .expect("ESTIMATE");
    let batched = client
        .estimate_batch_with_deadline("default", std::slice::from_ref(&q), None)
        .expect("ESTIMATE_BATCH")
        .remove(0);
    let explained = client
        .explain("default", &q, None)
        .expect("EXPLAIN_ESTIMATE")
        .reply;
    // Cache off, same catalog: three computations of the same value.
    let value = |reply: &QueryReply| match reply {
        QueryReply::Estimate(est) => est.value.map(f64::to_bits),
        other => panic!("expected an estimate, got {other:?}"),
    };
    assert_eq!(value(&batched), value(&single));
    assert_eq!(value(&explained), value(&single));
    client.quit().expect("quit");
    server.shutdown();
}
