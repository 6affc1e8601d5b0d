//! Integration tests for the estimation service: a real server on an
//! ephemeral port, concurrent clients, and observable cache behavior.

use std::sync::Arc;
use std::thread;

use cegraph::query::QueryGraph;
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
    let metric = |client: &mut Client, key: &str| {
        let snap = client.metrics().expect("metrics");
        snap.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    };
    let hits_before = metric(&mut client, "cache_hits").expect("cache_hits");
    let reply = client
        .estimate("default", &queries[0].query)
        .expect("estimate");
    assert!(reply.cached, "repeated query must be served from cache");
    assert_eq!(reply.value, per_thread[0][0]);
    assert!(reply.hits > hits_before);

    // Every lookup is accounted for. Concurrent first arrivals of the
    // same query may each miss (both compute the same deterministic
    // value), so misses is at least — not exactly — the distinct-query
    // count; everything else must have hit.
    let hits = metric(&mut client, "cache_hits").expect("cache_hits");
    let misses = metric(&mut client, "cache_misses").expect("cache_misses");
    let total_lookups = (CLIENTS * queries.len()) as u64 + 1;
    assert_eq!(hits + misses, total_lookups);
    assert!(misses >= queries.len() as u64);
    assert!(hits >= 1);
    drop(server);
}

/// The cache key is the query's certificate, renaming-invariant: a client
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
    drop(server);
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
    drop(server);
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
        // The two intersection-path counters are pinned names: EXPLAIN
        // output must always carry both, split by path.
        let intersections = cold.counter("kernel_intersect_gallop").unwrap()
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
    drop(server);
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
    drop(server);
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
                drop(server);
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

    // A second maximal cycle, other labels: a batch of the two has two
    // misses, so one of them runs on a batch helper and the other on the
    // connection thread.
    let other_labels: Vec<u16> = (0..32).map(|i| (i + 1) % 3).collect();
    let q2 = templates::cycle(32, &other_labels);

    let single = client
        .estimate_with_deadline("default", &q, None)
        .expect("ESTIMATE");
    let single2 = client
        .estimate_with_deadline("default", &q2, None)
        .expect("ESTIMATE");
    let batched = client
        .estimate_batch_with_deadline("default", std::slice::from_ref(&q), None)
        .expect("ESTIMATE_BATCH")
        .remove(0);
    let pair = client
        .estimate_batch_with_deadline("default", &[q.clone(), q2], None)
        .expect("ESTIMATE_BATCH of two");
    let explained = client
        .explain("default", &q, None)
        .expect("EXPLAIN_ESTIMATE")
        .reply;
    // Cache off, same catalog: every computation gives the same value.
    let value = |reply: &QueryReply| match reply {
        QueryReply::Estimate(est) => est.value.map(f64::to_bits),
        other => panic!("expected an estimate, got {other:?}"),
    };
    assert_eq!(value(&batched), value(&single));
    assert_eq!(value(&explained), value(&single));
    assert_eq!(value(&pair[0]), value(&single));
    assert_eq!(value(&pair[1]), value(&single2));
    client.quit().expect("quit");
    drop(server);
}

/// Distinct queries (no two isomorphic, so a warmed one makes no other
/// a hit) over several shapes, with a server that serves them at `h` = 3.
fn batch_fixture() -> (Vec<QueryGraph>, impl Fn(usize, usize) -> Server) {
    let graph = Dataset::Hetionet.generate(4);
    let mut queries: Vec<QueryGraph> = Vec::new();
    for workload in [Workload::Job, Workload::Cyclic] {
        for wq in workload.build(&graph, 1, 4) {
            if !queries.iter().any(|q| q.is_isomorphic(&wq.query)) {
                queries.push(wq.query);
            }
        }
    }
    let start = move |cache_capacity, queue_cap| {
        let registry = Arc::new(DatasetRegistry::new());
        registry.insert(DatasetEntry::new(
            "default",
            graph.clone(),
            cegraph::catalog::MarkovTable::empty(3),
        ));
        let config = ServerConfig {
            cache_capacity,
            queue_cap,
            default_deadline_ms: None,
            ..ServerConfig::default()
        };
        Server::start(registry, "127.0.0.1:0", config).expect("bind")
    };
    (queries, start)
}

/// A batch's misses run on several run slots (the connection thread and
/// its helpers), and its replies are still what singles answer, bit for
/// bit and in request order. The batch mixes hits (every third query is
/// warmed first), misses and `BUSY` slots (the admission cap is smaller
/// than the batch's misses), with the cache on and off, over the wire
/// and through `Engine::estimate_batch`. (The cost ledger's
/// `served.batch` line holds the number of helpers a batch spawns.)
#[test]
fn a_batch_on_several_run_slots_answers_what_singles_answer() {
    use cegraph::exec::Handover;
    use cegraph::service::{QueryOutcome, RequestCtx};

    const CAP: usize = 3;
    let (queries, start) = batch_fixture();
    assert!(queries.len() > 2 * CAP, "{} queries", queries.len());
    let warm = |i: usize| i.is_multiple_of(3);
    let singles: Vec<Option<u64>> = {
        let server = start(0, 1024);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let bits = |q| match client.estimate_with_deadline("default", q, None) {
            Ok(QueryReply::Estimate(est)) => est.value.map(f64::to_bits),
            other => panic!("a single estimate failed: {other:?}"),
        };
        queries.iter().map(bits).collect()
    };

    for cache in [0, 1024] {
        for through_engine in [false, true] {
            let server = start(cache, CAP);
            let mut client = Client::connect(server.local_addr()).expect("connect");
            for (i, q) in queries.iter().enumerate() {
                if warm(i) {
                    client
                        .estimate_with_deadline("default", q, None)
                        .expect("warm-up");
                }
            }
            // Per slot: `None` for BUSY, else (value bits, cached).
            let got: Vec<Option<(Option<u64>, bool)>> = if through_engine {
                let mut got = Vec::new();
                server
                    .engine()
                    .estimate_batch("default", &queries, RequestCtx::default(), |step| {
                        if let Handover::Done(i, outcome) = step {
                            assert_eq!(i, got.len(), "outcomes out of request order");
                            got.push(match outcome {
                                QueryOutcome::Done(est) => {
                                    Some((est.value.map(f64::to_bits), est.cached))
                                }
                                QueryOutcome::QueueFull => None,
                                other => panic!("slot {i}: {other:?}"),
                            });
                        }
                    })
                    .expect("batch");
                got
            } else {
                let replies = client
                    .estimate_batch_with_deadline("default", &queries, None)
                    .expect("batch");
                let slot = |reply| match reply {
                    QueryReply::Estimate(est) => Some((est.value.map(f64::to_bits), est.cached)),
                    QueryReply::Busy(_) => None,
                    other => panic!("{other:?}"),
                };
                replies.into_iter().map(slot).collect()
            };
            assert_eq!(got.len(), queries.len());
            let mut misses = 0;
            for (i, slot) in got.iter().enumerate() {
                let hit = cache > 0 && warm(i);
                misses += usize::from(!hit);
                let want = if misses > CAP && !hit {
                    None
                } else {
                    Some((singles[i], hit))
                };
                assert_eq!(
                    *slot, want,
                    "slot {i}, cache {cache}, engine {through_engine}"
                );
            }
            client.quit().expect("quit");
            drop(server);
        }
    }
}

/// A miss holds no run slot while its caller writes. A client that stops
/// reading blocks its connection thread in a write for as long as it
/// likes, and the write before a fill (`Handover::Wait`) comes when the
/// miss already waited for its slot. Here one caller per run slot gets
/// a cold miss and a reply sink that blocks on its first `Wait`, as such
/// a write would; a further caller's single miss must still be answered
/// before its deadline.
#[test]
fn a_caller_blocked_in_a_write_holds_no_run_slot() {
    use cegraph::exec::Handover;
    use cegraph::service::{QueryOutcome, RequestCtx};
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    let (queries, start) = batch_fixture();
    // Cache off, empty catalog: every miss has patterns to count.
    let server = start(0, 1024);
    let engine = server.engine();
    let run_slots = thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let release = Barrier::new(run_slots + 1);
    let (blocked, entered) = mpsc::channel();
    let (probe, stuck) = thread::scope(|scope| {
        let callers: Vec<_> = (0..run_slots)
            .map(|k| {
                let (release, blocked) = (&release, blocked.clone());
                let query = std::slice::from_ref(&queries[k % queries.len()]);
                scope.spawn(move || {
                    let (mut first, mut outcome) = (true, None);
                    let sink = |step| match step {
                        Handover::Wait if first => {
                            first = false;
                            blocked.send(()).unwrap();
                            release.wait();
                        }
                        Handover::Wait => {}
                        Handover::Done(_, o) => outcome = Some(o),
                    };
                    engine
                        .estimate_batch("default", query, RequestCtx::default(), sink)
                        .expect("blocked caller");
                    outcome
                })
            })
            .collect();
        let all_blocked =
            (0..run_slots).all(|_| entered.recv_timeout(Duration::from_secs(30)).is_ok());
        let probe = all_blocked.then(|| {
            let ctx = RequestCtx {
                deadline: Some(Instant::now() + Duration::from_secs(5)),
                ..RequestCtx::default()
            };
            let mut outcome = None;
            let query = std::slice::from_ref(&queries[run_slots % queries.len()]);
            engine
                .estimate_batch("default", query, ctx, |step| {
                    if let Handover::Done(_, o) = step {
                        outcome = Some(o);
                    }
                })
                .expect("probe");
            outcome
        });
        // Let the blocked callers go before any assertion, so a failure
        // reports instead of hanging the scope.
        release.wait();
        let answered = callers.into_iter().map(|c| c.join().unwrap());
        let stuck = answered
            .filter(|o| !matches!(o, Some(QueryOutcome::Done(_))))
            .count();
        (probe, stuck)
    });
    assert!(
        matches!(probe, Some(Some(QueryOutcome::Done(_)))),
        "the probe behind {run_slots} blocked callers got {probe:?}"
    );
    assert_eq!(stuck, 0, "a blocked caller went unanswered once released");
    drop(server);
}

/// The helpers are scoped to their request: once a batch whose misses
/// ran on several run slots has answered, the `threads` gauge is back
/// where it was. Other tests of this binary start and stop threads
/// meanwhile, so a try counts when the gauge is no higher after the
/// batch than before it; a helper that outlived its request would push
/// every try higher.
#[test]
fn no_batch_helper_outlives_its_request() {
    let (queries, start) = batch_fixture();
    let server = start(0, 1024);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut threads = || {
        let metrics = client.metrics().expect("METRICS");
        let gauge = metrics.iter().find(|(key, _)| key == "threads");
        gauge.expect("a threads gauge").1
    };
    let mut tries = Vec::new();
    for _ in 0..20 {
        let before = threads();
        let replies = Client::connect(server.local_addr())
            .and_then(|mut batch| batch.estimate_batch_with_deadline("default", &queries, None))
            .expect("batch");
        assert!(replies.iter().all(|r| matches!(r, QueryReply::Estimate(_))));
        // The batch's own connection handler exits once its client has
        // gone; give it the moment it takes.
        let mut after = threads();
        for _ in 0..100 {
            if after <= before {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
            after = threads();
        }
        tries.push((before, after));
        if after <= before {
            break;
        }
    }
    assert!(
        tries.iter().any(|&(before, after)| after <= before),
        "threads before and after each batch: {tries:?}"
    );
    client.quit().expect("quit");
    drop(server);
}

/// Every served count lives once, in `METRICS`. A scripted run through
/// `Server::serve_io` — a cold miss, a hit, a `COMMIT`, the stale miss it
/// causes, a batch mixing a hit with two misses, then a server with no
/// cache — reads exact `cache_*`, `queued`, `queued_peak`,
/// `requests_total` and `batches_total` values after each step, and every
/// `EST` line's `hits=` / `misses=` is what `METRICS` reads right after it.
#[test]
fn served_counts_are_exact_and_every_est_line_reads_them() {
    use std::collections::HashMap;

    use cegraph::graph::GraphBuilder;

    let start = |cache_capacity| {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(3, 4, 0);
        let registry = Arc::new(DatasetRegistry::new());
        registry.insert_graph("default", b.build(), 2);
        let config = ServerConfig {
            cache_capacity,
            ..ServerConfig::default()
        };
        Server::start(registry, "127.0.0.1:0", config).expect("bind ephemeral port")
    };
    // One connection per request; the reply lines without their id tails.
    let serve = |server: &Server, request: &str| -> Vec<String> {
        let mut out = Vec::new();
        let input = format!("{request}\n");
        server.serve_io(input.as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let strip = |line: &str| {
            line.rsplit_once(" id=")
                .map_or(line, |(body, _)| body)
                .to_string()
        };
        text.lines().map(strip).collect()
    };
    let metrics = |server: &Server| -> HashMap<String, u64> {
        let lines = serve(server, "METRICS");
        let body = lines.iter().skip(1).map(|line| {
            let (key, value) = line.split_once(' ').expect("`<key> <value>`");
            (key.to_string(), value.parse().expect("a count"))
        });
        body.collect()
    };
    const KEYS: [&str; 7] = [
        "cache_hits",
        "cache_misses",
        "cache_stale_misses",
        "queued",
        "queued_peak",
        "requests_total",
        "batches_total",
    ];
    // Send `request`, check its EST lines against METRICS read right
    // after it, and return the seven counts in `KEYS` order.
    let step = |server: &Server, request: &str| -> [u64; 7] {
        let replies = serve(server, request);
        let after = metrics(server);
        let estimates: Vec<&String> = replies.iter().filter(|l| l.starts_with("EST ")).collect();
        assert_eq!(
            request.starts_with("ESTIMATE"),
            !estimates.is_empty(),
            "{replies:?}"
        );
        for line in estimates {
            let token = |key: &str| {
                let value = line.split(' ').find_map(|t| t.strip_prefix(key));
                value.and_then(|v| v.parse::<u64>().ok())
            };
            assert_eq!(
                token("hits="),
                Some(after["cache_hits"]),
                "{request:?}: {line}"
            );
            assert_eq!(
                token("misses="),
                Some(after["cache_misses"]),
                "{request:?}: {line}"
            );
        }
        KEYS.map(|key| after[key])
    };
    let q1 = "3 2 0 1 0 1 2 1";
    let (q2, q3) = ("2 1 0 1 0", "2 1 0 1 1");

    // hits, misses, stale, queued, peak, requests, batches
    let server = start(64);
    assert_eq!(
        step(&server, &format!("ESTIMATE default {q1}")),
        [0, 1, 0, 0, 1, 1, 1]
    );
    assert_eq!(
        step(&server, &format!("ESTIMATE default {q1}")),
        [1, 1, 0, 0, 1, 2, 2]
    );
    assert_eq!(
        step(&server, "ADD_EDGE default 4 0 1"),
        [1, 1, 0, 0, 1, 2, 2]
    );
    assert_eq!(step(&server, "COMMIT default"), [1, 1, 0, 0, 1, 2, 2]);
    assert_eq!(
        step(&server, &format!("ESTIMATE default {q1}")),
        [1, 2, 1, 0, 1, 3, 3]
    );
    let batch = format!("ESTIMATE_BATCH default 3\n{q1}\n{q2}\n{q3}");
    assert_eq!(step(&server, &batch), [2, 4, 1, 0, 2, 6, 4]);
    drop(server);

    // No cache: every probe is a cold miss, a repeat included.
    let server = start(0);
    assert_eq!(
        step(&server, &format!("ESTIMATE default {q1}")),
        [0, 1, 0, 0, 1, 1, 1]
    );
    assert_eq!(
        step(&server, &format!("ESTIMATE default {q1}")),
        [0, 2, 0, 0, 1, 2, 2]
    );
    let batch = format!("ESTIMATE_BATCH default 2\n{q1}\n{q2}");
    assert_eq!(step(&server, &batch), [0, 4, 0, 0, 2, 4, 3]);
    drop(server);
}
