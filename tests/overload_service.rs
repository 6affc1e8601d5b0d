//! Adversarial overload suite: a byte-at-a-time trickler and a
//! cold-batch flooder hammer the dataset while a well-behaved tenant
//! keeps querying its warmed working set of the same dataset, and the
//! server must stay **fair** (the tenant's p99 stays within a bound of
//! its uncontended p99),
//! **honest** (every flooded request resolves to a typed estimate,
//! `BUSY` or `TIMEOUT` — nothing silently dropped) and **leak-free**
//! (queue depth and OS thread count return to baseline after the storm).
//!
//! Single-core note: CI runs this on one CPU, where an uncontended
//! cache-hit round-trip is tens of microseconds. A pure `5×` multiplier
//! over that is unachievable under *any* real contention — one scheduler
//! quantum already costs milliseconds — so the fairness bound is
//! `max(5 × uncontended p99, 100ms)`: the multiplier governs on real
//! multi-core hardware, the absolute floor absorbs single-core
//! scheduling noise without letting a starved tenant (seconds of queue
//! wait) slip through.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use cegraph::service::{proc_status, Client, DatasetRegistry, QueryReply, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VERTICES: u32 = 96;
const LABELS: u16 = 6;
const EDGES: usize = 900;

fn dense_graph(seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
    for _ in 0..EDGES {
        b.add_edge(
            rng.random_range(0..VERTICES),
            rng.random_range(0..VERTICES),
            rng.random_range(0..LABELS),
        );
    }
    b.build()
}

/// A mostly-cold query: random shape, random labels, drawn from a space
/// large enough that the flood keeps missing the cache.
fn random_cold_query(rng: &mut StdRng) -> QueryGraph {
    let k = rng.random_range(2..=4usize);
    let labels: Vec<u16> = (0..k).map(|_| rng.random_range(0..LABELS)).collect();
    match rng.random_range(0..3u32) {
        0 => templates::path(k, &labels),
        1 => templates::star(k, &labels),
        _ if k >= 3 => templates::cycle(k, &labels),
        _ => templates::path(k, &labels),
    }
}

/// The server under test: a small admission cap so the flood hits `BUSY`
/// quickly. The tenant's warmed queries are cache hits, answered before
/// admission, so the flood's misses cannot take the tenant's place.
fn start_flooded_server() -> Server {
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("default", dense_graph(0xA11CE), 2);
    Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 8192,
            queue_cap: 4,
            default_deadline_ms: Some(10_000),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn p99(samples: &mut [Duration]) -> Duration {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[(samples.len() * 99) / 100 - (samples.len() >= 100) as usize]
}

/// Fetch one metric from a `METRICS` snapshot by key.
fn metric(client: &mut Client, key: &str) -> u64 {
    let snap = client.metrics().expect("metrics");
    snap.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric `{key}` missing from snapshot"))
}

/// Run `rounds` warmed tenant estimates, returning per-request latency.
fn tenant_round_trips(client: &mut Client, queries: &[QueryGraph], rounds: usize) -> Vec<Duration> {
    let mut lat = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let q = &queries[i % queries.len()];
        let start = Instant::now();
        let reply = client.estimate("default", q).expect("tenant estimate");
        lat.push(start.elapsed());
        assert!(reply.value.is_some(), "tenant query must keep answering");
    }
    lat
}

#[test]
fn flood_and_trickle_do_not_starve_the_well_behaved_tenant() {
    let server = start_flooded_server();
    let addr = server.local_addr();
    let baseline_threads = proc_status("Threads");

    // The tenant's working set, warmed so contended round-trips ride the
    // inline cache fast path (the fairness mechanism under test).
    let tenant_queries: Vec<QueryGraph> = vec![
        templates::path(2, &[0, 1]),
        templates::path(2, &[2, 3]),
        templates::star(2, &[1, 4]),
        templates::path(3, &[0, 1, 2]),
        templates::cycle(3, &[1, 2, 3]),
    ];
    let mut tenant = Client::connect(addr).expect("tenant connect");
    for q in &tenant_queries {
        tenant.estimate("default", q).expect("warm");
    }

    // Uncontended baseline.
    let mut base = tenant_round_trips(&mut tenant, &tenant_queries, 200);
    let base_p99 = p99(&mut base);

    let stop = AtomicBool::new(false);
    let (contended_p99, flood_accounting) = std::thread::scope(|scope| {
        // Trickler: a valid request fed one byte at a time with long
        // pauses. It must tie up only its own connection handler — never
        // a worker, never the accept loop.
        let trickler = scope.spawn(|| {
            let stream = std::net::TcpStream::connect(addr).expect("trickle connect");
            let mut writer = stream.try_clone().expect("clone");
            let request = b"PING\n";
            let mut sent = 0usize;
            while !stop.load(Ordering::Relaxed) {
                writer
                    .write_all(&request[sent % request.len()..=sent % request.len()])
                    .expect("trickle byte");
                writer.flush().expect("trickle flush");
                sent += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            // The server happily answers however many PINGs dribbled in;
            // dropping the stream cleans up.
        });

        // Flooder: cold batches against the same dataset, far past the
        // admission cap. Every slot must come back typed.
        let flooder = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(0xF100D);
            let mut client = Client::connect(addr).expect("flood connect");
            let (mut est, mut busy, mut timeout, mut sent) = (0u64, 0u64, 0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<QueryGraph> = (0..16).map(|_| random_cold_query(&mut rng)).collect();
                sent += batch.len() as u64;
                let replies = client
                    .estimate_batch_with_deadline("default", &batch, None)
                    .expect("flood batch must get typed replies");
                assert_eq!(replies.len(), batch.len(), "no slot may vanish");
                for r in replies {
                    match r {
                        QueryReply::Estimate(_) => est += 1,
                        QueryReply::Busy(_) => busy += 1,
                        QueryReply::Timeout { .. } => timeout += 1,
                    }
                }
            }
            (est, busy, timeout, sent)
        });

        // Let the storm build, then measure the tenant under contention.
        std::thread::sleep(Duration::from_millis(150));
        let mut contended = tenant_round_trips(&mut tenant, &tenant_queries, 200);
        stop.store(true, Ordering::Relaxed);
        let accounting = flooder.join().expect("flooder");
        trickler.join().expect("trickler");
        (p99(&mut contended), accounting)
    });

    // Fairness: see the module docs for why the bound has an absolute
    // floor on single-core CI.
    let bound = (base_p99 * 5).max(Duration::from_millis(100));
    assert!(
        contended_p99 <= bound,
        "tenant p99 under flood {contended_p99:?} exceeds bound {bound:?} \
         (uncontended p99 {base_p99:?})"
    );

    // Honesty: every flooded slot resolved to exactly one typed reply.
    let (est, busy, timeout, sent) = flood_accounting;
    assert_eq!(est + busy + timeout, sent, "a flooded slot went missing");
    assert!(est > 0, "the flood must still get some real answers");
    assert!(
        busy > 0,
        "a 16-wide cold batch against queue_cap=4 must trip admission control"
    );

    // Liveness + leak-freedom: the server still answers, the queue gauge
    // returns to zero, and the metrics agree with the client's tally.
    tenant.ping().expect("ping after the storm");
    let settle_until = Instant::now() + Duration::from_secs(5);
    while metric(&mut tenant, "queued") > 0 && Instant::now() < settle_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metric(&mut tenant, "queued"), 0, "queue depth must settle");
    assert!(metric(&mut tenant, "busy_total") >= busy);
    assert!(metric(&mut tenant, "queued_peak") >= 1);
    assert!(metric(&mut tenant, "latency_estimate_count") > 0);

    // Thread count returns to (near) baseline once the storm's
    // connections are gone. The tenant connection and a settling
    // conn-handler or two are the allowed slack.
    if let (Some(before), Some(_)) = (baseline_threads, proc_status("Threads")) {
        let until = Instant::now() + Duration::from_secs(5);
        let mut now = proc_status("Threads").unwrap();
        while now > before + 2 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(20));
            now = proc_status("Threads").unwrap();
        }
        assert!(
            now <= before + 2,
            "thread leak: {before} threads before the storm, {now} after"
        );
    }
    tenant.quit().expect("quit");
    drop(server);
}

/// One dataset, deep (`h` = 3) so cold fills stay expensive, behind a
/// two-permit admission budget.
fn start_tight_server(cache_capacity: usize) -> Server {
    let registry = Arc::new(DatasetRegistry::new());
    registry.insert_graph("d", dense_graph(0xD), 3);
    Server::start(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity,
            queue_cap: 2,
            default_deadline_ms: Some(10_000),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// `EXPLAIN_ESTIMATE` is under the same overload control as `ESTIMATE`:
/// a flood of cold explains from several connections against a
/// two-permit budget is refused with typed `BUSY` lines, never runs more
/// than two at once, and leaves the gauge at zero.
#[test]
fn explain_flood_meets_admission_control() {
    // No cache: every explain is a miss and needs a permit.
    let server = start_tight_server(0);
    let addr = server.local_addr();
    let busy_seen = AtomicBool::new(false);
    let give_up = Instant::now() + Duration::from_secs(30);
    let (est, busy) = std::thread::scope(|scope| {
        let floods: Vec<_> = (0..6u64)
            .map(|seed| {
                let busy_seen = &busy_seen;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xE0 + seed);
                    let mut client = Client::connect(addr).expect("flood connect");
                    let (mut est, mut busy) = (0u64, 0u64);
                    while !busy_seen.load(Ordering::Relaxed) && Instant::now() < give_up {
                        let q = random_cold_query(&mut rng);
                        match client.explain("d", &q, None).expect("typed reply").reply {
                            QueryReply::Estimate(_) => est += 1,
                            QueryReply::Busy(msg) => {
                                assert!(msg.contains("queue full"), "unexpected BUSY: {msg}");
                                busy += 1;
                                busy_seen.store(true, Ordering::Relaxed);
                            }
                            QueryReply::Timeout { .. } => panic!("10 s deadline cannot expire"),
                        }
                    }
                    client.quit().expect("quit");
                    (est, busy)
                })
            })
            .collect();
        floods
            .into_iter()
            .map(|f| f.join().expect("flood thread"))
            .fold((0, 0), |(e, b), (de, db)| (e + de, b + db))
    });
    assert!(est > 0, "the flood must still get some real answers");
    assert!(
        busy >= 1,
        "six connections of cold EXPLAIN_ESTIMATEs against queue_cap=2 must trip admission control"
    );

    let mut client = Client::connect(addr).expect("connect");
    assert!(metric(&mut client, "busy_total") >= busy);
    assert!(
        metric(&mut client, "queued_peak") <= 2,
        "explains ran outside the admission budget"
    );
    assert_eq!(metric(&mut client, "queued"), 0, "queue depth must settle");
    client.quit().expect("quit");
    drop(server);
}

/// Fairness inside one dataset: hits are answered before admission, so
/// while a cold flood holds the dataset at its cap, a client whose
/// working set is cached sees only cache-hit estimates — never `BUSY`.
#[test]
fn warmed_client_of_a_flooded_dataset_never_sees_busy() {
    let server = start_tight_server(8192);
    let addr = server.local_addr();
    let warm_queries: Vec<QueryGraph> = vec![
        templates::path(2, &[0, 1]),
        templates::star(2, &[1, 4]),
        templates::path(3, &[0, 1, 2]),
        templates::cycle(3, &[1, 2, 3]),
    ];
    let mut warm = Client::connect(addr).expect("warm connect");
    for q in &warm_queries {
        warm.estimate("d", q).expect("warm");
    }

    let (stop, at_cap) = (AtomicBool::new(false), AtomicBool::new(false));
    let flood_busy = std::thread::scope(|scope| {
        let floods: Vec<_> = (0..2u64)
            .map(|seed| {
                let (stop, at_cap) = (&stop, &at_cap);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF0 + seed);
                    let mut client = Client::connect(addr).expect("flood connect");
                    let mut busy = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let batch: Vec<QueryGraph> =
                            (0..16).map(|_| random_cold_query(&mut rng)).collect();
                        let replies = client
                            .estimate_batch_with_deadline("d", &batch, None)
                            .expect("flood batch must get typed replies");
                        busy += replies
                            .iter()
                            .filter(|r| matches!(r, QueryReply::Busy(_)))
                            .count() as u64;
                        if busy > 0 {
                            at_cap.store(true, Ordering::Relaxed);
                        }
                    }
                    busy
                })
            })
            .collect();
        // Start only once the flood has been refused at least once: from
        // then on its 16-wide cold batches keep the dataset at its cap.
        let give_up = Instant::now() + Duration::from_secs(30);
        while !at_cap.load(Ordering::Relaxed) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..400 {
            let q = &warm_queries[i % warm_queries.len()];
            match warm
                .estimate_with_deadline("d", q, None)
                .expect("warm estimate")
            {
                QueryReply::Estimate(est) => assert!(est.cached, "warm query {i} was recomputed"),
                other => panic!("warm query {i} on a flooded dataset got {other:?}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        floods
            .into_iter()
            .map(|f| f.join().expect("flooder"))
            .sum::<u64>()
    });
    assert!(
        flood_busy > 0,
        "the flood never held the dataset at its cap, so the test proved nothing"
    );
    warm.quit().expect("quit");
    drop(server);
}

/// Nightly soak: the same adversarial mix for ~2 minutes. Run with
/// `cargo test -- --ignored overload_soak`.
#[test]
#[ignore = "2-minute soak; run nightly via cargo test -- --ignored"]
fn overload_soak_two_minutes() {
    let server = start_flooded_server();
    let addr = server.local_addr();

    let tenant_queries: Vec<QueryGraph> = vec![
        templates::path(2, &[0, 1]),
        templates::path(3, &[0, 1, 2]),
        templates::star(3, &[1, 2, 4]),
    ];
    let mut tenant = Client::connect(addr).expect("tenant connect");
    for q in &tenant_queries {
        tenant.estimate("default", q).expect("warm");
    }

    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(120);
    std::thread::scope(|scope| {
        for seed in 0..2u64 {
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x50AC + seed);
                let mut client = Client::connect(addr).expect("flood connect");
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<QueryGraph> =
                        (0..8).map(|_| random_cold_query(&mut rng)).collect();
                    // Alternate unbounded and aggressive deadlines so the
                    // soak exercises the TIMEOUT path too.
                    let deadline_ms = if rng.random_range(0..4u32) == 0 {
                        Some(1)
                    } else {
                        None
                    };
                    let replies = client
                        .estimate_batch_with_deadline("default", &batch, deadline_ms)
                        .expect("soak batch");
                    assert_eq!(replies.len(), batch.len());
                }
            });
        }
        while Instant::now() < deadline {
            for q in &tenant_queries {
                let reply = tenant.estimate("default", q).expect("soak tenant estimate");
                assert!(reply.value.is_some());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    tenant.ping().expect("alive after soak");
    let settle_until = Instant::now() + Duration::from_secs(10);
    while metric(&mut tenant, "queued") > 0 && Instant::now() < settle_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metric(&mut tenant, "queued"), 0);
    tenant.quit().expect("quit");
    drop(server);
}
