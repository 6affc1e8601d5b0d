//! Property tests for the deadline machinery: random query mixes with
//! random (often absurdly tight) deadlines against a live server must
//! produce, for every single request slot, either a **correct estimate**
//! (equal to a deadline-free control engine's answer) or a **typed
//! `TIMEOUT`** — never a partial answer, a corrupted line, or a
//! desynchronized stream. After every exchange the same connection must
//! still round-trip a `PING`, which is what "the stream stayed framed"
//! means on the wire.

use std::sync::Arc;

use cegraph::catalog::MarkovTable;
use cegraph::core::CegO;
use cegraph::estimators::OptimisticEstimator;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use cegraph::service::{Client, DatasetRegistry, Engine, QueryReply, Server, ServerConfig};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn toy_graph() -> LabeledGraph {
    let mut b = GraphBuilder::with_labels(12, LABELS as usize);
    for (s, d, l) in [
        (0, 1, 0),
        (1, 2, 1),
        (2, 3, 2),
        (3, 4, 0),
        (4, 5, 1),
        (5, 0, 2),
        (1, 6, 0),
        (6, 7, 1),
        (7, 1, 2),
        (8, 9, 0),
        (9, 10, 1),
        (10, 11, 0),
        (11, 8, 1),
        (2, 8, 2),
        (5, 9, 0),
    ] {
        b.add_edge(s, d, l);
    }
    b.build()
}

/// The closed query universe both servers and the control engine see.
fn query_universe() -> Vec<QueryGraph> {
    vec![
        templates::path(2, &[0, 1]),
        templates::path(2, &[1, 2]),
        templates::path(2, &[2, 0]),
        templates::path(3, &[0, 1, 2]),
        templates::path(3, &[1, 0, 1]),
        templates::star(2, &[0, 2]),
        templates::star(3, &[0, 1, 2]),
        templates::cycle(3, &[0, 1, 2]),
        templates::cycle(4, &[0, 1, 0, 1]),
    ]
}

fn registry() -> Arc<DatasetRegistry> {
    let r = Arc::new(DatasetRegistry::new());
    r.insert_graph("default", toy_graph(), 2);
    r
}

/// Deadline-free control answers, computed once per process: the wire
/// servers under test must agree with these on every answered slot.
fn control_values() -> &'static Vec<Option<f64>> {
    use std::sync::OnceLock;
    static CONTROL: OnceLock<Vec<Option<f64>>> = OnceLock::new();
    CONTROL.get_or_init(|| {
        let engine = Engine::new(registry(), 0);
        query_universe()
            .iter()
            .map(|q| {
                engine
                    .estimate("default", q)
                    .expect("control estimate")
                    .value
            })
            .collect()
    })
}

/// One request slot: which query, and what deadline (if any) to attach.
/// Deadlines are drawn from a set biased toward the nasty end — 0ms and
/// 1ms mostly expire in the queue, 10s never does.
fn arb_slot() -> impl Strategy<Value = (usize, Option<u64>)> {
    let n = query_universe().len();
    (
        0..n,
        prop_oneof![
            Just(None),
            Just(Some(0u64)),
            Just(Some(1u64)),
            Just(Some(5u64)),
            Just(Some(10_000u64)),
        ],
    )
}

fn check_reply(
    reply: &QueryReply,
    query_idx: usize,
    requested_ms: Option<u64>,
    default_ms: u64,
) -> Result<(), TestCaseError> {
    match reply {
        QueryReply::Estimate(est) => {
            prop_assert_eq!(
                est.value,
                control_values()[query_idx],
                "answered slot must equal the deadline-free control"
            );
        }
        QueryReply::Timeout { deadline_ms } => {
            // The echoed deadline is the one the server enforced: the
            // request's own, or the server default when none was sent.
            let enforced = requested_ms.unwrap_or(default_ms);
            prop_assert_eq!(*deadline_ms, enforced, "TIMEOUT must echo the deadline");
        }
        QueryReply::Busy(msg) => {
            // A single sequential client can never fill the default
            // 1024-job admission queue.
            return Err(TestCaseError::fail(format!(
                "sequential client must never see BUSY, got `{msg}`"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-request mode: each slot goes out as its own `ESTIMATE`.
    #[test]
    fn every_single_reply_is_correct_or_typed_timeout(
        slots in prop::collection::vec(arb_slot(), 1..10)
    ) {
        let server = Server::start(
            registry(),
            "127.0.0.1:0",
            ServerConfig {
                cache_capacity: 64,
                default_deadline_ms: Some(10_000),
                ..ServerConfig::default()
            },
        ).unwrap();
        let queries = query_universe();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for &(qi, deadline_ms) in &slots {
            let reply = client
                .estimate_with_deadline("default", &queries[qi], deadline_ms)
                .expect("typed reply, never a broken stream");
            check_reply(&reply, qi, deadline_ms, 10_000)?;
            // Framing: the connection answers an interleaved PING after
            // every slot, timed out or not.
            client.ping().expect("stream must stay in sync");
        }
        client.quit().unwrap();
        server.shutdown();
    }

    /// Batch mode: all slots in one `ESTIMATE_BATCH` under one deadline.
    /// A timed-out batch must still answer exactly `n` ordered typed
    /// lines and leave the stream framed.
    #[test]
    fn batches_with_deadlines_stay_framed(
        slots in prop::collection::vec(0..query_universe().len(), 1..10),
        deadline_ms in prop_oneof![
            Just(None),
            Just(Some(0u64)),
            Just(Some(1u64)),
            Just(Some(10_000u64)),
        ],
    ) {
        let server = Server::start(
            registry(),
            "127.0.0.1:0",
            ServerConfig {
                cache_capacity: 64,
                default_deadline_ms: Some(10_000),
                ..ServerConfig::default()
            },
        ).unwrap();
        let queries = query_universe();
        let batch: Vec<QueryGraph> = slots.iter().map(|&i| queries[i].clone()).collect();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let replies = client
            .estimate_batch_with_deadline("default", &batch, deadline_ms)
            .expect("a timed-out batch is still a well-formed batch");
        prop_assert_eq!(replies.len(), batch.len(), "every slot answers");
        for (&qi, reply) in slots.iter().zip(&replies) {
            check_reply(reply, qi, deadline_ms, 10_000)?;
        }
        client.ping().expect("stream must stay in sync after the batch");

        // The same batch re-sent with no deadline answers everything,
        // and still matches the control: a timeout left no partial
        // state (poisoned cache entry, half-filled catalog) behind.
        let replies = client
            .estimate_batch_with_deadline("default", &batch, None)
            .expect("deadline-free batch");
        for (&qi, reply) in slots.iter().zip(&replies) {
            match reply {
                QueryReply::Estimate(est) => {
                    prop_assert_eq!(est.value, control_values()[qi]);
                }
                // 10s server default: an honest timeout here would mean
                // the earlier timed-out attempt corrupted the dataset.
                other => {
                    return Err(TestCaseError::fail(format!(
                        "deadline-free retry must answer, got {other:?}"
                    )));
                }
            }
        }
        client.quit().unwrap();
        server.shutdown();
    }
}

/// The widest query the wire admits, a 16-edge star (65,536 CEG_O nodes,
/// 3.9 M edges), on a warm catalog: nothing is left to count, so only the
/// estimate itself can see the deadline. It checks once per size level,
/// so a 5 ms deadline is a `TIMEOUT`, not an `EST` a second later; and a
/// deadline-free retry answers the materialised CEG_O's bits.
#[test]
fn a_sixteen_edge_star_times_out_inside_the_estimate() {
    let server = Server::start(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            default_deadline_ms: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let star = templates::star(16, &[0; 16]);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Its one edge and its one 2-star are every pattern the 16-star has.
    let warm = templates::star(2, &[0; 2]);
    client.estimate("default", &warm).expect("warm-up estimate");

    let reply = client
        .estimate_with_deadline("default", &star, Some(5))
        .expect("typed reply");
    assert_eq!(reply, QueryReply::Timeout { deadline_ms: 5 });

    let table = MarkovTable::build_for_query(&toy_graph(), &star, 2);
    let materialised = CegO::build(&star, &table)
        .ceg()
        .estimate(OptimisticEstimator::RECOMMENDED);
    match client.estimate_with_deadline("default", &star, None) {
        Ok(QueryReply::Estimate(est)) => {
            assert_eq!(est.value.map(f64::to_bits), materialised.map(f64::to_bits));
        }
        other => panic!("deadline-free retry must answer, got {other:?}"),
    }
    client.quit().unwrap();
    server.shutdown();
}

/// Deterministic regression: a whole batch sent with `DEADLINE_MS=0`
/// (already expired on arrival) gets `n` typed lines — `TIMEOUT` for
/// every cold slot — and the connection keeps serving.
#[test]
fn zero_deadline_batch_times_out_cleanly() {
    let server = Server::start(
        registry(),
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0, // no cache: every slot must take the queued path
            default_deadline_ms: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let queries = query_universe();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let replies = client
        .estimate_batch_with_deadline("default", &queries, Some(0))
        .expect("typed replies");
    assert_eq!(replies.len(), queries.len());
    for reply in &replies {
        match reply {
            QueryReply::Timeout { deadline_ms } => assert_eq!(*deadline_ms, 0),
            QueryReply::Estimate(_) => {
                // Legal but rare: the worker can dequeue within the same
                // clock tick the deadline was stamped. Correctness is
                // still required.
            }
            QueryReply::Busy(msg) => panic!("unexpected BUSY: {msg}"),
        }
    }
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, QueryReply::Timeout { .. })),
        "an expired-on-arrival batch should produce at least one TIMEOUT"
    );
    client.ping().expect("stream in sync after mass timeout");

    // And the dataset is untouched: the same batch, unbounded, answers
    // with the control values.
    let replies = client
        .estimate_batch_with_deadline("default", &queries, None)
        .expect("unbounded batch");
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            QueryReply::Estimate(est) => assert_eq!(est.value, control_values()[i]),
            other => panic!("slot {i}: expected estimate, got {other:?}"),
        }
    }
    client.quit().unwrap();
    server.shutdown();
}
