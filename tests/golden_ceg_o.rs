//! Golden estimates of the optimistic CEGs, recorded before CEG_O
//! construction was rewritten around resolved cards (PR 15).
//!
//! The benchmark harness checks the server bit-for-bit against the same
//! crates it links, so it cannot see a change both sides share. This
//! suite can: `tests/fixtures/golden_ceg_o.txt` holds, for a fixed-seed
//! pool (JOB + Acyclic + Cyclic on `generate imdb 42`, Markov tables of
//! h = 2 and h = 3), every query's CEG_O node and edge count and the
//! `f64::to_bits` of all nine heuristics over CEG_O, of
//! `max-hop-max(ocr)` and of the P* oracle. Any change to node order,
//! edge order or a single floating-point operation moves a bit.
//!
//! Regenerate (only when an estimate is *meant* to change) with
//! `GOLDEN_CEG_O_WRITE=1 cargo test --release --test golden_ceg_o`.

use std::fmt::Write as _;

use cegraph::catalog::{CcrTable, MarkovTable};
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::{pstar_estimate, CardinalityEstimator, OptimisticEstimator};
use cegraph::workload::{Dataset, Workload};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_ceg_o.txt"
);

fn bits(v: Option<f64>) -> String {
    v.map_or_else(|| "none".into(), |x| format!("{:016x}", x.to_bits()))
}

/// One line per (h, query): counts, then the eleven estimates' bits.
fn render() -> String {
    let graph = Dataset::Imdb.generate(42);
    let mut pool = Vec::new();
    for (workload, seed) in [
        (Workload::Job, 7),
        (Workload::Acyclic, 8),
        (Workload::Cyclic, 9),
    ] {
        pool.extend(workload.build(&graph, 2, seed));
    }
    let queries: Vec<_> = pool.iter().map(|wq| wq.query.clone()).collect();
    let ccr = CcrTable::build(&graph, &queries, 400, 5);
    let mut out = String::new();
    for h in [2usize, 3] {
        let table = MarkovTable::build(&graph, &queries, h);
        for (i, wq) in pool.iter().enumerate() {
            let ceg = CegO::build(&wq.query, &table);
            write!(
                out,
                "h={h} q={i} {} nodes={} edges={}",
                wq.template,
                ceg.ceg().num_nodes(),
                ceg.ceg().num_edges()
            )
            .unwrap();
            for heuristic in Heuristic::all() {
                write!(out, " {}", bits(ceg.ceg().estimate(heuristic))).unwrap();
            }
            let ocr = OptimisticEstimator::with_ccr(
                &table,
                &ccr,
                Heuristic::new(PathLen::MaxHop, Aggr::Max),
            )
            .estimate(&wq.query);
            let pstar = pstar_estimate(&wq.query, &table, Some(&ccr), wq.truth);
            writeln!(out, " ocr={} pstar={}", bits(ocr), bits(pstar)).unwrap();
        }
    }
    out
}

#[test]
fn ceg_o_estimates_match_the_recorded_bits() {
    let got = render();
    if std::env::var_os("GOLDEN_CEG_O_WRITE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("golden fixture is checked in");
    assert_eq!(got.lines().count(), want.lines().count(), "pool size moved");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "an estimate's bits moved");
    }
}
