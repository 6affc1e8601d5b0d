//! Golden workload instances, recorded before the embedding sampler was
//! rewritten (PR 21: k-th edge by binary search, shape and walk order
//! hoisted out of the attempt loop, buffers reused).
//!
//! `Workload::build` draws every instance from one seeded RNG, so a
//! sampler that makes the same draws in the same order builds the same
//! pool. `tests/fixtures/golden_workload.txt` holds, for Job / Acyclic /
//! Cyclic at `per_template` 3 and seeds 7 and 42 on `generate imdb 42`,
//! each instance's template, wire form and the `f64::to_bits` of its
//! truth. One draw more, fewer or in another order moves a line.
//!
//! Regenerate (only when the pools are *meant* to change) with
//! `GOLDEN_WORKLOAD_WRITE=1 cargo test --release --test golden_workload`.

use std::fmt::Write as _;

use cegraph::service::protocol::format_query;
use cegraph::workload::{Dataset, Workload};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_workload.txt"
);

/// One line per (workload, seed, instance).
fn render() -> String {
    let graph = Dataset::Imdb.generate(42);
    let mut out = String::new();
    for workload in [Workload::Job, Workload::Acyclic, Workload::Cyclic] {
        for seed in [7u64, 42] {
            for wq in workload.build(&graph, 3, seed) {
                writeln!(
                    out,
                    "{} seed={seed} {} query={} truth={:016x}",
                    workload.name(),
                    wq.template,
                    format_query(&wq.query),
                    wq.truth.to_bits()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn workload_pools_match_the_recorded_instances() {
    let got = render();
    if std::env::var_os("GOLDEN_WORKLOAD_WRITE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("golden fixture is checked in");
    assert_eq!(got.lines().count(), want.lines().count(), "pool size moved");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "an instance moved");
    }
}
