//! The bound-sketch optimization (Section 5.2): hash-partitioning the
//! join attributes tightens both the pessimistic MOLP bound and the
//! optimistic estimates.
//!
//! ```sh
//! cargo run --example bound_sketch
//! ```

use cegraph::catalog::MarkovTable;
use cegraph::core::PathLen;
use cegraph::estimators::bound_sketch::{molp_sketch_bound, optimistic_sketch_estimate};
use cegraph::exec::count;
use cegraph::query::templates;
use cegraph::workload::Dataset;

fn main() {
    let graph = Dataset::Hetionet.generate(11);
    // a 2-path whose join attribute is heavily skewed
    let q = templates::path(2, &[0, 1]);
    let truth = count(&graph, &q) as f64;
    println!("query: {q}");
    println!("truth: {truth}\n");

    let table = MarkovTable::build_for_query(&graph, &q, 2);

    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>14}",
        "K", "MOLP bound", "MOLP q-err", "max-hop-max", "opt q-err"
    );
    for k in [1u32, 4, 16, 64, 128] {
        let molp = molp_sketch_bound(&graph, &q, k);
        let opt = optimistic_sketch_estimate(&graph, &q, &table, PathLen::MaxHop, true, k)
            .expect("estimable");
        let qe = |e: f64| (e.max(1e-9) / truth).max(truth / e.max(1e-9));
        println!(
            "{k:>6} {molp:>16.1} {:>16.2} {opt:>14.1} {:>14.2}",
            qe(molp),
            qe(opt)
        );
    }
    println!("\npartitioning can only tighten the MOLP bound (sum of partition");
    println!("bounds ≤ direct bound) and sharpens the uniformity assumption of");
    println!("the optimistic estimate (Section 5.2.2).");
}
