//! Large cyclic queries: CEG_O breaks cycles into paths and
//! overestimates; CEG_OCR's sampled cycle-closing rates repair it
//! (Section 4.3, Figure 6).
//!
//! ```sh
//! cargo run --example cyclic_queries
//! ```

use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::ceg_ocr::build_ceg_ocr;
use cegraph::estimators::CcrTable;
use cegraph::exec::count;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::templates;

/// Many 4-paths, few 4-cycles: the worst case for CEG_O on cycles.
fn sparse_cycles() -> LabeledGraph {
    let mut b = GraphBuilder::new(400);
    for i in 0..60u32 {
        let v = 4 * i;
        b.add_edge(v, v + 1, 0);
        b.add_edge(v + 1, v + 2, 1);
        b.add_edge(v + 2, v + 3, 2);
        if i % 6 == 0 {
            b.add_edge(v + 3, v, 3); // only 1 in 6 paths closes
        } else {
            b.add_edge(v + 3, 240 + i, 3);
        }
    }
    b.build()
}

fn main() {
    let graph = sparse_cycles();
    let q = templates::cycle(4, &[0, 1, 2, 3]);
    let truth = count(&graph, &q);
    println!("query: 4-cycle {q}");
    println!("true cardinality: {truth}\n");

    let qs = [q.clone()];
    let table = MarkovTable::build(&graph, &qs, 2);
    let ccr = CcrTable::build(&graph, &qs, 4000, 7);
    println!(
        "statistics: {} Markov entries (h=2), {} cycle-closing rates",
        table.len(),
        ccr.len()
    );

    let ceg_o = CegO::build(&q, &table);
    let ceg_ocr = build_ceg_ocr(&q, &table, &ccr);

    println!("\n{:<14} {:>12} {:>12}", "heuristic", "CEG_O", "CEG_OCR");
    for h in Heuristic::all() {
        let o = ceg_o.ceg().estimate(h).unwrap_or(f64::NAN);
        let r = ceg_ocr.ceg().estimate(h).unwrap_or(f64::NAN);
        println!("{:<14} {o:>12.2} {r:>12.2}", h.name());
    }
    println!("{:<14} {truth:>12} {truth:>12}", "truth");

    // the paper's conclusions, asserted:
    let o_best = ceg_o
        .ceg()
        .estimate(Heuristic::new(PathLen::MinHop, Aggr::Min))
        .unwrap();
    let ocr_best = ceg_ocr
        .ceg()
        .estimate(Heuristic::new(PathLen::MaxHop, Aggr::Max))
        .unwrap();
    let t = truth as f64;
    println!("\nCEG_O min-hop-min (its best aggregator):  {o_best:.2}");
    println!("CEG_OCR max-hop-max (its best aggregator): {ocr_best:.2}");
    let qe = |e: f64| (e.max(1e-9) / t).max(t / e.max(1e-9));
    println!(
        "q-errors: CEG_O {:.2} vs CEG_OCR {:.2} — the closing rates win",
        qe(o_best),
        qe(ocr_best)
    );
}
