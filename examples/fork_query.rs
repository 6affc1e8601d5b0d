//! The running example of the paper: the fork query Q5f (Figure 1) and
//! its three CEGs — CEG_O with h = 2 (Figure 4), h = 3 (Figure 3), and
//! the pessimistic CEG_M (Figure 7).
//!
//! ```sh
//! cargo run --example fork_query
//! ```

use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::{molp_bound, molp_lp_bound, DegreeStats, MolpInstance};
use cegraph::exec::count;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::templates;

/// A dataset in the spirit of Figure 2: five labels A..E with skewed fan
/// out of the hub vertices, so different CEG paths disagree.
fn figure2_like() -> LabeledGraph {
    let mut b = GraphBuilder::new(40);
    // A (label 0): four sources into two hubs
    b.add_edge(0, 10, 0);
    b.add_edge(1, 10, 0);
    b.add_edge(2, 11, 0);
    b.add_edge(3, 11, 0);
    // B (label 1): hubs to centers
    b.add_edge(10, 20, 1);
    b.add_edge(11, 21, 1);
    // C (label 2): centers fan out unevenly
    for d in 22..26 {
        b.add_edge(20, d, 2);
    }
    b.add_edge(21, 26, 2);
    // D (label 3)
    b.add_edge(20, 27, 3);
    b.add_edge(21, 28, 3);
    b.add_edge(21, 29, 3);
    // E (label 4)
    b.add_edge(20, 30, 4);
    b.add_edge(20, 31, 4);
    b.add_edge(21, 32, 4);
    b.build()
}

fn show_ceg(name: &str, ceg: &CegO) {
    println!("--- {name} ---");
    println!(
        "{} nodes, {} edges, min-hops {:?}, max-hops {:?}",
        ceg.ceg().num_nodes(),
        ceg.ceg().num_edges(),
        ceg.ceg().min_hops(),
        ceg.ceg().max_hops()
    );
    let estimates = ceg.ceg().path_estimates(10_000);
    println!(
        "distinct path estimates ({}): {estimates:?}",
        estimates.len()
    );
    for h in Heuristic::all() {
        if let Some(e) = ceg.ceg().estimate(h) {
            println!("  {:<14} -> {e:.2}", h.name());
        }
    }
}

fn main() {
    let graph = figure2_like();
    let q5f = templates::q5f(&[0, 1, 2, 3, 4]);
    let truth = count(&graph, &q5f);
    println!("query Q5f: {q5f}");
    println!("true cardinality: {truth}\n");

    // Figure 4: CEG_O with a Markov table of size 2.
    let t2 = MarkovTable::build_for_query(&graph, &q5f, 2);
    let ceg2 = CegO::build(&q5f, &t2);
    show_ceg("CEG_O, h = 2 (Figure 4)", &ceg2);

    // Figure 3: CEG_O with a Markov table of size 3 — short-hop vs
    // long-hop paths appear (Section 4.2).
    let t3 = MarkovTable::build_for_query(&graph, &q5f, 3);
    let ceg3 = CegO::build(&q5f, &t3);
    show_ceg("CEG_O, h = 3 (Figure 3)", &ceg3);

    // Figure 7: CEG_M / the MOLP bound, via Dijkstra and via the literal
    // LP (Theorem 5.1 says they agree).
    let stats = DegreeStats::build_base(&graph);
    let inst = MolpInstance::from_stats(&q5f, &stats, false);
    let dij = molp_bound(&inst);
    let lp = molp_lp_bound(&inst, false);
    println!("--- CEG_M / MOLP (Figure 7) ---");
    println!("MOLP bound via Dijkstra over CEG_M: {dij:.2}");
    println!("MOLP bound via the literal LP:      {lp:.2}");
    println!("true cardinality:                   {truth}");
    assert!((dij.ln() - lp.ln()).abs() < 1e-6, "Theorem 5.1 violated!");
    assert!(dij >= truth as f64, "MOLP must be pessimistic");

    // the paper's headline: pick the *max-weight* path on CEG_O
    let best = ceg2
        .ceg()
        .estimate(Heuristic::new(PathLen::MaxHop, Aggr::Max))
        .unwrap();
    println!("\nmax-hop-max on CEG_O: {best:.2} (truth {truth}, MOLP {dij:.2})");
}
