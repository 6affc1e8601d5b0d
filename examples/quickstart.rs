//! Quickstart: build a graph, collect statistics, estimate a query.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::{CardinalityEstimator, OptimisticEstimator};
use cegraph::exec::count;
use cegraph::graph::GraphBuilder;
use cegraph::query::templates;

fn main() {
    // 1. A labeled graph = one binary relation per edge label.
    //    Labels: 0 = "follows", 1 = "likes", 2 = "authored".
    let mut b = GraphBuilder::new(12);
    for (s, d, l) in [
        (0, 1, 0),
        (0, 2, 0),
        (1, 2, 0),
        (3, 2, 0),
        (1, 4, 1),
        (2, 4, 1),
        (2, 5, 1),
        (3, 5, 1),
        (4, 6, 2),
        (4, 7, 2),
        (5, 7, 2),
        (5, 8, 2),
    ] {
        b.add_edge(s, d, l);
    }
    let graph = b.build();
    println!(
        "graph: {} vertices, {} edges, {} labels",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels()
    );

    // 2. The query: a 3-path  a0 -follows-> a1 -likes-> a2 -authored-> a3.
    let query = templates::path(3, &[0, 1, 2]);
    println!("query: {query}");

    // 3. Build a Markov table of size h = 2 (cardinalities of all 1- and
    //    2-edge sub-patterns of the query).
    let table = MarkovTable::build_for_query(&graph, &query, 2);
    println!("markov table: {} entries", table.len());
    let mut entries: Vec<String> = table.iter().map(|(p, c)| format!("  {p} -> {c}")).collect();
    entries.sort();
    for e in entries {
        println!("{e}");
    }

    // 4. The CEG_O of the query: every bottom-to-top path is a formula.
    let ceg = CegO::build(&query, &table);
    println!(
        "CEG_O: {} nodes, {} edges, estimates {:?}",
        ceg.ceg().num_nodes(),
        ceg.ceg().num_edges(),
        ceg.ceg().path_estimates(100)
    );

    // 5. Estimate with the paper's recommended heuristic and compare.
    let mut est = OptimisticEstimator::new(&table, Heuristic::new(PathLen::MaxHop, Aggr::Max));
    let estimate = est.estimate(&query).expect("query is estimable");
    let truth = count(&graph, &query);
    println!("max-hop-max estimate: {estimate:.2}");
    println!("true cardinality:     {truth}");
    println!(
        "q-error:              {:.2}",
        cegraph::estimators::oracle::qerror(estimate, truth as f64)
    );
}
