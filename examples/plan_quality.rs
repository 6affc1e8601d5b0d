//! Plan quality end to end (Section 6.6): inject different estimators
//! into the DP join optimizer and watch the chosen plans' actual costs.
//!
//! ```sh
//! cargo run --release --example plan_quality
//! ```

use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, Heuristic, PathLen};
use cegraph::estimators::planner::{execute_plan, optimize};
use cegraph::estimators::{OptimisticEstimator, Rdf3xDefaultEstimator};
use cegraph::query::templates;
use cegraph::workload::Dataset;

fn main() {
    let graph = Dataset::Dblp.generate(5);
    let q = templates::tree_depth(6, 4, &[0, 1, 2, 0, 1, 2]);
    println!("query: {q}");

    let table = MarkovTable::build_for_query(&graph, &q, 2);
    let budget = 8_000_000;

    let mut default_est = Rdf3xDefaultEstimator::new(&graph);
    let (default_plan, _) = optimize(&q, &mut default_est);
    println!("\nRDF-3X default plan: {}", default_plan.render());
    let base = execute_plan(&graph, &q, &default_plan, budget).expect("plan runs");
    println!(
        "  -> {} intermediate tuples, {} results, {:?}",
        base.intermediate_tuples, base.output, base.wall
    );

    for h in [
        Heuristic::new(PathLen::MaxHop, Aggr::Max),
        Heuristic::new(PathLen::MinHop, Aggr::Min),
    ] {
        let mut est = OptimisticEstimator::new(&table, h);
        let (plan, cost) = optimize(&q, &mut est);
        let stats = execute_plan(&graph, &q, &plan, budget).expect("plan runs");
        println!(
            "\n{} plan (est. C_out {cost:.0}): {}",
            h.name(),
            plan.render()
        );
        println!(
            "  -> {} intermediate tuples, {} results, {:?} ({}x vs default)",
            stats.intermediate_tuples,
            stats.output,
            stats.wall,
            base.intermediate_tuples.max(1) / stats.intermediate_tuples.max(1),
        );
        assert_eq!(stats.output, base.output, "plans must agree on the result");
    }
}
