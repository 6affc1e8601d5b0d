//! Property tests of the planner: any optimizer variant under any
//! estimator must execute to the same (correct) output, and the DP
//! optimizer is cost-optimal within its search space.

use cegraph::estimators::planner::{execute_plan, optimize, optimize_greedy, optimize_left_deep};
use cegraph::estimators::CardinalityEstimator;
use cegraph::exec::count;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop::collection::vec((0u32..12, 0u32..12, 0u16..LABELS), 3..40).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(12, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        prop::collection::vec(l.clone(), 2..=4).prop_map(|ls| templates::path(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 2..=4).prop_map(|ls| templates::star(ls.len(), &ls)),
        prop::collection::vec(l, 3..=4).prop_map(|ls| templates::cycle(ls.len(), &ls)),
    ]
}

/// An adversarial estimator: arbitrary positive values per subquery size.
struct Weird(Vec<f64>);
impl CardinalityEstimator for Weird {
    fn name(&self) -> String {
        "weird".into()
    }
    fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
        Some(self.0[q.num_edges() % self.0.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the estimator says, every optimizer variant's plan
    /// executes to the true result size.
    #[test]
    fn all_plans_compute_the_true_output(
        (g, q) in (arb_graph(), arb_query()),
        weights in prop::collection::vec(0.5f64..1000.0, 5..=5),
    ) {
        let truth = count(&g, &q);
        let budget = 1 << 22;
        let mut est = Weird(weights);
        let plans = [
            optimize(&q, &mut est).0,
            optimize_left_deep(&q, &mut est).0,
            optimize_greedy(&q, &mut est).0,
        ];
        for plan in &plans {
            prop_assert_eq!(plan.mask(), q.full_mask());
            if let Some(stats) = execute_plan(&g, &q, plan, budget) {
                prop_assert_eq!(stats.output, truth, "plan {}", plan.render());
            }
        }
    }

    /// The bushy DP never reports a higher cost than the restricted
    /// variants under the same estimates.
    #[test]
    fn dp_cost_dominates(
        q in arb_query(),
        weights in prop::collection::vec(0.5f64..1000.0, 5..=5),
    ) {
        let mut est = Weird(weights);
        let (_, dp) = optimize(&q, &mut est);
        let (_, ld) = optimize_left_deep(&q, &mut est);
        let (_, greedy) = optimize_greedy(&q, &mut est);
        prop_assert!(dp <= ld + 1e-6, "dp {dp} > left-deep {ld}");
        prop_assert!(dp <= greedy + 1e-6, "dp {dp} > greedy {greedy}");
    }
}
