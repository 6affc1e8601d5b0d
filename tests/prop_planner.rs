//! Property tests of the planner: the DP optimizer's plan under any
//! estimator executes to the correct output, and it is the cheapest of
//! every bushy plan an exhaustive enumeration finds.

use cegraph::estimators::planner::{execute_plan, optimize, Plan};
use cegraph::estimators::CardinalityEstimator;
use cegraph::exec::count;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, EdgeMask, QueryGraph};
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

/// An adversarial estimator: arbitrary positive values per subquery
/// size and labels, so same-size sub-queries can differ.
struct Weird(Vec<f64>);
impl CardinalityEstimator for Weird {
    fn name(&self) -> String {
        "weird".into()
    }
    fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
        let labels: usize = q.edges().iter().map(|e| e.label as usize).sum();
        Some(self.0[(3 * q.num_edges() + labels) % self.0.len()])
    }
}

/// Every bushy plan over `mask` that joins two connected halves at each
/// step (the DP's search space: no cross products), enumerated
/// outright.
fn all_plans(q: &QueryGraph, mask: EdgeMask) -> Vec<Plan> {
    if mask.len() == 1 {
        return vec![Plan::Scan(mask.iter().next().unwrap())];
    }
    let bits = mask.bits();
    let mut plans = Vec::new();
    let mut l = (bits - 1) & bits;
    while l != 0 {
        let (lm, rm) = (
            EdgeMask::from_bits(l),
            mask.difference(EdgeMask::from_bits(l)),
        );
        if q.is_connected_mask(lm) && q.is_connected_mask(rm) {
            for pl in all_plans(q, lm) {
                for pr in all_plans(q, rm) {
                    plans.push(Plan::Join(Box::new(pl.clone()), Box::new(pr)));
                }
            }
        }
        l = (l - 1) & bits;
    }
    plans
}

/// `C_out` of `plan`: the estimates of its join results, summed.
fn c_out(q: &QueryGraph, plan: &Plan, est: &mut dyn CardinalityEstimator) -> f64 {
    match plan {
        Plan::Scan(_) => 0.0,
        Plan::Join(l, r) => {
            let (sub, _) = q.subquery(plan.mask());
            est.estimate(&sub).unwrap() + c_out(q, l, est) + c_out(q, r, est)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the estimator says, the optimizer's plan executes to the
    /// true result size.
    #[test]
    fn all_plans_compute_the_true_output(
        (g, q) in (arb_graph(), arb_query()),
        weights in prop::collection::vec(0.5f64..1000.0, 5..=5),
    ) {
        let truth = count(&g, &q);
        let budget = 1 << 22;
        let mut est = Weird(weights);
        let plan = optimize(&q, &mut est).0;
        prop_assert_eq!(plan.mask(), q.full_mask());
        if let Some(stats) = execute_plan(&g, &q, &plan, budget) {
            prop_assert_eq!(stats.output, truth, "plan {}", plan.render());
        }
    }

    /// The DP's plan costs what it reports, and no plan of its search
    /// space is cheaper under the same estimates.
    #[test]
    fn dp_finds_the_cheapest_bushy_plan(
        q in arb_query(),
        weights in prop::collection::vec(0.5f64..1000.0, 5..=5),
    ) {
        let mut est = Weird(weights);
        let (plan, cost) = optimize(&q, &mut est);
        prop_assert!((c_out(&q, &plan, &mut est) - cost).abs() <= 1e-6 * cost);
        let plans = all_plans(&q, q.full_mask());
        prop_assert!(plans.len() > 1 || q.num_edges() == 2);
        for other in &plans {
            let other_cost = c_out(&q, other, &mut est);
            prop_assert!(
                cost <= other_cost + 1e-6 * other_cost,
                "dp {} costs {cost} > {} at {other_cost}", plan.render(), other.render()
            );
        }
    }
}
