//! System-R-style dynamic-programming join optimizer.
//!
//! Plans are binary join trees over the query's edges (relations); the DP
//! explores every connected edge-subset and splits it into two connected
//! halves. The cost model is `C_out`: the sum of estimated cardinalities
//! of all intermediate (non-leaf) results — the metric reference \[12\] of
//! the paper showed rewards accurate estimators.

use crate::CardinalityEstimator;
use ceg_graph::FxHashMap;
use ceg_query::{EdgeMask, QueryGraph};

/// A join plan over the query's relations.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan of one query edge (a base relation occurrence).
    Scan(usize),
    /// Hash join of two sub-plans.
    Join(Box<Plan>, Box<Plan>),
}

impl Plan {
    /// The edge subset a plan covers.
    pub fn mask(&self) -> EdgeMask {
        match self {
            Plan::Scan(i) => EdgeMask::single(*i),
            Plan::Join(l, r) => l.mask().union(r.mask()),
        }
    }

    /// Number of joins in the plan.
    pub fn num_joins(&self) -> usize {
        match self {
            Plan::Scan(_) => 0,
            Plan::Join(l, r) => 1 + l.num_joins() + r.num_joins(),
        }
    }

    /// Render as a parenthesized expression, e.g. `((e0 ⋈ e1) ⋈ e2)`.
    pub fn render(&self) -> String {
        match self {
            Plan::Scan(i) => format!("e{i}"),
            Plan::Join(l, r) => format!("({} ⋈ {})", l.render(), r.render()),
        }
    }
}

/// Optimize `query` with cardinalities from `est`. The estimator is asked
/// once per connected sub-query (estimates are memoized here). Returns
/// the plan and its estimated `C_out` cost.
pub fn optimize(query: &QueryGraph, est: &mut dyn CardinalityEstimator) -> (Plan, f64) {
    let subsets = query.connected_subsets();
    let mut card: FxHashMap<EdgeMask, f64> = FxHashMap::default();
    for &mask in &subsets {
        let (sub, _) = query.subquery(mask);
        let e = est.estimate(&sub).unwrap_or(f64::INFINITY).max(0.0);
        card.insert(mask, e);
    }

    // DP in increasing subset-size order (subsets are already sorted).
    let mut best: FxHashMap<EdgeMask, (f64, Plan)> = FxHashMap::default();
    for &mask in &subsets {
        if mask.len() == 1 {
            let i = mask.iter().next().unwrap();
            best.insert(mask, (0.0, Plan::Scan(i)));
            continue;
        }
        let mut cheapest: Option<(f64, Plan)> = None;
        // enumerate proper submask splits (l, mask \ l), both connected
        let bits = mask.bits();
        let mut l = (bits - 1) & bits;
        while l != 0 {
            let lm = EdgeMask::from_bits(l);
            let rm = mask.difference(lm);
            // consider each unordered split once
            if lm.bits() > rm.bits() {
                if let (Some((cl, pl)), Some((cr, pr))) = (best.get(&lm), best.get(&rm)) {
                    let cost = cl + cr + card[&mask];
                    if cheapest.as_ref().is_none_or(|(c, _)| cost < *c) {
                        cheapest =
                            Some((cost, Plan::Join(Box::new(pl.clone()), Box::new(pr.clone()))));
                    }
                }
            }
            l = (l - 1) & bits;
        }
        if let Some(c) = cheapest {
            best.insert(mask, c);
        }
    }
    let full = query.full_mask();
    let (cost, plan) = best
        .remove(&full)
        .expect("connected query must have a plan");
    (plan, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_query::templates;

    /// Estimator with fixed per-size estimates to steer plan shape.
    struct BySize(Vec<f64>);
    impl CardinalityEstimator for BySize {
        fn name(&self) -> String {
            "by-size".into()
        }
        fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
            Some(self.0[q.num_edges()])
        }
    }

    /// Estimator that penalizes plans containing a specific label.
    struct PenalizeLabel(u16);
    impl CardinalityEstimator for PenalizeLabel {
        fn name(&self) -> String {
            "penalize".into()
        }
        fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
            let has = q.edges().iter().any(|e| e.label == self.0);
            Some(if has { 1e6 } else { 1.0 })
        }
    }

    #[test]
    fn plan_covers_all_edges() {
        let q = templates::path(3, &[0, 1, 2]);
        let mut est = BySize(vec![1.0; 10]);
        let (plan, cost) = optimize(&q, &mut est);
        assert_eq!(plan.mask(), q.full_mask());
        assert_eq!(plan.num_joins(), 2);
        assert!(cost.is_finite());
    }

    #[test]
    fn optimizer_delays_expensive_relations() {
        // joins involving label 2 are estimated enormous: the optimizer
        // should join e0 ⋈ e1 first and bring e2 in last
        let q = templates::path(3, &[0, 1, 2]);
        let mut est = PenalizeLabel(2);
        let (plan, _) = optimize(&q, &mut est);
        match &plan {
            Plan::Join(l, _r) => {
                // the first (deeper) join must avoid edge 2
                let inner = l.mask().union(EdgeMask::empty());
                assert!(
                    !inner.contains(2) || l.num_joins() == 0,
                    "plan {} joins the expensive edge early",
                    plan.render()
                );
            }
            Plan::Scan(_) => panic!("expected a join"),
        }
    }

    #[test]
    fn render_is_readable() {
        let q = templates::path(2, &[0, 1]);
        let mut est = BySize(vec![1.0; 10]);
        let (plan, _) = optimize(&q, &mut est);
        let s = plan.render();
        assert!(s.contains('⋈'));
        assert!(s.contains("e0") && s.contains("e1"));
    }

    #[test]
    fn star_plans_exist_for_all_shapes() {
        for q in [
            templates::star(4, &[0, 1, 2, 3]),
            templates::cycle(4, &[0, 1, 2, 3]),
            templates::q5f(&[0, 1, 2, 3, 4]),
        ] {
            let mut est = BySize(vec![2.0; 10]);
            let (plan, _) = optimize(&q, &mut est);
            assert_eq!(plan.mask(), q.full_mask());
        }
    }
}
