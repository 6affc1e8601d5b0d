//! Index-based join sampling (Leis et al., "Cardinality Estimation Done
//! Right"; the JSUB family of the G-CARE benchmark).
//!
//! Where WanderJoin extends each sampled tuple by *one random* edge per
//! query edge, index-based sampling extends each sampled start tuple
//! *exhaustively* (a full index-backed join of the residual query). The
//! per-sample work is higher but the per-sample estimate has no walk
//! variance — the trade-off the G-CARE study documents between the two
//! sampler families. The paper compares against WanderJoin as the best
//! of these; we include JSUB for completeness.

use ceg_exec::{count_budgeted, CountBudget, VarConstraint, VarConstraints};
use ceg_graph::{LabeledGraph, VertexId};
use ceg_query::QueryGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::traits::CardinalityEstimator;

/// Index-based join sampling with a fixed sampling ratio.
pub struct JsubEstimator<'a> {
    graph: &'a LabeledGraph,
    ratio: f64,
    /// Work cap per sampled tuple (bounds the exhaustive residual join).
    per_sample_budget: u64,
    rng: StdRng,
}

impl<'a> JsubEstimator<'a> {
    pub fn new(graph: &'a LabeledGraph, ratio: f64, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0);
        JsubEstimator {
            graph,
            ratio,
            per_sample_budget: 2_000_000,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Override the per-sample work cap.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.per_sample_budget = budget;
        self
    }
}

impl CardinalityEstimator for JsubEstimator<'_> {
    fn name(&self) -> String {
        format!("JSUB({}%)", self.ratio * 100.0)
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        if query.num_edges() == 0 {
            return Some(1.0);
        }
        // start from the smallest relation
        let start = (0..query.num_edges())
            .min_by_key(|&i| self.graph.label_count(query.edge(i).label))
            .unwrap();
        let e = query.edge(start);
        let edges: Vec<(VertexId, VertexId)> = self.graph.edges(e.label).collect();
        if edges.is_empty() {
            return Some(0.0);
        }
        let n = ((self.ratio * edges.len() as f64).ceil() as usize).max(1);
        let mut total = 0.0f64;
        let mut completed = 0usize;
        for _ in 0..n {
            let (s, d) = edges[self.rng.random_range(0..edges.len())];
            if e.src == e.dst && s != d {
                continue;
            }
            let mut cons = VarConstraints::none(query.num_vars());
            cons.set(e.src, VarConstraint::Fixed(s));
            cons.set(e.dst, VarConstraint::Fixed(d));
            let budget = CountBudget::new(self.per_sample_budget);
            match count_budgeted(self.graph, query, &cons, budget).0 {
                Some(c) => {
                    total += c as f64;
                    completed += 1;
                }
                None => continue, // per-sample budget blown: drop sample
            }
        }
        if completed == 0 {
            return None; // every sample timed out
        }
        Some(total / completed as f64 * edges.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(40);
        for i in 0..10u32 {
            b.add_edge(i, 10 + i, 0);
            b.add_edge(10 + i, 20 + i % 5, 1);
            b.add_edge(20 + i % 5, 30 + i % 3, 2);
        }
        b.build()
    }

    #[test]
    fn full_ratio_is_nearly_exact() {
        // sampling every start tuple with exhaustive extension is exact
        // in expectation; with replacement it still converges fast
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let truth = count(&g, &q) as f64;
        let mut total = 0.0;
        for seed in 0..50 {
            total += JsubEstimator::new(&g, 1.0, seed).estimate(&q).unwrap();
        }
        let avg = total / 50.0;
        assert!((avg - truth).abs() / truth < 0.1, "avg {avg} truth {truth}");
    }

    #[test]
    fn lower_variance_than_wanderjoin_at_same_ratio() {
        use crate::wander_join::WanderJoinEstimator;
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let truth = count(&g, &q) as f64;
        let var = |vals: &[f64]| {
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64
        };
        let js: Vec<f64> = (0..40)
            .map(|s| JsubEstimator::new(&g, 0.3, s).estimate(&q).unwrap())
            .collect();
        let wj: Vec<f64> = (0..40)
            .map(|s| WanderJoinEstimator::new(&g, 0.3, s).estimate(&q).unwrap())
            .collect();
        assert!(
            var(&js) <= var(&wj) * 1.5,
            "JSUB var {} vs WJ var {} (truth {truth})",
            var(&js),
            var(&wj)
        );
    }

    #[test]
    fn empty_relation_is_zero() {
        let g = toy();
        let q = templates::path(2, &[2, 0]); // no matches
        let est = JsubEstimator::new(&g, 0.5, 1).estimate(&q).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn exhausted_budget_returns_none() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let mut est = JsubEstimator::new(&g, 0.5, 1).with_budget(0);
        assert_eq!(est.estimate(&q), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let a = JsubEstimator::new(&g, 0.4, 11).estimate(&q);
        let b = JsubEstimator::new(&g, 0.4, 11).estimate(&q);
        assert_eq!(a, b);
    }
}
