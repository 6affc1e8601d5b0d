//! Everything a run feeds the server, made from the seed: the data graph
//! of a rung, a pool of distinct queries, an update stream, and the
//! reference estimates the wire answers are checked against.

use std::collections::HashSet;

use ceg_catalog::MarkovTable;
use ceg_estimators::{CardinalityEstimator, OptimisticEstimator};
use ceg_graph::{LabelId, LabeledGraph, VertexId};
use ceg_query::QueryGraph;
use ceg_workload::{Dataset, DatasetSpec, UpdateOp, Workload, WorkloadQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Markov table depth the server runs at (`cegcli serve` default).
pub const H: usize = 2;

/// One size of the data graph: the IMDb stand-in scaled `k` times, that
/// is `k * 9_000` vertices and `k * 22_000` edge draws (about `k * 18_000`
/// distinct edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    pub name: &'static str,
    pub k: usize,
}

pub const G10K: Rung = Rung { name: "g10k", k: 1 };
pub const G100K: Rung = Rung {
    name: "g100k",
    k: 10,
};

impl Rung {
    pub fn graph(&self, seed: u64) -> LabeledGraph {
        DatasetSpec {
            num_vertices: self.k * 9_000,
            num_edges: self.k * 22_000,
            ..Dataset::Imdb.spec()
        }
        .generate(seed)
    }
}

/// `size` queries from `families`, no two isomorphic (the server's cache
/// is keyed by the canonical form, so two isomorphic queries would be one
/// cache entry), instantiated on `graph` with ground truth. Taken at an
/// even stride from everything generated, so every template is kept.
pub fn query_pool(
    graph: &LabeledGraph,
    families: &[Workload],
    size: usize,
    seed: u64,
) -> Vec<WorkloadQuery> {
    // The families used here have 7 to 18 templates each.
    let mut per_template = size / (10 * families.len()) + 2;
    loop {
        let mut seen = HashSet::new();
        let distinct: Vec<WorkloadQuery> = families
            .iter()
            .flat_map(|w| w.build(graph, per_template, seed))
            .filter(|q| seen.insert(q.query.canonical_hash()))
            .collect();
        if distinct.len() >= size {
            return (0..size)
                .map(|i| distinct[i * distinct.len() / size].clone())
                .collect();
        }
        per_template *= 2;
    }
}

/// The estimate the service must give for each query on `graph`: the
/// paper's recommended optimistic estimator over a Markov table built
/// from scratch, with the engine's rule that a non-finite estimate is
/// "cannot answer".
pub fn reference(graph: &LabeledGraph, queries: &[QueryGraph]) -> Vec<Option<f64>> {
    let table = MarkovTable::build(graph, queries, H);
    let mut estimator = OptimisticEstimator::recommended(&table);
    queries
        .iter()
        .map(|q| estimator.estimate(q).filter(|v| v.is_finite()))
        .collect()
}

/// Labels every commit touches, one edge operation each. A commit
/// recounts every catalog pattern naming a touched label, and label `l`
/// of the stand-in graph is Zipf-popular by index whatever the seed, so
/// a label drawn at random makes one commit cost several times the next
/// (a 28 to 160 ms spread with `generate_update_stream` on `g100k`) and
/// the commit median, and every estimate tail behind it, a lottery.
/// Touching the same spread of popular and rare labels each time leaves
/// the commit path itself as the only thing that moves these numbers.
pub const COMMIT_LABELS: [LabelId; 4] = [0, 3, 7, 15];

/// `commits` transactions: per label of [`COMMIT_LABELS`], alternately an
/// insertion between random vertices and the deletion of an edge present
/// in `graph`.
pub fn update_batches(graph: &LabeledGraph, commits: usize, seed: u64) -> Vec<Vec<UpdateOp>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let vertices = graph.num_vertices() as VertexId;
    let present: Vec<Vec<(VertexId, VertexId)>> = COMMIT_LABELS
        .iter()
        .map(|&l| graph.edges(l).collect())
        .collect();
    (0..commits)
        .map(|commit| {
            COMMIT_LABELS
                .iter()
                .zip(&present)
                .enumerate()
                .map(|(i, (&label, edges))| {
                    if (commit + i) % 2 == 0 || edges.is_empty() {
                        let (src, dst) =
                            (rng.random_range(0..vertices), rng.random_range(0..vertices));
                        UpdateOp::Add { src, dst, label }
                    } else {
                        let (src, dst) = edges[rng.random_range(0..edges.len())];
                        UpdateOp::Del { src, dst, label }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_distinct_seeded_and_sized() {
        let g = G10K.graph(5);
        let pool = query_pool(&g, &[Workload::Job, Workload::Acyclic], 60, 5);
        assert_eq!(pool.len(), 60);
        let hashes: HashSet<u64> = pool.iter().map(|q| q.query.canonical_hash()).collect();
        assert_eq!(hashes.len(), 60);
        assert!(pool.iter().any(|q| q.template.starts_with("job")));
        assert!(pool.iter().any(|q| q.template.starts_with("tree")));
        let again = query_pool(&g, &[Workload::Job, Workload::Acyclic], 60, 5);
        assert!(pool.iter().zip(&again).all(|(a, b)| a.query == b.query));
    }

    #[test]
    fn update_batches_have_the_asked_shape() {
        let g = G10K.graph(5);
        let batches = update_batches(&g, 7, 9);
        assert_eq!(batches.len(), 7);
        for batch in &batches {
            let labels: Vec<LabelId> = batch
                .iter()
                .map(|op| match *op {
                    UpdateOp::Add { label, .. } | UpdateOp::Del { label, .. } => label,
                    UpdateOp::Commit => panic!("commit barrier inside a batch"),
                })
                .collect();
            assert_eq!(labels, COMMIT_LABELS);
        }
        assert!(batches
            .iter()
            .flatten()
            .any(|op| matches!(op, UpdateOp::Del { .. })));
        assert_eq!(batches, update_batches(&g, 7, 9));
    }
}
