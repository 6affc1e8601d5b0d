//! Seeded synthetic stand-ins for the paper's six datasets.
//!
//! The real datasets (Table 2: IMDb 65M edges, YAGO 16M, DBLP 56M, WatDiv
//! 11M, Hetionet 2M, Epinions 509K) are not available offline, so each is
//! replaced by a generator that reproduces the structural properties the
//! estimator-accuracy experiments depend on:
//!
//! * **degree skew** — Zipfian source/destination sampling (real graphs'
//!   heavy tails drive both the optimistic underestimation and the
//!   pessimistic bounds' looseness),
//! * **label correlation** — labels prefer (community → community) lanes,
//!   so co-occurring labels are correlated, defeating independence
//!   assumptions exactly as in real knowledge graphs,
//! * **Epinions' uncorrelated labels** — the paper added 50 random labels
//!   to Epinions precisely to have a correlation-free control; our
//!   Epinions generator assigns labels uniformly at random.
//!
//! Sizes are scaled (~10³–10⁴ vertices) so exact ground truth stays
//! computable; label counts are scaled with them to keep per-label
//! densities in a realistic range.

use ceg_graph::{GraphBuilder, LabelId, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    Imdb,
    Yago,
    Dblp,
    Watdiv,
    Hetionet,
    Epinions,
}

impl Dataset {
    /// All datasets in the paper's Table 2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Imdb,
        Dataset::Yago,
        Dataset::Dblp,
        Dataset::Watdiv,
        Dataset::Hetionet,
        Dataset::Epinions,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Imdb => "IMDb",
            Dataset::Yago => "YAGO",
            Dataset::Dblp => "DBLP",
            Dataset::Watdiv => "WatDiv",
            Dataset::Hetionet => "Hetionet",
            Dataset::Epinions => "Epinions",
        }
    }

    /// The domain label from Table 2.
    pub fn domain(&self) -> &'static str {
        match self {
            Dataset::Imdb => "Movies",
            Dataset::Yago => "Knowledge Graph",
            Dataset::Dblp => "Citations",
            Dataset::Watdiv => "Products",
            Dataset::Hetionet => "Social Networks",
            Dataset::Epinions => "Consumer Reviews",
        }
    }

    /// Scaled generation parameters (see module docs).
    pub fn spec(&self) -> DatasetSpec {
        match self {
            // ratios follow Table 2: IMDb is the largest and densest
            Dataset::Imdb => DatasetSpec::correlated(*self, 9_000, 22_000, 32, 16, 1.1),
            Dataset::Yago => DatasetSpec::correlated(*self, 8_000, 10_000, 24, 12, 0.9),
            Dataset::Dblp => DatasetSpec::correlated(*self, 8_000, 19_000, 16, 10, 1.0),
            Dataset::Watdiv => DatasetSpec::correlated(*self, 3_000, 11_000, 24, 8, 0.8),
            Dataset::Hetionet => DatasetSpec::correlated(*self, 1_500, 9_000, 12, 6, 1.2),
            Dataset::Epinions => DatasetSpec::uncorrelated(*self, 2_000, 8_000, 16),
        }
    }

    /// Generate the graph with a deterministic seed.
    pub fn generate(&self, seed: u64) -> LabeledGraph {
        self.spec().generate(seed)
    }
}

/// Generation parameters of one dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    pub dataset: Dataset,
    pub num_vertices: usize,
    pub num_edges: usize,
    pub num_labels: usize,
    /// Number of vertex communities (label-correlation structure); 0
    /// disables correlation (Epinions).
    pub communities: usize,
    /// Zipf skew exponent for endpoint sampling.
    pub skew: f64,
}

impl DatasetSpec {
    fn correlated(
        dataset: Dataset,
        num_vertices: usize,
        num_edges: usize,
        num_labels: usize,
        communities: usize,
        skew: f64,
    ) -> Self {
        DatasetSpec {
            dataset,
            num_vertices,
            num_edges,
            num_labels,
            communities,
            skew,
        }
    }

    fn uncorrelated(
        dataset: Dataset,
        num_vertices: usize,
        num_edges: usize,
        num_labels: usize,
    ) -> Self {
        DatasetSpec {
            dataset,
            num_vertices,
            num_edges,
            num_labels,
            communities: 0,
            skew: 0.9,
        }
    }

    /// Generate the labeled graph.
    pub fn generate(&self, seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut b = GraphBuilder::with_labels(self.num_vertices, self.num_labels);

        if self.communities == 0 {
            // Epinions-style: a skewed random graph, labels uniform —
            // guaranteed label-independence.
            let zipf = ZipfSampler::new(self.num_vertices, self.skew);
            while b.len() < self.num_edges {
                let s = zipf.sample(&mut rng);
                let d = rng.random_range(0..self.num_vertices as VertexId);
                let l = rng.random_range(0..self.num_labels as LabelId);
                if s != d {
                    b.add_edge(s, d, l);
                }
            }
            return b.build();
        }

        // Correlated datasets: each label gets a preferred source and
        // destination community lane; most of its edges follow the lane.
        let c = self.communities;
        let comm_size = self.num_vertices / c;
        let zipf = ZipfSampler::new(comm_size, self.skew);
        let lanes: Vec<(usize, usize)> = (0..self.num_labels)
            .map(|_| (rng.random_range(0..c), rng.random_range(0..c)))
            .collect();
        // labels are themselves Zipf-popular, like real label frequencies
        let label_zipf = ZipfSampler::new(self.num_labels, 0.8);
        while b.len() < self.num_edges {
            let l = label_zipf.sample(&mut rng) as usize;
            let (mut sc, mut dc) = lanes[l];
            // 20% of edges leave the lane: cross-community noise
            if rng.random_bool(0.2) {
                sc = rng.random_range(0..c);
            }
            if rng.random_bool(0.2) {
                dc = rng.random_range(0..c);
            }
            let s = (sc * comm_size) as VertexId + zipf.sample(&mut rng);
            let d = (dc * comm_size) as VertexId + zipf.sample(&mut rng);
            if s != d {
                b.add_edge(s, d, l as LabelId);
            }
        }
        b.build()
    }
}

/// Inverse-CDF Zipf sampler over `0..n` with exponent `alpha`.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> VertexId {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i.min(self.cdf.len() - 1)) as VertexId,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate() {
        for d in Dataset::ALL {
            let g = d.generate(1);
            let spec = d.spec();
            assert_eq!(g.num_vertices(), spec.num_vertices, "{}", d.name());
            assert_eq!(g.num_labels(), spec.num_labels, "{}", d.name());
            // duplicates are removed, so allow some slack below the target
            assert!(
                g.num_edges() > spec.num_edges / 2,
                "{}: {} edges",
                d.name(),
                g.num_edges()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Dblp.generate(7);
        let b = Dataset::Dblp.generate(7);
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.all_edges().collect();
        let eb: Vec<_> = b.all_edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Dblp.generate(1);
        let b = Dataset::Dblp.generate(2);
        let ea: Vec<_> = a.all_edges().collect();
        let eb: Vec<_> = b.all_edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn degree_skew_is_present() {
        let g = Dataset::Imdb.generate(3);
        let max_deg = (0..g.num_labels() as LabelId)
            .map(|l| g.max_out_degree(l))
            .max()
            .unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "expected heavy tail: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn every_label_is_populated() {
        for d in [Dataset::Imdb, Dataset::Epinions] {
            let g = d.generate(5);
            let empty = (0..g.num_labels() as LabelId)
                .filter(|&l| g.label_count(l) == 0)
                .count();
            // Zipf label popularity may leave at most a couple of labels
            // nearly empty, but not most of them
            assert!(
                empty < g.num_labels() / 4,
                "{}: {empty} empty labels",
                d.name()
            );
        }
    }

    /// The ceiling that keeps graph storage O(|E|): on the benchmark's
    /// `g100k` shape (32 labels, a relation touches ~2 % of the domain)
    /// both the in-memory indexes and the `GRPH` payload stay within a few
    /// words per edge. A per-label, per-direction array over the vertex
    /// domain costs ~140 B/edge here and fails both bounds.
    #[test]
    fn graph_storage_stays_proportional_to_edges() {
        let spec = DatasetSpec {
            num_vertices: 90_000,
            num_edges: 220_000,
            ..Dataset::Imdb.spec()
        };
        let g = spec.generate(2022);
        let edges = g.num_edges();
        assert!(edges > 150_000, "{edges} edges");
        let heap = g.heap_bytes();
        let encoded = ceg_graph::snapshot::graph_payload_len(&g) as usize;
        assert!(heap / edges <= 24, "{heap} heap bytes for {edges} edges");
        assert!(
            encoded / edges <= 20,
            "{encoded} payload bytes for {edges} edges"
        );
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[50] * 5);
    }
}
