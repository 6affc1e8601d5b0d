//! The indexed `EmbeddingSampler` makes the draws of the per-label walk it
//! replaced.
//!
//! The sampler reads an all-label adjacency index: a one-bound step is one
//! `random_range` over a vertex's (label, neighbour) list, a closing edge
//! a binary search per label run of the shorter of the source's out-list
//! and the target's in-list. The oracle here is the walk verbatim:
//! per step, the lengths of the vertex's rows summed over every label,
//! one `random_range` over the total, and a walk label by label to the
//! pick (for a closing edge, `has_edge` per label). Both samplers start
//! from the same seed and go through every template of all five
//! families; equal `Option<QueryGraph>` sequences mean equal draws in
//! equal order. The graphs are small and random, with self-loops, two
//! labels between one pair of vertices, empty labels, isolated tail
//! vertices and 1 to 40 labels.

use cegraph::graph::{GraphBuilder, LabelId, LabeledGraph, VertexId};
use cegraph::query::QueryGraph;
use cegraph::workload::workloads::{EmbeddingSampler, Template};
use cegraph::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FAMILIES: [Workload; 5] = [
    Workload::Job,
    Workload::Acyclic,
    Workload::Cyclic,
    Workload::GCareAcyclic,
    Workload::GCareCyclic,
];

/// The sampler before the index, walking the graph's per-label rows.
struct WalkSampler<'a> {
    graph: &'a LabeledGraph,
    rng: StdRng,
    binding: Vec<VertexId>,
    labels: Vec<LabelId>,
}

impl<'a> WalkSampler<'a> {
    fn new(graph: &'a LabeledGraph, seed: u64) -> Self {
        WalkSampler {
            graph,
            rng: StdRng::seed_from_u64(seed ^ 0xabcd_ef01),
            binding: Vec::new(),
            labels: Vec::new(),
        }
    }

    fn sample(&mut self, template: &Template) -> Option<QueryGraph> {
        self.sample_embedding_labels(&template.shape, &template.order)
            .then(|| template.instantiate(&self.labels))
    }

    fn sample_embedding_labels(&mut self, shape: &QueryGraph, order: &[usize]) -> bool {
        let nl = self.graph.num_labels() as LabelId;
        if nl == 0 {
            return false;
        }
        'retry: for _ in 0..40 {
            self.binding.clear();
            self.binding.resize(shape.num_vars() as usize, 0);
            self.labels.clear();
            self.labels.resize(shape.num_edges(), 0);
            let mut bound = 0u32;
            for (step, &ei) in order.iter().enumerate() {
                let e = shape.edge(ei);
                let sb = bound & (1 << e.src) != 0;
                let db = bound & (1 << e.dst) != 0;
                if step == 0 {
                    // uniform random data edge of a uniform random label
                    for _ in 0..20 {
                        let l = self.rng.random_range(0..nl);
                        let c = self.graph.label_count(l);
                        if c == 0 {
                            continue;
                        }
                        let k = self.rng.random_range(0..c);
                        if let Some((s, d)) = self.graph.nth_edge(l, k) {
                            if s == d && e.src != e.dst {
                                continue;
                            }
                            self.binding[e.src as usize] = s;
                            self.binding[e.dst as usize] = d;
                            bound |= (1 << e.src) | (1 << e.dst);
                            self.labels[ei] = l;
                            break;
                        }
                    }
                    if bound == 0 {
                        continue 'retry;
                    }
                    continue;
                }
                // pick a random (label, neighbour) extension
                let (s, d) = (self.binding[e.src as usize], self.binding[e.dst as usize]);
                let (graph, rng) = (self.graph, &mut self.rng);
                let only_d = std::slice::from_ref(&d);
                let edge_to_d = |l| if graph.has_edge(s, d, l) { only_d } else { &[] };
                let picked = match (sb, db) {
                    (true, true) => draw_extension(rng, nl, edge_to_d),
                    (true, false) => draw_extension(rng, nl, |l| graph.out_neighbors(s, l)),
                    (false, true) => draw_extension(rng, nl, |l| graph.in_neighbors(d, l)),
                    (false, false) => continue 'retry,
                };
                let Some((l, v)) = picked else {
                    continue 'retry;
                };
                self.labels[ei] = l;
                // The neighbour binds whichever end was free; with both
                // bound it is `d` again.
                if sb {
                    self.binding[e.dst as usize] = v;
                    bound |= 1 << e.dst;
                } else {
                    self.binding[e.src as usize] = v;
                    bound |= 1 << e.src;
                }
            }
            return true;
        }
        false
    }
}

/// One uniform draw from the (label, vertex) extensions that `row(l)`
/// lists label by label: a single `random_range` over their total, walked
/// to the pick without copying them out. `None` when there are none.
fn draw_extension<'g>(
    rng: &mut StdRng,
    num_labels: LabelId,
    row: impl Fn(LabelId) -> &'g [VertexId],
) -> Option<(LabelId, VertexId)> {
    let total: usize = (0..num_labels).map(|l| row(l).len()).sum();
    if total == 0 {
        return None;
    }
    let mut k = rng.random_range(0..total);
    (0..num_labels).find_map(|l| {
        let r = row(l);
        match r.get(k) {
            Some(&v) => Some((l, v)),
            None => {
                k -= r.len();
                None
            }
        }
    })
}

/// A small random graph: edges among the first vertices only (the rest
/// are an isolated tail), self-loops allowed, one pair joined under two
/// labels, and with two or more labels one label left empty.
fn random_graph(rng: &mut StdRng) -> LabeledGraph {
    let labels: LabelId = rng.random_range(1..=40);
    let active: VertexId = rng.random_range(2..=12);
    let tail: VertexId = rng.random_range(0..=6);
    let empty = (labels >= 2).then(|| rng.random_range(0..labels));
    let mut b = GraphBuilder::with_labels((active + tail) as usize, labels as usize);
    let label = |rng: &mut StdRng| loop {
        let l = rng.random_range(0..labels);
        if Some(l) != empty {
            return l;
        }
    };
    for _ in 0..rng.random_range(1..=60) {
        let (s, d) = (rng.random_range(0..active), rng.random_range(0..active));
        let l = label(rng);
        b.add_edge(s, d, l);
    }
    let (s, d) = (rng.random_range(0..active), rng.random_range(0..active));
    let (l0, l1) = (label(rng), label(rng));
    b.add_edge(s, d, l0);
    b.add_edge(s, d, l1);
    b.build()
}

#[test]
fn indexed_sampler_draws_what_the_label_walk_draws() {
    const CASES: u64 = 256;
    const DRAWS_PER_TEMPLATE: usize = 8;
    let mut found = 0usize;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let graph = random_graph(&mut rng);
        let seed = rng.random();
        for family in FAMILIES {
            let mut indexed = EmbeddingSampler::new(&graph, seed);
            let mut walk = WalkSampler::new(&graph, seed);
            for template in family.templates() {
                for draw in 0..DRAWS_PER_TEMPLATE {
                    let got = indexed.sample(&template);
                    let want = walk.sample(&template);
                    assert_eq!(
                        got,
                        want,
                        "case {case}, {} {}, draw {draw}",
                        family.name(),
                        template.name
                    );
                    found += got.is_some() as usize;
                }
            }
        }
    }
    // The comparison must cover embeddings, not only `None`s.
    assert!(found > 1_000, "only {found} embeddings found");
}
