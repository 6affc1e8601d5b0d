//! The five workloads of Section 6.1, instantiated with ground truth.
//!
//! * **JOB** — seven acyclic join templates (four 4-edge, two 5-edge, one
//!   6-edge) on the IMDb stand-in, random labels, non-empty instances;
//! * **Acyclic** — 6/7/8-edge templates with one pattern per possible
//!   depth (Figure 8), random labels;
//! * **Cyclic** — 4-cycle, diamond+chord, 6-cycle, K4, two-triangles,
//!   square+triangle(s); instances generated by randomly matching the
//!   template one edge at a time in the data, as the paper does;
//! * **G-CARE-Acyclic** — 3/6/9/12-edge stars, paths and random trees;
//! * **G-CARE-Cyclic** — 6/9-edge cycles, 6-edge clique, flower, 6/9-edge
//!   petals.

use ceg_exec::{exact_count, CountBudget};
use ceg_graph::{LabelId, LabeledGraph, VertexId};
use ceg_query::{templates, QueryEdge, QueryGraph, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One query instance with its exact cardinality.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    pub query: QueryGraph,
    /// Template name, e.g. `path-6` or `clique4`.
    pub template: String,
    /// Exact cardinality (may exceed `u64`, hence `f64`).
    pub truth: f64,
}

/// Named template constructor used by the cyclic workload tables.
type TemplateSpec = (&'static str, usize, fn(&[LabelId]) -> QueryGraph);

/// The five workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Job,
    Acyclic,
    Cyclic,
    GCareAcyclic,
    GCareCyclic,
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Job => "JOB",
            Workload::Acyclic => "Acyclic",
            Workload::Cyclic => "Cyclic",
            Workload::GCareAcyclic => "G-CARE-Acyclic",
            Workload::GCareCyclic => "G-CARE-Cyclic",
        }
    }

    /// Build the workload on `graph`: `per_template` non-empty instances
    /// of each template, deterministic in `seed`.
    pub fn build(
        &self,
        graph: &LabeledGraph,
        per_template: usize,
        seed: u64,
    ) -> Vec<WorkloadQuery> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
        let mut out = Vec::new();
        let budget = CountBudget::new(30_000_000);
        let mut gen = InstanceGen {
            graph,
            rng: &mut rng,
            budget,
            binding: Vec::new(),
            labels: Vec::new(),
            cands: Vec::new(),
        };
        match self {
            Workload::Job => {
                for idx in 0..7usize {
                    let n = templates::job_template_size(idx);
                    gen.generate(&format!("job-{idx}"), n, per_template, &mut out, |labels| {
                        templates::job_template(idx, labels)
                    });
                }
            }
            Workload::Acyclic => {
                for k in [6usize, 7, 8] {
                    for d in 2..=k {
                        gen.generate(
                            &format!("tree-{k}-d{d}"),
                            k,
                            per_template,
                            &mut out,
                            |labels| templates::tree_depth(k, d, labels),
                        );
                    }
                }
            }
            Workload::Cyclic => {
                let temps: Vec<TemplateSpec> = vec![
                    ("cycle-4", 4, |l| templates::cycle(4, l)),
                    ("diamond-x", 5, templates::diamond_cross),
                    ("cycle-6", 6, |l| templates::cycle(6, l)),
                    ("clique4", 6, templates::clique4),
                    ("two-triangles", 6, templates::two_triangles),
                    ("square-triangle", 7, templates::square_triangle),
                    ("square-2triangles", 8, templates::square_two_triangles),
                ];
                for (name, n, f) in temps {
                    gen.generate(name, n, per_template, &mut out, f);
                }
            }
            Workload::GCareAcyclic => {
                for k in [3usize, 6, 9, 12] {
                    gen.generate(&format!("star-{k}"), k, per_template, &mut out, |l| {
                        templates::star(k, l)
                    });
                    gen.generate(&format!("path-{k}"), k, per_template, &mut out, |l| {
                        templates::path(k, l)
                    });
                    if k >= 6 {
                        let d = k / 2;
                        gen.generate(&format!("tree-{k}-d{d}"), k, per_template, &mut out, |l| {
                            templates::tree_depth(k, d, l)
                        });
                    }
                }
            }
            Workload::GCareCyclic => {
                let temps: Vec<TemplateSpec> = vec![
                    ("cycle-6", 6, |l| templates::cycle(6, l)),
                    ("cycle-9", 9, |l| templates::cycle(9, l)),
                    ("clique4", 6, templates::clique4),
                    ("flower-6", 6, templates::flower),
                    ("petal-6", 6, |l| templates::petal(3, 2, l)),
                    ("petal-9", 9, |l| templates::petal(3, 3, l)),
                ];
                for (name, n, f) in temps {
                    gen.generate(name, n, per_template, &mut out, f);
                }
            }
        }
        out
    }
}

struct InstanceGen<'a> {
    graph: &'a LabeledGraph,
    rng: &'a mut StdRng,
    budget: CountBudget,
    /// Buffers of [`InstanceGen::sample_embedding_labels`], kept across
    /// its up to `40 x 400 x want` tries per template: the data vertex
    /// bound to each variable, the label matched by each template edge,
    /// and the extensions of the edge being matched.
    binding: Vec<VertexId>,
    labels: Vec<LabelId>,
    cands: Vec<(LabelId, VertexId)>,
}

impl InstanceGen<'_> {
    /// Generate up to `want` non-empty instances of one template.
    fn generate(
        &mut self,
        name: &str,
        num_labels: usize,
        want: usize,
        out: &mut Vec<WorkloadQuery>,
        build: impl Fn(&[LabelId]) -> QueryGraph,
    ) {
        let mut made = 0;
        let mut attempts = 0;
        let max_attempts = want * 400;
        // The unlabeled template and the order its edges are matched in
        // are the same for every attempt.
        let shape = build(&vec![0; num_labels]);
        let order = edge_walk_order(&shape);
        while made < want && attempts < max_attempts {
            attempts += 1;
            // instantiate by random embedding: match the (unlabeled)
            // template one edge at a time in the data; this guarantees a
            // non-empty instance with data-driven label combinations
            if !self.sample_embedding_labels(&shape, &order) {
                continue;
            }
            let q = build(&self.labels);
            let Some(truth) = exact_count(self.graph, &q, self.budget) else {
                continue; // ground truth too expensive; skip instance
            };
            if truth <= 0.0 {
                continue;
            }
            out.push(WorkloadQuery {
                query: q,
                template: name.to_string(),
                truth,
            });
            made += 1;
        }
    }

    /// Randomly embed `shape` (ignoring its labels) into the data graph,
    /// matching its edges in `order`; on success `self.labels` holds the
    /// matched edges' labels in template-edge order.
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
                self.cands.clear();
                let (s, d) = (self.binding[e.src as usize], self.binding[e.dst as usize]);
                match (sb, db) {
                    (true, true) => {
                        for l in 0..nl {
                            if self.graph.has_edge(s, d, l) {
                                self.cands.push((l, d));
                            }
                        }
                    }
                    (true, false) => {
                        for l in 0..nl {
                            let row = self.graph.out_neighbors(s, l);
                            self.cands.extend(row.iter().map(|&d| (l, d)));
                        }
                    }
                    (false, true) => {
                        for l in 0..nl {
                            let row = self.graph.in_neighbors(d, l);
                            self.cands.extend(row.iter().map(|&s| (l, s)));
                        }
                    }
                    (false, false) => continue 'retry,
                }
                if self.cands.is_empty() {
                    continue 'retry;
                }
                let (l, v) = self.cands[self.rng.random_range(0..self.cands.len())];
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

/// Order template edges so each one (after the first) touches a
/// previously-visited variable.
fn edge_walk_order(shape: &QueryGraph) -> Vec<usize> {
    let m = shape.num_edges();
    let mut order = vec![0usize];
    let e0 = shape.edge(0);
    let mut bound: u32 = (1 << e0.src) | (1 << e0.dst);
    let mut used = 1u32;
    while order.len() < m {
        let next = (0..m)
            .find(|&i| {
                used & (1 << i) == 0 && {
                    let e = shape.edge(i);
                    bound & ((1 << e.src) | (1 << e.dst)) != 0
                }
            })
            .expect("templates are connected");
        let e = shape.edge(next);
        bound |= (1 << e.src) | (1 << e.dst);
        used |= 1 << next;
        order.push(next);
    }
    order
}

/// Convenience used by tests: a hand-rolled single-edge query.
pub fn single_edge(label: LabelId) -> QueryGraph {
    QueryGraph::new(2, vec![QueryEdge::new(0 as VarId, 1, label)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use ceg_query::cycles;

    fn small_graph() -> LabeledGraph {
        Dataset::Hetionet.generate(42)
    }

    #[test]
    fn job_instances_are_acyclic_and_nonempty() {
        let g = small_graph();
        let w = Workload::Job.build(&g, 2, 1);
        assert!(!w.is_empty());
        for wq in &w {
            assert!(wq.truth > 0.0, "{}", wq.template);
            assert!(cycles::is_acyclic(&wq.query));
        }
    }

    #[test]
    fn acyclic_workload_covers_all_depths() {
        let g = small_graph();
        let w = Workload::Acyclic.build(&g, 1, 2);
        let mut templates: Vec<&str> = w.iter().map(|q| q.template.as_str()).collect();
        templates.dedup();
        // 18 templates total (k-1 per k ∈ {6,7,8}); most should instantiate
        assert!(templates.len() >= 12, "only {} templates", templates.len());
    }

    #[test]
    fn cyclic_instances_are_cyclic() {
        let g = small_graph();
        let w = Workload::Cyclic.build(&g, 1, 3);
        assert!(!w.is_empty());
        for wq in &w {
            assert!(!cycles::is_acyclic(&wq.query), "{}", wq.template);
            assert!(wq.truth > 0.0);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let g = small_graph();
        let a = Workload::Job.build(&g, 1, 9);
        let b = Workload::Job.build(&g, 1, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn gcare_acyclic_has_large_queries() {
        let g = small_graph();
        let w = Workload::GCareAcyclic.build(&g, 1, 4);
        let max_edges = w.iter().map(|q| q.query.num_edges()).max().unwrap();
        assert!(max_edges >= 9, "largest query only {max_edges} edges");
    }
}
