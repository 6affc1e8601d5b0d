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

use ceg_exec::{exact_count, map_ordered, CountBudget};
use ceg_graph::{LabelId, LabeledGraph, VertexId};
use ceg_query::{templates, QueryGraph};
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

/// What became of one template's share of a [`Workload::build`]:
/// `sampled = over_budget + empty + kept`, and a template is short
/// (`kept < want`) only when `attempts` reached its cap of `400 x want`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateReport {
    pub template: String,
    /// Instances asked for (`per_template`).
    pub want: usize,
    /// Tries at embedding the template in the data.
    pub attempts: usize,
    /// Tries that found an embedding, so an instance to count.
    pub sampled: usize,
    /// Instances dropped because their truth ran out of [`TRUTH_BUDGET`].
    pub over_budget: usize,
    /// Instances dropped because their truth was not positive.
    pub empty: usize,
    /// Instances in the pool.
    pub kept: usize,
}

/// Expansions the backtracking matcher may spend on one cyclic instance's
/// truth before the instance is dropped (G-CARE's convention).
pub const TRUTH_BUDGET: CountBudget = CountBudget {
    max_expansions: 30_000_000,
    deadline: None,
};

/// Instances x data edges a round of truths must bring for each thread
/// beyond the caller's. A tree truth costs about 1.4 ns per instance and
/// edge (22-29 us each on the IMDb stand-in at 9,000 vertices and 18,660
/// edges, 2 vCPU), so this is ~0.7 ms of counting. Measured there, a
/// second thread pays from ~8 instances (150k) when its core is idle but
/// only past ~70 (1.3M) when the core is busy, and where it does not pay
/// it costs 10-30 us; half a million sits between the two.
const ROUND_WORK_PER_WORKER: usize = 500_000;

/// A template as a function of its edge labels.
type MakeQuery = Box<dyn Fn(&[LabelId]) -> QueryGraph>;

/// One template of a family: `make` turns one label per edge into the
/// query, and the sampler matches `shape`'s edges in `order`.
#[doc(hidden)]
pub struct Template {
    pub name: String,
    make: MakeQuery,
    /// The unlabeled template and the order its edges are matched in, the
    /// same for every attempt.
    pub shape: QueryGraph,
    pub order: Vec<usize>,
}

impl Template {
    fn new(
        name: impl Into<String>,
        num_labels: usize,
        make: impl Fn(&[LabelId]) -> QueryGraph + 'static,
    ) -> Self {
        let shape = make(&vec![0; num_labels]);
        let order = edge_walk_order(&shape);
        Template {
            name: name.into(),
            make: Box::new(make),
            shape,
            order,
        }
    }

    /// The template with `labels[i]` on its edge `i`.
    pub fn instantiate(&self, labels: &[LabelId]) -> QueryGraph {
        (self.make)(labels)
    }
}

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
        self.build_reported(graph, per_template, seed).0
    }

    /// [`Workload::build`] and, per template in generation order, what the
    /// attempt cap and the truth budget made of it.
    pub fn build_reported(
        &self,
        graph: &LabeledGraph,
        per_template: usize,
        seed: u64,
    ) -> (Vec<WorkloadQuery>, Vec<TemplateReport>) {
        let cores = ceg_catalog::default_build_parallelism();
        let workers =
            |round: usize| cores.min(1 + round * graph.num_edges() / ROUND_WORK_PER_WORKER);
        self.build_with(graph, per_template, seed, &workers, TRUTH_BUDGET)
    }

    /// [`Workload::build_reported`] counting each round of `n` instances
    /// on up to `workers(n)` threads under `budget`. The pool does not
    /// depend on `workers`; `tests/prop_workload_parallel.rs` holds it to
    /// that.
    #[doc(hidden)]
    pub fn build_with(
        &self,
        graph: &LabeledGraph,
        per_template: usize,
        seed: u64,
        workers: &dyn Fn(usize) -> usize,
        budget: CountBudget,
    ) -> (Vec<WorkloadQuery>, Vec<TemplateReport>) {
        let mut sampler = EmbeddingSampler::new(graph, seed);
        let mut out = Vec::new();
        let reports = self
            .templates()
            .iter()
            .map(|t| generate(&mut sampler, t, per_template, workers, budget, &mut out))
            .collect();
        (out, reports)
    }

    /// The family's templates, in generation order.
    #[doc(hidden)]
    pub fn templates(&self) -> Vec<Template> {
        let tree = |k: usize, d: usize| {
            Template::new(format!("tree-{k}-d{d}"), k, move |l| {
                templates::tree_depth(k, d, l)
            })
        };
        match self {
            Workload::Job => (0..7usize)
                .map(|idx| {
                    let n = templates::job_template_size(idx);
                    Template::new(format!("job-{idx}"), n, move |l| {
                        templates::job_template(idx, l)
                    })
                })
                .collect(),
            Workload::Acyclic => [6usize, 7, 8]
                .into_iter()
                .flat_map(|k| (2..=k).map(move |d| tree(k, d)))
                .collect(),
            Workload::Cyclic => vec![
                Template::new("cycle-4", 4, |l| templates::cycle(4, l)),
                Template::new("diamond-x", 5, templates::diamond_cross),
                Template::new("cycle-6", 6, |l| templates::cycle(6, l)),
                Template::new("clique4", 6, templates::clique4),
                Template::new("two-triangles", 6, templates::two_triangles),
                Template::new("square-triangle", 7, templates::square_triangle),
                Template::new("square-2triangles", 8, templates::square_two_triangles),
            ],
            Workload::GCareAcyclic => [3usize, 6, 9, 12]
                .into_iter()
                .flat_map(|k| {
                    let star =
                        Template::new(format!("star-{k}"), k, move |l| templates::star(k, l));
                    let path =
                        Template::new(format!("path-{k}"), k, move |l| templates::path(k, l));
                    let mut temps = vec![star, path];
                    if k >= 6 {
                        temps.push(tree(k, k / 2));
                    }
                    temps
                })
                .collect(),
            Workload::GCareCyclic => vec![
                Template::new("cycle-6", 6, |l| templates::cycle(6, l)),
                Template::new("cycle-9", 9, |l| templates::cycle(9, l)),
                Template::new("clique4", 6, templates::clique4),
                Template::new("flower-6", 6, templates::flower),
                Template::new("petal-6", 6, |l| templates::petal(3, 2, l)),
                Template::new("petal-9", 9, |l| templates::petal(3, 3, l)),
            ],
        }
    }
}

/// Generate up to `want` non-empty instances of one template, in rounds:
/// draw as many embeddings as are still wanted, one after the other from
/// the sampler's RNG; count their truths together; keep the positive,
/// in-budget ones in draw order. Only sampling consumes the RNG, and a
/// round never holds more instances than are still wanted, so it never
/// draws past the point where counting each instance before drawing the
/// next would have stopped: the pool is the same at any `workers`.
fn generate(
    sampler: &mut EmbeddingSampler,
    template: &Template,
    want: usize,
    workers: &dyn Fn(usize) -> usize,
    budget: CountBudget,
    out: &mut Vec<WorkloadQuery>,
) -> TemplateReport {
    let mut report = TemplateReport {
        template: template.name.clone(),
        want,
        attempts: 0,
        sampled: 0,
        over_budget: 0,
        empty: 0,
        kept: 0,
    };
    let graph = sampler.graph;
    let max_attempts = want * 400;
    let mut round: Vec<QueryGraph> = Vec::new();
    while report.kept < want && report.attempts < max_attempts {
        while round.len() < want - report.kept && report.attempts < max_attempts {
            report.attempts += 1;
            // instantiate by random embedding: match the (unlabeled)
            // template one edge at a time in the data; this guarantees a
            // non-empty instance with data-driven label combinations
            round.extend(sampler.sample(template));
        }
        report.sampled += round.len();
        let truths = map_ordered(&round, workers(round.len()), |q| {
            exact_count(graph, q, budget)
        });
        for (query, truth) in round.drain(..).zip(truths) {
            match truth {
                None => report.over_budget += 1, // ground truth too expensive
                Some(truth) if truth <= 0.0 => report.empty += 1,
                Some(truth) => {
                    report.kept += 1;
                    out.push(WorkloadQuery {
                        query,
                        template: template.name.clone(),
                        truth,
                    });
                }
            }
        }
    }
    report
}

/// Draws instances of a template by embedding it at random in the data.
/// One seeded RNG serves a whole [`Workload::build`], template after
/// template.
///
/// Each extension step draws uniformly from the (label, neighbour) pairs
/// of a bound vertex across all labels, so the sampler builds, once, an
/// all-label adjacency index per direction (`AllLabelRows`: two
/// counting passes over the relations, about 12 B per edge and 8 B per
/// vertex for both). A one-bound step is then one `random_range` over a
/// vertex's list and one index into it, and a closing edge a binary
/// search per label run of the shorter of the source's out-list and the
/// target's in-list. Every draw is the
/// `random_range` call, with the same bound, that a walk over the
/// per-label rows makes, and resolves to the same pick, so the RNG
/// stream, and with it every pool, is the one that walk gives.
#[doc(hidden)]
pub struct EmbeddingSampler<'a> {
    graph: &'a LabeledGraph,
    rng: StdRng,
    /// Every vertex's out-edges and in-edges across all labels.
    out: AllLabelRows,
    inn: AllLabelRows,
    /// Buffers kept across the up to `40 x 400 x want` tries per
    /// template: the data vertex bound to each variable and the label
    /// matched by each template edge.
    binding: Vec<VertexId>,
    labels: Vec<LabelId>,
}

impl<'a> EmbeddingSampler<'a> {
    pub fn new(graph: &'a LabeledGraph, seed: u64) -> Self {
        EmbeddingSampler {
            graph,
            rng: StdRng::seed_from_u64(seed ^ 0xabcd_ef01),
            out: AllLabelRows::new(graph, false),
            inn: AllLabelRows::new(graph, true),
            binding: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// One attempt at an instance of `template`: the template labeled by
    /// a random embedding, `None` when 40 tries found none.
    pub fn sample(&mut self, template: &Template) -> Option<QueryGraph> {
        self.sample_embedding_labels(&template.shape, &template.order)
            .then(|| template.instantiate(&self.labels))
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
                let (s, d) = (self.binding[e.src as usize], self.binding[e.dst as usize]);
                let rng = &mut self.rng;
                let picked = match (sb, db) {
                    (true, true) => draw_closing(&self.out, &self.inn, rng, s, d).map(|l| (l, d)),
                    (true, false) => self.out.draw(rng, s),
                    (false, true) => self.inn.draw(rng, d),
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

/// Every vertex's edges in one direction across all labels, in (label,
/// neighbour) order: `v`'s rows under labels `0, 1, ...` laid end to end,
/// as parallel label and neighbour arrays.
struct AllLabelRows {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s entries.
    offsets: Vec<u32>,
    labels: Vec<LabelId>,
    neighbours: Vec<VertexId>,
}

impl AllLabelRows {
    /// Two counting passes over the relations' rows (forward, or with
    /// `backward` the in-edges): one for the per-vertex totals, one to
    /// scatter. `offsets[v + 1]` counts `v`'s entries, then becomes its
    /// start and, advanced per row written, its end; labels are visited
    /// in order and each row is sorted, so each vertex's list comes out
    /// in (label, neighbour) order.
    fn new(graph: &LabeledGraph, backward: bool) -> Self {
        assert!(
            graph.num_edges() <= u32::MAX as usize,
            "the sampler's offsets are u32"
        );
        let all_labels = || 0..graph.num_labels() as LabelId;
        let mut offsets = vec![0u32; graph.num_vertices() + 1];
        for l in all_labels() {
            for (v, row) in graph.rows(l, backward) {
                offsets[v as usize + 1] += row.len() as u32;
            }
        }
        let mut start = 0u32;
        for o in &mut offsets[1..] {
            let count = *o;
            *o = start;
            start += count;
        }
        let mut labels = vec![0; start as usize];
        let mut neighbours = vec![0; start as usize];
        for l in all_labels() {
            for (v, row) in graph.rows(l, backward) {
                let cursor = &mut offsets[v as usize + 1];
                let at = *cursor as usize..*cursor as usize + row.len();
                labels[at.clone()].fill(l);
                neighbours[at].copy_from_slice(row);
                *cursor += row.len() as u32;
            }
        }
        AllLabelRows {
            offsets,
            labels,
            neighbours,
        }
    }

    /// `v`'s labels and neighbours, in (label, neighbour) order.
    fn of(&self, v: VertexId) -> (&[LabelId], &[VertexId]) {
        let r = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        (&self.labels[r.clone()], &self.neighbours[r])
    }

    /// One uniform draw from `v`'s (label, neighbour) pairs: a single
    /// `random_range` over their count. `None`, without a draw, when
    /// there are none.
    fn draw(&self, rng: &mut StdRng, v: VertexId) -> Option<(LabelId, VertexId)> {
        let (labels, neighbours) = self.of(v);
        if labels.is_empty() {
            return None;
        }
        let k = rng.random_range(0..labels.len());
        Some((labels[k], neighbours[k]))
    }
}

/// One uniform draw from the labels `l` with an edge `s -l-> d`, in
/// label order: a binary search for the other end in each label run of
/// the shorter of `s`'s out-list and `d`'s in-list counts them, a single
/// `random_range` picks one. `None`, without a draw, when there are none.
fn draw_closing(
    out: &AllLabelRows,
    inn: &AllLabelRows,
    rng: &mut StdRng,
    s: VertexId,
    d: VertexId,
) -> Option<LabelId> {
    let (from_s, from_d) = (out.of(s), inn.of(d));
    let ((labels, neighbours), other) = if from_s.0.len() <= from_d.0.len() {
        (from_s, d)
    } else {
        (from_d, s)
    };
    let closing = || {
        let mut i = 0;
        std::iter::from_fn(move || {
            while i < labels.len() {
                let l = labels[i];
                let end = i + labels[i..].partition_point(|&x| x == l);
                let found = neighbours[i..end].binary_search(&other).is_ok();
                i = end;
                if found {
                    return Some(l);
                }
            }
            None
        })
    };
    let total = closing().count();
    if total == 0 {
        return None;
    }
    closing().nth(rng.random_range(0..total))
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
