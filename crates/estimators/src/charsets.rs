//! Characteristic Sets statistics (Neumann & Moerkotte), the CS baseline
//! of Section 6.4.
//!
//! The characteristic set of a vertex is its set of distinct outgoing edge
//! labels. For each characteristic set we store how many vertices share it
//! and, per label, the total number of edges — enough to estimate star
//! cardinalities, which the CS estimator then multiplies under an
//! independence assumption for non-star queries.

use ceg_graph::{FxHashMap, LabelId, LabeledGraph};

/// Statistics of one characteristic-set class.
#[derive(Debug, Clone, Default)]
pub struct CsClass {
    /// Number of vertices whose outgoing-label set equals this class.
    pub count: u64,
    /// Per label in the set: total number of outgoing edges over the class
    /// (so `total / count` is the class-average multiplicity).
    pub label_totals: FxHashMap<LabelId, u64>,
}

/// The full characteristic-sets catalogue of a graph.
#[derive(Debug, Clone)]
pub struct CharacteristicSets {
    classes: FxHashMap<Vec<LabelId>, CsClass>,
    num_vertices: u64,
}

impl CharacteristicSets {
    /// Scan the graph and group vertices by characteristic set.
    pub fn build(graph: &LabeledGraph) -> Self {
        let mut classes: FxHashMap<Vec<LabelId>, CsClass> = FxHashMap::default();
        for v in 0..graph.num_vertices() as u32 {
            let mut cs: Vec<LabelId> = Vec::new();
            for l in 0..graph.num_labels() as LabelId {
                if graph.out_degree(v, l) > 0 {
                    cs.push(l);
                }
            }
            if cs.is_empty() {
                continue;
            }
            let class = classes.entry(cs.clone()).or_default();
            class.count += 1;
            for l in cs {
                *class.label_totals.entry(l).or_insert(0) += graph.out_degree(v, l) as u64;
            }
        }
        CharacteristicSets {
            classes,
            num_vertices: graph.num_vertices() as u64,
        }
    }

    /// Domain size (used for the join-independence correction).
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Estimate the number of (homomorphic) matches of an out-star whose
    /// center has the given outgoing labels (with multiplicity): the paper's
    /// CS star estimate `Σ_{cs ⊇ labels} count(cs) · Π avg-multiplicity`.
    pub fn estimate_star(&self, labels: &[LabelId]) -> f64 {
        if labels.is_empty() {
            return self.num_vertices as f64;
        }
        let mut needed: Vec<LabelId> = labels.to_vec();
        needed.sort_unstable();
        let mut distinct = needed.clone();
        distinct.dedup();
        let mut total = 0.0f64;
        for (cs, class) in &self.classes {
            if !distinct.iter().all(|l| cs.contains(l)) {
                continue;
            }
            let mut est = class.count as f64;
            for l in &needed {
                let avg = class.label_totals[l] as f64 / class.count as f64;
                est *= avg;
            }
            total += est;
        }
        total
    }

    /// Iterate classes (for reporting).
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<LabelId>, &CsClass)> {
        self.classes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    /// Vertices 0,1 have labels {0,1}; vertex 2 has {0} only.
    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 3, 0);
        b.add_edge(0, 4, 0);
        b.add_edge(0, 5, 1);
        b.add_edge(1, 6, 0);
        b.add_edge(1, 7, 1);
        b.add_edge(2, 8, 0);
        b.build()
    }

    #[test]
    fn classes_group_by_label_set() {
        let cs = CharacteristicSets::build(&toy());
        assert_eq!(cs.classes.len(), 2); // {0,1} and {0}
    }

    #[test]
    fn star_estimate_is_exact_for_single_label() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        // 1-star with label 0 = |R_0| = 4
        assert!((cs.estimate_star(&[0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn star_estimate_matches_truth_on_uniform_class() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        // 2-star {0,1}: truth = Σ_v out0(v)·out1(v) = 2·1 + 1·1 = 3
        let truth = count(&g, &templates::star(2, &[0, 1])) as f64;
        let est = cs.estimate_star(&[0, 1]);
        // class {0,1} has avg out0 = 1.5, out1 = 1 → est = 2·1.5·1 = 3
        assert!((est - truth).abs() < 1e-9, "est={est} truth={truth}");
    }

    #[test]
    fn repeated_label_star_uses_multiplicity() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        // 2-star with label 0 twice: estimate uses avg² per class
        let est = cs.estimate_star(&[0, 0]);
        // class {0,1}: 2·1.5² = 4.5; class {0}: 1·1² = 1 → 5.5
        assert!((est - 5.5).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn empty_star_counts_vertices() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        assert_eq!(cs.estimate_star(&[]), 10.0);
    }

    #[test]
    fn unknown_label_star_is_zero() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        assert_eq!(cs.estimate_star(&[9]), 0.0);
    }
}
