//! Baseline summary-based estimators: Characteristic Sets, SumRDF-style
//! summaries, and the RDF-3X default estimator (Sections 6.4, 6.6).

use ceg_graph::LabelId;
use ceg_query::{QueryGraph, VarId};

use crate::traits::CardinalityEstimator;
use crate::{CharacteristicSets, SummaryGraph};

/// Characteristic Sets estimator (Neumann & Moerkotte).
///
/// The query is decomposed into out-stars (every edge belongs to the star
/// rooted at its source variable); each star is estimated from the CS
/// statistics; the star estimates are multiplied, and each join link
/// between stars contributes an independence-assumption selectivity of
/// `1/|V|` (the probability that the two star attributes meet on the same
/// vertex). As the paper observes, this underestimates on virtually every
/// multi-star query.
pub struct CsEstimator<'a> {
    cs: &'a CharacteristicSets,
}

impl<'a> CsEstimator<'a> {
    pub fn new(cs: &'a CharacteristicSets) -> Self {
        CsEstimator { cs }
    }

    /// Decompose into (center, labels) out-stars.
    fn stars(query: &QueryGraph) -> Vec<(VarId, Vec<LabelId>)> {
        let mut stars: Vec<(VarId, Vec<LabelId>)> = Vec::new();
        for e in query.edges() {
            match stars.iter_mut().find(|(c, _)| *c == e.src) {
                Some((_, ls)) => ls.push(e.label),
                None => stars.push((e.src, vec![e.label])),
            }
        }
        stars
    }
}

impl CardinalityEstimator for CsEstimator<'_> {
    fn name(&self) -> String {
        "CS".into()
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        let stars = Self::stars(query);
        if stars.is_empty() {
            return Some(self.cs.num_vertices() as f64);
        }
        let mut est = 1.0f64;
        // count variable occurrences across stars to derive join links
        let mut occurrences = vec![0u32; query.num_vars() as usize];
        for (center, labels) in &stars {
            est *= self.cs.estimate_star(labels);
            // vars of this star: center + one leaf per edge; leaves are
            // the dst of each edge rooted here
            let mut star_vars: Vec<VarId> = vec![*center];
            for e in query.edges().iter().filter(|e| e.src == *center) {
                if !star_vars.contains(&e.dst) {
                    star_vars.push(e.dst);
                }
            }
            for v in star_vars {
                occurrences[v as usize] += 1;
            }
        }
        let links: u32 = occurrences.iter().map(|&o| o.saturating_sub(1)).sum();
        let n = self.cs.num_vertices().max(1) as f64;
        est *= n.powi(-(links as i32));
        Some(est)
    }
}

/// SumRDF-style estimator over a bucketed summary graph, with a work
/// budget that models the paper's SumRDF timeouts.
pub struct SumRdfEstimator<'a> {
    summary: &'a SummaryGraph,
    budget: u64,
}

impl<'a> SumRdfEstimator<'a> {
    pub fn new(summary: &'a SummaryGraph, budget: u64) -> Self {
        SumRdfEstimator { summary, budget }
    }
}

impl CardinalityEstimator for SumRdfEstimator<'_> {
    fn name(&self) -> String {
        "SumRDF".into()
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        self.summary.estimate(query, self.budget)
    }
}

/// RDF-3X-style default estimator: relation cardinalities multiplied with
/// per-join "magic constant" selectivities (the open-source RDF-3X
/// estimator the paper describes in Section 6.6: "basic statistics about
/// the original triple counts and some 'magic' constants"). Deliberately
/// crude — it is the baseline whose plans the injected estimators beat.
pub struct Rdf3xDefaultEstimator {
    label_counts: Vec<usize>,
    magic: f64,
}

impl Rdf3xDefaultEstimator {
    pub fn new(graph: &ceg_graph::LabeledGraph) -> Self {
        Rdf3xDefaultEstimator {
            label_counts: (0..graph.num_labels() as LabelId)
                .map(|l| graph.label_count(l))
                .collect(),
            magic: 0.01,
        }
    }
}

impl CardinalityEstimator for Rdf3xDefaultEstimator {
    fn name(&self) -> String {
        "RDF-3X".into()
    }

    fn estimate(&mut self, query: &QueryGraph) -> Option<f64> {
        let mut est = 1.0f64;
        for e in query.edges() {
            est *= *self.label_counts.get(e.label as usize).unwrap_or(&0) as f64;
        }
        // one magic selectivity per join (shared variable occurrence)
        let joins: usize = (0..query.num_vars())
            .map(|v| query.var_degree(v).saturating_sub(1))
            .sum();
        est *= self.magic.powi(joins as i32);
        Some(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(20);
        for i in 0..5 {
            b.add_edge(i, 5 + i, 0);
            b.add_edge(i, 10 + i, 1);
            b.add_edge(5 + i, 15 + (i % 2), 2);
        }
        b.build()
    }

    #[test]
    fn cs_star_estimate_is_exact_on_pure_stars() {
        // every vertex 0..5 has exactly one 0-edge and one 1-edge: CS is
        // exact on the 2-star
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        let q = templates::star(2, &[0, 1]);
        let est = CsEstimator::new(&cs).estimate(&q).unwrap();
        assert!((est - count(&g, &q) as f64).abs() < 1e-9);
    }

    #[test]
    fn cs_underestimates_paths() {
        let g = toy();
        let cs = CharacteristicSets::build(&g);
        let q = templates::path(2, &[0, 2]);
        let est = CsEstimator::new(&cs).estimate(&q).unwrap();
        let truth = count(&g, &q) as f64;
        assert!(truth > 0.0);
        assert!(est < truth, "CS should underestimate: {est} vs {truth}");
    }

    #[test]
    fn sumrdf_single_relation_exact() {
        let g = toy();
        let s = SummaryGraph::build(&g, 16);
        let q = templates::path(1, &[2]);
        let est = SumRdfEstimator::new(&s, u64::MAX).estimate(&q).unwrap();
        assert!((est - g.label_count(2) as f64).abs() < 1e-9);
    }

    #[test]
    fn sumrdf_times_out_gracefully() {
        let g = toy();
        let s = SummaryGraph::build(&g, 16);
        let q = templates::path(3, &[0, 2, 2]);
        assert_eq!(SumRdfEstimator::new(&s, 1).estimate(&q), None);
    }

    #[test]
    fn rdf3x_is_deterministic_and_positive() {
        let g = toy();
        let mut est = Rdf3xDefaultEstimator::new(&g);
        let q = templates::path(2, &[0, 2]);
        let v = est.estimate(&q).unwrap();
        assert!(v > 0.0);
        assert_eq!(est.estimate(&q), Some(v));
    }
}
