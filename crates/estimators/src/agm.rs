//! The AGM bound (Atserias–Grohe–Marx): the fractional-edge-cover upper
//! bound using only relation cardinalities.
//!
//! ```text
//!   minimize Σ_i w_i · log|R_i|
//!   s.t.     Σ_{i : a ∈ A_i} w_i ≥ 1      ∀ attributes a
//!            w ≥ 0
//! ```
//!
//! MOLP refines AGM with degree information, so `MOLP ≤ AGM` always
//! (verified by tests). Solved through the covering dual in [`crate::lp`].

use ceg_query::QueryGraph;

use crate::lp;
use crate::DegreeStats;

/// The AGM bound in linear space.
pub fn agm_bound(query: &QueryGraph, stats: &DegreeStats) -> f64 {
    let m = query.num_edges();
    let nv = query.num_vars() as usize;
    let mut c = Vec::with_capacity(m);
    for e in query.edges() {
        let card = stats.label(e.label).cardinality;
        if card == 0 {
            return 0.0;
        }
        c.push((card as f64).ln());
    }
    // coverage constraints: one per attribute
    let mut rows = Vec::with_capacity(nv);
    let mut b = Vec::with_capacity(nv);
    for v in 0..query.num_vars() {
        let mut row = vec![0.0; m];
        for (i, e) in query.edges().iter().enumerate() {
            if e.touches(v) {
                row[i] = 1.0;
            }
        }
        rows.push(row);
        b.push(1.0);
    }
    match lp::minimize_covering(&c, &rows, &b) {
        Some(obj) => obj.exp(),
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg_m::{molp_bound, MolpInstance};
    use ceg_exec::count;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(12);
        for (s, d, l) in [
            (0, 1, 0),
            (0, 2, 0),
            (3, 2, 0),
            (1, 4, 1),
            (2, 4, 1),
            (2, 5, 1),
            (4, 6, 2),
            (4, 7, 2),
            (5, 7, 2),
        ] {
            b.add_edge(s, d, l);
        }
        b.build()
    }

    #[test]
    fn agm_of_path_is_product_of_cards() {
        // acyclic 2-path: the minimum fractional edge cover takes both
        // relations fully → |R_0| · |R_1|
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        let agm = agm_bound(&q, &stats);
        let expect = (g.label_count(0) * g.label_count(1)) as f64;
        assert!((agm - expect).abs() / expect < 1e-6, "agm {agm}");
    }

    #[test]
    fn agm_of_triangle_is_sqrt_product() {
        // triangle: optimal fractional cover weight 1/2 each →
        // sqrt(|R||S||T|)
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::cycle(3, &[0, 1, 2]);
        let agm = agm_bound(&q, &stats);
        let expect = ((g.label_count(0) * g.label_count(1) * g.label_count(2)) as f64).sqrt();
        assert!(
            (agm - expect).abs() / expect < 1e-6,
            "agm {agm} expect {expect}"
        );
    }

    #[test]
    fn agm_upper_bounds_truth() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[0, 1]),
            templates::cycle(3, &[0, 1, 2]),
        ] {
            let agm = agm_bound(&q, &stats);
            let truth = count(&g, &q) as f64;
            assert!(agm >= truth - 1e-9, "AGM {agm} < truth {truth} for {q}");
        }
    }

    #[test]
    fn molp_at_most_agm_on_acyclic() {
        // On acyclic queries the edge-cover LP has an integral optimum,
        // which corresponds to a CBS coverage, which MOLP dominates
        // (Appendix B). On cyclic queries AGM can be *tighter* than the
        // degree-chain MOLP (e.g. the triangle's sqrt bound), so the
        // comparison only holds for acyclic inputs.
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 1, 2]),
            templates::q5f(&[0, 1, 2, 2, 1]),
        ] {
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
            let agm = agm_bound(&q, &stats);
            assert!(
                molp <= agm * (1.0 + 1e-9),
                "MOLP {molp} > AGM {agm} for {q}"
            );
        }
    }

    #[test]
    fn empty_relation_gives_zero() {
        let g = GraphBuilder::with_labels(3, 1).build();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(1, &[0]);
        assert_eq!(agm_bound(&q, &stats), 0.0);
    }
}
