//! The CBS pessimistic estimator (Cai, Balazinska, Suciu), Section 5.2.
//!
//! CBS enumerates *coverages* — assignments of each query attribute to a
//! relation that "covers" it, where every relation covers 0, `|A_i| - 1`,
//! or `|A_i|` of its attributes — and evaluates each coverage's *bounding
//! formula* `Σ_i log deg(Y_i, R_i)` (`Y_i` = the uncovered attributes of
//! `R_i`). The CBS bound is the minimum over coverages.
//!
//! The paper proves (Appendix B) that on acyclic queries over binary
//! relations CBS is *identical* to MOLP, so BFG/FCG are a brute-force
//! combinatorial MOLP solver; on cyclic queries CBS can be **unsafe**
//! (Appendix C gives a counterexample, reproduced in our tests). Both
//! facts are verified in this module's test suite.

use ceg_query::QueryGraph;

use crate::DegreeStats;

/// One coverage: for each query edge, which of its attributes it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCover {
    /// The relation is unused by the formula.
    None,
    /// Covers only its source attribute (uncovered = dst ⇒ cost is the
    /// max number of sources per destination, `deg(dst, R)`).
    Src,
    /// Covers only its destination attribute.
    Dst,
    /// Covers both attributes (cost `|R|`).
    Both,
}

/// A complete coverage assignment with its bounding-formula cost.
#[derive(Debug, Clone)]
pub struct BoundingFormula {
    pub covers: Vec<EdgeCover>,
    /// `Σ log₂ deg(Y_i, R_i)` in natural log.
    pub cost_ln: f64,
}

impl BoundingFormula {
    /// The bound in linear space.
    pub fn bound(&self) -> f64 {
        self.cost_ln.exp()
    }
}

/// Enumerate every feasible coverage of `query` (each attribute covered at
/// least once) and return the corresponding bounding formulas.
///
/// This is the brute-force BFG/FCG of reference \[5\]: exponential in the
/// number of attributes, fine for the paper's query sizes.
fn bounding_formulas(query: &QueryGraph, stats: &DegreeStats) -> Vec<BoundingFormula> {
    let m = query.num_edges();
    assert!(m <= 16, "CBS cover enumeration limited to 16 relations");
    let mut out = Vec::new();
    let mut covers = vec![EdgeCover::None; m];
    enumerate_covers(query, stats, 0, &mut covers, &mut out);
    out
}

fn enumerate_covers(
    query: &QueryGraph,
    stats: &DegreeStats,
    i: usize,
    covers: &mut Vec<EdgeCover>,
    out: &mut Vec<BoundingFormula>,
) {
    if i == query.num_edges() {
        // feasibility: every attribute covered
        let mut covered = 0u32;
        for (c, e) in covers.iter().zip(query.edges()) {
            match c {
                EdgeCover::None => {}
                EdgeCover::Src => covered |= 1 << e.src,
                EdgeCover::Dst => covered |= 1 << e.dst,
                EdgeCover::Both => covered |= (1 << e.src) | (1 << e.dst),
            }
        }
        if covered != query.all_vars() {
            return;
        }
        let mut cost = 0.0f64;
        for (c, e) in covers.iter().zip(query.edges()) {
            let s = stats.label(e.label);
            let ln = |v: usize| (v.max(1) as f64).ln();
            cost += match c {
                EdgeCover::None => 0.0,
                // covered {src} ⇒ uncovered Y = {dst}: deg(dst, R) = max
                // occurrences of a dst value = max in-degree
                EdgeCover::Src => ln(s.max_in_degree),
                EdgeCover::Dst => ln(s.max_out_degree),
                EdgeCover::Both => ln(s.cardinality),
            };
            if s.cardinality == 0 {
                cost = f64::NEG_INFINITY; // empty relation ⇒ bound 0
            }
        }
        out.push(BoundingFormula {
            covers: covers.clone(),
            cost_ln: cost,
        });
        return;
    }
    for c in [
        EdgeCover::None,
        EdgeCover::Src,
        EdgeCover::Dst,
        EdgeCover::Both,
    ] {
        covers[i] = c;
        enumerate_covers(query, stats, i + 1, covers, out);
    }
    covers[i] = EdgeCover::None;
}

/// The CBS bound: the minimum bounding formula over all coverages.
/// `f64::INFINITY` if no feasible coverage exists (cannot happen for
/// connected queries).
pub fn cbs_bound(query: &QueryGraph, stats: &DegreeStats) -> f64 {
    bounding_formulas(query, stats)
        .into_iter()
        .map(|f| f.bound())
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg_m::{molp_bound, MolpInstance};
    use ceg_exec::count;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::{templates, VarId};

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(12);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(3, 2, 0);
        b.add_edge(1, 4, 1);
        b.add_edge(2, 4, 1);
        b.add_edge(2, 5, 1);
        b.add_edge(4, 6, 2);
        b.add_edge(4, 7, 2);
        b.add_edge(5, 7, 2);
        b.build()
    }

    #[test]
    fn cbs_upper_bounds_acyclic_queries() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[1, 2]),
        ] {
            let bound = cbs_bound(&q, &stats);
            let truth = count(&g, &q) as f64;
            assert!(
                bound >= truth - 1e-9,
                "bound {bound} < truth {truth} for {q}"
            );
        }
    }

    #[test]
    fn appendix_b_cbs_equals_molp_on_acyclic_binary() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::path(4, &[0, 1, 2, 1]),
            templates::star(3, &[0, 1, 2]),
            templates::q5f(&[0, 1, 2, 2, 1]),
            templates::tree_depth(4, 3, &[0, 1, 2, 0]),
        ] {
            let cbs = cbs_bound(&q, &stats);
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
            assert!(
                (cbs.ln() - molp.ln()).abs() < 1e-6,
                "CBS {cbs} != MOLP {molp} on acyclic {q}"
            );
        }
    }

    #[test]
    fn molp_never_exceeds_cbs_on_acyclic() {
        // Appendix B: MOLP is at least as tight as CBS on acyclic queries.
        // (On cyclic queries CBS may be *below* MOLP because its covers
        // can be unsafe — see `appendix_c_counterexample` below.)
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [templates::path(3, &[0, 1, 0]), templates::star(2, &[0, 2])] {
            let cbs = cbs_bound(&q, &stats);
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
            assert!(molp <= cbs + 1e-9, "MOLP {molp} > CBS {cbs} for {q}");
        }
    }

    #[test]
    fn appendix_c_counterexample_cbs_unsafe_on_cycles() {
        // identity relations: R = S = T = {(i, i)}; the triangle has n
        // matches but the (a→R, b→S, c→T) coverage costs
        // deg_in(R)·deg_in(S)·deg_in(T) = 1 — an *underestimate*.
        let n = 8u32;
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(i, i, 0);
            b.add_edge(i, i, 1);
            b.add_edge(i, i, 2);
        }
        let g = b.build();
        let q = templates::cycle(3, &[0, 1, 2]);
        let stats = DegreeStats::build_base(&g);
        let cbs = cbs_bound(&q, &stats);
        let truth = count(&g, &q) as f64;
        assert!(truth >= n as f64);
        assert!(
            cbs < truth,
            "expected the CBS bound ({cbs}) to underestimate the truth ({truth})"
        );
        // MOLP stays safe on the same instance
        let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
        assert!(molp >= truth - 1e-9, "MOLP {molp} must cover truth {truth}");
    }

    /// True if `var` is covered by the formula through edge `i`.
    fn covers_var(query: &QueryGraph, covers: &[EdgeCover], i: usize, var: VarId) -> bool {
        let e = query.edge(i);
        match covers[i] {
            EdgeCover::None => false,
            EdgeCover::Src => e.src == var,
            EdgeCover::Dst => e.dst == var,
            EdgeCover::Both => e.src == var || e.dst == var,
        }
    }

    #[test]
    fn formulas_cover_every_attribute() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        for f in bounding_formulas(&q, &stats) {
            let mut covered = 0u32;
            for i in 0..q.num_edges() {
                for v in 0..q.num_vars() {
                    if covers_var(&q, &f.covers, i, v) {
                        covered |= 1 << v;
                    }
                }
            }
            assert_eq!(covered, q.all_vars());
        }
    }

    #[test]
    fn every_formula_upper_bounds_on_acyclic() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        let truth = count(&g, &q) as f64;
        for f in bounding_formulas(&q, &stats) {
            assert!(f.bound() >= truth - 1e-9, "formula {:?}", f.covers);
        }
    }
}
