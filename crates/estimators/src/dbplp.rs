//! The DBPLP bound (Appendix D).
//!
//! DBPLP is defined per *cover* `C` (a set of `(R_j, A_j)` pairs whose
//! attribute sets union to `A`) as the LP
//!
//! ```text
//!   minimize Σ_a v_a
//!   s.t.  Σ_{a ∈ A_j \ A'_j} v_a ≥ log deg(A'_j, Π_{A_j} R_j)
//!                         ∀ (R_j, A_j) ∈ C, A'_j ⊆ A_j
//! ```
//!
//! Theorem D.1/Corollary D.1: the DBPLP CEG (CEG_D) has the same vertices
//! and a *subset* of CEG_M's edges, hence `MOLP ≤ DBPLP` for every cover.
//! We solve the LP through its covering dual (see [`crate::lp`]) and test
//! the corollary.

use ceg_query::{QueryGraph, VarId};

use crate::lp;
use crate::DegreeStats;

/// A DBPLP cover: per query edge, which of its attributes participate.
/// (`None` = the relation is outside the cover.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverAttrs {
    None,
    SrcOnly,
    DstOnly,
    Both,
}

/// The default cover: every relation with all of its attributes.
pub fn full_cover(query: &QueryGraph) -> Vec<CoverAttrs> {
    vec![CoverAttrs::Both; query.num_edges()]
}

/// Solve DBPLP for `query` under `cover`. Returns the bound in linear
/// space; panics if the cover does not cover every attribute.
pub fn dbplp_bound(query: &QueryGraph, stats: &DegreeStats, cover: &[CoverAttrs]) -> f64 {
    assert_eq!(cover.len(), query.num_edges());
    let nv = query.num_vars() as usize;
    // check coverage
    let mut covered = 0u32;
    for (c, e) in cover.iter().zip(query.edges()) {
        match c {
            CoverAttrs::None => {}
            CoverAttrs::SrcOnly => covered |= 1 << e.src,
            CoverAttrs::DstOnly => covered |= 1 << e.dst,
            CoverAttrs::Both => covered |= (1 << e.src) | (1 << e.dst),
        }
    }
    assert_eq!(covered, query.all_vars(), "cover must span all attributes");

    // Build min Σ v_a, A x ≥ b over the constraints of each pair.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut b: Vec<f64> = Vec::new();
    let mut zero = false;
    for (c, e) in cover.iter().zip(query.edges()) {
        let s = stats.label(e.label);
        if s.cardinality == 0 {
            zero = true;
        }
        let ln = |v: usize| (v.max(1) as f64).ln();
        let mut push = |vars: &[VarId], bound: f64| {
            let mut row = vec![0.0; nv];
            for &v in vars {
                row[v as usize] += 1.0;
            }
            rows.push(row);
            b.push(bound);
        };
        match c {
            CoverAttrs::None => {}
            CoverAttrs::Both => {
                // A_j = {src, dst}: three non-trivial constraints
                // A' = ∅: v_src + v_dst ≥ log |R|
                push(&[e.src, e.dst], ln(s.cardinality));
                // A' = {src}: v_dst ≥ log deg(src→dst) = max out-degree
                push(&[e.dst], ln(s.max_out_degree));
                // A' = {dst}: v_src ≥ log max in-degree
                push(&[e.src], ln(s.max_in_degree));
            }
            CoverAttrs::SrcOnly => {
                // A_j = {src}: projection Π_src R; A' = ∅: v_src ≥ log |π_src R|
                push(&[e.src], ln(s.distinct_sources));
            }
            CoverAttrs::DstOnly => {
                push(&[e.dst], ln(s.distinct_targets));
            }
        }
    }
    if zero {
        return 0.0;
    }
    let c_obj = vec![1.0; nv];
    match lp::minimize_covering(&c_obj, &rows, &b) {
        Some(obj) => obj.exp(),
        None => f64::INFINITY,
    }
}

/// DBPLP under the default full cover.
pub fn dbplp_bound_default(query: &QueryGraph, stats: &DegreeStats) -> f64 {
    dbplp_bound(query, stats, &full_cover(query))
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
    fn dbplp_is_an_upper_bound() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[0, 1]),
            templates::cycle(3, &[0, 1, 2]),
        ] {
            let bound = dbplp_bound_default(&q, &stats);
            let truth = count(&g, &q) as f64;
            assert!(
                bound >= truth - 1e-9,
                "DBPLP {bound} < truth {truth} for {q}"
            );
        }
    }

    #[test]
    fn corollary_d1_molp_at_most_dbplp() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 1, 2]),
            templates::cycle(3, &[0, 1, 2]),
            templates::q5f(&[0, 1, 2, 2, 1]),
        ] {
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
            let dbplp = dbplp_bound_default(&q, &stats);
            assert!(
                molp <= dbplp * (1.0 + 1e-9) + 1e-9,
                "MOLP {molp} > DBPLP {dbplp} for {q}"
            );
        }
    }

    #[test]
    fn single_edge_dbplp_value() {
        // DBPLP on one relation R(a0, a1): min v0 + v1 subject to
        // v0 + v1 ≥ log|R|, v1 ≥ log maxout, v0 ≥ log maxin — i.e.
        // max(|R|, maxin · maxout). Here |R| = 3, maxout = maxin = 2, so
        // the bound is 4 — strictly looser than MOLP's 3, illustrating
        // Corollary D.1.
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(1, &[0]);
        let b = dbplp_bound_default(&q, &stats);
        assert!((b - 4.0).abs() < 1e-6, "bound {b}");
        let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
        assert!((molp - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cover must span")]
    fn incomplete_cover_panics() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        dbplp_bound(&q, &stats, &[CoverAttrs::SrcOnly, CoverAttrs::None]);
    }

    #[test]
    fn empty_relation_gives_zero() {
        let g = GraphBuilder::with_labels(3, 1).build();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(1, &[0]);
        assert_eq!(dbplp_bound_default(&q, &stats), 0.0);
    }
}
