//! CEG_D — the DBPLP cardinality estimation graph (Appendix D).
//!
//! CEG_D has the same vertices as CEG_M (attribute subsets) but only the
//! extension edges expressible in a given *cover* `C`; in particular it
//! has no projection edges. DBPLP is **not** the weight of any single
//! path: Theorem D.1 shows every `(∅, A)` path's weight is a *lower
//! bound* on the DBPLP optimum, which yields the combinatorial proof of
//! Corollary D.1 (`MOLP ≤ DBPLP`) — CEG_D's edges are a subset of
//! CEG_M's, so CEG_M's minimum path is at most any CEG_D path, which is
//! at most DBPLP.
//!
//! This module materializes CEG_D explicitly (query attribute counts are
//! tiny) and verifies both theorems.

use ceg_catalog::DegreeStats;
use ceg_query::QueryGraph;

use crate::ceg::{extremum, Ceg, CegEdge, PathLen};
use crate::ceg_m::AttrMask;
use crate::dbplp::CoverAttrs;

/// Explicit CEG_D for a query under a cover: a generic [`Ceg`] whose node
/// ids are attribute masks (bottom `∅`, top `A`) and whose edges `W → W ∪
/// ext` carry the weight `ln deg` in `rate`, summed along a path rather
/// than multiplied.
#[derive(Debug, Clone)]
pub struct CegD {
    ceg: Ceg,
}

impl CegD {
    /// Materialize the CEG_D of `query` under `cover`.
    ///
    /// For each `(R_j, A_j) ∈ C` and `A'_j ⊆ A_j`, DBPLP has the
    /// constraint `Σ_{a ∈ A_j \ A'_j} v_a ≥ log deg(A'_j, Π_{A_j} R_j)`,
    /// which becomes an edge `W → W ∪ (A_j \ A'_j)` for every `W ⊇ A'_j`.
    pub fn build(query: &QueryGraph, stats: &DegreeStats, cover: &[CoverAttrs]) -> Self {
        assert_eq!(cover.len(), query.num_edges());
        let nv = query.num_vars();
        assert!(nv <= 16, "explicit CEG_D limited to small queries");
        let n = 1usize << nv;
        let mut templates: Vec<(AttrMask, AttrMask, f64)> = Vec::new(); // (A', new attrs, w)
        for (c, e) in cover.iter().zip(query.edges()) {
            let s = stats.label(e.label);
            let ln = |v: usize| (v.max(1) as f64).ln();
            let (sm, dm) = (1u32 << e.src, 1u32 << e.dst);
            match c {
                CoverAttrs::None => {}
                CoverAttrs::Both => {
                    // A_j = {src, dst}: A' ∈ {∅, {src}, {dst}}
                    templates.push((0, sm | dm, ln(s.cardinality)));
                    templates.push((sm, dm, ln(s.max_out_degree)));
                    templates.push((dm, sm, ln(s.max_in_degree)));
                }
                CoverAttrs::SrcOnly => templates.push((0, sm, ln(s.distinct_sources))),
                CoverAttrs::DstOnly => templates.push((0, dm, ln(s.distinct_targets))),
            }
        }
        let mut edges = Vec::new();
        for w in 0..n as AttrMask {
            for &(aprime, newattrs, weight_ln) in &templates {
                // A' must be bound and the constraint's variables
                // `A_j \ A'_j` must all be new — Theorem D.1's proof sums
                // the constraints of a path, which requires their
                // variable sets to be pairwise disjoint.
                if aprime & !w == 0 && newattrs & w == 0 {
                    edges.push(CegEdge {
                        from: w,
                        to: w | newattrs,
                        rate: weight_ln,
                        tag: 0,
                    });
                }
            }
        }
        CegD {
            ceg: Ceg::new(n, 0, n as u32 - 1, edges),
        }
    }

    pub fn num_edges(&self) -> usize {
        self.ceg.num_edges()
    }

    /// Weight of the longest `(∅, A)` path (ln space); `None` if the full
    /// attribute set is unreachable under the cover.
    pub fn longest_path_ln(&self) -> Option<f64> {
        self.path_ln(true)
    }

    /// Weight of the shortest `(∅, A)` path (ln space).
    pub fn shortest_path_ln(&self) -> Option<f64> {
        self.path_ln(false)
    }

    /// The optimistic heuristics' pass, adding weights over every path.
    fn path_ln(&self, maximize: bool) -> Option<f64> {
        let best = extremum(maximize, |w| w);
        let slots = self
            .ceg
            .fold(PathLen::AllHops, 0.0, |w, _, e| w + e.rate, best);
        slots[self.ceg.top() as usize].map(|(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg_m::{molp_bound, MolpInstance};
    use crate::dbplp::{dbplp_bound, full_cover};
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

    fn queries() -> Vec<QueryGraph> {
        vec![
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 1, 2]),
            templates::cycle(3, &[0, 1, 2]),
        ]
    }

    #[test]
    fn theorem_d1_paths_lower_bound_dbplp() {
        // every (∅, A) path weight ≤ DBPLP optimum; in particular the
        // longest path does not exceed it
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in queries() {
            let cover = full_cover(&q);
            let ceg_d = CegD::build(&q, &stats, &cover);
            let dbplp = dbplp_bound(&q, &stats, &cover).max(1e-12).ln();
            let longest = ceg_d.longest_path_ln().expect("full cover reaches A");
            assert!(
                longest <= dbplp + 1e-6,
                "longest CEG_D path {longest} > DBPLP {dbplp} for {q}"
            );
        }
    }

    #[test]
    fn corollary_d1_combinatorial() {
        // the combinatorial route: MOLP (min CEG_M path) ≤ shortest CEG_D
        // path ≤ DBPLP, because CEG_D edges ⊆ CEG_M edges
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        for q in queries() {
            let cover = full_cover(&q);
            let ceg_d = CegD::build(&q, &stats, &cover);
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false))
                .max(1e-12)
                .ln();
            let shortest = ceg_d.shortest_path_ln().unwrap();
            let dbplp = dbplp_bound(&q, &stats, &cover).max(1e-12).ln();
            assert!(
                molp <= shortest + 1e-6,
                "MOLP {molp} > CEG_D min {shortest}"
            );
            assert!(
                shortest <= dbplp + 1e-6,
                "CEG_D min {shortest} > DBPLP {dbplp}"
            );
        }
    }

    #[test]
    fn ceg_d_has_edges_and_reaches_top() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        let ceg_d = CegD::build(&q, &stats, &full_cover(&q));
        assert!(ceg_d.num_edges() > 0);
        assert!(ceg_d.longest_path_ln().is_some());
        assert!(ceg_d.shortest_path_ln().unwrap() <= ceg_d.longest_path_ln().unwrap());
    }

    #[test]
    fn partial_cover_restricts_edges() {
        let g = toy();
        let stats = DegreeStats::build_base(&g);
        let q = templates::path(2, &[0, 1]);
        // cover only through projections: fewer edges than the full cover
        let proj_cover = vec![CoverAttrs::SrcOnly, CoverAttrs::Both];
        let full = CegD::build(&q, &stats, &full_cover(&q));
        let partial = CegD::build(&q, &stats, &proj_cover);
        assert!(partial.num_edges() < full.num_edges());
    }
}
