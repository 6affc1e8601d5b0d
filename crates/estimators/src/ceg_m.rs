//! CEG_M — the pessimistic cardinality estimation graph and the MOLP
//! bound (Section 5.1).
//!
//! Vertices are attribute subsets `X ⊆ A`; extension edges `W → W ∪ Y`
//! with weight `log deg(X, Y, R_i)` exist for every relation statistic
//! with `X ⊆ W`; projection edges (weight 0) are optional — Observation 3
//! proves they never change the bound, and a test verifies it. By Theorem
//! 5.1 the MOLP optimum equals the minimum-weight `(∅, A)` path, so the
//! bound is computed with Dijkstra over an *implicit* CEG_M (successors
//! are generated on demand; the full graph has `2^|A|` vertices and is
//! never materialized). The literal LP is also implemented (through
//! [`crate::lp`]) so tests can confirm the theorem.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ceg_graph::LabeledGraph;
use ceg_query::{Pattern, QueryGraph, VarId};

use crate::lp;
use crate::DegreeStats;

/// Subset of query attributes (variables), bit `v` = variable `v`.
pub type AttrMask = u32;

/// Degree statistics of one binary relation occurrence (one query edge).
#[derive(Debug, Clone, Copy, Default)]
pub struct BaseDeg {
    pub card: u64,
    pub max_out: u64,
    pub max_in: u64,
    pub proj_src: u64,
    pub proj_dst: u64,
}

/// Which relation a MOLP relaxation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelRef {
    /// Query edge index (a base relation occurrence).
    Base(usize),
    /// Index into the instance's join-statistics list.
    Join(usize),
}

/// A translated small-join statistic: `deg(x, y, J)` in *query-attribute*
/// space (Section 5.1.1 — the join output is just another relation).
#[derive(Debug, Clone)]
pub struct JoinRelax {
    /// The join's attributes as a query-attribute mask.
    pub attrs: AttrMask,
    /// `(x, y, deg)` triples with `x ⊆ y ⊆ attrs`.
    pub degs: Vec<(AttrMask, AttrMask, u64)>,
}

/// A self-contained MOLP problem instance.
#[derive(Debug, Clone)]
pub struct MolpInstance {
    num_vars: VarId,
    /// Per query edge: `(src, dst)` variables.
    endpoints: Vec<(VarId, VarId)>,
    base: Vec<BaseDeg>,
    joins: Vec<JoinRelax>,
    /// True when some relation or join is empty — the bound is 0.
    zero: bool,
}

/// One edge of the chosen minimum path (for bound sketches and display).
#[derive(Debug, Clone, Copy)]
pub struct MolpStep {
    /// Conditioning attributes `X` (empty for *unbound* edges).
    pub x: AttrMask,
    /// Extension attributes `Y`.
    pub y: AttrMask,
    /// `ln deg(X, Y, R)`.
    pub weight_ln: f64,
    /// Source relation.
    pub rel: RelRef,
}

impl MolpInstance {
    /// Build from precomputed [`DegreeStats`]. When `use_joins` is set and
    /// the stats contain 2-edge join statistics for sub-joins of `query`,
    /// those are included (making MOLP use a strict superset of what the
    /// optimistic estimators use, as in Section 5.1.1).
    pub fn from_stats(query: &QueryGraph, stats: &DegreeStats, use_joins: bool) -> Self {
        let endpoints: Vec<(VarId, VarId)> = query.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut zero = false;
        let base: Vec<BaseDeg> = query
            .edges()
            .iter()
            .map(|e| {
                let s = stats.label(e.label);
                if s.cardinality == 0 {
                    zero = true;
                }
                BaseDeg {
                    card: s.cardinality as u64,
                    max_out: s.max_out_degree as u64,
                    max_in: s.max_in_degree as u64,
                    proj_src: s.distinct_sources as u64,
                    proj_dst: s.distinct_targets as u64,
                }
            })
            .collect();

        let mut joins = Vec::new();
        if use_joins {
            for mask in query.connected_subsets_up_to(2) {
                if mask.len() != 2 {
                    continue;
                }
                let edges: Vec<_> = mask.iter().map(|i| query.edge(i)).collect();
                let (pat, map) = Pattern::canonical_with_map(&edges);
                let Some(js) = stats.join(&pat) else { continue };
                if js.cardinality() == 0 {
                    zero = true;
                }
                // translate canonical-var masks into query-attr masks
                let to_query_mask = |canon_mask: u8| -> AttrMask {
                    let mut qm = 0u32;
                    for &(orig, canon) in &map {
                        if canon_mask & (1 << canon) != 0 {
                            qm |= 1 << orig;
                        }
                    }
                    qm
                };
                let attrs = query.vars_of(mask);
                let degs = js
                    .iter()
                    .map(|(x, y, d)| (to_query_mask(x), to_query_mask(y), d))
                    .collect();
                joins.push(JoinRelax { attrs, degs });
            }
        }
        MolpInstance {
            num_vars: query.num_vars(),
            endpoints,
            base,
            joins,
            zero,
        }
    }

    /// Build directly from a graph (base statistics only).
    pub fn from_graph(graph: &LabeledGraph, query: &QueryGraph) -> Self {
        Self::from_stats(query, &DegreeStats::build_base(graph), false)
    }

    /// Replace the base statistics (used by partitioned sketches that
    /// compute them in bulk).
    pub fn with_base(mut self, base: Vec<BaseDeg>) -> Self {
        assert_eq!(base.len(), self.endpoints.len());
        self.zero = base.iter().any(|b| b.card == 0);
        self.base = base;
        self
    }

    pub fn num_vars(&self) -> VarId {
        self.num_vars
    }

    /// Enumerate the relaxations applicable from attribute set `w`:
    /// `(x, y, ln weight, rel)` with `x ⊆ w`.
    fn relaxations(&self, w: AttrMask, mut f: impl FnMut(AttrMask, AttrMask, f64, RelRef)) {
        for (i, (&(s, d), b)) in self.endpoints.iter().zip(&self.base).enumerate() {
            let (sm, dm) = (1u32 << s, 1u32 << d);
            let both = sm | dm;
            let rel = RelRef::Base(i);
            let ln = |v: u64| (v.max(1) as f64).ln();
            // X = ∅, Y = {s,d}: |R|
            if both & !w != 0 {
                f(0, both, ln(b.card), rel);
            }
            // X = {s}, Y = {s,d}: max out-degree
            if w & sm != 0 && dm & !w != 0 {
                f(sm, both, ln(b.max_out), rel);
            }
            // X = {d}, Y = {s,d}: max in-degree
            if w & dm != 0 && sm & !w != 0 {
                f(dm, both, ln(b.max_in), rel);
            }
            // projections of single attributes
            if sm & !w != 0 {
                f(0, sm, ln(b.proj_src), rel);
            }
            if dm & !w != 0 {
                f(0, dm, ln(b.proj_dst), rel);
            }
        }
        for (j, join) in self.joins.iter().enumerate() {
            for &(x, y, deg) in &join.degs {
                if x & !w == 0 && y & !w != 0 {
                    f(x, y, (deg.max(1) as f64).ln(), RelRef::Join(j));
                }
            }
        }
    }

    /// All `(x, y, ln weight)` relaxation templates, independent of `w`
    /// (used by the LP formulation).
    fn all_relaxations(&self) -> Vec<(AttrMask, AttrMask, f64)> {
        let mut out = Vec::new();
        let full = self.full_mask();
        // trick: enumerate with w = full so every template is emitted, then
        // re-add the unconditioned (x = 0) ones that target covered attrs.
        for (i, (&(s, d), b)) in self.endpoints.iter().zip(&self.base).enumerate() {
            let _ = i;
            let (sm, dm) = (1u32 << s, 1u32 << d);
            let ln = |v: u64| (v.max(1) as f64).ln();
            out.push((0, sm | dm, ln(b.card)));
            out.push((sm, sm | dm, ln(b.max_out)));
            out.push((dm, sm | dm, ln(b.max_in)));
            out.push((0, sm, ln(b.proj_src)));
            out.push((0, dm, ln(b.proj_dst)));
        }
        for join in &self.joins {
            for &(x, y, deg) in &join.degs {
                out.push((x, y, (deg.max(1) as f64).ln()));
            }
        }
        out.retain(|&(x, y, _)| x & !full == 0 && y & !full == 0 && y != 0);
        out
    }

    fn full_mask(&self) -> AttrMask {
        if self.num_vars == 32 {
            u32::MAX
        } else {
            (1u32 << self.num_vars) - 1
        }
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: AttrMask,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap by distance
        other.dist.total_cmp(&self.dist)
    }
}

/// The MOLP bound `2^{m_A}` — equivalently the minimum-weight `(∅, A)`
/// path in CEG_M (Theorem 5.1). Returns the bound in linear (multiplier)
/// space.
pub fn molp_bound(inst: &MolpInstance) -> f64 {
    molp_min_path(inst).map_or(f64::INFINITY, |(b, _)| b)
}

/// The MOLP bound together with the minimizing path. `None` when the full
/// attribute set is unreachable (cannot happen for connected queries with
/// complete base statistics).
pub fn molp_min_path(inst: &MolpInstance) -> Option<(f64, Vec<MolpStep>)> {
    if inst.zero {
        return Some((0.0, Vec::new()));
    }
    let full = inst.full_mask();
    if full == 0 {
        return Some((1.0, Vec::new()));
    }
    let n = 1usize << inst.num_vars;
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<(AttrMask, MolpStep)>> = vec![None; n];
    let mut done = vec![false; n];
    dist[0] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem { dist: 0.0, node: 0 });
    while let Some(HeapItem { dist: dw, node: w }) = heap.pop() {
        if done[w as usize] {
            continue;
        }
        done[w as usize] = true;
        if w == full {
            break;
        }
        inst.relaxations(w, |x, y, wln, rel| {
            let to = (w | y) as usize;
            let cand = dw + wln;
            if cand < dist[to] {
                dist[to] = cand;
                pred[to] = Some((
                    w,
                    MolpStep {
                        x,
                        y,
                        weight_ln: wln,
                        rel,
                    },
                ));
                heap.push(HeapItem {
                    dist: cand,
                    node: to as AttrMask,
                });
            }
        });
    }
    if !dist[full as usize].is_finite() {
        return None;
    }
    // reconstruct by walking the stored predecessor nodes
    let mut steps = Vec::new();
    let mut cur = full;
    while cur != 0 {
        let (prev, step) = pred[cur as usize].expect("predecessor chain broken");
        steps.push(step);
        debug_assert_ne!(prev, cur, "step added no attributes");
        cur = prev;
    }
    steps.reverse();
    Some((dist[full as usize].exp(), steps))
}

/// Solve the literal MOLP linear program (Section 5.1) with the simplex
/// solver; `with_projections` includes the `s_X ≤ s_Y` inequalities
/// (Observation 3 shows they are redundant). Intended for verification on
/// small queries (`|A| ≤ 12`).
pub fn molp_lp_bound(inst: &MolpInstance, with_projections: bool) -> f64 {
    if inst.zero {
        return 0.0;
    }
    let nv = inst.num_vars as usize;
    assert!(nv <= 12, "LP cross-check limited to small queries");
    let n = 1usize << nv;
    let full = inst.full_mask() as usize;
    // variables s_X, X ⊆ A (non-negativity is WLOG: the CEG solution is
    // non-negative and restricting the feasible set cannot raise the max)
    let mut a: Vec<Vec<f64>> = Vec::new();
    let mut b: Vec<f64> = Vec::new();
    // s_∅ ≤ 0
    let mut row = vec![0.0; n];
    row[0] = 1.0;
    a.push(row);
    b.push(0.0);
    // extension inequalities: for each template (x, y, w), for each W ⊇ x:
    // s_{W∪y} - s_W ≤ w
    for (x, y, w) in inst.all_relaxations() {
        for wmask in 0..n {
            let wm = wmask as AttrMask;
            if x & !wm != 0 {
                continue;
            }
            let to = (wm | y) as usize;
            if to == wmask {
                continue;
            }
            let mut row = vec![0.0; n];
            row[to] += 1.0;
            row[wmask] -= 1.0;
            a.push(row);
            b.push(w);
        }
    }
    if with_projections {
        // s_X ≤ s_Y for X ⊆ Y: covers (Y minus one attribute) suffice
        for y in 1..n {
            for v in 0..nv {
                if y & (1 << v) != 0 {
                    let x = y & !(1 << v);
                    let mut row = vec![0.0; n];
                    row[x] += 1.0;
                    row[y] -= 1.0;
                    a.push(row);
                    b.push(0.0);
                }
            }
        }
    }
    let mut c = vec![0.0; n];
    c[full] = 1.0;
    match lp::maximize(&c, &a, &b) {
        lp::LpResult::Optimal { objective, .. } => objective.exp(),
        lp::LpResult::Unbounded => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn single_edge_bound_is_cardinality() {
        let g = toy();
        let q = templates::path(1, &[0]);
        let inst = MolpInstance::from_graph(&g, &q);
        assert!((molp_bound(&inst) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bound_is_pessimistic() {
        let g = toy();
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[1, 1]),
            templates::q5f(&[0, 1, 2, 2, 1]),
        ] {
            let inst = MolpInstance::from_graph(&g, &q);
            let bound = molp_bound(&inst);
            let truth = count(&g, &q) as f64;
            assert!(
                bound >= truth - 1e-9,
                "bound {bound} < truth {truth} for {q}"
            );
        }
    }

    #[test]
    fn theorem_5_1_dijkstra_equals_lp() {
        let g = toy();
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 1, 2]),
            templates::cycle(3, &[0, 1, 2]),
        ] {
            let inst = MolpInstance::from_graph(&g, &q);
            let dij = molp_bound(&inst);
            let lp = molp_lp_bound(&inst, false);
            assert!(
                (dij.ln() - lp.ln()).abs() < 1e-6,
                "dijkstra {dij} != lp {lp} for {q}"
            );
        }
    }

    #[test]
    fn observation_3_projections_are_redundant() {
        let g = toy();
        for q in [
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[0, 1]),
            templates::cycle(3, &[0, 1, 2]),
        ] {
            let inst = MolpInstance::from_graph(&g, &q);
            let without = molp_lp_bound(&inst, false);
            let with = molp_lp_bound(&inst, true);
            assert!(
                (without.ln() - with.ln()).abs() < 1e-6,
                "projection inequalities changed the bound for {q}"
            );
        }
    }

    #[test]
    fn empty_relation_gives_zero_bound() {
        let g = GraphBuilder::with_labels(4, 2).build();
        let q = templates::path(2, &[0, 1]);
        let inst = MolpInstance::from_graph(&g, &q);
        assert_eq!(molp_bound(&inst), 0.0);
    }

    #[test]
    fn min_path_steps_reach_full() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let inst = MolpInstance::from_graph(&g, &q);
        let (bound, steps) = molp_min_path(&inst).unwrap();
        assert!(bound.is_finite());
        // replaying the steps from ∅ must reach the full attribute set
        let mut w: AttrMask = 0;
        let mut total = 0.0;
        for s in &steps {
            assert_eq!(s.x & !w, 0, "conditioning attrs must be bound");
            w |= s.y;
            total += s.weight_ln;
        }
        assert_eq!(w, (1u32 << q.num_vars()) - 1);
        assert!((total.exp() - bound).abs() / bound < 1e-9);
    }

    #[test]
    fn join_stats_tighten_the_bound() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let queries = [q.clone()];
        let stats = crate::DegreeStats::build_with_joins(&g, &queries, 1 << 20);
        let base_inst = MolpInstance::from_stats(&q, &stats, false);
        let join_inst = MolpInstance::from_stats(&q, &stats, true);
        let base_bound = molp_bound(&base_inst);
        let join_bound = molp_bound(&join_inst);
        let truth = count(&g, &q) as f64;
        assert!(join_bound <= base_bound + 1e-9);
        assert!(join_bound >= truth - 1e-9);
    }

    #[test]
    fn lp_with_joins_matches_dijkstra() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let queries = [q.clone()];
        let stats = crate::DegreeStats::build_with_joins(&g, &queries, 1 << 20);
        let inst = MolpInstance::from_stats(&q, &stats, true);
        let dij = molp_bound(&inst);
        let lp = molp_lp_bound(&inst, false);
        assert!((dij.ln() - lp.ln()).abs() < 1e-6, "dij {dij} lp {lp}");
    }
}
