//! Exact homomorphism counting for acyclic queries by tree dynamic
//! programming.
//!
//! The backtracking matcher enumerates matches one by one, which is
//! hopeless for, e.g., a 12-edge star on a skewed graph (counts reach
//! 10²⁰). For acyclic (tree-shaped) queries the homomorphism count
//! factorizes: rooting the query tree anywhere,
//!
//! ```text
//!   down[v][u] = Π_{child c of v} Σ_{u' ∈ nbrs_e(u)} down[c][u']
//! ```
//!
//! and the total is `Σ_u down[root][u]` — one pass per query edge, `O(|E|)`
//! each. Counts are returned as `f64` (they routinely exceed `u64`).
//!
//! The same factorization powers the crate-private `factorize` pass: for a
//! *cyclic* query with acyclic sub-structures hanging off its cyclic core,
//! the pendant trees
//! are peeled into exact per-vertex weight vectors and only the core is
//! enumerated, each core binding contributing the product of its weights
//! in closed form. `CountPlan::new_counting` wires this into the kernel,
//! extending the independent-suffix shortcut from "count the suffix sets"
//! to "sum their subtree weights".

use ceg_graph::{GraphView, LabeledGraph, VertexId};
use ceg_query::cycles::is_acyclic;
use ceg_query::{QueryEdge, QueryGraph, VarId};

use crate::constraints::{VarConstraint, VarConstraints};

/// Exact homomorphism count of an acyclic connected query, or `None` if
/// the query is cyclic or disconnected (use the backtracking counter).
pub fn count_tree_dp(graph: &LabeledGraph, query: &QueryGraph) -> Option<f64> {
    if query.num_edges() == 0 || !query.is_connected() || !is_acyclic(query) {
        return None;
    }
    let n = graph.num_vertices();
    let root: VarId = 0;

    // DFS order from the root over the query tree.
    let nv = query.num_vars() as usize;
    let mut order: Vec<(VarId, Option<usize>)> = Vec::with_capacity(nv); // (var, edge to parent)
    let mut visited = vec![false; nv];
    let mut stack = vec![(root, None)];
    while let Some((v, pe)) = stack.pop() {
        if visited[v as usize] {
            continue;
        }
        visited[v as usize] = true;
        order.push((v, pe));
        for i in query.edges_at(v) {
            let e = query.edge(i);
            let o = e.other(v);
            if !visited[o as usize] {
                stack.push((o, Some(i)));
            }
        }
    }
    if order.len() != nv {
        return None; // disconnected (defensive; checked above)
    }

    // Bottom-up accumulation: down[v] starts as all-ones and children
    // multiply their propagated sums in.
    let mut down: Vec<Vec<f64>> = vec![vec![1.0; n]; nv];
    for &(v, parent_edge) in order.iter().rev() {
        let Some(pei) = parent_edge else { continue };
        let e = query.edge(pei);
        let parent = e.other(v);
        // propagate down[v] to the parent through edge e (out-neighbours
        // when parent -e-> v, in-neighbours when v -e-> parent):
        // parent_val[u] *= Σ_{u' adj} down[v][u']
        let child_vals = std::mem::take(&mut down[v as usize]);
        let rows = graph.rows(e.label, e.src != parent);
        scale_by_rows(&mut down[parent as usize], rows, |pv, nbrs| {
            if *pv != 0.0 {
                let mut s = 0.0;
                for &u2 in nbrs {
                    s += child_vals[u2 as usize];
                }
                *pv *= s;
            }
            Some(())
        });
    }
    Some(down[root as usize].iter().sum())
}

/// One DP step over every vertex `u`: `vals[u]` is scaled by a sum over
/// `u`'s neighbours under one query edge. `scale` does that for a vertex
/// that has neighbours; a vertex between two `rows` has none, its sum is
/// empty and its value becomes zero. Walking the relation's rows and
/// zero-filling the gaps replaces probing the whole domain. `None` as
/// soon as `scale` gives up (an overflow).
fn scale_by_rows<'g, T: Copy + Default>(
    vals: &mut [T],
    rows: impl Iterator<Item = (VertexId, &'g [VertexId])>,
    mut scale: impl FnMut(&mut T, &[VertexId]) -> Option<()>,
) -> Option<()> {
    let mut next = 0usize;
    for (u, nbrs) in rows {
        let u = u as usize;
        vals[next..u].fill(T::default());
        scale(&mut vals[u], nbrs)?;
        next = u + 1;
    }
    vals[next..].fill(T::default());
    Some(())
}

/// The factorized form of a cyclic query: its cyclic core plus the exact
/// weight vectors of the pendant trees peeled off it. Produced by
/// [`factorize`], consumed by `CountPlan::new_counting`.
pub(crate) struct Factorization {
    /// The core query over compacted variable ids (every simple cycle of
    /// the original query, plus any self-loops and constrained stubs).
    pub core: QueryGraph,
    /// The original constraints remapped onto the core ids.
    pub cons: VarConstraints,
    /// Per core variable: `weights[v][u]` = homomorphism count of the
    /// pendant tree hanging off `v` when `v ↦ u`; `None` means no
    /// pendant (weight 1 everywhere).
    pub weights: Vec<Option<Box<[u64]>>>,
}

/// Peel the acyclic sub-structures off a cyclic query, folding each into
/// a per-vertex weight vector by the tree DP above (in exact `u64`).
///
/// A variable is peelable when exactly one non-loop edge still touches
/// it, it carries no constraint and no self-loop. Peeling to a fixpoint
/// strips every pendant tree; what remains is the 2-core. Returns `None`
/// — meaning "count the query unfactorized" — when nothing peels, when
/// the remainder has no edges (the query was acyclic: the classic kernel
/// with its suffix shortcut already handles trees well and `enumerate`
/// semantics must not change), or when a weight overflows `u64`.
pub(crate) fn factorize<G: GraphView>(
    graph: &G,
    query: &QueryGraph,
    cons: &VarConstraints,
) -> Option<Factorization> {
    let nv = query.num_vars() as usize;
    let n = graph.num_vertices();
    let mut removed_edge = vec![false; query.num_edges()];
    let mut removed_var = vec![false; nv];
    let mut degree = vec![0usize; nv]; // non-loop incident edges remaining
    let mut has_self_loop = vec![false; nv];
    for e in query.edges() {
        if e.src == e.dst {
            has_self_loop[e.src as usize] = true;
        } else {
            degree[e.src as usize] += 1;
            degree[e.dst as usize] += 1;
        }
    }

    let peelable = |v: usize, degree: &[usize]| {
        degree[v] == 1 && !has_self_loop[v] && matches!(cons.get(v as VarId), VarConstraint::Any)
    };
    // Phase 1: peel with degree bookkeeping only — O(query) — and record
    // the order. The expensive O(|V|) weight folding below runs only once
    // we know a non-empty core actually survives; acyclic queries (whose
    // core is empty, and which every `count()` call probes) abandon here
    // for free.
    let mut peel_order: Vec<(usize, usize)> = Vec::new(); // (var, edge)
    let mut queue: Vec<usize> = (0..nv).filter(|&v| peelable(v, &degree)).collect();
    while let Some(v) = queue.pop() {
        if removed_var[v] || degree[v] != 1 {
            continue;
        }
        let ei = query
            .edges_at(v as VarId)
            .find(|&i| {
                !removed_edge[i] && {
                    let e = query.edge(i);
                    e.src != e.dst
                }
            })
            .expect("degree-1 variable has a live non-loop edge");
        let parent = query.edge(ei).other(v as VarId) as usize;
        removed_edge[ei] = true;
        removed_var[v] = true;
        degree[v] = 0;
        degree[parent] -= 1;
        peel_order.push((v, ei));
        if !removed_var[parent] && peelable(parent, &degree) {
            queue.push(parent);
        }
    }
    if peel_order.is_empty() {
        return None;
    }
    let live_edges = removed_edge.iter().filter(|&&r| !r).count()
        - query.edges().iter().filter(|e| e.src == e.dst).count();
    if live_edges == 0 {
        return None;
    }

    // Phase 2: replay the peel order, folding each variable's subtree
    // weight into its parent:
    //   w_parent[u] *= Σ_{u' ∈ nbrs_e(u)} w_v[u']
    // (w_v = None is the all-ones leaf weight, so the sum is the
    // degree). Exact u64 with overflow ⇒ abandon factorization.
    let mut weights: Vec<Option<Box<[u64]>>> = (0..nv).map(|_| None).collect();
    for &(v, ei) in &peel_order {
        let e = query.edge(ei);
        let parent = e.other(v as VarId) as usize;
        let child = weights[v].take();
        let pw = weights[parent].get_or_insert_with(|| vec![1u64; n].into_boxed_slice());
        let rows = graph.rows(e.label, e.src != parent as VarId);
        scale_by_rows(pw, rows, |w, nbrs| {
            if *w != 0 {
                let s = match &child {
                    None => nbrs.len() as u64,
                    Some(cw) => {
                        let mut s = 0u64;
                        for &u2 in nbrs {
                            s = s.checked_add(cw[u2 as usize])?;
                        }
                        s
                    }
                };
                *w = w.checked_mul(s)?;
            }
            Some(())
        })?;
    }

    // Compact the surviving variables and remap edges + constraints.
    let mut to_core = vec![VarId::MAX; nv];
    let mut ncore: VarId = 0;
    for v in 0..nv {
        if !removed_var[v] {
            to_core[v] = ncore;
            ncore += 1;
        }
    }
    let core_edges: Vec<QueryEdge> = query
        .edges()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !removed_edge[i])
        .map(|(_, e)| QueryEdge::new(to_core[e.src as usize], to_core[e.dst as usize], e.label))
        .collect();
    let mut core_cons = VarConstraints::none(ncore);
    let mut core_weights: Vec<Option<Box<[u64]>>> = (0..ncore).map(|_| None).collect();
    for v in 0..nv {
        if removed_var[v] {
            continue;
        }
        let cv = to_core[v];
        core_cons.set(cv, cons.get(v as VarId));
        core_weights[cv as usize] = weights[v].take();
    }
    Some(Factorization {
        core: QueryGraph::new(ncore, core_edges),
        cons: core_cons,
        weights: core_weights,
    })
}

/// Exact truth for any connected query: tree DP when acyclic, otherwise
/// backtracking with the given budget. `None` when the budget runs out.
pub fn exact_count(
    graph: &LabeledGraph,
    query: &QueryGraph,
    budget: crate::count::CountBudget,
) -> Option<f64> {
    if let Some(c) = count_tree_dp(graph, query) {
        return Some(c);
    }
    crate::count::count_with_limit(
        graph,
        query,
        &crate::constraints::VarConstraints::none(query.num_vars()),
        budget,
    )
    .map(|c| c as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::{count, CountBudget};
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(20);
        for i in 0..6 {
            b.add_edge(i, 6 + i, 0);
            b.add_edge(6 + i, 12 + (i % 4), 1);
            b.add_edge(12 + (i % 4), 16 + (i % 3), 2);
        }
        b.build()
    }

    #[test]
    fn tree_dp_matches_backtracking() {
        let g = toy();
        for q in [
            templates::path(1, &[0]),
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 0, 0]),
            templates::q5f(&[0, 1, 2, 2, 2]),
            templates::tree_depth(4, 3, &[0, 1, 2, 1]),
        ] {
            let dp = count_tree_dp(&g, &q).unwrap();
            let bt = count(&g, &q) as f64;
            assert_eq!(dp, bt, "mismatch on {q}");
        }
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let g = toy();
        let q = templates::cycle(3, &[0, 1, 2]);
        assert_eq!(count_tree_dp(&g, &q), None);
    }

    #[test]
    fn huge_star_counts_do_not_explode() {
        // hub with 200 out-edges; a 8-star has 200^8 ≈ 2.6e18 homs —
        // enumeration would never finish, the DP is instant.
        let mut b = GraphBuilder::new(202);
        for i in 1..=200u32 {
            b.add_edge(0, i, 0);
        }
        let g = b.build();
        let q = templates::star(8, &[0; 8]);
        let c = count_tree_dp(&g, &q).unwrap();
        assert_eq!(c, 200f64.powi(8));
    }

    #[test]
    fn exact_count_dispatches() {
        let g = toy();
        let acyclic = templates::path(2, &[0, 1]);
        let cyclic = templates::cycle(3, &[0, 1, 2]);
        assert_eq!(
            exact_count(&g, &acyclic, CountBudget::UNLIMITED),
            Some(count(&g, &acyclic) as f64)
        );
        assert_eq!(
            exact_count(&g, &cyclic, CountBudget::UNLIMITED),
            Some(count(&g, &cyclic) as f64)
        );
        assert_eq!(exact_count(&g, &cyclic, CountBudget::new(1)), None);
    }

    #[test]
    fn zero_matches() {
        let g = toy();
        let q = templates::path(2, &[2, 0]); // label 2 targets have no 0-out
        assert_eq!(count_tree_dp(&g, &q), Some(0.0));
    }
}
