//! Exact homomorphism counting for acyclic queries by tree dynamic
//! programming.
//!
//! The backtracking matcher enumerates matches one by one, which is
//! hopeless for, e.g., a 12-edge star on a skewed graph (counts reach
//! 10²⁰), and even where it shortcuts it plans per query over the vertex
//! domain. For acyclic (tree-shaped) queries the homomorphism count
//! factorizes: rooting the query tree anywhere,
//!
//! ```text
//!   down[v][u] = Π_{child c of v} Σ_{u' ∈ nbrs_e(u)} down[c][u']
//! ```
//!
//! and the total is `Σ_u down[root][u]`. `fold_tree` evaluates that
//! bottom-up over **sparse** vectors: `down[v]` holds only the vertices
//! with a non-zero weight, sorted by id. A leaf's message to its parent is
//! the row lengths of the edge's relation. An inner child's message sums
//! its vector over each row's neighbours, read by vertex id: the child is
//! scattered into a zeroed scratch of `num_vertices()` weights for the
//! fold and its keys are zeroed again after it. The first child folded
//! into a parent sweeps the relation's rows; every later one probes only
//! the rows of the parent's own keys. Time is the rows and edges of the
//! relations the query names. Memory is that too, plus the one scratch,
//! which a walk allocates the first time it folds an inner child — never
//! for a pattern of at most two edges (every child of the centre is then
//! a leaf), so an `h = 2` catalog fill allocates nothing domain-sized.
//!
//! One walk serves two arithmetics (`Weight`): checked `u64` for the
//! Markov-table counts ([`mod@crate::count`]'s free functions take it for
//! every unconstrained tree query, charging the rows of each relation
//! swept against the [`CountBudget`]), and `f64` for truths that exceed
//! `u64` ([`count_tree_dp`]).
//!
//! The same fold powers the crate-private `factorize` pass: for a
//! *cyclic* query with acyclic sub-structures hanging off its cyclic core,
//! the pendant trees are peeled into exact per-vertex weight vectors
//! (folded sparse like any other tree, then laid out once per core
//! variable as the `|V|`-vector the kernel's hot loop indexes) and only
//! the core is enumerated, each core binding contributing the product of
//! its weights in closed form. `CountPlan::new` wires this into the
//! kernel, extending the independent-suffix shortcut from "count the
//! suffix sets" to "sum their subtree weights".

use ceg_graph::{LabelId, LabeledGraph, VertexId};
use ceg_query::cycles::is_acyclic;
use ceg_query::{QueryEdge, QueryGraph, VarId};

use crate::constraints::{VarConstraint, VarConstraints};
use crate::count::{BudgetState, CountBudget, KernelStats};

/// The arithmetic a tree walk runs in.
trait Weight: Copy + PartialEq {
    const ZERO: Self;
    /// The weight of `n` unit-weight neighbours.
    fn of_len(n: usize) -> Self;
    /// `None` on overflow.
    fn add(self, other: Self) -> Option<Self>;
    /// `None` on overflow.
    fn mul(self, other: Self) -> Option<Self>;
}

impl Weight for u64 {
    const ZERO: u64 = 0;
    fn of_len(n: usize) -> u64 {
        n as u64
    }
    fn add(self, other: u64) -> Option<u64> {
        self.checked_add(other)
    }
    fn mul(self, other: u64) -> Option<u64> {
        self.checked_mul(other)
    }
}

impl Weight for f64 {
    const ZERO: f64 = 0.0;
    fn of_len(n: usize) -> f64 {
        n as f64
    }
    fn add(self, other: f64) -> Option<f64> {
        Some(self + other)
    }
    fn mul(self, other: f64) -> Option<f64> {
        Some(self * other)
    }
}

/// Why a tree walk stopped without a count.
enum Stop {
    /// The [`CountBudget`] ran out (expansions or deadline).
    Budget,
    /// A sum or product left the arithmetic's range.
    Overflow,
}

/// A sparse weight vector over the vertex domain: `vals[i]` is the
/// non-zero weight of vertex `keys[i]`, keys ascending; every other
/// vertex weighs zero.
struct Sparse<T> {
    keys: Vec<VertexId>,
    vals: Vec<T>,
}

/// One query edge as its parent sees it: the relation, and whether the
/// parent's rows are its in-neighbour lists (`v -label-> parent`).
#[derive(Clone, Copy)]
struct Relation {
    label: LabelId,
    backward: bool,
}

impl Relation {
    /// The rows [`LabeledGraph::rows`] yields: the relation's distinct
    /// sources, or its distinct targets when walked `backward`.
    fn num_rows(self, graph: &LabeledGraph) -> usize {
        if self.backward {
            graph.distinct_targets(self.label)
        } else {
            graph.distinct_sources(self.label)
        }
    }

    /// The row of vertex `u`, empty when it has none.
    fn row(self, graph: &LabeledGraph, u: VertexId) -> &[VertexId] {
        if self.backward {
            graph.in_neighbors(u, self.label)
        } else {
            graph.out_neighbors(u, self.label)
        }
    }
}

/// Fold one child into its parent over the edge's relation:
/// `acc[u] *= Σ_{u' ∈ nbrs(u)} child[u']`. `child = None` is the all-ones
/// vector of a leaf: the sum is the row's length, no lookup. An inner
/// child is scattered into `scratch` — the walk's one `num_vertices()`
/// weight array, allocated here the first time it is needed and all
/// zero between folds — so each row sums by direct index, in ascending
/// neighbour order, skipping zeros; the scattered keys are zeroed again
/// before returning, overflow or not. `acc = None` is the all-ones vector
/// of a parent nothing was folded into yet: the relation's rows are swept
/// and the message materialised, in one allocation of at most its row
/// count. Otherwise the parent probes the row of each of its own keys and
/// keeps, in place, those whose sum is non-zero. `None` on overflow.
fn fold_child<T: Weight>(
    graph: &LabeledGraph,
    rel: Relation,
    acc: Option<Sparse<T>>,
    child: Option<&Sparse<T>>,
    scratch: &mut Vec<T>,
) -> Option<Sparse<T>> {
    let Some(child) = child else {
        return fold_rows(graph, rel, acc, |nbrs| Some(T::of_len(nbrs.len())));
    };
    if scratch.is_empty() {
        scratch.resize(graph.num_vertices(), T::ZERO);
    }
    for (&u, &w) in child.keys.iter().zip(&child.vals) {
        scratch[u as usize] = w;
    }
    let weights = &scratch[..];
    let folded = fold_rows(graph, rel, acc, |nbrs| {
        nbrs.iter()
            .map(|&u| weights[u as usize])
            .filter(|&w| w != T::ZERO)
            .try_fold(T::ZERO, T::add)
    });
    for &u in &child.keys {
        scratch[u as usize] = T::ZERO;
    }
    folded
}

/// [`fold_child`]'s two loops, for a row sum `sum`.
fn fold_rows<T: Weight>(
    graph: &LabeledGraph,
    rel: Relation,
    acc: Option<Sparse<T>>,
    sum: impl Fn(&[VertexId]) -> Option<T>,
) -> Option<Sparse<T>> {
    let Some(mut acc) = acc else {
        let num_rows = rel.num_rows(graph);
        let mut keys = Vec::with_capacity(num_rows);
        let mut vals = Vec::with_capacity(num_rows);
        for (u, nbrs) in graph.rows(rel.label, rel.backward) {
            let s = sum(nbrs)?;
            if s != T::ZERO {
                keys.push(u);
                vals.push(s);
            }
        }
        return Some(Sparse { keys, vals });
    };
    let mut kept = 0;
    for read in 0..acc.keys.len() {
        let u = acc.keys[read];
        let nbrs = rel.row(graph, u);
        if nbrs.is_empty() {
            continue;
        }
        let s = sum(nbrs)?;
        if s != T::ZERO {
            acc.keys[kept] = u;
            acc.vals[kept] = acc.vals[read].mul(s)?;
            kept += 1;
        }
    }
    acc.keys.truncate(kept);
    acc.vals.truncate(kept);
    Some(acc)
}

/// True for the queries the tree DP counts: connected, acyclic (hence
/// free of self-loops and parallel edges) and with at least one edge.
fn is_tree(query: &QueryGraph) -> bool {
    query.num_edges() > 0 && query.is_connected() && is_acyclic(query)
}

/// The homomorphism count of the tree `query` rooted at `root`, every
/// fold charged its relation's rows against `budget` before it runs.
/// `scratch` is all zero on entry and is left so, whatever the outcome;
/// [`fold_child`] sizes it on the walk's first inner child.
///
/// Variables are visited in a DFS order from the root and folded
/// children-first in its reverse, each sum running over ascending
/// neighbours: for a given root the floating-point instance performs the
/// operations of a dense `|V|`-vector DP in the same order (zeros left
/// out), so its result has the same bits.
fn fold_tree<T: Weight>(
    graph: &LabeledGraph,
    query: &QueryGraph,
    root: VarId,
    budget: &mut BudgetState,
    scratch: &mut Vec<T>,
) -> Result<T, Stop> {
    if let [e] = query.edges() {
        // Σ of the row lengths, without the sweep.
        if !budget.charge_list(graph.distinct_sources(e.label) as u64) {
            return Err(Stop::Budget);
        }
        return Ok(T::of_len(graph.label_count(e.label)));
    }

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
            let o = query.edge(i).other(v);
            if !visited[o as usize] {
                stack.push((o, Some(i)));
            }
        }
    }

    // `None` is the all-ones vector of a variable no child was folded
    // into yet.
    let mut down: Vec<Option<Sparse<T>>> = (0..nv).map(|_| None).collect();
    for &(v, parent_edge) in order.iter().rev() {
        let Some(pei) = parent_edge else { continue };
        let e = query.edge(pei);
        let parent = e.other(v);
        // Out-neighbours when parent -e-> v, in-neighbours when
        // v -e-> parent.
        let rel = Relation {
            label: e.label,
            backward: e.src != parent,
        };
        if !budget.charge_list(rel.num_rows(graph) as u64) {
            return Err(Stop::Budget);
        }
        let child = down[v as usize].take();
        let folded = fold_child(
            graph,
            rel,
            down[parent as usize].take(),
            child.as_ref(),
            scratch,
        )
        .ok_or(Stop::Overflow)?;
        if folded.keys.is_empty() {
            return Ok(T::ZERO);
        }
        down[parent as usize] = Some(folded);
    }
    let at_root = down[root as usize]
        .take()
        .expect("a tree with an edge folds a child into its root");
    at_root
        .vals
        .iter()
        .try_fold(T::ZERO, |a, &x| a.add(x))
        .ok_or(Stop::Overflow)
}

/// The centre of the query tree — the variable of least height as a
/// root, lowest id on a tie — so messages travel the fewest hops.
fn centre(query: &QueryGraph) -> VarId {
    fn height(query: &QueryGraph, v: VarId, from: Option<usize>) -> usize {
        query
            .edges_at(v)
            .filter(|&i| Some(i) != from)
            .map(|i| 1 + height(query, query.edge(i).other(v), Some(i)))
            .max()
            .unwrap_or(0)
    }
    (0..query.num_vars())
        .min_by_key(|&v| height(query, v, None))
        .expect("a tree has a variable")
}

/// Count an unconstrained tree query in exact `u64` under `budget`:
/// `(None, _)` when the budget stops it. The stats carry the rows swept
/// as `candidates`. The outer `None` hands the query to the backtracking
/// kernel: it is not a tree, or a weight overflowed `u64`.
pub(crate) fn count_tree(
    graph: &LabeledGraph,
    query: &QueryGraph,
    budget: CountBudget,
) -> Option<(Option<u64>, KernelStats)> {
    if !is_tree(query) {
        return None;
    }
    let mut state = BudgetState::new(budget);
    if state.expired_at_entry() {
        return Some((None, state.stats));
    }
    match fold_tree::<u64>(graph, query, centre(query), &mut state, &mut Vec::new()) {
        Ok(count) => Some((Some(count), state.stats)),
        Err(Stop::Budget) => Some((None, state.stats)),
        Err(Stop::Overflow) => None,
    }
}

/// Exact homomorphism count of an acyclic connected query as `f64`
/// (counts routinely exceed `u64`), or `None` if the query is cyclic or
/// disconnected (use the backtracking counter). The floating-point
/// instance of the sparse walk, rooted at variable 0.
pub fn count_tree_dp(graph: &LabeledGraph, query: &QueryGraph) -> Option<f64> {
    if !is_tree(query) {
        return None;
    }
    let mut unlimited = BudgetState::new(CountBudget::UNLIMITED);
    fold_tree::<f64>(graph, query, 0, &mut unlimited, &mut Vec::new()).ok()
}

/// The factorized form of a cyclic query: its cyclic core plus the exact
/// weight vectors of the pendant trees peeled off it. Produced by
/// [`factorize`], consumed by `CountPlan::new`.
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
/// the remainder has no edges (the query was acyclic: [`count_tree`] takes
/// unconstrained trees before a plan is built, so through `count` only a
/// constrained tree or one whose DP overflowed gets here, and the
/// kernel's independent-suffix shortcut counts those), or when a weight
/// overflows `u64`.
pub(crate) fn factorize(
    graph: &LabeledGraph,
    query: &QueryGraph,
    cons: &VarConstraints,
) -> Option<Factorization> {
    let nv = query.num_vars() as usize;
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
    // the order. The relation sweeps below run only once we know a
    // non-empty core actually survives; a constrained tree (whose core is
    // empty) abandons here for free.
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
    // weight into its parent ([`fold_child`], exact u64; an overflow
    // abandons the factorization).
    let mut weights: Vec<Option<Sparse<u64>>> = (0..nv).map(|_| None).collect();
    let mut scratch = Vec::new();
    for &(v, ei) in &peel_order {
        let e = query.edge(ei);
        let parent = e.other(v as VarId) as usize;
        let rel = Relation {
            label: e.label,
            backward: e.src != parent as VarId,
        };
        let child = weights[v].take();
        weights[parent] = Some(fold_child(
            graph,
            rel,
            weights[parent].take(),
            child.as_ref(),
            &mut scratch,
        )?);
    }

    // Compact the surviving variables; remap constraints, weights, edges.
    let ncore = (nv - peel_order.len()) as VarId;
    let mut to_core = vec![VarId::MAX; nv];
    let mut core_cons = VarConstraints::none(ncore);
    let mut core_weights = Vec::with_capacity(ncore as usize);
    for v in (0..nv).filter(|&v| !removed_var[v]) {
        let cv = core_weights.len() as VarId;
        to_core[v] = cv;
        core_cons.set(cv, cons.get(v as VarId));
        // The kernel indexes a weight by candidate binding: lay the
        // sparse vector out over the domain, once per core variable.
        core_weights.push(weights[v].take().map(|sparse| {
            let mut dense = vec![0u64; graph.num_vertices()].into_boxed_slice();
            for (&u, &w) in sparse.keys.iter().zip(&sparse.vals) {
                dense[u as usize] = w;
            }
            dense
        }));
    }
    let core_edges: Vec<QueryEdge> = query
        .edges()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !removed_edge[i])
        .map(|(_, e)| QueryEdge::new(to_core[e.src as usize], to_core[e.dst as usize], e.label))
        .collect();
    Some(Factorization {
        core: QueryGraph::new(ncore, core_edges),
        cons: core_cons,
        weights: core_weights,
    })
}

/// Exact truth for any connected query: tree DP when acyclic, otherwise
/// backtracking with the given budget. `None` when the budget runs out.
pub fn exact_count(graph: &LabeledGraph, query: &QueryGraph, budget: CountBudget) -> Option<f64> {
    if let Some(c) = count_tree_dp(graph, query) {
        return Some(c);
    }
    let cons = VarConstraints::none(query.num_vars());
    crate::count::count_budgeted(graph, query, &cons, budget)
        .0
        .map(|c| c as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::{count, count_budgeted, CountPlan};
    use crate::intersect::IntersectStrategy;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

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

    /// The dense tree DP this module used to run for [`count_tree_dp`]:
    /// one `|V|`-vector per variable, rooted at variable 0. Kept as the
    /// oracle the sparse walk's `f64` instance must match bit for bit.
    fn count_tree_dp_dense(graph: &LabeledGraph, query: &QueryGraph) -> f64 {
        let n = graph.num_vertices();
        let root: VarId = 0;
        let nv = query.num_vars() as usize;
        let mut order: Vec<(VarId, Option<usize>)> = Vec::with_capacity(nv);
        let mut visited = vec![false; nv];
        let mut stack = vec![(root, None)];
        while let Some((v, pe)) = stack.pop() {
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            order.push((v, pe));
            for i in query.edges_at(v) {
                let o = query.edge(i).other(v);
                if !visited[o as usize] {
                    stack.push((o, Some(i)));
                }
            }
        }
        let mut down: Vec<Vec<f64>> = vec![vec![1.0; n]; nv];
        for &(v, parent_edge) in order.iter().rev() {
            let Some(pei) = parent_edge else { continue };
            let e = query.edge(pei);
            let parent = e.other(v);
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
        down[root as usize].iter().sum()
    }

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(20);
        for i in 0..6 {
            b.add_edge(i, 6 + i, 0);
            b.add_edge(6 + i, 12 + (i % 4), 1);
            b.add_edge(12 + (i % 4), 16 + (i % 3), 2);
        }
        b.build()
    }

    /// A hub with `degree` out-edges under label 0.
    fn hub(degree: u32) -> LabeledGraph {
        let mut b = GraphBuilder::new(degree as usize + 1);
        for i in 1..=degree {
            b.add_edge(0, i, 0);
        }
        b.build()
    }

    fn unconstrained(
        g: &LabeledGraph,
        q: &QueryGraph,
        budget: CountBudget,
    ) -> (Option<u64>, KernelStats) {
        count_budgeted(g, q, &VarConstraints::none(q.num_vars()), budget)
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
            let cons = VarConstraints::none(q.num_vars());
            let (kernel, _) = CountPlan::new(&g, &q, &cons, IntersectStrategy::Adaptive)
                .count(CountBudget::UNLIMITED);
            let kernel = kernel.expect("unlimited");
            assert_eq!(count(&g, &q), kernel, "u64 mismatch on {q}");
            let dp = count_tree_dp(&g, &q).unwrap();
            assert_eq!(dp, kernel as f64, "f64 mismatch on {q}");
            assert_eq!(dp.to_bits(), count_tree_dp_dense(&g, &q).to_bits());
        }
    }

    /// The `f64` instance reproduces the dense DP's bits on the acyclic
    /// workload pools (their truths were recorded with the dense DP), on
    /// the wire benchmark's `g10k` graph and seed.
    #[test]
    fn f64_instance_matches_the_dense_oracle_on_the_workload_pools() {
        use ceg_workload::{Rung, Workload};
        let g = Rung { k: 1 }.graph(2022);
        let mut checked = 0;
        for w in [Workload::Job, Workload::Acyclic, Workload::GCareAcyclic] {
            for wq in w.build(&g, 20, 2022) {
                let sparse = count_tree_dp(&g, &wq.query).expect("acyclic pool");
                let dense = count_tree_dp_dense(&g, &wq.query);
                assert_eq!(sparse.to_bits(), dense.to_bits(), "{}", wq.query);
                assert_eq!(sparse.to_bits(), wq.truth.to_bits());
                checked += 1;
            }
        }
        // 36 templates: 7 JOB, 18 Acyclic, 11 G-CARE-Acyclic.
        assert_eq!(checked, 36 * 20, "a template came up short");
    }

    /// A walk that stops early — on an empty intermediate, a `u64`
    /// overflow or the budget — after folding an inner child leaves its
    /// scratch all zero, so the next walk handed the same scratch counts
    /// what a fresh one would.
    #[test]
    fn a_walk_stopping_early_leaves_nothing_behind() {
        // Eight hubs with 200 out-edges each under label 0; vertex 2000
        // points at every hub under label 1; label 3 is one edge that
        // touches none of them.
        let mut b = GraphBuilder::with_labels(3002, 4);
        for hub in 0..8 {
            for i in 0..200 {
                b.add_edge(hub, 100 + 200 * hub + i, 0);
            }
            b.add_edge(2000, hub, 1);
        }
        b.add_edge(3000, 3001, 3);
        let g = b.build();
        let q = |edges: &[(VarId, VarId, LabelId)]| {
            let edges: Vec<QueryEdge> = edges
                .iter()
                .map(|&(s, d, l)| QueryEdge::new(s, d, l))
                .collect();
            QueryGraph::new(edges.len() as VarId + 1, edges)
        };
        let walk = |query: &QueryGraph, budget: CountBudget, scratch: &mut Vec<u64>| match fold_tree(
            &g,
            query,
            0,
            &mut BudgetState::new(budget),
            scratch,
        ) {
            Ok(count) => format!("count {count}"),
            Err(Stop::Budget) => "budget".to_string(),
            Err(Stop::Overflow) => "overflow".to_string(),
        };
        // Rooted at x = 0: the inner child y = 1 holds weights on the hubs.
        let overflow = {
            // y carries 8 leaves, 200^8 per hub; their sum over x's row
            // of 8 hubs passes u64::MAX.
            let mut edges = vec![(0, 1, 1)];
            edges.extend((2..10).map(|z| (1, z, 0)));
            q(&edges)
        };
        // x's other child t has no row at vertex 2000.
        let empty = q(&[(0, 1, 1), (1, 2, 0), (0, 3, 3)]);
        // Rows: 8 for z into y, 1 for y into x, then 1 for y2 into x;
        // 200 z per hub times 8 y2.
        let three_folds = q(&[(0, 1, 1), (1, 2, 0), (0, 3, 1)]);
        // y's only weight is at vertex 3000: zero on every hub x reaches.
        let next = q(&[(0, 1, 1), (1, 2, 3)]);

        for (query, budget, stop) in [
            (&overflow, CountBudget::UNLIMITED, "overflow"),
            (&empty, CountBudget::UNLIMITED, "count 0"),
            (&three_folds, CountBudget::new(9), "budget"),
        ] {
            let mut scratch = Vec::new();
            assert_eq!(walk(query, budget, &mut scratch), stop, "{query}");
            assert_eq!(
                scratch.len(),
                g.num_vertices(),
                "{query} folds an inner child"
            );
            assert!(
                scratch.iter().all(|&w| w == 0),
                "{query} left weights behind"
            );
            assert_eq!(walk(&next, CountBudget::UNLIMITED, &mut scratch), "count 0");
            let full = walk(&three_folds, CountBudget::UNLIMITED, &mut scratch);
            assert_eq!(full, format!("count {}", 8 * 200 * 8));
        }
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let g = toy();
        let q = templates::cycle(3, &[0, 1, 2]);
        assert_eq!(count_tree_dp(&g, &q), None);
        assert!(count_tree(&g, &q, CountBudget::UNLIMITED).is_none());
    }

    #[test]
    fn huge_star_counts_do_not_explode() {
        // hub with 200 out-edges; a 8-star has 200^8 ≈ 2.6e18 homs —
        // enumeration would never finish, the DP is instant.
        let g = hub(200);
        let q = templates::star(8, &[0; 8]);
        let c = count_tree_dp(&g, &q).unwrap();
        assert_eq!(c, 200f64.powi(8));
        assert_eq!(count(&g, &q), 200u64.pow(8));
    }

    /// 200⁹ does not fit `u64`: the DP hands the query to the kernel and
    /// the caller gets exactly what the kernel gives.
    #[test]
    fn u64_overflow_falls_through_to_the_kernel() {
        let g = hub(200);
        let q = templates::star(9, &[0; 9]);
        assert!(count_tree(&g, &q, CountBudget::UNLIMITED).is_none());
        let budget = CountBudget::new(100_000);
        let cons = VarConstraints::none(q.num_vars());
        let kernel = CountPlan::new(&g, &q, &cons, IntersectStrategy::Adaptive).count(budget);
        assert_eq!(unconstrained(&g, &q, budget), kernel);
        assert_eq!(count_tree_dp(&g, &q), Some(200f64.powi(9)));
    }

    /// The DP's budget unit is a relation row swept, charged per sweep
    /// before it runs.
    #[test]
    fn candidates_are_the_rows_swept() {
        let g = toy();
        // One edge: the sources of the relation, without the sweep.
        let (c, stats) = unconstrained(&g, &templates::path(1, &[0]), CountBudget::UNLIMITED);
        assert_eq!(c, Some(6));
        assert_eq!(stats.candidates, g.distinct_sources(0) as u64);
        // a0 -0-> a1 -1-> a2 is rooted at a1: the targets of label 0 and
        // the sources of label 1.
        let path = templates::path(2, &[0, 1]);
        let rows = (g.distinct_targets(0) + g.distinct_sources(1)) as u64;
        let (c, stats) = unconstrained(&g, &path, CountBudget::UNLIMITED);
        assert_eq!(c, Some(6));
        assert_eq!(stats.candidates, rows);
        assert_eq!(stats.budget_consumed, rows);
        assert_eq!((stats.memo_hits, stats.suffix_shortcuts), (0, 0));
        // The exact boundary, and one short of it.
        assert_eq!(unconstrained(&g, &path, CountBudget::new(rows)).0, Some(6));
        let (c, stats) = unconstrained(&g, &path, CountBudget::new(rows - 1));
        assert_eq!(c, None);
        assert_eq!(stats.budget_consumed, rows - 1, "the allowance is spent");
        // An empty relation sweeps nothing and counts nothing.
        let g4 = {
            let mut b = GraphBuilder::with_labels(20, 4);
            b.add_edge(0, 1, 0);
            b.build()
        };
        let (c, stats) = unconstrained(&g4, &templates::path(1, &[3]), CountBudget::UNLIMITED);
        assert_eq!((c, stats.candidates), (Some(0), 0));
    }

    #[test]
    fn expired_deadline_sweeps_nothing() {
        let g = toy();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let (c, stats) = unconstrained(&g, &templates::path(2, &[0, 1]), CountBudget::until(past));
        assert_eq!(c, None);
        assert_eq!(stats, KernelStats::default());
    }

    #[test]
    fn the_centre_roots_the_walk() {
        assert_eq!(centre(&templates::path(1, &[0])), 0);
        assert_eq!(centre(&templates::path(2, &[0, 0])), 1);
        assert_eq!(centre(&templates::path(4, &[0; 4])), 2);
        assert_eq!(centre(&templates::star(5, &[0; 5])), 0);
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
        assert_eq!(count(&g, &q), 0);
    }
}
