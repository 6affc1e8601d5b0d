//! Canonical forms of whole query graphs.
//!
//! [`Pattern`](crate::Pattern) canonicalizes *small* patterns by brute
//! force over variable permutations, which is only feasible up to ~8
//! variables. Workload queries go up to 13 variables (a 12-edge path), so
//! the service keys its estimate cache by a [`Certificate`]: the least
//! relabelled, sorted edge list over the leaves of an
//! individualisation–refinement search (McKay & Piperno, *Practical Graph
//! Isomorphism II*, 2014). Two queries have equal certificates exactly
//! when they are isomorphic, and computing one allocates nothing.
//!
//! The search starts from Weisfeiler–Leman colour refinement, whose
//! colours also give [`Certificate::hash`] (= [`QueryGraph::canonical_hash`]):
//! isomorphic queries always hash equal, while WL-equivalent regular
//! graphs (two triangles vs a 6-cycle) collide and differ only in their
//! certificates. [`QueryGraph::is_isomorphic`], a backtracking search, is
//! the independent oracle the tests hold certificates to.

use std::array;
use std::hash::Hasher;

use ceg_graph::hash::FxHasher;
use ceg_graph::LabelId;

use crate::cycles;
use crate::query::{QueryEdge, QueryGraph};
use crate::VarId;

const MAX_VARS: usize = QueryGraph::MAX_VARS as usize;
const MAX_EDGES: usize = QueryGraph::MAX_EDGES;
/// Automorphisms a search remembers for pruning; later ones are dropped,
/// which prunes less but never changes the certificate.
const MAX_AUTOMORPHISMS: usize = 16;

/// Hash a word sequence with the workspace's deterministic FxHash (no
/// per-process seed, so hashes are stable across runs and machines with
/// the same endianness conventions for `u64`).
fn mix(parts: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// The direction tags of an incidence, as the hash has always mixed them.
const OUT: u8 = 1;
const IN: u8 = 2;
const LOOP: u8 = 3;

/// One edge as seen from one of its variables: `OUT` at its source, `IN`
/// at its target, `LOOP` (once) for a self-loop.
#[derive(Clone, Copy, Default)]
struct Incidence {
    tag: u8,
    label: LabelId,
    other: VarId,
}

/// Every variable's incidences, grouped by variable: built once per
/// query, read by every refinement round.
struct Adjacency {
    n: usize,
    start: [u8; MAX_VARS + 1],
    inc: [Incidence; 2 * MAX_EDGES],
}

impl Adjacency {
    fn of(q: &QueryGraph) -> Self {
        let n = q.num_vars() as usize;
        let mut start = [0u8; MAX_VARS + 1];
        for e in q.edges() {
            start[e.src as usize + 1] += 1;
            if e.dst != e.src {
                start[e.dst as usize + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut inc = [Incidence::default(); 2 * MAX_EDGES];
        let mut cursor = start;
        let mut push = |v: VarId, tag: u8, label: LabelId, other: VarId| {
            let at = &mut cursor[v as usize];
            inc[*at as usize] = Incidence { tag, label, other };
            *at += 1;
        };
        for e in q.edges() {
            if e.src == e.dst {
                push(e.src, LOOP, e.label, e.src);
            } else {
                push(e.src, OUT, e.label, e.dst);
                push(e.dst, IN, e.label, e.src);
            }
        }
        Adjacency { n, start, inc }
    }

    /// Where `v`'s incidences sit in `inc`.
    fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.start[v] as usize..self.start[v + 1] as usize
    }

    /// Stable WL colours after `n` rounds from all-zero (refinement
    /// provably stabilizes within that many). A round's colour of `v`
    /// mixes its current colour with the sorted codes of its incidences'
    /// (tag, label, neighbour colour).
    fn wl_colors(&self) -> [u64; MAX_VARS] {
        let mut colors = [0u64; MAX_VARS];
        let mut next = [0u64; MAX_VARS];
        let mut codes = [0u64; MAX_EDGES];
        for _ in 0..self.n {
            for (v, slot) in next.iter_mut().enumerate().take(self.n) {
                let incs = &self.inc[self.range(v)];
                let codes = &mut codes[..incs.len()];
                for (code, i) in codes.iter_mut().zip(incs) {
                    *code = mix(&[i.tag as u64, i.label as u64, colors[i.other as usize]]);
                }
                codes.sort_unstable();
                let mut h = FxHasher::default();
                h.write_u64(colors[v]);
                codes.iter().for_each(|&c| h.write_u64(c));
                *slot = h.finish();
            }
            colors = next;
        }
        colors
    }

    /// Refine `p` to the coarsest equitable partition below it: split
    /// every cell by its variables' sorted (tag, label, neighbour cell)
    /// triples until no cell splits. Cells are renumbered in (old cell,
    /// triples) order, so the numbering is as free of variable names as
    /// `p`'s was.
    fn refine(&self, p: &mut Partition) {
        let n = self.n;
        let mut codes = [0u32; 2 * MAX_EDGES];
        let mut order: [VarId; MAX_VARS] = array::from_fn(|v| v as VarId);
        loop {
            for v in 0..n {
                let range = self.range(v);
                for (code, i) in codes[range.clone()]
                    .iter_mut()
                    .zip(&self.inc[range.clone()])
                {
                    let cell = p.cell[i.other as usize] as u32;
                    *code = (i.tag as u32) << 24 | cell << 16 | i.label as u32;
                }
                codes[range].sort_unstable();
            }
            let key = |v: VarId| (p.cell[v as usize], &codes[self.range(v as usize)]);
            order[..n].sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
            let next = Partition::ranked(&order[..n], key);
            let split = next.count > p.count;
            *p = next;
            if !split {
                return;
            }
        }
    }
}

/// The WL hash: variable count, edge count, the sorted colours (which
/// cover isolated variables) and the sorted (source, target, label)
/// colour codes of the edges.
fn wl_hash(q: &QueryGraph, colors: &[u64; MAX_VARS]) -> u64 {
    let (n, m) = (q.num_vars() as usize, q.num_edges());
    let mut edge_codes = [0u64; MAX_EDGES];
    for (code, e) in edge_codes.iter_mut().zip(q.edges()) {
        *code = mix(&[
            colors[e.src as usize],
            colors[e.dst as usize],
            e.label as u64,
        ]);
    }
    edge_codes[..m].sort_unstable();
    let mut var_codes = *colors;
    var_codes[..n].sort_unstable();
    let mut h = FxHasher::default();
    h.write_u64(n as u64);
    h.write_u64(m as u64);
    var_codes[..n].iter().for_each(|&c| h.write_u64(c));
    edge_codes[..m].iter().for_each(|&c| h.write_u64(c));
    h.finish()
}

/// An ordered partition of the variables: `cell[v]` numbers `v`'s cell,
/// and the cells are `0..count`.
#[derive(Clone, Copy, Default)]
struct Partition {
    cell: [u8; MAX_VARS],
    count: usize,
}

impl Partition {
    /// Cells in the order of their colours' values.
    fn of_colors(colors: &[u64; MAX_VARS], n: usize) -> Self {
        let mut order: [VarId; MAX_VARS] = array::from_fn(|v| v as VarId);
        order[..n].sort_unstable_by_key(|&v| colors[v as usize]);
        Partition::ranked(&order[..n], |v| colors[v as usize])
    }

    /// Cells numbered along `order`, sorted by `key`: neighbours with
    /// equal keys share a cell.
    fn ranked<K: PartialEq>(order: &[VarId], key: impl Fn(VarId) -> K) -> Self {
        let mut p = Partition::default();
        for (i, &v) in order.iter().enumerate() {
            if i > 0 && key(order[i - 1]) != key(v) {
                p.count += 1;
            }
            p.cell[v as usize] = p.count as u8;
        }
        p.count += usize::from(!order.is_empty());
        p
    }

    /// The cell to branch on: the first of the smallest non-singleton
    /// cells, or `None` once every cell is a singleton (a leaf).
    fn target(&self, n: usize) -> Option<u8> {
        let mut size = [0u8; MAX_VARS];
        self.cell[..n].iter().for_each(|&c| size[c as usize] += 1);
        (0..self.count as u8)
            .filter(|&c| size[c as usize] > 1)
            .min_by_key(|&c| size[c as usize])
    }

    /// `v` split off its cell, placed just before the rest of it.
    fn individualise(&self, v: VarId, n: usize) -> Self {
        let own = self.cell[v as usize];
        let mut p = *self;
        for (w, c) in p.cell[..n].iter_mut().enumerate() {
            if *c > own || (*c == own && w != v as usize) {
                *c += 1;
            }
        }
        p.count += 1;
        p
    }
}

/// A leaf of the search: the query relabelled by a discrete partition and
/// sorted, which variable got each new name, and the variables
/// individualised on the way down.
#[derive(Clone, Copy)]
struct Leaf {
    edges: [QueryEdge; MAX_EDGES],
    var_of: [VarId; MAX_VARS],
    path: [VarId; MAX_VARS],
    depth: usize,
}

/// The individualisation–refinement search tree, walked depth first. A
/// leaf that repeats the first or the best one so far gives an
/// automorphism, which prunes twice: it joins orbits, so a later sibling
/// in the orbit of a tried one is skipped; and it maps the subtree it was
/// found in onto one already explored, so the search returns to the node
/// where the two leaves' paths part.
struct Search<'a> {
    adj: &'a Adjacency,
    edges: &'a [QueryEdge],
    /// `edges` sorted: the twin test compares against it.
    sorted: [QueryEdge; MAX_EDGES],
    /// On a forest the refined cells are orbits, so one child per node
    /// covers them all.
    forest: bool,
    /// The variables individualised on the way to the current node.
    path: [VarId; MAX_VARS],
    first: Option<Leaf>,
    best: Option<Leaf>,
    automorphisms: [[VarId; MAX_VARS]; MAX_AUTOMORPHISMS],
    found: usize,
    leaves: u32,
}

impl Search<'_> {
    /// Explore the node `p`, reached by individualising `path[..depth]`.
    /// Returns the depth to return to when a leaf below it repeated an
    /// explored one.
    fn descend(&mut self, p: &Partition, depth: usize) -> Option<usize> {
        let n = self.adj.n;
        let Some(target) = p.target(n) else {
            return self.leaf(p, depth);
        };
        let mut tried = [0 as VarId; MAX_VARS];
        let mut ntried = 0;
        for v in (0..n as VarId).filter(|&v| p.cell[v as usize] == target) {
            if ntried > 0 && (self.forest || self.equivalent(v, &tried[..ntried], depth)) {
                continue;
            }
            self.path[depth] = v;
            let mut child = p.individualise(v, n);
            self.adj.refine(&mut child);
            let back = self.descend(&child, depth + 1);
            tried[ntried] = v;
            ntried += 1;
            if back.is_some_and(|d| d < depth) {
                return back;
            }
        }
        None
    }

    /// True if an automorphism fixing `path[..depth]` maps `v` onto a
    /// variable already tried at this node, so `v`'s subtree repeats its
    /// leaves: `v` is a twin of one (their transposition is an
    /// automorphism), or in its orbit under the automorphisms found so far.
    fn equivalent(&self, v: VarId, tried: &[VarId], depth: usize) -> bool {
        if tried.iter().any(|&u| self.twins(u, v)) {
            return true;
        }
        fn find(root: &mut [VarId; MAX_VARS], mut w: VarId) -> VarId {
            while root[w as usize] != w {
                root[w as usize] = root[root[w as usize] as usize];
                w = root[w as usize];
            }
            w
        }
        let mut root: [VarId; MAX_VARS] = array::from_fn(|w| w as VarId);
        let prefix = &self.path[..depth];
        for g in &self.automorphisms[..self.found] {
            if prefix.iter().any(|&w| g[w as usize] != w) {
                continue;
            }
            for w in 0..self.adj.n as VarId {
                let (a, b) = (find(&mut root, w), find(&mut root, g[w as usize]));
                root[a as usize] = b;
            }
        }
        let orbit = find(&mut root, v);
        tried.iter().any(|&u| find(&mut root, u) == orbit)
    }

    /// True if swapping `a` and `b` maps the edge multiset onto itself.
    fn twins(&self, a: VarId, b: VarId) -> bool {
        let swap = |x: VarId| match x {
            x if x == a => b,
            x if x == b => a,
            x => x,
        };
        let m = self.edges.len();
        let mut swapped = self.sorted;
        for (s, e) in swapped.iter_mut().zip(self.edges) {
            *s = QueryEdge::new(swap(e.src), swap(e.dst), e.label);
        }
        swapped[..m].sort_unstable();
        swapped[..m] == self.sorted[..m]
    }

    /// Relabel by the discrete partition `p` and keep the least edge
    /// list. A leaf equal to the first or the best one records the
    /// automorphism between them and returns the depth where their paths
    /// part: the subtree holding it there repeats the explored one.
    fn leaf(&mut self, p: &Partition, depth: usize) -> Option<usize> {
        self.leaves += 1;
        let (n, m) = (self.adj.n, self.edges.len());
        let mut leaf = Leaf {
            edges: self.sorted,
            var_of: [0; MAX_VARS],
            path: self.path,
            depth,
        };
        for (v, &c) in p.cell[..n].iter().enumerate() {
            leaf.var_of[c as usize] = v as VarId;
        }
        for (r, e) in leaf.edges.iter_mut().zip(self.edges) {
            *r = QueryEdge::new(p.cell[e.src as usize], p.cell[e.dst as usize], e.label);
        }
        leaf.edges[..m].sort_unstable();
        let (Some(first), Some(best)) = (self.first, self.best) else {
            (self.first, self.best) = (Some(leaf), Some(leaf));
            return None;
        };
        for seen in [first, best] {
            if seen.edges[..m] != leaf.edges[..m] {
                continue;
            }
            if let Some(g) = self.automorphisms.get_mut(self.found) {
                // v -> its name here -> the variable of that name there.
                for (v, &c) in p.cell[..n].iter().enumerate() {
                    g[v] = seen.var_of[c as usize];
                }
                self.found += 1;
            }
            let (ours, theirs) = (&leaf.path[..depth], &seen.path[..seen.depth]);
            return Some(ours.iter().zip(theirs).take_while(|(a, b)| a == b).count());
        }
        if leaf.edges[..m] < best.edges[..m] {
            self.best = Some(leaf);
        }
        None
    }
}

/// A query's canonical form: its variable count and its edges relabelled
/// by the least leaf of the individualisation–refinement search, sorted.
/// Two queries have equal certificates exactly when they are isomorphic
/// (same pattern up to variable renaming, respecting edge direction,
/// labels and multiplicities).
#[derive(Clone, Copy, Debug)]
pub struct Certificate {
    hash: u64,
    leaves: u32,
    num_vars: VarId,
    len: u8,
    edges: [QueryEdge; MAX_EDGES],
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars && self.edges() == other.edges()
    }
}

impl Eq for Certificate {}

impl Certificate {
    /// The query's WL hash, [`QueryGraph::canonical_hash`]: equal
    /// certificates have equal hashes, not conversely.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Variables of the query, isolated ones included.
    pub fn num_vars(&self) -> VarId {
        self.num_vars
    }

    /// The canonically relabelled edges, sorted.
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges[..self.len as usize]
    }

    /// Leaves the search reached: the cost of finding the certificate (1
    /// when refinement alone tells every variable apart).
    pub fn leaves(&self) -> u32 {
        self.leaves
    }
}

impl QueryGraph {
    /// The query's [`Certificate`]. Colour refinement runs once; the
    /// search then branches on the first smallest non-singleton cell,
    /// skips a variable an automorphism maps onto one already tried
    /// (twins first), and on an acyclic query tries one variable per cell.
    pub fn certificate(&self) -> Certificate {
        let adj = Adjacency::of(self);
        let colors = adj.wl_colors();
        let n = adj.n;
        let mut root = Partition::of_colors(&colors, n);
        adj.refine(&mut root);
        let mut sorted = [QueryEdge::default(); MAX_EDGES];
        sorted[..self.num_edges()].copy_from_slice(self.edges());
        sorted[..self.num_edges()].sort_unstable();
        let mut search = Search {
            adj: &adj,
            edges: self.edges(),
            sorted,
            forest: cycles::is_acyclic(self),
            path: [0; MAX_VARS],
            first: None,
            best: None,
            automorphisms: [[0; MAX_VARS]; MAX_AUTOMORPHISMS],
            found: 0,
            leaves: 0,
        };
        search.descend(&root, 0);
        Certificate {
            hash: wl_hash(self, &colors),
            leaves: search.leaves,
            num_vars: self.num_vars(),
            len: self.num_edges() as u8,
            edges: search.best.map_or(sorted, |leaf| leaf.edges),
        }
    }

    /// A hash of the query invariant under variable renaming: isomorphic
    /// queries always collide, non-isomorphic ones almost never do (WL
    /// refinement cannot separate some regular graphs — compare
    /// [`QueryGraph::certificate`]s where exactness matters).
    pub fn canonical_hash(&self) -> u64 {
        self.certificate().hash()
    }

    /// Exact isomorphism test by backtracking (same pattern up to
    /// variable renaming, respecting edge direction, labels and
    /// multiplicities), independent of [`QueryGraph::certificate`]: the
    /// oracle its tests hold it to. Colour refinement prunes the mapping
    /// space.
    pub fn is_isomorphic(&self, other: &QueryGraph) -> bool {
        if self.num_vars() != other.num_vars() || self.num_edges() != other.num_edges() {
            return false;
        }
        let ca = Adjacency::of(self).wl_colors();
        let cb = Adjacency::of(other).wl_colors();
        let n = self.num_vars() as usize;
        let (mut sa, mut sb) = (ca, cb);
        sa[..n].sort_unstable();
        sb[..n].sort_unstable();
        if sa[..n] != sb[..n] {
            return false;
        }
        // Sorted target edge list for the leaf check.
        let mut other_edges: Vec<(VarId, VarId, u64)> = other
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, e.label as u64))
            .collect();
        other_edges.sort_unstable();

        // Assign high-degree variables first: they are the most
        // constrained, so dead branches die early.
        let mut order: Vec<VarId> = (0..self.num_vars()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.var_degree(v)));
        let mut mapping: Vec<Option<VarId>> = vec![None; n];
        let mut used = vec![false; n];
        self.search(
            other,
            &ca[..n],
            &cb[..n],
            &order,
            0,
            &mut mapping,
            &mut used,
            &other_edges,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        other: &QueryGraph,
        ca: &[u64],
        cb: &[u64],
        order: &[VarId],
        depth: usize,
        mapping: &mut Vec<Option<VarId>>,
        used: &mut Vec<bool>,
        other_edges: &[(VarId, VarId, u64)],
    ) -> bool {
        if depth == order.len() {
            // Full assignment: compare mapped edge multisets exactly.
            let mut mapped: Vec<(VarId, VarId, u64)> = self
                .edges()
                .iter()
                .map(|e| {
                    (
                        mapping[e.src as usize].unwrap(),
                        mapping[e.dst as usize].unwrap(),
                        e.label as u64,
                    )
                })
                .collect();
            mapped.sort_unstable();
            return mapped == other_edges;
        }
        let v = order[depth];
        for u in 0..other.num_vars() {
            if used[u as usize] || ca[v as usize] != cb[u as usize] {
                continue;
            }
            // Partial consistency: every self-edge between v and an
            // already-mapped variable must exist in `other` (presence
            // only; multiplicities are settled by the leaf check).
            let consistent = self.edges().iter().all(|e| {
                if !e.touches(v) {
                    return true;
                }
                let (ms, md) = (
                    if e.src == v {
                        Some(u)
                    } else {
                        mapping[e.src as usize]
                    },
                    if e.dst == v {
                        Some(u)
                    } else {
                        mapping[e.dst as usize]
                    },
                );
                match (ms, md) {
                    (Some(s), Some(d)) => other
                        .edges()
                        .iter()
                        .any(|oe| oe.src == s && oe.dst == d && oe.label == e.label),
                    _ => true,
                }
            });
            if !consistent {
                continue;
            }
            mapping[v as usize] = Some(u);
            used[u as usize] = true;
            if self.search(other, ca, cb, order, depth + 1, mapping, used, other_edges) {
                return true;
            }
            mapping[v as usize] = None;
            used[u as usize] = false;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::query::{QueryEdge, QueryGraph};
    use crate::templates;
    use crate::VarId;

    /// Relabel the variables of `q` by `perm` (old var -> new var).
    fn relabel(q: &QueryGraph, perm: &[VarId]) -> QueryGraph {
        let edges = q
            .edges()
            .iter()
            .map(|e| QueryEdge::new(perm[e.src as usize], perm[e.dst as usize], e.label))
            .collect();
        QueryGraph::new(q.num_vars(), edges)
    }

    #[test]
    fn hash_is_invariant_under_renaming() {
        let q = templates::path(4, &[0, 1, 0, 2]);
        let r = relabel(&q, &[4, 2, 0, 1, 3]);
        assert_ne!(q.edges(), r.edges());
        assert_eq!(q.canonical_hash(), r.canonical_hash());
        assert!(q.is_isomorphic(&r));
    }

    #[test]
    fn hash_is_invariant_for_cyclic_renaming() {
        let q = templates::cycle(5, &[0, 1, 2, 3, 4]);
        let r = relabel(&q, &[2, 3, 4, 0, 1]);
        assert_eq!(q.canonical_hash(), r.canonical_hash());
        assert!(q.is_isomorphic(&r));
    }

    #[test]
    fn near_miss_label_change_differs() {
        let q = templates::path(3, &[0, 1, 2]);
        let r = templates::path(3, &[0, 1, 3]);
        assert_ne!(q.canonical_hash(), r.canonical_hash());
        assert!(!q.is_isomorphic(&r));
    }

    #[test]
    fn near_miss_direction_flip_differs() {
        // chain a0 -0-> a1 -1-> a2 vs meet a0 -0-> a1 <-1- a2.
        let chain = QueryGraph::new(3, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(1, 2, 1)]);
        let meet = QueryGraph::new(3, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(2, 1, 1)]);
        assert_ne!(chain.canonical_hash(), meet.canonical_hash());
        assert!(!chain.is_isomorphic(&meet));
    }

    #[test]
    fn near_miss_structure_differs() {
        // star-3 vs path-3: same edge count and label multiset.
        let star = templates::star(3, &[0, 0, 0]);
        let path = templates::path(3, &[0, 0, 0]);
        assert_ne!(star.canonical_hash(), path.canonical_hash());
        assert!(!star.is_isomorphic(&path));
    }

    #[test]
    fn wl_collision_is_resolved_by_isomorphism() {
        // The classic 1-WL counterexample: two triangles vs a 6-cycle.
        // Every variable is 2-regular with identical labels, so color
        // refinement cannot separate them and the hashes collide — the
        // exact check must still tell them apart.
        let two_triangles = QueryGraph::new(
            6,
            vec![
                QueryEdge::new(0, 1, 0),
                QueryEdge::new(1, 2, 0),
                QueryEdge::new(2, 0, 0),
                QueryEdge::new(3, 4, 0),
                QueryEdge::new(4, 5, 0),
                QueryEdge::new(5, 3, 0),
            ],
        );
        let hexagon = templates::cycle(6, &[0, 0, 0, 0, 0, 0]);
        assert_eq!(two_triangles.canonical_hash(), hexagon.canonical_hash());
        assert!(!two_triangles.is_isomorphic(&hexagon));
        assert_ne!(two_triangles.certificate(), hexagon.certificate());
        let swapped = relabel(&two_triangles, &[3, 4, 5, 0, 1, 2]);
        assert!(two_triangles.is_isomorphic(&swapped));
        assert_eq!(two_triangles.certificate(), swapped.certificate());
    }

    #[test]
    fn multiplicity_matters() {
        // A doubled edge is not isomorphic to two distinct edges.
        let doubled = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(0, 1, 0)]);
        let single = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0)]);
        assert!(!doubled.is_isomorphic(&single));
        assert_ne!(doubled.certificate(), single.certificate());
    }

    #[test]
    fn isolated_variables_distinguish_queries() {
        let one_var = QueryGraph::new(1, vec![]);
        let two_vars = QueryGraph::new(2, vec![]);
        assert_ne!(one_var.canonical_hash(), two_vars.canonical_hash());
        assert!(!one_var.is_isomorphic(&two_vars));
        assert!(two_vars.is_isomorphic(&QueryGraph::new(2, vec![])));
        assert_ne!(one_var.certificate(), two_vars.certificate());
    }

    /// The hash's bits, recorded before the certificate replaced its
    /// implementation. `cegbench` dedups its query pools by this hash, so
    /// a moved bit is a moved workload.
    #[test]
    fn canonical_hash_bits_are_pinned() {
        let shapes = [
            (
                templates::job_template(0, &[0, 1, 2, 3]),
                0x581a8047ec76d938,
            ),
            (
                templates::tree_depth(8, 4, &[0, 1, 0, 1, 0, 1, 0, 1]),
                0xdf04945f56f517cc,
            ),
            (templates::cycle(6, &[0; 6]), 0x1fa49349a1d04668),
            (templates::clique4(&[0, 1, 0, 1, 0, 1]), 0x79dba7cc223bbced),
            (templates::two_triangles(&[0; 6]), 0x9506b8d51d7bb567),
            (templates::star(12, &[0; 12]), 0x9aaea1ffe22c91a4),
        ];
        for (q, bits) in shapes {
            assert_eq!(q.canonical_hash(), bits, "{q:?}");
            assert_eq!(q.certificate().hash(), bits);
        }
    }

    #[test]
    fn certificate_is_a_sorted_relabelling() {
        let q = templates::q5f(&[4, 3, 2, 1, 0]);
        let c = q.certificate();
        assert_eq!(c.num_vars(), 6);
        assert!(c.edges().windows(2).all(|w| w[0] <= w[1]));
        assert!(QueryGraph::new(6, c.edges().to_vec()).is_isomorphic(&q));
        assert_eq!(c.leaves(), 1, "refinement alone names every variable");
        assert_eq!(c.hash(), q.canonical_hash());
    }

    /// Ten triangles on one shared variable (30 edges): 10! leaves
    /// without automorphism pruning, a few dozen with it.
    #[test]
    fn symmetric_queries_stay_cheap() {
        let mut edges = Vec::new();
        for t in 0..10 {
            let (a, b) = (1 + 2 * t, 2 + 2 * t);
            edges.extend([
                QueryEdge::new(0, a, 0),
                QueryEdge::new(a, b, 0),
                QueryEdge::new(b, 0, 0),
            ]);
        }
        let petals = QueryGraph::new(21, edges);
        let c = petals.certificate();
        assert!(c.leaves() <= 30, "{} leaves", c.leaves());
        let perm: Vec<VarId> = (0..21).map(|v| (v * 8) % 21).collect();
        assert_eq!(relabel(&petals, &perm).certificate(), c);
    }
}
