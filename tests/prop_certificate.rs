//! Property test of `QueryGraph::certificate`, the estimate cache's key.
//!
//! A certificate must be equal for two queries exactly when they are
//! isomorphic. Random queries of at most 13 variables and 12 edges over
//! one or two labels (so that refinement leaves ties for the search to
//! break) are drawn as forests, as arbitrary multigraphs with self-loops
//! and parallel edges, as unions of directed cycles (where refinement
//! splits nothing but the cells are not orbits), and as copies of one
//! small graph hung off a hub, whose automorphisms the search must prune. The oracles are the
//! backtracking `is_isomorphic` and, up to 8 variables, the brute-force
//! `Pattern::canonical`.

use cegraph::query::{templates, Pattern, QueryEdge, QueryGraph};
use proptest::prelude::*;

/// SplitMix64: a query follows from one drawn seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// An edge `u - v` in a random direction with one of `labels` labels.
fn edge(d: &mut Draw, u: usize, v: usize, labels: usize) -> QueryEdge {
    let label = d.below(labels) as u16;
    match d.below(2) {
        0 => QueryEdge::new(u as u8, v as u8, label),
        _ => QueryEdge::new(v as u8, u as u8, label),
    }
}

/// A random query: ≤ 13 variables, ≤ 12 edges, one or two labels.
fn query(d: &mut Draw) -> QueryGraph {
    let labels = 1 + d.below(2);
    let mut edges = Vec::new();
    let n = match d.below(4) {
        // A forest: each variable hangs off an earlier one or starts a tree.
        0 => {
            let n = 1 + d.below(13);
            for v in 1..n {
                if d.below(6) != 0 {
                    let u = d.below(v);
                    edges.push(edge(d, u, v, labels));
                }
            }
            n
        }
        // Anything: self-loops and parallel edges included.
        1 => {
            let most = if d.below(2) == 0 { 6 } else { 13 };
            let n = 1 + d.below(most);
            for _ in 0..d.below(13) {
                let (u, v) = (d.below(n), d.below(n));
                edges.push(edge(d, u, v, labels));
            }
            n
        }
        // Directed cycles of one label: every variable has in- and
        // out-degree 1, so refinement splits nothing, yet a triangle's
        // variable and a hexagon's are in different orbits.
        2 => {
            let mut n = 0;
            while n < 10 {
                let len = 2 + d.below(5).min(10 - n);
                edges.extend(
                    (0..len).map(|i| QueryEdge::new((n + i) as u8, (n + (i + 1) % len) as u8, 0)),
                );
                n += len;
            }
            n
        }
        // Copies of one small connected graph, each tied to a hub.
        _ => {
            let size = 2 + d.below(3);
            let mut base = Vec::new();
            for v in 1..size {
                let u = d.below(v);
                base.push(edge(d, u, v, labels));
            }
            for _ in 0..d.below(3) {
                let (u, v) = (d.below(size), d.below(size));
                base.push(edge(d, u, v, labels));
            }
            let hub = d.below(2) == 0;
            let copies = (12 / (base.len() + usize::from(hub))).min(12 / size).max(1);
            let copies = 1 + d.below(copies);
            for c in 0..copies {
                let at = |v: u8| v + (usize::from(hub) + c * size) as u8;
                edges.extend(
                    base.iter()
                        .map(|e| QueryEdge::new(at(e.src), at(e.dst), e.label)),
                );
                if hub {
                    edges.push(QueryEdge::new(0, at(0), 0));
                }
            }
            usize::from(hub) + copies * size
        }
    };
    edges.truncate(12);
    QueryGraph::new(n as u8, edges)
}

/// `q` with its variables renamed by a random permutation and its edges
/// listed in a random order.
fn renamed(q: &QueryGraph, d: &mut Draw) -> QueryGraph {
    let n = q.num_vars() as usize;
    let mut perm: Vec<u8> = (0..n as u8).collect();
    for i in (1..n).rev() {
        perm.swap(i, d.below(i + 1));
    }
    let mut edges: Vec<QueryEdge> = q
        .edges()
        .iter()
        .map(|e| QueryEdge::new(perm[e.src as usize], perm[e.dst as usize], e.label))
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, d.below(i + 1));
    }
    QueryGraph::new(q.num_vars(), edges)
}

/// `q` renamed, then perhaps changed by one edge: reversed, relabelled or
/// moved. The change may happen to keep the query isomorphic.
fn near(q: &QueryGraph, d: &mut Draw) -> QueryGraph {
    let r = renamed(q, d);
    if r.num_edges() == 0 || d.below(2) == 0 {
        return r;
    }
    let mut edges = r.edges().to_vec();
    let i = d.below(edges.len());
    let e = edges[i];
    edges[i] = match d.below(3) {
        0 => QueryEdge::new(e.dst, e.src, e.label),
        1 => QueryEdge::new(e.src, e.dst, 1 - e.label.min(1)),
        _ => QueryEdge::new(e.src, d.below(r.num_vars() as usize) as u8, e.label),
    };
    QueryGraph::new(r.num_vars(), edges)
}

fn has_parallel_copies(q: &QueryGraph) -> bool {
    let mut edges = q.edges().to_vec();
    edges.sort_unstable();
    edges.windows(2).any(|w| w[0] == w[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Renaming the variables and reordering the edges never changes the
    /// certificate, and the certificate is itself a renaming of the query.
    #[test]
    fn certificate_is_invariant_under_renaming(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let q = query(&mut d);
        let c = q.certificate();
        prop_assert_eq!(c.hash(), q.canonical_hash());
        let canonical = QueryGraph::new(c.num_vars(), c.edges().to_vec());
        prop_assert!(canonical.is_isomorphic(&q), "{:?} -> {:?}", q, c);
        prop_assert_eq!(canonical.certificate(), c);
        for _ in 0..4 {
            let r = renamed(&q, &mut d);
            prop_assert_eq!(r.certificate(), c, "{:?} vs {:?}", q, r);
        }
    }

    /// Equal certificates exactly when the queries are isomorphic, and
    /// (up to 8 variables, no repeated edge) exactly when their
    /// brute-force canonical patterns are equal.
    #[test]
    fn equal_certificates_iff_isomorphic(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let a = query(&mut d);
        let b = if d.below(4) == 0 { query(&mut d) } else { near(&a, &mut d) };
        let same = a.certificate() == b.certificate();
        prop_assert_eq!(same, a.is_isomorphic(&b), "{:?} vs {:?}", a, b);
        if same {
            prop_assert_eq!(a.canonical_hash(), b.canonical_hash());
        }
        let small = a.num_vars() <= 8 && b.num_vars() <= 8;
        if small && !has_parallel_copies(&a) && !has_parallel_copies(&b) {
            let brute = a.num_vars() == b.num_vars()
                && Pattern::canonical(a.edges()) == Pattern::canonical(b.edges());
            prop_assert_eq!(same, brute, "{:?} vs {:?}", a, b);
        }
    }
}

/// The draws reach what the properties need: forests and cyclic queries,
/// isomorphic and non-isomorphic pairs, and searches past one leaf.
#[test]
fn the_draws_cover_both_answers() {
    let (mut iso, mut not_iso, mut searched) = (0, 0, 0);
    for seed in 0..1000 {
        let mut d = Draw(seed);
        let a = query(&mut d);
        let b = near(&a, &mut d);
        if a.is_isomorphic(&b) {
            iso += 1;
        } else {
            not_iso += 1;
        }
        searched += usize::from(a.certificate().leaves() > 1);
    }
    assert!(
        iso > 300 && not_iso > 200,
        "{iso} isomorphic, {not_iso} not"
    );
    assert!(searched > 50, "{searched} searches branched");
}

/// The classic 1-WL pair: two triangles and a 6-cycle, one label. Colour
/// refinement cannot tell them apart, so they share a hash; the
/// certificates differ.
#[test]
fn the_wl_pair_shares_a_hash_not_a_certificate() {
    let two_triangles = QueryGraph::new(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
            .iter()
            .map(|&(s, d)| QueryEdge::new(s, d, 0))
            .collect(),
    );
    let hexagon = templates::cycle(6, &[0; 6]);
    assert_eq!(two_triangles.canonical_hash(), hexagon.canonical_hash());
    assert_ne!(two_triangles.certificate(), hexagon.certificate());
    let mut d = Draw(7);
    for q in [&two_triangles, &hexagon] {
        for _ in 0..20 {
            assert_eq!(renamed(q, &mut d).certificate(), q.certificate());
        }
    }
}
