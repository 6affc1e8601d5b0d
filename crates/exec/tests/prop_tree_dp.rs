//! Differential tests of the sparse tree DP.
//!
//! The free counting functions send every unconstrained tree query to
//! `tree_count`'s sparse walk, and the catalog's own reference
//! (`MarkovTable::build`) goes through the same functions — so nothing
//! downstream can see a wrong DP. These properties pin it against the
//! two counters that share no code with it: the naive reference matcher
//! and the backtracking kernel (`CountPlan::new`, which the free
//! functions no longer reach for these queries). On random skewed graphs
//! with empty relations, random trees with random edge directions and
//! repeated labels, on built graphs and on graphs a random delta was
//! folded into (`LabeledGraph::rebase`: relations over differing CSR
//! domains, labels the base never had), and on a fresh build of what an
//! `OverlayGraph` of the same delta reads.
//!
//! The `f64` instance's bit-equality with the retained dense DP is a unit
//! test of `tree_count` (the oracle is `#[cfg(test)]` there).

use ceg_exec::{count, count_naive, count_tree_dp, CountBudget, CountPlan, VarConstraints};
use ceg_graph::{GraphBuilder, GraphDelta, LabelId, LabeledGraph, OverlayGraph};
use ceg_query::{QueryEdge, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 4;
const VERTICES: u32 = 64;

/// Squares a draw so low vertex ids are hit far more often: a few hubs,
/// many vertices no relation touches.
fn skew(x: u32) -> u32 {
    x * x / VERTICES
}

/// Up to 200 skewed edges over the first `used` of the 4 labels; the
/// relations past `used` stay empty.
fn arb_built() -> impl Strategy<Value = LabeledGraph> {
    (
        2u16..=LABELS,
        prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 0..200),
    )
        .prop_map(|(used, edges)| {
            let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
            for (s, d, l) in edges {
                b.add_edge(skew(s), skew(d), l % used);
            }
            b.build()
        })
}

/// A built graph, or one with a random delta folded in.
fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop_oneof![
        arb_built(),
        (arb_built(), arb_delta()).prop_map(|(g, d)| g.rebase(&d)),
    ]
}

/// Random deltas that grow the vertex domain, including no-ops.
fn arb_delta() -> impl Strategy<Value = GraphDelta> {
    prop::collection::vec(
        (0u8..2, 0u32..VERTICES + 4, 0u32..VERTICES + 4, 0u16..LABELS),
        0..40,
    )
    .prop_map(|ops| {
        let mut d = GraphDelta::new();
        for (add, s, t, l) in ops {
            if add == 1 {
                d.add_edge(s, skew(t.min(VERTICES - 1)), l);
            } else {
                d.del_edge(skew(s.min(VERTICES - 1)), skew(t.min(VERTICES - 1)), l);
            }
        }
        d
    })
}

/// A random tree of 1–8 edges: variable `i + 1` hangs off a random
/// earlier variable, in a random direction, under a random label — the
/// high labels, which the graph may leave empty, drawn less often.
fn arb_tree() -> impl Strategy<Value = QueryGraph> {
    const LABEL_OF: [u16; 16] = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3];
    prop::collection::vec((0u8..8, 0u8..2, 0usize..16), 1..=8).prop_map(|spec| {
        let edges: Vec<QueryEdge> = spec
            .iter()
            .enumerate()
            .map(|(i, &(at, flip, l))| {
                let l = LABEL_OF[l];
                let (child, parent) = (i as u8 + 1, at % (i as u8 + 1));
                if flip == 1 {
                    QueryEdge::new(child, parent, l)
                } else {
                    QueryEdge::new(parent, child, l)
                }
            })
            .collect();
        QueryGraph::new(spec.len() as u8 + 1, edges)
    })
}

/// A tree whose root, variable 0 — the centre, so the root of both the
/// `u64` and the `f64` walk — has two or three inner children (arms of two
/// or three edges) between two leaves. Whichever end its children are
/// folded from, a leaf comes after an inner child, inner children follow
/// one another, and every child after the first folds into a parent that
/// already holds weights. Directions and labels are random per edge.
fn arb_spider() -> impl Strategy<Value = QueryGraph> {
    const LABEL_OF: [u16; 8] = [0, 0, 0, 1, 1, 1, 2, 3];
    (
        prop::collection::vec(2usize..=3, 2..=3),
        prop::collection::vec((0u8..2, 0usize..8), 11),
    )
        .prop_map(|(arms, spec)| {
            let mut spec = spec.into_iter();
            let mut edges = Vec::new();
            let mut hang = |edges: &mut Vec<QueryEdge>, parent: u8| {
                let child = edges.len() as u8 + 1;
                let (flip, l) = spec.next().expect("one draw per edge");
                let l = LABEL_OF[l];
                edges.push(if flip == 1 {
                    QueryEdge::new(child, parent, l)
                } else {
                    QueryEdge::new(parent, child, l)
                });
                child
            };
            hang(&mut edges, 0);
            for &len in &arms {
                let mut at = 0;
                for _ in 0..len {
                    at = hang(&mut edges, at);
                }
            }
            hang(&mut edges, 0);
            QueryGraph::new(edges.len() as u8 + 1, edges)
        })
}

fn kernel(g: &LabeledGraph, q: &QueryGraph) -> u64 {
    let cons = VarConstraints::none(q.num_vars());
    CountPlan::new(g, q, &cons)
        .count(CountBudget::UNLIMITED)
        .0
        .expect("unlimited budget cannot be exhausted")
}

/// A fresh CSR of the edges an overlay reads: every row of every label,
/// over one vertex domain for every relation.
fn built_from(ov: &OverlayGraph<'_>) -> LabeledGraph {
    let mut b = GraphBuilder::with_labels(ov.num_vertices(), ov.num_labels());
    for l in 0..ov.num_labels() as LabelId {
        for (v, row) in ov.rows(l, false) {
            for &t in row {
                b.add_edge(v, t, l);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dp_matches_kernel_and_naive((g, q) in (arb_graph(), arb_tree())) {
        let dp = count(&g, &q);
        prop_assert_eq!(dp, kernel(&g, &q), "kernel disagrees on {}", q);
        // The naive matcher enumerates every match.
        if dp <= 50_000 {
            let naive = count_naive(&g, &q, &VarConstraints::none(q.num_vars()));
            prop_assert_eq!(dp, naive, "naive disagrees on {}", q);
        }
        prop_assert_eq!(count_tree_dp(&g, &q), Some(dp as f64));
    }

    #[test]
    fn dp_on_an_overlay_matches_the_rebased_graph(
        (g, d, q) in (arb_graph(), arb_delta(), arb_tree())
    ) {
        let overlaid = built_from(&OverlayGraph::new(&g, &d));
        let rebased = g.rebase(&d);
        let dp = count(&overlaid, &q);
        prop_assert_eq!(dp, count(&rebased, &q));
        prop_assert_eq!(dp, kernel(&rebased, &q));
        prop_assert_eq!(count_tree_dp(&overlaid, &q), Some(dp as f64));
    }

    #[test]
    fn inner_siblings_and_late_leaves_match_kernel_and_naive(
        (g, d, q) in (arb_graph(), arb_delta(), arb_spider())
    ) {
        let rebased = g.rebase(&d);
        for g in [&g, &rebased] {
            let dp = count(g, &q);
            prop_assert_eq!(dp, kernel(g, &q), "kernel disagrees on {}", q);
            if dp <= 50_000 {
                let naive = count_naive(g, &q, &VarConstraints::none(q.num_vars()));
                prop_assert_eq!(dp, naive, "naive disagrees on {}", q);
            }
            prop_assert_eq!(count_tree_dp(g, &q), Some(dp as f64));
        }
    }
}
