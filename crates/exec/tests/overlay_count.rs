//! Differential tests of the delta-aware counting path.
//!
//! The kernel is generic over `GraphView`; these properties pin the two
//! implementations against each other: counting on an `OverlayGraph`
//! (base CSR + un-folded `GraphDelta`) must agree exactly with counting
//! on the rebased graph (`LabeledGraph::rebase`), which in turn must
//! agree with the naive reference matcher. Together with
//! `tests/prop_count.rs` (kernel vs naive on plain graphs) this closes
//! the loop: base, overlay and rebased representations are
//! indistinguishable to the counting kernel.

use ceg_exec::{count, count_naive, VarConstraints};
use ceg_graph::{GraphBuilder, GraphDelta, LabeledGraph, OverlayGraph};
use ceg_query::{templates, QueryEdge, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;
const VERTICES: u32 = 12;

fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 0..50).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

/// Random deltas, including ops on vertices/labels beyond the base
/// domain and deliberate no-ops (adds of present edges, dels of absent
/// ones) that normalization must strip.
fn arb_delta() -> impl Strategy<Value = GraphDelta> {
    prop::collection::vec(
        (
            0u8..2,
            0u32..VERTICES + 3,
            0u32..VERTICES + 3,
            0u16..LABELS + 1,
        ),
        0..30,
    )
    .prop_map(|ops| {
        let mut d = GraphDelta::new();
        for (add, s, t, l) in ops {
            if add == 1 {
                d.add_edge(s, t, l);
            } else {
                d.del_edge(s, t, l);
            }
        }
        d
    })
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        prop::collection::vec(l.clone(), 1..=4).prop_map(|ls| templates::path(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 2..=4).prop_map(|ls| templates::star(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 3..=5).prop_map(|ls| templates::cycle(ls.len(), &ls)),
        prop::collection::vec((0u8..4, 0u8..4, l), 1..=5).prop_map(|es| {
            let edges: Vec<QueryEdge> = es
                .into_iter()
                .map(|(s, d, l)| QueryEdge::new(s, d, l))
                .collect();
            QueryGraph::new(4, edges)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Overlay counts == rebased counts == naive counts on the rebased
    /// graph, for random graphs, deltas and queries.
    #[test]
    fn overlay_count_matches_rebase(
        (g, d, q) in (arb_graph(), arb_delta(), arb_query())
    ) {
        let rebased = g.rebase(&d);
        let overlay = OverlayGraph::new(&g, &d);
        let on_overlay = count(&overlay, &q);
        let on_rebased = count(&rebased, &q);
        prop_assert_eq!(on_overlay, on_rebased, "overlay vs rebased on {}", &q);
        let cons = VarConstraints::none(q.num_vars());
        prop_assert_eq!(on_rebased, count_naive(&rebased, &q, &cons), "kernel vs naive on {}", &q);
    }
}
