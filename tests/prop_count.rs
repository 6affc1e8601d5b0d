//! Differential property tests of the counting kernel.
//!
//! The plan-driven kernel (`cegraph::exec::count`) — per-depth extension
//! plans, k-way merge/galloping intersection, label-restricted roots,
//! independent-suffix products — must return exactly the counts of the
//! retained naive reference matcher (`cegraph::exec::count_naive`) on
//! random graphs, random queries and random per-variable constraints.
//! Half the graphs have a random delta folded in (`LabeledGraph::rebase`),
//! so relations over differing CSR domains meet the kernel.

use cegraph::exec::{count_budgeted, count_naive, CountBudget, VarConstraint, VarConstraints};
use cegraph::graph::{GraphBuilder, GraphDelta, LabeledGraph};
use cegraph::query::{templates, QueryEdge, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;
const VERTICES: u32 = 14;

fn arb_built() -> impl Strategy<Value = LabeledGraph> {
    // up to 60 edges over 14 vertices and 3 labels; self-loops included
    prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 0..60).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

/// Random deltas, including ops on vertices and a label beyond the base
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

/// A built graph, or one with a random delta folded in.
fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop_oneof![
        arb_built(),
        (arb_built(), arb_delta()).prop_map(|(g, d)| g.rebase(&d)),
    ]
}

/// Template queries plus free-form connected-ish edge lists (including
/// self-loops, parallel edges and disconnected components).
fn arb_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        prop::collection::vec(l.clone(), 1..=5).prop_map(|ls| templates::path(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 2..=5).prop_map(|ls| templates::star(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 3..=6).prop_map(|ls| templates::cycle(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 5..=5).prop_map(|ls| templates::q5f(&ls)),
        prop::collection::vec(l.clone(), 6..=6).prop_map(|ls| templates::tree_depth(
            ls.len(),
            3,
            &ls
        )),
        // free-form: up to 6 edges over up to 5 variables
        prop::collection::vec((0u8..5, 0u8..5, l), 1..=6).prop_map(|es| {
            let edges: Vec<QueryEdge> = es
                .into_iter()
                .map(|(s, d, l)| QueryEdge::new(s, d, l))
                .collect();
            QueryGraph::new(5, edges)
        }),
    ]
}

fn arb_constraint() -> impl Strategy<Value = VarConstraint> {
    prop_oneof![
        Just(VarConstraint::Any),
        (2u32..4, 0u32..2).prop_map(|(buckets, bucket)| VarConstraint::HashBucket {
            buckets,
            bucket: bucket % buckets,
        }),
        (0u32..VERTICES).prop_map(VarConstraint::Fixed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unconstrained counts agree with the naive reference.
    #[test]
    fn kernel_matches_naive((g, q) in (arb_graph(), arb_query())) {
        let cons = VarConstraints::none(q.num_vars());
        let fast = count_budgeted(&g, &q, &cons, CountBudget::UNLIMITED).0.unwrap();
        let naive = count_naive(&g, &q, &cons);
        prop_assert_eq!(fast, naive, "query {}", q);
    }

    /// Constrained counts (hash buckets and pinned vertices) agree too.
    #[test]
    fn constrained_kernel_matches_naive(
        (g, q, c0, c1) in (arb_graph(), arb_query(), arb_constraint(), arb_constraint())
    ) {
        let mut cons = VarConstraints::none(q.num_vars());
        cons.set(0, c0);
        if q.num_vars() > 1 {
            cons.set(1, c1);
        }
        let fast = count_budgeted(&g, &q, &cons, CountBudget::UNLIMITED).0.unwrap();
        let naive = count_naive(&g, &q, &cons);
        prop_assert_eq!(fast, naive, "query {}", q);
    }

    /// A budget never changes a completed count, and exhaustion is the
    /// only way to get `None`.
    #[test]
    fn budget_only_truncates((g, q) in (arb_graph(), arb_query())) {
        let cons = VarConstraints::none(q.num_vars());
        let full = count_budgeted(&g, &q, &cons, CountBudget::UNLIMITED).0.unwrap();
        // None means the budget was exhausted and no count is claimed.
        if let Some(c) = count_budgeted(&g, &q, &cons, CountBudget::new(50)).0 {
            prop_assert_eq!(c, full);
        }
    }
}
