//! Pins the `CountBudget` accounting of the plan-driven kernel.
//!
//! The PR 3 kernel changed what a unit of budget means: candidates are
//! charged **after** intersection pruning (the old matcher charged every
//! neighbour scanned), and a fully independent suffix is charged its
//! candidate-set-size **product in one bulk step** instead of one unit
//! per enumerated binding. Both make exhaustion rarer at equal budgets.
//! These tests fix the exact charge of hand-analyzed plans at the
//! boundary budget, so a future kernel refactor that silently changes
//! the accounting again fails loudly here instead of shifting every
//! caller's effective timeout.
//!
//! The plan is driven directly: the free functions count an
//! unconstrained acyclic query with the sparse tree DP, whose unit is a
//! relation row swept — that contract is pinned at the end of this file
//! and in `tree_count`'s unit tests.

use ceg_exec::{count_with_limit, CountBudget, CountPlan, VarConstraints};
use ceg_graph::{GraphBuilder, LabeledGraph};
use ceg_query::{templates, QueryEdge, QueryGraph};

fn counts(graph: &LabeledGraph, query: &QueryGraph, budget: u64) -> Option<u64> {
    CountPlan::new_counting(graph, query, &VarConstraints::none(query.num_vars()))
        .count_with_limit(CountBudget::new(budget))
}

/// Star query, hub with 4 out-edges: the two leaves form an independent
/// suffix, so the count (4 × 4 = 16) is charged as one bulk product of
/// 16 plus 1 for the single root candidate — 17 units, not the 21
/// (1 + 4 + 16) a per-binding accounting would need.
#[test]
fn independent_suffix_is_charged_in_bulk() {
    let mut b = GraphBuilder::new(5);
    for d in 1..5 {
        b.add_edge(0, d, 0);
    }
    let g = b.build();
    let q = templates::star(2, &[0, 0]);
    assert_eq!(counts(&g, &q, u64::MAX), Some(16));
    assert_eq!(
        counts(&g, &q, 17),
        Some(16),
        "exact boundary: 1 root + 16 bulk"
    );
    assert_eq!(counts(&g, &q, 16), None, "one unit short must exhaust");
}

/// Parallel query edges between the same variable pair: the candidate
/// set of the second variable is the *intersection* of a 4-list and a
/// 2-list. Post-pruning accounting charges the 2 surviving candidates
/// (as a bulk suffix product), not the 4 or 6 the inputs hold —
/// 1 root + 2 = 3 units total.
#[test]
fn candidates_are_charged_after_intersection_pruning() {
    let mut b = GraphBuilder::new(5);
    for d in 1..5 {
        b.add_edge(0, d, 0);
    }
    b.add_edge(0, 1, 1);
    b.add_edge(0, 2, 1);
    let g = b.build();
    let q = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(0, 1, 1)]);
    assert_eq!(counts(&g, &q, u64::MAX), Some(2));
    assert_eq!(
        counts(&g, &q, 3),
        Some(2),
        "exact boundary: 1 root + |∩| = 2"
    );
    assert_eq!(counts(&g, &q, 2), None);
}

/// Self-loop checks keep a depth out of the independent suffix, so the
/// root candidates are charged one by one; exhaustion mid-enumeration
/// discards the partial tally and returns `None` (the partial-result
/// contract: a budgeted count is all-or-nothing).
#[test]
fn mid_count_exhaustion_returns_none_not_partial() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, 0);
    b.add_edge(0, 2, 0);
    b.add_edge(1, 1, 1);
    let g = b.build();
    // v0 -0-> v1 with a label-1 self-loop on v1: matches only v1 = 1.
    let q = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(1, 1, 1)]);
    assert_eq!(counts(&g, &q, u64::MAX), Some(1));
    // Charges: root candidate 1 (passes the loop check) = 1, its
    // independent 1-candidate suffix = 1, root candidate 2 = 1 → 3 total.
    assert_eq!(counts(&g, &q, 3), Some(1));
    // Budget 2 runs out *after* the first match is found — the partial
    // count must not leak out as a completed result.
    assert_eq!(counts(&g, &q, 2), None);
    assert_eq!(counts(&g, &q, 0), None, "zero budget can count nothing");
}

/// The same star through the free function takes the tree DP: one sweep
/// of the relation's single row per leaf — 2 units, not the kernel's 17.
#[test]
fn acyclic_queries_are_charged_the_rows_swept() {
    let mut b = GraphBuilder::new(5);
    for d in 1..5 {
        b.add_edge(0, d, 0);
    }
    let g = b.build();
    let q = templates::star(2, &[0, 0]);
    let cons = VarConstraints::none(q.num_vars());
    assert_eq!(
        count_with_limit(&g, &q, &cons, CountBudget::new(2)),
        Some(16)
    );
    assert_eq!(count_with_limit(&g, &q, &cons, CountBudget::new(1)), None);
}
