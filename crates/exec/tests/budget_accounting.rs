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

use ceg_exec::{count_budgeted, CountBudget, CountPlan, CountStop, VarConstraints};
use ceg_graph::{GraphBuilder, LabeledGraph};
use ceg_query::{templates, QueryEdge, QueryGraph};
use ceg_workload::{Dataset, Workload};

fn counts(graph: &LabeledGraph, query: &QueryGraph, budget: u64) -> Option<u64> {
    let cons = VarConstraints::none(query.num_vars());
    CountPlan::new(graph, query, &cons)
        .count(CountBudget::new(budget))
        .0
        .ok()
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
    assert_eq!(count_budgeted(&g, &q, &cons, CountBudget::new(2)).0, Ok(16));
    assert_eq!(
        count_budgeted(&g, &q, &cons, CountBudget::new(1)).0,
        Err(CountStop::Budget)
    );
}

/// A factorized plan's accounting, as a golden: the three petals of the
/// G-CARE flower are peeled into weights and the triangle is counted
/// under them. `budget_consumed` decides which instances
/// `Workload::build` keeps, so the pool it draws on this graph is pinned
/// with it (recorded on the build before PR 20).
#[test]
fn factorized_plan_accounting_is_pinned() {
    let g = Dataset::Hetionet.generate(7);
    let e = QueryEdge::new;
    // a0-3->a1, a1-6->a2, a2-1->a0 and a petal a0-1->a3, a1-1->a4, a2-1->a5.
    let triangle = [e(0, 1, 3), e(1, 2, 6), e(2, 0, 1)];
    let petals = [e(0, 3, 1), e(1, 4, 1), e(2, 5, 1)];
    let flower = QueryGraph::new(6, [triangle, petals].concat());
    let cons = VarConstraints::none(6);
    let (count, stats) = count_budgeted(&g, &flower, &cons, CountBudget::UNLIMITED);
    assert_eq!(count, Ok(795_275));
    assert_eq!(stats.budget_consumed, 18_943);
    assert_eq!(stats.candidates, 458);
    assert_eq!((stats.memo_hits, stats.suffix_shortcuts), (0, 168));

    let pool: Vec<(String, f64)> = Workload::GCareCyclic
        .build(&g, 3, 7)
        .into_iter()
        .map(|wq| (wq.template, wq.truth))
        .collect();
    let recorded = [
        ("cycle-6", [8_089.0, 264_100.0, 16_431.0]),
        ("cycle-9", [7_721_324.0, 2_215_377.0, 3_828_724.0]),
        ("clique4", [289.0, 190.0, 15.0]),
        ("flower-6", [795_275.0, 2_360_046.0, 4_885_442.0]),
        ("petal-6", [4_734.0, 8_279.0, 129_905.0]),
        ("petal-9", [2_534_744.0, 13_823.0, 16_956.0]),
    ];
    let recorded: Vec<(String, f64)> = recorded
        .iter()
        .flat_map(|(t, truths)| truths.iter().map(|&c| (t.to_string(), c)))
        .collect();
    assert_eq!(pool, recorded);
}
