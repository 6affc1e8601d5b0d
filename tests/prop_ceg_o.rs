//! Property tests of the optimistic CEG machinery: the streamed pass
//! against the built graph, exactness inside the Markov table, aggregator
//! orderings, oracle dominance, and statistics consistency.

use cegraph::catalog::MarkovTable;
use cegraph::core::oracle::qerror;
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::pstar_estimate;
use cegraph::exec::{count, count_budgeted, CountBudget, VarConstraint, VarConstraints};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, Pattern, QueryEdge, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop::collection::vec((0u32..14, 0u32..14, 0u16..LABELS), 3..50).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(14, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

fn arb_acyclic_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        prop::collection::vec(l.clone(), 2..=5).prop_map(|ls| templates::path(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 2..=5).prop_map(|ls| templates::star(ls.len(), &ls)),
        prop::collection::vec(l, 5..=5).prop_map(|ls| templates::q5f(&ls)),
    ]
}

/// A connected query of 1..=8 edges, cycles included: every edge hangs
/// off a variable an earlier edge introduced and either opens a new
/// variable or closes back onto an old one (parallel edges and self-loops
/// too); or a plain cycle of 3..=6 edges.
fn arb_connected_query() -> impl Strategy<Value = QueryGraph> {
    let grown =
        prop::collection::vec((0u8..8, 0u8..16, 0u16..LABELS, 0u8..2), 1..=8).prop_map(|steps| {
            let mut num_vars = 1u8;
            let mut edges = Vec::new();
            for (from, to, label, flip) in steps {
                let a = from % num_vars;
                let b = if to < 8 {
                    to % num_vars
                } else {
                    num_vars += 1;
                    num_vars - 1
                };
                let (src, dst) = if flip == 0 { (a, b) } else { (b, a) };
                edges.push(QueryEdge::new(src, dst, label));
            }
            QueryGraph::new(num_vars, edges)
        });
    let cycle =
        prop::collection::vec(0u16..LABELS, 3..=6).prop_map(|ls| templates::cycle(ls.len(), &ls));
    prop_oneof![grown, cycle, arb_acyclic_query()]
}

/// A table for `q` at size `h` on `g` whose entries are, by `fate`,
/// dropped (0), stored as zero (1) or stored exactly (2..).
fn partial_table(g: &LabeledGraph, q: &QueryGraph, h: usize, fate: &[u8]) -> MarkovTable {
    let mut entries: Vec<(Pattern, u64)> = MarkovTable::build_for_query(g, q, h)
        .iter()
        .map(|(p, c)| (p.clone(), c))
        .collect();
    entries.sort();
    let mut table = MarkovTable::empty(h);
    for (i, (pattern, card)) in entries.into_iter().enumerate() {
        match fate[i % fate.len()] {
            0 => {}
            1 => table.insert(pattern, 0),
            _ => table.insert(pattern, card),
        }
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streamed pass the server runs answers what the materialised
    /// CEG_O answers, bit for bit, under every max / min heuristic — on
    /// acyclic and cyclic queries, and on tables that lack patterns or
    /// store zero counts (where `inf` and NaN paths appear).
    #[test]
    fn streamed_pass_is_the_built_estimate(
        (g, q) in (arb_graph(), arb_connected_query()),
        h in 2usize..=3,
        fate in prop::collection::vec(0u8..6, 64),
    ) {
        let table = partial_table(&g, &q, h, &fate);
        let resolved = table.resolve(&q).expect("8 edges are far below the subset limit");
        let ceg = CegO::build(&q, &table);
        for heuristic in Heuristic::all() {
            if heuristic.aggr == Aggr::Avg {
                continue;
            }
            let streamed = CegO::estimate_resolved(&q, &resolved, heuristic, None)
                .expect("no deadline");
            prop_assert_eq!(
                streamed.map(f64::to_bits),
                ceg.ceg().estimate(heuristic).map(f64::to_bits),
                "{}", heuristic.name()
            );
        }
    }

    /// Queries that fit in the Markov table are answered exactly by every
    /// heuristic (no independence assumption is needed).
    #[test]
    fn exact_within_table(g in arb_graph(), l1 in 0u16..LABELS, l2 in 0u16..LABELS) {
        let q = templates::path(2, &[l1, l2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        let truth = count(&g, &q) as f64;
        for h in Heuristic::all() {
            let est = ceg.ceg().estimate(h);
            prop_assert_eq!(est, Some(truth), "{}", h.name());
        }
    }

    /// For a fixed path-length class, max-aggr ≥ avg-aggr ≥ min-aggr.
    #[test]
    fn aggregator_ordering((g, q) in (arb_graph(), arb_acyclic_query()), h in 2usize..=3) {
        let t = MarkovTable::build_for_query(&g, &q, h);
        let ceg = CegO::build(&q, &t);
        for pl in [PathLen::MaxHop, PathLen::MinHop, PathLen::AllHops] {
            let get = |a| ceg.ceg().estimate(Heuristic::new(pl, a));
            if let (Some(mx), Some(av), Some(mn)) =
                (get(Aggr::Max), get(Aggr::Avg), get(Aggr::Min))
            {
                prop_assert!(mx >= av - 1e-9 && av >= mn - 1e-9,
                    "{pl:?}: max {mx} avg {av} min {mn}");
            }
        }
    }

    /// all-hops-max dominates every hop-restricted max (superset of
    /// paths), and symmetrically for min.
    #[test]
    fn all_hops_bracket((g, q) in (arb_graph(), arb_acyclic_query()), h in 2usize..=3) {
        let t = MarkovTable::build_for_query(&g, &q, h);
        let ceg = CegO::build(&q, &t);
        let e = |pl, a| ceg.ceg().estimate(Heuristic::new(pl, a));
        if let (Some(am), Some(mm), Some(nm)) = (
            e(PathLen::AllHops, Aggr::Max),
            e(PathLen::MaxHop, Aggr::Max),
            e(PathLen::MinHop, Aggr::Max),
        ) {
            prop_assert!(am >= mm - 1e-9 && am >= nm - 1e-9);
        }
        if let (Some(am), Some(mm), Some(nm)) = (
            e(PathLen::AllHops, Aggr::Min),
            e(PathLen::MaxHop, Aggr::Min),
            e(PathLen::MinHop, Aggr::Min),
        ) {
            prop_assert!(am <= mm + 1e-9 && am <= nm + 1e-9);
        }
    }

    /// The P* oracle dominates every single-path heuristic in q-error.
    #[test]
    fn pstar_dominates((g, q) in (arb_graph(), arb_acyclic_query())) {
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let truth = count(&g, &q) as f64;
        if let Some(star) = pstar_estimate(&q, &t, None, truth) {
            let star_err = qerror(star, truth);
            let ceg = CegO::build(&q, &t);
            for h in Heuristic::all() {
                if h.aggr == Aggr::Avg {
                    continue;
                }
                if let Some(v) = ceg.ceg().estimate(h) {
                    prop_assert!(star_err <= qerror(v, truth) + 1e-9,
                        "P* {star} beaten by {} = {v}", h.name());
                }
            }
        }
    }

    /// Markov table entries always equal fresh executor counts.
    #[test]
    fn markov_consistency((g, q) in (arb_graph(), arb_acyclic_query()), h in 2usize..=3) {
        let t = MarkovTable::build_for_query(&g, &q, h);
        for (p, c) in t.iter() {
            prop_assert_eq!(c, count(&g, &p.to_query()), "pattern {}", p);
        }
    }

    /// Hash-partitioned counts sum to the unconstrained count.
    #[test]
    fn partition_counts_sum((g, q) in (arb_graph(), arb_acyclic_query()), buckets in 2u32..5) {
        let total = count(&g, &q);
        let var = q.num_vars() / 2;
        let mut sum = 0u64;
        for bucket in 0..buckets {
            let mut cons = VarConstraints::none(q.num_vars());
            cons.set(var, VarConstraint::HashBucket { buckets, bucket });
            sum += count_budgeted(&g, &q, &cons, CountBudget::UNLIMITED).0.unwrap();
        }
        prop_assert_eq!(sum, total);
    }

    /// Tree-DP counting agrees with backtracking on acyclic queries.
    #[test]
    fn tree_dp_agrees((g, q) in (arb_graph(), arb_acyclic_query())) {
        let dp = cegraph::exec::count_tree_dp(&g, &q).expect("acyclic");
        let bt = count(&g, &q) as f64;
        prop_assert_eq!(dp, bt);
    }
}
