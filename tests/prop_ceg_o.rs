//! Property tests of the optimistic CEG machinery: exactness inside the
//! Markov table, aggregator orderings, oracle dominance, and statistics
//! consistency.

use cegraph::catalog::MarkovTable;
use cegraph::core::oracle::qerror;
use cegraph::core::{Aggr, CegO, Heuristic, PathLen};
use cegraph::estimators::pstar_estimate;
use cegraph::exec::{count, count_budgeted, CountBudget, VarConstraint, VarConstraints};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, QueryGraph};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
