//! Property tests of the pessimistic-bound theory on random instances:
//! Theorem 5.1, Proposition 5.1, Observation 3, Appendix B equivalence,
//! Corollary D.1 and the AGM relationships.

use cegraph::estimators::agm::agm_bound;
use cegraph::estimators::bound_sketch::molp_sketch_bound;
use cegraph::estimators::cbs::cbs_bound;
use cegraph::estimators::dbplp::dbplp_bound_default;
use cegraph::estimators::{molp_bound, molp_lp_bound, DegreeStats, MolpInstance};
use cegraph::exec::count;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::cycles::is_acyclic;
use cegraph::query::{templates, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    // up to 40 edges over 12 vertices and 3 labels
    prop::collection::vec((0u32..12, 0u32..12, 0u16..LABELS), 1..40).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(12, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        prop::collection::vec(l.clone(), 2..=4).prop_map(|ls| templates::path(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 2..=4).prop_map(|ls| templates::star(ls.len(), &ls)),
        prop::collection::vec(l.clone(), 3..=4).prop_map(|ls| templates::cycle(ls.len(), &ls)),
        prop::collection::vec(l, 4..=4).prop_map(|ls| templates::tree_depth(4, 3, &ls)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 5.1: the MOLP bound covers the true cardinality.
    #[test]
    fn molp_is_pessimistic((g, q) in (arb_graph(), arb_query())) {
        let inst = MolpInstance::from_graph(&g, &q);
        let bound = molp_bound(&inst);
        let truth = count(&g, &q) as f64;
        prop_assert!(bound >= truth - 1e-6, "bound {bound} < truth {truth}");
    }

    /// Theorem 5.1: Dijkstra over CEG_M equals the literal MOLP LP.
    #[test]
    fn theorem_5_1((g, q) in (arb_graph(), arb_query())) {
        let inst = MolpInstance::from_graph(&g, &q);
        let dij = molp_bound(&inst);
        let lp = molp_lp_bound(&inst, false);
        let (a, b) = (dij.max(1e-12).ln(), lp.max(1e-12).ln());
        prop_assert!((a - b).abs() < 1e-6, "dijkstra {dij} vs lp {lp}");
    }

    /// Observation 3: projection inequalities never change the optimum.
    #[test]
    fn observation_3((g, q) in (arb_graph(), arb_query())) {
        let inst = MolpInstance::from_graph(&g, &q);
        let without = molp_lp_bound(&inst, false);
        let with = molp_lp_bound(&inst, true);
        let (a, b) = (without.max(1e-12).ln(), with.max(1e-12).ln());
        prop_assert!((a - b).abs() < 1e-6, "{without} vs {with}");
    }

    /// Appendix B: CBS == MOLP on acyclic binary queries (and hence
    /// MOLP ≤ CBS there). On cyclic queries CBS can be *unsafe* (Appendix
    /// C) and may fall below MOLP and even below the truth, so no
    /// relation is asserted.
    #[test]
    fn appendix_b((g, q) in (arb_graph(), arb_query())) {
        if !is_acyclic(&q) {
            return Ok(());
        }
        let stats = DegreeStats::build_base(&g);
        let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
        let cbs = cbs_bound(&q, &stats);
        let (a, b) = (molp.max(1e-12).ln(), cbs.max(1e-12).ln());
        prop_assert!((a - b).abs() < 1e-6, "acyclic: MOLP {molp} != CBS {cbs}");
    }

    /// Corollary D.1: MOLP is at least as tight as DBPLP.
    #[test]
    fn corollary_d1((g, q) in (arb_graph(), arb_query())) {
        let stats = DegreeStats::build_base(&g);
        let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
        let dbplp = dbplp_bound_default(&q, &stats);
        prop_assert!(molp <= dbplp * (1.0 + 1e-9) + 1e-9, "MOLP {molp} > DBPLP {dbplp}");
    }

    /// AGM is a valid upper bound, and on acyclic queries MOLP refines it.
    #[test]
    fn agm_properties((g, q) in (arb_graph(), arb_query())) {
        let stats = DegreeStats::build_base(&g);
        let agm = agm_bound(&q, &stats);
        let truth = count(&g, &q) as f64;
        prop_assert!(agm >= truth - 1e-6, "AGM {agm} < truth {truth}");
        if is_acyclic(&q) {
            let molp = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
            prop_assert!(molp <= agm * (1.0 + 1e-9) + 1e-9, "MOLP {molp} > AGM {agm}");
        }
    }

    /// Bound sketches stay pessimistic and never loosen the bound.
    #[test]
    fn sketch_tightens((g, q) in (arb_graph(), arb_query()), k in 1u32..32) {
        let direct = molp_sketch_bound(&g, &q, 1);
        let sketched = molp_sketch_bound(&g, &q, k);
        let truth = count(&g, &q) as f64;
        prop_assert!(sketched <= direct * (1.0 + 1e-9) + 1e-9, "k={k}: {sketched} > {direct}");
        prop_assert!(sketched >= truth - 1e-6, "k={k}: {sketched} < truth {truth}");
    }

    /// 2-join degree statistics only ever tighten MOLP.
    #[test]
    fn join_stats_tighten((g, q) in (arb_graph(), arb_query())) {
        let queries = [q.clone()];
        let stats = DegreeStats::build_with_joins(&g, &queries, 1 << 22);
        let base = molp_bound(&MolpInstance::from_stats(&q, &stats, false));
        let joined = molp_bound(&MolpInstance::from_stats(&q, &stats, true));
        let truth = count(&g, &q) as f64;
        prop_assert!(joined <= base * (1.0 + 1e-9) + 1e-9, "{joined} > {base}");
        prop_assert!(joined >= truth - 1e-6, "{joined} < truth {truth}");
    }
}
