//! Differential kernel-equivalence suite for the candidate paths and the
//! factorized counter.
//!
//! The counting kernel has two ways to produce a candidate set, chosen by
//! the plan from the graph's degree statistics: gallop the neighbour
//! lists into a buffer (the list path), or probe a cached bitset of the
//! stable list (the bitset path, where that relation reaches the
//! kernel's degree threshold). It plans a query two ways, read off its
//! input: factorized (pendant trees folded into closed-form weights) when
//! something peels, as given when nothing does — which a constraint on
//! the pendant variable forces. All of them are answers to the same
//! question, so on random graphs with planted high-degree hubs (dense
//! enough that the plan takes the bitset path there, sparse elsewhere so
//! it takes the list path) every combination must agree exactly with the
//! naive reference matcher — and every count must be invariant under an
//! arbitrary renumbering of the data vertices. Which path a graph takes
//! is its shape's doing, so `the_inputs_reach_both_candidate_paths`
//! checks that the shapes drawn here reach both.

use cegraph::exec::{
    count_naive, CountBudget, CountPlan, KernelStats, VarConstraint, VarConstraints,
};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{QueryEdge, QueryGraph};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const LABELS: u16 = 2;
const VERTICES: u32 = 48;

/// Random graph with 1–2 planted hubs fanning out to 33+ distinct
/// targets (above the kernel's bitset degree threshold of 32, so the
/// plan takes the bitset path on these graphs) plus random background
/// edges, whose relations stay below it.
fn arb_hub_graph() -> impl Strategy<Value = LabeledGraph> {
    let hubs = prop::collection::vec((0u32..VERTICES, 33usize..=44, 0u16..LABELS), 1..=2);
    let background = prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 0..70);
    (hubs, background).prop_map(|(hubs, background)| {
        let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
        for (hub, fan, label) in hubs {
            for t in 0..fan as u32 {
                b.add_edge(hub, (hub + 1 + t) % VERTICES, label);
            }
            // A few edges back into the hub so cycles through it close.
            for t in 0..4u32 {
                b.add_edge((hub + 7 * (t + 1)) % VERTICES, hub, label);
            }
        }
        for (s, d, l) in background {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

/// Cyclic and acyclic query shapes: pure cycles, cycles with pendant
/// paths hanging off one cycle variable (the factorized counter's
/// target shape), short paths/stars, and free-form edge soups.
fn arb_query() -> impl Strategy<Value = QueryGraph> {
    let l = 0u16..LABELS;
    prop_oneof![
        // Pure k-cycle, k = 3..=6.
        prop::collection::vec(l.clone(), 3..=6).prop_map(|ls| {
            let k = ls.len() as u8;
            let edges = (0..k)
                .map(|i| QueryEdge::new(i, (i + 1) % k, ls[i as usize]))
                .collect();
            QueryGraph::new(k, edges)
        }),
        // k-cycle with a pendant path of 1–2 edges off variable 0: an
        // acyclic sub-structure on a cyclic core, which the factorized
        // plan folds into weights instead of enumerating.
        (
            prop::collection::vec(l.clone(), 3..=4),
            prop::collection::vec(l.clone(), 1..=2),
        )
            .prop_map(|(cycle, tail)| {
                let k = cycle.len() as u8;
                let mut edges: Vec<QueryEdge> = (0..k)
                    .map(|i| QueryEdge::new(i, (i + 1) % k, cycle[i as usize]))
                    .collect();
                let mut prev = 0u8;
                for (j, &lab) in tail.iter().enumerate() {
                    let next = k + j as u8;
                    edges.push(QueryEdge::new(prev, next, lab));
                    prev = next;
                }
                QueryGraph::new(k + tail.len() as u8, edges)
            }),
        // Short path.
        prop::collection::vec(l.clone(), 1..=4).prop_map(|ls| {
            let edges = ls
                .iter()
                .enumerate()
                .map(|(i, &lab)| QueryEdge::new(i as u8, i as u8 + 1, lab))
                .collect();
            QueryGraph::new(ls.len() as u8 + 1, edges)
        }),
        // Small star (kept small: the naive reference enumerates the
        // full degree product the optimized kernel shortcuts).
        prop::collection::vec(l.clone(), 2..=3).prop_map(|ls| {
            let edges = ls
                .iter()
                .enumerate()
                .map(|(i, &lab)| QueryEdge::new(0, i as u8 + 1, lab))
                .collect();
            QueryGraph::new(ls.len() as u8 + 1, edges)
        }),
        // Free-form: up to 4 edges over 4 variables (self-loops,
        // parallel edges and disconnected pieces included).
        prop::collection::vec((0u8..4, 0u8..4, l), 1..=4).prop_map(|es| {
            let edges = es
                .into_iter()
                .map(|(s, d, lab)| QueryEdge::new(s, d, lab))
                .collect();
            QueryGraph::new(4, edges)
        }),
    ]
}

/// A constraint that keeps `factorize` from peeling the variable it sits
/// on.
fn arb_pin() -> impl Strategy<Value = VarConstraint> {
    prop_oneof![
        (0u32..VERTICES).prop_map(VarConstraint::Fixed),
        (2u32..4, 0u32..4).prop_map(|(buckets, bucket)| VarConstraint::HashBucket {
            buckets,
            bucket: bucket % buckets,
        }),
    ]
}

fn kernel(g: &LabeledGraph, q: &QueryGraph, cons: &VarConstraints) -> (u64, KernelStats) {
    let (count, stats) = CountPlan::new(g, q, cons).count(CountBudget::UNLIMITED);
    (count.expect("the counts here fit u64"), stats)
}

/// The inputs the properties below draw reach both candidate paths: over
/// the same number of draws, the hubs make the bitset path run, and
/// some count intersects lists without touching a bitset.
#[test]
fn the_inputs_reach_both_candidate_paths() {
    let mut rng = TestRng::deterministic("the_inputs_reach_both_candidate_paths");
    let (graphs, queries) = (arb_hub_graph(), arb_query());
    let (mut bitset, mut list_only) = (0u64, 0u64);
    for _ in 0..256 {
        let (g, q) = (graphs.sample(&mut rng), queries.sample(&mut rng));
        let (_, stats) = kernel(&g, &q, &VarConstraints::none(q.num_vars()));
        bitset += stats.bitset_intersections;
        if stats.bitset_intersections == 0 {
            list_only += stats.gallop_intersections;
        }
    }
    assert!(bitset > 0, "no hub input reached the bitset path");
    assert!(list_only > 0, "no input reached the list path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel, through the factorized plan and the unfactorized one,
    /// on whichever candidate path each graph's degrees pick, returns
    /// exactly the naive reference count. The
    /// last variable is the pendant tip of the cycle-with-tail shape (a
    /// leaf of the paths and stars): pinned, it may not be peeled, so the
    /// kernel binds the tail like any core variable.
    #[test]
    fn all_strategies_and_plans_agree_with_naive(
        g in arb_hub_graph(),
        q in arb_query(),
        pin in arb_pin(),
    ) {
        let free = VarConstraints::none(q.num_vars());
        let mut pinned = free.clone();
        pinned.set(q.num_vars() - 1, pin);
        for cons in [&free, &pinned] {
            prop_assert_eq!(
                kernel(&g, &q, cons).0, count_naive(&g, &q, cons),
                "diverged on {} under {:?}", q, cons
            );
        }
    }

    /// Counts are invariant under an arbitrary permutation of the data
    /// vertex ids.
    #[test]
    fn counts_invariant_under_vertex_renumbering(
        g in arb_hub_graph(),
        q in arb_query(),
        // A random permutation of 0..VERTICES: argsort of random keys
        // (ties broken by index keep it a bijection).
        perm in prop::collection::vec(0u32..u32::MAX, VERTICES as usize).prop_map(|keys| {
            let mut idx: Vec<u32> = (0..VERTICES).collect();
            idx.sort_by_key(|&i| (keys[i as usize], i));
            let mut perm = vec![0u32; VERTICES as usize];
            for (new, &old) in idx.iter().enumerate() {
                perm[old as usize] = new as u32;
            }
            perm
        }),
    ) {
        let cons = VarConstraints::none(q.num_vars());
        let expected = count_naive(&g, &q, &cons);

        let mut pb = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
        for e in g.all_edges() {
            pb.add_edge(perm[e.src as usize], perm[e.dst as usize], e.label);
        }
        let permuted = pb.build();

        prop_assert_eq!(
            kernel(&permuted, &q, &cons).0,
            expected,
            "random permutation changed the count on {}", q
        );
    }
}
