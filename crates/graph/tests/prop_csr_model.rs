//! Differential test of the sparse row directory: `Csr::from_pairs` and
//! random `rebase` chains against the obvious model, a
//! `BTreeMap<VertexId, BTreeSet<VertexId>>` holding no empty set.
//!
//! The chains go where a bitmap-with-rank directory can go wrong: vertex
//! ids on a word boundary (63 / 64 / 65) and at the end of the domain,
//! domains that grow between steps (and are not a multiple of 64), a
//! relation emptied and refilled, a chain started from the offset-less
//! `Csr::default()` that `LabeledGraph::rebase` leaves in a label gap,
//! and probes past the domain. After every step every read accessor must
//! agree with the model, and `rows()` must never yield an empty slice.

use std::collections::{BTreeMap, BTreeSet};

use ceg_graph::{Csr, GraphBuilder, GraphDelta, LabeledGraph, VertexId};
use proptest::prelude::*;

type Model = BTreeMap<VertexId, BTreeSet<VertexId>>;

/// `(from, to)` pairs, sorted.
type Pairs = Vec<(VertexId, VertexId)>;

/// Domain sizes around the word boundaries, none of them forgiving.
const DOMAINS: [usize; 8] = [1, 2, 63, 64, 65, 66, 129, 200];

/// `(src, dst, is_add)` draws; [`vertex`] maps a draw into the domain.
type RawOp = (u32, u32, bool);

/// One rebase step: which domain to grow to, whether to first empty the
/// relation, and the raw operations.
type RawStep = (usize, bool, Vec<RawOp>);

/// Map a draw to a vertex of `0..n`, two times in five onto a word
/// boundary or the last ids of the domain.
fn vertex(draw: u32, n: usize) -> VertexId {
    let n = n as u32;
    let edge_cases = [0, 62, 63, 64, 65, 127, 128, n - 1, n.saturating_sub(2)];
    if draw % 5 < 2 {
        edge_cases[(draw / 5) as usize % edge_cases.len()].min(n - 1)
    } else {
        (draw / 5) % n
    }
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u32..100_000, 0u32..100_000, (0u8..3).prop_map(|b| b > 0)),
        0..max,
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec(
        (
            0usize..DOMAINS.len(),
            (0u8..5).prop_map(|b| b == 0),
            arb_ops(40),
        ),
        1..7,
    )
}

/// Apply one step to the model and return the normalized `(adds, dels)`
/// `Csr::rebase` expects: sorted, duplicate-free, every add absent from
/// and every del present in the state before the step, the two disjoint.
fn step_model(model: &mut Model, n: usize, empty_first: bool, ops: &[RawOp]) -> (Pairs, Pairs) {
    let before: BTreeSet<(VertexId, VertexId)> = edges_of(model).into_iter().collect();
    let mut after = if empty_first {
        BTreeSet::new()
    } else {
        before.clone()
    };
    for &(s, d, add) in ops {
        let e = (vertex(s, n), vertex(d, n));
        if add {
            after.insert(e);
        } else {
            after.remove(&e);
        }
    }
    model.clear();
    for &(s, d) in &after {
        model.entry(s).or_default().insert(d);
    }
    (
        after.difference(&before).copied().collect(),
        before.difference(&after).copied().collect(),
    )
}

fn edges_of(model: &Model) -> Pairs {
    model
        .iter()
        .flat_map(|(&v, row)| row.iter().map(move |&t| (v, t)))
        .collect()
}

fn transposed(model: &Model) -> Model {
    let mut t = Model::new();
    for (s, d) in edges_of(model) {
        t.entry(d).or_default().insert(s);
    }
    t
}

/// Every read accessor of `csr` against the model over a domain of `n`.
fn check(csr: &Csr, model: &Model, n: usize) -> Result<(), TestCaseError> {
    let edges = edges_of(model);
    prop_assert_eq!(csr.num_edges(), edges.len());
    prop_assert_eq!(csr.num_active(), model.len());
    prop_assert_eq!(
        csr.max_degree(),
        model.values().map(BTreeSet::len).max().unwrap_or(0)
    );
    let far = [n + 62, n + 63, n + 64, n + 65, 1 << 20, u32::MAX as usize];
    for v in (0..n + 2).chain(far) {
        let v = v as VertexId;
        let want: Vec<VertexId> = model
            .get(&v)
            .map_or(Vec::new(), |r| r.iter().copied().collect());
        prop_assert_eq!(csr.neighbors(v), &want[..], "neighbors({})", v);
        prop_assert_eq!(csr.degree(v), want.len());
        for &t in &want {
            prop_assert!(csr.contains(v, t));
        }
        for t in [0, 63, 64, n as VertexId - 1, n as VertexId] {
            prop_assert_eq!(csr.contains(v, t), want.contains(&t));
        }
    }
    prop_assert_eq!(
        csr.active_vertices().collect::<Vec<_>>(),
        model.keys().copied().collect::<Vec<_>>()
    );
    let rows: Vec<(VertexId, Vec<VertexId>)> = csr.rows().map(|(v, r)| (v, r.to_vec())).collect();
    prop_assert!(
        rows.iter().all(|(_, r)| !r.is_empty()),
        "rows() yielded an empty slice"
    );
    let want_rows: Vec<(VertexId, Vec<VertexId>)> = model
        .iter()
        .map(|(&v, r)| (v, r.iter().copied().collect()))
        .collect();
    prop_assert_eq!(rows, want_rows);
    prop_assert_eq!(csr.iter_edges().collect::<Vec<_>>(), edges);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `from_pairs` (or the default index) followed by a chain of
    /// rebases, the raw `Csr` checked after every link.
    #[test]
    fn csr_rebase_chains_match_the_model(
        from_default in (0u8..3).prop_map(|b| b == 0),
        first_domain in 0usize..DOMAINS.len(),
        initial in arb_ops(60),
        steps in arb_steps(),
    ) {
        let mut model = Model::new();
        let mut n = DOMAINS[first_domain];
        let mut csr = if from_default {
            Csr::default()
        } else {
            step_model(&mut model, n, false, &initial);
            // `from_pairs` takes pairs in any order: hand them over
            // descending, the order furthest from the one it stores.
            let mut pairs = edges_of(&model);
            pairs.reverse();
            let csr = Csr::from_pairs(n, &pairs);
            prop_assert_eq!(csr.num_vertices(), n);
            csr
        };
        check(&csr, &model, n)?;
        for (domain, empty_first, ops) in steps {
            n = n.max(DOMAINS[domain]);
            let (adds, dels) = step_model(&mut model, n, empty_first, &ops);
            csr = csr.rebase(n, &adds, &dels);
            prop_assert_eq!(csr.num_vertices(), n);
            check(&csr, &model, n)?;
        }
    }

    /// The same chains through `LabeledGraph::rebase`, on label 0 and on
    /// label 3 of a graph built with one label: labels 1 and 2 are left as
    /// default indexes in the gap (label 1 is filled in by later steps),
    /// untouched relations keep the domain they were built over, and the
    /// backward index must match the transposed model.
    #[test]
    fn labeled_graph_rebase_chains_match_the_model(
        first_domain in 0usize..DOMAINS.len(),
        initial in arb_ops(60),
        steps in prop::collection::vec((0u16..3, arb_steps()), 1..4),
    ) {
        const LABELS: [u16; 3] = [0, 3, 1];
        let mut n = DOMAINS[first_domain];
        let mut models = vec![Model::new(); 4];
        step_model(&mut models[0], n, false, &initial);
        let mut b = GraphBuilder::with_labels(n, 1);
        for (s, d) in edges_of(&models[0]) {
            b.add_edge(s, d, 0);
        }
        let mut graph: LabeledGraph = b.build();
        for (which, chain) in steps {
            let label = LABELS[which as usize];
            for (domain, empty_first, ops) in chain {
                // The graph's domain only grows when the delta names a
                // vertex past it: add one so the step really grows it.
                let grown = n.max(DOMAINS[domain]);
                let mut ops = ops;
                if grown > n {
                    ops.push((5 * (grown as u32 - 1) + 2, 0, true));
                }
                n = grown;
                let (adds, dels) =
                    step_model(&mut models[label as usize], n, empty_first, &ops);
                let mut delta = GraphDelta::new();
                for (s, d) in adds {
                    delta.add_edge(s, d, label);
                }
                for (s, d) in dels {
                    delta.del_edge(s, d, label);
                }
                graph = graph.rebase(&delta);
                prop_assert_eq!(graph.num_vertices(), n);
                for (l, model) in models.iter().enumerate().take(graph.num_labels()) {
                    let l = l as u16;
                    let back = transposed(model);
                    let rows = |backward| -> Vec<(VertexId, Vec<VertexId>)> {
                        graph.rows(l, backward).map(|(v, r)| (v, r.to_vec())).collect()
                    };
                    let want = |m: &Model| -> Vec<(VertexId, Vec<VertexId>)> {
                        m.iter().map(|(&v, r)| (v, r.iter().copied().collect())).collect()
                    };
                    prop_assert_eq!(rows(false), want(model), "label {} forward rows", l);
                    prop_assert_eq!(rows(true), want(&back), "label {} backward rows", l);
                    prop_assert_eq!(graph.label_count(l), edges_of(model).len());
                    prop_assert_eq!(graph.distinct_sources(l), model.len());
                    prop_assert_eq!(graph.distinct_targets(l), back.len());
                    for v in 0..n as VertexId + 66 {
                        let out: Vec<VertexId> =
                            model.get(&v).into_iter().flatten().copied().collect();
                        let inn: Vec<VertexId> =
                            back.get(&v).into_iter().flatten().copied().collect();
                        prop_assert_eq!(graph.out_neighbors(v, l), &out[..]);
                        prop_assert_eq!(graph.in_neighbors(v, l), &inn[..]);
                    }
                }
            }
        }
    }
}
