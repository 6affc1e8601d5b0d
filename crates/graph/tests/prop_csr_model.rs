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
//! The paged chains do the same across the index's pages of 4,096 ids:
//! ids at 4095 / 4096 / 4097 and near the top of a 2^24 domain, empty
//! pages between occupied ones, and a rebase must share every page its
//! delta has no row in. The directory-extreme chains start from a page
//! with a row at each of its 4,096 ids, or with rows in its first or its
//! last 64-id word only, and delete until a word and then the page empty.

use std::collections::{BTreeMap, BTreeSet};

use ceg_graph::{Csr, GraphBuilder, GraphDelta, LabeledGraph, VertexId};
use proptest::prelude::*;

type Model = BTreeMap<VertexId, BTreeSet<VertexId>>;

/// `(from, to)` pairs, sorted.
type Pairs = Vec<(VertexId, VertexId)>;

/// Domain sizes around the word boundaries, none of them forgiving.
const DOMAINS: [usize; 8] = [1, 2, 63, 64, 65, 66, 129, 200];

/// Domains of whole and partial pages (`Csr::PAGE_SIZE` = 4,096 ids),
/// up to the 2^24 ids a live update may grow a dataset to.
const PAGED_DOMAINS: [usize; 6] = [4095, 4096, 4097, 8193, 3 * 4096 + 5, 1 << 24];

/// Ids on the page boundaries and at the top of the largest domain.
const PAGE_EDGES: [VertexId; 10] = [
    4095,
    4096,
    4097,
    8191,
    8192,
    8193,
    12_288,
    (1 << 24) - 4097,
    (1 << 24) - 4096,
    (1 << 24) - 1,
];

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

/// Map a draw to a vertex of `0..n` for the paged chains: two times in
/// five onto a page boundary (or the domain's last id), one time in ten
/// anywhere in the domain, else into the first two pages — so the pages
/// between the first ones and the top of a large domain stay empty.
fn paged_vertex(draw: u32, n: usize) -> VertexId {
    let (n, pick) = (n as u64, u64::from(draw / 10));
    let v = match draw % 10 {
        0..4 => u64::from(PAGE_EDGES[pick as usize % PAGE_EDGES.len()]),
        4 => pick * 1_677_721,
        _ => pick % 8192,
    };
    (v % n) as VertexId
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u32..100_000, 0u32..100_000, (0u8..3).prop_map(|b| b > 0)),
        0..max,
    )
}

/// Steps that grow the domain to one of `domains` domains.
fn arb_steps(domains: usize) -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec(
        (0usize..domains, (0u8..5).prop_map(|b| b == 0), arb_ops(40)),
        1..7,
    )
}

/// Apply one step to the model and return the normalized `(adds, dels)`
/// `Csr::rebase` expects: sorted, duplicate-free, every add absent from
/// and every del present in the state before the step, the two disjoint.
fn step_model(
    model: &mut Model,
    n: usize,
    empty_first: bool,
    ops: &[RawOp],
    vertex: fn(u32, usize) -> VertexId,
) -> (Pairs, Pairs) {
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

/// The vertices to probe over a domain of `n`: all of it while it is
/// small, else the ids at the page and word boundaries, the model's rows
/// and their neighbours; then ids past the domain.
fn probes(model: &Model, n: usize) -> Vec<VertexId> {
    let mut probes: BTreeSet<usize> = if n <= 256 {
        (0..n + 2).collect()
    } else {
        let around = |v: usize| v.saturating_sub(1)..v + 2;
        PAGE_EDGES
            .iter()
            .flat_map(|&v| around(v as usize))
            .chain(model.keys().flat_map(|&v| around(v as usize)))
            .chain(around(n - 1))
            .collect()
    };
    probes.extend([
        n + 62,
        n + 63,
        n + 64,
        n + 65,
        1 << 20,
        1 << 24,
        u32::MAX as usize,
    ]);
    probes
        .into_iter()
        .map(|v| v.min(u32::MAX as usize) as VertexId)
        .collect()
}

/// Every read accessor of `csr` against the model over a domain of `n`,
/// and the same of its transpose against the transposed model.
fn check(csr: &Csr, model: &Model, n: usize) -> Result<(), TestCaseError> {
    check_reads(csr, model, n)?;
    let t = csr.transpose();
    prop_assert_eq!(t.num_vertices(), csr.num_vertices());
    check_reads(&t, &transposed(model), n)
}

fn check_reads(csr: &Csr, model: &Model, n: usize) -> Result<(), TestCaseError> {
    let edges = edges_of(model);
    prop_assert_eq!(csr.num_edges(), edges.len());
    prop_assert_eq!(csr.num_active(), model.len());
    prop_assert_eq!(
        csr.max_degree(),
        model.values().map(BTreeSet::len).max().unwrap_or(0)
    );
    for v in probes(model, n) {
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
    prop_assert_eq!(csr.iter_edges().collect::<Vec<_>>(), edges.clone());
    for (k, &e) in edges.iter().enumerate() {
        prop_assert_eq!(csr.nth_edge(k), Some(e), "nth_edge({})", k);
    }
    prop_assert_eq!(csr.nth_edge(edges.len()), None);
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
        steps in arb_steps(DOMAINS.len()),
    ) {
        let mut model = Model::new();
        let mut n = DOMAINS[first_domain];
        let mut csr = if from_default {
            Csr::default()
        } else {
            step_model(&mut model, n, false, &initial, vertex);
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
            let (adds, dels) = step_model(&mut model, n, empty_first, &ops, vertex);
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
        steps in prop::collection::vec((0u16..3, arb_steps(DOMAINS.len())), 1..4),
    ) {
        const LABELS: [u16; 3] = [0, 3, 1];
        let mut n = DOMAINS[first_domain];
        let mut models = vec![Model::new(); 4];
        step_model(&mut models[0], n, false, &initial, vertex);
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
                    step_model(&mut models[label as usize], n, empty_first, &ops, vertex);
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

    /// Chains over domains of whole and partial pages, up to the 2^24
    /// ids an update may reach: ids on the page boundaries and at the
    /// top of the domain, empty pages between occupied ones, pages
    /// emptied and domains grown by a step. After every link the index
    /// (and its transpose) matches the model, equals `from_pairs` of its
    /// edges — an emptied page is `None` and the table ends at the last
    /// occupied page — and every page the step's delta has no source in
    /// is the predecessor's allocation, not a copy.
    #[test]
    fn paged_rebase_chains_match_the_model(
        first_domain in 0usize..PAGED_DOMAINS.len(),
        initial in arb_ops(60),
        steps in arb_steps(PAGED_DOMAINS.len()),
    ) {
        let mut model = Model::new();
        let mut n = PAGED_DOMAINS[first_domain];
        step_model(&mut model, n, false, &initial, paged_vertex);
        let mut csr = Csr::from_pairs(n, &edges_of(&model));
        check(&csr, &model, n)?;
        for (domain, empty_first, ops) in steps {
            n = n.max(PAGED_DOMAINS[domain]);
            let (adds, dels) = step_model(&mut model, n, empty_first, &ops, paged_vertex);
            let next = csr.rebase(n, &adds, &dels);
            prop_assert_eq!(next.num_vertices(), n);
            check(&next, &model, n)?;
            prop_assert_eq!(&next, &Csr::from_pairs(n, &edges_of(&model)));
            let touched: BTreeSet<usize> = adds
                .iter()
                .chain(&dels)
                .map(|&(v, _)| v as usize / Csr::PAGE_SIZE)
                .collect();
            for p in (0..n.div_ceil(Csr::PAGE_SIZE)).filter(|p| !touched.contains(p)) {
                prop_assert!(next.shares_page(&csr, p), "page {} was copied", p);
            }
            csr = next;
        }
    }
}

/// A page at the directory's extremes: every one of its 4,096 ids with a
/// row (all 64 words non-empty), or rows only in its word 0, or only in
/// its word 63. `page` 0 and 1 sit in a domain of three pages, 2 is the
/// top page of a 2^24 domain. Each row has one or two targets spread over
/// the domain, so the transpose fills many pages.
fn extreme_page(shape: usize, page: usize, seed: u32) -> (Model, usize) {
    let n: usize = if page == 2 {
        1 << 24
    } else {
        3 * Csr::PAGE_SIZE
    };
    let base = if page == 2 {
        n - Csr::PAGE_SIZE
    } else {
        page * Csr::PAGE_SIZE
    } as u32;
    let ids: Vec<u32> = match shape {
        0 => (0..4096).collect(),
        // A seeded subset of one word, never fewer than two ids.
        w => (0..64)
            .filter(|i| (seed >> (i % 16)) & 1 == 1 || i % 31 == 0)
            .map(|i| if w == 1 { i } else { 4032 + i })
            .collect(),
    };
    let mut model = Model::new();
    for i in ids {
        let v = base + i;
        let spread =
            |k: u64| ((u64::from(v) * 2_654_435_761 + u64::from(seed) * k) % n as u64) as u32;
        let row = model.entry(v).or_default();
        row.insert(spread(1));
        if (v ^ seed).is_multiple_of(3) {
            row.insert(spread(7));
        }
    }
    (model, n)
}

/// `Csr::from_pairs` of the reversed pairs of `csr`.
fn reversed_from_pairs(csr: &Csr) -> Csr {
    let rev: Pairs = csr.iter_edges().map(|(s, d)| (d, s)).collect();
    Csr::from_pairs(csr.num_vertices(), &rev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chains of deletions from a page at the directory's extremes: first
    /// every row of one non-empty word (with a full page, the word
    /// empties while its page keeps rows), then the rest in seeded
    /// chunks until the page empties and its slot is `None`. After every
    /// link the index matches the model and equals `from_pairs` of its
    /// edges, its transpose equals `from_pairs` of the reversed pairs —
    /// heap bytes included — and `occupancy` counts the model's pages and
    /// 64-id words.
    #[test]
    fn directory_extremes_match_the_model(
        shape in 0usize..3,
        page in 0usize..3,
        seed in 0u32..1_000_000,
    ) {
        let (mut model, n) = extreme_page(shape, page, seed);
        let occupancy = |model: &Model| {
            let words: BTreeSet<u32> = model.keys().map(|v| v / 64).collect();
            let pages: BTreeSet<u32> = words.iter().map(|w| w / 64).collect();
            (pages.len(), words.len())
        };
        let mut csr = Csr::from_pairs(n, &edges_of(&model));
        let p = model.keys().next().map(|&v| v as usize / Csr::PAGE_SIZE).unwrap();
        let first_word = model.keys().nth(seed as usize % model.len()).map(|v| v / 64).unwrap();
        let mut link = 0;
        while !model.is_empty() {
            let rows: Vec<VertexId> = if link == 0 {
                model.keys().copied().filter(|v| v / 64 == first_word).collect()
            } else {
                let chunk = 1 + (seed as usize * link) % 1500;
                model.keys().copied().take(chunk).collect()
            };
            let dels: Pairs = rows
                .iter()
                .flat_map(|v| model[v].iter().map(move |&t| (*v, t)))
                .collect();
            for v in &rows {
                model.remove(v);
            }
            let next = csr.rebase(n, &[], &dels);
            check(&next, &model, n)?;
            prop_assert_eq!(&next, &Csr::from_pairs(n, &edges_of(&model)));
            let t = next.transpose();
            let want = reversed_from_pairs(&next);
            prop_assert_eq!(t.heap_bytes(), want.heap_bytes());
            prop_assert_eq!(&t, &want);
            prop_assert_eq!(next.occupancy(), occupancy(&model));
            if link == 0 && shape == 0 {
                prop_assert!(!model.is_empty(), "a full page keeps rows after one word empties");
                prop_assert!(!next.shares_page(&Csr::default(), p), "the page keeps its slot");
            }
            csr = next;
            link += 1;
        }
        prop_assert!(csr.shares_page(&Csr::default(), p), "an emptied page is None");
        prop_assert_eq!(csr, Csr::default().rebase(n, &[], &[]));
    }
}
