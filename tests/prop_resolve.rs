//! Property test of the resolution step: `MarkovTable::resolve` must
//! answer, mask by mask, exactly what `card_of_subquery` answers — on
//! random connected queries and on random *partial* tables, where some
//! of the query's sub-patterns are missing. CEG_O divides by these
//! numbers and the service fills what `missing()` lists, so a card or a
//! gap that moved would move an estimate or skip a count.

use cegraph::catalog::MarkovTable;
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{EdgeMask, Pattern, QueryEdge, QueryGraph};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    prop::collection::vec((0u32..12, 0u32..12, 0u16..LABELS), 3..40).prop_map(|edges| {
        let mut b = GraphBuilder::with_labels(12, LABELS as usize);
        for (s, d, l) in edges {
            b.add_edge(s, d, l);
        }
        b.build()
    })
}

/// A connected query of 1..=8 edges: every edge hangs off a variable an
/// earlier edge introduced and either opens a new variable or closes
/// back onto an old one (cycles, parallel edges and self-loops included).
fn arb_connected_query() -> impl Strategy<Value = QueryGraph> {
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
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resolved_cards_equal_card_of_subquery(
        (g, q) in (arb_graph(), arb_connected_query()),
        h in 2usize..=3,
        keep in prop::collection::vec(0u8..4, 64),
    ) {
        prop_assert!(q.is_connected());
        // A partial table: each entry of the full one survives with
        // probability 3/4 (pattern order makes the choice repeatable).
        let full = MarkovTable::build_for_query(&g, &q, h);
        let mut entries: Vec<(Pattern, u64)> = full.iter().map(|(p, c)| (p.clone(), c)).collect();
        entries.sort();
        let mut table = MarkovTable::empty(h);
        for (i, (pattern, card)) in entries.into_iter().enumerate() {
            if keep[i % keep.len()] != 0 {
                table.insert(pattern, card);
            }
        }

        let resolved = table.resolve(&q).expect("8 edges are far below the subset limit");
        let small = q.connected_subsets_up_to(h);
        prop_assert_eq!(&resolved.nodes()[1..], &q.connected_subsets()[..]);
        prop_assert_eq!(resolved.nodes()[0], EdgeMask::empty());
        prop_assert_eq!(resolved.cards().len(), 1 + small.len());
        prop_assert_eq!(resolved.card(EdgeMask::empty()), Some(1));

        let mut expect_missing: Vec<Pattern> = Vec::new();
        for &mask in &small {
            let card = table.card_of_subquery(&q, mask);
            prop_assert_eq!(resolved.card(mask), card, "mask {}", mask);
            let pattern = Pattern::of_subquery(&q, mask);
            if card.is_none() && !expect_missing.contains(&pattern) {
                expect_missing.push(pattern);
            }
        }
        prop_assert_eq!(resolved.missing(), &expect_missing[..]);
        prop_assert_eq!(resolved.is_complete(), expect_missing.is_empty());

        // Every node is found at its position, within its size level.
        for (i, &mask) in resolved.nodes().iter().enumerate() {
            prop_assert!(resolved.level(mask.len()).contains(&i), "mask {}", mask);
            prop_assert_eq!(resolved.node_index(mask), Some(i), "mask {}", mask);
        }
        // Nothing else resolves: disconnected masks and masks of more
        // than h edges have no card here, and no mask outside the node set
        // has a position.
        for bits in 1..(1u32 << q.num_edges()) {
            let mask = EdgeMask::from_bits(bits);
            if !small.contains(&mask) {
                prop_assert_eq!(resolved.card(mask), None, "mask {}", mask);
            }
            if !resolved.nodes().contains(&mask) {
                prop_assert_eq!(resolved.node_index(mask), None, "mask {}", mask);
            }
        }
    }
}
