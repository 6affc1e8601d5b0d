//! Sampled (approximate) Markov-table construction — how the
//! graph-catalogue systems the paper builds on construct their statistics
//! at scale: instead of exact counts, each pattern's cardinality is
//! estimated with Horvitz–Thompson-weighted random walks from its
//! smallest relation. `walks` controls the accuracy/time trade-off. The
//! served catalog is always exact ([`MarkovTable::build`]); this is the
//! `extensions` experiment's variant.

use ceg_catalog::markov::dedupe_subpatterns;
use ceg_catalog::MarkovTable;
use ceg_graph::LabeledGraph;
use ceg_query::QueryGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Like [`MarkovTable::build`] but with sampled counts.
pub fn build_sampled(
    graph: &LabeledGraph,
    queries: &[QueryGraph],
    h: usize,
    walks: u32,
    seed: u64,
) -> MarkovTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = MarkovTable::empty(h);
    for pat in dedupe_subpatterns(queries, h) {
        let pq = pat.to_query();
        let est = if pq.num_edges() == 1 {
            graph.label_count(pq.edge(0).label) as f64 // exact for free
        } else {
            sample_pattern_count(graph, &pq, walks, &mut rng)
        };
        table.insert(pat, est.round() as u64);
    }
    table
}

/// HT random-walk estimate of a small pattern's homomorphism count.
fn sample_pattern_count(
    graph: &LabeledGraph,
    query: &QueryGraph,
    walks: u32,
    rng: &mut StdRng,
) -> f64 {
    // walk order: start at the smallest relation, extend adjacently
    let m = query.num_edges();
    let start = (0..m)
        .min_by_key(|&i| graph.label_count(query.edge(i).label))
        .expect("non-empty pattern");
    let mut order = vec![start];
    let e0 = query.edge(start);
    let mut bound: u32 = (1 << e0.src) | (1 << e0.dst);
    let mut used = 1u32 << start;
    while order.len() < m {
        let next = (0..m)
            .find(|&i| {
                used & (1 << i) == 0 && {
                    let e = query.edge(i);
                    bound & ((1 << e.src) | (1 << e.dst)) != 0
                }
            })
            .expect("patterns are connected");
        let e = query.edge(next);
        bound |= (1 << e.src) | (1 << e.dst);
        used |= 1 << next;
        order.push(next);
    }
    let start_edges: Vec<(u32, u32)> = graph.edges(query.edge(start).label).collect();
    if start_edges.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for _ in 0..walks {
        let (s0, d0) = start_edges[rng.random_range(0..start_edges.len())];
        let mut binding = vec![0u32; query.num_vars() as usize];
        let mut bset = 0u32;
        let e = query.edge(start);
        if e.src == e.dst && s0 != d0 {
            continue;
        }
        binding[e.src as usize] = s0;
        binding[e.dst as usize] = d0;
        bset |= (1 << e.src) | (1 << e.dst);
        let mut w = start_edges.len() as f64;
        let mut dead = false;
        for &qi in &order[1..] {
            let e = query.edge(qi);
            let (sb, db) = (bset & (1 << e.src) != 0, bset & (1 << e.dst) != 0);
            match (sb, db) {
                (true, true) => {
                    if !graph.has_edge(binding[e.src as usize], binding[e.dst as usize], e.label) {
                        dead = true;
                        break;
                    }
                }
                (true, false) => {
                    let c = graph.out_neighbors(binding[e.src as usize], e.label);
                    if c.is_empty() {
                        dead = true;
                        break;
                    }
                    let pick = c[rng.random_range(0..c.len())];
                    w *= c.len() as f64;
                    binding[e.dst as usize] = pick;
                    bset |= 1 << e.dst;
                }
                (false, true) => {
                    let c = graph.in_neighbors(binding[e.dst as usize], e.label);
                    if c.is_empty() {
                        dead = true;
                        break;
                    }
                    let pick = c[rng.random_range(0..c.len())];
                    w *= c.len() as f64;
                    binding[e.src as usize] = pick;
                    bset |= 1 << e.src;
                }
                (false, false) => unreachable!("connected walk order"),
            }
        }
        if !dead {
            total += w;
        }
    }
    total / walks as f64
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::{templates, EdgeMask, Pattern};

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(60);
        for i in 0..20u32 {
            b.add_edge(i, 20 + i, 0);
            b.add_edge(20 + i, 40 + (i % 10), 1);
        }
        b.build()
    }

    #[test]
    fn sampled_counts_approach_exact() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let exact = MarkovTable::build_for_query(&g, &q, 2);
        let sampled = build_sampled(&g, std::slice::from_ref(&q), 2, 4000, 1);
        assert_eq!(sampled.len(), exact.len());
        for (p, c) in exact.iter() {
            let s = sampled.card(p).unwrap() as f64;
            let c = c as f64;
            assert!(
                (s - c).abs() <= (0.2 * c).max(2.0),
                "pattern {p}: sampled {s} vs exact {c}"
            );
        }
    }

    #[test]
    fn single_edge_entries_are_exact() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let sampled = build_sampled(&g, std::slice::from_ref(&q), 2, 10, 2);
        let p0 = Pattern::of_subquery(&q, EdgeMask::single(0));
        assert_eq!(sampled.card(&p0), Some(count(&g, &p0.to_query())));
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let a = build_sampled(&g, std::slice::from_ref(&q), 2, 100, 3);
        let b = build_sampled(&g, std::slice::from_ref(&q), 2, 100, 3);
        for (p, c) in a.iter() {
            assert_eq!(b.card(p), Some(c));
        }
    }
}
