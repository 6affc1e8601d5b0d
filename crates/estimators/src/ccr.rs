//! Cycle-closing rates for CEG_OCR (Section 4.3).
//!
//! For a query cycle closed by edge `E_i` lying between cycle edges
//! `E_{i-1}` and `E_{i+1}`, the statistic `P(E_{i-1} * E_{i+1} | E_i)` is
//! the probability that a path starting with an `E_{i-1}` edge and ending
//! with an `E_{i+1}` edge is closed into a cycle by an `E_i` edge. The
//! paper estimates these by sampling random walks; we do the same. The
//! table has at most `O(L^3)` entries over `L` labels and, like the
//! Markov table, is built workload-specifically.

use ceg_graph::{FxHashMap, LabelId, LabeledGraph, VertexId};
use ceg_query::cycles::simple_cycles;
use ceg_query::QueryGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Orientation-aware key: the labels of the previous, closing, and next
/// edges of the cycle, plus their directions relative to the closing
/// edge's endpoints (`x` = path-start endpoint, `y` = path-end endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CcrKey {
    pub prev_label: LabelId,
    /// True if `x` is the *source* of the `E_{i-1}` edge.
    pub prev_x_is_src: bool,
    pub close_label: LabelId,
    /// True if `x` is the source of the closing `E_i` edge.
    pub close_x_is_src: bool,
    pub next_label: LabelId,
    /// True if `y` is the source of the `E_{i+1}` edge.
    pub next_y_is_src: bool,
    /// Length of the cycle being closed. The paper samples "paths of
    /// varying lengths"; keying the rate by the cycle length (a k-cycle's
    /// closing path has exactly `k - 3` intermediate hops) measurably
    /// sharpens the rates at a ×(number of distinct cycle lengths) table
    /// cost, still within the paper's `O(L³)`-sized budget.
    pub cycle_len: u8,
}

/// Sampled cycle-closing rates.
#[derive(Debug, Clone)]
pub struct CcrTable {
    rates: FxHashMap<CcrKey, f64>,
    samples: u32,
}

impl CcrTable {
    /// Build the rates needed by the given workload queries: one entry per
    /// (cycle, candidate closing edge) pair over all simple cycles of each
    /// query. `samples` random walks are drawn per entry.
    pub fn build(graph: &LabeledGraph, queries: &[QueryGraph], samples: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rates = FxHashMap::default();
        for q in queries {
            for key in Self::keys_for_query(q) {
                rates
                    .entry(key)
                    .or_insert_with(|| sample_rate(graph, &key, samples, &mut rng));
            }
        }
        CcrTable { rates, samples }
    }

    /// The CCR keys a query requires: for every simple cycle and every
    /// choice of closing edge within it.
    fn keys_for_query(query: &QueryGraph) -> Vec<CcrKey> {
        let mut keys = Vec::new();
        for cyc in simple_cycles(query) {
            if cyc.len() < 3 {
                continue;
            }
            for close_idx in cyc.iter() {
                if let Some(key) = Self::key_for_closing(query, cyc, close_idx) {
                    keys.push(key);
                }
            }
        }
        keys.sort_by_key(|k| {
            (
                k.prev_label,
                k.close_label,
                k.next_label,
                k.prev_x_is_src,
                k.close_x_is_src,
                k.next_y_is_src,
                k.cycle_len,
            )
        });
        keys.dedup();
        keys
    }

    /// Key for closing cycle `cyc` (an edge mask) with edge `close_idx`.
    /// `None` when the neighbours cannot be determined (degenerate cycles).
    pub fn key_for_closing(
        query: &QueryGraph,
        cyc: ceg_query::EdgeMask,
        close_idx: usize,
    ) -> Option<CcrKey> {
        let close = query.edge(close_idx);
        let (x, y) = (close.src, close.dst);
        // the cycle edges adjacent to x and y other than the closing edge
        let prev_idx = cyc
            .iter()
            .find(|&i| i != close_idx && query.edge(i).touches(x))?;
        let next_idx = cyc
            .iter()
            .find(|&i| i != close_idx && i != prev_idx && query.edge(i).touches(y))?;
        let prev = query.edge(prev_idx);
        let next = query.edge(next_idx);
        Some(CcrKey {
            prev_label: prev.label,
            prev_x_is_src: prev.src == x,
            close_label: close.label,
            close_x_is_src: true, // x is close.src by construction
            next_label: next.label,
            next_y_is_src: next.src == y,
            cycle_len: cyc.len() as u8,
        })
    }

    /// Look up a rate; `None` if it was not collected.
    pub fn rate(&self, key: &CcrKey) -> Option<f64> {
        self.rates.get(key).copied()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when no rates are stored.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Samples drawn per entry.
    pub fn samples(&self) -> u32 {
        self.samples
    }
}

/// Estimate `P(prev * next | close)` with random walks: draw a random
/// `prev` edge, take a short random walk, require it to end with a `next`
/// edge, and test whether a `close` edge joins the two loose endpoints.
fn sample_rate(graph: &LabeledGraph, key: &CcrKey, samples: u32, rng: &mut StdRng) -> f64 {
    let prev_card = graph.label_count(key.prev_label);
    if prev_card == 0 {
        return fallback_rate(graph, key.close_label);
    }
    let prev_edges: Vec<(VertexId, VertexId)> = graph.edges(key.prev_label).collect();
    let num_labels = graph.num_labels() as LabelId;

    // Horvitz-Thompson estimation of the path-closure ratio: a uniform
    // random walk samples each concrete path with probability
    // prod 1/|candidates|, so every completed walk is weighted by
    // prod |candidates| - giving unbiased estimates of both the number of
    // (E_{i-1}, ..., E_{i+1}) paths and the number of closed ones; the
    // rate is their ratio.
    let mut paths_w = 0.0f64;
    let mut closed_w = 0.0f64;
    for _ in 0..samples {
        let &(a, b) = &prev_edges[rng.random_range(0..prev_edges.len())];
        // x = loose endpoint of the prev edge; the walk starts at the other
        let (x, mut at) = if key.prev_x_is_src { (a, b) } else { (b, a) };
        // a k-cycle's closing path has exactly k - 3 intermediate hops
        let steps = key.cycle_len.saturating_sub(3) as u32;
        let mut ok = true;
        let mut weight = 1.0f64;
        for _ in 0..steps {
            // uniform step over *all* incident edges (any label, either
            // direction) - the paper's paths have arbitrary middle labels
            let mut total = 0usize;
            for l in 0..num_labels {
                total += graph.out_degree(at, l) + graph.in_degree(at, l);
            }
            if total == 0 {
                ok = false;
                break;
            }
            let mut pick = rng.random_range(0..total);
            let mut next = at;
            'outer: for l in 0..num_labels {
                let outs = graph.out_neighbors(at, l);
                if pick < outs.len() {
                    next = outs[pick];
                    break 'outer;
                }
                pick -= outs.len();
                let ins = graph.in_neighbors(at, l);
                if pick < ins.len() {
                    next = ins[pick];
                    break 'outer;
                }
                pick -= ins.len();
            }
            weight *= total as f64;
            at = next;
        }
        if !ok {
            continue;
        }
        // the walk must end with a `next` edge into y
        let ys = if key.next_y_is_src {
            graph.in_neighbors(at, key.next_label)
        } else {
            graph.out_neighbors(at, key.next_label)
        };
        if ys.is_empty() {
            continue;
        }
        let y = ys[rng.random_range(0..ys.len())];
        let w = weight * ys.len() as f64;
        paths_w += w;
        let is_closed = if key.close_x_is_src {
            graph.has_edge(x, y, key.close_label)
        } else {
            graph.has_edge(y, x, key.close_label)
        };
        if is_closed {
            closed_w += w;
        }
    }
    if paths_w == 0.0 {
        fallback_rate(graph, key.close_label)
    } else {
        closed_w / paths_w
    }
}

/// Density-based fallback when no walk reaches a valid path: the
/// probability that a uniformly random vertex pair is joined by a
/// `close`-labeled edge.
fn fallback_rate(graph: &LabeledGraph, close_label: LabelId) -> f64 {
    let n = graph.num_vertices() as f64;
    if n == 0.0 {
        return 0.0;
    }
    (graph.label_count(close_label) as f64 / (n * n)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    /// Graph where every 2-path with labels 0,1 closes back with label 2.
    fn always_closes() -> LabeledGraph {
        let mut b = GraphBuilder::new(30);
        for i in 0..10u32 {
            let (u, v, w) = (3 * i, 3 * i + 1, 3 * i + 2);
            b.add_edge(u, v, 0);
            b.add_edge(v, w, 1);
            b.add_edge(u, w, 2); // closing edge always present
        }
        b.build()
    }

    #[test]
    fn keys_for_triangle_query() {
        let q = templates::cycle(3, &[0, 1, 2]);
        let keys = CcrTable::keys_for_query(&q);
        assert!(!keys.is_empty());
        // every key references labels of the query
        for k in &keys {
            assert!(k.prev_label < 3 && k.close_label < 3 && k.next_label < 3);
        }
    }

    #[test]
    fn acyclic_query_needs_no_keys() {
        let q = templates::path(4, &[0, 1, 2, 3]);
        assert!(CcrTable::keys_for_query(&q).is_empty());
    }

    #[test]
    fn rate_detects_always_closing_structure() {
        let g = always_closes();
        // triangle matching the data orientation:
        // a0 -0-> a1 -1-> a2 and chord a0 -2-> a2 (the closing edge).
        let q = QueryGraph::new(
            3,
            vec![
                ceg_query::QueryEdge::new(0, 1, 0),
                ceg_query::QueryEdge::new(1, 2, 1),
                ceg_query::QueryEdge::new(0, 2, 2),
            ],
        );
        let t = CcrTable::build(&g, std::slice::from_ref(&q), 400, 42);
        assert!(!t.is_empty());
        // closing the (0,1)-path with a 2-edge always succeeds in this data
        let key = CcrTable::key_for_closing(&q, q.full_mask(), 2).unwrap();
        let rate = t.rate(&key).unwrap();
        assert!(rate > 0.5, "rate was {rate}");
    }

    #[test]
    fn rate_is_probability() {
        let g = always_closes();
        let q = templates::cycle(4, &[0, 1, 2, 0]);
        let t = CcrTable::build(&g, std::slice::from_ref(&q), 100, 7);
        for (&_, &r) in t.rates.iter() {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn fallback_rate_is_density() {
        let g = always_closes();
        let r = fallback_rate(&g, 2);
        assert!(r > 0.0 && r < 1.0);
        assert_eq!(fallback_rate(&GraphBuilder::new(0).build(), 0), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = always_closes();
        let q = templates::cycle(3, &[2, 0, 1]);
        let t1 = CcrTable::build(&g, std::slice::from_ref(&q), 200, 9);
        let t2 = CcrTable::build(&g, std::slice::from_ref(&q), 200, 9);
        for (k, v) in t1.rates.iter() {
            assert_eq!(t2.rate(k), Some(*v));
        }
    }
}
