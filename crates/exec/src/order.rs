//! Variable-ordering heuristic for the backtracking matcher.

use ceg_graph::LabeledGraph;
use ceg_query::{QueryGraph, VarId};

/// Choose a binding order for the query variables.
///
/// Greedy: start at an endpoint of the rarest-label edge (small initial
/// candidate set), then repeatedly pick the unbound variable with the most
/// edges into the bound set (maximum pruning), breaking ties toward rarer
/// labels. Every prefix of the order induces a connected sub-query when
/// the query is connected, which the matcher relies on. Only the graph's
/// label cardinalities are consulted.
pub(crate) fn variable_order(graph: &LabeledGraph, query: &QueryGraph) -> Vec<VarId> {
    let n = query.num_vars();
    if n == 0 {
        return Vec::new();
    }
    if query.num_edges() == 0 {
        return (0..n).collect();
    }

    // Seed: endpoints of the edge whose relation is smallest.
    let seed_edge = (0..query.num_edges())
        .min_by_key(|&i| graph.label_count(query.edge(i).label))
        .unwrap();

    if let Some(ring) = ring_order(query, seed_edge) {
        return ring;
    }
    let mut order: Vec<VarId> = Vec::with_capacity(n as usize);
    let mut bound = 0u32;
    let push = |order: &mut Vec<VarId>, bound: &mut u32, v: VarId| {
        if *bound & (1 << v) == 0 {
            order.push(v);
            *bound |= 1 << v;
        }
    };
    push(&mut order, &mut bound, query.edge(seed_edge).src);
    push(&mut order, &mut bound, query.edge(seed_edge).dst);

    while order.len() < n as usize {
        let mut best: Option<(usize, usize, VarId)> = None; // (connections, -rarity, var)
        for v in 0..n {
            if bound & (1 << v) != 0 {
                continue;
            }
            let mut connections = 0usize;
            let mut rarity = usize::MAX;
            for i in query.edges_at(v) {
                let e = query.edge(i);
                if bound & (1 << e.other(v)) != 0 || e.src == e.dst {
                    connections += 1;
                    rarity = rarity.min(graph.label_count(e.label));
                }
            }
            let key = (connections, usize::MAX - rarity, v);
            if best.is_none_or(|(c, r, bv)| key > (c, r, bv)) {
                best = Some(key);
            }
        }
        // `connections == 0` is a disconnected query: a cartesian step.
        let (_, _, v) = best.unwrap();
        push(&mut order, &mut bound, v);
    }
    order
}

/// Ring-walk order for simple-cycle queries: start at the rare seed edge
/// and bind vertices in ring succession.
///
/// For a cycle the greedy heuristic tends to extend from both seed
/// endpoints alternately (rarity tie-breaks), which leaves the closing
/// variable's far edge anchored at a *mid-order* variable. Walking the
/// ring instead anchors every suffix — including the closing
/// intersection's stable edge and the kernel's per-depth suffix memo — at
/// the root, which changes slowest: the memo then collapses cyclic
/// backtracking into the dynamic program over distinct
/// `(root, frontier)` states. Returns `None` unless the query is one
/// simple cycle (every variable on exactly two non-loop edges, one
/// connected ring, no parallel-edge shortcuts).
fn ring_order(query: &QueryGraph, seed_edge: usize) -> Option<Vec<VarId>> {
    let n = query.num_vars() as usize;
    if n < 3 {
        return None;
    }
    let mut ring_edges = 0usize;
    for v in 0..query.num_vars() {
        let mut deg = 0usize;
        for i in query.edges_at(v) {
            let e = query.edge(i);
            if e.src != e.dst {
                deg += 1;
            }
        }
        if deg != 2 {
            return None;
        }
        ring_edges += deg;
    }
    if ring_edges != 2 * n {
        return None;
    }
    // Walk from the seed edge; a genuine single ring visits every
    // variable exactly once before returning to the start.
    let seed = query.edge(seed_edge);
    let mut order = Vec::with_capacity(n);
    let mut visited = 0u32;
    let (mut prev_edge, mut at) = (seed_edge, seed.src);
    loop {
        if visited & (1 << at) != 0 {
            return None; // closed early: two smaller cycles, not one ring
        }
        visited |= 1 << at;
        order.push(at);
        if order.len() == n {
            break;
        }
        let next = query
            .edges_at(at)
            .find(|&i| i != prev_edge && query.edge(i).src != query.edge(i).dst)?;
        at = query.edge(next).other(at);
        prev_edge = next;
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::templates;

    fn graph() -> LabeledGraph {
        let mut b = GraphBuilder::new(10);
        // label 0 common, label 1 rare
        for i in 0..9 {
            b.add_edge(i, i + 1, 0);
        }
        b.add_edge(0, 5, 1);
        b.build()
    }

    #[test]
    fn order_covers_all_vars_once() {
        let g = graph();
        let q = templates::path(3, &[0, 1, 0]);
        let order = variable_order(&g, &q);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn order_starts_at_rare_edge() {
        let g = graph();
        let q = templates::path(3, &[0, 1, 0]);
        let order = variable_order(&g, &q);
        // rare edge is the middle one (vars 1 and 2)
        assert!(order[0] == 1 || order[0] == 2);
    }

    #[test]
    fn prefixes_stay_connected() {
        let g = graph();
        let q = templates::q5f(&[0, 0, 1, 0, 0]);
        let order = variable_order(&g, &q);
        for k in 2..=order.len() {
            let prefix: u32 = order[..k].iter().map(|&v| 1u32 << v).sum();
            // at least one query edge must connect each new var to the prefix
            let v = order[k - 1];
            let connected = q
                .edges_at(v)
                .any(|i| prefix & (1 << q.edge(i).other(v)) != 0 || k == 1);
            assert!(connected || k <= 2, "var {v} disconnected at step {k}");
        }
    }

    #[test]
    fn empty_query_order() {
        let g = graph();
        let q = QueryGraph::new(0, vec![]);
        assert!(variable_order(&g, &q).is_empty());
    }
}
