//! Cycle-structure analysis of queries.
//!
//! The choice of CEG and heuristic depends on the query's cycle structure
//! (Sections 4.3, 6.2): acyclic queries and queries whose only cycles are
//! triangles behave differently from queries with cycles longer than the
//! Markov-table size `h`. Cycles here are cycles of the *underlying
//! undirected* multigraph — edge directions are irrelevant for joins.

use crate::mask::EdgeMask;
use crate::query::QueryGraph;
use crate::VarId;

/// Cyclomatic number (first Betti number) of the edge subset `mask`:
/// `|E| - |V| + #components`. Zero iff the subset is a forest.
pub fn cyclomatic_number(query: &QueryGraph, mask: EdgeMask) -> usize {
    let e = mask.len();
    if e == 0 {
        return 0;
    }
    // Count vertices and components with a union-find over variables,
    // on the stack: CEG_O construction calls this once per node.
    let mut parent: [VarId; QueryGraph::MAX_VARS as usize] = std::array::from_fn(|v| v as VarId);
    fn find(parent: &mut [VarId], v: VarId) -> VarId {
        let mut v = v;
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let mut vars = 0u32;
    for i in mask.iter() {
        let ed = query.edge(i);
        vars |= (1 << ed.src) | (1 << ed.dst);
        let (a, b) = (find(&mut parent, ed.src), find(&mut parent, ed.dst));
        if a != b {
            parent[a as usize] = b;
        }
    }
    let nv = vars.count_ones() as usize;
    // Every component of the touched variables has exactly one root.
    let components = (0..query.num_vars())
        .filter(|&v| vars & (1 << v) != 0 && parent[v as usize] == v)
        .count();
    e + components - nv
}

/// True if the whole query is acyclic (a forest / tree).
pub fn is_acyclic(query: &QueryGraph) -> bool {
    cyclomatic_number(query, query.full_mask()) == 0
}

/// True if the query has at least one cycle strictly longer than `h` that
/// does not contain a smaller cycle within its vertex set (Section 4.3:
/// such queries need CEG_OCR; large cycles containing smaller cycles are
/// already handled by the early cycle-closing rule).
pub fn has_large_cycle(query: &QueryGraph, h: usize) -> bool {
    // Every simple cycle longer than h is "large"; the early-closing rule
    // handles those whose chords create smaller cycles, so we check for a
    // chordless (induced) cycle of length > h.
    chordless_cycle_lengths(query)
        .into_iter()
        .any(|len| len > h)
}

/// True if all of the query's cycles are triangles (used to split the
/// cyclic workloads in Section 6.2.1 vs 6.2.2).
pub fn only_triangles(query: &QueryGraph) -> bool {
    let lens = chordless_cycle_lengths(query);
    !lens.is_empty() && lens.iter().all(|&l| l == 3)
}

/// Lengths of chordless simple cycles.
fn chordless_cycle_lengths(query: &QueryGraph) -> Vec<usize> {
    simple_cycles(query)
        .into_iter()
        .filter(|c| is_chordless(query, c))
        .map(|c| c.len())
        .collect()
}

/// Enumerate simple cycles as edge masks. Uses DFS from each edge; the
/// cycle is recorded when the walk returns to its start vertex. Each cycle
/// is found multiple times; deduplicated by mask.
pub fn simple_cycles(query: &QueryGraph) -> Vec<EdgeMask> {
    let mut found: Vec<EdgeMask> = Vec::new();
    let m = query.num_edges();
    // 2-cycles from parallel/antiparallel edge pairs.
    for i in 0..m {
        for j in (i + 1)..m {
            let (a, b) = (query.edge(i), query.edge(j));
            let same = a.src == b.src && a.dst == b.dst;
            let anti = a.src == b.dst && a.dst == b.src;
            if (same || anti) && a.src != a.dst {
                found.push(EdgeMask::single(i).insert(j));
            }
        }
    }
    // Longer cycles by DFS.
    for start_edge in 0..m {
        let e0 = query.edge(start_edge);
        if e0.src == e0.dst {
            found.push(EdgeMask::single(start_edge));
            continue;
        }
        dfs_cycles(
            query,
            e0.src,
            e0.dst,
            EdgeMask::single(start_edge),
            (1u32 << e0.dst) | (1 << e0.src),
            start_edge,
            &mut found,
        );
    }
    found.sort_unstable();
    found.dedup();
    found
}

#[allow(clippy::too_many_arguments)]
fn dfs_cycles(
    query: &QueryGraph,
    target: VarId,
    at: VarId,
    used: EdgeMask,
    visited_vars: u32,
    min_edge: usize,
    found: &mut Vec<EdgeMask>,
) {
    for i in 0..query.num_edges() {
        if used.contains(i) || i < min_edge {
            // restrict to edges ≥ the start edge to limit duplicates
            continue;
        }
        let e = query.edge(i);
        if !e.touches(at) {
            continue;
        }
        let next = e.other(at);
        if next == target && used.len() >= 2 {
            found.push(used.insert(i));
            continue;
        }
        if visited_vars & (1 << next) != 0 {
            continue;
        }
        dfs_cycles(
            query,
            target,
            next,
            used.insert(i),
            visited_vars | (1 << next),
            min_edge,
            found,
        );
    }
}

/// True if the cycle (given as an edge mask) has no chord: no query edge
/// outside the cycle connects two of the cycle's vertices.
fn is_chordless(query: &QueryGraph, cycle: &EdgeMask) -> bool {
    let vars = query.vars_of(*cycle);
    for i in 0..query.num_edges() {
        if cycle.contains(i) {
            continue;
        }
        let e = query.edge(i);
        if e.src != e.dst && vars & (1 << e.src) != 0 && vars & (1 << e.dst) != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryEdge;
    use crate::templates;

    /// Lengths of all simple cycles, ascending.
    fn lengths(query: &QueryGraph) -> Vec<usize> {
        let mut lens: Vec<usize> = simple_cycles(query).iter().map(|c| c.len()).collect();
        lens.sort_unstable();
        lens
    }

    #[test]
    fn path_is_acyclic() {
        let q = templates::path(4, &[0, 1, 2, 3]);
        assert!(is_acyclic(&q));
        assert!(lengths(&q).is_empty());
        assert!(!has_large_cycle(&q, 3));
    }

    #[test]
    fn triangle_cycles() {
        let q = templates::cycle(3, &[0, 1, 2]);
        assert!(!is_acyclic(&q));
        assert_eq!(lengths(&q), [3]);
        assert!(only_triangles(&q));
        assert!(!has_large_cycle(&q, 3));
        assert!(has_large_cycle(&q, 2));
    }

    #[test]
    fn square_cycle() {
        let q = templates::cycle(4, &[0, 1, 2, 3]);
        assert_eq!(lengths(&q), [4]);
        assert!(has_large_cycle(&q, 3));
        assert!(!only_triangles(&q));
    }

    #[test]
    fn k4_has_no_large_chordless_cycle() {
        // K4 contains 4-cycles but all of them have chords; the early
        // cycle-closing rule handles it, so CEG_OCR is not needed (§4.3).
        let q = templates::clique4(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(cyclomatic_number(&q, q.full_mask()), 3);
        assert!(!has_large_cycle(&q, 3));
        assert!(only_triangles(&q));
    }

    #[test]
    fn cyclomatic_number_of_subsets() {
        let q = templates::cycle(4, &[0, 1, 2, 3]);
        assert_eq!(cyclomatic_number(&q, q.full_mask()), 1);
        assert_eq!(cyclomatic_number(&q, EdgeMask::from_bits(0b0111)), 0);
        assert_eq!(cyclomatic_number(&q, EdgeMask::empty()), 0);
    }

    #[test]
    fn antiparallel_pair_is_a_two_cycle() {
        let q = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(1, 0, 1)]);
        assert_eq!(lengths(&q), [2]);
        assert!(!is_acyclic(&q));
    }

    #[test]
    fn two_triangles_shared_vertex() {
        let q = templates::two_triangles(&[0, 1, 2, 3, 4, 5]);
        assert!(only_triangles(&q));
        assert_eq!(cyclomatic_number(&q, q.full_mask()), 2);
    }

    #[test]
    fn diamond_with_crossing_edge() {
        // 4-cycle plus a chord: the 4-cycles are chorded, triangles remain.
        let q = templates::diamond_cross(&[0, 1, 2, 3, 4]);
        assert!(only_triangles(&q));
        assert!(!has_large_cycle(&q, 3));
    }
}
