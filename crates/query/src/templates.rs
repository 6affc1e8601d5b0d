//! Query templates used in the paper's evaluation (Section 6.1).
//!
//! Every constructor takes the edge labels as a slice whose length must
//! equal the template's edge count; workload generators instantiate the
//! templates with randomly drawn labels, as the paper does.
//!
//! Covered shapes:
//! * paths, stars, depth-controlled trees (JOB, Acyclic, G-CARE-Acyclic;
//!   Figure 8),
//! * the running-example fork query `Q5f` (Figure 1),
//! * cycles, diamond-with-chord, `K4`, two-triangles, square+triangle(s),
//!   petals and flowers (Cyclic, G-CARE-Cyclic).

use ceg_graph::LabelId;

use crate::query::{QueryEdge, QueryGraph};
use crate::VarId;

fn check(labels: &[LabelId], need: usize, what: &str) {
    assert_eq!(
        labels.len(),
        need,
        "template `{what}` needs exactly {need} labels"
    );
}

/// Simple directed path `a0 -> a1 -> … -> ak`.
pub fn path(k: usize, labels: &[LabelId]) -> QueryGraph {
    check(labels, k, "path");
    let edges = (0..k)
        .map(|i| QueryEdge::new(i as VarId, i as VarId + 1, labels[i]))
        .collect();
    QueryGraph::new(k as VarId + 1, edges)
}

/// Outgoing star: `a0 -> a1, a0 -> a2, …, a0 -> ak`.
pub fn star(k: usize, labels: &[LabelId]) -> QueryGraph {
    check(labels, k, "star");
    let edges = (0..k)
        .map(|i| QueryEdge::new(0, i as VarId + 1, labels[i]))
        .collect();
    QueryGraph::new(k as VarId + 1, edges)
}

/// Tree with `k` edges and exact depth `d` (`2 ≤ d ≤ k`): a spine path of
/// length `d` from the root, with the remaining `k - d` edges attached
/// round-robin to spine vertices at depth `< d` (so the depth stays `d`).
/// This realizes the Figure 8 template family: for every query size the
/// workloads include one pattern per possible depth, from stars (`d = 2`,
/// handled by [`star`]) to paths (`d = k`).
pub fn tree_depth(k: usize, d: usize, labels: &[LabelId]) -> QueryGraph {
    check(labels, k, "tree_depth");
    assert!((2..=k).contains(&d), "depth must be in 2..=k");
    let mut edges: Vec<QueryEdge> = (0..d)
        .map(|i| QueryEdge::new(i as VarId, i as VarId + 1, labels[i]))
        .collect();
    let mut next_var = d as VarId + 1;
    for (j, &lab) in labels.iter().enumerate().skip(d) {
        // attach below spine vertex (j - d) mod d, but never the deepest
        let parent = ((j - d) % d.max(1)) as VarId;
        edges.push(QueryEdge::new(parent, next_var, lab));
        next_var += 1;
    }
    QueryGraph::new(next_var, edges)
}

/// The paper's running-example fork query `Q5f` (Figure 1): a 2-path
/// `a0 -A-> a1 -B-> a2` with three additional edges `C`, `D`, `E` fanning
/// out of `a2`.
pub fn q5f(labels: &[LabelId]) -> QueryGraph {
    check(labels, 5, "q5f");
    QueryGraph::new(
        6,
        vec![
            QueryEdge::new(0, 1, labels[0]), // A
            QueryEdge::new(1, 2, labels[1]), // B
            QueryEdge::new(2, 3, labels[2]), // C
            QueryEdge::new(2, 4, labels[3]), // D
            QueryEdge::new(2, 5, labels[4]), // E
        ],
    )
}

/// Directed cycle `a0 -> a1 -> … -> a_{k-1} -> a0`.
pub fn cycle(k: usize, labels: &[LabelId]) -> QueryGraph {
    check(labels, k, "cycle");
    assert!(k >= 3, "cycles need at least 3 edges");
    let edges = (0..k)
        .map(|i| QueryEdge::new(i as VarId, ((i + 1) % k) as VarId, labels[i]))
        .collect();
    QueryGraph::new(k as VarId, edges)
}

/// 5-edge diamond: a 4-cycle `a0 a1 a2 a3` with the crossing edge
/// `a0 -> a2` (the Cyclic-workload "diamond with a crossing edge").
pub fn diamond_cross(labels: &[LabelId]) -> QueryGraph {
    check(labels, 5, "diamond_cross");
    QueryGraph::new(
        4,
        vec![
            QueryEdge::new(0, 1, labels[0]),
            QueryEdge::new(1, 2, labels[1]),
            QueryEdge::new(2, 3, labels[2]),
            QueryEdge::new(3, 0, labels[3]),
            QueryEdge::new(0, 2, labels[4]),
        ],
    )
}

/// Complete graph `K4` (6 edges) on variables `a0..a3`.
pub fn clique4(labels: &[LabelId]) -> QueryGraph {
    check(labels, 6, "clique4");
    let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let edges = pairs
        .iter()
        .zip(labels)
        .map(|(&(s, d), &l)| QueryEdge::new(s, d, l))
        .collect();
    QueryGraph::new(4, edges)
}

/// Two triangles sharing vertex `a0` (6 edges).
pub fn two_triangles(labels: &[LabelId]) -> QueryGraph {
    check(labels, 6, "two_triangles");
    QueryGraph::new(
        5,
        vec![
            QueryEdge::new(0, 1, labels[0]),
            QueryEdge::new(1, 2, labels[1]),
            QueryEdge::new(2, 0, labels[2]),
            QueryEdge::new(0, 3, labels[3]),
            QueryEdge::new(3, 4, labels[4]),
            QueryEdge::new(4, 0, labels[5]),
        ],
    )
}

/// 7-edge query: a square with a triangle on one side.
pub fn square_triangle(labels: &[LabelId]) -> QueryGraph {
    check(labels, 7, "square_triangle");
    QueryGraph::new(
        5,
        vec![
            QueryEdge::new(0, 1, labels[0]),
            QueryEdge::new(1, 2, labels[1]),
            QueryEdge::new(2, 3, labels[2]),
            QueryEdge::new(3, 0, labels[3]),
            // triangle on side (0, 1)
            QueryEdge::new(0, 4, labels[4]),
            QueryEdge::new(4, 1, labels[5]),
            QueryEdge::new(1, 3, labels[6]),
        ],
    )
}

/// 8-edge query: a square with triangles on two adjacent sides.
pub fn square_two_triangles(labels: &[LabelId]) -> QueryGraph {
    check(labels, 8, "square_two_triangles");
    QueryGraph::new(
        6,
        vec![
            QueryEdge::new(0, 1, labels[0]),
            QueryEdge::new(1, 2, labels[1]),
            QueryEdge::new(2, 3, labels[2]),
            QueryEdge::new(3, 0, labels[3]),
            // triangle on side (0, 1)
            QueryEdge::new(0, 4, labels[4]),
            QueryEdge::new(4, 1, labels[5]),
            // triangle on side (1, 2)
            QueryEdge::new(1, 5, labels[6]),
            QueryEdge::new(5, 2, labels[7]),
        ],
    )
}

/// Petal: `num_paths` parallel directed paths of `path_len` edges between
/// shared endpoints `a0` and `a1` (G-CARE's 6-edge petal is 3×2, the
/// 9-edge petal 3×3).
pub fn petal(num_paths: usize, path_len: usize, labels: &[LabelId]) -> QueryGraph {
    check(labels, num_paths * path_len, "petal");
    assert!(num_paths >= 2 && path_len >= 1);
    let mut edges = Vec::with_capacity(labels.len());
    let mut next_var: VarId = 2;
    let mut li = 0;
    for _ in 0..num_paths {
        let mut prev: VarId = 0;
        for step in 0..path_len {
            let to = if step + 1 == path_len {
                1
            } else {
                let v = next_var;
                next_var += 1;
                v
            };
            edges.push(QueryEdge::new(prev, to, labels[li]));
            li += 1;
            prev = to;
        }
    }
    QueryGraph::new(next_var, edges)
}

/// Flower: a triangle with one pendant edge hanging off each corner
/// (6 edges), per the G-CARE-Cyclic flower template.
pub fn flower(labels: &[LabelId]) -> QueryGraph {
    check(labels, 6, "flower");
    QueryGraph::new(
        6,
        vec![
            QueryEdge::new(0, 1, labels[0]),
            QueryEdge::new(1, 2, labels[1]),
            QueryEdge::new(2, 0, labels[2]),
            QueryEdge::new(0, 3, labels[3]),
            QueryEdge::new(1, 4, labels[4]),
            QueryEdge::new(2, 5, labels[5]),
        ],
    )
}

/// The seven JOB-style acyclic templates (Section 6.1: four 4-edge, two
/// 5-edge, one 6-edge join shapes derived from the Join Order Benchmark).
/// `idx ∈ 0..7`; labels length must match [`job_template_size`].
pub fn job_template(idx: usize, labels: &[LabelId]) -> QueryGraph {
    match idx {
        0 => path(4, labels),
        1 => star(4, labels),
        2 => tree_depth(4, 2, labels), // shallow bushy join
        3 => tree_depth(4, 3, labels), // Y-shape
        4 => tree_depth(5, 3, labels),
        5 => q5f(labels),
        6 => tree_depth(6, 4, labels),
        _ => panic!("JOB template index out of range: {idx}"),
    }
}

/// Edge count of JOB template `idx`.
pub fn job_template_size(idx: usize) -> usize {
    match idx {
        0..=3 => 4,
        4 | 5 => 5,
        6 => 6,
        _ => panic!("JOB template index out of range: {idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles;

    #[test]
    fn path_shape() {
        let q = path(3, &[0, 1, 2]);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.num_vars(), 4);
        assert!(q.is_connected());
        assert!(cycles::is_acyclic(&q));
    }

    #[test]
    fn star_shape() {
        let q = star(5, &[0; 5]);
        assert_eq!(q.var_degree(0), 5);
        assert!(cycles::is_acyclic(&q));
    }

    #[test]
    fn tree_depth_bounds() {
        for k in [4, 6, 7, 8] {
            for d in 2..=k {
                let labels: Vec<LabelId> = (0..k as LabelId).collect();
                let q = tree_depth(k, d, &labels);
                assert_eq!(q.num_edges(), k);
                assert!(q.is_connected(), "k={k} d={d}");
                assert!(cycles::is_acyclic(&q), "k={k} d={d}");
            }
        }
    }

    #[test]
    fn q5f_shape() {
        let q = q5f(&[0, 1, 2, 3, 4]);
        assert_eq!(q.num_edges(), 5);
        assert_eq!(q.num_vars(), 6);
        assert_eq!(q.var_degree(2), 4);
        assert!(cycles::is_acyclic(&q));
    }

    #[test]
    fn cycle_shape() {
        let q = cycle(6, &[0; 6]);
        assert!(cycles::has_large_cycle(&q, 5));
        assert!(!cycles::has_large_cycle(&q, 6));
        assert_eq!(q.num_vars(), 6);
    }

    #[test]
    fn petal_shapes() {
        let q6 = petal(3, 2, &[0; 6]);
        assert_eq!(q6.num_edges(), 6);
        assert!(q6.is_connected());
        assert!(!cycles::is_acyclic(&q6));
        let q9 = petal(3, 3, &[0; 9]);
        assert_eq!(q9.num_edges(), 9);
        assert!(cycles::has_large_cycle(&q9, 3));
    }

    #[test]
    fn flower_is_triangle_plus_pendants() {
        let q = flower(&[0, 1, 2, 3, 4, 5]);
        assert!(cycles::only_triangles(&q));
        assert_eq!(q.num_edges(), 6);
    }

    #[test]
    fn square_families() {
        assert_eq!(square_triangle(&[0; 7]).num_edges(), 7);
        assert_eq!(square_two_triangles(&[0; 8]).num_edges(), 8);
        assert!(!cycles::is_acyclic(&square_triangle(&[0; 7])));
    }

    #[test]
    fn job_templates_are_acyclic_and_sized() {
        for idx in 0..7 {
            let n = job_template_size(idx);
            let labels: Vec<LabelId> = (0..n as LabelId).collect();
            let q = job_template(idx, &labels);
            assert_eq!(q.num_edges(), n, "template {idx}");
            assert!(cycles::is_acyclic(&q), "template {idx}");
            assert!(q.is_connected(), "template {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "needs exactly")]
    fn wrong_label_count_panics() {
        path(3, &[0, 1]);
    }
}
