//! Multi-way intersection of sorted neighbour slices.
//!
//! The counting kernel generates the candidate set of a query variable as
//! the intersection of the CSR neighbour lists induced by its already-bound
//! neighbours. This module supplies the k-way step on top of the two-slice
//! primitives in [`ceg_graph::intersect`], choosing per step between a
//! linear merge for comparable lengths and galloping for skewed ones
//! ([`GALLOP_RATIO`]): the two smallest lists
//! are merged into a reusable buffer, then each remaining list refines the
//! buffer in place. Total cost is bounded by the smallest list — the
//! worst-case-optimal-join access pattern — and the buffer is the only
//! storage touched, so a warm kernel performs no allocation here.

use ceg_graph::VertexId;

pub use ceg_graph::intersect::{
    gallop, intersect_into_gallop, intersect_into_merge, refine_in_place_gallop,
    refine_in_place_merge, VertexBitset, GALLOP_RATIO,
};

/// Which intersection strategy the counting kernel uses.
///
/// [`Adaptive`](IntersectStrategy::Adaptive) is the production setting:
/// merge vs gallop by the [`GALLOP_RATIO`] length crossover, plus the
/// per-depth bitset path where the plan enabled it from degree stats. The
/// forced settings pin every pairwise step (and the bitset path on or
/// off) so tests exercise each strategy even where the crossover would
/// never pick it; they are the fourth argument of `CountPlan::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectStrategy {
    #[default]
    Adaptive,
    /// Every pairwise step is a linear two-pointer merge; no bitsets.
    Merge,
    /// Every pairwise step gallops; no bitsets.
    Gallop,
    /// The bitset path is enabled wherever structurally possible
    /// (ignoring the degree-stat crossover); other steps stay adaptive.
    Bitset,
}

/// Intersect `lists` (each sorted and duplicate-free) into `out`, counting
/// each pairwise step under `merges` (two-pointer) or `gallops`.
///
/// `out` is cleared first; `lists` is reordered (sorted by length so the
/// smallest pair seeds the buffer). With zero lists the result is empty —
/// the caller owns the "no constraint" case; with one list the slice is
/// copied verbatim (the kernel iterates a single slice directly instead).
///
/// `Merge` / `Gallop` force every pairwise step onto that primitive;
/// `Adaptive` and `Bitset` pick by the [`GALLOP_RATIO`] crossover
/// ([`pairwise`]) — the bitset path itself lives a level up, in the
/// kernel's per-depth caches, so at the pairwise level `Bitset` behaves
/// adaptively.
pub(crate) fn intersect_k_into_strategy(
    lists: &mut [&[VertexId]],
    out: &mut Vec<VertexId>,
    strategy: IntersectStrategy,
    merges: &mut u64,
    gallops: &mut u64,
) {
    out.clear();
    match lists.len() {
        0 => {}
        1 => out.extend_from_slice(lists[0]),
        _ => {
            lists.sort_unstable_by_key(|l| l.len());
            if lists[0].is_empty() {
                return;
            }
            match pairwise(strategy, lists[0].len(), lists[1].len()) {
                Pairwise::Merge => {
                    *merges += 1;
                    intersect_into_merge(lists[0], lists[1], out);
                }
                Pairwise::Gallop => {
                    *gallops += 1;
                    intersect_into_gallop(lists[0], lists[1], out);
                }
            }
            for l in &lists[2..] {
                if out.is_empty() {
                    return;
                }
                match pairwise(strategy, out.len(), l.len()) {
                    Pairwise::Merge => {
                        *merges += 1;
                        refine_in_place_merge(out, l);
                    }
                    Pairwise::Gallop => {
                        *gallops += 1;
                        refine_in_place_gallop(out, l);
                    }
                }
            }
        }
    }
}

enum Pairwise {
    Merge,
    Gallop,
}

/// One pairwise dispatch decision: the forced strategies pin it, the
/// others apply the [`GALLOP_RATIO`] crossover on `large / small`.
fn pairwise(strategy: IntersectStrategy, small: usize, large: usize) -> Pairwise {
    match strategy {
        IntersectStrategy::Merge => Pairwise::Merge,
        IntersectStrategy::Gallop => Pairwise::Gallop,
        IntersectStrategy::Adaptive | IntersectStrategy::Bitset => {
            if large / small >= GALLOP_RATIO {
                Pairwise::Gallop
            } else {
                Pairwise::Merge
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive(
        lists: &mut [&[VertexId]],
        out: &mut Vec<VertexId>,
        merges: &mut u64,
        gallops: &mut u64,
    ) {
        intersect_k_into_strategy(lists, out, IntersectStrategy::Adaptive, merges, gallops);
    }

    fn kway(lists: &[&[VertexId]]) -> Vec<VertexId> {
        let mut ls: Vec<&[VertexId]> = lists.to_vec();
        let mut out = vec![99]; // pre-seeded: must be cleared
        adaptive(&mut ls, &mut out, &mut 0, &mut 0);
        out
    }

    #[test]
    fn zero_and_one_list() {
        assert_eq!(kway(&[]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&[3, 5, 8]]), vec![3, 5, 8]);
    }

    #[test]
    fn empty_list_short_circuits() {
        assert_eq!(kway(&[&[1, 2, 3], &[]]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&[], &[1, 2], &[2, 3]]), Vec::<VertexId>::new());
    }

    #[test]
    fn three_way_intersection() {
        assert_eq!(
            kway(&[&[1, 2, 3, 4, 5, 9], &[2, 4, 5, 9], &[0, 4, 9, 11]]),
            vec![4, 9]
        );
    }

    #[test]
    fn one_element_gallop() {
        // single-element small side against a long list: pure gallop
        let large: Vec<VertexId> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(kway(&[&[500], &large]), vec![500]);
        assert_eq!(kway(&[&[501], &large]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&large, &[1998]]), vec![1998]);
    }

    #[test]
    fn duplicate_free_invariant() {
        // duplicate-free sorted inputs → duplicate-free sorted output,
        // even with identical lists repeated
        let a: &[VertexId] = &[1, 4, 7, 9];
        let got = kway(&[a, a, a]);
        assert_eq!(got, vec![1, 4, 7, 9]);
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(got, dedup);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn profiled_counts_match_strategy_dispatch() {
        let large: Vec<VertexId> = (0..1000).map(|i| i * 2).collect();
        let mut out = Vec::new();
        // Comparable lengths: one merge, no gallop.
        let (mut m, mut g) = (0, 0);
        let mut ls: Vec<&[VertexId]> = vec![&[1, 2, 3], &[2, 3, 4]];
        adaptive(&mut ls, &mut out, &mut m, &mut g);
        assert_eq!((m, g), (1, 0));
        assert_eq!(out, vec![2, 3]);
        // Skewed pair: classified as a gallop.
        let (mut m, mut g) = (0, 0);
        let mut ls: Vec<&[VertexId]> = vec![&[500], &large];
        adaptive(&mut ls, &mut out, &mut m, &mut g);
        assert_eq!((m, g), (0, 1));
        // Three-way with a skewed refine: one merge seed + one gallop.
        let (mut m, mut g) = (0, 0);
        let mut ls: Vec<&[VertexId]> = vec![&[2, 500], &[2, 500, 501], &large];
        adaptive(&mut ls, &mut out, &mut m, &mut g);
        assert_eq!((m, g), (1, 1));
        assert_eq!(out, vec![2, 500]);
    }

    #[test]
    fn reuses_buffer_without_reallocating() {
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        for _ in 0..10 {
            let mut ls: Vec<&[VertexId]> = vec![&[1, 2, 3, 5], &[2, 3, 5, 8], &[3, 5]];
            adaptive(&mut ls, &mut out, &mut 0, &mut 0);
            assert_eq!(out, vec![3, 5]);
        }
        assert_eq!(out.capacity(), cap);
    }
}
