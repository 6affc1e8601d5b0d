//! The generic cardinality estimation graph (Section 3).
//!
//! A CEG is a DAG whose vertices are sub-queries, with a designated bottom
//! (`∅`) and top (`Q`); each edge carries an *extension rate*. Every
//! bottom-to-top path is one estimation formula: the estimate is the
//! product of extension rates along the path. Concrete CEGs (CEG_O,
//! CEG_OCR; CEG_M is handled implicitly for scalability) build this
//! structure and the pass below turns it into estimates.
//!
//! An optimistic estimator is a choice of paths along two independent
//! axes (Section 4.2): which hop counts count ([`PathLen`]) and how the
//! chosen paths' estimates are combined ([`Aggr`]). One forward pass over
//! the topological order (`Ceg::fold`) answers both with one
//! `(hops, aggregate)` slot per node, never a `(node, depth)` table or the
//! (potentially exponential) path set: a candidate arriving over an edge
//! *replaces* the slot when `PathLen` prefers its hop count, is *merged*
//! into the slot when the hop counts tie, and is dropped otherwise. The
//! nine heuristics, the hop counts and best-path extraction (for bound
//! sketches; the aggregate carries the winning edge) are instances.
//!
//! One slot is exact because a node on a max-hop (min-hop) bottom-to-top
//! path is reached on it at the node's *own* maximum (minimum) hop count:
//! otherwise splicing in its longer (shorter) prefix would beat the
//! extremal path. So the prefixes a slot drops never reach the top's.
//!
//! Left alone on purpose: Kahn's order in [`Ceg::new`] (the addition order
//! of the `avg` heuristics, whose bits `tests/golden_ceg_o.rs` pins);
//! [`Ceg::path_estimates`], the capped set of distinct path estimates
//! behind the P* oracle (Section 6.2.3), whose contents at the cap depend
//! on insertion order; and the MOLP Dijkstra in `ceg-estimators`'
//! `ceg_m.rs` (implicit graph; its predecessor tie-breaks feed the bound
//! sketches).

use std::cmp::Ordering;

use ceg_graph::FxHashSet;

/// One CEG edge: an extension from a smaller to a larger sub-query.
#[derive(Debug, Clone, Copy)]
pub struct CegEdge {
    pub from: u32,
    pub to: u32,
    /// Extension rate (a multiplier, ≥ 0).
    pub rate: f64,
    /// Caller-defined payload index (e.g. which extension pattern built
    /// this edge); opaque to the aggregation machinery.
    pub tag: u32,
}

/// Which set of bottom-to-top paths an estimator considers (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathLen {
    /// Only paths with the maximum number of hops.
    MaxHop,
    /// Only paths with the minimum number of hops.
    MinHop,
    /// Every bottom-to-top path.
    AllHops,
}

impl PathLen {
    /// How a candidate reaching a node in `cand` hops ranks against the
    /// `cur` hops of the paths the node already holds: `Greater` replaces
    /// them, `Equal` joins them, `Less` is not considered.
    fn rank(self, cand: usize, cur: usize) -> Ordering {
        match self {
            PathLen::MaxHop => cand.cmp(&cur),
            PathLen::MinHop => cur.cmp(&cand),
            PathLen::AllHops => Ordering::Equal,
        }
    }
}

/// How the considered paths' estimates are combined (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggr {
    /// Largest estimate (the "pessimistic optimist").
    Max,
    /// Smallest estimate.
    Min,
    /// Average of all considered paths' estimates.
    Avg,
}

/// A (path-length, aggregator) pair — one of the paper's nine optimistic
/// estimators, e.g. `max-hop-max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Heuristic {
    pub path_len: PathLen,
    pub aggr: Aggr,
}

impl Heuristic {
    /// The paper's recommended default: `max-hop-max` (Section 6.2), the
    /// one heuristic the estimation service answers with.
    pub const RECOMMENDED: Heuristic = Heuristic::new(PathLen::MaxHop, Aggr::Max);

    pub const fn new(path_len: PathLen, aggr: Aggr) -> Self {
        Heuristic { path_len, aggr }
    }

    /// All nine estimators, in the order the paper's figures plot them.
    pub fn all() -> [Heuristic; 9] {
        use Aggr::*;
        use PathLen::*;
        [
            Heuristic::new(MaxHop, Min),
            Heuristic::new(MinHop, Min),
            Heuristic::new(AllHops, Min),
            Heuristic::new(MaxHop, Avg),
            Heuristic::new(MinHop, Avg),
            Heuristic::new(AllHops, Avg),
            Heuristic::new(MaxHop, Max),
            Heuristic::new(MinHop, Max),
            Heuristic::new(AllHops, Max),
        ]
    }

    /// Display name, e.g. `max-hop-max` (matches the paper's labels).
    pub fn name(&self) -> String {
        let p = match self.path_len {
            PathLen::MaxHop => "max-hop",
            PathLen::MinHop => "min-hop",
            PathLen::AllHops => "all-hops",
        };
        let a = match self.aggr {
            Aggr::Max => "max",
            Aggr::Min => "min",
            Aggr::Avg => "avg",
        };
        format!("{p}-{a}")
    }
}

/// A finalized CEG DAG.
#[derive(Debug, Clone)]
pub struct Ceg {
    num_nodes: usize,
    bottom: u32,
    top: u32,
    edges: Vec<CegEdge>,
    /// Outgoing adjacency, flat: node `v`'s outgoing edge indices are
    /// `out_edges[out_start[v]..out_start[v + 1]]`, ascending.
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    /// Topological order (bottom first).
    topo: Vec<u32>,
}

impl Ceg {
    /// Build a CEG from raw edges. Panics if the edge set is cyclic.
    pub fn new(num_nodes: usize, bottom: u32, top: u32, edges: Vec<CegEdge>) -> Self {
        // Counting sort of the edge indices by source node.
        let mut out_start = vec![0u32; num_nodes + 1];
        let mut indeg = vec![0u32; num_nodes];
        for e in &edges {
            assert!((e.from as usize) < num_nodes && (e.to as usize) < num_nodes);
            assert!(e.rate >= 0.0, "extension rates must be non-negative");
            out_start[e.from as usize + 1] += 1;
            indeg[e.to as usize] += 1;
        }
        for v in 0..num_nodes {
            out_start[v + 1] += out_start[v];
        }
        let mut out_edges = vec![0u32; edges.len()];
        let mut next = out_start.clone();
        for (i, e) in edges.iter().enumerate() {
            out_edges[next[e.from as usize] as usize] = i as u32;
            next[e.from as usize] += 1;
        }
        // Kahn topological sort.
        let mut stack: Vec<u32> = (0..num_nodes as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut topo = Vec::with_capacity(num_nodes);
        while let Some(v) = stack.pop() {
            topo.push(v);
            let (lo, hi) = (out_start[v as usize], out_start[v as usize + 1]);
            for &ei in &out_edges[lo as usize..hi as usize] {
                let to = edges[ei as usize].to as usize;
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    stack.push(to as u32);
                }
            }
        }
        assert_eq!(topo.len(), num_nodes, "CEG must be acyclic");
        Ceg {
            num_nodes,
            bottom,
            top,
            edges,
            out_start,
            out_edges,
            topo,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn bottom(&self) -> u32 {
        self.bottom
    }

    pub fn top(&self) -> u32 {
        self.top
    }

    pub fn edges(&self) -> &[CegEdge] {
        &self.edges
    }

    /// Indices of the edges leaving `node`.
    pub fn outgoing_edges(&self, node: u32) -> &[u32] {
        let (lo, hi) = (
            self.out_start[node as usize],
            self.out_start[node as usize + 1],
        );
        &self.out_edges[lo as usize..hi as usize]
    }

    /// Hop count (number of edges) of the longest bottom-to-top path;
    /// `None` when the top is unreachable.
    pub fn max_hops(&self) -> Option<usize> {
        self.hop_count(PathLen::MaxHop)
    }

    /// Hop count of the shortest bottom-to-top path.
    pub fn min_hops(&self) -> Option<usize> {
        self.hop_count(PathLen::MinHop)
    }

    fn hop_count(&self, path_len: PathLen) -> Option<usize> {
        self.fold(path_len, (), |_, _, _| (), |_, _| ())[self.top as usize].map(|(hops, _)| hops)
    }

    /// The one pass behind every heuristic, hop count and best path.
    ///
    /// A node holds `Some((hops, aggregate))` once a kept path reaches it;
    /// the bottom starts at `(0, init)`. In topological order, each edge
    /// out of a reached node offers its head `(hops + 1, extend(aggregate,
    /// edge index, edge))`, which replaces the head's slot (aggregate and
    /// all) when `path_len` prefers its hop count, is merged into it on a
    /// tie (always, under `AllHops`) and is dropped otherwise. `merge` gets
    /// `None` for an empty or replaced slot, so an aggregate's first
    /// contribution is spelled beside the later ones.
    pub fn fold<A: Copy>(
        &self,
        path_len: PathLen,
        init: A,
        extend: impl Fn(A, u32, &CegEdge) -> A,
        merge: impl Fn(Option<A>, A) -> A,
    ) -> Vec<Option<(usize, A)>> {
        let mut slots = vec![None; self.num_nodes];
        slots[self.bottom as usize] = Some((0, init));
        for &v in &self.topo {
            let Some((hops, acc)) = slots[v as usize] else {
                continue;
            };
            for &ei in self.outgoing_edges(v) {
                let e = &self.edges[ei as usize];
                let cand = extend(acc, ei, e);
                relax(&mut slots[e.to as usize], path_len, hops + 1, cand, &merge);
            }
        }
        slots
    }

    /// Estimate under one of the nine heuristics; `None` if the top node is
    /// unreachable from the bottom (no complete formula exists).
    pub fn estimate(&self, h: Heuristic) -> Option<f64> {
        let top = self.top as usize;
        match h.aggr {
            Aggr::Max | Aggr::Min => {
                let best = extremum(h.aggr == Aggr::Max, |x| x);
                self.fold(h.path_len, 1.0, |x, _, e| x * e.rate, best)[top].map(|(_, x)| x)
            }
            Aggr::Avg => {
                // Sum of the kept paths' products beside their count.
                let add = |cur: Option<(f64, f64)>, (sum, cnt)| {
                    let (s, c) = cur.unwrap_or((0.0, 0.0));
                    (s + sum, c + cnt)
                };
                self.fold(h.path_len, (1.0, 1.0), |(s, c), _, e| (s * e.rate, c), add)[top]
                    .map(|(_, (sum, cnt))| sum / cnt)
            }
        }
    }

    /// The concrete best (max or min) path under a hop restriction,
    /// returned as edge indices bottom → top. Used by the bound-sketch
    /// optimization, which needs the path itself. `None` if unreachable.
    ///
    /// Its rate product equals `estimate` under the same hop class and
    /// `max` / `min`. Among equal-valued paths under [`PathLen::AllHops`]
    /// it is the first found in topological order, which need not be the
    /// one with the fewest hops.
    pub fn best_path(&self, path_len: PathLen, maximize: bool) -> Option<Vec<u32>> {
        self.best_valued_path(path_len, maximize).map(|(_, p)| p)
    }

    /// [`Self::best_path`] beside the path's estimate.
    pub fn best_valued_path(&self, path_len: PathLen, maximize: bool) -> Option<(f64, Vec<u32>)> {
        // The aggregate carries the edge its value arrived over.
        let slots = self.fold(
            path_len,
            (1.0, None),
            |(x, _), ei, e| (x * e.rate, Some(ei)),
            extremum(maximize, |(x, _)| x),
        );
        let (_, (value, _)) = slots[self.top as usize]?;
        let mut path = Vec::new();
        let mut node = self.top;
        while let Some((_, (_, Some(ei)))) = slots[node as usize] {
            path.push(ei);
            node = self.edges[ei as usize].from;
        }
        debug_assert_eq!(node, self.bottom);
        path.reverse();
        Some((value, path))
    }

    /// Distinct path estimates (deduplicated per node, capped at
    /// `cap` values per node) — the estimate set the P* oracle chooses
    /// from. Cheap in practice: most CEGs produce a handful of distinct
    /// estimates even when the path count is astronomical.
    pub fn path_estimates(&self, cap: usize) -> Vec<f64> {
        let mut sets: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); self.num_nodes];
        sets[self.bottom as usize].insert(1.0f64.to_bits());
        for &v in &self.topo {
            if sets[v as usize].is_empty() {
                continue;
            }
            let vals: Vec<f64> = sets[v as usize]
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect();
            for &ei in self.outgoing_edges(v) {
                let e = self.edges[ei as usize];
                let to = e.to as usize;
                for &x in &vals {
                    if sets[to].len() >= cap {
                        break;
                    }
                    // round to ~10 significant digits to merge float dust
                    let y = x * e.rate;
                    let key = round_sig(y).to_bits();
                    sets[to].insert(key);
                }
            }
        }
        let mut out: Vec<f64> = sets[self.top as usize]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }
}

/// The rule behind [`Ceg::fold`]: offer `slot` a path reaching it in
/// `hops` hops with aggregate `cand`. The path replaces the slot
/// (aggregate and all) when `path_len` prefers its hop count, is merged
/// into it on a tie (always, under `AllHops`) and is dropped otherwise.
#[inline]
pub(crate) fn relax<A: Copy>(
    slot: &mut Option<(usize, A)>,
    path_len: PathLen,
    hops: usize,
    cand: A,
    merge: impl Fn(Option<A>, A) -> A,
) {
    let kept = match *slot {
        None => None,
        Some((h, cur)) => match path_len.rank(hops, h) {
            Ordering::Greater => None,
            Ordering::Equal => Some(cur),
            Ordering::Less => return,
        },
    };
    *slot = Some((hops, merge(kept, cand)));
}

/// `max` / `min` as a merge rule: the candidate wins when its `key` is
/// strictly larger (smaller), so the slot survives a tie. A NaN `key`
/// absorbs from either side, so the merge commutes and a fold's answer
/// does not depend on which topological order it visits.
pub fn extremum<A: Copy>(maximize: bool, key: impl Fn(A) -> f64) -> impl Fn(Option<A>, A) -> A {
    let wins = if maximize {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    move |cur, cand| match cur {
        Some(cur) if !key(cand).is_nan() && key(cand).partial_cmp(&key(cur)) != Some(wins) => cur,
        _ => cand,
    }
}

fn round_sig(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let mag = x.abs().log10().floor();
    let scale = 10f64.powf(9.0 - mag);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond CEG: 0 = bottom, 3 = top, two 2-hop routes and one direct
    /// 1-hop edge.
    ///      0 → 1 → 3   rates 2, 3   (product 6)
    ///      0 → 2 → 3   rates 5, 7   (product 35)
    ///      0 → 3       rate 10      (product 10)
    fn diamond() -> Ceg {
        let e = |from, to, rate| CegEdge {
            from,
            to,
            rate,
            tag: 0,
        };
        Ceg::new(
            4,
            0,
            3,
            vec![
                e(0, 1, 2.0),
                e(1, 3, 3.0),
                e(0, 2, 5.0),
                e(2, 3, 7.0),
                e(0, 3, 10.0),
            ],
        )
    }

    #[test]
    fn hop_counts() {
        let c = diamond();
        assert_eq!(c.max_hops(), Some(2));
        assert_eq!(c.min_hops(), Some(1));
    }

    #[test]
    fn all_hops_aggregators() {
        let c = diamond();
        let est = |a| c.estimate(Heuristic::new(PathLen::AllHops, a)).unwrap();
        assert_eq!(est(Aggr::Max), 35.0);
        assert_eq!(est(Aggr::Min), 6.0);
        assert!((est(Aggr::Avg) - (6.0 + 35.0 + 10.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hop_restricted_aggregators() {
        let c = diamond();
        let est = |p, a| c.estimate(Heuristic::new(p, a)).unwrap();
        assert_eq!(est(PathLen::MaxHop, Aggr::Max), 35.0);
        assert_eq!(est(PathLen::MaxHop, Aggr::Min), 6.0);
        assert_eq!(est(PathLen::MinHop, Aggr::Max), 10.0);
        assert_eq!(est(PathLen::MinHop, Aggr::Min), 10.0);
        assert!((est(PathLen::MaxHop, Aggr::Avg) - 20.5).abs() < 1e-12);
    }

    #[test]
    fn unreachable_top_gives_none() {
        let c = Ceg::new(
            3,
            0,
            2,
            vec![CegEdge {
                from: 0,
                to: 1,
                rate: 1.0,
                tag: 0,
            }],
        );
        assert_eq!(
            c.estimate(Heuristic::new(PathLen::AllHops, Aggr::Max)),
            None
        );
        assert_eq!(c.max_hops(), None);
    }

    #[test]
    fn best_path_returns_edges() {
        let c = diamond();
        let p = c.best_path(PathLen::MaxHop, true).unwrap();
        assert_eq!(p.len(), 2);
        // the max 2-hop path is 0→2→3 (edges 2 and 3)
        assert_eq!(p, vec![2, 3]);
        let pmin = c.best_path(PathLen::AllHops, false).unwrap();
        // all-hops min is 0→1→3 with estimate 6
        assert_eq!(pmin, vec![0, 1]);
    }

    #[test]
    fn path_estimates_enumerates_distinct_values() {
        let c = diamond();
        let vals = c.path_estimates(100);
        assert_eq!(vals, vec![6.0, 10.0, 35.0]);
    }

    #[test]
    fn heuristic_names() {
        assert_eq!(
            Heuristic::new(PathLen::MaxHop, Aggr::Max).name(),
            "max-hop-max"
        );
        assert_eq!(Heuristic::all().len(), 9);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_ceg_panics() {
        let e = |from, to| CegEdge {
            from,
            to,
            rate: 1.0,
            tag: 0,
        };
        Ceg::new(2, 0, 1, vec![e(0, 1), e(1, 0)]);
    }

    /// A NaN path (`inf * 0`, what a zero-count intersection under a
    /// zero-count extension gives) beside a finite one: max and min are
    /// NaN whichever reaches the top first. Listing the bottom's edges the
    /// other way round flips Kahn's order, and with it the arrival order.
    #[test]
    fn nan_absorbs_in_either_arrival_order() {
        let e = |from, to, rate| CegEdge {
            from,
            to,
            rate,
            tag: 0,
        };
        let nan_path = [e(0, 1, f64::INFINITY), e(1, 3, 0.0)];
        let finite_path = [e(0, 2, 2.0), e(2, 3, 3.0)];
        for edges in [
            [nan_path[0], finite_path[0], nan_path[1], finite_path[1]],
            [finite_path[0], nan_path[0], nan_path[1], finite_path[1]],
        ] {
            let c = Ceg::new(4, 0, 3, edges.to_vec());
            for aggr in [Aggr::Max, Aggr::Min] {
                let est = c.estimate(Heuristic::new(PathLen::AllHops, aggr));
                assert!(est.is_some_and(f64::is_nan), "{aggr:?}: {est:?}");
            }
        }
        for maximize in [true, false] {
            let merge = extremum(maximize, |x: f64| x);
            assert!(merge(Some(f64::NAN), 1.0).is_nan());
            assert!(merge(Some(1.0), f64::NAN).is_nan());
        }
    }

    #[test]
    fn zero_rate_paths() {
        let e = |from, to, rate| CegEdge {
            from,
            to,
            rate,
            tag: 0,
        };
        let c = Ceg::new(3, 0, 2, vec![e(0, 1, 0.0), e(1, 2, 5.0)]);
        assert_eq!(
            c.estimate(Heuristic::new(PathLen::AllHops, Aggr::Max)),
            Some(0.0)
        );
    }
}
