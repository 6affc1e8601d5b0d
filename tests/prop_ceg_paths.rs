//! Differential test of `Ceg`'s one forward pass against the definition.
//!
//! `Ceg::{max_hops, min_hops, estimate, best_path}` keep one
//! `(hops, aggregate)` slot per node. The reference here keeps nothing:
//! it enumerates every bottom-to-top path of a small random DAG and
//! applies Section 4.2 literally — filter by hop class, then max / min /
//! average the paths' rate products.
//!
//! Rates come from `{0, 0.5, 1, 2, 3, 7}`, so every product of at most
//! nine of them is exact in `f64` and `max` / `min` must agree to the
//! bit; zero rates, parallel edges (ties) and unreachable tops are all
//! drawn.

use cegraph::core::{Aggr, Ceg, CegEdge, Heuristic, PathLen};
use proptest::prelude::*;

const RATES: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 3.0, 7.0];
const MAX_NODES: usize = 10;

/// A DAG on `n` nodes whose ids are a random relabeling of a topological
/// order (so `Ceg`'s Kahn order is not the identity); bottom and top are
/// the first and last node of that order.
fn arb_ceg() -> impl Strategy<Value = Ceg> {
    (
        2usize..=MAX_NODES,
        prop::collection::vec(0u32..1000, MAX_NODES),
        prop::collection::vec(
            (0usize..MAX_NODES, 0usize..MAX_NODES, 0usize..RATES.len()),
            0..30,
        ),
    )
        .prop_map(|(n, keys, raw)| {
            let mut label: Vec<u32> = (0..n as u32).collect();
            label.sort_by_key(|&v| keys[v as usize]);
            let edges = raw
                .into_iter()
                .map(|(a, b, r)| (a % n, b % n, r))
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, r)| CegEdge {
                    from: label[a.min(b)],
                    to: label[a.max(b)],
                    rate: RATES[r],
                    tag: 0,
                })
                .collect();
            Ceg::new(n, label[0], label[n - 1], edges)
        })
}

/// Rate product of an edge chain, multiplied bottom → top from 1.
fn product(ceg: &Ceg, path: &[u32]) -> f64 {
    path.iter()
        .fold(1.0, |x, &ei| x * ceg.edges()[ei as usize].rate)
}

/// Every bottom-to-top path, as edge indices.
fn all_paths(ceg: &Ceg) -> Vec<Vec<u32>> {
    fn walk(ceg: &Ceg, node: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if node == ceg.top() {
            out.push(prefix.clone());
        }
        for &ei in ceg.outgoing_edges(node) {
            prefix.push(ei);
            walk(ceg, ceg.edges()[ei as usize].to, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(ceg, ceg.bottom(), &mut Vec::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_matches_path_enumeration(ceg in arb_ceg()) {
        let paths = all_paths(&ceg);
        let max_hops = paths.iter().map(Vec::len).max();
        let min_hops = paths.iter().map(Vec::len).min();
        prop_assert_eq!(ceg.max_hops(), max_hops);
        prop_assert_eq!(ceg.min_hops(), min_hops);

        for path_len in [PathLen::MaxHop, PathLen::MinHop, PathLen::AllHops] {
            let in_class = |p: &Vec<u32>| match path_len {
                PathLen::MaxHop => Some(p.len()) == max_hops,
                PathLen::MinHop => Some(p.len()) == min_hops,
                PathLen::AllHops => true,
            };
            let values: Vec<f64> = paths.iter().filter(|p| in_class(p)).map(|p| product(&ceg, p)).collect();
            let est = |aggr| ceg.estimate(Heuristic::new(path_len, aggr));
            if values.is_empty() {
                for aggr in [Aggr::Max, Aggr::Min, Aggr::Avg] {
                    prop_assert_eq!(est(aggr), None);
                }
                prop_assert_eq!(ceg.best_path(path_len, true), None);
                prop_assert_eq!(ceg.best_path(path_len, false), None);
                continue;
            }
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let avg = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert_eq!(est(Aggr::Max), Some(max), "{:?} max", path_len);
            prop_assert_eq!(est(Aggr::Min), Some(min), "{:?} min", path_len);
            let got = est(Aggr::Avg).unwrap();
            prop_assert!((got - avg).abs() <= 1e-12 * avg.abs(), "{path_len:?} avg {got} vs {avg}");

            for (maximize, want) in [(true, max), (false, min)] {
                let path = ceg.best_path(path_len, maximize).unwrap();
                // A bottom-to-top edge chain ...
                let mut at = ceg.bottom();
                for &ei in &path {
                    let e = ceg.edges()[ei as usize];
                    prop_assert_eq!(e.from, at, "{:?} {} broken chain {:?}", path_len, maximize, path);
                    at = e.to;
                }
                prop_assert_eq!(at, ceg.top());
                // ... of the right hop class, whose product is the estimate.
                prop_assert!(in_class(&path), "{path_len:?} {maximize} path of {} hops", path.len());
                prop_assert_eq!(product(&ceg, &path), want, "{:?} {}", path_len, maximize);
            }
        }
    }
}
