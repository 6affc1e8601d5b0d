//! SumRDF-style summary graph (Stefanoni et al.), the summary baseline of
//! Section 6.4.
//!
//! Vertices are collapsed into buckets; the summary records, per label,
//! how many edges run between each bucket pair. The estimate is the
//! *expected* number of query matches over the possible worlds that share
//! the summary — a uniformity assumption inside buckets: an edge between
//! buckets `(s, d)` with multiplicity `m` is present between a concrete
//! vertex pair with probability `m / (n_s · n_d)`.
//!
//! Like the paper's SumRDF runs, estimation carries a work budget and
//! *times out* (`None`) when the bucket-assignment enumeration exceeds it.

use ceg_graph::hash::bucket_of;
use ceg_graph::{FxHashMap, LabelId, LabeledGraph};
use ceg_query::{QueryGraph, VarId};

/// Bucketed summary of a labeled graph.
#[derive(Debug, Clone)]
pub struct SummaryGraph {
    num_buckets: u32,
    /// Vertices per bucket.
    sizes: Vec<u64>,
    /// `(label, src bucket) → [(dst bucket, multiplicity)]`, sorted.
    adj: FxHashMap<(LabelId, u32), Vec<(u32, u64)>>,
    /// `(label, dst bucket) → [(src bucket, multiplicity)]`, sorted.
    radj: FxHashMap<(LabelId, u32), Vec<(u32, u64)>>,
}

impl SummaryGraph {
    /// Build a summary with `num_buckets` hash buckets.
    pub fn build(graph: &LabeledGraph, num_buckets: u32) -> Self {
        assert!(num_buckets > 0);
        let mut sizes = vec![0u64; num_buckets as usize];
        for v in 0..graph.num_vertices() as u32 {
            sizes[bucket_of(v, num_buckets) as usize] += 1;
        }
        let mut counts: FxHashMap<(LabelId, u32, u32), u64> = FxHashMap::default();
        for e in graph.all_edges() {
            let bs = bucket_of(e.src, num_buckets);
            let bd = bucket_of(e.dst, num_buckets);
            *counts.entry((e.label, bs, bd)).or_insert(0) += 1;
        }
        let mut adj: FxHashMap<(LabelId, u32), Vec<(u32, u64)>> = FxHashMap::default();
        let mut radj: FxHashMap<(LabelId, u32), Vec<(u32, u64)>> = FxHashMap::default();
        for (&(l, bs, bd), &m) in &counts {
            adj.entry((l, bs)).or_default().push((bd, m));
            radj.entry((l, bd)).or_default().push((bs, m));
        }
        for v in adj.values_mut().chain(radj.values_mut()) {
            v.sort_unstable();
        }
        SummaryGraph {
            num_buckets,
            sizes,
            adj,
            radj,
        }
    }

    /// Expected number of matches of `query`, or `None` on budget
    /// exhaustion (modelling SumRDF's timeouts).
    pub fn estimate(&self, query: &QueryGraph, budget: u64) -> Option<f64> {
        if query.num_vars() == 0 {
            return Some(1.0);
        }
        // Bind variables in a connectivity-first order.
        let order = connectivity_order(query);
        let mut assignment = vec![0u32; query.num_vars() as usize];
        let mut state = Walker {
            summary: self,
            query,
            order: &order,
            assignment: &mut assignment,
            bound: 0,
            budget,
            total: 0.0,
        };
        state.recurse(0, 1.0).then_some(state.total)
    }

    fn multiplicity(&self, l: LabelId, bs: u32, bd: u32) -> u64 {
        self.adj
            .get(&(l, bs))
            .and_then(|v| {
                v.binary_search_by_key(&bd, |&(b, _)| b)
                    .ok()
                    .map(|i| v[i].1)
            })
            .unwrap_or(0)
    }
}

fn connectivity_order(query: &QueryGraph) -> Vec<VarId> {
    let n = query.num_vars();
    let mut order = Vec::with_capacity(n as usize);
    let mut bound = 0u32;
    while order.len() < n as usize {
        let mut best: Option<(usize, VarId)> = None;
        for v in 0..n {
            if bound & (1 << v) != 0 {
                continue;
            }
            let conn = query
                .edges_at(v)
                .filter(|&i| {
                    let e = query.edge(i);
                    bound & (1 << e.other(v)) != 0
                })
                .count();
            if best.is_none_or(|(c, _)| conn > c) {
                best = Some((conn, v));
            }
        }
        let (_, v) = best.unwrap();
        order.push(v);
        bound |= 1 << v;
    }
    order
}

struct Walker<'a> {
    summary: &'a SummaryGraph,
    query: &'a QueryGraph,
    order: &'a [VarId],
    assignment: &'a mut [u32],
    bound: u32,
    budget: u64,
    total: f64,
}

impl Walker<'_> {
    /// Returns false when the budget is exhausted.
    fn recurse(&mut self, depth: usize, weight: f64) -> bool {
        if depth == self.order.len() {
            self.total += weight;
            return true;
        }
        let v = self.order[depth];
        // candidate buckets: restrict through one bound neighbour if any
        let mut seed: Option<Vec<u32>> = None;
        for i in self.query.edges_at(v) {
            let e = self.query.edge(i);
            if e.src == e.dst {
                continue;
            }
            let o = e.other(v);
            if self.bound & (1 << o) == 0 {
                continue;
            }
            let ob = self.assignment[o as usize];
            let list = if e.dst == v {
                self.summary.adj.get(&(e.label, ob))
            } else {
                self.summary.radj.get(&(e.label, ob))
            };
            let buckets: Vec<u32> = list
                .map(|v| v.iter().map(|&(b, _)| b).collect())
                .unwrap_or_default();
            seed = Some(buckets);
            break;
        }
        let candidates: Vec<u32> = match seed {
            Some(c) => c,
            None => (0..self.summary.num_buckets)
                .filter(|&b| self.summary.sizes[b as usize] > 0)
                .collect(),
        };
        for b in candidates {
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            let n_b = self.summary.sizes[b as usize] as f64;
            if n_b == 0.0 {
                continue;
            }
            // accumulate edge probabilities to every bound neighbour
            let mut w = weight * n_b;
            let mut ok = true;
            for i in self.query.edges_at(v) {
                let e = self.query.edge(i);
                let (sb, db) = if e.src == e.dst {
                    (b, b)
                } else {
                    let o = e.other(v);
                    if self.bound & (1 << o) == 0 {
                        continue;
                    }
                    let ob = self.assignment[o as usize];
                    if e.src == v {
                        (b, ob)
                    } else {
                        (ob, b)
                    }
                };
                let m = self.summary.multiplicity(e.label, sb, db) as f64;
                if m == 0.0 {
                    ok = false;
                    break;
                }
                let ns = self.summary.sizes[sb as usize] as f64;
                let nd = self.summary.sizes[db as usize] as f64;
                w *= m / (ns * nd);
            }
            if !ok {
                continue;
            }
            self.assignment[v as usize] = b;
            self.bound |= 1 << v;
            let cont = self.recurse(depth + 1, w);
            self.bound &= !(1 << v);
            if !cont {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn chain_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new(40);
        for i in 0..39u32 {
            b.add_edge(i, i + 1, (i % 2) as LabelId);
        }
        b.build()
    }

    #[test]
    fn single_edge_estimate_is_exact() {
        // with any bucketing, the expected count of a single-relation query
        // equals the true relation size: Σ m = |R|.
        let g = chain_graph();
        let s = SummaryGraph::build(&g, 8);
        let q = templates::path(1, &[0]);
        let est = s.estimate(&q, u64::MAX).unwrap();
        assert!((est - count(&g, &q) as f64).abs() < 1e-6);
    }

    #[test]
    fn one_bucket_degenerates_to_independence() {
        let g = chain_graph();
        let s = SummaryGraph::build(&g, 1);
        let q = templates::path(2, &[0, 1]);
        let n = g.num_vertices() as f64;
        let expect =
            n * n * n * (g.label_count(0) as f64 / (n * n)) * (g.label_count(1) as f64 / (n * n));
        let est = s.estimate(&q, u64::MAX).unwrap();
        assert!((est - expect).abs() < 1e-6, "est={est} expect={expect}");
    }

    #[test]
    fn max_buckets_is_nearly_exact() {
        // one vertex per bucket → the summary is the graph itself and the
        // expected value equals the true count.
        let g = chain_graph();
        let s = SummaryGraph::build(&g, 4096);
        let q = templates::path(2, &[0, 1]);
        let est = s.estimate(&q, u64::MAX).unwrap();
        let truth = count(&g, &q) as f64;
        assert!((est - truth).abs() < 1e-6, "est={est} truth={truth}");
    }

    #[test]
    fn budget_exhaustion_times_out() {
        let g = chain_graph();
        let s = SummaryGraph::build(&g, 64);
        let q = templates::path(3, &[0, 1, 0]);
        assert!(s.estimate(&q, 2).is_none());
    }

    #[test]
    fn summary_size_reporting() {
        let g = chain_graph();
        let s = SummaryGraph::build(&g, 8);
        assert!(s.adj.values().any(|row| !row.is_empty()));
        assert_eq!(s.num_buckets, 8);
    }
}
