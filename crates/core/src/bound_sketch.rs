//! The bound-sketch optimization (Sections 5.2.1–5.2.2).
//!
//! Given a partitioning budget `K` and a chosen CEG path, the join
//! attributes `S` that were *not* introduced through bound (conditioned)
//! edges get hash-partitioned into `K^{1/|S|}` buckets each; the query
//! splits into `K` sub-queries, one per bucket combination, and the final
//! estimate is the sum of the per-partition estimates. Partitioning
//! shrinks maximum degrees (pessimistic case) and makes uniformity
//! assumptions more local (optimistic case), so the summed estimate is
//! never looser than the direct one.
//!
//! Applied here to **both** families, as the paper proposes:
//! * [`molp_sketch_bound`] — MOLP with per-partition degree statistics,
//! * [`optimistic_sketch_estimate`] — any CEG_O path heuristic with
//!   per-partition Markov statistics (computed on demand; the paper
//!   pre-stores them in the Markov table, Section 5.2.2 — same values).

use ceg_catalog::MarkovTable;
use ceg_exec::{count_budgeted, CountBudget, VarConstraint, VarConstraints};
use ceg_graph::hash::bucket_of;
use ceg_graph::{FxHashMap, LabeledGraph};
use ceg_query::{EdgeMask, QueryGraph, VarId};

use crate::ceg::PathLen;
use crate::ceg_m::{molp_bound, molp_min_path, AttrMask, BaseDeg, MolpInstance};
use crate::ceg_o::CegO;

/// Mask of join variables (variables incident to ≥ 2 query edges).
fn join_vars_mask(query: &QueryGraph) -> AttrMask {
    query
        .join_vars()
        .into_iter()
        .fold(0, |m, v| m | (1u32 << v))
}

/// Per-attribute bucket count for a budget `K` over `|S|` partition
/// attributes: `⌊K^{1/|S|}⌋` (Step 1 of Section 5.2.1).
fn buckets_per_attr(k: u32, num_attrs: u32) -> u32 {
    if num_attrs == 0 {
        return 1;
    }
    let b = (k as f64).powf(1.0 / num_attrs as f64).floor() as u32;
    b.max(1)
}

/// Partition attributes of a MOLP minimum path: join attributes whose
/// first introduction was through an *unbound* edge (`X = ∅`).
pub fn molp_partition_attrs(query: &QueryGraph, steps: &[crate::ceg_m::MolpStep]) -> AttrMask {
    let mut w: AttrMask = 0;
    let mut bound_new: AttrMask = 0;
    for s in steps {
        let new = s.y & !w;
        if s.x != 0 {
            bound_new |= new;
        }
        w |= s.y;
    }
    join_vars_mask(query) & !bound_new
}

/// MOLP with a bound sketch of budget `k` (`k = 1` is the plain bound).
pub fn molp_sketch_bound(graph: &LabeledGraph, query: &QueryGraph, k: u32) -> f64 {
    let inst = MolpInstance::from_graph(graph, query);
    let Some((direct, steps)) = molp_min_path(&inst) else {
        return f64::INFINITY;
    };
    if k <= 1 || steps.is_empty() {
        return direct;
    }
    let s_mask = molp_partition_attrs(query, &steps);
    let s_vars: Vec<VarId> = (0..query.num_vars())
        .filter(|&v| s_mask & (1 << v) != 0)
        .collect();
    if s_vars.is_empty() {
        return direct;
    }
    let b = buckets_per_attr(k, s_vars.len() as u32);
    if b <= 1 {
        return direct;
    }

    // Pre-partition each relation occurrence once (Step 2): per query
    // edge, statistics grouped by the bucket pair of its endpoints
    // (collapsed to one bucket for non-partition attributes).
    let partitions: Vec<EdgePartition> = query
        .edges()
        .iter()
        .map(|e| {
            EdgePartition::build(
                graph,
                e.label,
                s_mask & (1 << e.src) != 0,
                s_mask & (1 << e.dst) != 0,
                b,
            )
        })
        .collect();

    // Step 3: sum the per-combination bounds.
    let mut combo = vec![0u32; s_vars.len()];
    let mut total = 0.0f64;
    loop {
        let bucket_of_var = |v: VarId| -> u32 {
            s_vars
                .iter()
                .position(|&sv| sv == v)
                .map_or(0, |i| combo[i])
        };
        let base: Vec<BaseDeg> = query
            .edges()
            .iter()
            .zip(&partitions)
            .map(|(e, p)| p.get(bucket_of_var(e.src), bucket_of_var(e.dst)))
            .collect();
        let part_inst = inst.clone().with_base(base);
        let bound = molp_bound(&part_inst);
        if bound.is_finite() {
            total += bound;
        }
        // next combination
        let mut i = 0;
        loop {
            if i == combo.len() {
                return total.min(direct);
            }
            combo[i] += 1;
            if combo[i] < b {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

/// Partition attributes of a CEG_O path: join attributes of the first
/// (unbound) hop's pattern; later hops are conditioned (bound), so the
/// attributes they introduce are excluded (Section 5.2.2).
pub fn optimistic_partition_attrs(query: &QueryGraph, ceg: &CegO, path: &[u32]) -> AttrMask {
    let Some(&first) = path.first() else { return 0 };
    let info = ceg.ext_info(ceg.ceg().edges()[first as usize].tag);
    join_vars_mask(query) & query.vars_of(info.ext)
}

/// Optimistic estimate with a bound sketch: pick the best path of the
/// given hop class (`maximize` selects max- vs min-aggregation), then sum
/// the per-partition evaluations of that path's formula. `k = 1` falls
/// back to the plain path estimate.
pub fn optimistic_sketch_estimate(
    graph: &LabeledGraph,
    query: &QueryGraph,
    table: &MarkovTable,
    path_len: PathLen,
    maximize: bool,
    k: u32,
) -> Option<f64> {
    let ceg = CegO::build(query, table);
    let (direct, path) = ceg.ceg().best_valued_path(path_len, maximize)?;
    if k <= 1 {
        return Some(direct);
    }
    let s_mask = optimistic_partition_attrs(query, &ceg, &path);
    let s_vars: Vec<VarId> = (0..query.num_vars())
        .filter(|&v| s_mask & (1 << v) != 0)
        .collect();
    if s_vars.is_empty() {
        return Some(direct);
    }
    let b = buckets_per_attr(k, s_vars.len() as u32);
    if b <= 1 {
        return Some(direct);
    }

    // cache of constrained pattern counts keyed by (mask, bucket signature)
    let mut cache: FxHashMap<(u32, u64), u64> = FxHashMap::default();
    let mut counted = |mask: EdgeMask, combo: &[u32]| -> u64 {
        if mask.is_empty() {
            return 1;
        }
        // signature: buckets of the S-vars used by this pattern
        let vars = query.vars_of(mask);
        let mut sig = 0u64;
        for (i, &v) in s_vars.iter().enumerate() {
            if vars & (1 << v) != 0 {
                sig = (sig << 8) | (combo[i] as u64 + 1);
            } else {
                sig <<= 8;
            }
        }
        *cache.entry((mask.bits(), sig)).or_insert_with(|| {
            let (sub, varmap) = query.subquery(mask);
            let mut cons = VarConstraints::none(sub.num_vars());
            for (new_v, &orig_v) in varmap.iter().enumerate() {
                if let Some(i) = s_vars.iter().position(|&sv| sv == orig_v) {
                    cons.set(
                        new_v as VarId,
                        VarConstraint::HashBucket {
                            buckets: b,
                            bucket: combo[i],
                        },
                    );
                }
            }
            count_budgeted(graph, &sub, &cons, CountBudget::UNLIMITED)
                .0
                .expect("unlimited budget cannot be exhausted")
        })
    };

    let mut combo = vec![0u32; s_vars.len()];
    let mut total = 0.0f64;
    loop {
        let mut term = 1.0f64;
        for &ei in &path {
            let e = ceg.ceg().edges()[ei as usize];
            let info = *ceg.ext_info(e.tag);
            let ce = counted(info.ext, &combo);
            if ce == 0 {
                term = 0.0;
                break;
            }
            let ci = counted(info.inter, &combo);
            if ci == 0 {
                term = 0.0;
                break;
            }
            term *= ce as f64 / ci as f64;
        }
        total += term;
        let mut i = 0;
        loop {
            if i == combo.len() {
                return Some(total);
            }
            combo[i] += 1;
            if combo[i] < b {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

/// Per-edge statistics grouped by endpoint bucket pair. Unpartitioned
/// dimensions collapse to a single bucket (`sb`/`db` = 1).
struct EdgePartition {
    sb: u32,
    db: u32,
    stats: FxHashMap<(u32, u32), BaseDeg>,
}

impl EdgePartition {
    fn build(graph: &LabeledGraph, label: u16, part_src: bool, part_dst: bool, b: u32) -> Self {
        let sb = if part_src { b } else { 1 };
        let db = if part_dst { b } else { 1 };
        let bs_of = |v: u32| if part_src { bucket_of(v, b) } else { 0 };
        let bd_of = |v: u32| if part_dst { bucket_of(v, b) } else { 0 };
        let mut card: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        let mut out_cnt: FxHashMap<(u32, u32), u64> = FxHashMap::default(); // (src, bd)
        let mut in_cnt: FxHashMap<(u32, u32), u64> = FxHashMap::default(); // (dst, bs)
        for (s, d) in graph.edges(label) {
            let (bs, bd) = (bs_of(s), bd_of(d));
            *card.entry((bs, bd)).or_insert(0) += 1;
            *out_cnt.entry((s, bd)).or_insert(0) += 1;
            *in_cnt.entry((d, bs)).or_insert(0) += 1;
        }
        let mut stats: FxHashMap<(u32, u32), BaseDeg> = FxHashMap::default();
        for (&(bs, bd), &c) in &card {
            stats.insert(
                (bs, bd),
                BaseDeg {
                    card: c,
                    ..Default::default()
                },
            );
        }
        for (&(s, bd), &c) in &out_cnt {
            let key = (bs_of(s), bd);
            if let Some(st) = stats.get_mut(&key) {
                st.max_out = st.max_out.max(c);
                st.proj_src += 1;
            }
        }
        for (&(d, bs), &c) in &in_cnt {
            let key = (bs, bd_of(d));
            if let Some(st) = stats.get_mut(&key) {
                st.max_in = st.max_in.max(c);
                st.proj_dst += 1;
            }
        }
        EdgePartition { sb, db, stats }
    }

    fn get(&self, bs: u32, bd: u32) -> BaseDeg {
        // collapse unpartitioned dimensions to bucket 0
        let key = (bs % self.sb, bd % self.db);
        self.stats.get(&key).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg::{Aggr, Heuristic};
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_graph() -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new(200);
        // skewed out-degrees: label 0 then label 1 chains
        for _ in 0..400 {
            let s = rng.random_range(0..50u32);
            let d = rng.random_range(50..150u32);
            b.add_edge(s, d, 0);
        }
        for _ in 0..400 {
            let s = rng.random_range(50..150u32);
            let d = rng.random_range(150..200u32);
            b.add_edge(s, d, 1);
        }
        b.build()
    }

    fn two_path() -> QueryGraph {
        ceg_query::templates::path(2, &[0, 1])
    }

    #[test]
    fn molp_sketch_is_still_an_upper_bound() {
        let g = skewed_graph();
        let q = two_path();
        let truth = count(&g, &q) as f64;
        for k in [1, 4, 16, 64] {
            let bound = molp_sketch_bound(&g, &q, k);
            assert!(
                bound >= truth - 1e-6,
                "k={k}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn molp_sketch_tightens_with_budget() {
        let g = skewed_graph();
        let q = two_path();
        let b1 = molp_sketch_bound(&g, &q, 1);
        let b64 = molp_sketch_bound(&g, &q, 64);
        assert!(b64 <= b1 + 1e-9, "k=64 bound {b64} looser than k=1 {b1}");
    }

    #[test]
    fn optimistic_sketch_partitions_sum_to_consistent_estimate() {
        let g = skewed_graph();
        let q = two_path();
        let table = MarkovTable::build_for_query(&g, &q, 2);
        let e1 = optimistic_sketch_estimate(&g, &q, &table, PathLen::MaxHop, true, 1).unwrap();
        let e16 = optimistic_sketch_estimate(&g, &q, &table, PathLen::MaxHop, true, 16).unwrap();
        assert!(e1 > 0.0 && e16 > 0.0);
        // both should be in the same ballpark as the truth (within 10x)
        let truth = count(&g, &q) as f64;
        for (name, e) in [("k1", e1), ("k16", e16)] {
            let q_err = (e / truth).max(truth / e);
            assert!(q_err < 10.0, "{name} estimate {e} too far from {truth}");
        }
    }

    #[test]
    fn sketch_with_k1_matches_plain_heuristic() {
        let g = skewed_graph();
        let q = two_path();
        let table = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &table);
        let plain = ceg
            .ceg()
            .estimate(Heuristic::new(PathLen::MaxHop, Aggr::Max))
            .unwrap();
        let sketch = optimistic_sketch_estimate(&g, &q, &table, PathLen::MaxHop, true, 1).unwrap();
        assert!((plain - sketch).abs() < 1e-9);
    }

    #[test]
    fn edge_partition_totals_match_relation() {
        let g = skewed_graph();
        let p = EdgePartition::build(&g, 0, true, true, 4);
        let total: u64 = p.stats.values().map(|s| s.card).sum();
        assert_eq!(total, g.label_count(0) as u64);
    }

    #[test]
    fn buckets_per_attr_math() {
        assert_eq!(buckets_per_attr(128, 1), 128);
        assert_eq!(buckets_per_attr(128, 2), 11);
        assert_eq!(buckets_per_attr(4, 2), 2);
        assert_eq!(buckets_per_attr(1, 2), 1);
        assert_eq!(buckets_per_attr(16, 0), 1);
    }
}
