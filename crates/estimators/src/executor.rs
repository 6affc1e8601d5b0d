//! Hash-join plan execution.
//!
//! Executes a [`Plan`] bottom-up with in-memory hash joins, reporting the
//! *actual* intermediate result sizes and wall time — the plan-quality
//! metrics of Section 6.6. A row budget aborts pathological plans (the
//! whole point of the experiment is that bad estimates produce them).

use std::time::{Duration, Instant};

use ceg_graph::{FxHashMap, LabeledGraph, VertexId};
use ceg_query::{QueryGraph, VarId};

use crate::optimizer::Plan;

/// Outcome of executing one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Sum of intermediate (non-root, non-leaf) result sizes.
    pub intermediate_tuples: u64,
    /// Final output size.
    pub output: u64,
    pub wall: Duration,
}

/// A materialized intermediate relation: a schema of query variables and
/// rows of bound vertices.
struct Table {
    schema: Vec<VarId>,
    rows: Vec<Vec<VertexId>>,
}

/// Execute `plan` over `graph`; `None` if any intermediate result exceeds
/// `row_budget` rows.
pub fn execute_plan(
    graph: &LabeledGraph,
    query: &QueryGraph,
    plan: &Plan,
    row_budget: usize,
) -> Option<ExecStats> {
    let t0 = Instant::now();
    let mut intermediate = 0u64;
    let root = run(graph, query, plan, row_budget, &mut intermediate)?;
    // the root's size is the output, not an intermediate
    intermediate -= root.rows.len() as u64;
    Some(ExecStats {
        intermediate_tuples: intermediate,
        output: root.rows.len() as u64,
        wall: t0.elapsed(),
    })
}

fn run(
    graph: &LabeledGraph,
    query: &QueryGraph,
    plan: &Plan,
    row_budget: usize,
    intermediate: &mut u64,
) -> Option<Table> {
    match plan {
        Plan::Scan(i) => {
            let e = query.edge(*i);
            let rows: Vec<Vec<VertexId>> = if e.src == e.dst {
                graph
                    .edges(e.label)
                    .filter(|(s, d)| s == d)
                    .map(|(s, _)| vec![s])
                    .collect()
            } else {
                graph.edges(e.label).map(|(s, d)| vec![s, d]).collect()
            };
            let schema = if e.src == e.dst {
                vec![e.src]
            } else {
                vec![e.src, e.dst]
            };
            Some(Table { schema, rows })
        }
        Plan::Join(l, r) => {
            let lt = run(graph, query, l, row_budget, intermediate)?;
            let rt = run(graph, query, r, row_budget, intermediate)?;
            let joined = hash_join(&lt, &rt, row_budget)?;
            *intermediate += joined.rows.len() as u64;
            Some(joined)
        }
    }
}

fn hash_join(l: &Table, r: &Table, row_budget: usize) -> Option<Table> {
    // shared variables and their column positions
    let shared: Vec<(usize, usize)> = l
        .schema
        .iter()
        .enumerate()
        .filter_map(|(li, v)| r.schema.iter().position(|x| x == v).map(|ri| (li, ri)))
        .collect();
    // output schema: l's columns then r's non-shared columns
    let mut schema = l.schema.clone();
    let extra_cols: Vec<usize> = (0..r.schema.len())
        .filter(|&ri| !shared.iter().any(|&(_, sri)| sri == ri))
        .collect();
    for &ri in &extra_cols {
        schema.push(r.schema[ri]);
    }

    // build on the smaller side
    let (build, probe, build_is_left) = if l.rows.len() <= r.rows.len() {
        (l, r, true)
    } else {
        (r, l, false)
    };
    let key_of = |row: &[VertexId], is_left: bool| -> Vec<VertexId> {
        shared
            .iter()
            .map(|&(li, ri)| row[if is_left { li } else { ri }])
            .collect()
    };
    let mut index: FxHashMap<Vec<VertexId>, Vec<usize>> = FxHashMap::default();
    for (i, row) in build.rows.iter().enumerate() {
        index.entry(key_of(row, build_is_left)).or_default().push(i);
    }

    let mut rows: Vec<Vec<VertexId>> = Vec::new();
    for prow in &probe.rows {
        let key = key_of(prow, !build_is_left);
        let Some(matches) = index.get(&key) else {
            continue;
        };
        for &bi in matches {
            let brow = &build.rows[bi];
            let (lrow, rrow) = if build_is_left {
                (brow, prow)
            } else {
                (prow, brow)
            };
            let mut out = lrow.clone();
            for &ri in &extra_cols {
                out.push(rrow[ri]);
            }
            rows.push(out);
            if rows.len() > row_budget {
                return None;
            }
        }
    }
    Some(Table { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, Plan};
    use crate::CardinalityEstimator;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    struct Exact<'a>(&'a LabeledGraph);
    impl CardinalityEstimator for Exact<'_> {
        fn name(&self) -> String {
            "exact".into()
        }
        fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
            Some(count(self.0, q) as f64)
        }
    }

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(20);
        for i in 0..6 {
            b.add_edge(i, 6 + i, 0);
            b.add_edge(6 + i, 12 + i % 4, 1);
            b.add_edge(12 + i % 4, 16 + i % 2, 2);
        }
        b.build()
    }

    #[test]
    fn output_matches_executor_count() {
        let g = toy();
        for q in [
            templates::path(2, &[0, 1]),
            templates::path(3, &[0, 1, 2]),
            templates::star(2, &[0, 0]),
            templates::cycle(3, &[0, 1, 2]),
        ] {
            let mut est = Exact(&g);
            let (plan, _) = optimize(&q, &mut est);
            let stats = execute_plan(&g, &q, &plan, 1 << 24).unwrap();
            assert_eq!(stats.output, count(&g, &q), "on {q}");
        }
    }

    #[test]
    fn any_plan_shape_gives_same_output() {
        // left-deep vs the optimizer's choice must agree on output size
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let left_deep = Plan::Join(
            Box::new(Plan::Join(Box::new(Plan::Scan(0)), Box::new(Plan::Scan(1)))),
            Box::new(Plan::Scan(2)),
        );
        let right_deep = Plan::Join(
            Box::new(Plan::Scan(0)),
            Box::new(Plan::Join(Box::new(Plan::Scan(1)), Box::new(Plan::Scan(2)))),
        );
        let a = execute_plan(&g, &q, &left_deep, 1 << 24).unwrap();
        let b = execute_plan(&g, &q, &right_deep, 1 << 24).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.output, count(&g, &q));
    }

    #[test]
    fn budget_aborts_huge_joins() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let (plan, _) = optimize(&q, &mut Exact(&g));
        assert_eq!(execute_plan(&g, &q, &plan, 1), None);
    }

    #[test]
    fn intermediate_counts_exclude_root() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let (plan, _) = optimize(&q, &mut Exact(&g));
        let stats = execute_plan(&g, &q, &plan, 1 << 24).unwrap();
        // a single join has no intermediates
        assert_eq!(stats.intermediate_tuples, 0);
    }

    #[test]
    fn better_estimates_give_no_worse_intermediates() {
        // exact estimates should produce the optimal C_out plan; a
        // deliberately inverted estimator can only do as bad or worse
        struct Inverted<'a>(&'a LabeledGraph);
        impl CardinalityEstimator for Inverted<'_> {
            fn name(&self) -> String {
                "inverted".into()
            }
            fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
                Some(1.0 / (1.0 + count(self.0, q) as f64))
            }
        }
        let g = toy();
        let q = templates::q5f(&[0, 1, 2, 2, 2]);
        let (good_plan, _) = optimize(&q, &mut Exact(&g));
        let (bad_plan, _) = optimize(&q, &mut Inverted(&g));
        let good = execute_plan(&g, &q, &good_plan, 1 << 24).unwrap();
        let bad = execute_plan(&g, &q, &bad_plan, 1 << 24).unwrap();
        assert!(good.intermediate_tuples <= bad.intermediate_tuples);
        assert_eq!(good.output, bad.output);
    }
}
