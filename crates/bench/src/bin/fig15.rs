//! Figure 15 — impact of estimators on plan quality (Section 6.6).
//!
//! For each query the DP optimizer (the RDF-3X stand-in, see
//! docs/ARCHITECTURE.md §D.2) is run once with the RDF-3X-style default
//! estimator and once with each of the nine optimistic estimators; every
//! chosen plan is executed
//! and its cost (actual intermediate tuples, the stable proxy for run
//! time on our scaled data; wall time is also reported) compared with the
//! default plan's. Queries where all estimators pick plans within 10% of
//! each other are filtered out, as in the paper.
//!
//! Expected shape (paper): all nine optimistic estimators beat the
//! default (median speedup > 1), and max-aggregation estimators beat
//! min/avg ones.

use ceg_bench::common;
use ceg_core::Heuristic;
use ceg_estimators::planner::{execute_plan, optimize};
use ceg_estimators::{OptimisticEstimator, Rdf3xDefaultEstimator};
use ceg_workload::qerror::QErrorSummary;
use ceg_workload::{Dataset, Workload};

fn main() {
    let combos = [
        (Dataset::Dblp, Workload::Acyclic, 3),
        (Dataset::Watdiv, Workload::Acyclic, 3),
    ];
    let row_budget = 4_000_000usize;
    println!("Figure 15: plan quality vs the RDF-3X default estimator");
    for (ds, wl, per_template) in combos {
        let (graph, queries) = common::setup(ds, wl, per_template);
        if queries.is_empty() {
            continue;
        }
        let table = common::markov_for(&graph, &queries, 2);
        let heuristics = Heuristic::all();

        // per heuristic: log10 speedups in intermediate tuples vs default
        let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); heuristics.len()];
        let mut wall_speedups: Vec<Vec<f64>> = vec![Vec::new(); heuristics.len()];
        let mut kept = 0usize;
        for wq in &queries {
            let mut default_est = Rdf3xDefaultEstimator::new(&graph);
            let (default_plan, _) = optimize(&wq.query, &mut default_est);
            let Some(base) = execute_plan(&graph, &wq.query, &default_plan, row_budget) else {
                continue;
            };
            let mut costs = Vec::with_capacity(heuristics.len());
            let mut walls = Vec::with_capacity(heuristics.len());
            let mut ok = true;
            for h in heuristics {
                let mut est = OptimisticEstimator::new(&table, h);
                let (plan, _) = optimize(&wq.query, &mut est);
                match execute_plan(&graph, &wq.query, &plan, row_budget) {
                    Some(s) => {
                        costs.push(s.intermediate_tuples);
                        walls.push(s.wall.as_secs_f64());
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // filter queries where every plan costs within 10% (paper §6.6)
            let all = costs
                .iter()
                .chain(std::iter::once(&base.intermediate_tuples));
            let min = *all.clone().min().unwrap() as f64;
            let max = *all.max().unwrap() as f64;
            if max <= 1.1 * min.max(1.0) {
                continue;
            }
            kept += 1;
            for (i, (&c, &w)) in costs.iter().zip(&walls).enumerate() {
                let s = (base.intermediate_tuples.max(1) as f64) / (c.max(1) as f64);
                speedups[i].push(s.log10());
                let ws = base.wall.as_secs_f64().max(1e-9) / w.max(1e-9);
                wall_speedups[i].push(ws.log10());
            }
        }
        println!(
            "== {} / {}: {} queries with diverging plans ==",
            ds.name(),
            wl.name(),
            kept
        );
        println!(
            "{:<14} {:>8} {:>8} {:>8} {:>10} {:>12}",
            "estimator", "p25", "median", "p75", "mean|s|", "wall-median"
        );
        for (i, h) in heuristics.iter().enumerate() {
            let s = QErrorSummary::from_signed(speedups[i].clone(), 0);
            let ws = QErrorSummary::from_signed(wall_speedups[i].clone(), 0);
            if s.count == 0 {
                println!("{:<14} (no data)", h.name());
                continue;
            }
            println!(
                "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>10.2} {:>12.2}",
                h.name(),
                s.p25,
                s.median,
                s.p75,
                s.trimmed_mean,
                ws.median,
            );
        }
        println!("(values are log10 speedup over the RDF-3X default plan; > 0 = faster)\n");
    }
}
