//! Ablation study of the CEG_O construction rules (docs/ARCHITECTURE.md §D.5):
//!
//! * Rule 1 — *size-h numerators* (formulas condition on the largest
//!   stored joins);
//! * Rule 2 — *early cycle closing* (close cycles as soon as possible);
//! * MOLP with vs without 2-join degree statistics (Section 5.1.1).
//!
//! Not a paper figure, but the paper asserts both rules from prior work
//! without ablating them; this harness quantifies their contribution on
//! our datasets.

use ceg_bench::common;
use ceg_core::ceg_o::{CegO, CegOOptions};
use ceg_core::{Aggr, Heuristic, PathLen};
use ceg_estimators::{molp_bound, DegreeStats, MolpInstance};
use ceg_workload::qerror::{signed_log_qerror, QErrorSummary};
use ceg_workload::{Dataset, Workload};

fn summarize(name: &str, errors: Vec<f64>, failures: usize) {
    let s = QErrorSummary::from_signed(errors, failures);
    if s.count == 0 {
        println!("{name:<26} (no data, {failures} failed)");
        return;
    }
    println!(
        "{:<26} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>6.0}%{}",
        name,
        s.p25,
        s.median,
        s.p75,
        s.trimmed_mean,
        s.under_fraction * 100.0,
        if s.failures > 0 {
            format!("  ({} failed)", s.failures)
        } else {
            String::new()
        }
    );
}

fn main() {
    println!("Ablation: CEG_O construction rules and MOLP join statistics");
    let h = Heuristic::new(PathLen::MaxHop, Aggr::Max);

    for (ds, wl, per_template, label) in [
        (Dataset::Hetionet, Workload::Acyclic, 3, "acyclic"),
        (Dataset::Hetionet, Workload::Cyclic, 5, "cyclic"),
    ] {
        let (graph, queries) = common::setup(ds, wl, per_template);
        if queries.is_empty() {
            continue;
        }
        let table = common::markov_for(&graph, &queries, 3);
        println!(
            "\n== {} / {} ({label}), max-hop-max ==",
            ds.name(),
            wl.name()
        );
        println!(
            "{:<26} {:>7} {:>7} {:>7} {:>7} {:>6}",
            "variant", "p25", "median", "p75", "mean*", "under"
        );
        let variants = [
            ("both rules (paper)", true, true),
            ("no size-h rule", false, true),
            ("no early closing", true, false),
            ("no rules", false, false),
        ];
        for (name, size_h, early) in variants {
            let opts = CegOOptions {
                size_h_numerators: size_h,
                early_cycle_closing: early,
            };
            let mut errors = Vec::new();
            let mut failures = 0;
            for wq in &queries {
                let ceg = CegO::build_with_options(&wq.query, &table, opts);
                match ceg.ceg().estimate(h) {
                    Some(e) => errors.push(signed_log_qerror(e, wq.truth)),
                    None => failures += 1,
                }
            }
            summarize(name, errors, failures);
        }

        // MOLP join-statistics ablation on the same workload
        let qs: Vec<_> = queries.iter().map(|q| q.query.clone()).collect();
        let degs = DegreeStats::build_with_joins(&graph, &qs, 3_000_000);
        println!("-- MOLP statistics ablation --");
        for (name, use_joins) in [("base degrees only", false), ("with 2-join degrees", true)] {
            let mut errors = Vec::new();
            for wq in &queries {
                let inst = MolpInstance::from_stats(&wq.query, &degs, use_joins);
                let b = molp_bound(&inst);
                if b.is_finite() {
                    errors.push(signed_log_qerror(b, wq.truth));
                }
            }
            summarize(name, errors, 0);
        }
    }
}
