//! # ceg-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section 6). One binary per artifact:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table 1 — example Markov table |
//! | `table2` | Table 2 — dataset descriptions |
//! | `fig9`   | 9 optimistic estimators + P*, acyclic workloads |
//! | `fig10`  | 9 estimators, cyclic queries with only triangles |
//! | `fig11`  | CEG_O vs CEG_OCR on large-cycle queries |
//! | `fig12`  | bound-sketch budgets for max-hop-max and MOLP |
//! | `fig13`  | summary-based comparison (max-hop-max, MOLP, CS, SumRDF) |
//! | `fig14`  | WanderJoin ratios vs max-hop-max, with timings |
//! | `fig15`  | plan quality through the DP optimizer |
//!
//! `ablation` (the CEG_O construction rules one at a time), `extensions`
//! (MaxEnt, JSUB) and `templates` (the nine estimators per template)
//! complete the twelve. Time is measured elsewhere: every latency and
//! cost number is a per-layer metric of the wire benchmark in `bench/`
//! (`cegbench`).

pub mod common;
