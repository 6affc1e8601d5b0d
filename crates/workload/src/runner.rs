//! Experiment driver: run estimators over a workload, collect q-error
//! distributions and timings, render report tables.

use std::time::Instant;

use ceg_catalog::MarkovTable;
use ceg_estimators::CardinalityEstimator;
use ceg_graph::LabeledGraph;

use crate::qerror::{signed_log_qerror, QErrorSummary};
use crate::workloads::WorkloadQuery;

/// Build the workload-specific Markov table (the paper builds statistics
/// per workload, Section 6) on up to `parallelism` worker threads via the
/// two-phase [`MarkovTable::build_parallel`]: sub-patterns are deduped
/// across the whole workload first, then counted in parallel. The
/// resulting table is identical at every `parallelism`.
pub fn build_markov_parallel(
    graph: &LabeledGraph,
    workload: &[WorkloadQuery],
    h: usize,
    parallelism: usize,
) -> MarkovTable {
    let qs: Vec<_> = workload.iter().map(|q| q.query.clone()).collect();
    MarkovTable::build_parallel(graph, &qs, h, parallelism)
}

/// Result of one estimator over one workload.
#[derive(Debug, Clone)]
pub struct EstimatorReport {
    pub name: String,
    pub summary: QErrorSummary,
    /// Mean estimation latency in microseconds.
    pub mean_time_us: f64,
}

/// Run each estimator over the workload.
pub fn run_estimators(
    workload: &[WorkloadQuery],
    estimators: &mut [Box<dyn CardinalityEstimator + '_>],
) -> Vec<EstimatorReport> {
    estimators
        .iter_mut()
        .map(|est| {
            let mut errors = Vec::with_capacity(workload.len());
            let mut failures = 0usize;
            let mut total_time = 0.0f64;
            for wq in workload {
                let t0 = Instant::now();
                let e = est.estimate(&wq.query);
                total_time += t0.elapsed().as_secs_f64() * 1e6;
                // A non-finite estimate is "cannot answer", as in the
                // engine: as a q-error it would be a NaN maximum.
                match e.filter(|v| v.is_finite()) {
                    Some(v) => errors.push(signed_log_qerror(v, wq.truth)),
                    None => failures += 1,
                }
            }
            EstimatorReport {
                name: est.name(),
                summary: QErrorSummary::from_signed(errors, failures),
                mean_time_us: if workload.is_empty() {
                    0.0
                } else {
                    total_time / workload.len() as f64
                },
            }
        })
        .collect()
}

/// Render the reports as a text table with ASCII box plots — the textual
/// equivalent of the paper's box-plot figures.
pub fn render_table(title: &str, reports: &[EstimatorReport]) -> String {
    let span = reports
        .iter()
        .filter(|r| r.summary.count > 0)
        .map(|r| r.summary.max.abs().max(r.summary.min.abs()))
        .fold(1.0f64, f64::max)
        .ceil();
    let width = 41usize;
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<18} {:>7} {:>7} {:>7} {:>7} {:>6} {:>9}  {}\n",
        "estimator",
        "p25",
        "median",
        "p75",
        "mean*",
        "under",
        "time(us)",
        format_args!("log10 q-error in [-{span}, {span}] ('|' median, '=' IQR, '.' zero)"),
    ));
    for r in reports {
        let s = &r.summary;
        if s.count == 0 {
            out.push_str(&format!(
                "{:<18} {:>7} {:>7} {:>7} {:>7} {:>6} {:>9.1}  (all {} queries failed)\n",
                r.name, "-", "-", "-", "-", "-", r.mean_time_us, s.failures
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<18} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>5.0}% {:>9.1}  [{}]{}\n",
            r.name,
            s.p25,
            s.median,
            s.p75,
            s.trimmed_mean,
            s.under_fraction * 100.0,
            r.mean_time_us,
            s.ascii_box(span, width),
            if s.failures > 0 {
                format!(" ({} failed)", s.failures)
            } else {
                String::new()
            }
        ));
    }
    out
}

#[cfg(test)]
mod markov_tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    #[test]
    fn workload_markov_build_is_parallelism_invariant() {
        let mut b = GraphBuilder::new(8);
        for i in 0..6 {
            b.add_edge(i, i + 1, (i % 2) as u16);
        }
        let g = b.build();
        let wq = |q: ceg_query::QueryGraph| WorkloadQuery {
            query: q,
            template: "t".into(),
            truth: 1.0,
        };
        let w = vec![
            wq(templates::path(2, &[0, 1])),
            wq(templates::path(3, &[0, 1, 0])),
        ];
        let serial = build_markov_parallel(&g, &w, 2, 1);
        let parallel = build_markov_parallel(&g, &w, 2, 4);
        assert_eq!(serial.len(), parallel.len());
        for (p, c) in serial.iter() {
            assert_eq!(parallel.card(p), Some(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_query::QueryGraph;

    struct Fixed(f64);
    impl CardinalityEstimator for Fixed {
        fn name(&self) -> String {
            format!("fixed-{}", self.0)
        }
        fn estimate(&mut self, _q: &QueryGraph) -> Option<f64> {
            Some(self.0)
        }
    }

    struct Failing;
    impl CardinalityEstimator for Failing {
        fn name(&self) -> String {
            "failing".into()
        }
        fn estimate(&mut self, _q: &QueryGraph) -> Option<f64> {
            None
        }
    }

    fn workload() -> Vec<WorkloadQuery> {
        let q = ceg_query::templates::path(1, &[0]);
        vec![
            WorkloadQuery {
                query: q.clone(),
                template: "t".into(),
                truth: 10.0,
            },
            WorkloadQuery {
                query: q,
                template: "t".into(),
                truth: 100.0,
            },
        ]
    }

    #[test]
    fn runner_collects_errors_and_failures() {
        let w = workload();
        let mut ests: Vec<Box<dyn CardinalityEstimator>> =
            vec![Box::new(Fixed(10.0)), Box::new(Failing)];
        let reports = run_estimators(&w, &mut ests);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].summary.count, 2);
        assert_eq!(reports[0].summary.failures, 0);
        // estimates 10 vs truths 10, 100: errors {0, -1}
        assert_eq!(reports[0].summary.max, 0.0);
        assert_eq!(reports[0].summary.min, -1.0);
        assert_eq!(reports[1].summary.failures, 2);
        assert_eq!(reports[1].summary.count, 0);
    }

    #[test]
    fn a_non_finite_estimate_is_a_failure() {
        let w = workload();
        let mut ests: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Fixed(f64::NAN)),
            Box::new(Fixed(f64::INFINITY)),
            Box::new(Fixed(10.0)),
        ];
        let reports = run_estimators(&w, &mut ests);
        for r in &reports[..2] {
            assert_eq!(r.summary.failures, 2, "{}", r.name);
            assert_eq!(r.summary.count, 0, "{}", r.name);
        }
        // The box-plot span is the finite estimator's alone.
        let table = render_table("demo", &reports);
        assert!(table.contains("in [-1, 1]"), "{table}");
    }

    #[test]
    fn table_renders_without_panic() {
        let w = workload();
        let mut ests: Vec<Box<dyn CardinalityEstimator>> =
            vec![Box::new(Fixed(50.0)), Box::new(Failing)];
        let reports = run_estimators(&w, &mut ests);
        let table = render_table("demo", &reports);
        assert!(table.contains("fixed-50"));
        assert!(table.contains("failing"));
        assert!(table.contains("demo"));
    }
}

/// Group a workload by template name and run the estimator set on each
/// group — the paper's per-template supplementary analysis (Section 6.2:
/// "our charts in which we evaluate the 9 estimators on each query
/// template can be found in our github repo").
pub fn run_by_template<'a>(
    workload: &[WorkloadQuery],
    make_estimators: impl Fn() -> Vec<Box<dyn CardinalityEstimator + 'a>>,
) -> Vec<(String, Vec<EstimatorReport>)> {
    let mut templates: Vec<String> = workload.iter().map(|q| q.template.clone()).collect();
    templates.sort();
    templates.dedup();
    templates
        .into_iter()
        .map(|t| {
            let group: Vec<WorkloadQuery> = workload
                .iter()
                .filter(|q| q.template == t)
                .cloned()
                .collect();
            let mut ests = make_estimators();
            let reports = run_estimators(&group, &mut ests);
            (t, reports)
        })
        .collect()
}

#[cfg(test)]
mod template_tests {
    use super::*;
    use ceg_query::QueryGraph;

    struct Fixed(f64);
    impl CardinalityEstimator for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn estimate(&mut self, _q: &QueryGraph) -> Option<f64> {
            Some(self.0)
        }
    }

    #[test]
    fn groups_by_template() {
        let q = ceg_query::templates::path(1, &[0]);
        let wq = |t: &str, truth: f64| WorkloadQuery {
            query: q.clone(),
            template: t.into(),
            truth,
        };
        let w = vec![wq("a", 10.0), wq("b", 20.0), wq("a", 30.0)];
        let grouped = run_by_template(&w, || {
            vec![Box::new(Fixed(10.0)) as Box<dyn CardinalityEstimator>]
        });
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, "a");
        assert_eq!(grouped[0].1[0].summary.count, 2);
        assert_eq!(grouped[1].1[0].summary.count, 1);
    }
}

/// Render reports as CSV (one row per estimator) for external plotting
/// tools; the exact numbers behind the ASCII box plots.
pub fn render_csv(dataset: &str, workload: &str, reports: &[EstimatorReport]) -> String {
    let mut out = String::from(
        "dataset,workload,estimator,count,failures,p25,median,p75,min,max,trimmed_mean,under_fraction,mean_time_us\n",
    );
    for r in reports {
        let s = &r.summary;
        out.push_str(&format!(
            "{dataset},{workload},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3}\n",
            r.name,
            s.count,
            s.failures,
            s.p25,
            s.median,
            s.p75,
            s.min,
            s.max,
            s.trimmed_mean,
            s.under_fraction,
            r.mean_time_us
        ));
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use ceg_query::QueryGraph;

    struct Fixed(f64);
    impl CardinalityEstimator for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn estimate(&mut self, _q: &QueryGraph) -> Option<f64> {
            Some(self.0)
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let q = ceg_query::templates::path(1, &[0]);
        let w = vec![WorkloadQuery {
            query: q,
            template: "t".into(),
            truth: 10.0,
        }];
        let mut ests: Vec<Box<dyn CardinalityEstimator>> = vec![Box::new(Fixed(10.0))];
        let reports = run_estimators(&w, &mut ests);
        let csv = render_csv("imdb", "job", &reports);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("dataset,workload,estimator"));
        assert!(lines[1].starts_with("imdb,job,fixed,1,0,"));
    }
}
