//! Experiment driver: run estimators over a workload, collect q-error
//! distributions and timings, render report tables.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use ceg_catalog::MarkovTable;
use ceg_estimators::CardinalityEstimator;
use ceg_graph::sync::{LockRank, OrderedMutex};
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
                match e {
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

/// Run `jobs` across at most `parallelism` ephemeral threads and return
/// their results **in job order** regardless of completion order. The
/// threads are scoped, so jobs may borrow from the caller's stack
/// (estimators borrow catalogs that live on the caller's frame). With
/// `parallelism <= 1` the jobs run inline on the calling thread.
fn run_scoped<T, F>(parallelism: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if parallelism <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let n = jobs.len();
    // Both locks are held only for the take/store instants — never
    // while a job runs.
    let queue: OrderedMutex<Vec<Option<F>>> =
        OrderedMutex::new(LockRank::PoolShard, jobs.into_iter().map(Some).collect());
    let results: OrderedMutex<Vec<Option<T>>> =
        OrderedMutex::new(LockRank::PoolShard, (0..n).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..parallelism.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = queue.lock()[i].take().expect("job taken twice");
                let out = job();
                results.lock()[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("worker thread panicked before storing its result"))
        .collect()
}

/// Run each estimator over the workload with up to `parallelism` worker
/// threads (a `parallelism` of 0 or 1 is the serial path).
///
/// Queries are split into contiguous chunks; each worker builds its own
/// estimator set via `make_estimators` and processes one chunk at a time
/// on scoped threads (`run_scoped`). Per-query results are merged back
/// **in workload order**, so for deterministic estimators the q-error
/// summaries — and therefore the rendered report tables — are
/// byte-identical to [`run_estimators`] at any parallelism.
/// (Sampling estimators carry their own RNG; a fresh instance per chunk
/// means their per-query draws differ from the serial path, but the
/// output remains deterministic for a fixed `parallelism`.) Timings are
/// per-query means and stay comparable, not identical.
pub fn run_estimators_parallel<'a>(
    workload: &[WorkloadQuery],
    make_estimators: impl Fn() -> Vec<Box<dyn CardinalityEstimator + 'a>> + Sync,
    parallelism: usize,
) -> Vec<EstimatorReport> {
    if parallelism <= 1 || workload.len() <= 1 {
        let mut ests = make_estimators();
        return run_estimators(workload, &mut ests);
    }
    let chunk_len = workload.len().div_ceil(parallelism);
    let chunks: Vec<&[WorkloadQuery]> = workload.chunks(chunk_len).collect();
    // Each job: run a fresh estimator set over one chunk, reporting per
    // estimator the signed errors (in chunk order), failures and time.
    let jobs: Vec<_> = chunks
        .iter()
        .map(|chunk| {
            let make = &make_estimators;
            move || -> Vec<(String, Vec<f64>, usize, f64)> {
                let mut ests = make();
                ests.iter_mut()
                    .map(|est| {
                        let mut errors = Vec::with_capacity(chunk.len());
                        let mut failures = 0usize;
                        let mut total_time = 0.0f64;
                        for wq in *chunk {
                            let t0 = Instant::now();
                            let e = est.estimate(&wq.query);
                            total_time += t0.elapsed().as_secs_f64() * 1e6;
                            match e {
                                Some(v) => errors.push(signed_log_qerror(v, wq.truth)),
                                None => failures += 1,
                            }
                        }
                        (est.name(), errors, failures, total_time)
                    })
                    .collect()
            }
        })
        .collect();
    let per_chunk = run_scoped(parallelism, jobs);
    // Merge chunk results in chunk (= workload) order, per estimator.
    let num_estimators = per_chunk.first().map_or(0, |c| c.len());
    (0..num_estimators)
        .map(|e| {
            let mut errors = Vec::with_capacity(workload.len());
            let mut failures = 0usize;
            let mut total_time = 0.0f64;
            for chunk in &per_chunk {
                let (_, errs, fails, time) = &chunk[e];
                errors.extend_from_slice(errs);
                failures += fails;
                total_time += time;
            }
            EstimatorReport {
                name: per_chunk[0][e].0.clone(),
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

    #[test]
    fn run_scoped_preserves_order() {
        let inputs: Vec<usize> = (0..50).collect();
        let jobs: Vec<_> = inputs
            .iter()
            .map(|&i| move || i * 2) // borrows nothing, returns in-order marker
            .collect();
        let out = run_scoped(4, jobs);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_borrows_caller_state() {
        let data = [1u64, 2, 3, 4, 5];
        let jobs: Vec<_> = data
            .chunks(2)
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let out = run_scoped(2, jobs);
        assert_eq!(out, vec![3, 7, 5]);
    }

    #[test]
    fn run_scoped_serial_fallback_matches() {
        let jobs: Vec<_> = (0..5).map(|i| move || i + 1).collect();
        assert_eq!(run_scoped(1, jobs), vec![1, 2, 3, 4, 5]);
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

/// [`run_by_template`] with a `parallelism` knob: each template group runs
/// through [`run_estimators_parallel`], so groups keep their sorted order
/// and per-group reports match the serial path for deterministic
/// estimators.
pub fn run_by_template_parallel<'a>(
    workload: &[WorkloadQuery],
    make_estimators: impl Fn() -> Vec<Box<dyn CardinalityEstimator + 'a>> + Sync,
    parallelism: usize,
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
            let reports = run_estimators_parallel(&group, &make_estimators, parallelism);
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

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use ceg_query::QueryGraph;

    /// Deterministic estimator whose value depends on the query's edge
    /// count, so chunk boundaries would show up as wrong summaries.
    struct EdgeCount;
    impl CardinalityEstimator for EdgeCount {
        fn name(&self) -> String {
            "edge-count".into()
        }
        fn estimate(&mut self, q: &QueryGraph) -> Option<f64> {
            Some(10.0 * (q.num_edges() as f64 + 1.0))
        }
    }

    struct FailEven(usize);
    impl CardinalityEstimator for FailEven {
        fn name(&self) -> String {
            "fail-even".into()
        }
        fn estimate(&mut self, _q: &QueryGraph) -> Option<f64> {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                None
            } else {
                Some(50.0)
            }
        }
    }

    fn big_workload() -> Vec<WorkloadQuery> {
        (0..37)
            .map(|i| WorkloadQuery {
                query: ceg_query::templates::path(1 + i % 3, &[0, 1, 0][..1 + i % 3]),
                template: format!("t{}", i % 4),
                truth: 10.0 + i as f64,
            })
            .collect()
    }

    fn make() -> Vec<Box<dyn CardinalityEstimator + 'static>> {
        vec![Box::new(EdgeCount)]
    }

    #[test]
    fn parallel_reports_match_serial() {
        let w = big_workload();
        let serial = {
            let mut ests = make();
            run_estimators(&w, &mut ests)
        };
        for parallelism in [1, 2, 3, 8, 64] {
            let parallel = run_estimators_parallel(&w, make, parallelism);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.name, s.name);
                assert_eq!(p.summary, s.summary, "parallelism={parallelism}");
            }
            // The non-timing report columns are byte-identical.
            let strip = |csv: String| {
                csv.lines()
                    .map(|l| l.rsplit_once(',').unwrap().0.to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                strip(render_csv("d", "w", &parallel)),
                strip(render_csv("d", "w", &serial))
            );
        }
    }

    #[test]
    fn parallel_counts_failures_like_serial() {
        // FailEven is stateful per instance; chunking resets it, so make
        // the chunk boundary explicit: parallelism 1 must equal serial.
        let w = big_workload();
        let make =
            || -> Vec<Box<dyn CardinalityEstimator + 'static>> { vec![Box::new(FailEven(0))] };
        let serial = {
            let mut ests = make();
            run_estimators(&w, &mut ests)
        };
        let parallel = run_estimators_parallel(&w, make, 1);
        assert_eq!(parallel[0].summary, serial[0].summary);
        // At higher parallelism the total count is preserved even though
        // the per-chunk state resets.
        let parallel4 = run_estimators_parallel(&w, make, 4);
        assert_eq!(
            parallel4[0].summary.count + parallel4[0].summary.failures,
            w.len()
        );
    }

    #[test]
    fn by_template_parallel_matches_serial() {
        let w = big_workload();
        let serial = run_by_template(&w, make);
        let parallel = run_by_template_parallel(&w, make, 4);
        assert_eq!(serial.len(), parallel.len());
        for ((ts, rs), (tp, rp)) in serial.iter().zip(&parallel) {
            assert_eq!(ts, tp);
            for (s, p) in rs.iter().zip(rp) {
                assert_eq!(s.summary, p.summary);
            }
        }
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
