//! The P* oracle estimator (Section 6.2.3).
//!
//! A thought experiment measuring the headroom of the CEG framework: for
//! each query, an oracle picks the bottom-to-top path whose estimate is
//! closest (in q-error) to the true cardinality. Real estimators cannot do
//! this — P* is the lower envelope any path-picking heuristic could reach.

use ceg_core::ceg::Ceg;

/// Default cap on distinct per-node estimates during enumeration.
pub const DEFAULT_CAP: usize = 100_000;

/// The estimate of the best path for a query with true cardinality
/// `truth`; `None` if the CEG has no complete path.
pub fn oracle_estimate(ceg: &Ceg, truth: f64, cap: usize) -> Option<f64> {
    let estimates = ceg.path_estimates(cap);
    if estimates.is_empty() {
        return None;
    }
    estimates
        .into_iter()
        .min_by(|&a, &b| qerror(a, truth).total_cmp(&qerror(b, truth)))
}

/// The q-error `max(c/e, e/c)` with the usual conventions for zeros:
/// exact zeros match zero truth perfectly; otherwise zero on either side
/// is infinitely wrong.
pub fn qerror(estimate: f64, truth: f64) -> f64 {
    if truth <= 0.0 && estimate <= 0.0 {
        return 1.0;
    }
    if truth <= 0.0 || estimate <= 0.0 {
        return f64::INFINITY;
    }
    (estimate / truth).max(truth / estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_core::ceg::CegEdge;

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
                e(1, 3, 3.0), // path estimate 6
                e(0, 2, 5.0),
                e(2, 3, 7.0),  // path estimate 35
                e(0, 3, 10.0), // path estimate 10
            ],
        )
    }

    #[test]
    fn oracle_picks_closest_path() {
        let c = diamond();
        assert_eq!(oracle_estimate(&c, 9.0, 100), Some(10.0));
        assert_eq!(oracle_estimate(&c, 5.0, 100), Some(6.0));
        assert_eq!(oracle_estimate(&c, 100.0, 100), Some(35.0));
    }

    #[test]
    fn oracle_dominates_every_heuristic() {
        use ceg_core::ceg::Heuristic;
        let c = diamond();
        for truth in [1.0, 6.0, 12.0, 50.0] {
            let star = qerror(oracle_estimate(&c, truth, 100).unwrap(), truth);
            for h in Heuristic::all() {
                if let Some(est) = c.estimate(h) {
                    // avg-aggr may produce a value not on any single path,
                    // so compare only against the path-valued aggregators
                    if h.aggr != ceg_core::ceg::Aggr::Avg {
                        assert!(
                            star <= qerror(est, truth) + 1e-12,
                            "oracle beaten by {} at truth {truth}",
                            h.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn qerror_conventions() {
        assert_eq!(qerror(10.0, 10.0), 1.0);
        assert_eq!(qerror(20.0, 10.0), 2.0);
        assert_eq!(qerror(5.0, 10.0), 2.0);
        assert_eq!(qerror(0.0, 0.0), 1.0);
        assert_eq!(qerror(0.0, 5.0), f64::INFINITY);
        assert_eq!(qerror(5.0, 0.0), f64::INFINITY);
    }
}
