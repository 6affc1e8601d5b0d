//! Join-order optimization substrate for the plan-quality experiment
//! (Section 6.6). The paper injects each estimator's cardinalities into
//! RDF-3X's dynamic-programming join optimizer and compares plan run
//! times; we reproduce the setup with
//!
//! * [`optimize`] — a System-R-style DP optimizer over connected
//!   sub-queries whose cost model (`C_out`) sums *estimated* intermediate
//!   cardinalities supplied by any [`CardinalityEstimator`],
//! * [`execute_plan`] — a hash-join pipeline that executes the chosen plan
//!   and reports *actual* intermediate tuple counts and wall time.
//!
//! [`CardinalityEstimator`]: crate::CardinalityEstimator

pub use crate::executor::{execute_plan, ExecStats};
pub use crate::optimizer::{optimize, Plan};
