//! # ceg-workload
//!
//! Datasets, workloads and experiment infrastructure for reproducing the
//! paper's evaluation (Section 6):
//!
//! * [`datasets`] — seeded synthetic stand-ins for the paper's six
//!   datasets (IMDb, YAGO, DBLP, WatDiv, Hetionet, Epinions); see
//!   docs/ARCHITECTURE.md §D.1 for the substitution rationale,
//! * [`workloads`] — the five workloads (JOB, Acyclic, Cyclic,
//!   G-CARE-Acyclic, G-CARE-Cyclic) instantiated from the paper's query
//!   templates with ground-truth cardinalities,
//! * [`qerror`] — signed log q-errors and the distribution summaries the
//!   paper's box plots report,
//! * [`runner`] — drives a set of estimators over a workload and renders
//!   the result tables,
//! * [`updates`] — scripted update streams (seeded add/del/commit
//!   generators plus the `.upd` text format) for exercising the
//!   service's live-update path.

pub mod datasets;
pub mod io;
pub mod qerror;
pub mod runner;
pub mod updates;
pub mod workloads;

pub use datasets::{Dataset, DatasetSpec, Rung};
pub use qerror::{signed_log_qerror, QErrorSummary};
pub use runner::{run_estimators, EstimatorReport};
pub use updates::{generate_update_stream, UpdateOp};
pub use workloads::{TemplateReport, Workload, WorkloadQuery};
