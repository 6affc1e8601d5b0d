//! # cegraph — Cardinality Estimation Graphs
//!
//! Facade crate re-exporting the whole workspace: a full implementation of
//! *“Accurate Summary-based Cardinality Estimation Through the Lens of
//! Cardinality Estimation Graphs”* (VLDB 2022).
//!
//! Start with [`estimators`] for the high-level API, or see the
//! `examples/` directory for runnable walkthroughs.

pub use ceg_catalog as catalog;
pub use ceg_core as core;
pub use ceg_estimators as estimators;
pub use ceg_exec as exec;
pub use ceg_graph as graph;
pub use ceg_query as query;
pub use ceg_service as service;
pub use ceg_workload as workload;
