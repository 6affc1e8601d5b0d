//! # ceg-core
//!
//! The paper's primary contribution as the estimation service runs it:
//! the **Cardinality Estimation Graph** over Markov-table statistics.
//!
//! * [`ceg`] — the generic CEG DAG, hop heuristics and aggregators
//!   (Section 3, 4.2),
//! * [`ceg_o`] — CEG_O, the optimistic CEG over Markov-table statistics
//!   (Section 4.2),
//! * [`trace`] — the per-request span/counter recorder the estimation
//!   service threads through the pipeline (zero-alloc when disabled).
//!
//! The pessimistic CEGs (CEG_M / MOLP, CBS, DBPLP, AGM), CEG_OCR, the
//! bound sketches and the P* oracle are offline evaluation tools and live
//! in `ceg-estimators`.
//!
//! # Example
//!
//! Build a graph, a Markov table and the query's CEG_O, and take the
//! paper's recommended `max-hop-max` estimate:
//!
//! ```
//! use ceg_graph::GraphBuilder;
//! use ceg_query::templates;
//! use ceg_catalog::MarkovTable;
//! use ceg_core::{CegO, Heuristic};
//!
//! let mut b = GraphBuilder::new(6);
//! b.add_edge(0, 1, 0);
//! b.add_edge(0, 2, 0);
//! b.add_edge(1, 3, 1);
//! b.add_edge(2, 3, 1);
//! b.add_edge(3, 4, 2);
//! let graph = b.build();
//!
//! let query = templates::path(3, &[0, 1, 2]); // a0 -0-> a1 -1-> a2 -2-> a3
//! let table = MarkovTable::build_for_query(&graph, &query, 2);
//! let ceg = CegO::build(&query, &table);
//! let estimate = ceg.ceg().estimate(Heuristic::RECOMMENDED).unwrap();
//! assert_eq!(estimate, 2.0); // two a0 -> a3 paths, one a3 -> a4 edge
//! ```

pub mod ceg;
pub mod ceg_o;
pub mod trace;

/// The storage seam (`trait Storage` + `OsStorage`/`FaultStorage`) the
/// snapshot and WAL paths are written against. The module physically
/// lives in `ceg-graph` — next to the codecs that consume it, below
/// this crate in the dependency order — and is re-exported here as the
/// framework-level name.
pub use ceg_graph::vfs;

/// Ranked lock wrappers (`OrderedMutex`/`OrderedRwLock` + `LockRank`)
/// enforcing the workspace-wide lock acquisition order; the only lock
/// primitives the `ceg-lint` lock-discipline pass permits outside the
/// module itself. Physically lives in `ceg-graph` for the same
/// dependency-order reason as [`vfs`], re-exported here as the
/// framework-level name.
pub use ceg_graph::sync;

pub use ceg::{Aggr, Ceg, CegEdge, Heuristic, PathLen};
pub use ceg_o::CegO;
pub use trace::{SpanStart, Trace};
