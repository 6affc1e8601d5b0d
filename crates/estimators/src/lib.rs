//! # ceg-estimators
//!
//! Everything the paper's Section 6 evaluates offline, behind one
//! [`CardinalityEstimator`] trait. The estimation service serves only
//! `max-hop-max` over CEG_O (`ceg-core`) from exact Markov tables
//! (`ceg-catalog`) and does not depend on this crate.
//!
//! Estimators:
//!
//! * [`OptimisticEstimator`] — the nine CEG_O heuristics, with automatic
//!   CEG_OCR switching for queries with large cycles (Sections 4, 6.2),
//! * [`MolpEstimator`] / [`CbsEstimator`] — the pessimistic bounds
//!   (Section 5),
//! * [`SketchedOptimistic`] / [`SketchedMolp`] — bound-sketch variants
//!   (Section 6.3),
//! * [`CsEstimator`] — Characteristic Sets (Section 6.4),
//! * [`SumRdfEstimator`] — SumRDF-style summary estimation (Section 6.4),
//! * [`WanderJoinEstimator`] — the sampling baseline (Section 6.5),
//! * [`Rdf3xDefaultEstimator`] — the RDF-3X-style default used as the
//!   plan-quality baseline (Section 6.6),
//! * [`pstar_estimate`] — the P* oracle (Section 6.2.3).
//!
//! The CEGs and bounds behind them:
//!
//! * [`ceg_ocr`] — CEG_OCR, the cycle-closing-rate variant for queries
//!   with large cycles (Section 4.3),
//! * [`ceg_m`] — CEG_M and the MOLP bound as a shortest path (Theorem
//!   5.1), plus the literal LP for verification,
//! * [`ceg_d`] — CEG_D, the DBPLP cardinality estimation graph
//!   (Appendix D),
//! * [`cbs`] — the CBS pessimistic estimator (bounding formulas over
//!   coverages; Section 5.2 and Appendices B–C),
//! * [`dbplp`] — the DBPLP bound (Appendix D),
//! * [`agm`] — the AGM fractional-edge-cover bound,
//! * [`bound_sketch`] — the bound-sketch partitioning optimization applied
//!   to both pessimistic and optimistic estimators (Sections 5.2.1–5.2.2),
//! * [`oracle`] — the P* oracle that picks the best path per query
//!   (Section 6.2.3),
//! * [`lp`] — a small simplex solver backing the literal LPs,
//! * [`render`] — CEG_O as Graphviz DOT and MOLP paths as text.
//!
//! The statistics they read:
//!
//! * [`DegreeStats`] — maximum-degree statistics `deg(X, Y, R_i)` of base
//!   relations and of small joins (Section 5.1/5.1.1); feeds CEG_M (MOLP)
//!   and CBS,
//! * [`CcrTable`] — sampled cycle-closing rates
//!   `P(E_{i-1} * E_{i+1} | E_i)` (Section 4.3); feeds CEG_OCR,
//! * [`CharacteristicSets`] — per-vertex outgoing-label set statistics for
//!   the CS baseline (Section 6.4),
//! * [`SummaryGraph`] — a SumRDF-style bucketed summary for the summary
//!   baseline (Section 6.4).
//!
//! And [`planner`], the join optimizer and executor of the plan-quality
//! experiment (Section 6.6).
//!
//! # Example
//!
//! ```
//! use ceg_graph::GraphBuilder;
//! use ceg_query::templates;
//! use ceg_catalog::MarkovTable;
//! use ceg_estimators::{CardinalityEstimator, OptimisticEstimator};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 0);
//! b.add_edge(1, 2, 1);
//! b.add_edge(1, 3, 1);
//! let graph = b.build();
//!
//! let query = templates::path(2, &[0, 1]);
//! let table = MarkovTable::build_for_query(&graph, &query, 2);
//! let mut est = OptimisticEstimator::recommended(&table); // max-hop-max
//! assert_eq!(est.estimate(&query), Some(2.0)); // exact: query fits in table
//! ```

pub mod agm;
pub mod baselines;
pub mod bound_sketch;
pub mod cbs;
pub mod ccr;
pub mod ceg_d;
pub mod ceg_m;
pub mod ceg_ocr;
pub mod charsets;
pub mod dbplp;
pub mod degree;
mod executor;
pub mod lp;
pub mod optimistic;
mod optimizer;
pub mod oracle;
pub mod pessimistic;
pub mod planner;
pub mod render;
pub mod summary;
pub mod traits;
pub mod wander_join;

pub use baselines::{CsEstimator, Rdf3xDefaultEstimator, SumRdfEstimator};
pub use ccr::{CcrKey, CcrTable};
pub use ceg_m::{molp_bound, molp_lp_bound, molp_min_path, MolpInstance};
pub use ceg_ocr::build_ceg_ocr;
pub use charsets::CharacteristicSets;
pub use degree::{DegreeStats, JoinStats};
pub use optimistic::{pstar_estimate, OptimisticEstimator, SketchedOptimistic};
pub use pessimistic::{CbsEstimator, MolpEstimator, SketchedMolp};
pub use summary::SummaryGraph;
pub use traits::CardinalityEstimator;
pub use wander_join::WanderJoinEstimator;
