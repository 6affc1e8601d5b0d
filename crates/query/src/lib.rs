//! # ceg-query
//!
//! Query model for the CEG cardinality-estimation library.
//!
//! A query is an edge-labeled subgraph pattern (equivalently, a natural join
//! of binary relations — Section 2 of the paper): variables `a_0 … a_{n-1}`
//! connected by directed labeled edges. This crate provides:
//!
//! * [`QueryGraph`] — the query representation, with edge-subset
//!   ([`EdgeMask`]) utilities used to enumerate sub-queries (CEG vertices),
//! * [`Pattern`] / [`PatternKey`] — canonicalized small patterns used as
//!   Markov-table keys,
//! * [`canon`] — [`Certificate`], the canonical form of a whole query
//!   (the service's cache key), and its renaming-invariant hash,
//! * [`cycles`] — cycle structure analysis (acyclicity, largest cycle,
//!   cyclomatic number) driving the CEG_O vs CEG_OCR choice,
//! * [`templates`] — every query template used in the paper's evaluation.

pub mod canon;
pub mod cycles;
pub mod mask;
pub mod pattern;
pub mod query;
pub mod templates;
pub mod vertex_labels;

pub use canon::Certificate;
pub use mask::EdgeMask;
pub use pattern::{Canonicalizer, Pattern, PatternKey};
pub use query::{QueryEdge, QueryGraph};
pub use vertex_labels::VertexLabelSpace;

/// Identifier of a query variable (attribute). Queries in the paper have at
/// most 13 variables (a 12-edge path), so 8 bits is plenty.
pub type VarId = u8;
