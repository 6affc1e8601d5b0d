//! # ceg-catalog
//!
//! Statistics substrates for every estimator in the paper:
//!
//! * [`MarkovTable`] — cardinalities of small joins up to size `h`
//!   (Markov tables / graph summaries / graph catalogue, Section 4.1);
//!   feeds the optimistic CEG_O,
//! * [`DegreeStats`] — maximum-degree statistics `deg(X, Y, R_i)` of base
//!   relations and of small joins (Section 5.1/5.1.1); feeds the
//!   pessimistic CEG_M (MOLP) and CBS,
//! * [`CcrTable`] — sampled cycle-closing rates
//!   `P(E_{i-1} * E_{i+1} | E_i)` (Section 4.3); feeds CEG_OCR,
//! * [`CharacteristicSets`] — per-vertex outgoing-label set statistics for
//!   the CS baseline (Section 6.4),
//! * [`SummaryGraph`] — a SumRDF-style bucketed summary for the summary
//!   baseline (Section 6.4).

pub mod ccr;
pub mod charsets;
pub mod degree;
pub mod io;
pub mod markov;
pub mod summary;

pub use ccr::{CcrKey, CcrTable};
pub use charsets::CharacteristicSets;
pub use degree::{DegreeStats, JoinStats};
pub use markov::{
    count_patterns, default_build_parallelism, FillStats, MarkovTable, ResolvedCards,
};
pub use summary::SummaryGraph;
