//! # ceg-catalog
//!
//! The statistics the estimation service serves from:
//!
//! * [`MarkovTable`] — cardinalities of small joins up to size `h`
//!   (Markov tables / graph summaries / graph catalogue, Section 4.1);
//!   feeds the optimistic CEG_O,
//! * [`io`] — the `.cegsnap` snapshot (graph, catalog, epoch) that
//!   `cegtool stats`, durability and the wire `SNAPSHOT` write and the
//!   service boots from.
//!
//! The statistics only the offline estimators read (degree stats,
//! cycle-closing rates, CS and SumRDF summaries) live in
//! `ceg-estimators`.

pub mod io;
pub mod markov;

pub use markov::{
    count_patterns, default_build_parallelism, FillStats, MarkovTable, ResolvedCards,
};
