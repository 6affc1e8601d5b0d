//! # ceg-exec
//!
//! Join execution substrate: counts the exact number of homomorphisms
//! (join results) of a query in a labeled graph. The executor supplies
//!
//! * ground-truth cardinalities for q-error measurement,
//! * the counts stored in Markov tables (small-join statistics),
//! * constrained counts for the bound-sketch optimization (per-variable
//!   hash-bucket predicates, Section 5.2.1),
//! * degree statistics of small joins for MOLP (Section 5.1.1).
//!
//! An unconstrained tree-shaped query — every Markov pattern of two
//! edges — is counted by a sparse dynamic program over the rows of the
//! relations it names ([`tree_count`]). Everything else goes through a
//! worst-case-optimal-style backtracking matcher: query
//! variables are bound one at a time in a connectivity-aware order, and the
//! candidate set for each new variable is the k-way galloping intersection
//! of the sorted CSR neighbour lists induced by its already-bound
//! neighbours, or, where a depth's degree statistics call for it, a probe
//! of a cached bitset of one of them. Per-depth extension plans are
//! precomputed once per query ([`count::CountPlan`]) so the recursion is
//! allocation-free; [`naive::count_naive`] retains the unoptimized matcher
//! as the reference for differential testing. Counting many queries at
//! once — a catalog fill, a workload's ground truths — and the served
//! batch's misses share one work loop, [`par::for_each_ordered`].

pub mod constraints;
pub mod count;
mod intersect;
pub mod naive;
mod order;
pub mod par;
pub mod tree_count;

pub use constraints::{VarConstraint, VarConstraints};
pub use count::{count, count_budgeted, CountBudget, CountPlan, CountStop, KernelStats};
pub use naive::count_naive;
pub use par::{for_each_ordered, map_ordered, Handover};
pub use tree_count::{count_tree_dp, exact_count};
