//! Per-variable vertex predicates.
//!
//! The bound-sketch optimization (Section 5.2.1) partitions relations by
//! hashing attribute values into buckets; a sub-query of the sketch then
//! requires each partition attribute to fall in a fixed bucket. We express
//! this to the executor as a predicate per query variable.

use ceg_graph::hash::bucket_of;
use ceg_graph::VertexId;
use ceg_query::VarId;

/// Constraint on the data vertices a single query variable may bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarConstraint {
    /// No restriction.
    Any,
    /// `bucket_of(v, buckets) == bucket` must hold.
    HashBucket { buckets: u32, bucket: u32 },
    /// The variable is pinned to one concrete vertex (used by samplers).
    Fixed(VertexId),
}

impl VarConstraint {
    /// Does vertex `v` satisfy the constraint?
    #[inline]
    pub fn admits(&self, v: VertexId) -> bool {
        match *self {
            VarConstraint::Any => true,
            VarConstraint::HashBucket { buckets, bucket } => bucket_of(v, buckets) == bucket,
            VarConstraint::Fixed(u) => v == u,
        }
    }
}

/// A full assignment of constraints to query variables.
#[derive(Debug, Clone)]
pub struct VarConstraints {
    per_var: Vec<VarConstraint>,
}

impl VarConstraints {
    /// Unconstrained set for `num_vars` variables.
    pub fn none(num_vars: VarId) -> Self {
        VarConstraints {
            per_var: vec![VarConstraint::Any; num_vars as usize],
        }
    }

    /// Set the constraint of one variable.
    pub fn set(&mut self, var: VarId, c: VarConstraint) -> &mut Self {
        self.per_var[var as usize] = c;
        self
    }

    /// Constraint for `var` (Any if out of range).
    #[inline]
    pub fn get(&self, var: VarId) -> VarConstraint {
        self.per_var
            .get(var as usize)
            .copied()
            .unwrap_or(VarConstraint::Any)
    }

    /// True if no variable is constrained.
    pub(crate) fn is_trivial(&self) -> bool {
        self.per_var.iter().all(|c| matches!(c, VarConstraint::Any))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_admits_everything() {
        assert!(VarConstraint::Any.admits(0));
        assert!(VarConstraint::Any.admits(u32::MAX));
    }

    #[test]
    fn fixed_admits_only_the_vertex() {
        let c = VarConstraint::Fixed(7);
        assert!(c.admits(7));
        assert!(!c.admits(8));
    }

    #[test]
    fn hash_bucket_partitions_vertices() {
        let buckets = 4;
        for v in 0..100 {
            let hits: Vec<u32> = (0..buckets)
                .filter(|&b| VarConstraint::HashBucket { buckets, bucket: b }.admits(v))
                .collect();
            assert_eq!(hits.len(), 1, "vertex {v} must land in exactly one bucket");
        }
    }

    #[test]
    fn constraint_set_roundtrip() {
        let mut cs = VarConstraints::none(3);
        assert!(cs.is_trivial());
        cs.set(1, VarConstraint::Fixed(5));
        assert!(!cs.is_trivial());
        assert_eq!(cs.get(1), VarConstraint::Fixed(5));
        assert_eq!(cs.get(0), VarConstraint::Any);
        assert_eq!(cs.get(99), VarConstraint::Any);
    }
}
