//! Edge-subset bitmasks.
//!
//! CEG_O vertices are connected subsets of a query's edges (Section 4.2);
//! we represent a subset as one `u32` so subset tests, unions and
//! enumeration are single instructions.

/// A subset of a query's edges (bit `i` = edge index `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EdgeMask(u32);

impl EdgeMask {
    /// The empty subset (the CEG bottom vertex `∅`).
    #[inline]
    pub const fn empty() -> Self {
        EdgeMask(0)
    }

    /// Subset containing the first `n` edges.
    #[inline]
    pub const fn full(n: usize) -> Self {
        debug_assert!(n <= 32);
        if n == 32 {
            EdgeMask(u32::MAX)
        } else {
            EdgeMask((1u32 << n) - 1)
        }
    }

    /// Singleton subset `{i}`.
    #[inline]
    pub const fn single(i: usize) -> Self {
        EdgeMask(1 << i)
    }

    /// From a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        EdgeMask(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Number of edges in the subset.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the subset is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if edge `i` is in the subset.
    #[inline]
    pub const fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Subset with edge `i` added.
    #[inline]
    #[must_use]
    pub const fn insert(self, i: usize) -> Self {
        EdgeMask(self.0 | (1 << i))
    }

    /// Subset with edge `i` removed.
    #[inline]
    #[must_use]
    pub const fn remove(self, i: usize) -> Self {
        EdgeMask(self.0 & !(1 << i))
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        EdgeMask(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub const fn intersect(self, other: Self) -> Self {
        EdgeMask(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    #[must_use]
    pub const fn difference(self, other: Self) -> Self {
        EdgeMask(self.0 & !other.0)
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub const fn is_subset_of(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate the edge indices in the subset, ascending.
    #[inline]
    pub fn iter(self) -> BitIter {
        BitIter(self.0)
    }
}

/// Iterator over set bit positions.
pub struct BitIter(u32);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl std::fmt::Display for EdgeMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let a = EdgeMask::from_bits(0b0110);
        let b = EdgeMask::from_bits(0b0011);
        assert_eq!(a.union(b).bits(), 0b0111);
        assert_eq!(a.intersect(b).bits(), 0b0010);
        assert_eq!(a.difference(b).bits(), 0b0100);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn subset_relations() {
        let a = EdgeMask::from_bits(0b0010);
        let b = EdgeMask::from_bits(0b0110);
        assert!(a.is_subset_of(b));
        assert!(b.is_subset_of(b));
        assert!(!b.is_subset_of(a));
    }

    #[test]
    fn insert_remove_contains() {
        let m = EdgeMask::empty().insert(3).insert(5);
        assert!(m.contains(3) && m.contains(5) && !m.contains(4));
        assert_eq!(m.remove(3), EdgeMask::single(5));
    }

    #[test]
    fn iter_ascending() {
        let m = EdgeMask::from_bits(0b101001);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(m.iter().size_hint(), (3, Some(3)));
    }

    #[test]
    fn full_masks() {
        assert_eq!(EdgeMask::full(0), EdgeMask::empty());
        assert_eq!(EdgeMask::full(3).bits(), 0b111);
        assert_eq!(EdgeMask::full(32).bits(), u32::MAX);
    }

    #[test]
    fn display_lists_indices() {
        assert_eq!(EdgeMask::from_bits(0b101).to_string(), "{0,2}");
        assert_eq!(EdgeMask::empty().to_string(), "{}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn difference_with_self_is_empty() {
        let m = EdgeMask::from_bits(0b1011);
        assert_eq!(m.difference(m), EdgeMask::empty());
        assert!(m.difference(m).is_empty());
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let a = EdgeMask::from_bits(0b0101);
        let b = EdgeMask::from_bits(0b0011);
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(a), a);
    }

    #[test]
    fn empty_is_subset_of_everything() {
        for bits in [0u32, 1, 0b1010, u32::MAX] {
            assert!(EdgeMask::empty().is_subset_of(EdgeMask::from_bits(bits)));
        }
    }
}
