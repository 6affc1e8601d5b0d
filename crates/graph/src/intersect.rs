//! Sorted-slice intersection primitives.
//!
//! CSR neighbour lists are sorted and duplicate-free, so candidate
//! generation during matching reduces to intersecting a handful of sorted
//! slices. Two regimes matter in practice:
//!
//! * **comparable lengths** — a linear two-pointer merge touches every
//!   element once and wins on memory locality;
//! * **skewed lengths** — galloping (exponential probing) through the
//!   longer slice visits O(small · log(large / small)) elements, the
//!   classic worst-case-optimal-join access pattern.
//!
//! Each regime has its own pair of functions (`*_merge`, `*_gallop`); the
//! caller picks one per step by the length-ratio crossover
//! [`GALLOP_RATIO`] (the counting kernel's k-way intersection in
//! `ceg-exec` does). Inputs must be sorted and duplicate-free; outputs
//! then are too.
//!
//! A third regime — **dense candidate sets probed many times** — is served
//! by [`VertexBitset`]: build a u64-word bitset over the candidate set
//! once, then AND neighbour lists against it word-at-a-time. Each probe
//! costs one shift and mask, runs of probes falling into a zero word are
//! skipped wholesale, and the bitset is rebuilt only when the candidate
//! set changes.

use crate::VertexId;

/// Length ratio beyond which galloping through the longer slice beats a
/// linear merge. 16 keeps the merge for same-order-of-magnitude slices
/// (where its branch-predictable loop wins) and switches for the skewed
/// hub-vs-leaf intersections where galloping is asymptotically better.
pub const GALLOP_RATIO: usize = 16;

/// First index `i` in sorted `a` with `a[i] >= target` (i.e. the lower
/// bound), found by exponential probing from the front. O(log i).
#[inline]
pub fn gallop(a: &[VertexId], target: VertexId) -> usize {
    if a.is_empty() || a[0] >= target {
        return 0;
    }
    // Invariant: a[lo] < target. Double `step` until a[lo + step] >= target
    // or the slice ends, then binary-search the bracketed window.
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < a.len() && a[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(a.len());
    lo + 1
        + match a[lo + 1..hi].binary_search(&target) {
            Ok(i) | Err(i) => i,
        }
}

/// Append the intersection of sorted duplicate-free `a` and `b` to `out`
/// by a linear two-pointer merge.
pub fn intersect_into_merge(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
}

/// [`intersect_into_merge`] by galloping: the shorter slice is probed
/// through the longer one by exponential search.
pub fn intersect_into_gallop(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    // Gallop the small slice through the large one; the cursor only
    // moves forward, so the whole pass is O(|small| · log(|large|)).
    let mut rest = large;
    for &x in small {
        let i = gallop(rest, x);
        if i == rest.len() {
            return;
        }
        if rest[i] == x {
            out.push(x);
        }
        rest = &rest[i..];
    }
}

/// Retain only the elements of `buf` that also occur in sorted
/// duplicate-free `other`, in place and allocation-free, by a linear
/// merge walk. `buf` must be sorted and duplicate-free (as produced by
/// [`intersect_into_merge`]).
pub fn refine_in_place_merge(buf: &mut Vec<VertexId>, other: &[VertexId]) {
    let mut write = 0usize;
    let mut j = 0usize;
    for read in 0..buf.len() {
        let x = buf[read];
        while j < other.len() && other[j] < x {
            j += 1;
        }
        if j == other.len() {
            break;
        }
        if other[j] == x {
            buf[write] = x;
            write += 1;
            j += 1;
        }
    }
    buf.truncate(write);
}

/// [`refine_in_place_merge`] by galloping through `other`.
pub fn refine_in_place_gallop(buf: &mut Vec<VertexId>, other: &[VertexId]) {
    let mut write = 0usize;
    let mut from = 0usize; // cursor into `other`, monotone
    for read in 0..buf.len() {
        let x = buf[read];
        let i = gallop(&other[from..], x);
        if from + i == other.len() {
            break;
        }
        if other[from + i] == x {
            buf[write] = x;
            write += 1;
        }
        from += i;
    }
    buf.truncate(write);
}

/// A u64-word bitset over vertex ids, reused across candidate sets.
///
/// The counting kernel builds one bitset per recursion depth over the
/// neighbour list of a *stable* bound variable (one whose binding changes
/// rarely), then ANDs the remaining neighbour lists against it word-at-a-
/// time: each probe is a shift and mask, and a run of probes landing in a
/// zero word is skipped in one comparison — so the skip rate depends on
/// how the candidate ids cluster. [`reset`](Self::reset) zeroes
/// only the word range the previous members occupied, so repeated resets
/// stay O(|members|) rather than O(|domain|), and no method allocates
/// after construction.
#[derive(Debug)]
pub struct VertexBitset {
    words: Vec<u64>,
    /// Active word range `[lo, hi)` — all words outside it are zero.
    lo: usize,
    hi: usize,
    /// Number of set bits (members are duplicate-free by contract).
    len: usize,
}

impl VertexBitset {
    /// A bitset able to hold vertex ids `0..num_vertices`. The only
    /// allocation this type ever performs.
    pub fn with_domain(num_vertices: usize) -> Self {
        VertexBitset {
            words: vec![0u64; num_vertices.div_ceil(64)],
            lo: 0,
            hi: 0,
            len: 0,
        }
    }

    /// Number of members in the current set.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all members, zeroing only the previously active word range.
    pub fn clear(&mut self) {
        for w in &mut self.words[self.lo..self.hi] {
            *w = 0;
        }
        self.lo = 0;
        self.hi = 0;
        self.len = 0;
    }

    /// Replace the member set. `members` must be sorted, duplicate-free
    /// and within the domain the bitset was constructed for.
    pub fn reset(&mut self, members: &[VertexId]) {
        self.clear();
        let (Some(&first), Some(&last)) = (members.first(), members.last()) else {
            return;
        };
        debug_assert!(
            (last as usize) < self.words.len() * 64,
            "member out of domain"
        );
        self.lo = first as usize >> 6;
        self.hi = (last as usize >> 6) + 1;
        for &v in members {
            self.words[v as usize >> 6] |= 1u64 << (v & 63);
        }
        self.len = members.len();
    }

    /// Membership test; ids beyond the domain are simply absent.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let w = v as usize >> 6;
        w < self.hi && self.words[w] & (1u64 << (v & 63)) != 0
    }

    /// Append the members of sorted duplicate-free `probe` that are also
    /// in the set to `out` — the bitset-side intersection kernel. Probes
    /// sharing a word load it once; a zero word skips its whole run.
    pub fn filter_into(&self, probe: &[VertexId], out: &mut Vec<VertexId>) {
        self.walk(probe, |v| out.push(v));
    }

    /// Count the members of sorted duplicate-free `probe` that are also
    /// in the set, without writing them anywhere — the counting-only
    /// variant of [`filter_into`](Self::filter_into).
    pub fn count_hits(&self, probe: &[VertexId]) -> usize {
        let mut hits = 0usize;
        self.walk(probe, |_| hits += 1);
        hits
    }

    #[inline]
    fn walk(&self, probe: &[VertexId], mut on_hit: impl FnMut(VertexId)) {
        let mut i = 0usize;
        while i < probe.len() {
            let w = probe[i] as usize >> 6;
            if w >= self.hi {
                // `probe` is sorted: every later probe lands in an even
                // higher word, all zero.
                return;
            }
            let word = self.words[w];
            if word == 0 {
                i += 1;
                while i < probe.len() && probe[i] as usize >> 6 == w {
                    i += 1;
                }
                continue;
            }
            while i < probe.len() {
                let v = probe[i];
                if v as usize >> 6 != w {
                    break;
                }
                if word & (1u64 << (v & 63)) != 0 {
                    on_hit(v);
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The intersection by both strategies, which must agree.
    fn isect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        let mut out = Vec::new();
        intersect_into_merge(a, b, &mut out);
        let mut galloped = Vec::new();
        intersect_into_gallop(a, b, &mut galloped);
        assert_eq!(galloped, out, "a={a:?} b={b:?}");
        out
    }

    /// `buf` refined by `other` through both strategies, which must agree.
    fn refine(buf: &mut Vec<VertexId>, other: &[VertexId]) {
        let mut galloped = buf.clone();
        refine_in_place_gallop(&mut galloped, other);
        refine_in_place_merge(buf, other);
        assert_eq!(*buf, galloped, "other={other:?}");
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let a = [2, 4, 6, 8, 10];
        assert_eq!(gallop(&a, 0), 0);
        assert_eq!(gallop(&a, 2), 0);
        assert_eq!(gallop(&a, 3), 1);
        assert_eq!(gallop(&a, 10), 4);
        assert_eq!(gallop(&a, 11), 5);
        assert_eq!(gallop(&[], 5), 0);
    }

    #[test]
    fn gallop_one_element() {
        assert_eq!(gallop(&[7], 6), 0);
        assert_eq!(gallop(&[7], 7), 0);
        assert_eq!(gallop(&[7], 8), 1);
    }

    #[test]
    fn merge_and_gallop_regimes_agree() {
        // comparable lengths
        assert_eq!(isect(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        // skewed lengths (ratio ≥ GALLOP_RATIO)
        let large: Vec<VertexId> = (0..200).map(|i| i * 2).collect();
        assert_eq!(isect(&[5, 40, 41, 398], &large), vec![40, 398]);
        assert_eq!(isect(&large, &[5, 40, 41, 398]), vec![40, 398]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(isect(&[], &[1, 2, 3]), Vec::<VertexId>::new());
        assert_eq!(isect(&[1, 2, 3], &[]), Vec::<VertexId>::new());
        assert_eq!(isect(&[], &[]), Vec::<VertexId>::new());
    }

    #[test]
    fn refine_keeps_common_elements() {
        let mut buf = vec![1, 4, 6, 9, 12];
        refine(&mut buf, &[0, 4, 5, 9, 13]);
        assert_eq!(buf, vec![4, 9]);
        refine(&mut buf, &[]);
        assert!(buf.is_empty());
    }

    #[test]
    fn refine_gallop_regime() {
        let other: Vec<VertexId> = (0..500).map(|i| i * 3).collect();
        let mut buf = vec![3, 4, 299, 300, 1497];
        refine(&mut buf, &other);
        assert_eq!(buf, vec![3, 300, 1497]);
    }

    #[test]
    fn output_is_sorted_and_duplicate_free() {
        // exhaustive over small subsets of 0..8
        for am in 0u16..256 {
            for bm in 0u16..256 {
                let a: Vec<VertexId> = (0..8).filter(|i| am & (1 << i) != 0).collect();
                let b: Vec<VertexId> = (0..8).filter(|i| bm & (1 << i) != 0).collect();
                let got = isect(&a, &b);
                let want: Vec<VertexId> = a.iter().copied().filter(|x| b.contains(x)).collect();
                assert_eq!(got, want, "a={a:?} b={b:?}");
                let mut refined = a.clone();
                refine(&mut refined, &b);
                assert_eq!(refined, want, "refine a={a:?} b={b:?}");
            }
        }
    }

    /// Intersect via the bitset path: candidate set → bitset, then filter
    /// the probe list through it.
    fn bitset_isect(domain: usize, cand: &[VertexId], probe: &[VertexId]) -> Vec<VertexId> {
        let mut bs = VertexBitset::with_domain(domain);
        bs.reset(cand);
        assert_eq!(bs.len(), cand.len());
        let mut out = Vec::new();
        bs.filter_into(probe, &mut out);
        assert_eq!(bs.count_hits(probe), out.len());
        out
    }

    #[test]
    fn bitset_word_edge_boundaries() {
        // Off-by-one around the u64 word edge: members and probes at 63,
        // 64, 127, 128 — the first/last bit of adjacent words.
        let cand: Vec<VertexId> = vec![0, 63, 64, 127, 128];
        for probe in [
            vec![63],
            vec![64],
            vec![62, 63, 64, 65],
            vec![126, 127, 128, 129],
            vec![0, 63, 64, 127, 128],
        ] {
            let mut want = Vec::new();
            intersect_into_merge(&cand, &probe, &mut want);
            assert_eq!(bitset_isect(129, &cand, &probe), want, "probe={probe:?}");
        }
    }

    #[test]
    fn bitset_empty_and_full_candidate_sets() {
        let probe: Vec<VertexId> = (0..130).step_by(3).collect();
        assert_eq!(bitset_isect(130, &[], &probe), Vec::<VertexId>::new());
        let full: Vec<VertexId> = (0..130).collect();
        assert_eq!(bitset_isect(130, &full, &probe), probe);
        // Probe entirely past the active range exits on the hi-word check.
        assert_eq!(
            bitset_isect(200, &[0, 1], &[190, 199]),
            Vec::<VertexId>::new()
        );
        // Empty probe.
        assert_eq!(bitset_isect(200, &full, &[]), Vec::<VertexId>::new());
    }

    #[test]
    fn bitset_single_word_domain() {
        // Domains of 1..=64 vertices occupy exactly one word.
        for n in [1usize, 2, 63, 64] {
            let cand: Vec<VertexId> = (0..n as VertexId).filter(|v| v % 2 == 0).collect();
            let probe: Vec<VertexId> = (0..n as VertexId).collect();
            let want: Vec<VertexId> = cand.clone();
            assert_eq!(bitset_isect(n, &cand, &probe), want, "n={n}");
        }
    }

    #[test]
    fn bitset_reset_reuses_buffer_and_clears_stale_words() {
        let mut bs = VertexBitset::with_domain(512);
        bs.reset(&[500, 511]);
        assert!(bs.contains(511));
        // A reset to a lower word range must not leave stale high bits.
        bs.reset(&[3, 64]);
        assert!(!bs.contains(500) && !bs.contains(511));
        assert!(bs.contains(3) && bs.contains(64));
        assert_eq!(bs.count_hits(&[3, 64, 500, 511]), 2);
        bs.clear();
        assert!(bs.is_empty());
        assert_eq!(bs.count_hits(&[3, 64]), 0);
    }

    #[test]
    fn bitset_matches_merge_on_random_pairs() {
        // Seeded fuzz: 400 random candidate-set/neighbour-list pairs over
        // mixed densities and domains that straddle word boundaries.
        // xorshift64* — deterministic, no external RNG dependency
        fn rnd(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            s.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn draw(s: &mut u64, domain: usize, density_pct: u64) -> Vec<VertexId> {
            (0..domain as VertexId)
                .filter(|_| rnd(s) % 100 < density_pct)
                .collect()
        }
        let mut state = 0x2022_c4e6_u64; // fixed seed
        for round in 0..400 {
            let domain = 1 + (rnd(&mut state) % 300) as usize;
            let cd = 1 + rnd(&mut state) % 99;
            let pd = 1 + rnd(&mut state) % 99;
            let cand = draw(&mut state, domain, cd);
            let probe = draw(&mut state, domain, pd);
            let mut want = Vec::new();
            intersect_into_merge(&cand, &probe, &mut want);
            assert_eq!(
                bitset_isect(domain, &cand, &probe),
                want,
                "round={round} domain={domain} cand={cand:?} probe={probe:?}"
            );
        }
    }
}
