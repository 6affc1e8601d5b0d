//! Candidate sets: intersections of sorted neighbour slices.
//!
//! The counting kernel generates the candidate set of a query variable as
//! the intersection of the CSR neighbour lists induced by its already-bound
//! neighbours. Those lists are sorted and duplicate-free, and every
//! pairwise step here gallops: the shorter slice is probed through the
//! longer one by exponential search, O(small · log(large / small)) — the
//! worst-case-optimal-join access pattern. The k-way step
//! ([`intersect_k_into`]) seeds a reusable buffer with the two smallest
//! lists ([`intersect_into`]) and refines it in place by the rest
//! ([`refine_in_place`]), so its cost is bounded by the smallest list and
//! a warm kernel allocates nothing here.
//!
//! Dense candidate sets probed many times are served by [`VertexBitset`]:
//! the kernel builds a u64-word bitset over one depth's *stable* neighbour
//! list once, then ANDs the other lists against it word-at-a-time. Each
//! probe costs one shift and mask, runs of probes falling into a zero word
//! are skipped wholesale, and the bitset is rebuilt only when the stable
//! binding changes. Where the probe is tiny against the cached set, the
//! kernel gallops it through the stable list instead ([`gallop_count`]
//! in the count-only case).

use ceg_graph::VertexId;

/// First index `i` in sorted `a` with `a[i] >= target` (i.e. the lower
/// bound), found by exponential probing from the front. O(log i).
#[inline]
fn gallop(a: &[VertexId], target: VertexId) -> usize {
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

/// Gallop the shorter of `a` and `b` through the longer one, calling
/// `on_hit` for each common element in ascending order. The cursor into
/// the longer slice only moves forward.
#[inline]
fn gallop_walk(a: &[VertexId], b: &[VertexId], mut on_hit: impl FnMut(VertexId)) {
    let (small, mut rest) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for &x in small {
        let i = gallop(rest, x);
        if i == rest.len() {
            return;
        }
        if rest[i] == x {
            on_hit(x);
        }
        rest = &rest[i..];
    }
}

/// Append the intersection of sorted duplicate-free `a` and `b` to `out`.
pub(crate) fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    gallop_walk(a, b, |x| out.push(x));
}

/// The number of elements `a` and `b` (sorted, duplicate-free) share,
/// written nowhere: the count-only twin of [`intersect_into`].
pub(crate) fn gallop_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut hits = 0usize;
    gallop_walk(a, b, |_| hits += 1);
    hits
}

/// Retain only the elements of `buf` that also occur in `other`, in place
/// and allocation-free, by galloping through `other`. Both must be sorted
/// and duplicate-free.
pub(crate) fn refine_in_place(buf: &mut Vec<VertexId>, other: &[VertexId]) {
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

/// Intersect `lists` (each sorted and duplicate-free) into `out`, counting
/// each pairwise step under `steps`.
///
/// `out` is cleared first; `lists` is reordered (sorted by length so the
/// smallest pair seeds the buffer). With zero lists the result is empty —
/// the caller owns the "no constraint" case; with one list the slice is
/// copied verbatim (the kernel iterates a single slice directly instead).
pub(crate) fn intersect_k_into(
    lists: &mut [&[VertexId]],
    out: &mut Vec<VertexId>,
    steps: &mut u64,
) {
    out.clear();
    match lists.len() {
        0 => {}
        1 => out.extend_from_slice(lists[0]),
        _ => {
            lists.sort_unstable_by_key(|l| l.len());
            if lists[0].is_empty() {
                return;
            }
            *steps += 1;
            intersect_into(lists[0], lists[1], out);
            for l in &lists[2..] {
                if out.is_empty() {
                    return;
                }
                *steps += 1;
                refine_in_place(out, l);
            }
        }
    }
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
pub(crate) struct VertexBitset {
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
    pub(crate) fn with_domain(num_vertices: usize) -> Self {
        VertexBitset {
            words: vec![0u64; num_vertices.div_ceil(64)],
            lo: 0,
            hi: 0,
            len: 0,
        }
    }

    /// Number of members in the current set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all members, zeroing only the previously active word range.
    fn clear(&mut self) {
        for w in &mut self.words[self.lo..self.hi] {
            *w = 0;
        }
        self.lo = 0;
        self.hi = 0;
        self.len = 0;
    }

    /// Replace the member set. `members` must be sorted, duplicate-free
    /// and within the domain the bitset was constructed for.
    pub(crate) fn reset(&mut self, members: &[VertexId]) {
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

    /// Append the members of sorted duplicate-free `probe` that are also
    /// in the set to `out` — the bitset-side intersection kernel. Probes
    /// sharing a word load it once; a zero word skips its whole run.
    pub(crate) fn filter_into(&self, probe: &[VertexId], out: &mut Vec<VertexId>) {
        self.walk(probe, |v| out.push(v));
    }

    /// Count the members of sorted duplicate-free `probe` that are also
    /// in the set, without writing them anywhere — the counting-only
    /// variant of [`filter_into`](Self::filter_into).
    pub(crate) fn count_hits(&self, probe: &[VertexId]) -> usize {
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

    /// The reference: the elements of `a` that a binary search finds in
    /// `b`. It shares no code with the primitives under test.
    fn naive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        a.iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok())
            .collect()
    }

    /// The intersection by [`intersect_into`], checked against [`naive`]
    /// and [`gallop_count`].
    fn isect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        assert_eq!(out, naive(a, b), "a={a:?} b={b:?}");
        assert_eq!(gallop_count(a, b), out.len(), "a={a:?} b={b:?}");
        out
    }

    /// `buf` refined by `other`, checked against [`naive`].
    fn refine(buf: &mut Vec<VertexId>, other: &[VertexId]) {
        let want = naive(buf, other);
        refine_in_place(buf, other);
        assert_eq!(*buf, want, "other={other:?}");
    }

    fn kway(lists: &[&[VertexId]]) -> Vec<VertexId> {
        let mut ls: Vec<&[VertexId]> = lists.to_vec();
        let mut out = vec![99]; // pre-seeded: must be cleared
        intersect_k_into(&mut ls, &mut out, &mut 0);
        out
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
    fn gallop_matches_naive_at_every_length_ratio() {
        // comparable lengths
        assert_eq!(isect(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        // skewed lengths, either side the shorter
        let large: Vec<VertexId> = (0..200).map(|i| i * 2).collect();
        assert_eq!(isect(&[5, 40, 41, 398], &large), vec![40, 398]);
        assert_eq!(isect(&large, &[5, 40, 41, 398]), vec![40, 398]);
        // identical lists
        assert_eq!(isect(&large, &large), large);
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
                assert!(got.windows(2).all(|w| w[0] < w[1]), "a={a:?} b={b:?}");
                let mut refined = a.clone();
                refine(&mut refined, &b);
                assert_eq!(refined, got, "refine a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn zero_and_one_list() {
        assert_eq!(kway(&[]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&[3, 5, 8]]), vec![3, 5, 8]);
    }

    #[test]
    fn empty_list_short_circuits() {
        assert_eq!(kway(&[&[1, 2, 3], &[]]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&[], &[1, 2], &[2, 3]]), Vec::<VertexId>::new());
    }

    #[test]
    fn three_way_intersection() {
        assert_eq!(
            kway(&[&[1, 2, 3, 4, 5, 9], &[2, 4, 5, 9], &[0, 4, 9, 11]]),
            vec![4, 9]
        );
    }

    #[test]
    fn one_element_gallop() {
        // single-element small side against a long list
        let large: Vec<VertexId> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(kway(&[&[500], &large]), vec![500]);
        assert_eq!(kway(&[&[501], &large]), Vec::<VertexId>::new());
        assert_eq!(kway(&[&large, &[1998]]), vec![1998]);
    }

    #[test]
    fn duplicate_free_invariant() {
        // duplicate-free sorted inputs → duplicate-free sorted output,
        // even with identical lists repeated
        let a: &[VertexId] = &[1, 4, 7, 9];
        let got = kway(&[a, a, a]);
        assert_eq!(got, vec![1, 4, 7, 9]);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reuses_buffer_without_reallocating() {
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        let mut steps = 0;
        for _ in 0..10 {
            let mut ls: Vec<&[VertexId]> = vec![&[1, 2, 3, 5], &[2, 3, 5, 8], &[3, 5]];
            intersect_k_into(&mut ls, &mut out, &mut steps);
            assert_eq!(out, vec![3, 5]);
        }
        assert_eq!(out.capacity(), cap);
        // A seed and one refinement per run.
        assert_eq!(steps, 20);
    }

    /// Intersect via the bitset path: candidate set → bitset, then filter
    /// the probe list through it; checked against [`naive`].
    fn bitset_isect(domain: usize, cand: &[VertexId], probe: &[VertexId]) -> Vec<VertexId> {
        let mut bs = VertexBitset::with_domain(domain);
        bs.reset(cand);
        assert_eq!(bs.len(), cand.len());
        let mut out = Vec::new();
        bs.filter_into(probe, &mut out);
        assert_eq!(out, naive(probe, cand), "cand={cand:?} probe={probe:?}");
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
            bitset_isect(129, &cand, &probe);
        }
        assert_eq!(bitset_isect(129, &cand, &[62, 63, 64, 65]), vec![63, 64]);
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
            assert_eq!(bitset_isect(n, &cand, &probe), cand, "n={n}");
        }
    }

    #[test]
    fn bitset_reset_reuses_buffer_and_clears_stale_words() {
        let mut bs = VertexBitset::with_domain(512);
        bs.reset(&[500, 511]);
        assert_eq!(bs.count_hits(&[511]), 1);
        // A reset to a lower word range must not leave stale high bits.
        bs.reset(&[3, 64]);
        assert_eq!(bs.count_hits(&[500, 511]), 0);
        assert_eq!(bs.count_hits(&[3, 64, 500, 511]), 2);
        bs.reset(&[]);
        assert!(bs.is_empty());
        assert_eq!(bs.count_hits(&[3, 64]), 0);
    }

    #[test]
    fn bitset_matches_naive_on_random_pairs() {
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
        for _ in 0..400 {
            let domain = 1 + (rnd(&mut state) % 300) as usize;
            let cd = 1 + rnd(&mut state) % 99;
            let pd = 1 + rnd(&mut state) % 99;
            let cand = draw(&mut state, domain, cd);
            let probe = draw(&mut state, domain, pd);
            bitset_isect(domain, &cand, &probe);
            // The gallop primitives on the same pairs.
            isect(&cand, &probe);
        }
    }
}
