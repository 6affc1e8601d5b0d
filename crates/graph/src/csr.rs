//! Compressed sparse row adjacency index, in pages.
//!
//! One [`Csr`] stores the adjacency of a single relation in a single
//! direction: `neighbors(v)` returns the sorted list of endpoints reachable
//! from `v` through edges of that relation. Sorted neighbour slices give
//! O(log d) membership tests and galloping intersection during matching.
//!
//! Only the *active* vertices — those with at least one neighbour — own a
//! row. The vertex domain is cut into pages of [`Csr::PAGE_SIZE`]
//! consecutive ids, and each page that holds a row is a self-contained,
//! `Arc`-shared mini-CSR in one `u32` array: a one-word summary of which
//! of its 64 words of 64 ids hold a row, a six-bit index per word (the
//! non-empty words before it), then only the non-empty words, each a
//! presence bitmap with a page-local `u16` rank, then `u32` offsets and
//! the targets. The page table is only as long as the last occupied page
//! and holds `None` for an empty one. `neighbors(v)` is a page lookup, a
//! summary bit test, the word index, a bit test in the word, one
//! `count_ones` and two offset reads — O(1); the common probe of a
//! vertex the relation does not touch ends at the summary, the first
//! load into the page.
//!
//! A relation costs its edges and rows, 80 B per occupied page (the
//! `Arc`'s counts, the summary, the word index, the word count and the
//! largest row) and 10 B per non-empty word — never a bit per vertex of
//! the domain: a vertex id far past the others costs one page and a
//! longer page table. And [`Csr::rebase`] rebuilds only the pages its
//! delta touches; every other page is the predecessor's allocation,
//! shared. Everything that used to sweep the domain walks [`Csr::rows`]
//! instead.

use std::sync::Arc;

use crate::VertexId;

/// log2 of [`Csr::PAGE_SIZE`].
const PAGE_BITS: u32 = 12;

/// Directory words per page: a page-local rank is below 4,096 and fits
/// a `u16`.
const WORDS: usize = 1 << (PAGE_BITS - 6);

/// The page of vertex `v`.
#[inline]
fn page_of(v: VertexId) -> usize {
    (v >> PAGE_BITS) as usize
}

/// The first vertex id of page `p`.
#[inline]
fn page_base(p: usize) -> VertexId {
    (p << PAGE_BITS) as VertexId
}

/// The rows of [`Csr::PAGE_SIZE`] consecutive vertex ids, at least one
/// of them non-empty: a CSR over the page alone, in one shared array.
/// With `n` of its 64-id words non-empty, it holds
/// - the summary, low half first: bit `w` is set iff the page's `w`-th
///   word holds a row;
/// - the word index: six bits per word, word `w`'s at bit `6 * w` of the
///   `u32`s read as one little-endian string: the number of non-empty
///   words before `w`. It is the summary's popcount below `w`, stored,
///   because the baseline x86-64 target has no popcount instruction and
///   a probe would otherwise pay a dozen dependent operations for it;
/// - `n`;
/// - the page's largest row;
/// - the `n` non-empty words' bitmaps, ascending, each as its low and
///   high `u32`: bit `i` of word `w`'s is set iff vertex `64 * w + i`
///   of the page has a row;
/// - their `u16` ranks, two to a `u32`, low half first: the `k`-th is
///   the page's rows in the words before it;
/// - the `rows + 1` offsets, absolute indexes into the array: row `r` in
///   id order is `[offsets[r]..offsets[r + 1]]`;
/// - the concatenated, per-vertex-sorted neighbour lists. Rows are never
///   empty.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page(Arc<[u32]>);

/// Where a page's word index starts, after its summary.
const INDEX: usize = 2;

/// Where a page holds `n`, after its word index.
const NUM_WORDS: usize = INDEX + 6 * WORDS / 32;

/// Where a page holds its largest row.
const MAX_DEGREE: usize = NUM_WORDS + 1;

/// `u32`s before a page's word bitmaps: the summary, the word index, `n`
/// and the largest row.
const HEAD: usize = MAX_DEGREE + 1;

/// The longest head and directory, all 64 words non-empty.
const DIRECTORY_MAX: usize = HEAD + 2 * WORDS + WORDS / 2;

/// The set bit positions of `word`, ascending.
fn bits_of(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros();
            word &= word - 1;
            b
        })
    })
}

/// The `u64` whose low half is `at[0]` and high half `at[1]`.
#[inline]
fn u64_at(at: &[u32]) -> u64 {
    u64::from(at[0]) | u64::from(at[1]) << 32
}

/// Where the offsets of a page with `n` non-empty words start: after
/// the head, two `u32` per word and the ranks at two per `u32`.
#[inline]
fn offsets_at(n: usize) -> usize {
    HEAD + 2 * n + n.div_ceil(2)
}

/// The head and directory of a page whose rows `present` marks, and
/// their length.
fn directory(present: &[u64; WORDS], max_degree: u32) -> ([u32; DIRECTORY_MAX], usize) {
    let mut out = [0; DIRECTORY_MAX];
    let (mut summary, mut n) = (0u64, 0);
    for (w, &word) in present.iter().enumerate() {
        // The words before `w` that hold a row, at bit `6 * w`.
        let bit = 6 * w;
        let index = (n as u64) << (bit % 32);
        out[INDEX + bit / 32] |= index as u32;
        out[INDEX + bit / 32 + 1] |= (index >> 32) as u32;
        if word != 0 {
            summary |= 1 << w;
            n += 1;
        }
    }
    out[..INDEX].copy_from_slice(&[summary as u32, (summary >> 32) as u32]);
    out[NUM_WORDS] = n as u32;
    out[MAX_DEGREE] = max_degree;
    let mut rows = 0;
    for (k, &word) in present.iter().filter(|&&word| word != 0).enumerate() {
        out[HEAD + 2 * k..HEAD + 2 * k + 2].copy_from_slice(&[word as u32, (word >> 32) as u32]);
        out[HEAD + 2 * n + k / 2] |= rows << (16 * (k % 2));
        rows += word.count_ones();
    }
    (out, offsets_at(n))
}

impl Page {
    /// A page of `len` `u32`s: `directory`, then what `fill` writes into
    /// the rest (zeros where it writes nothing). One allocation at its
    /// final size, written in place: no scratch array grows and is freed
    /// beside it.
    fn new(directory: &[u32], len: usize, fill: impl FnOnce(&mut [u32])) -> Page {
        let mut data: Arc<[u32]> = std::iter::repeat_n(0, len).collect();
        let out = Arc::get_mut(&mut data).expect("a new page is unique");
        let (head, rest) = out.split_at_mut(directory.len());
        head.copy_from_slice(directory);
        fill(rest);
        Page(data)
    }

    /// The summary, the word index, `n` and the largest row.
    #[inline]
    fn head(&self) -> &[u32; HEAD] {
        self.0[..HEAD].try_into().expect("a page has a head")
    }

    /// Bit `w` is set iff the page's `w`-th word holds a row.
    #[inline]
    fn summary(&self) -> u64 {
        u64_at(self.head())
    }

    /// The number of non-empty words before word `w`, from the word
    /// index.
    #[inline]
    fn index(&self, w: usize) -> usize {
        let bit = 6 * (w % WORDS);
        (u64_at(&self.head()[INDEX + bit / 32..]) >> (bit % 32) & 63) as usize
    }

    /// The page's largest row.
    fn max_degree(&self) -> u32 {
        self.head()[MAX_DEGREE]
    }

    /// Number of non-empty words.
    #[inline]
    fn words(&self) -> usize {
        self.head()[NUM_WORDS] as usize
    }

    /// The bitmap of the `k`-th non-empty word.
    #[inline]
    fn word(&self, k: usize) -> u64 {
        u64_at(&self.0[HEAD + 2 * k..][..2])
    }

    /// The rank of the `k`-th non-empty word: the page's rows in the
    /// words before it.
    #[inline]
    fn rank(&self, k: usize) -> usize {
        (self.0[HEAD + 2 * self.words() + k / 2] >> (16 * (k % 2)) & 0xffff) as usize
    }

    /// The offsets: row `r` is `[offsets[r]..offsets[r + 1]]`.
    #[inline]
    fn offsets(&self) -> &[u32] {
        let at = offsets_at(self.words());
        &self.0[at..self.0[at] as usize]
    }

    /// The neighbour lists, concatenated.
    #[inline]
    fn targets(&self) -> &[VertexId] {
        &self.0[self.0[offsets_at(self.words())] as usize..]
    }

    /// Number of rows.
    #[inline]
    fn num_rows(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Index of the offset of the row of the page's `i`-th vertex, if it
    /// has one: the summary's bit test (the one load for an id in an
    /// empty word), the word index, the word's bit test, its rank and the
    /// popcount of the word's bits below.
    #[inline(always)]
    fn row_index(&self, i: u32) -> Option<usize> {
        let w = (i >> 6) as usize % WORDS;
        if self.summary() >> w & 1 == 0 {
            return None;
        }
        let k = self.index(w);
        let word = self.word(k);
        let bit = 1u64 << (i & 63);
        (word & bit != 0).then(|| {
            offsets_at(self.words()) + self.rank(k) + (word & (bit - 1)).count_ones() as usize
        })
    }

    /// Sorted neighbours of the page's `i`-th vertex. Always inlined, with
    /// [`Page::row_index`]: `#[inline]` leaves them a call per probe,
    /// which the counting kernels feel.
    #[inline(always)]
    fn neighbors(&self, i: u32) -> &[VertexId] {
        match self.row_index(i) {
            Some(r) => &self.0[self.0[r] as usize..self.0[r + 1] as usize],
            None => &[],
        }
    }

    /// `(vertex, neighbours)` over the rows, ascending, for a page
    /// starting at `base`.
    fn rows(&self, base: VertexId) -> Rows<'_> {
        let mut rows = Rows::new(&[]);
        rows.enter(self, base);
        rows
    }

    /// Bytes of the page's allocation: the array and the `Arc`'s counts.
    fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + self.0.len() * 4
    }
}

/// The rows of a run of pages, ascending: one non-empty word of a page's
/// directory at a time, one set bit at a time, beside the page's
/// offsets. One flat iterator rather than nested adaptors: a sweep of a
/// relation is the tree DP's inner loop.
struct Rows<'a> {
    /// The page slots still to walk, with their page numbers.
    rest: std::iter::Enumerate<std::slice::Iter<'a, Option<Page>>>,
    /// The page being walked: its first vertex id, the summary bits of
    /// its words not yet begun, the bitmaps of those words, and the word
    /// being walked with what is left of it.
    base: VertexId,
    summary: u64,
    words: &'a [u32],
    w: u32,
    word: u64,
    /// The page's offsets from the next row's on, and the array they
    /// index.
    offsets: &'a [u32],
    data: &'a [u32],
}

impl<'a> Rows<'a> {
    /// The rows of `pages`, page `p` holding ids `p * PAGE_SIZE ..`.
    fn new(pages: &'a [Option<Page>]) -> Rows<'a> {
        Rows {
            rest: pages.iter().enumerate(),
            base: 0,
            summary: 0,
            words: &[],
            w: 0,
            word: 0,
            offsets: &[],
            data: &[],
        }
    }

    /// Start walking `page`, whose first vertex id is `base`.
    fn enter(&mut self, page: &'a Page, base: VertexId) {
        self.base = base;
        self.summary = page.summary();
        self.words = &page.0[HEAD..HEAD + 2 * page.words()];
        self.word = 0;
        self.offsets = page.offsets();
        self.data = &page.0;
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = (VertexId, &'a [VertexId]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.offsets.len() < 2 {
            let (p, page) = self.rest.find_map(|(p, page)| Some((p, page.as_ref()?)))?;
            self.enter(page, page_base(p));
        }
        // A row is left, so a word with a bit is too.
        while self.word == 0 {
            self.w = self.summary.trailing_zeros();
            self.summary &= self.summary - 1;
            self.word = u64_at(self.words);
            self.words = &self.words[2..];
        }
        let b = self.word.trailing_zeros();
        self.word &= self.word - 1;
        let (start, end) = (self.offsets[0] as usize, self.offsets[1] as usize);
        self.offsets = &self.offsets[1..];
        let v = self.base + self.w * 64 + b;
        Some((v, &self.data[start..end]))
    }
}

/// CSR index over one direction of one relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// Size of the vertex domain the index was built over.
    num_vertices: usize,
    /// Page `p` holds the rows of vertices `p * PAGE_SIZE ..`; `None`
    /// for a page without rows. Ends at the last occupied page.
    pages: Vec<Option<Page>>,
    /// `edges_before[p]` = number of edges in the pages below `p`.
    edges_before: Vec<u32>,
    /// Cached totals over the pages (the index is immutable after
    /// construction; pessimistic bounds and matcher buffer sizing query
    /// these hot).
    num_edges: usize,
    num_active: usize,
    max_degree: u32,
}

/// Builds a [`Csr`] in ascending vertex order: rows are appended to the
/// open page, whose arrays are scratch reused from page to page and
/// copied out at their exact size when it is sealed, and whole pages
/// can be shared from another index.
struct Builder {
    num_vertices: usize,
    pages: Vec<Option<Page>>,
    /// The page the scratch below fills.
    open: usize,
    present: [u64; WORDS],
    /// Starts at `[0]`: one offset per row appended to the open page.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    max_degree: u32,
}

impl Builder {
    fn new(num_vertices: usize) -> Builder {
        Builder {
            num_vertices,
            pages: Vec::new(),
            open: 0,
            present: [0; WORDS],
            offsets: vec![0],
            targets: Vec::new(),
            max_degree: 0,
        }
    }

    /// Append the row of `v`, which is above every row appended so far:
    /// `fill` pushes its neighbours, ascending. A row `fill` leaves
    /// empty is simply absent.
    fn row(&mut self, v: VertexId, fill: impl FnOnce(&mut Vec<VertexId>)) {
        assert!((v as usize) < self.num_vertices, "row outside the domain");
        let p = page_of(v);
        if p != self.open {
            debug_assert!(p > self.open || self.targets.is_empty());
            self.seal();
            self.open = p;
        }
        let start = self.targets.len();
        fill(&mut self.targets);
        let degree = self.targets.len() - start;
        if degree == 0 {
            return;
        }
        let i = v as usize % Csr::PAGE_SIZE;
        self.present[i >> 6] |= 1u64 << (i & 63);
        self.offsets.push(self.targets.len() as u32);
        self.max_degree = self.max_degree.max(degree as u32);
    }

    /// Put `page`, unchanged, in slot `p`, above every row appended so
    /// far.
    fn share(&mut self, p: usize, page: &Page) {
        self.seal();
        debug_assert!(p >= self.pages.len());
        *self.slot(p) = Some(page.clone());
        self.open = p + 1;
    }

    /// Slot `p` of the page table, grown to reach it.
    fn slot(&mut self, p: usize) -> &mut Option<Page> {
        if self.pages.len() <= p {
            self.pages.resize(p + 1, None);
        }
        &mut self.pages[p]
    }

    /// Close the open page; one without rows leaves its slot `None`.
    fn seal(&mut self) {
        if self.targets.is_empty() {
            return;
        }
        let (directory, at) = directory(&self.present, self.max_degree);
        let shift = at + self.offsets.len();
        let page = Page::new(&directory[..at], shift + self.targets.len(), |rest| {
            let (offsets, targets) = rest.split_at_mut(self.offsets.len());
            for (o, &offset) in offsets.iter_mut().zip(&self.offsets) {
                *o = offset + shift as u32;
            }
            targets.copy_from_slice(&self.targets);
        });
        *self.slot(self.open) = Some(page);
        self.present = [0; WORDS];
        self.offsets.truncate(1);
        self.targets.clear();
        self.max_degree = 0;
    }

    fn finish(mut self) -> Csr {
        self.seal();
        Csr::from_pages(self.num_vertices, self.pages)
    }
}

impl Csr {
    /// Consecutive vertex ids per page: 64 directory words.
    pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

    /// Build a CSR from `(from, to)` pairs over a domain of `num_vertices`.
    ///
    /// Pairs may arrive in any order; duplicates must already be removed by
    /// the caller (the [`crate::GraphBuilder`] does this).
    pub fn from_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        Csr::from_sorted_pairs(num_vertices, &pairs)
    }

    /// [`Csr::from_pairs`] of pairs already sorted lexicographically and
    /// duplicate-free, without the copy and the sort.
    pub(crate) fn from_sorted_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        debug_assert!(pairs.is_sorted_by(|a, b| a < b));
        // Lexicographic order groups each source's targets, already
        // sorted, into one run per row.
        let mut out = Builder::new(num_vertices);
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            out.row(run[0].0, |t| t.extend(run.iter().map(|p| p.1)));
        }
        out.finish()
    }

    /// The index over `pages`, its trailing empty slots dropped, with its
    /// totals summed once.
    fn from_pages(num_vertices: usize, mut pages: Vec<Option<Page>>) -> Csr {
        while pages.last().is_some_and(Option::is_none) {
            pages.pop();
        }
        pages.shrink_to_fit();
        let mut csr = Csr {
            num_vertices,
            edges_before: Vec::with_capacity(pages.len()),
            ..Csr::default()
        };
        for page in &pages {
            csr.edges_before.push(csr.num_edges as u32);
            if let Some(page) = page {
                csr.num_edges += page.targets().len();
                csr.num_active += page.num_rows();
                csr.max_degree = csr.max_degree.max(page.max_degree());
            }
        }
        csr.pages = pages;
        csr
    }

    /// Page `p`, if it is occupied.
    fn page(&self, p: usize) -> Option<&Page> {
        self.pages.get(p)?.as_ref()
    }

    /// The occupied pages with their first vertex id, ascending.
    fn occupied(&self) -> impl Iterator<Item = (VertexId, &Page)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((page_base(p), page.as_ref()?)))
    }

    /// Number of vertices in the domain.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of stored edges. O(1): cached at construction.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbours of `v`. Empty slice if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.pages.get(page_of(v)) {
            Some(Some(page)) => page.neighbors(v % Csr::PAGE_SIZE as VertexId),
            _ => &[],
        }
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// True if an edge `v -> t` is present.
    #[inline]
    pub fn contains(&self, v: VertexId, t: VertexId) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Maximum degree over all vertices (0 for an empty index). O(1):
    /// cached at construction.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Number of vertices with non-zero degree (`|π_X R|` for this side).
    /// O(1): cached at construction.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Iterate the vertices with non-zero degree, in increasing id order.
    /// The matcher seeds unconstrained root variables from this list
    /// instead of scanning the whole domain.
    pub fn active_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.rows().map(|(v, _)| v)
    }

    /// Iterate `(vertex, neighbours)` over the active vertices, in
    /// increasing id order; no slice is empty. This is how a relation is
    /// swept — edge iteration, rebase, transposition, the snapshot
    /// encoder, the tree-DP folds — at a cost of its rows and occupied
    /// pages, not of the vertex domain.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        Rows::new(&self.pages)
    }

    /// Iterate `(from, to)` pairs in vertex order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.rows()
            .flat_map(|(v, row)| row.iter().map(move |&t| (v, t)))
    }

    /// The `k`-th pair of [`Csr::iter_edges`], found by binary search over
    /// the pages' edge counts, then the page's offsets and ranks, instead
    /// of a walk.
    pub fn nth_edge(&self, k: usize) -> Option<(VertexId, VertexId)> {
        if k >= self.num_edges {
            return None;
        }
        // The last page starting at or below `k` holds it: an empty page
        // starts where the next one does.
        let p = self.edges_before.partition_point(|&e| e as usize <= k) - 1;
        let page = self.pages[p].as_ref()?;
        let offsets = page.offsets();
        let k = offsets[0] as usize + k - self.edges_before[p] as usize;
        let to = page.0[k];
        // The row whose offset range holds `k`; its vertex is the
        // `row`-th set bit of the page's directory: in the last
        // non-empty word whose rank is at most `row`.
        let row = offsets.partition_point(|&o| o as usize <= k) - 1;
        let j = (1..page.words())
            .take_while(|&j| page.rank(j) <= row)
            .count();
        let w = bits_of(page.summary()).nth(j)?;
        let bit = bits_of(page.word(j)).nth(row - page.rank(j))?;
        Some((page_base(p) + w * 64 + bit, to))
    }

    /// Bytes of heap the index holds: its page table and every occupied
    /// page — a page shared with another index counts in both.
    pub fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Option<Page>>()
            + self.edges_before.capacity() * 4
            + self.occupied().map(|(_, p)| p.heap_bytes()).sum::<usize>()
    }

    /// The occupied pages and their non-empty directory words, the two
    /// counts [`Csr::heap_bytes`] pays a fixed size for.
    pub fn occupancy(&self) -> (usize, usize) {
        self.occupied().fold((0, 0), |(pages, words), (_, p)| {
            (pages + 1, words + p.words())
        })
    }

    /// Whether page `p` is the same allocation in `self` and in `other`
    /// (or empty in both). Exposed for the tests of [`Csr::rebase`]'s
    /// sharing.
    #[doc(hidden)]
    pub fn shares_page(&self, other: &Csr, p: usize) -> bool {
        match (self.page(p), other.page(p)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.0, &b.0),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Fold a delta into a fresh CSR over a (possibly larger) domain of
    /// `num_vertices`. A page that holds no source of the delta is shared
    /// with `self` as it is; one that does is rebuilt by one merge walk
    /// over its rows and the delta's source groups in it — O(|delta| x
    /// page), untouched rows copied wholesale, no per-vertex sort and no
    /// pass over the domain. A page the delta empties is left `None`.
    ///
    /// `adds` and `dels` are `(from, to)` pairs, sorted lexicographically
    /// and duplicate-free, and normalized against this CSR: every add is
    /// absent from the base, every del is present (see
    /// [`crate::GraphDelta::effective`]); the two sets are disjoint.
    pub fn rebase(
        &self,
        num_vertices: usize,
        adds: &[(VertexId, VertexId)],
        dels: &[(VertexId, VertexId)],
    ) -> Csr {
        debug_assert!(adds.is_sorted() && dels.is_sorted());
        debug_assert!(num_vertices >= self.num_vertices());
        let last = [adds.last(), dels.last()]
            .into_iter()
            .flatten()
            .map(|&(v, _)| page_of(v) + 1);
        let num_pages = last.fold(self.pages.len(), usize::max);
        /// Split off the pairs whose source is in page `p`.
        fn take<'a>(
            pairs: &mut &'a [(VertexId, VertexId)],
            p: usize,
        ) -> &'a [(VertexId, VertexId)] {
            let (here, rest) = pairs.split_at(pairs.partition_point(|&(v, _)| page_of(v) == p));
            *pairs = rest;
            here
        }
        let mut out = Builder::new(num_vertices);
        let (mut rest_adds, mut rest_dels) = (adds, dels);
        let (mut scratch_a, mut scratch_d) = (Vec::new(), Vec::new());
        for p in 0..num_pages {
            let (adds, dels) = (take(&mut rest_adds, p), take(&mut rest_dels, p));
            let base = self.page(p);
            if adds.is_empty() && dels.is_empty() {
                if let Some(page) = base {
                    out.share(p, page);
                }
                continue;
            }
            // Every del names a base edge, so the sources to visit are
            // the page's rows and the sources of its adds.
            let mut base = match base {
                Some(page) => page.rows(page_base(p)),
                None => Rows::new(&[]),
            }
            .peekable();
            let (mut ai, mut di) = (0usize, 0usize);
            while let Some(v) = match (base.peek(), adds.get(ai)) {
                (Some(&(b, _)), Some(&(a, _))) => Some(b.min(a)),
                (Some(&(b, _)), None) => Some(b),
                (None, add) => add.map(|&(a, _)| a),
            } {
                let row = base.next_if(|&(b, _)| b == v).map_or(&[][..], |(_, r)| r);
                let a0 = ai;
                while ai < adds.len() && adds[ai].0 == v {
                    ai += 1;
                }
                let d0 = di;
                while di < dels.len() && dels[di].0 == v {
                    di += 1;
                }
                out.row(v, |targets| {
                    if a0 == ai && d0 == di {
                        targets.extend_from_slice(row);
                    } else {
                        scratch_a.clear();
                        scratch_a.extend(adds[a0..ai].iter().map(|p| p.1));
                        scratch_d.clear();
                        scratch_d.extend(dels[d0..di].iter().map(|p| p.1));
                        merge_row_into(row, &scratch_a, &scratch_d, targets);
                    }
                });
            }
            debug_assert_eq!(di, dels.len(), "every del must name a base edge");
        }
        out.finish()
    }

    /// The reverse relation over the same domain: row `t` of the result
    /// lists every `v` with `t` in `neighbors(v)`, ascending. Three passes
    /// over the targets: the first marks each target page's rows in a
    /// bitmap and counts its edges, so that each page's array is
    /// allocated once at its size, its directory written; the second
    /// counts each row's entries into its offset slot (the slot after the
    /// row's own, which then becomes its write cursor and ends as its
    /// end); the third scatters the sources — in id order, so the rows
    /// come out sorted. The only scratch is an edge count and a 512 B
    /// bitmap per occupied page. Equal, page for page and in
    /// [`Csr::heap_bytes`], to [`Csr::from_pairs`] of the reversed
    /// pairs.
    pub fn transpose(&self) -> Csr {
        // Rows are sorted: the largest target ends one of them.
        let Some(last) = self.rows().map(|(_, row)| row[row.len() - 1]).max() else {
            return Csr::from_pages(self.num_vertices, Vec::new());
        };
        /// A target page while it is filled: its rows' bitmap, the ranks
        /// of its words, its edges and where its offsets start.
        struct Fill {
            present: [u64; WORDS],
            rank: [u16; WORDS],
            edges: u32,
            at: usize,
        }
        let mut fills: Vec<Option<Box<Fill>>> = Vec::new();
        fills.resize_with(page_of(last) + 1, || None);
        for (_, from) in self.occupied() {
            for &t in from.targets() {
                let fill = fills[page_of(t)].get_or_insert_with(|| {
                    Box::new(Fill {
                        present: [0; WORDS],
                        rank: [0; WORDS],
                        edges: 0,
                        at: 0,
                    })
                });
                let i = t as usize % Csr::PAGE_SIZE;
                fill.present[i >> 6] |= 1u64 << (i & 63);
                fill.edges += 1;
            }
        }
        let mut pages: Vec<Option<Page>> = fills
            .iter_mut()
            .map(|fill| {
                let fill = fill.as_deref_mut()?;
                let mut rows = 0;
                for (r, word) in fill.rank.iter_mut().zip(&fill.present) {
                    *r = rows;
                    rows += word.count_ones() as u16;
                }
                let (directory, at) = directory(&fill.present, 0);
                fill.at = at;
                let len = at + rows as usize + 1 + fill.edges as usize;
                Some(Page::new(&directory[..at], len, |_| {}))
            })
            .collect();
        let mut data: Vec<Option<&mut [u32]>> = pages
            .iter_mut()
            .map(|page| Some(Arc::get_mut(&mut page.as_mut()?.0).expect("a new page is unique")))
            .collect();
        /// The array of `t`'s page and the offset slot after its row's.
        fn cursor<'a>(
            fills: &[Option<Box<Fill>>],
            data: &'a mut [Option<&mut [u32]>],
            t: VertexId,
        ) -> (&'a mut [u32], usize) {
            let (p, i) = (page_of(t), t as usize % Csr::PAGE_SIZE);
            let fill = fills[p].as_deref().expect("every target has a page");
            let page = data[p].as_deref_mut().expect("every target has a page");
            let (word, bit) = (fill.present[i >> 6], 1u64 << (i & 63));
            let row = fill.rank[i >> 6] as usize + (word & (bit - 1)).count_ones() as usize;
            (page, fill.at + row + 1)
        }
        for (_, from) in self.occupied() {
            for &t in from.targets() {
                let (page, c) = cursor(&fills, &mut data, t);
                page[c] += 1;
            }
        }
        for (page, fill) in data.iter_mut().zip(&fills) {
            let (Some(page), Some(fill)) = (page, fill) else {
                continue;
            };
            let rows = fill
                .present
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
            let mut start = (fill.at + rows + 1) as u32;
            page[fill.at] = start;
            let mut max_degree = 0;
            for o in &mut page[fill.at + 1..=fill.at + rows] {
                let count = *o;
                max_degree = max_degree.max(count);
                *o = start;
                start += count;
            }
            page[MAX_DEGREE] = max_degree;
        }
        for (v, row) in self.rows() {
            for &t in row {
                let (page, c) = cursor(&fills, &mut data, t);
                let at = page[c] as usize;
                page[at] = v;
                page[c] += 1;
            }
        }
        drop(data);
        Csr::from_pages(self.num_vertices, pages)
    }

    /// Rebuild a CSR over `num_vertices` from its persisted arrays — the
    /// ids of the active rows, their `rows.len() + 1` offsets and the
    /// targets — page by page. The snapshot decoder makes these arrays
    /// from gaps, so the invariants the matcher relies on hold by
    /// construction: row ids strictly increasing and inside the domain,
    /// offsets from 0 to `targets.len()` with no empty row, strictly
    /// sorted rows. The arrays are freed once the pages hold their rows:
    /// a restore holds at most one relation beyond the pages it returns.
    pub(crate) fn from_raw_parts(
        num_vertices: usize,
        rows: Vec<VertexId>,
        offsets: Vec<u32>,
        targets: Vec<VertexId>,
    ) -> Csr {
        debug_assert_eq!(offsets.len(), rows.len() + 1);
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(targets.len()));
        debug_assert!(rows.is_sorted_by(|a, b| a < b));
        let mut out = Builder::new(num_vertices);
        for (&v, o) in rows.iter().zip(offsets.windows(2)) {
            out.row(v, |t| {
                t.extend_from_slice(&targets[o[0] as usize..o[1] as usize])
            });
        }
        out.finish()
    }
}

/// Append `base ∪ adds ∖ dels` to `out` — the canonical sorted-row merge
/// of [`Csr::rebase`], also used for [`crate::OverlayGraph`]'s patched
/// lists, so the subtle tie/advance invariants live in exactly one
/// place.
///
/// Preconditions (upheld by [`crate::GraphDelta::effective`] /
/// [`crate::GraphDelta::effective_by_label`]): all three inputs sorted
/// and duplicate-free, `adds` disjoint from `base`, `dels ⊆ base`, and
/// `adds` disjoint from `dels`.
pub(crate) fn merge_row_into(
    base: &[VertexId],
    adds: &[VertexId],
    dels: &[VertexId],
    out: &mut Vec<VertexId>,
) {
    let (mut bi, mut ai, mut di) = (0usize, 0usize, 0usize);
    while bi < base.len() || ai < adds.len() {
        let take_base = ai >= adds.len() || (bi < base.len() && base[bi] <= adds[ai]);
        if take_base {
            let t = base[bi];
            bi += 1;
            while di < dels.len() && dels[di] < t {
                di += 1;
            }
            if di < dels.len() && dels[di] == t {
                di += 1;
                continue; // deleted
            }
            out.push(t);
        } else {
            out.push(adds[ai]);
            ai += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_pairs(5, &[(0, 2), (0, 1), (2, 3), (4, 0), (2, 4)])
    }

    #[test]
    fn neighbors_are_sorted() {
        let c = sample();
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(2), &[3, 4]);
        assert_eq!(c.neighbors(1), &[] as &[VertexId]);
    }

    #[test]
    fn degree_and_membership() {
        let c = sample();
        assert_eq!(c.degree(0), 2);
        assert!(c.contains(0, 2));
        assert!(!c.contains(0, 3));
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn active_count_and_edge_count() {
        let c = sample();
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.num_active(), 3); // vertices 0, 2, 4
    }

    #[test]
    fn out_of_range_vertex_is_empty() {
        let c = sample();
        assert_eq!(c.neighbors(99), &[] as &[VertexId]);
        assert_eq!(c.degree(99), 0);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let c = sample();
        let mut edges: Vec<_> = c.iter_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 3), (2, 4), (4, 0)]);
    }

    #[test]
    fn nth_edge_is_the_nth_of_iter_edges() {
        // Rows in three directory words, with empty words between them.
        let pairs: Vec<(VertexId, VertexId)> = [0u32, 2, 63, 64, 200, 201, 449]
            .iter()
            .flat_map(|&v| (0..1 + v % 3).map(move |t| (v, t)))
            .collect();
        let c = Csr::from_pairs(450, &pairs);
        for (k, e) in c.iter_edges().enumerate() {
            assert_eq!(c.nth_edge(k), Some(e), "edge {k}");
        }
        assert_eq!(c.nth_edge(c.num_edges()), None);
        assert_eq!(Csr::default().nth_edge(0), None);
    }

    #[test]
    fn empty_csr() {
        let c = Csr::from_pairs(0, &[]);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.max_degree(), 0);
        assert_eq!(c.num_vertices(), 0);
    }

    #[test]
    fn active_vertices_in_order() {
        let c = sample();
        let active: Vec<_> = c.active_vertices().collect();
        assert_eq!(active, vec![0, 2, 4]);
    }

    #[test]
    fn rebase_merges_adds_and_dels() {
        let c = sample(); // 0->{1,2}, 2->{3,4}, 4->{0}
        let adds = [(0, 3), (1, 1), (4, 2)];
        let dels = [(2, 3), (4, 0)];
        let r = c.rebase(5, &adds, &dels);
        assert_eq!(r.neighbors(0), &[1, 2, 3]);
        assert_eq!(r.neighbors(1), &[1]);
        assert_eq!(r.neighbors(2), &[4]);
        assert_eq!(r.neighbors(4), &[2]);
        assert_eq!(r.num_edges(), 6);
        assert_eq!(r.max_degree(), 3);
        assert_eq!(r.num_active(), 4);
    }

    #[test]
    fn rebase_grows_the_domain() {
        let c = sample();
        let r = c.rebase(8, &[(6, 7)], &[]);
        assert_eq!(r.num_vertices(), 8);
        assert_eq!(r.neighbors(6), &[7]);
        assert_eq!(r.neighbors(0), c.neighbors(0));
        assert_eq!(r.num_edges(), c.num_edges() + 1);
    }

    #[test]
    fn rebase_empty_delta_is_identity() {
        let c = sample();
        let r = c.rebase(5, &[], &[]);
        for v in 0..5 {
            assert_eq!(r.neighbors(v), c.neighbors(v));
        }
        assert_eq!(r.max_degree(), c.max_degree());
        assert_eq!(r.num_active(), c.num_active());
    }

    #[test]
    fn rebase_can_delete_everything() {
        let c = Csr::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]);
        let r = c.rebase(3, &[], &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(r.num_edges(), 0);
        assert_eq!(r.max_degree(), 0);
        assert_eq!(r.num_active(), 0);
    }

    /// Rows on both sides of two page boundaries, page 2 empty between
    /// occupied pages 1 and 3.
    fn paged() -> Csr {
        let pairs = [
            (4095, 1),
            (4096, 2),
            (4096, 4097),
            (4097, 0),
            (12_297, 4095),
        ];
        Csr::from_pairs(12_298, &pairs)
    }

    #[test]
    fn rows_cross_page_boundaries() {
        let c = paged();
        assert_eq!(c.neighbors(4095), &[1]);
        assert_eq!(c.neighbors(4096), &[2, 4097]);
        assert_eq!(c.neighbors(4097), &[0]);
        assert_eq!(c.neighbors(8192), &[] as &[VertexId]);
        assert_eq!(c.neighbors(12_297), &[4095]);
        assert_eq!(
            c.active_vertices().collect::<Vec<_>>(),
            [4095, 4096, 4097, 12_297]
        );
        assert_eq!((c.num_active(), c.num_edges(), c.max_degree()), (4, 5, 2));
        for (k, e) in c.iter_edges().enumerate() {
            assert_eq!(c.nth_edge(k), Some(e), "edge {k}");
        }
        assert_eq!(c.pages.len(), 4);
        assert!(c.pages[2].is_none());
        let t = c.transpose();
        assert_eq!(t.neighbors(4095), &[12_297]);
        assert_eq!(t.neighbors(4097), &[4096]);
        assert_eq!(t.pages.len(), 2, "the table ends at the last occupied page");
    }

    #[test]
    fn rebase_shares_the_pages_it_does_not_touch() {
        let c = paged();
        let r = c.rebase(c.num_vertices(), &[(4095, 7)], &[(12_297, 4095)]);
        assert_eq!(r.neighbors(4095), &[1, 7]);
        assert!(!r.shares_page(&c, 0));
        assert!(r.shares_page(&c, 1));
        assert!(r.shares_page(&c, 2), "empty in both");
        // The delta emptied page 3: the table ends at page 1.
        assert_eq!(r.pages.len(), 2);
        assert_eq!(
            r,
            Csr::from_pairs(c.num_vertices(), &r.iter_edges().collect::<Vec<_>>())
        );
    }

    #[test]
    fn a_far_vertex_costs_a_page_and_a_page_table() {
        let c = sample();
        let far = (1 << 24) - 1;
        let r = c.rebase(far as usize + 1, &[(far, 0)], &[]);
        assert_eq!(r.neighbors(far), &[0]);
        // A table of 4,096 slots instead of 1, and a page of one row: a
        // word with its rank, two offsets and a target.
        let slot = std::mem::size_of::<Option<Page>>() + 4;
        let page = 2 * std::mem::size_of::<usize>() + (HEAD + 3 + 3) * 4;
        assert_eq!(r.heap_bytes(), c.heap_bytes() + 4095 * slot + page);
        assert!(r.shares_page(&c, 0));
    }

    #[test]
    fn rebase_from_empty_base() {
        let c = Csr::default();
        let r = c.rebase(3, &[(0, 2), (2, 1)], &[]);
        assert_eq!(r.neighbors(0), &[2]);
        assert_eq!(r.neighbors(2), &[1]);
        assert_eq!(r.num_edges(), 2);
    }
}
