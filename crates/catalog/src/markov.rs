//! Markov tables: cardinalities of small joins.
//!
//! A Markov table of size `h` stores `|P|` for small patterns `P` with up
//! to `h` edges (Section 4.1, Table 1). Following the paper's evaluation
//! setup (Section 6), tables are *workload-specific*: we store exactly the
//! connected sub-patterns of the workload's queries, which keeps tables at
//! a fraction of a megabyte.

use std::ops::Range;

use ceg_exec::VarConstraints;
use ceg_graph::{FxHashMap, GraphView, LabelId, LabeledGraph};
use ceg_query::{Canonicalizer, EdgeMask, Pattern, QueryGraph};

/// One query's sub-queries resolved against one [`MarkovTable`]: the
/// CEG_O node set (`∅` and every connected edge subset) and, for the
/// subsets of at most `h` edges, the stored cardinality of each one's
/// pattern. Everything an estimate asks the catalog is answered here —
/// what is still to be counted, whether the catalog is complete for the
/// query, and every `|E|` and `|I|` CEG_O divides — from one pass that
/// canonicalizes each sub-pattern once.
#[derive(Debug, Clone)]
pub struct ResolvedCards {
    h: usize,
    /// `∅`, then the connected subsets by size, then by mask
    /// ([`QueryGraph::connected_subsets`] order).
    nodes: Vec<EdgeMask>,
    /// The nodes of `k` edges are `nodes[levels[k]..levels[k + 1]]`.
    levels: [u32; QueryGraph::MAX_EDGES + 2],
    /// `cards[i]` belongs to `nodes[i]`; covers exactly the nodes of at
    /// most `h` edges. `None`: the table lacks the pattern.
    cards: Vec<Option<u64>>,
    /// The distinct patterns the table lacks, in first-appearance order.
    missing: Vec<Pattern>,
}

impl ResolvedCards {
    /// The size `h` of the table this was resolved against.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The CEG_O node set: `∅` first, the full query last.
    pub fn nodes(&self) -> &[EdgeMask] {
        &self.nodes
    }

    /// The node set, given up to the CEG built from it.
    pub fn into_nodes(self) -> Vec<EdgeMask> {
        self.nodes
    }

    /// Cardinalities aligned with the first nodes: `cards()[i]` is the
    /// stored `|nodes()[i]|`, for every node of at most `h` edges.
    pub fn cards(&self) -> &[Option<u64>] {
        &self.cards
    }

    /// Positions of the nodes of `size` edges (empty past the query's
    /// edge count).
    pub fn level(&self, size: usize) -> Range<usize> {
        match self.levels.get(size..size + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// Position of `mask` among the nodes; `None` if it is not a
    /// connected subset of the query. A binary search within `mask`'s
    /// size level.
    pub fn node_index(&self, mask: EdgeMask) -> Option<usize> {
        let level = self.level(mask.len());
        let at = self.nodes[level.clone()].binary_search(&mask).ok()?;
        Some(level.start + at)
    }

    /// What [`MarkovTable::card_of_subquery`] answers for a connected
    /// `mask` of at most `h` edges; `None` for any other mask.
    pub fn card(&self, mask: EdgeMask) -> Option<u64> {
        if mask.len() > self.h {
            return None;
        }
        self.cards[self.node_index(mask)?]
    }

    /// The patterns to count before the query can be estimated.
    pub fn missing(&self) -> &[Pattern] {
        &self.missing
    }

    /// True if the table held every sub-pattern of at most `h` edges.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Cardinalities of connected patterns with at most `h` edges.
#[derive(Debug, Clone)]
pub struct MarkovTable {
    h: usize,
    entries: FxHashMap<Pattern, u64>,
}

impl MarkovTable {
    /// An empty table of size `h` (entries added via [`MarkovTable::insert`],
    /// e.g. when loading a persisted table).
    pub fn empty(h: usize) -> Self {
        assert!(h >= 2, "Markov tables need h >= 2");
        MarkovTable {
            h,
            entries: FxHashMap::default(),
        }
    }

    /// Build a table containing every connected sub-pattern (≤ `h` edges)
    /// of the given workload queries, with exact counts from `graph`.
    /// Serial; see [`MarkovTable::build_parallel`] for the worker-pool
    /// variant.
    pub fn build(graph: &(impl GraphView + Sync), queries: &[QueryGraph], h: usize) -> Self {
        Self::build_parallel(graph, queries, h, 1)
    }

    /// Two-phase parallel construction: (1) dedupe the connected
    /// sub-patterns (≤ `h` edges) of all workload queries into a canonical
    /// work list, (2) count them on up to `parallelism` scoped worker
    /// threads ([`count_patterns`]), then merge into the table. Counts are
    /// exact, so the resulting table is identical at every `parallelism`
    /// (a `parallelism` of 0 or 1 counts inline on the calling thread).
    pub fn build_parallel(
        graph: &(impl GraphView + Sync),
        queries: &[QueryGraph],
        h: usize,
        parallelism: usize,
    ) -> Self {
        let mut table = MarkovTable::empty(h);
        table.recount(graph, dedupe_subpatterns(queries, h), parallelism);
        table
    }

    /// Build a table for a single query (convenience for examples/tests).
    pub fn build_for_query(graph: &(impl GraphView + Sync), query: &QueryGraph, h: usize) -> Self {
        Self::build(graph, std::slice::from_ref(query), h)
    }

    /// Incrementally maintain the table after a graph change: recount
    /// only the entries whose label set intersects `touched` (the labels
    /// a [`ceg_graph::GraphDelta`] inserted or deleted edges under) on
    /// the *post-change* graph; every other entry's count cannot have
    /// moved and carries over untouched. Returns how many entries were
    /// recounted.
    ///
    /// Sound because a pattern's homomorphism count depends only on the
    /// relations its labels name: a delta that never touches those
    /// relations cannot change the count. The invariant is pinned by a
    /// differential test against a from-scratch rebuild on the rebased
    /// graph (`markov::tests::incremental_refresh_matches_rebuild` and
    /// `tests/updates.rs`).
    pub fn refresh_touched(
        &mut self,
        graph: &(impl GraphView + Sync),
        touched: &[LabelId],
        parallelism: usize,
    ) -> usize {
        if touched.is_empty() || self.entries.is_empty() {
            return 0;
        }
        let mut affected: Vec<Pattern> = self
            .entries
            .keys()
            .filter(|p| p.edges().iter().any(|e| touched.contains(&e.label)))
            .cloned()
            .collect();
        // Deterministic work order (the map iterates in hash order).
        affected.sort_unstable();
        self.recount(graph, affected, parallelism)
    }

    /// Count `patterns` on `graph` without a budget and store (or
    /// overwrite) each one's entry; returns how many were counted.
    fn recount(
        &mut self,
        graph: &(impl GraphView + Sync),
        patterns: Vec<Pattern>,
        parallelism: usize,
    ) -> usize {
        let budget = ceg_exec::CountBudget::UNLIMITED;
        let (counts, _) = count_patterns(graph, &patterns, parallelism, budget);
        let counts = counts
            .into_iter()
            .map(|c| c.expect("unlimited budget cannot be exhausted"));
        let recounted = patterns.len();
        self.entries.extend(patterns.into_iter().zip(counts));
        recounted
    }

    /// The table size parameter `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cardinality of a canonical pattern, if stored.
    pub fn card(&self, pattern: &Pattern) -> Option<u64> {
        self.entries.get(pattern).copied()
    }

    /// Cardinality of the sub-query of `query` induced by `mask`, if the
    /// corresponding pattern is stored.
    pub fn card_of_subquery(&self, query: &QueryGraph, mask: EdgeMask) -> Option<u64> {
        if mask.is_empty() {
            return Some(1); // the empty join has one (empty) tuple
        }
        self.card(&Pattern::of_subquery(query, mask))
    }

    /// Resolve `query` against this table (see [`ResolvedCards`]). `None`
    /// if the query has more than
    /// [`QueryGraph::MAX_CONNECTED_SUBSETS`] connected sub-queries: CEG_O
    /// has a node for each, so such a query is not estimated at all.
    pub fn resolve(&self, query: &QueryGraph) -> Option<ResolvedCards> {
        let mut nodes = query.connected_subsets_within_limit()?;
        nodes.insert(0, EdgeMask::empty());
        let levels = std::array::from_fn(|size| nodes.partition_point(|m| m.len() < size) as u32);
        let small = nodes.partition_point(|m| m.len() <= self.h);
        let mut cards = Vec::with_capacity(small);
        cards.push(Some(1)); // the empty join has one (empty) tuple
        let mut missing: Vec<Pattern> = Vec::new();
        let mut canon = Canonicalizer::default();
        for &mask in &nodes[1..small] {
            let pattern = canon.of_subquery(query, mask);
            let card = self.card(pattern);
            if card.is_none() && !missing.contains(pattern) {
                missing.push(pattern.clone());
            }
            cards.push(card);
        }
        Some(ResolvedCards {
            h: self.h,
            nodes,
            levels,
            cards,
            missing,
        })
    }

    /// True if the pattern for `mask` is stored (or computable: empty mask).
    pub fn contains_subquery(&self, query: &QueryGraph, mask: EdgeMask) -> bool {
        self.card_of_subquery(query, mask).is_some()
    }

    /// Insert or overwrite an entry (used by tests and by bound-sketch
    /// partition-local tables).
    pub fn insert(&mut self, pattern: Pattern, card: u64) {
        self.entries.insert(pattern, card);
    }

    /// Make room for `additional` more entries in one allocation (a
    /// loader that knows its entry count skips the doubling, which holds
    /// the old and the new table at once).
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Iterate entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Pattern, u64)> {
        self.entries.iter().map(|(p, &c)| (p, c))
    }

    /// Approximate memory footprint in bytes (for Table-2-style reporting).
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .keys()
            .map(|p| 24 + p.num_edges() * std::mem::size_of::<ceg_query::QueryEdge>() + 8)
            .sum()
    }
}

/// Dedupe the connected sub-patterns (≤ `max_edges` edges) of `queries`
/// into a canonical work list, in first-appearance order (deterministic in
/// the input).
fn dedupe_subpatterns(queries: &[QueryGraph], max_edges: usize) -> Vec<Pattern> {
    let mut seen: ceg_graph::FxHashSet<Pattern> = ceg_graph::FxHashSet::default();
    let mut work: Vec<Pattern> = Vec::new();
    let mut canon = Canonicalizer::default();
    for q in queries {
        for mask in q.connected_subsets_up_to(max_edges) {
            let pat = canon.of_subquery(q, mask);
            if !seen.contains(pat) {
                seen.insert(pat.clone());
                work.push(pat.clone());
            }
        }
    }
    work
}

/// Profiling summary of one catalog fill: how many patterns were
/// counted, where the time went, and the counting kernel's aggregated
/// [`ceg_exec::KernelStats`]. Collected by [`count_patterns`]; the
/// estimation service surfaces it through `EXPLAIN_ESTIMATE`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FillStats {
    /// Patterns whose count completed (abandoned patterns excluded).
    pub patterns_counted: u64,
    /// Summed per-pattern fill time in microseconds (CPU-side: across
    /// parallel workers this exceeds the wall-clock fill time).
    pub total_micros: u64,
    /// The single most expensive pattern's fill time in microseconds.
    pub max_pattern_micros: u64,
    /// Kernel profiling counters aggregated over every pattern counted.
    pub kernel: ceg_exec::KernelStats,
}

/// Exactly count each pattern's homomorphisms in `graph` under `budget`
/// (expansion cap and/or wall-clock deadline, applied per pattern):
/// `counts[i]` belongs to `patterns[i]` and is `None` when that count was
/// abandoned. The estimation service passes a deadline so a
/// client-bounded request stops counting mid-fill instead of finishing
/// arbitrarily late work nobody will read.
///
/// Patterns are counted through [`ceg_exec::map_ordered`] on up to
/// `parallelism` threads, the caller's among them — cheap single-edge
/// patterns and expensive `h`-edge ones interleave off its shared cursor,
/// so the partition balances itself; with a `parallelism` of 0 or 1 the
/// calling thread is the one worker. This is the one fill path: under
/// [`MarkovTable::build_parallel`], [`MarkovTable::refresh_touched`] and
/// the service registry's incremental catalog growth.
pub fn count_patterns(
    graph: &(impl GraphView + Sync),
    patterns: &[Pattern],
    parallelism: usize,
    budget: ceg_exec::CountBudget,
) -> (Vec<Option<u64>>, FillStats) {
    let counted = ceg_exec::map_ordered(patterns, parallelism, |pat| {
        let pq = pat.to_query();
        let started = std::time::Instant::now();
        let cons = VarConstraints::none(pq.num_vars());
        let (count, kernel) = ceg_exec::count_budgeted(graph, &pq, &cons, budget);
        (count, kernel, started.elapsed().as_micros() as u64)
    });
    let mut stats = FillStats::default();
    let mut counts = Vec::with_capacity(counted.len());
    for (count, kernel, micros) in counted {
        stats.kernel.absorb(&kernel);
        stats.total_micros += micros;
        stats.max_pattern_micros = stats.max_pattern_micros.max(micros);
        stats.patterns_counted += u64::from(count.is_some());
        counts.push(count);
    }
    (counts, stats)
}

/// Default worker count for catalog construction when the caller has no
/// explicit `--jobs` knob: the machine's available parallelism, capped so
/// a big server does not oversubscribe itself counting statistics.
pub fn default_build_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    /// Paper-style toy dataset: labels A=0, B=1, C=2 forming paths.
    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(10);
        // A edges
        b.add_edge(0, 2, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(3, 4, 0);
        b.add_edge(5, 4, 0);
        // B edges (|B| = 2)
        b.add_edge(2, 6, 1);
        b.add_edge(4, 7, 1);
        // C edges
        b.add_edge(6, 8, 2);
        b.add_edge(6, 9, 2);
        b.add_edge(7, 8, 2);
        b.build()
    }

    #[test]
    fn entries_match_executor_counts() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]); // A -> B -> C
        let t = MarkovTable::build_for_query(&g, &q, 2);
        for (p, c) in t.iter() {
            assert_eq!(c, count(&g, &p.to_query()), "pattern {p}");
        }
    }

    #[test]
    fn h2_table_of_3path_has_expected_patterns() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        // patterns: A, B, C, A->B, B->C  (5 entries)
        assert_eq!(t.len(), 5);
        assert_eq!(t.h(), 2);
    }

    #[test]
    fn paper_markov_example_values() {
        // |B| = 2, |A->B| = 4, |B->C| = 3 on the toy graph (mirrors Table 1).
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let b_mask = EdgeMask::single(1);
        let ab = EdgeMask::from_bits(0b011);
        let bc = EdgeMask::from_bits(0b110);
        assert_eq!(t.card_of_subquery(&q, b_mask), Some(2));
        assert_eq!(t.card_of_subquery(&q, ab), Some(4));
        assert_eq!(t.card_of_subquery(&q, bc), Some(3));
    }

    #[test]
    fn empty_mask_has_unit_cardinality() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        assert_eq!(t.card_of_subquery(&q, EdgeMask::empty()), Some(1));
    }

    #[test]
    fn unknown_pattern_is_none() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        // the full 3-path is not stored with h = 2
        assert_eq!(t.card_of_subquery(&q, q.full_mask()), None);
    }

    #[test]
    fn h3_table_stores_full_3path() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let t = MarkovTable::build_for_query(&g, &q, 3);
        let c = t.card_of_subquery(&q, q.full_mask());
        assert_eq!(c, Some(count(&g, &q)));
    }

    #[test]
    fn shared_patterns_are_deduplicated() {
        let g = toy();
        let q1 = templates::path(2, &[0, 1]);
        let q2 = templates::path(2, &[0, 1]);
        let t = MarkovTable::build(&g, &[q1, q2], 2);
        assert_eq!(t.len(), 3); // A, B, A->B
    }

    #[test]
    fn approx_bytes_is_positive() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn parallel_build_matches_serial_at_any_parallelism() {
        let g = toy();
        let queries = [
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 0, 1]),
            templates::cycle(3, &[0, 1, 2]),
        ];
        let serial = MarkovTable::build(&g, &queries, 3);
        for parallelism in [0, 1, 2, 4, 16] {
            let par = MarkovTable::build_parallel(&g, &queries, 3, parallelism);
            assert_eq!(par.len(), serial.len(), "parallelism={parallelism}");
            assert_eq!(par.h(), serial.h());
            for (p, c) in serial.iter() {
                assert_eq!(par.card(p), Some(c), "pattern {p} at {parallelism}");
            }
        }
    }

    #[test]
    fn count_patterns_aligns_counts_with_input_order() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let pats: Vec<Pattern> = q
            .connected_subsets_up_to(2)
            .into_iter()
            .map(|m| Pattern::of_subquery(&q, m))
            .collect();
        let unlimited = ceg_exec::CountBudget::UNLIMITED;
        let (serial, _) = count_patterns(&g, &pats, 1, unlimited);
        let (par, _) = count_patterns(&g, &pats, 4, unlimited);
        assert_eq!(serial, par);
        for (pat, &c) in pats.iter().zip(&serial) {
            assert_eq!(c, Some(count(&g, &pat.to_query())), "pattern {pat}");
        }
    }

    #[test]
    fn budgeted_fill_stats_cover_all_patterns() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let pats: Vec<Pattern> = q
            .connected_subsets_up_to(2)
            .into_iter()
            .map(|m| Pattern::of_subquery(&q, m))
            .collect();
        for parallelism in [1, 4] {
            let (counts, stats) =
                count_patterns(&g, &pats, parallelism, ceg_exec::CountBudget::UNLIMITED);
            assert!(counts.iter().all(|c| c.is_some()));
            assert_eq!(stats.patterns_counted, pats.len() as u64);
            assert!(stats.kernel.candidates > 0, "kernel visited candidates");
            assert!(stats.max_pattern_micros <= stats.total_micros);
        }
        // An exhausted budget counts nothing but still reports the work.
        let (counts, stats) = count_patterns(&g, &pats, 1, ceg_exec::CountBudget::new(0));
        assert!(counts.iter().all(|c| c.is_none()));
        assert_eq!(stats.patterns_counted, 0);
    }

    /// A deadline that passes while a fill is under way: the patterns
    /// counted before it keep their exact counts, the one it interrupts
    /// and every pattern after it are missing, and nothing in between.
    #[test]
    fn deadline_expiring_mid_fill_leaves_the_rest_missing() {
        // A ring of 40k rows per direction, so every sweep crosses the
        // counter's clock-read interval, and seconds of work in the fill.
        let n = 40_000u32;
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n, 0);
        }
        let g = b.build();
        let q = templates::path(2, &[0, 0]);
        let pat = Pattern::of_subquery(&q, q.full_mask());
        let pats = vec![pat; 20_000];
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(250);
        let (counts, stats) = count_patterns(&g, &pats, 1, ceg_exec::CountBudget::until(deadline));
        let counted = counts.iter().take_while(|c| c.is_some()).count();
        assert!(counted > 0, "250 ms count at least one pattern");
        assert!(counted < pats.len(), "the fill outlasts the deadline");
        assert!(counts[..counted].iter().all(|&c| c == Some(n as u64)));
        assert!(counts[counted..].iter().all(|c| c.is_none()));
        assert_eq!(stats.patterns_counted, counted as u64);
    }

    #[test]
    fn default_parallelism_is_sane() {
        let p = default_build_parallelism();
        assert!((1..=8).contains(&p));
    }

    /// Serialize a table to its canonical persisted form (sorted entry
    /// lines), the strictest equality available for two tables.
    fn bytes_of(t: &MarkovTable) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::io::write_markov(t, &mut buf).unwrap();
        buf
    }

    #[test]
    fn incremental_refresh_matches_rebuild() {
        use ceg_graph::GraphDelta;
        let g = toy();
        let queries = [
            templates::path(3, &[0, 1, 2]),
            templates::star(3, &[0, 0, 1]),
            templates::cycle(3, &[0, 1, 2]),
        ];
        let mut table = MarkovTable::build(&g, &queries, 3);
        // Touch labels 0 and 2, leave label 1 alone.
        let mut d = GraphDelta::new();
        d.add_edge(1, 4, 0);
        d.del_edge(6, 9, 2);
        d.add_edge(5, 6, 2);
        let rebased = g.rebase(&d);
        let recounted = table.refresh_touched(&rebased, &d.touched_labels(), 1);
        assert!(recounted > 0);
        let rebuilt = MarkovTable::build(&rebased, &queries, 3);
        assert_eq!(bytes_of(&table), bytes_of(&rebuilt));
    }

    #[test]
    fn refresh_skips_untouched_labels() {
        let g = toy();
        let q = templates::path(3, &[0, 1, 2]);
        let mut table = MarkovTable::build_for_query(&g, &q, 2);
        // patterns: A, B, C, A->B, B->C; only label 1 (B) is touched, so
        // B, A->B and B->C are recounted but A and C carry over.
        let recounted = table.refresh_touched(&g, &[1], 1);
        assert_eq!(recounted, 3);
        assert_eq!(table.refresh_touched(&g, &[], 1), 0);
        assert_eq!(table.refresh_touched(&g, &[7], 1), 0);
    }

    #[test]
    fn refresh_on_overlay_matches_refresh_on_rebased() {
        use ceg_graph::{GraphDelta, OverlayGraph};
        let g = toy();
        let queries = [templates::path(3, &[0, 1, 2]), templates::star(2, &[1, 2])];
        let base_table = MarkovTable::build(&g, &queries, 3);
        let mut d = GraphDelta::new();
        d.add_edge(2, 7, 1);
        d.del_edge(4, 7, 1);
        d.add_edge(7, 9, 2);
        let rebased = g.rebase(&d);
        let mut via_rebase = base_table.clone();
        via_rebase.refresh_touched(&rebased, &d.touched_labels(), 1);
        let mut via_overlay = base_table.clone();
        via_overlay.refresh_touched(&OverlayGraph::new(&g, &d), &d.touched_labels(), 2);
        assert_eq!(bytes_of(&via_rebase), bytes_of(&via_overlay));
        assert_eq!(
            bytes_of(&via_rebase),
            bytes_of(&MarkovTable::build(&rebased, &queries, 3))
        );
    }
}

/// Sampled (approximate) construction — how the graph-catalogue systems
/// the paper builds on construct their statistics at scale: instead of
/// exact counts, each pattern's cardinality is estimated with
/// Horvitz–Thompson-weighted random walks from its smallest relation.
/// `walks` controls the accuracy/time trade-off.
impl MarkovTable {
    /// Like [`MarkovTable::build`] but with sampled counts.
    pub fn build_sampled(
        graph: &LabeledGraph,
        queries: &[QueryGraph],
        h: usize,
        walks: u32,
        seed: u64,
    ) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert!(h >= 2, "Markov tables need h >= 2");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries: FxHashMap<Pattern, u64> = FxHashMap::default();
        for pat in dedupe_subpatterns(queries, h) {
            let pq = pat.to_query();
            let est = if pq.num_edges() == 1 {
                graph.label_count(pq.edge(0).label) as f64 // exact for free
            } else {
                sample_pattern_count(graph, &pq, walks, &mut rng)
            };
            entries.insert(pat, est.round() as u64);
        }
        MarkovTable { h, entries }
    }
}

/// HT random-walk estimate of a small pattern's homomorphism count.
fn sample_pattern_count(
    graph: &LabeledGraph,
    query: &QueryGraph,
    walks: u32,
    rng: &mut rand::rngs::StdRng,
) -> f64 {
    use rand::Rng;
    // walk order: start at the smallest relation, extend adjacently
    let m = query.num_edges();
    let start = (0..m)
        .min_by_key(|&i| graph.label_count(query.edge(i).label))
        .expect("non-empty pattern");
    let mut order = vec![start];
    let e0 = query.edge(start);
    let mut bound: u32 = (1 << e0.src) | (1 << e0.dst);
    let mut used = 1u32 << start;
    while order.len() < m {
        let next = (0..m)
            .find(|&i| {
                used & (1 << i) == 0 && {
                    let e = query.edge(i);
                    bound & ((1 << e.src) | (1 << e.dst)) != 0
                }
            })
            .expect("patterns are connected");
        let e = query.edge(next);
        bound |= (1 << e.src) | (1 << e.dst);
        used |= 1 << next;
        order.push(next);
    }
    let start_edges: Vec<(u32, u32)> = graph.edges(query.edge(start).label).collect();
    if start_edges.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for _ in 0..walks {
        let (s0, d0) = start_edges[rng.random_range(0..start_edges.len())];
        let mut binding = vec![0u32; query.num_vars() as usize];
        let mut bset = 0u32;
        let e = query.edge(start);
        if e.src == e.dst && s0 != d0 {
            continue;
        }
        binding[e.src as usize] = s0;
        binding[e.dst as usize] = d0;
        bset |= (1 << e.src) | (1 << e.dst);
        let mut w = start_edges.len() as f64;
        let mut dead = false;
        for &qi in &order[1..] {
            let e = query.edge(qi);
            let (sb, db) = (bset & (1 << e.src) != 0, bset & (1 << e.dst) != 0);
            match (sb, db) {
                (true, true) => {
                    if !graph.has_edge(binding[e.src as usize], binding[e.dst as usize], e.label) {
                        dead = true;
                        break;
                    }
                }
                (true, false) => {
                    let c = graph.out_neighbors(binding[e.src as usize], e.label);
                    if c.is_empty() {
                        dead = true;
                        break;
                    }
                    let pick = c[rng.random_range(0..c.len())];
                    w *= c.len() as f64;
                    binding[e.dst as usize] = pick;
                    bset |= 1 << e.dst;
                }
                (false, true) => {
                    let c = graph.in_neighbors(binding[e.dst as usize], e.label);
                    if c.is_empty() {
                        dead = true;
                        break;
                    }
                    let pick = c[rng.random_range(0..c.len())];
                    w *= c.len() as f64;
                    binding[e.src as usize] = pick;
                    bset |= 1 << e.src;
                }
                (false, false) => unreachable!("connected walk order"),
            }
        }
        if !dead {
            total += w;
        }
    }
    total / walks as f64
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use ceg_exec::count;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy() -> LabeledGraph {
        let mut b = GraphBuilder::new(60);
        for i in 0..20u32 {
            b.add_edge(i, 20 + i, 0);
            b.add_edge(20 + i, 40 + (i % 10), 1);
        }
        b.build()
    }

    #[test]
    fn sampled_counts_approach_exact() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let exact = MarkovTable::build_for_query(&g, &q, 2);
        let sampled = MarkovTable::build_sampled(&g, std::slice::from_ref(&q), 2, 4000, 1);
        assert_eq!(sampled.len(), exact.len());
        for (p, c) in exact.iter() {
            let s = sampled.card(p).unwrap() as f64;
            let c = c as f64;
            assert!(
                (s - c).abs() <= (0.2 * c).max(2.0),
                "pattern {p}: sampled {s} vs exact {c}"
            );
        }
    }

    #[test]
    fn single_edge_entries_are_exact() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let sampled = MarkovTable::build_sampled(&g, std::slice::from_ref(&q), 2, 10, 2);
        let p0 = Pattern::of_subquery(&q, EdgeMask::single(0));
        assert_eq!(sampled.card(&p0), Some(count(&g, &p0.to_query())));
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let a = MarkovTable::build_sampled(&g, std::slice::from_ref(&q), 2, 100, 3);
        let b = MarkovTable::build_sampled(&g, std::slice::from_ref(&q), 2, 100, 3);
        for (p, c) in a.iter() {
            assert_eq!(b.card(p), Some(c));
        }
    }
}
