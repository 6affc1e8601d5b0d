//! The cost ledger: what the guarded paths ask of the allocator, and the
//! counters they already keep, pinned like bits.
//!
//! One counting global allocator tracks allocator calls, total bytes
//! requested, live bytes and peak live bytes; [`cost`] reads all four
//! around a closure. Each scenario below asserts the bounds its path is
//! known to meet and appends exact lines to a ledger, which must equal
//! `tests/fixtures/golden_cost.txt`. A bound says a path is still cheap;
//! the ledger also says when it got dearer (or cheaper) while staying
//! under it. There is no timer in the ledger.
//!
//! - [`kernel`]: counting runs without the allocator, gallop and bitset.
//! - [`tree_dp`]: an acyclic pattern's count allocates by relation, not
//!   by vertex domain.
//! - [`ceg_o`]: CEG_O construction, the path choice and the server's
//!   streamed pass make a constant number of allocator calls.
//! - [`canon`]: a query's certificate allocates nothing, and its search
//!   stays small on symmetric one-label shapes.
//! - [`cache`]: a full `wide` cache is small, makes no per-entry
//!   allocation and reports its heap exactly; a store at capacity and a
//!   hit allocate nothing.
//! - [`catalog`]: `MarkovTable::heap_bytes` is what dropping it frees.
//! - [`graph`]: `LabeledGraph::heap_bytes` is what a built graph holds,
//!   and what its page directories cost.
//! - [`snapshot`]: writing and reading a snapshot hold a buffer, not a
//!   section.
//! - [`commit`]: a commit holds its touched pages, not its touched
//!   relations.
//! - [`served`]: the `Engine` serving a 256-query pool cold, hot and
//!   stale across a commit, and a 32-query batch of warm misses.
//! - [`sampler`]: the attempts the workload sampler spends per template
//!   on the pools `golden_workload` pins.
//! - [`wire`]: the writes, flushes and bytes each request kind hands the
//!   connection's far end, and what one more PING or hit allocates.
//!
//! Every binary that includes this module holds a single `#[test]`, so
//! no other test case allocates during a measurement. `golden_cost` runs
//! every scenario in sequence against the whole ledger; each
//! `alloc_guard*` binary runs the one scenario it is named for against
//! that scenario's lines.
//!
//! The counts include what the standard library allocates (`Vec`
//! growth, `format!`, hash tables), so a toolchain that changes those
//! can move a line with no change here; re-record on it and say so.
//!
//! Re-record (only when a cost is *meant* to change, saying why) with
//! `GOLDEN_COST_WRITE=1 cargo test --release --test golden_cost`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeSet, HashSet};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cegraph::catalog::io::{read_snapshot, write_snapshot};
use cegraph::catalog::markov::count_patterns;
use cegraph::catalog::MarkovTable;
use cegraph::core::{CegO, Heuristic};
use cegraph::exec::{
    for_each_ordered, CountBudget, CountPlan, CountStop, Handover, KernelStats, VarConstraints,
};
use cegraph::graph::snapshot::{
    graph_payload_len, varint_len, SnapshotReader, TAG_EPOCH, TAG_GRAPH, TAG_MARKOV,
};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, Pattern, QueryEdge, QueryGraph};
use cegraph::service::{
    Client, DatasetEntry, DatasetRegistry, Engine, EstimateCache, EstimateOutcome, ProbeOutcome,
    QueryOutcome, Request, RequestCtx, Server, ServerConfig,
};
use cegraph::workload::{Dataset, Rung, Workload};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_cost.txt"
);

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks coexist while the bytes are copied.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one closure asked of the allocator.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    /// `alloc` and `realloc` calls.
    calls: u64,
    /// Bytes those calls requested (a `realloc` counts its new size).
    bytes: u64,
    /// Peak live bytes above what was live when the closure started.
    peak: usize,
    /// Live bytes at the end less those at the start: what the closure
    /// kept (negative: what it freed).
    live: isize,
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Cost {
            calls,
            bytes,
            peak,
            live,
        } = self;
        write!(f, "calls={calls} bytes={bytes} peak={peak} live={live}")
    }
}

/// Run `f` and say what it asked of the allocator. Not nested: the peak
/// restarts at every call.
fn cost<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    let r = f();
    let after = LIVE.load(Ordering::SeqCst);
    let cost = Cost {
        calls: CALLS.load(Ordering::SeqCst) - calls,
        bytes: BYTES.load(Ordering::SeqCst) - bytes,
        peak: PEAK.load(Ordering::SeqCst) - live,
        live: after as isize - live as isize,
    };
    (r, cost)
}

/// The kernel counters of one run, as ledger fields.
fn kernel_fields(stats: &KernelStats) -> String {
    let field = |(name, v): (&str, u64)| format!(" {}={v}", name.trim_start_matches("kernel_"));
    stats.fields().into_iter().map(field).collect()
}

/// `size` pairwise non-isomorphic Job + Acyclic queries on `graph`, taken
/// at an even stride from everything generated: the wire benchmark's
/// query pool.
fn query_pool(graph: &LabeledGraph, size: usize, seed: u64) -> Vec<QueryGraph> {
    let families = [Workload::Job, Workload::Acyclic];
    let mut per_template = size / (10 * families.len()) + 2;
    loop {
        let mut seen = HashSet::new();
        let distinct: Vec<QueryGraph> = families
            .iter()
            .flat_map(|w| w.build(graph, per_template, seed))
            .map(|q| q.query)
            .filter(|q| seen.insert(q.canonical_hash()))
            .collect();
        if distinct.len() >= size {
            return (0..size)
                .map(|i| distinct[i * distinct.len() / size].clone())
                .collect();
        }
        per_template *= 2;
    }
}

/// Job + Acyclic queries, `per_template` each, instantiated on the g10k
/// graph of `seed`.
fn job_acyclic(seed: u64, per_template: usize) -> Vec<QueryGraph> {
    let small = Rung { k: 1 }.graph(seed);
    [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&small, per_template, seed))
        .map(|q| q.query)
        .collect()
}

/// Buffer `churn`'s commit shape on `entry`, whose graph is `graph`: an
/// insertion on labels 0 and 7, the deletion of a present edge on labels
/// 3 and 15.
fn stage_churn_commit(entry: &DatasetEntry, graph: &LabeledGraph) {
    for (i, l) in [0u16, 3, 7, 15].into_iter().enumerate() {
        if i % 2 == 0 {
            let src = (1_000 + 7 * i) as u32;
            assert!(!graph.has_edge(src, 2_000, l));
            entry.add_edge(src, 2_000, l).unwrap();
        } else {
            let (src, dst) = graph.nth_edge(l, graph.label_count(l) / 2).unwrap();
            entry.del_edge(src, dst, l).unwrap();
        }
    }
}

/// A [`CountPlan`] does all of its allocation up front (extension plans,
/// root candidate lists, per-depth buffers sized from cached maximum
/// degrees); the recursion itself never touches the allocator, on a
/// 6-edge cycle query, to completion or to a budget trip.
fn kernel(ledger: &mut String) {
    // Two 6-rings: label 0 closes six 6-cycles, label 1 is a decoy ring,
    // plus chords so intersections see non-trivial lists. `hub_fan` adds
    // a hub with that many label-0 out-leaves and as many in-leaves,
    // which close no cycle.
    let rings = |hub_fan: u32| {
        let hub = 12;
        let mut b = GraphBuilder::new(12);
        for i in 0..6u32 {
            b.add_edge(i, (i + 1) % 6, 0);
            b.add_edge(6 + i, 6 + (i + 1) % 6, 1);
            b.add_edge(i, 6 + i, 0);
        }
        for leaf in 0..hub_fan {
            b.add_edge(hub, hub + 1 + leaf, 0);
            b.add_edge(hub + 1 + hub_fan + leaf, hub, 0);
        }
        b.build()
    };
    let g = rings(0);
    let q = templates::cycle(6, &[0; 6]);
    let cons = VarConstraints::none(q.num_vars());

    let (mut plan, planned) = cost(|| CountPlan::new(&g, &q, &cons));
    let (((total, stats), (budgeted, _)), counted) = cost(|| {
        (
            plan.count(CountBudget::UNLIMITED),
            plan.count(CountBudget::new(3)),
        )
    });
    assert_eq!(
        counted.calls, 0,
        "counting a 6-edge cycle allocated post-setup"
    );
    assert_eq!(total, Ok(6), "each rotation of the label-0 ring matches");
    assert_eq!(budgeted, Err(CountStop::Budget), "budget of 3 must exhaust");
    writeln!(ledger, "kernel.cycle6.plan {planned}").unwrap();
    writeln!(
        ledger,
        "kernel.cycle6.count {counted}{}",
        kernel_fields(&stats)
    )
    .unwrap();

    assert_eq!(stats.bitset_intersections, 0, "no relation is dense");

    // The bitset path holds the same invariant: its per-depth bitsets
    // are plan-time allocations, lazily reset (never reallocated) as the
    // stable binding moves, across repeated reuses of the same plan. A
    // hub of 32 (`BITSET_MIN_DEGREE`) leaves each way makes the plan
    // take it.
    let g = rings(32);
    let (mut bitset_plan, planned) = cost(|| CountPlan::new(&g, &q, &cons));
    let (stats, counted) = cost(|| {
        let mut stats = KernelStats::default();
        for _ in 0..3 {
            let (count, run) = bitset_plan.count(CountBudget::UNLIMITED);
            assert_eq!(count, Ok(6), "the hub closes no cycle");
            stats.absorb(&run);
        }
        stats
    });
    assert_eq!(
        counted.calls, 0,
        "the bitset intersection path allocated post-setup"
    );
    assert!(stats.bitset_intersections > 0, "the hub enables the bitset");
    writeln!(ledger, "kernel.cycle6.bitset.plan {planned}").unwrap();
    writeln!(
        ledger,
        "kernel.cycle6.bitset.count3 {counted}{}",
        kernel_fields(&stats)
    )
    .unwrap();
}

/// The sparse tree DP holds one sorted vector of at most a relation's
/// rows per message, so what a catalog fill allocates per pattern
/// follows the relations the pattern names and not the vertex domain:
/// the same 2,000 edges spread over 2^16 and over 2^20 vertices fit the
/// same bound. The backtracking kernel's suffix memo took 16 bytes per
/// vertex per eligible depth — 16 MiB per depth per pattern at 2^20.
fn tree_dp(ledger: &mut String) {
    const LABELS: u16 = 4;
    const EDGES: u32 = 2_000;
    /// Bytes one pattern's count may request, whatever the vertex domain
    /// (the first message of a 2-edge pattern is at most 500 rows of 12
    /// bytes; the kernel's plans took 1.5 MiB per pattern at 2^16).
    const MAX_BYTES_PER_PATTERN: u64 = 64 * 1024;

    // Every connected pattern of one or two edges over the four labels:
    // single edges, paths, out-stars and in-stars.
    let mut seen = BTreeSet::new();
    for l1 in 0..LABELS {
        for l2 in 0..LABELS {
            for (a, b) in [((0, 1), (1, 2)), ((0, 1), (0, 2)), ((1, 0), (2, 0))] {
                let q = QueryGraph::new(
                    3,
                    vec![QueryEdge::new(a.0, a.1, l1), QueryEdge::new(b.0, b.1, l2)],
                );
                for mask in q.connected_subsets_up_to(2) {
                    seen.insert(Pattern::of_subquery(&q, mask));
                }
            }
        }
    }
    let pats: Vec<Pattern> = seen.into_iter().collect();
    assert_eq!(pats.len(), 4 + 16 + 10 + 10);

    for domain_bits in [16u32, 20] {
        let domain = 1u32 << domain_bits;
        let mut b = GraphBuilder::with_labels(domain as usize, LABELS as usize);
        // A multiplicative walk over the whole domain; every vertex it
        // lands on is both a source and a target of some relation.
        let mut v = 1u32;
        for i in 0..EDGES {
            let next = v.wrapping_mul(2_654_435_761).wrapping_add(i) % domain;
            b.add_edge(v, next, (i % LABELS as u32) as u16);
            v = next;
        }
        let g = b.build();

        let ((counts, fill), counted) =
            cost(|| count_patterns(&g, &pats, 1, CountBudget::UNLIMITED));
        assert!(counts.iter().any(|&c| c.is_ok_and(|n| n > 0)));
        let per_pattern = counted.bytes / pats.len() as u64;
        assert!(
            per_pattern <= MAX_BYTES_PER_PATTERN,
            "{per_pattern} bytes per pattern over a domain of 2^{domain_bits}"
        );
        writeln!(
            ledger,
            "tree_dp.domain2^{domain_bits} {counted} patterns={}{}",
            fill.patterns_counted,
            kernel_fields(&fill.kernel)
        )
        .unwrap();
    }
}

/// `CegO::build` resolves the query's sub-patterns through one reused
/// canonicalization buffer into flat arrays, so its allocator calls are
/// a small constant plus the doublings of its growing lists — the same
/// bound for a 64-node and a 1,024-node CEG (it made more than 50,000
/// calls on `star(8)` when every node had two `Vec`s). Choosing a path
/// is one forward pass over one `(hops, aggregate)` slot per node: one
/// call. The server's streamed pass, `CegO::estimate_resolved`, folds
/// each node's edges as they are generated, in a fixed number of calls.
fn ceg_o(ledger: &mut String) {
    /// Allocator calls one `CegO::build` may make, whatever the node count.
    const MAX_ALLOCS_PER_BUILD: u64 = 64;
    /// Allocator calls of the streamed pass, on every star: the pattern
    /// index, the per-node edge buffer (sized once to the pattern count)
    /// and the slots. No edge list, so no doublings.
    const ALLOCS_PER_STREAMED_PASS: u64 = 3;

    // Two labels out of one hub, so every star sub-pattern is non-empty.
    let mut b = GraphBuilder::new(8);
    for leaf in 1..8u32 {
        b.add_edge(0, leaf, (leaf % 2) as u16);
    }
    let g = b.build();
    for (k, nodes, edges) in [(6, 64, 495), (8, 256, 3_612), (10, 1_024, 23_085)] {
        let labels: Vec<u16> = (0..k).map(|i| (i % 2) as u16).collect();
        let q = templates::star(k, &labels);
        let table = MarkovTable::build_for_query(&g, &q, 2);

        let (ceg, built) = cost(|| CegO::build(&q, &table));
        assert_eq!(ceg.ceg().num_nodes(), nodes, "star({k})");
        assert_eq!(ceg.ceg().num_edges(), edges, "star({k})");
        assert!(
            built.calls <= MAX_ALLOCS_PER_BUILD,
            "CegO::build on star({k}) made {} allocator calls",
            built.calls
        );

        let (estimate, chosen) = cost(|| ceg.ceg().estimate(Heuristic::RECOMMENDED));
        assert!(estimate.is_some(), "star({k})");
        assert_eq!(chosen.calls, 1, "Ceg::estimate on star({k})");

        let (resolved, resolving) = cost(|| table.resolve(&q));
        let resolved = resolved.expect("far below the subset limit");
        let (streamed, streaming) =
            cost(|| CegO::estimate_resolved(&q, &resolved, Heuristic::RECOMMENDED, None));
        assert_eq!(streamed, Ok(estimate), "star({k})");
        assert_eq!(
            streaming.calls, ALLOCS_PER_STREAMED_PASS,
            "CegO::estimate_resolved on star({k})"
        );
        writeln!(
            ledger,
            "ceg_o.star{k}.build {built} nodes={nodes} edges={edges}"
        )
        .unwrap();
        writeln!(ledger, "ceg_o.star{k}.estimate {chosen}").unwrap();
        writeln!(ledger, "ceg_o.star{k}.resolve {resolving}").unwrap();
        writeln!(ledger, "ceg_o.star{k}.streamed {streaming}").unwrap();
    }
}

/// `QueryGraph::certificate` on one-label shapes, where refinement alone
/// leaves ties: no allocator call, and the number of search leaves. A
/// star's leaves are one orbit (one leaf), K6 with both directions is all
/// twins (one leaf), and the cyclic ones branch until a repeated leaf
/// gives an automorphism that covers the rest of the cell.
fn canon(ledger: &mut String) {
    let k6 = (0..6u8)
        .flat_map(|a| {
            (0..6u8)
                .filter(move |&b| b != a)
                .map(move |b| QueryEdge::new(a, b, 0))
        })
        .collect();
    let shapes = [
        ("star-12", templates::star(12, &[0; 12])),
        ("path-12", templates::path(12, &[0; 12])),
        ("cycle-9", templates::cycle(9, &[0; 9])),
        ("petal-9", templates::petal(3, 3, &[0; 9])),
        ("flower-6", templates::flower(&[0; 6])),
        ("clique4", templates::clique4(&[0; 6])),
        ("two-triangles", templates::two_triangles(&[0; 6])),
        ("k6-both-directions", QueryGraph::new(6, k6)),
    ];
    for (name, q) in shapes {
        let (certificate, computed) = cost(|| q.certificate());
        assert_eq!(computed.calls, 0, "the certificate of {name} allocated");
        assert!(
            certificate.leaves() <= 9,
            "{name}: {} leaves",
            certificate.leaves()
        );
        writeln!(
            ledger,
            "canon.certificate.{name} calls={} leaves={}",
            computed.calls,
            certificate.leaves()
        )
        .unwrap();
    }
}

/// The estimate cache on the pool shape of the wire benchmark's `wide`
/// workload: 6,144 distinct Job + Acyclic queries on the g10k graph
/// (seed 1) through a 4,096-entry cache. A full cache holds at most 512
/// KiB, exactly what `EstimateCache::heap_bytes` reports (941,648 B when
/// every entry was three allocations behind a hash map and a recency
/// queue; 494,463 B while each slot held a `QueryGraph`), in at most 8
/// allocator calls: each slot holds its certificate inline. A store at
/// capacity under a fresh key overwrites the evicted slot: no allocator
/// call. A hit, which computes the probe's certificate and compares it
/// with the slot's, makes none either.
fn cache(ledger: &mut String) {
    const CAPACITY: usize = 4096;
    let seed = 1;
    let graph = Rung { k: 1 }.graph(seed);
    let pool = query_pool(&graph, 6_144, seed);
    let hashes: Vec<u64> = pool.iter().map(QueryGraph::canonical_hash).collect();

    // Fill: every query stored once, the first 2,048 evicted again.
    let (mut cache, filled) = cost(|| {
        let mut cache = EstimateCache::new(CAPACITY);
        for (q, &h) in pool.iter().zip(&hashes) {
            cache.store_hashed("", q, h, 0, Some(1.0));
        }
        cache
    });
    let held = filled.live as usize;
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(held, cache.heap_bytes(), "heap_bytes is the live heap");
    assert!(held <= 512 * 1024, "a full cache holds {held} B");
    assert!(
        filled.calls <= 8,
        "{} allocator calls to fill",
        filled.calls
    );
    writeln!(ledger, "cache.wide.fill {filled} heap_bytes={held}").unwrap();

    // A hit on a renamed copy of a cached query; beside it, what the
    // certificate and the `is_isomorphic` oracle cost on the pair.
    let last = pool.len() - 1;
    let renamed = {
        let q = &pool[last];
        let n = q.num_vars();
        let edges = q
            .edges()
            .iter()
            .map(|e| QueryEdge::new(n - 1 - e.src, n - 1 - e.dst, e.label));
        QueryGraph::new(n, edges.collect())
    };
    assert_eq!(renamed.canonical_hash(), hashes[last]);
    let (iso, verified) = cost(|| pool[last].is_isomorphic(&renamed));
    assert!(iso);
    let (certificate, certified) = cost(|| renamed.certificate());
    assert_eq!(certificate, pool[last].certificate());
    let (hit, probed) = cost(|| cache.probe_hashed("", &renamed, hashes[last], 0));
    assert_eq!(hit, ProbeOutcome::Hit(Some(1.0)));
    assert_eq!(probed.calls, 0, "a hit allocated");
    writeln!(ledger, "cache.wide.is_isomorphic {verified}").unwrap();
    writeln!(
        ledger,
        "cache.wide.certificate {certified} leaves={}",
        certificate.leaves()
    )
    .unwrap();
    writeln!(ledger, "cache.wide.hit {probed}").unwrap();

    // Stores under fresh keys at capacity. Least recently used first, the
    // cache holds pool[2048..6143], then pool[6143] (just hit): storing
    // them in that order overwrites each one's own evicted slot.
    let order = (2048..last).chain([last]);
    let ((), stored) = cost(|| {
        for (i, at) in order.enumerate() {
            let fresh_key = (1 << 40) + i as u64;
            cache.store_hashed("", &pool[at], fresh_key, 0, Some(2.0));
        }
    });
    assert_eq!(stored.calls, 0, "4,096 stores at capacity allocated");
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(stored.live, 0);
    assert_eq!(cache.heap_bytes(), held);
    assert_eq!(
        cache.probe_hashed("", &pool[2048], hashes[2048], 0),
        ProbeOutcome::ColdMiss,
        "the original keys were all evicted"
    );
    writeln!(ledger, "cache.wide.store_at_capacity {stored}").unwrap();
}

/// `MarkovTable::heap_bytes`, the figure behind the `catalog_bytes`
/// gauge, is exactly what dropping the table gives back to the
/// allocator, however the table came about: built from a workload,
/// grown by inserts past a doubling, cloned (as every commit does),
/// recounted in place, and decoded from a snapshot's `MRKV` section.
/// The catalog is `churn`'s in miniature: Job + Acyclic on the g10k
/// graph (seed 2022), `h = 2`.
fn catalog(ledger: &mut String) {
    let seed = 2022;
    let graph = Rung { k: 1 }.graph(seed);
    let built = MarkovTable::build(&graph, &job_acyclic(seed, 4), 2);
    assert!(built.len() > 100, "{} entries", built.len());

    let mut grown = built.clone();
    let before = grown.heap_bytes();
    let mut label = 1_000;
    while grown.heap_bytes() < before * 3 / 2 {
        grown.insert(Pattern::canonical(&[QueryEdge::new(0, 1, label)]), 1);
        label += 1;
    }

    let mut refreshed = built.clone();
    let (recounted, refreshing) = cost(|| refreshed.refresh_touched(&graph, &[0, 3, 7, 15], 1));
    assert!(recounted > 0);
    writeln!(
        ledger,
        "catalog.refresh_touched {refreshing} recounted={recounted}"
    )
    .unwrap();

    let path = std::env::temp_dir().join(format!("ceg-catalog-{}.cegsnap", std::process::id()));
    write_snapshot(&path, &graph, &built, 0).unwrap();
    let loaded = read_snapshot(&path).unwrap().markov;
    std::fs::remove_file(&path).unwrap();

    let empty = MarkovTable::empty(2);
    let reported = empty.heap_bytes();
    let ((), dropped) = cost(|| drop(empty));
    assert_eq!((reported, -dropped.live), (0, 0));
    let cloned = built.clone();
    for (what, table) in [
        ("built", built),
        ("grown", grown),
        ("cloned", cloned),
        ("refreshed", refreshed),
        ("loaded", loaded),
    ] {
        let (entries, reported) = (table.len(), table.heap_bytes());
        let ((), dropped) = cost(|| drop(table));
        let freed = -dropped.live as usize;
        assert_eq!(reported, freed, "{what} table of {entries} entries");
        writeln!(
            ledger,
            "catalog.{what} entries={entries} heap_bytes={reported}"
        )
        .unwrap();
    }
}

/// The resident graph of the bench's rung shape (seed 2022) at `k = 1`
/// (`g10k`) and `k = 8`: its edges, `LabeledGraph::heap_bytes` and the
/// two counts its page directories are paid by, over both directions of
/// every relation: occupied pages (the `Arc`'s counts, a 64 B head and a
/// 20 B table slot each) and non-empty 64-id words (10 B each). The
/// bound of 15 B/edge tells these directories from a whole 64-word
/// bitmap with its ranks per page, 18.6 B/edge on `g10k`.
fn graph(ledger: &mut String) {
    for k in [1, 8] {
        let graph = Rung { k }.graph(2022);
        let (edges, heap) = (graph.num_edges(), graph.heap_bytes());
        assert!(heap <= 15 * edges, "{heap} heap bytes for {edges} edges");
        let (pages, words) = graph.occupancy();
        writeln!(
            ledger,
            "graph.heap.k{k} edges={edges} heap_bytes={heap} pages={pages} words={words}"
        )
        .unwrap();
    }
}

/// Writing and reading a snapshot both stream. `write_snapshot` puts the
/// graph's arrays and the table's entries into the temp file through a
/// 64 KiB buffer under a running checksum: beyond that buffer it holds
/// the sorted index of the catalog's entries and nothing that grows with
/// the graph. `read_snapshot` decodes each section into the arrays the
/// graph keeps and derives each backward index from its forward one: at
/// its peak it holds what it returns plus less than one relation. A
/// dataset entry stores the graph it is handed and its snapshot streams
/// that graph in place, beside the one catalog clone it takes to release
/// the catalog lock. Last, the bytes of each section of a snapshot of
/// the bench's `g10k` and `g100k` graphs and their h = 2 Job + Acyclic
/// catalog, so a change to a section's codec shows here.
///
/// The writers' bytes and peak follow the length of the temp path (its
/// directory and the pid in its name), and a `DatasetEntry` is 8 B
/// larger with debug assertions (the lock-rank fields of
/// `ceg_graph::sync`): on those lines the ledger pins the calls and the
/// bytes keep their bounds.
fn snapshot(ledger: &mut String) {
    /// The 64 KiB file buffer, the temp file's name and the like.
    const SLACK: usize = 128 * 1024;

    // A 2.3 MB graph section (900k edges: a row of one edge at every id
    // of 150k, on six labels) beside a 0.2 MB catalog section (30k
    // single-edge entries, `0 -l-> 1` of cardinality `l`: one byte each
    // for the shared-edge count and the variables, a varint each for the
    // cardinality and the label).
    let (n, labels) = (150_000u32, 6u32);
    let target = |i: u32, l: u32| (i * 7 + l * 13 + 1) % n;
    let mut b = GraphBuilder::with_labels(n as usize, labels as usize);
    for i in 0..n {
        for l in 0..labels {
            b.add_edge(i, target(i, l), l as u16);
        }
    }
    let graph = b.build();
    let mut table = MarkovTable::empty(2);
    for l in 0..30_000u16 {
        table.insert(Pattern::canonical(&[QueryEdge::new(0, 1, l)]), l as u64);
    }
    // Each relation's targets are every id (7 is prime to 150k), so its
    // target set is a γ(1) per id and a target's rank is its id. Each row
    // is a γ(1) for its gap and a γ(1) for its degree, one bit each, and
    // its target a Rice code with `k = ⌊log2 150k⌋ = 17`: a one-bit
    // quotient below 2^17, two bits from there, then 17 bits.
    let relation_bits =
        |l: u32| -> u64 { (0..n).map(|i| 21 + u64::from(target(i, l) >> 17)).sum() };
    let graph_section = 16
        + (0..labels)
            .map(|l| 24 + relation_bits(l).div_ceil(8))
            .sum::<u64>() as usize;
    assert_eq!(graph_payload_len(&graph) as usize, graph_section);
    assert!(graph_section > 2_000_000);
    let catalog_section = 16 + (0..30_000).map(|l| 2 + 2 * varint_len(l)).sum::<u64>() as usize;
    assert_eq!(catalog_section, 206_992);
    // What the writer sorts to list the catalog canonically.
    let catalog_index = table.len() * std::mem::size_of::<(&Pattern, u64)>();

    let path = std::env::temp_dir().join(format!("ceg-cost-{}.cegsnap", std::process::id()));
    let ((), written) = cost(|| write_snapshot(&path, &graph, &table, 7).unwrap());
    let file = std::fs::metadata(&path).unwrap().len() as usize;
    // Header, three section frames, the epoch and both sections.
    assert_eq!(
        file,
        12 + 3 * 20 + 8 + graph_section + catalog_section,
        "both sections are in"
    );
    assert!(
        written.peak <= catalog_index + SLACK,
        "write_snapshot held {} bytes: more than the sorted catalog index \
         ({catalog_index}) and a buffer, for a graph section of {graph_section}",
        written.peak
    );
    assert!(
        catalog_index + SLACK < graph_section / 2,
        "the bound has no room for a graph term"
    );
    writeln!(
        ledger,
        "snapshot.write calls={} file={file} graph_heap_bytes={}",
        written.calls,
        graph.heap_bytes()
    )
    .unwrap();

    // The arrays the decoder fills as the file declares them, per
    // relation: a row id and an offset per row, one offset more, and a
    // target per edge; and, while a relation is read, its target set.
    let rows = |l: u32| graph.distinct_sources(l as u16);
    let arrays: usize = (0..labels)
        .map(|l| 8 * rows(l) + 4 + 4 * graph.label_count(l as u16))
        .sum();
    let largest_set = (0..labels)
        .map(|l| 4 * graph.distinct_targets(l as u16))
        .max()
        .unwrap();
    // No more than 4 bytes per bit of the section: the decoder holds a
    // relation's counts to the bits left, at two bits per row and one per
    // edge and per target, before it reserves them.
    assert!(arrays + largest_set <= 32 * graph_section);

    // Reading it back holds what it returns and, while one relation's
    // row directory is built, that relation's row ids.
    let (clone, cloned) = cost(|| table.clone());
    drop(clone);
    let catalog_bytes = cloned.peak;
    let largest_relation = (0..labels).map(|l| 4 * rows(l)).max().unwrap();
    let (snap, read) = cost(|| read_snapshot(&path).unwrap());
    assert_eq!(snap.epoch, 7);
    assert_eq!(snap.graph.num_edges(), graph.num_edges());
    assert_eq!(snap.markov.len(), table.len());
    assert!(
        read.peak <= graph.heap_bytes() + catalog_bytes + largest_relation + SLACK,
        "read_snapshot held {} bytes for a graph of {}, a catalog of {catalog_bytes} \
         and a largest relation's row ids of {largest_relation}",
        read.peak,
        graph.heap_bytes()
    );
    assert!(
        graph.heap_bytes() + catalog_bytes + largest_relation + SLACK
            < graph.heap_bytes() + catalog_bytes + graph_section,
        "the bound tells a streamed read from one that holds the section"
    );
    drop(snap);
    writeln!(ledger, "snapshot.catalog_clone {cloned}").unwrap();
    writeln!(ledger, "snapshot.read {read}").unwrap();

    // Bit rot in the declared domain (1.5e5 -> 2^31 + 1.5e5 vertices;
    // every id stays in range and every code reads as written, since the
    // domain only bounds the ids) is caught by the checksum before a
    // directory — a bit per declared vertex, per relation and direction,
    // 256 MiB each — is built for it. Before the checksum the decoder
    // holds at most the forward arrays the file declares and the target
    // set of the relation it is reading.
    let mut rotten = std::fs::read(&path).unwrap();
    let num_vertices_at = 12 + 28 + 12; // header, EPOC section, GRPH tag + length
    assert_eq!(
        rotten[num_vertices_at..num_vertices_at + 8],
        (n as u64).to_le_bytes()
    );
    rotten[num_vertices_at + 3] ^= 0x80;
    std::fs::write(&path, &rotten).unwrap();
    drop(rotten);
    let (refused, rot) = cost(|| read_snapshot(&path));
    let err = refused.expect_err("a flipped bit must fail the restore");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert!(
        rot.peak <= arrays + largest_set + SLACK,
        "a rotten domain reached an allocation: {} bytes held, \
         the declared arrays fill {arrays} and a target set {largest_set}",
        rot.peak
    );
    assert!(
        arrays + largest_set + SLACK < (1 << 31) / 8,
        "the bound tells the arrays the section declares from one directory"
    );
    std::fs::remove_file(&path).unwrap();
    writeln!(ledger, "snapshot.read_rotten {rot}").unwrap();

    // The entry moves the graph and the catalog in: no second graph, no
    // edge list, nothing per vertex.
    let (entry, made) = cost(|| DatasetEntry::new("guard", graph, table));
    assert!(
        made.peak < SLACK,
        "DatasetEntry::new held {} bytes beyond the graph and catalog it was handed",
        made.peak
    );
    writeln!(ledger, "snapshot.entry.new calls={}", made.calls).unwrap();

    // Its snapshot streams the pinned graph in place, beside the one
    // catalog clone taken under the catalog lock. Under debug assertions
    // a thread's first lock grows its list of held ranks, so one is
    // taken before the measurement.
    entry.epoch();
    let (result, written) = cost(|| entry.write_snapshot(&path));
    result.unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(
        written.peak <= catalog_bytes + catalog_index + SLACK,
        "DatasetEntry::write_snapshot held {} bytes: more than a catalog clone \
         ({catalog_bytes}) and its sorted index ({catalog_index})",
        written.peak
    );
    writeln!(ledger, "snapshot.entry.write calls={}", written.calls).unwrap();
    drop(entry);

    // Per-section payload bytes of the bench's rungs (seed 2022) with an
    // h = 2 catalog over Job + Acyclic queries made on `g10k`.
    let queries = job_acyclic(2022, 12);
    for (name, k) in [("g10k", 1), ("g100k", 10)] {
        let graph = Rung { k }.graph(2022);
        let table = MarkovTable::build(&graph, &queries, 2);
        write_snapshot(&path, &graph, &table, 0).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut r = SnapshotReader::new(std::fs::File::open(&path).unwrap(), len).unwrap();
        let mut sections = Vec::new();
        while let Some(section) = r
            .next_section(|tag, body| Ok((tag, body.remaining())))
            .unwrap()
        {
            sections.push(section);
        }
        std::fs::remove_file(&path).unwrap();
        let payload = |tag| sections.iter().find(|s| s.0 == tag).map_or(0, |s| s.1);
        writeln!(
            ledger,
            "snapshot.sections.{name} edges={} entries={} GRPH={} MRKV={} EPOC={} file={len}",
            graph.num_edges(),
            table.len(),
            payload(TAG_GRAPH),
            payload(TAG_MARKOV),
            payload(TAG_EPOCH),
        )
        .unwrap();
    }
}

/// One commit on the served graph folds its delta into a successor
/// graph, clones the catalog and recounts the entries that name a
/// touched label. The fold copies only the pages of the relations its
/// delta has a row in; every other page and relation is the
/// predecessor's allocation. On `g100k` the four-op commit of `churn`
/// (one op on each of labels 0, 3, 7 and 15, 3.7k to 28k edges each)
/// peaks at ~0.20 MiB above its baseline. A rebase that copies whole
/// relations — each touched one in both directions, ~0.6 MiB here —
/// puts it at ~0.7 MiB.
///
/// A `DatasetEntry`'s state is 8 B larger with debug assertions (see
/// [`snapshot`]), so the ledger pins the commit's calls and its recount,
/// and its bytes keep their bound.
fn commit(ledger: &mut String) {
    /// What a commit may hold above what was live before it.
    const BOUND: usize = 350 * 1024;
    let seed = 2022;
    let graph = Rung { k: 10 }.graph(seed);
    // Like the bench, the queries are instantiated on the small rung of
    // the same seed; the catalog is counted on the served graph.
    let table = MarkovTable::build(&graph, &job_acyclic(seed, 4), 2);
    let relation_bytes = |l: u16| graph.filter(|_, _, label| label == l).heap_bytes();
    let whole_relations: usize = [0, 3, 7, 15].into_iter().map(relation_bytes).sum();

    let entry = DatasetEntry::new("guard", graph.clone(), table);
    stage_churn_commit(&entry, &graph);
    let (outcome, committed) = cost(|| entry.try_commit().unwrap());
    assert_eq!((outcome.added, outcome.deleted), (2, 2));
    assert!(outcome.rebased);
    assert!(
        whole_relations > BOUND,
        "the bound tells touched pages from touched relations ({whole_relations} bytes)"
    );
    assert!(
        committed.peak <= BOUND,
        "the commit held {} bytes above its baseline (bound {BOUND}; the touched \
         relations whole, both directions, are {whole_relations})",
        committed.peak
    );
    writeln!(
        ledger,
        "commit.g100k calls={} recounted={} touched_relations_bytes={whole_relations}",
        committed.calls, outcome.recounted
    )
    .unwrap();
}

/// The served path, which none of the guards above reaches: an
/// in-process `Engine` (cache 4096) on the g10k graph
/// of seed 2022 with an empty `h = 2` catalog. A 256-query Job + Acyclic
/// pool runs cold (every miss fills the catalog), then hot (every query
/// a hit); `churn`'s 4-op commit follows, then the pool again, stale
/// (every query a miss on a full catalog). Each pass sums the allocator
/// calls and bytes of its estimates and gives the per-query median and
/// maximum calls. A hit's median is below a cold miss's.
///
/// Last, `served.batch`: the pool's first 32 queries as one
/// `Engine::estimate_batch` on a second engine with an empty cache, so
/// all 32 are misses on the warm catalog. The batch runs them on
/// `min(run slots, 32) - 1` helpers beside the calling thread, and the run
/// slots follow the machine's cores, so the line states that rule and
/// gives the batch's calls and bytes less that many helpers' own: each
/// helper's share (its spawn and its join handle) is the marginal
/// helper of `ceg_exec::for_each_ordered`, measured beside it. A batch
/// that spawned another number of helpers would not match the line.
fn served(ledger: &mut String) {
    const DATASET: &str = "g10k";
    let seed = 2022;
    let graph = Rung { k: 1 }.graph(seed);
    let pool = query_pool(&graph, 256, seed);
    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert_graph(DATASET, graph.clone(), 2);
    let engine = Engine::new(registry.clone(), 4096);

    let mut per_query = Vec::with_capacity(pool.len());
    let mut pass = |name: &str, cached: bool, ledger: &mut String| {
        per_query.clear();
        let mut total = Cost::default();
        for q in &pool {
            let (outcome, estimated) = cost(|| engine.estimate(DATASET, q));
            assert_eq!(outcome.unwrap().cached, cached, "{name} pass");
            per_query.push(estimated.calls);
            total.calls += estimated.calls;
            total.bytes += estimated.bytes;
        }
        per_query.sort_unstable();
        let p50 = per_query[per_query.len() / 2];
        writeln!(
            ledger,
            "served.{name} calls={} bytes={} p50_calls={p50} max_calls={} catalog_entries={} \
             catalog_bytes={}",
            total.calls,
            total.bytes,
            per_query[per_query.len() - 1],
            entry.catalog_len(),
            entry.catalog_bytes()
        )
        .unwrap();
        p50
    };
    let cold = pass("cold", false, ledger);
    let hot = pass("hot", true, ledger);
    assert!(
        hot < cold,
        "a hit ({hot} calls at p50) costs a miss's ({cold})"
    );

    stage_churn_commit(&entry, &graph);
    let (outcome, committed) = cost(|| engine.commit(DATASET).unwrap());
    assert_eq!((outcome.added, outcome.deleted), (2, 2));
    // Calls only: the successor state's bytes differ by profile (see
    // [`commit`]).
    writeln!(
        ledger,
        "served.commit calls={} recounted={}",
        committed.calls, outcome.recounted
    )
    .unwrap();

    pass("stale", false, ledger);
    assert!(
        engine.slowlog(1).is_empty(),
        "a miss passed the slow-query threshold, and its record's allocations are in the ledger"
    );

    let batch = &pool[..32];
    let fresh = Engine::new(registry, 4096);
    let mut outcomes = Vec::with_capacity(batch.len());
    let (answered, batched) = cost(|| {
        let keep = |step| {
            if let Handover::Done(_, outcome) = step {
                outcomes.push(outcome);
            }
        };
        fresh.estimate_batch(DATASET, batch, RequestCtx::default(), keep)
    });
    answered.unwrap();
    let want: Vec<QueryOutcome> = batch
        .iter()
        .map(|q| engine.estimate(DATASET, q).unwrap().value)
        .map(|value| {
            QueryOutcome::Done(EstimateOutcome {
                value,
                cached: false,
            })
        })
        .collect();
    assert_eq!(outcomes, want, "the batch answers what the singles did");
    let run_slots = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let helpers = (run_slots.min(batch.len()) - 1) as u64;
    // One more helper of the shared loop: its spawn and its handle.
    let helped = |workers| {
        let probe = |(): &(), _: &mut dyn FnMut()| {};
        cost(|| for_each_ordered(&[(); 4], workers, probe, |_| {})).1
    };
    let (one, two) = (helped(2), helped(3));
    writeln!(
        ledger,
        "served.batch queries=32 misses=32 calls={} bytes={} helpers=min(run_slots,32)-1",
        batched.calls - helpers * (two.calls - one.calls),
        batched.bytes - helpers * (two.bytes - one.bytes),
    )
    .unwrap();
}

/// What the embedding sampler spent on the pools `golden_workload` pins
/// (`generate imdb 42`, 3 per template, seeds 7 and 42, Job / Acyclic /
/// Cyclic): per template, `Workload::build_reported`'s attempts, the
/// attempts that found an embedding, and what the truth budget and a
/// zero truth dropped of them. A sampler that draws differently moves
/// these lines (and `golden_workload`'s); one that wastes fewer attempts
/// moves only `attempts`. Counts only, so the lines are the same in
/// every profile.
fn sampler(ledger: &mut String) {
    let graph = Dataset::Imdb.generate(42);
    for workload in [Workload::Job, Workload::Acyclic, Workload::Cyclic] {
        for seed in [7u64, 42] {
            for r in workload.build_reported(&graph, 3, seed).1 {
                assert_eq!(
                    r.sampled,
                    r.over_budget + r.empty + r.kept,
                    "{}",
                    r.template
                );
                writeln!(
                    ledger,
                    "sampler.{}.seed{seed}.{} want={} attempts={} sampled={} over_budget={} \
                     empty={} kept={}",
                    workload.name(),
                    r.template,
                    r.want,
                    r.attempts,
                    r.sampled,
                    r.over_budget,
                    r.empty,
                    r.kept
                )
                .unwrap();
            }
        }
    }
}

/// What the connection loop hands the wire: [`Server::serve_io`] over
/// the `served` scenario's g10k graph and pool, with a far end that
/// counts the loop's writes (each one a send on a socket), its flushes
/// and the bytes. A fresh server and a fixed order fix every `id=`,
/// `hits=` and `misses=`, so every line but two pins all three:
///
/// - `wire.ping`, `wire.hit`: one write each, and what one more of them
///   asks of the allocator on an open connection (`marginal_calls`).
/// - `wire.miss`: a cold `ESTIMATE`, which flushes an empty buffer
///   before its fill and leaves in one write.
/// - `wire.batch_cold`: a 32-query `ESTIMATE_BATCH` of misses on the
///   catalog the miss began. How many writes its fills split it into
///   follows when the helpers finish, so the line pins bytes, and the
///   scenario asserts it streams: the header leaves before the first
///   fill, in 2 to 33 writes.
/// - `wire.batch_warm`: the same batch again, all hits, in one write.
/// - `wire.explain`: an `EXPLAIN_ESTIMATE`, whose span microseconds
///   make its bytes vary, so the line pins writes and flushes.
/// - `wire.commit`: `churn`'s 4-op commit, acked and flushed before the
///   commit's rotation, then flushed again at the request's end.
fn wire(ledger: &mut String) {
    const DATASET: &str = "g10k";
    let seed = 2022;
    let graph = Rung { k: 1 }.graph(seed);
    let pool = query_pool(&graph, 256, seed);
    let registry = Arc::new(DatasetRegistry::new());
    let entry = registry.insert_graph(DATASET, graph.clone(), 2);
    let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    // A round trip over a socket first, so the accept thread has started
    // and is parked in `accept`, not allocating beside a measurement.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client.quit().unwrap();
    // One connection from `input` to a counting far end: its counts,
    // its reply text and what it asked of the allocator.
    let exchange = |input: &str| {
        let mut far = WireCount {
            text: Vec::with_capacity(1 << 16),
            ..WireCount::default()
        };
        let (ended, cost) = cost(|| server.serve_io(input.as_bytes(), &mut far));
        ended.unwrap();
        let text = String::from_utf8(std::mem::take(&mut far.text)).unwrap();
        (far, text, cost)
    };
    // What one more `input` asks of the allocator on an open connection.
    let marginal = |input: &str| exchange(&input.repeat(2)).2.calls - exchange(input).2.calls;
    let line = |request: Request| request.format() + "\n";
    let single = line(Request::Estimate {
        dataset: DATASET.into(),
        query: pool[32].clone(),
        deadline_ms: None,
    });
    let batch = line(Request::EstimateBatch {
        dataset: DATASET.into(),
        queries: pool[..32].to_vec(),
        deadline_ms: None,
    });
    let explain = line(Request::ExplainEstimate {
        dataset: DATASET.into(),
        query: pool[33].clone(),
        deadline_ms: None,
    });

    let (ping, text, _) = exchange("PING\n");
    assert!(text.starts_with("PONG id="), "{text:?}");
    writeln!(
        ledger,
        "wire.ping {ping} marginal_calls={}",
        marginal("PING\n")
    )
    .unwrap();

    let (miss, text, _) = exchange(&single);
    assert!(text.contains(" cache=miss"), "{text:?}");
    writeln!(ledger, "wire.miss {miss}").unwrap();
    let (hit, text, _) = exchange(&single);
    assert!(text.contains(" cache=hit"), "{text:?}");
    writeln!(
        ledger,
        "wire.hit {hit} marginal_calls={}",
        marginal(&single)
    )
    .unwrap();

    let (cold, text, _) = exchange(&batch);
    assert!(text.starts_with("BATCH 32 id="), "{text:?}");
    assert_eq!(text.matches(" cache=miss").count(), 32, "{text}");
    assert!(
        (2..=33).contains(&cold.writes),
        "a cold batch streams its answers: {cold}"
    );
    writeln!(ledger, "wire.batch_cold bytes={}", cold.bytes).unwrap();
    let (warm, text, _) = exchange(&batch);
    assert_eq!(text.matches(" cache=hit").count(), 32, "{text}");
    writeln!(ledger, "wire.batch_warm {warm}").unwrap();

    let (explained, text, _) = exchange(&explain);
    assert!(text.starts_with("EXPLAIN "), "{text:?}");
    let (writes, flushes) = (explained.writes, explained.flushes);
    writeln!(ledger, "wire.explain writes={writes} flushes={flushes}").unwrap();

    stage_churn_commit(&entry, &graph);
    let (committed, text, _) = exchange(&format!("COMMIT {DATASET}\n"));
    assert!(text.starts_with("COMMITTED "), "{text:?}");
    writeln!(ledger, "wire.commit {committed}").unwrap();
    drop(server);
}

/// The far end of a [`wire`] connection: the writes and flushes the
/// connection loop made, the bytes it wrote, and their text.
#[derive(Default)]
struct WireCount {
    writes: u64,
    flushes: u64,
    bytes: u64,
    text: Vec<u8>,
}

impl std::io::Write for WireCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        self.text.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

impl fmt::Display for WireCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let WireCount {
            writes,
            flushes,
            bytes,
            ..
        } = self;
        write!(f, "writes={writes} flushes={flushes} bytes={bytes}")
    }
}

/// A scenario: it asserts its bounds and appends its lines to the ledger.
type Scenario = fn(&mut String);

/// The scenarios in ledger order, by the prefix of their lines.
pub const SCENARIOS: [(&str, Scenario); 12] = [
    ("kernel", kernel),
    ("tree_dp", tree_dp),
    ("ceg_o", ceg_o),
    ("canon", canon),
    ("cache", cache),
    ("catalog", catalog),
    ("graph", graph),
    ("snapshot", snapshot),
    ("commit", commit),
    ("served", served),
    ("sampler", sampler),
    ("wire", wire),
];

/// Run the `wanted` scenarios in ledger order and hold the lines they
/// write to the fixture's lines of the same scenarios. With
/// `GOLDEN_COST_WRITE` set only the bounds hold, and a run of every
/// scenario re-records the fixture.
pub fn check(wanted: &[&str]) {
    let mut ledger = String::new();
    let ran: Vec<&str> = SCENARIOS
        .into_iter()
        .filter(|(name, _)| wanted.contains(name))
        .map(|(name, scenario)| {
            scenario(&mut ledger);
            name
        })
        .collect();
    assert_eq!(ran.len(), wanted.len(), "unknown scenario in {wanted:?}");

    if std::env::var_os("GOLDEN_COST_WRITE").is_some() {
        if ran.len() == SCENARIOS.len() {
            std::fs::write(FIXTURE, &ledger).expect("write golden fixture");
        }
        return;
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is checked in");
    let skipped = |line: &str| {
        SCENARIOS
            .iter()
            .any(|(name, _)| !ran.contains(name) && line.starts_with(&format!("{name}.")))
    };
    let want: String = fixture
        .lines()
        .filter(|line| !skipped(line))
        .map(|line| format!("{line}\n"))
        .collect();
    for (got, want) in ledger.lines().zip(want.lines()) {
        assert_eq!(got, want, "a cost moved");
    }
    assert_eq!(
        ledger.lines().count(),
        want.lines().count(),
        "the ledger's lines moved"
    );
}
