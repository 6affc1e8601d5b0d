//! Allocation and size guard for the estimate cache, on the pool shape of
//! the wire benchmark's `wide` workload: 6,144 distinct Job + Acyclic
//! queries on the g10k graph (seed 1) through a 4,096-entry cache.
//!
//! - A full cache holds at most 512 KiB of live bytes (494,463 B), exactly
//!   what `EstimateCache::heap_bytes` reports. It held 941,648 B while
//!   every entry was three allocations (a bucket `Vec`, a `String` copy of
//!   the dataset name and the query's edges) behind a hash map and a
//!   recency queue that grew with hits.
//! - A store at capacity under a fresh key, of a query no longer than the
//!   one it evicts, makes no allocator call: it overwrites the evicted
//!   slot and its edge buffer.
//! - A hit makes exactly the allocator calls of the one `is_isomorphic`
//!   that verifies it.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counters (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cegraph::graph::LabeledGraph;
use cegraph::query::{QueryEdge, QueryGraph};
use cegraph::service::{EstimateCache, ProbeOutcome};
use cegraph::workload::{Dataset, DatasetSpec, Workload};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes.
fn calls_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.load(Ordering::SeqCst);
    let r = f();
    (r, CALLS.load(Ordering::SeqCst) - before)
}

/// `size` pairwise non-isomorphic queries of `families` on `graph`, taken
/// at an even stride from everything generated: the wire benchmark's
/// query pool.
fn query_pool(
    graph: &LabeledGraph,
    families: &[Workload],
    size: usize,
    seed: u64,
) -> Vec<QueryGraph> {
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

const CAPACITY: usize = 4096;
const DATASET: &str = "default";

#[test]
fn a_full_wide_cache_is_small_and_stores_at_capacity_allocate_nothing() {
    let seed = 1;
    let graph = DatasetSpec {
        num_vertices: 9_000,
        num_edges: 22_000,
        ..Dataset::Imdb.spec()
    }
    .generate(seed);
    let pool = query_pool(&graph, &[Workload::Job, Workload::Acyclic], 6_144, seed);
    let hashes: Vec<u64> = pool.iter().map(QueryGraph::canonical_hash).collect();

    // Fill: every query stored once, the first 2,048 evicted again.
    let live_before = LIVE.load(Ordering::SeqCst);
    let mut cache = EstimateCache::new(CAPACITY);
    for (q, &h) in pool.iter().zip(&hashes) {
        cache.store_hashed(DATASET, q, h, 0, Some(1.0));
    }
    let held = LIVE.load(Ordering::SeqCst) - live_before;
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(held, cache.heap_bytes(), "heap_bytes is the live heap");
    assert!(held <= 512 * 1024, "a full cache holds {held} B");

    // A hit: the one `is_isomorphic` of the cached query against a
    // renamed copy of it, and nothing else.
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
    let (iso, iso_calls) = calls_of(|| pool[last].is_isomorphic(&renamed));
    assert!(iso);
    let (hit, hit_calls) = calls_of(|| cache.probe_hashed(DATASET, &renamed, hashes[last], 0));
    assert_eq!(hit, ProbeOutcome::Hit(Some(1.0)));
    assert_eq!(
        hit_calls, iso_calls,
        "a hit allocates only inside is_isomorphic"
    );

    // Stores under fresh keys at capacity. Least recently used first, the
    // cache holds pool[2048..6143], then pool[6143] (just hit): storing
    // them in that order gives each its own evicted slot's buffer back.
    let order = (2048..last).chain([last]);
    let live_before = LIVE.load(Ordering::SeqCst);
    let ((), store_calls) = calls_of(|| {
        for (i, at) in order.enumerate() {
            let fresh_key = (1 << 40) + i as u64;
            cache.store_hashed(DATASET, &pool[at], fresh_key, 0, Some(2.0));
        }
    });
    assert_eq!(store_calls, 0, "4,096 stores at capacity allocated");
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(LIVE.load(Ordering::SeqCst), live_before);
    assert_eq!(cache.heap_bytes(), held);
    assert_eq!(
        cache.probe_hashed(DATASET, &pool[2048], hashes[2048], 0),
        ProbeOutcome::ColdMiss,
        "the original keys were all evicted"
    );
}
