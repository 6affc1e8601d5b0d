//! Exactness guard for `MarkovTable::heap_bytes`, the figure behind the
//! `catalog_bytes` gauge: the bytes dropping a table gives back to the
//! allocator are exactly what it reports, for a table however it came
//! about — built from a workload, grown by inserts past a doubling,
//! cloned (as every commit does), recounted in place, and loaded from
//! its text form.
//!
//! The catalog is the one of `cegbench`'s `churn` workload in miniature:
//! Job + Acyclic queries on the g10k graph (seed 2022), `h = 2`.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counters (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::io::{load_markov, save_markov};
use cegraph::catalog::MarkovTable;
use cegraph::query::{Pattern, QueryEdge, QueryGraph};
use cegraph::workload::{Dataset, DatasetSpec, Workload};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `table` reports, and the live bytes dropping it frees.
fn reported_and_freed(table: MarkovTable) -> (usize, usize) {
    let reported = table.heap_bytes();
    let before = LIVE.load(Ordering::SeqCst);
    drop(table);
    (reported, before - LIVE.load(Ordering::SeqCst))
}

#[test]
fn catalog_heap_bytes_are_exactly_what_the_table_holds() {
    let seed = 2022;
    let graph = DatasetSpec {
        num_vertices: 9_000,
        num_edges: 22_000,
        ..Dataset::Imdb.spec()
    }
    .generate(seed);
    let queries: Vec<QueryGraph> = [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&graph, 4, seed))
        .map(|q| q.query)
        .collect();
    let built = MarkovTable::build(&graph, &queries, 2);
    assert!(built.len() > 100, "{} entries", built.len());

    let mut grown = built.clone();
    let before = grown.heap_bytes();
    let mut label = 1_000;
    while grown.heap_bytes() < before * 3 / 2 {
        grown.insert(Pattern::canonical(&[QueryEdge::new(0, 1, label)]), 1);
        label += 1;
    }

    let mut refreshed = built.clone();
    assert!(refreshed.refresh_touched(&graph, &[0, 3, 7, 15], 1) > 0);

    let path = std::env::temp_dir().join(format!("ceg-catalog-{}.markov", std::process::id()));
    save_markov(&built, &path).unwrap();
    let loaded = load_markov(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let empty = MarkovTable::empty(2);
    assert_eq!(reported_and_freed(empty), (0, 0));
    let cloned = built.clone();
    for (what, table) in [
        ("built", built),
        ("grown", grown),
        ("cloned", cloned),
        ("refreshed", refreshed),
        ("loaded", loaded),
    ] {
        let entries = table.len();
        let (reported, freed) = reported_and_freed(table);
        assert_eq!(reported, freed, "{what} table of {entries} entries");
    }
}
