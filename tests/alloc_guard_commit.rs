//! Allocation guard, by peak live bytes, for one commit on the served
//! graph.
//!
//! A commit folds its delta into a successor graph, clones the catalog
//! and recounts the entries that name a touched label. The fold copies
//! only the pages of the relations its delta has a row in: every other
//! page, and every other relation, is the predecessor's allocation. On
//! the `g100k` bench graph the four-op commit of the `churn` workload
//! (one op on each of labels 0, 3, 7 and 15, 3.7k to 28k edges each)
//! peaks at ~0.20 MiB above its baseline: the fold allocates ~45 KB
//! (~18 KB of it the new pages it keeps), the rest is the catalog clone
//! and the recount scratch.
//!
//! The mutation this catches: a rebase that copies whole relations —
//! each touched relation in both directions, ~0.6 MiB for this commit —
//! puts the commit at ~0.7 MiB and fails the bound.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counters (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::MarkovTable;
use cegraph::query::QueryGraph;
use cegraph::service::DatasetEntry;
use cegraph::workload::{Dataset, DatasetSpec, Workload};

struct PeakTrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakTrackingAlloc {
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
static GLOBAL: PeakTrackingAlloc = PeakTrackingAlloc;

/// Peak live bytes `f` holds beyond what was live when it started.
fn held_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - before)
}

/// What a commit may hold above what was live before it.
const BOUND: usize = 350 * 1024;

#[test]
fn a_commit_holds_its_touched_pages_not_its_touched_relations() {
    let seed = 2022;
    let spec = DatasetSpec {
        num_vertices: 90_000,
        num_edges: 220_000,
        ..Dataset::Imdb.spec()
    };
    let graph = spec.generate(seed);
    // Like the bench, the queries are instantiated on the small rung of
    // the same seed; the catalog is counted on the served graph.
    let small = DatasetSpec {
        num_vertices: 9_000,
        num_edges: 22_000,
        ..Dataset::Imdb.spec()
    }
    .generate(seed);
    let queries: Vec<QueryGraph> = [Workload::Job, Workload::Acyclic]
        .iter()
        .flat_map(|w| w.build(&small, 4, seed))
        .map(|q| q.query)
        .collect();
    let table = MarkovTable::build(&graph, &queries, 2);
    let relation_bytes = |l: u16| {
        let sub = graph.filter(|_, _, label| label == l);
        sub.heap_bytes()
    };
    let whole_relations: usize = [0, 3, 7, 15].into_iter().map(relation_bytes).sum();

    // `churn`'s commit shape: an insertion on labels 0 and 7, the
    // deletion of a present edge on labels 3 and 15.
    let entry = DatasetEntry::new("guard", graph.clone(), table);
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
    let (outcome, held) = held_by(|| entry.try_commit().unwrap());
    assert_eq!((outcome.added, outcome.deleted), (2, 2));
    assert!(outcome.rebased);
    assert!(
        whole_relations > BOUND,
        "the bound tells touched pages from touched relations ({whole_relations} bytes)"
    );
    assert!(
        held <= BOUND,
        "the commit held {held} bytes above its baseline (bound {BOUND}; the touched \
         relations whole, both directions, are {whole_relations})"
    );
}
