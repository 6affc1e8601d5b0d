//! Allocation guard, by peak live bytes, for writing a snapshot.
//!
//! `write_snapshot` streams the container through a 64 KiB buffer into
//! the temp file and materialises one section payload at a time, each in
//! a single allocation of its exact length: what it holds at once is the
//! largest section, not the file. Before, `encode_graph` grew its buffer
//! by doubling and the whole file was assembled in a second doubling
//! buffer before the first byte was written — more than twice the file
//! at the peak.
//!
//! A dataset entry adds nothing to that: it stores the graph it is
//! handed (no second copy beside it) and its snapshot encodes that graph
//! in place, so the only thing it holds beyond the section being written
//! is the catalog clone it takes to release the catalog lock.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counters (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::io::{encode_markov, write_snapshot};
use cegraph::catalog::MarkovTable;
use cegraph::graph::snapshot::encode_graph;
use cegraph::graph::GraphBuilder;
use cegraph::query::{Pattern, QueryEdge};
use cegraph::service::DatasetEntry;

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

/// The 64 KiB write buffer, the temp file's name and the like.
const SLACK: usize = 128 * 1024;

#[test]
fn write_snapshot_holds_one_section_not_the_file() {
    // A 3.6 MB graph section (150k edges) beside a 0.4 MB catalog
    // section (30k single-edge entries); before the change this write
    // held 15 MB.
    let n = 50_000u32;
    let mut b = GraphBuilder::with_labels(n as usize, 3);
    for i in 0..n {
        for l in 0..3u32 {
            b.add_edge(i, (i * 7 + l * 13 + 1) % n, l as u16);
        }
    }
    let graph = b.build();
    let mut table = MarkovTable::empty(2);
    for l in 0..30_000u16 {
        table.insert(Pattern::canonical(&[QueryEdge::new(0, 1, l)]), l as u64);
    }
    let graph_section = encode_graph(&graph).len();
    let catalog_section = encode_markov(&table).len();
    assert!(graph_section > 2_000_000 && catalog_section > 400_000);

    /// Peak live bytes `f` holds beyond what was live when it started.
    fn held_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let r = f();
        (r, PEAK.load(Ordering::SeqCst) - before)
    }

    let path = std::env::temp_dir().join(format!("ceg-alloc-guard-{}.cegsnap", std::process::id()));
    let ((), held) = held_by(|| write_snapshot(&path, &graph, &table, 7).unwrap());

    let file = std::fs::metadata(&path).unwrap().len() as usize;
    std::fs::remove_file(&path).unwrap();
    assert!(file > graph_section + catalog_section);
    assert!(
        held <= graph_section + SLACK,
        "write_snapshot held {held} bytes for a {file}-byte file \
         whose largest section is {graph_section}"
    );
    assert!(
        graph_section + SLACK < file,
        "the bound tells the two apart"
    );

    // The entry moves the graph and the catalog in: no second graph, no
    // edge list, nothing per vertex.
    let (clone, catalog_clone) = held_by(|| table.clone());
    drop(clone);
    let (entry, held) = held_by(|| DatasetEntry::new("guard", graph, table));
    assert!(
        held < SLACK,
        "DatasetEntry::new held {held} bytes beyond the graph and catalog it was handed"
    );

    // Its snapshot encodes the pinned graph in place, beside the one
    // catalog clone taken under the catalog lock.
    let (written, held) = held_by(|| entry.write_snapshot(&path));
    written.unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(
        held <= catalog_clone + graph_section + SLACK,
        "DatasetEntry::write_snapshot held {held} bytes: more than a catalog clone \
         ({catalog_clone}) and the graph section ({graph_section})"
    );
}
