//! Allocation guard, by peak live bytes, for writing and reading a
//! snapshot.
//!
//! Both directions stream. `write_snapshot` puts the graph's own arrays
//! and the table's entries into the temp file through a 64 KiB buffer
//! under a running checksum: beyond that buffer it holds the sorted
//! index of the catalog's entries and nothing that grows with the graph.
//! `read_snapshot` decodes each section from the read buffer into the
//! arrays the graph keeps: at its peak it holds the graph and catalog it
//! returns plus less than one relation (the ids of the rows being
//! turned into a directory). Before, the writer materialised each
//! section's payload (a second copy of the graph) and the reader held
//! the file, a copy of the section and the decoded arrays at once.
//!
//! A dataset entry adds nothing to that: it stores the graph it is
//! handed (no second copy beside it) and its snapshot streams that graph
//! in place, so the only thing it holds beyond the writer's own is the
//! catalog clone it takes to release the catalog lock.
//!
//! A single test lives here so no concurrent test case can pollute the
//! counters (see `tests/alloc_guard.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::io::{read_snapshot, write_snapshot};
use cegraph::catalog::MarkovTable;
use cegraph::graph::snapshot::graph_payload_len;
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

/// The 64 KiB file buffer, the temp file's name and the like.
const SLACK: usize = 128 * 1024;

/// Peak live bytes `f` holds beyond what was live when it started.
fn held_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - before)
}

#[test]
fn snapshot_write_and_read_hold_a_buffer_not_a_section() {
    // A 3.6 MB graph section (150k edges) beside a 0.4 MB catalog
    // section (30k single-edge entries).
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
    let graph_section = graph_payload_len(&graph) as usize;
    assert!(graph_section > 2_000_000);
    // What the writer sorts to list the catalog canonically.
    let catalog_index = table.len() * std::mem::size_of::<(&Pattern, u64)>();

    let path = std::env::temp_dir().join(format!("ceg-alloc-guard-{}.cegsnap", std::process::id()));
    let ((), held) = held_by(|| write_snapshot(&path, &graph, &table, 7).unwrap());
    let file = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file > graph_section + 400_000, "both sections are in");
    assert!(
        held <= catalog_index + SLACK,
        "write_snapshot held {held} bytes: more than the sorted catalog index \
         ({catalog_index}) and a buffer, for a graph section of {graph_section}"
    );
    assert!(
        catalog_index + SLACK < graph_section / 2,
        "the bound has no room for a graph term"
    );

    // Reading it back holds what it returns and, while one relation's
    // row directory is built, that relation's row ids.
    let (clone, catalog_bytes) = held_by(|| table.clone());
    drop(clone);
    let largest_relation = graph_section / 3;
    let (snap, held) = held_by(|| read_snapshot(&path).unwrap());
    assert_eq!(snap.epoch, 7);
    assert_eq!(snap.graph.num_edges(), graph.num_edges());
    assert_eq!(snap.markov.len(), table.len());
    assert!(
        held <= graph.heap_bytes() + catalog_bytes + largest_relation + SLACK,
        "read_snapshot held {held} bytes for a graph of {}, a catalog of {catalog_bytes} \
         and a largest relation of {largest_relation}",
        graph.heap_bytes()
    );
    assert!(
        graph.heap_bytes() + catalog_bytes + largest_relation + SLACK
            < graph.heap_bytes() + catalog_bytes + graph_section,
        "the bound tells a streamed read from one that holds the section"
    );
    drop(snap);

    // Bit rot in the declared domain (5e4 -> 2^31 + 5e4 vertices; every
    // id stays in range) is caught by the checksum before a directory —
    // a bit per declared vertex, per relation and direction — is built
    // for it.
    let mut rotten = std::fs::read(&path).unwrap();
    let num_vertices_at = 12 + 28 + 12; // header, EPOC section, GRPH tag + length
    assert_eq!(
        rotten[num_vertices_at..num_vertices_at + 8],
        (n as u64).to_le_bytes()
    );
    rotten[num_vertices_at + 3] ^= 0x80;
    std::fs::write(&path, &rotten).unwrap();
    drop(rotten);
    let (refused, held) = held_by(|| read_snapshot(&path));
    let err = refused.expect_err("a flipped bit must fail the restore");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert!(
        held <= graph_section + SLACK,
        "a rotten domain reached an allocation: {held} bytes held, \
         the section's bytes fill {graph_section}"
    );
    std::fs::remove_file(&path).unwrap();

    // The entry moves the graph and the catalog in: no second graph, no
    // edge list, nothing per vertex.
    let (entry, held) = held_by(|| DatasetEntry::new("guard", graph, table));
    assert!(
        held < SLACK,
        "DatasetEntry::new held {held} bytes beyond the graph and catalog it was handed"
    );

    // Its snapshot streams the pinned graph in place, beside the one
    // catalog clone taken under the catalog lock.
    let (written, held) = held_by(|| entry.write_snapshot(&path));
    written.unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(
        held <= catalog_bytes + catalog_index + SLACK,
        "DatasetEntry::write_snapshot held {held} bytes: more than a catalog clone \
         ({catalog_bytes}) and its sorted index ({catalog_index})"
    );
}
