//! A vertex id far past the rest of the domain costs the graph a page,
//! not a directory over the domain.
//!
//! An update may introduce any vertex id up to `MAX_UPDATE_VERTEX`
//! (2^24 - 1). Each relation's index is a table of pages of 4,096 ids,
//! only as long as its last occupied page, so an edge at the top id
//! costs the relation-directions it lands in one page and a page table
//! of 4,096 slots (48 KiB) — not a bitmap and rank over 2^24 ids per
//! relation-direction (3 MiB), as a whole-domain directory did. A later
//! commit on another relation grows that relation's domain to 2^24 too
//! and must cost its delta, not the domain; and a snapshot of that
//! state must restore to exactly the live graph's heap, not to one
//! directory per relation over the grown domain.

use cegraph::catalog::io::read_snapshot;
use cegraph::catalog::MarkovTable;
use cegraph::service::{DatasetEntry, MAX_UPDATE_VERTEX};
use cegraph::workload::Rung;

/// What one touched relation-direction may grow by.
const PER_DIRECTION: usize = 64 * 1024;

#[test]
fn a_far_vertex_costs_a_page_per_touched_relation_direction() {
    let graph = Rung { k: 1 }.graph(42);
    let entry = DatasetEntry::new("far", graph, MarkovTable::empty(2));
    let mut bytes = entry.graph_bytes();

    // Label 0, forward (a new row at the top id) and backward (a new
    // row at vertex 0).
    entry.add_edge(MAX_UPDATE_VERTEX, 0, 0).unwrap();
    let outcome = entry.try_commit().unwrap();
    assert!(outcome.rebased);
    assert_eq!(entry.graph_summary().0, MAX_UPDATE_VERTEX as usize + 1);
    let grown = entry.graph_bytes() - bytes;
    assert!(
        grown <= 2 * PER_DIRECTION,
        "an edge at the top id grew the graph by {grown} bytes"
    );

    // Eight single-edge commits on other labels, each over the grown
    // domain.
    for l in 1..=8u16 {
        bytes = entry.graph_bytes();
        entry.add_edge(5, 8_000 + u32::from(l), l).unwrap();
        assert!(entry.try_commit().unwrap().rebased);
        let grown = entry.graph_bytes().saturating_sub(bytes);
        assert!(
            grown <= PER_DIRECTION,
            "a one-edge commit on label {l} grew the graph by {grown} bytes"
        );
    }

    let path =
        std::env::temp_dir().join(format!("ceg-domain-growth-{}.cegsnap", std::process::id()));
    entry.write_snapshot(&path).unwrap();
    let restored = read_snapshot(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let live = entry.materialized_graph();
    assert_eq!(restored.graph.num_vertices(), live.num_vertices());
    assert_eq!(restored.graph.num_edges(), live.num_edges());
    assert_eq!(
        restored.graph.heap_bytes(),
        live.heap_bytes(),
        "the restore holds what the live graph holds"
    );
}
