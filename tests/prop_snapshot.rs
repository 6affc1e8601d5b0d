//! Property tests of the binary snapshot path, end to end through the
//! service registry: for random base graphs × random committed deltas,
//! `write_snapshot → read_snapshot` must hand back
//!
//! 1. an **equal graph** (same domain, same edge set),
//! 2. a **byte-identical catalog** (persisted text form, the strictest
//!    table equality available),
//! 3. the **preserved epoch** — and the restored entry must continue the
//!    epoch sequence, not restart it.
//!
//! Plus the durability property: *every* strict prefix of a valid
//! snapshot file is rejected with an error (truncation can never produce
//! a silently different dataset), as is any snapshot with a flipped
//! graph-payload byte (checksum).
//!
//! Plus the format property: the file the streaming writer produces is,
//! byte for byte, the file an in-memory encoder written here from the
//! format's description produces — for graphs with gap labels, empty
//! relations and relations left at an older, smaller domain by a rebase.

use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::io::write_markov;
use cegraph::catalog::MarkovTable;
use cegraph::graph::snapshot::{
    section_checksum, FORMAT_VERSION, MAGIC, TAG_EPOCH, TAG_GRAPH, TAG_MARKOV,
};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::templates;
use cegraph::service::DatasetEntry;
use proptest::prelude::*;

const VERTICES: u32 = 12;
const LABELS: u16 = 3;

/// One random edge operation: `(src, dst, label, is_add)`.
type Op = (u32, u32, u16, bool);

fn arb_case() -> impl Strategy<Value = (Vec<(u32, u32, u16)>, Vec<Op>)> {
    (
        prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 5..40),
        prop::collection::vec(
            (
                0u32..VERTICES,
                0u32..VERTICES,
                0u16..LABELS,
                (0u8..2).prop_map(|b| b == 1),
            ),
            1..25,
        ),
    )
}

fn build_graph(edges: &[(u32, u32, u16)]) -> LabeledGraph {
    let mut b = GraphBuilder::with_labels(VERTICES as usize, LABELS as usize);
    for &(s, d, l) in edges {
        b.add_edge(s, d, l);
    }
    b.build()
}

fn table_bytes(t: &MarkovTable) -> Vec<u8> {
    let mut buf = Vec::new();
    write_markov(t, &mut buf).unwrap();
    buf
}

/// The `GRPH` payload, built whole from what the graph's public
/// accessors say: `u64 num_vertices, u64 num_labels`, then per label and
/// direction `u64 num_rows, u64 num_targets`, the row ids, the
/// `num_rows + 1` offsets and the targets, all `u32` little-endian.
fn oracle_graph_payload(g: &LabeledGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_labels() as u64).to_le_bytes());
    for l in 0..g.num_labels() as u16 {
        for backward in [false, true] {
            let rows: Vec<(u32, &[u32])> = g.rows(l, backward).collect();
            let num_targets: usize = rows.iter().map(|(_, r)| r.len()).sum();
            buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(num_targets as u64).to_le_bytes());
            let ids = rows.iter().map(|&(v, _)| v);
            let offsets = std::iter::once(0).chain(rows.iter().scan(0u32, |end, (_, r)| {
                *end += r.len() as u32;
                Some(*end)
            }));
            let targets = rows.iter().flat_map(|(_, r)| r.iter().copied());
            for x in ids.chain(offsets).chain(targets) {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    buf
}

/// The `MRKV` payload, built whole: `u64 h, u64 count`, then per entry in
/// pattern order `u64 cardinality, u16 num_edges` and per edge
/// `u8 src, u8 dst, u16 label`.
fn oracle_markov_payload(t: &MarkovTable) -> Vec<u8> {
    let mut entries: Vec<_> = t.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut buf = Vec::new();
    buf.extend_from_slice(&(t.h() as u64).to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (p, c) in entries {
        buf.extend_from_slice(&c.to_le_bytes());
        buf.extend_from_slice(&(p.num_edges() as u16).to_le_bytes());
        for e in p.edges() {
            buf.extend_from_slice(&[e.src, e.dst]);
            buf.extend_from_slice(&e.label.to_le_bytes());
        }
    }
    buf
}

/// The whole container around the three payloads.
fn oracle_file(entry: &DatasetEntry) -> Vec<u8> {
    let mut file = Vec::from(MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for (tag, payload) in [
        (TAG_EPOCH, entry.epoch().to_le_bytes().to_vec()),
        (TAG_GRAPH, oracle_graph_payload(&entry.materialized_graph())),
        (TAG_MARKOV, entry.with_markov(oracle_markov_payload)),
    ] {
        file.extend_from_slice(&tag);
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&section_checksum(&payload).to_le_bytes());
    }
    file
}

/// A unique scratch path per proptest case (cases run in one process).
fn scratch_path(stem: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ceg-{stem}-{}-{n}.cegsnap", std::process::id()))
}

/// Drive one random case into a committed entry with a warm catalog.
fn committed_entry(base_edges: &[(u32, u32, u16)], ops: &[Op]) -> DatasetEntry {
    let entry = DatasetEntry::new("ds", build_graph(base_edges), MarkovTable::empty(2));
    let queries = [
        templates::path(2, &[0, 1]),
        templates::star(2, &[1, 2]),
        templates::cycle(3, &[0, 1, 2]),
    ];
    entry.ensure_patterns(&queries);
    for &(s, d, l, add) in ops {
        if add {
            entry.add_edge(s, d, l).unwrap();
        } else {
            entry.del_edge(s, d, l).unwrap();
        }
    }
    entry.commit();
    entry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_roundtrip_preserves_graph_catalog_and_epoch(
        (base_edges, ops) in arb_case()
    ) {
        let entry = committed_entry(&base_edges, &ops);
        let path = scratch_path("prop-roundtrip");
        let (epoch, bytes) = entry.write_snapshot(&path).unwrap();
        prop_assert!(bytes > 0);
        prop_assert_eq!(epoch, entry.epoch());

        let restored = DatasetEntry::read_snapshot("restored", &path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // (3) epoch-preserving.
        prop_assert_eq!(restored.epoch(), entry.epoch());

        // (1) graph-equal: same summary, same edge set, both directions.
        prop_assert_eq!(restored.graph_summary(), entry.graph_summary());
        let live = entry.materialized_graph();
        let back = restored.materialized_graph();
        prop_assert_eq!(live.num_edges(), back.num_edges());
        for e in live.all_edges() {
            prop_assert!(back.has_edge(e.src, e.dst, e.label), "missing {:?}", e);
        }
        for l in 0..live.num_labels() as u16 {
            prop_assert_eq!(live.distinct_sources(l), back.distinct_sources(l));
            prop_assert_eq!(live.distinct_targets(l), back.distinct_targets(l));
        }

        // (2) catalog byte-identical.
        let live_bytes = entry.with_markov(table_bytes);
        let back_bytes = restored.with_markov(table_bytes);
        prop_assert_eq!(live_bytes, back_bytes);

        // The restored entry is live: the epoch sequence continues.
        let before = restored.epoch();
        restored.add_edge(0, 1, 0).unwrap();
        restored.del_edge(0, 1, 0).unwrap();
        restored.add_edge(1, 0, 1).unwrap();
        let outcome = restored.commit();
        prop_assert!(outcome.epoch == before || outcome.epoch == before + 1);
    }

    #[test]
    fn every_truncation_and_byte_flip_is_rejected(
        (base_edges, ops) in arb_case(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
    ) {
        let entry = committed_entry(&base_edges, &ops);
        let path = scratch_path("prop-corrupt");
        entry.write_snapshot(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // A strict prefix never restores: either the container errors
        // (mid-section truncation) or a required section is missing.
        let cut = ((good.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &good[..cut.min(good.len() - 1)]).unwrap();
        prop_assert!(DatasetEntry::read_snapshot("x", &path).is_err(), "cut at {}", cut);

        // Flipping any byte of the file must fail the restore: the magic
        // or version check, a section checksum, or — when the flip hits
        // a section tag — the required-section check.
        let idx = (((good.len() - 1) as f64) * flip_frac) as usize;
        let mut flipped = good.clone();
        flipped[idx] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(DatasetEntry::read_snapshot("x", &path).is_err(), "flip at {}", idx);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streamed_file_is_the_oracle_encoding(
        base_edges in prop::collection::vec((0u32..VERTICES, 0u32..VERTICES, 0u16..LABELS), 0..40),
        // Vertices past the base domain grow it for the relations the
        // commit touches only; labels past the base's leave gaps.
        ops in prop::collection::vec(
            (0u32..2 * VERTICES, 0u32..2 * VERTICES, 0u16..3 * LABELS, (0u8..4).prop_map(|b| b > 0)),
            0..25,
        ),
    ) {
        let entry = committed_entry(&base_edges, &ops);
        let path = scratch_path("prop-oracle");
        entry.write_snapshot(&path).unwrap();
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(written, oracle_file(&entry));
    }

}
