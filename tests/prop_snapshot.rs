//! Property tests of the binary snapshot path, end to end through the
//! service registry: for random base graphs × random committed deltas,
//! `write_snapshot → read_snapshot` must hand back
//!
//! 1. an **equal graph** (same domain, same edge set),
//! 2. an **equal catalog** (same `h`, same pattern → count pairs),
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
//! relations and relations left at an older, smaller domain by a rebase,
//! for the shapes the graph section's bit codes have edges at (a row as
//! wide as the domain, a row and a target at id 2^24 - 1, a one-vertex
//! domain), and
//! for random catalogs, which also read back to an equal table that
//! writes the same bytes again.

use std::sync::atomic::{AtomicUsize, Ordering};

use cegraph::catalog::io::{read_snapshot, write_snapshot};
use cegraph::catalog::MarkovTable;
use cegraph::graph::snapshot::{
    section_checksum, FORMAT_VERSION, MAGIC, TAG_EPOCH, TAG_GRAPH, TAG_MARKOV,
};
use cegraph::graph::{GraphBuilder, LabeledGraph};
use cegraph::query::{templates, Pattern, QueryEdge};
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

/// Unsigned LEB128: seven bits per byte, least significant group
/// first, the high bit set on every byte but the last.
fn leb128(buf: &mut Vec<u8>, value: impl Into<u64>) {
    let value: u64 = value.into();
    let groups = (0..10).map(|i| (value >> (7 * i)) & 0x7f);
    let len = 1 + (1..10).filter(|&i| value >> (7 * i) != 0).count();
    for (i, group) in groups.take(len).enumerate() {
        let more = if i + 1 < len { 0x80 } else { 0 };
        buf.push(group as u8 | more);
    }
}

/// Bits, least significant first in each byte, padded with zeros to a
/// whole byte.
fn pack(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|c| (0..c.len()).fold(0u8, |b, i| b | u8::from(c[i]) << i))
        .collect()
}

/// `zeros` zeros, a one, then the `width` low bits of `low`, lowest first:
/// Elias-γ of `x` is `(⌊log2 x⌋, x, ⌊log2 x⌋)`, Rice of `v` with parameter
/// `k` is `(v >> k, v, k)`.
fn unary_then_low(bits: &mut Vec<bool>, zeros: u64, low: u64, width: u32) {
    bits.extend((0..zeros).map(|_| false));
    bits.push(true);
    bits.extend((0..width).map(|i| low >> i & 1 == 1));
}

/// The `GRPH` payload, built whole from what the graph's public
/// accessors say: `u64 num_vertices, u64 num_labels`, then per label
/// `u64 num_rows, u64 num_edges, u64 num_targets` (little-endian) and one
/// bit stream, padded to a byte, holding the Elias-γ of each gap plus one
/// of the relation's target set (its forward targets, sorted and
/// deduplicated), then per forward row, ascending, the Elias-γ of the row
/// id's gap plus one and of the degree, and the Rice code of the gap of
/// each target's rank in the set with `k = ⌊log2(num_targets / degree)⌋`.
/// A gap is the value less the one before it less one; before the set's
/// first id, a relation's first row id and a row's first rank, it is the
/// value itself. No backward index is written.
fn oracle_graph_payload(g: &LabeledGraph) -> Vec<u8> {
    let n = g.num_vertices() as u64;
    let gamma = |bits: &mut Vec<bool>, x: u64| unary_then_low(bits, x.ilog2().into(), x, x.ilog2());
    let mut buf = Vec::new();
    buf.extend_from_slice(&n.to_le_bytes());
    buf.extend_from_slice(&(g.num_labels() as u64).to_le_bytes());
    for l in 0..g.num_labels() as u16 {
        let rows: Vec<(u32, &[u32])> = g.rows(l, false).collect();
        let mut set: Vec<u32> = rows
            .iter()
            .flat_map(|&(_, targets)| targets)
            .copied()
            .collect();
        set.sort_unstable();
        set.dedup();
        buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(g.label_count(l) as u64).to_le_bytes());
        buf.extend_from_slice(&(set.len() as u64).to_le_bytes());
        let mut bits = Vec::new();
        for (i, &t) in set.iter().enumerate() {
            let gap = if i == 0 { t } else { t - set[i - 1] - 1 };
            gamma(&mut bits, u64::from(gap) + 1);
        }
        for (i, &(v, targets)) in rows.iter().enumerate() {
            let row_gap = if i == 0 { v } else { v - rows[i - 1].0 - 1 };
            gamma(&mut bits, u64::from(row_gap) + 1);
            let degree = targets.len() as u64;
            gamma(&mut bits, degree);
            let k = (set.len() as u64 / degree).ilog2();
            let ranks: Vec<u64> = targets
                .iter()
                .map(|t| set.binary_search(t).unwrap() as u64)
                .collect();
            for (j, &rank) in ranks.iter().enumerate() {
                let gap = if j == 0 {
                    rank
                } else {
                    rank - ranks[j - 1] - 1
                };
                unary_then_low(&mut bits, gap >> k, gap, k);
            }
        }
        buf.extend(pack(&bits));
    }
    buf
}

/// The `MRKV` payload, built whole: `u64 h, u64 count` (little-endian),
/// then per entry in pattern order the LEB128 of the number of leading
/// edges it has in common with the entry before it (none before the
/// first) and of its cardinality, then per edge past the common ones the
/// LEB128 of `8 * src + dst`, plus 64 on the entry's last edge, and of
/// the label.
fn oracle_markov_payload(t: &MarkovTable) -> Vec<u8> {
    let mut entries: Vec<_> = t.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut buf = Vec::new();
    buf.extend_from_slice(&(t.h() as u64).to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (i, &(p, c)) in entries.iter().enumerate() {
        let before = if i == 0 {
            &[][..]
        } else {
            entries[i - 1].0.edges()
        };
        let common = (0..p.num_edges())
            .take_while(|&k| before.get(k) == p.edges().get(k))
            .count();
        leb128(&mut buf, common as u64);
        leb128(&mut buf, c);
        for (k, e) in p.edges().iter().enumerate().skip(common) {
            let last = if k + 1 == p.num_edges() { 64 } else { 0 };
            leb128(&mut buf, last + 8 * e.src + e.dst);
            leb128(&mut buf, e.label);
        }
    }
    buf
}

/// The whole container around the three payloads.
fn oracle_file(epoch: u64, g: &LabeledGraph, t: &MarkovTable) -> Vec<u8> {
    let mut file = Vec::from(MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for (tag, payload) in [
        (TAG_EPOCH, epoch.to_le_bytes().to_vec()),
        (TAG_GRAPH, oracle_graph_payload(g)),
        (TAG_MARKOV, oracle_markov_payload(t)),
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
    entry.try_commit().unwrap();
    entry
}

/// A row longer than the writer's run between two drains of its chunk
/// (degree == domain, 1,000 targets), and a Rice quotient longer than
/// one 32-bit write (beside a row to all 1,000 ids, a row of degree 301
/// whose last target jumps 699 ranks with `k = ⌊log2 1000/301⌋ = 1`:
/// 349 zeros), written as the oracle lays them out.
#[test]
fn long_rows_and_long_unary_runs_roundtrip() {
    let mut b = GraphBuilder::with_labels(1_000, 2);
    (0..1_000).for_each(|d| b.add_edge(7, d, 0));
    (0..300).chain([999]).for_each(|d| b.add_edge(5, d, 1));
    (0..1_000).for_each(|d| b.add_edge(6, d, 1));
    let graph = b.build();
    let path = scratch_path("long-codes");
    let table = MarkovTable::empty(2);
    write_snapshot(&path, &graph, &table, 1).unwrap();
    let written = std::fs::read(&path).unwrap();
    let back = read_snapshot(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(written, oracle_file(1, &graph, &table));
    for l in 0..2 {
        assert!(back.graph.rows(l, false).eq(graph.rows(l, false)));
    }
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

        // (2) catalog equal.
        let live_table = entry.with_markov(MarkovTable::clone);
        let back_table = restored.with_markov(MarkovTable::clone);
        prop_assert_eq!(live_table, back_table);

        // The restored entry is live: the epoch sequence continues.
        let before = restored.epoch();
        restored.add_edge(0, 1, 0).unwrap();
        restored.del_edge(0, 1, 0).unwrap();
        restored.add_edge(1, 0, 1).unwrap();
        let outcome = restored.try_commit().unwrap();
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
        let (epoch, graph) = (entry.epoch(), entry.materialized_graph());
        prop_assert_eq!(written, entry.with_markov(|t| oracle_file(epoch, &graph, t)));
    }

    /// Random catalogs — patterns of one to three edges, small labels
    /// (so sorted neighbours share leading edges) and labels and
    /// cardinalities of every varint width — are written as the oracle
    /// lays them out, read back to an equal table, and written again to
    /// the same bytes.
    #[test]
    fn random_catalogs_write_read_write_byte_identically(
        h in 2usize..5,
        entries in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..8, 0u8..8, prop_oneof![0u16..4, 0u16..=u16::MAX]),
                    1..4,
                ),
                prop_oneof![0u64..300, 0u64..=u64::MAX],
            ),
            0..40,
        ),
        epoch in 0u64..1 << 40,
    ) {
        let mut table = MarkovTable::empty(h);
        for (edges, card) in &entries {
            let edges: Vec<QueryEdge> =
                edges.iter().map(|&(s, d, l)| QueryEdge::new(s, d, l)).collect();
            table.insert(Pattern::canonical(&edges), *card);
        }
        let graph = build_graph(&[(0, 1, 0), (1, 2, 1), (2, 0, 2)]);
        let path = scratch_path("prop-catalog");
        write_snapshot(&path, &graph, &table, epoch).unwrap();
        let first = std::fs::read(&path).unwrap();
        prop_assert_eq!(&first, &oracle_file(epoch, &graph, &table));

        let back = read_snapshot(&path).unwrap();
        prop_assert_eq!(back.epoch, epoch);
        prop_assert_eq!(back.markov.h(), h);
        prop_assert_eq!(back.markov.len(), table.len());
        for (p, card) in table.iter() {
            prop_assert_eq!(back.markov.card(p), Some(card), "{}", p);
        }
        write_snapshot(&path, &back.graph, &back.markov, back.epoch).unwrap();
        let second = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(first, second);
    }

    /// The shapes the graph section's codes have edges at — a row whose
    /// degree is the domain (Rice parameter 0), a row at id 2^24 - 1 (the
    /// far vertex of `tests/domain_growth.rs`), relations with no edge,
    /// a one-vertex domain — are written as the oracle lays them out and
    /// read back to the same graph.
    #[test]
    fn edge_shapes_of_the_codes_roundtrip(
        domain in prop_oneof![Just(1u32), 2u32..40, Just(1 << 24)],
        full_row in 0u32..40,
        edges in prop::collection::vec((0u32..40, 0u32..40, 0u16..3), 0..30),
        empty_labels in 0usize..3,
    ) {
        let mut b = GraphBuilder::with_labels(domain as usize, 3 + empty_labels);
        for &(s, d, l) in &edges {
            b.add_edge(s % domain, d % domain, l);
        }
        if domain < 1 << 24 {
            // A row to every vertex: degree == domain.
            (0..domain).for_each(|d| b.add_edge(full_row % domain, d, 0));
        } else {
            let far = domain - 1;
            b.add_edge(far, 0, 1);
            b.add_edge(3, far, 1);
            b.add_edge(far, far, 2);
        }
        let graph = b.build();
        let path = scratch_path("prop-shapes");
        let table = MarkovTable::empty(2);
        write_snapshot(&path, &graph, &table, 3).unwrap();
        let written = std::fs::read(&path).unwrap();
        let back = read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(written, oracle_file(3, &graph, &table));
        prop_assert_eq!(back.graph.num_vertices(), graph.num_vertices());
        prop_assert_eq!(back.graph.num_labels(), graph.num_labels());
        for l in 0..graph.num_labels() as u16 {
            for backward in [false, true] {
                prop_assert!(back.graph.rows(l, backward).eq(graph.rows(l, backward)));
            }
        }
    }
}
