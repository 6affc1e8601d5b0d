//! The `.cegsnap` service snapshot: graph, Markov catalog and epoch in
//! one checksummed file. Statistics are expensive to build (they count
//! patterns in the data), so they are persisted with the graph:
//! `cegtool stats`, durability and the wire `SNAPSHOT` write this file,
//! `serve --snapshot` and recovery read it, and its `MRKV` section is
//! the one form a catalog takes on disk.

use std::convert::Infallible;
use std::io::{self, Write};
use std::path::Path;

use ceg_graph::snapshot::{
    read_sections, varint_len, write_graph_sections, ChunkedReader, ChunkedWriter, PayloadReader,
    SnapshotWriter, TAG_MARKOV,
};
use ceg_graph::{LabelId, LabeledGraph};
use ceg_query::{Pattern, QueryEdge, VarId};

use crate::markov::MarkovTable;

/// Variables a pattern may have: the ceiling of [`Pattern::canonical`].
const MAX_VARS: usize = 8;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Everything a service dataset needs to come back after a restart.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The committed graph.
    pub graph: LabeledGraph,
    /// The Markov catalog, byte-identical to the persisted original.
    pub markov: MarkovTable,
    /// The dataset epoch at snapshot time.
    pub epoch: u64,
}

/// The table's entries sorted by pattern: the order the `MRKV` section
/// lists them in, so its encoding is canonical. The patterns are the keys of a
/// map, so no two are equal and the unstable sort — which, unlike the
/// stable one, allocates nothing — has one result.
fn sorted_entries(table: &MarkovTable) -> Vec<(&Pattern, u64)> {
    let mut entries: Vec<(&Pattern, u64)> = table.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

/// The bit of an edge's variable byte that marks the entry's last edge.
const LAST_EDGE: u64 = 64;

/// Hand `f` the varints [`write_markov_payload`] writes after its two
/// counts, entry by entry: the number of leading edges the entry shares
/// with the one before it, its cardinality, then per edge it does not
/// share `src * 8 + dst` — plus [`LAST_EDGE`] on the entry's last — and
/// the label. A pattern has at most 8 variables, numbered from 0, so
/// `src * 8 + dst` is below 64, the variable byte is one byte, and its
/// last-edge bit is the edge count: it needs no varint of its own. The
/// entries are distinct and sorted, so an entry never shares all of its
/// edges: it would be a prefix of the one before, and sort first.
fn entry_varints<E>(
    entries: &[(&Pattern, u64)],
    mut f: impl FnMut(u64) -> Result<(), E>,
) -> Result<(), E> {
    let mut prev: &[QueryEdge] = &[];
    for &(p, card) in entries {
        let edges = p.edges();
        let shared = prev.iter().zip(edges).take_while(|(a, b)| a == b).count();
        f(shared as u64)?;
        f(card)?;
        for (k, e) in edges.iter().enumerate().skip(shared) {
            let last = if k + 1 == edges.len() { LAST_EDGE } else { 0 };
            f(last | u64::from(e.src) << 3 | u64::from(e.dst))?;
            f(e.label.into())?;
        }
        prev = edges;
    }
    Ok(())
}

/// Exact length in bytes of the `MRKV` payload [`write_markov_payload`]
/// writes for `entries`: one sizing pass over the varints it will write.
fn markov_payload_len(entries: &[(&Pattern, u64)]) -> u64 {
    let mut len = 16;
    let Ok(()) = entry_varints::<Infallible>(entries, |v| {
        len += varint_len(v);
        Ok(())
    });
    len
}

/// Write a Markov table of hop bound `h` as a `MRKV` payload, entry by
/// entry in the order given ([`sorted_entries`]: the encoding is
/// canonical), each coded against the leading edges
/// it shares with the entry before it, through the LEB128 codec of the
/// `GRPH` section:
///
/// ```text
/// u64 h, u64 count
/// per entry, in pattern order:
///   varint(shared), varint(cardinality),
///   per edge past the shared ones: varint(last * 64 + src * 8 + dst), varint(label)
/// shared = leading edges equal to the previous entry's (0 for the first)
/// last   = 1 on the entry's last edge, else 0
/// ```
fn write_markov_payload(
    h: usize,
    entries: &[(&Pattern, u64)],
    out: &mut impl Write,
) -> io::Result<()> {
    let mut w = ChunkedWriter::new(out);
    w.u64(h as u64)?;
    w.u64(entries.len() as u64)?;
    entry_varints(entries, |v| w.varint(v))?;
    w.finish()
}

/// Decode a `MRKV` payload. A table has one encoding, and nothing else
/// decodes: every pattern must arrive canonical and greater than the one
/// before it (no duplicate, no entry out of order), every varint minimal.
/// Each violation is an `InvalidData` error, never a panic.
///
/// Acceptance mirrors what [`write_snapshot`] can produce: any
/// `h ≥ 2` (the [`MarkovTable::empty`] precondition — there is no upper
/// bound at write time, so none at read time either) and any per-entry
/// edge count the payload actually holds. The 8-variable canonicalization
/// ceiling is the coding's own: an edge's variables are one byte below 64.
/// The entry count is held to the bytes left before anything is reserved
/// for it (an entry costs at least four bytes), and an entry's edges grow
/// only as its bytes are read (two or more per edge).
fn decode_markov<R: io::Read>(r: &mut PayloadReader<R>) -> io::Result<MarkovTable> {
    let mut r = ChunkedReader::new(r);
    let h = r.u64("markov h")?;
    if h < 2 {
        return Err(bad(format!("markov table h={h} out of range (h >= 2)")));
    }
    let count = r.u64("markov entry count")?;
    // Two one-byte counts and an edge of two.
    let count = usize::try_from(count)
        .ok()
        .filter(|_| count <= r.remaining() / 4)
        .ok_or_else(|| {
            bad(format!(
                "markov entry count {count} does not fit the {} bytes left",
                r.remaining()
            ))
        })?;
    let mut table = MarkovTable::empty(h.min(usize::MAX as u64) as usize);
    table.reserve(count);
    let what = "markov entry";
    // The previous entry's pattern, as `Pattern` orders it (variable
    // count, then edges), and the edge list being decoded.
    let (mut prev_vars, mut prev, mut edges): (VarId, Vec<QueryEdge>, Vec<QueryEdge>) =
        (0, Vec::new(), Vec::new());
    for i in 0..count {
        let shared = r.varint::<u32>(what)? as usize;
        let card = r.varint::<u64>(what)?;
        let err = |why: String| bad(format!("markov entry {i}: {why}"));
        let kept = prev.get(..shared).ok_or_else(|| {
            err(format!(
                "shares {shared} leading edges, the entry before has {}",
                prev.len()
            ))
        })?;
        edges.clear();
        edges.extend_from_slice(kept);
        loop {
            let code = u64::from(r.varint::<u8>(what)?);
            if code >= 2 * LAST_EDGE {
                return Err(err(format!(
                    "edge byte {code} holds more than {MAX_VARS} variables and the last-edge bit"
                )));
            }
            let label = r.varint::<LabelId>(what)?;
            edges.push(QueryEdge::new(
                (code >> 3 & 7) as VarId,
                (code & 7) as VarId,
                label,
            ));
            if code & LAST_EDGE != 0 {
                break;
            }
        }
        let pattern = Pattern::canonical(&edges);
        if pattern.edges() != edges {
            return Err(err(format!("edge list {edges:?} is not canonical")));
        }
        if (pattern.num_vars(), &edges) <= (prev_vars, &prev) {
            return Err(err("does not sort after the entry before it".into()));
        }
        prev_vars = pattern.num_vars();
        std::mem::swap(&mut prev, &mut edges);
        table.insert(pattern, card);
    }
    if r.remaining() != 0 {
        return Err(bad(format!(
            "markov payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(table)
}

/// Write a full `.cegsnap` service snapshot: epoch, graph (gap-coded
/// relations) and Markov catalog, each as a checksummed section of the
/// versioned container (`ceg_graph::snapshot`). Restoring with
/// [`read_snapshot`] skips edge-list parsing and catalog construction —
/// the cold-start cost of booting from an edge list.
///
/// The write is **atomic**: bytes go to a unique temp file next to the
/// target, are synced to disk, and are renamed over `path` only once
/// complete — a crash, disk-full, or concurrent snapshot can never
/// leave a truncated or interleaved file where a good snapshot used to
/// be ([`ceg_graph::snapshot::atomic_write_with`]). It is **streamed**: the
/// graph's arrays and the table's entries go to the file through its
/// 64 KiB buffer, and the one thing built for the write is the sorted
/// index of the table's entries.
pub fn write_snapshot(
    path: impl AsRef<Path>,
    graph: &LabeledGraph,
    table: &MarkovTable,
    epoch: u64,
) -> io::Result<()> {
    write_snapshot_with(
        &ceg_graph::vfs::OsStorage,
        path.as_ref(),
        graph,
        table,
        epoch,
    )
}

/// [`write_snapshot`] through an explicit [`ceg_graph::vfs::Storage`] —
/// the fault-injection seam: the service's durability layer passes its
/// storage here so crash tests can kill the snapshot write at every
/// create/write/sync/rename step.
pub fn write_snapshot_with(
    storage: &dyn ceg_graph::vfs::Storage,
    path: &Path,
    graph: &LabeledGraph,
    table: &MarkovTable,
    epoch: u64,
) -> io::Result<()> {
    ceg_graph::snapshot::atomic_write_with(storage, path, |f| {
        let mut w = SnapshotWriter::new(f)?;
        write_graph_sections(&mut w, graph, epoch)?;
        let entries = sorted_entries(table);
        w.section(TAG_MARKOV, markov_payload_len(&entries), |body| {
            write_markov_payload(table.h(), &entries, body)
        })?;
        w.finish()?;
        Ok(())
    })
}

/// Read a full service snapshot back. Unknown sections are skipped
/// (forward compatibility); a missing graph, catalog or epoch section —
/// and any corruption or truncation — is an `InvalidData` (or
/// `UnexpectedEof`) error.
pub fn read_snapshot(path: impl AsRef<Path>) -> io::Result<Snapshot> {
    read_snapshot_with(&ceg_graph::vfs::OsStorage, path.as_ref())
}

/// [`read_snapshot`] through an explicit [`ceg_graph::vfs::Storage`]
/// (recovery reads the snapshot through the same seam it was written
/// through). The file is streamed: each section is decoded from the
/// read buffer into the value returned, and what fails its checksum is
/// dropped, not returned.
pub fn read_snapshot_with(
    storage: &dyn ceg_graph::vfs::Storage,
    path: &Path,
) -> io::Result<Snapshot> {
    // A closure, not the function item: the body's type borrows the file
    // for one section, and only a closure is general over that lifetime.
    #[allow(clippy::redundant_closure)]
    let (graph, epoch, markov) = read_sections(storage, path, |body| decode_markov(body))?;
    Ok(Snapshot {
        graph,
        markov: markov.ok_or_else(|| bad("snapshot has no markov section"))?,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn table() -> MarkovTable {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        let g = b.build();
        let q = templates::path(2, &[0, 1]);
        MarkovTable::build_for_query(&g, &q, 2)
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = MarkovTable::empty(3);
        assert_eq!(decode(&encode_markov(&t)).unwrap(), t);
    }

    /// Entries that share leading edges, cardinalities and labels of
    /// every varint width, a pattern of 8 variables and one of 4 edges.
    fn wide_table() -> MarkovTable {
        let e = QueryEdge::new;
        let mut t = MarkovTable::empty(4);
        for (edges, card) in [
            (vec![e(0, 1, 0)], 0),
            (vec![e(0, 1, 127)], 1 << 32),
            (vec![e(0, 1, 65_535)], u64::MAX),
            (vec![e(0, 1, 0), e(1, 2, 1)], 300),
            (vec![e(0, 1, 0), e(1, 2, 2)], 7),
            (vec![e(0, 1, 0), e(0, 2, 1)], 9),
            (vec![e(0, 1, 0), e(1, 2, 1), e(2, 0, 3)], 11),
            (vec![e(0, 1, 0), e(1, 2, 1), e(2, 3, 3), e(3, 4, 200)], 13),
            ((1..8).map(|v| e(0, v, 5)).collect(), 17),
        ] {
            t.insert(Pattern::canonical(&edges), card);
        }
        t
    }

    /// LEB128, any width: seven bits per byte, low first.
    fn put_leb(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    /// The `MRKV` payload built whole, in memory, field by field as the
    /// format lists them: the oracle [`write_markov_payload`] is held to.
    fn encode_markov(table: &MarkovTable) -> Vec<u8> {
        let mut entries: Vec<(&Pattern, u64)> = table.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut buf = Vec::new();
        buf.extend_from_slice(&(table.h() as u64).to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let mut prev: &[QueryEdge] = &[];
        for (p, c) in entries {
            let edges = p.edges();
            let mut shared = 0;
            while shared < prev.len().min(edges.len()) && prev[shared] == edges[shared] {
                shared += 1;
            }
            put_leb(&mut buf, shared as u64);
            put_leb(&mut buf, c);
            for (k, e) in edges.iter().enumerate().skip(shared) {
                let last = u64::from(k == edges.len() - 1);
                put_leb(
                    &mut buf,
                    64 * last + 8 * u64::from(e.src) + u64::from(e.dst),
                );
                put_leb(&mut buf, e.label.into());
            }
            prev = edges;
        }
        buf
    }

    fn decode(payload: &[u8]) -> io::Result<MarkovTable> {
        decode_markov(&mut PayloadReader::new(payload))
    }

    #[test]
    fn streamed_markov_payload_is_the_oracle_payload() {
        for t in [table(), wide_table(), MarkovTable::empty(3)] {
            let want = encode_markov(&t);
            let entries = sorted_entries(&t);
            assert_eq!(markov_payload_len(&entries), want.len() as u64);
            let mut got = Vec::new();
            write_markov_payload(t.h(), &entries, &mut got).unwrap();
            assert_eq!(got, want);
        }
        // By hand: 16 bytes of counts, then per entry in pattern order
        // (shared + cardinality + two bytes per edge not shared, more for
        // wide values): the three single edges 4, 8 and 15 (a 5- and a
        // 10-byte cardinality, a 3-byte label), the out-star 6, the
        // 2-path 5 (one edge shared, a 2-byte cardinality), the triangle
        // 4 (two shared), the other 2-path 4 (one shared), the 4-path 9
        // (one shared, a 2-byte label), the 7-star 16. Fixed-width fields
        // took 198.
        let t = wide_table();
        assert_eq!(encode_markov(&t).len(), 87);
        let edges: u64 = t.iter().map(|(p, _)| p.num_edges() as u64).sum();
        assert_eq!(16 + 10 * t.len() as u64 + 4 * edges, 198);
    }

    #[test]
    fn markov_payload_roundtrips_byte_identically() {
        for t in [table(), wide_table()] {
            let t2 = decode(&encode_markov(&t)).unwrap();
            assert_eq!(t2, t);
            // And the binary encoding itself is canonical (sorted entries).
            assert_eq!(encode_markov(&t), encode_markov(&t2));
        }
    }

    /// Decoding must fail with `InvalidData` — an error, not a panic —
    /// whose message holds `names`.
    fn assert_rejected(payload: &[u8], names: &str) {
        let err = decode(payload).expect_err(names);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{names}: {err}");
        assert!(err.to_string().contains(names), "{names}: {err}");
    }

    #[test]
    fn corrupt_markov_payloads_are_rejected() {
        for good in [encode_markov(&table()), encode_markov(&wide_table())] {
            for cut in 0..good.len() {
                assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = good.clone();
            long.push(0);
            assert_rejected(&long, "1 trailing bytes");
            // h < 2 violates the MarkovTable precondition...
            let mut bad_h = good.clone();
            bad_h[0] = 1;
            assert_rejected(&bad_h, "markov table h=1 out of range");
            // ...but any h the writer could run with restores fine — the
            // reader accepts everything the writer can produce.
            bad_h[0] = 99;
            assert_eq!(decode(&bad_h).unwrap().h(), 99);
        }
    }

    /// A `MRKV` payload of hop bound 2 declaring `count` entries, its
    /// entries given as the varints they are coded as, so a test can lie
    /// in any of them.
    fn payload(count: u64, varints: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        varints.iter().for_each(|&v| put_leb(&mut buf, v));
        buf
    }

    /// Entry by entry (shared, cardinality, then `last * 64 + src * 8 +
    /// dst` and label per edge not shared): `0 -0-> 1` (5), `0 -1-> 1`
    /// (3), `0 -0-> 1 -1-> 2` (7) and `0 -0-> 1 -2-> 2` (9), which shares
    /// the first edge of the one before.
    const HONEST: [&[u64]; 4] = [
        &[0, 5, 65, 0],
        &[0, 3, 65, 1],
        &[0, 7, 1, 0, 74, 1],
        &[1, 9, 74, 2],
    ];

    #[test]
    fn honest_payload_decodes() {
        let t = decode(&payload(4, &HONEST.concat())).unwrap();
        let e = QueryEdge::new;
        for (edges, card) in [
            (vec![e(0, 1, 0)], 5),
            (vec![e(0, 1, 1)], 3),
            (vec![e(0, 1, 0), e(1, 2, 1)], 7),
            (vec![e(0, 1, 0), e(1, 2, 2)], 9),
        ] {
            assert_eq!(t.card(&Pattern::canonical(&edges)), Some(card));
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn hostile_markov_payloads_are_rejected() {
        let [a, b, c, d] = HONEST;
        // `d` unshared: its own first edge spelled out.
        let d_whole: &[u64] = &[0, 9, 1, 0, 74, 2];
        let lies: [(u64, Vec<u64>, &str); 12] = [
            (2, [a, a].concat(), "entry 1: does not sort after"),
            (2, [b, a].concat(), "entry 1: does not sort after"),
            // `d` shares its first edge with `b` now: 0 -1-> 1 -2-> 2,
            // which sorts after `b` and before `c`.
            (4, [a, b, d, c].concat(), "entry 3: does not sort after"),
            (
                4,
                [a, b, d_whole, c].concat(),
                "entry 3: does not sort after",
            ),
            (
                1,
                vec![0, 5, 72, 0],
                "entry 0: edge list [QueryEdge { src: 1",
            ),
            (1, vec![0, 5, 10, 1, 65, 0], "entry 0: edge list"),
            (1, vec![0, 5, 1, 0, 65, 0], "entry 0: edge list"),
            (1, vec![0, 5, 67, 0], "entry 0: edge list"),
            (
                1,
                vec![2, 5, 65, 0],
                "entry 0: shares 2 leading edges, the entry before has 0",
            ),
            (
                2,
                [a, &[2, 3, 65, 1]].concat(),
                "entry 1: shares 2 leading edges",
            ),
            (
                1,
                vec![0, 5, 128, 0],
                "edge byte 128 holds more than 8 variables",
            ),
            (
                1,
                vec![0, 5, 65, 65_536],
                "markov entry: varint is past u16",
            ),
        ];
        for (count, varints, names) in &lies {
            // Zero bytes after the lie keep the entry count within the
            // payload's room, so the lie itself is what fails.
            let mut lie = payload(*count, varints);
            lie.resize(lie.len() + 4 * *count as usize, 0);
            assert_rejected(&lie, names);
        }
        // A variable code past `u8`.
        assert_rejected(&payload(1, &[0, 5, 300, 0]), "varint is past u8");
        // An entry whose last edge never comes: its edges grow two bytes
        // at a time until the payload runs out.
        let mut endless = payload(1, &[0, 5]);
        endless.resize(endless.len() + 1000, 0);
        assert_rejected(&endless, "truncated payload: markov entry");
        // A cardinality as two bytes where one does: the one encoding is
        // the shortest.
        let mut overlong = payload(1, &[0]);
        overlong.extend_from_slice(&[0x85, 0x00, 65, 0]);
        assert_rejected(&overlong, "overlong varint");
        // Eleven bytes of cardinality.
        let mut eleven = payload(1, &[0]);
        eleven.extend_from_slice(&[0xff; 10]);
        eleven.extend_from_slice(&[0x01, 65, 0]);
        assert_rejected(&eleven, "overlong varint");
    }

    #[test]
    fn hostile_entry_count_is_rejected_before_anything_is_reserved() {
        // An entry costs at least four bytes: the 18 of `HONEST` hold four
        // entries, never five.
        let body = HONEST.concat();
        for count in [5, 1 << 20, u64::from(u32::MAX) + 1, u64::MAX] {
            assert_rejected(&payload(count, &body), "markov entry count");
        }
        assert_rejected(&payload(1, &[]), "markov entry count");
        assert!(decode(&payload(4, &body)).is_ok());
    }

    #[test]
    fn full_snapshot_roundtrips_graph_catalog_and_epoch() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        let g = b.build();
        let t = MarkovTable::build_for_query(&g, &templates::path(2, &[0, 1]), 2);
        let path =
            std::env::temp_dir().join(format!("ceg-cat-snap-{}.cegsnap", std::process::id()));
        write_snapshot(&path, &g, &t, 17).unwrap();

        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.epoch, 17);
        assert_eq!(snap.graph.num_edges(), g.num_edges());
        for e in g.all_edges() {
            assert!(snap.graph.has_edge(e.src, e.dst, e.label), "{e:?}");
        }
        assert_eq!(snap.markov, t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_without_markov_section_is_an_error_here() {
        let g = GraphBuilder::new(2).build();
        let path =
            std::env::temp_dir().join(format!("ceg-cat-graphonly-{}.cegsnap", std::process::id()));
        let mut w = SnapshotWriter::new(Vec::new()).unwrap();
        write_graph_sections(&mut w, &g, 0).unwrap();
        std::fs::write(&path, w.finish().unwrap()).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("no markov section"), "{err}");
    }

    /// Every truncation and every single-bit flip of a small file with
    /// all three sections is an error of the two documented kinds — and
    /// an `Err` carries no graph, so nothing half-decoded gets out. So is
    /// a storage failure at any step of the read.
    #[test]
    fn every_truncation_bit_flip_and_read_failure_of_a_full_snapshot_errors() {
        use ceg_graph::vfs::{FaultPlan, FaultStorage};
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        let g = b.build();
        let t = MarkovTable::build_for_query(&g, &templates::path(2, &[0, 1]), 2);
        let path = Path::new("/data/ds.cegsnap");
        let fs = FaultStorage::new();
        write_snapshot_with(&fs, path, &g, &t, 5).unwrap();
        let good = fs.dump(path).unwrap();
        fs.reboot(usize::MAX); // forget the write's operations
        let snap = read_snapshot_with(&fs, path).unwrap();
        assert_eq!((snap.epoch, snap.graph.num_edges()), (5, 3));
        assert_eq!(snap.markov, t);
        let read_ops = fs.op_count();

        let rejected = |bytes: Vec<u8>, what: String| {
            let fs = FaultStorage::new();
            fs.install(path, bytes);
            let err = read_snapshot_with(&fs, path).expect_err(&what);
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: {err}"
            );
        };
        for cut in 0..good.len() {
            rejected(good[..cut].to_vec(), format!("cut at {cut}"));
        }
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            rejected(flipped, format!("bit {bit} flipped"));
        }
        for at in 0..read_ops {
            for plan in [
                FaultPlan::default().fail_at(at, io::ErrorKind::Other),
                FaultPlan::default().crash_after(at),
            ] {
                let fs = FaultStorage::new();
                fs.install(path, good.clone());
                fs.set_plan(plan);
                assert!(read_snapshot_with(&fs, path).is_err(), "read op {at}");
            }
        }
    }
}
