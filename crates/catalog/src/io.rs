//! Plain-text persistence for Markov tables.
//!
//! Statistics are expensive to build (they count patterns in the data);
//! systems persist them alongside the database. Format: a header line
//! `markov h=<h>`, then one entry per line:
//!
//! ```text
//! <cardinality> <num_edges> <src> <dst> <label> [<src> <dst> <label> …]
//! ```

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use ceg_query::{Pattern, QueryEdge};

use crate::markov::MarkovTable;

/// Serialize a Markov table.
pub fn write_markov<W: Write>(table: &MarkovTable, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "markov h={}", table.h())?;
    for (p, c) in sorted_entries(table) {
        write!(w, "{} {}", c, p.num_edges())?;
        for e in p.edges() {
            write!(w, " {} {} {}", e.src, e.dst, e.label)?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Parse a Markov table written by [`write_markov`].
pub fn read_markov<R: BufRead>(reader: R) -> io::Result<MarkovTable> {
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| bad("missing header"))??;
    let h: usize = header
        .strip_prefix("markov h=")
        .ok_or_else(|| bad("bad header"))?
        .trim()
        .parse()
        .map_err(|_| bad("bad h"))?;
    let mut table = MarkovTable::empty(h);
    for line in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let card: u64 = next_num(&mut it)?;
        let m: usize = next_num(&mut it)? as usize;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let s: u64 = next_num(&mut it)?;
            let d: u64 = next_num(&mut it)?;
            let l: u64 = next_num(&mut it)?;
            edges.push(QueryEdge::new(s as u8, d as u8, l as u16));
        }
        table.insert(Pattern::canonical(&edges), card);
    }
    Ok(table)
}

fn next_num(it: &mut std::str::SplitWhitespace<'_>) -> io::Result<u64> {
    it.next()
        .ok_or_else(|| bad("truncated entry"))?
        .parse()
        .map_err(|_| bad("not a number"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Save to a file path.
pub fn save_markov(table: &MarkovTable, path: impl AsRef<Path>) -> io::Result<()> {
    write_markov(table, std::fs::File::create(path)?)
}

/// Load from a file path.
pub fn load_markov(path: impl AsRef<Path>) -> io::Result<MarkovTable> {
    read_markov(io::BufReader::new(std::fs::File::open(path)?))
}

// ---------------------------------------------------------------------------
// Binary snapshots: graph + catalog + epoch in one `.cegsnap` file.
// ---------------------------------------------------------------------------

use ceg_graph::snapshot::{
    read_sections, write_graph_sections, PayloadReader, SnapshotWriter, TAG_MARKOV,
};
use ceg_graph::LabeledGraph;

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

/// The table's entries sorted by pattern: the order both persisted forms
/// list them in, so each is canonical. The patterns are the keys of a
/// map, so no two are equal and the unstable sort — which, unlike the
/// stable one, allocates nothing — has one result.
fn sorted_entries(table: &MarkovTable) -> Vec<(&Pattern, u64)> {
    let mut entries: Vec<(&Pattern, u64)> = table.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

/// Exact length in bytes of the `MRKV` payload [`write_markov_payload`]
/// writes for `entries`.
fn markov_payload_len(entries: &[(&Pattern, u64)]) -> u64 {
    16 + entries
        .iter()
        .map(|(p, _)| 10 + 4 * p.num_edges() as u64)
        .sum::<u64>()
}

/// Write a Markov table of hop bound `h` as a `MRKV` payload, entry by
/// entry in the order given ([`sorted_entries`]: the encoding, like
/// [`write_markov`], is canonical):
///
/// ```text
/// u64 h, u64 count
/// per entry: u64 cardinality, u16 num_edges,
///            per edge: u8 src, u8 dst, u16 label
/// ```
fn write_markov_payload(
    h: usize,
    entries: &[(&Pattern, u64)],
    out: &mut impl Write,
) -> io::Result<()> {
    out.write_all(&(h as u64).to_le_bytes())?;
    out.write_all(&(entries.len() as u64).to_le_bytes())?;
    for (p, c) in entries {
        out.write_all(&c.to_le_bytes())?;
        out.write_all(&(p.num_edges() as u16).to_le_bytes())?;
        for e in p.edges() {
            out.write_all(&[e.src, e.dst])?;
            out.write_all(&e.label.to_le_bytes())?;
        }
    }
    Ok(())
}

fn bad_snap(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Decode a `MRKV` payload. Patterns are re-canonicalized on the way in,
/// so even a hand-edited payload cannot plant a non-canonical key; every
/// structural violation is an error, never a panic.
///
/// Acceptance mirrors what [`write_snapshot`] can produce: any
/// `h ≥ 2` (the [`MarkovTable::empty`] precondition — there is no upper
/// bound at write time, so none at read time either) and any per-entry
/// edge count the payload actually holds; the one hard structural cap is
/// the 8-variable canonicalization ceiling, which would otherwise panic.
pub fn decode_markov<R: io::Read>(r: &mut PayloadReader<R>) -> io::Result<MarkovTable> {
    let h = r.u64("markov h")?;
    if h < 2 {
        return Err(bad_snap(format!("markov h={h} out of range (h >= 2)")));
    }
    // An entry is its cardinality, its edge count and at least one edge.
    let count = r.count("markov entry count", r.room_for(14))?;
    let mut table = MarkovTable::empty(h.min(usize::MAX as u64) as usize);
    table.reserve(count);
    for i in 0..count {
        let card = r.u64("entry cardinality")?;
        let m = r.u16("entry edge count")? as usize;
        if m == 0 {
            return Err(bad_snap(format!("markov entry {i}: zero-edge pattern")));
        }
        let mut edges = Vec::with_capacity(m.min(r.room_for(4)));
        let mut vars: Vec<u8> = Vec::new();
        for _ in 0..m {
            let src = r.u8("edge src")?;
            let dst = r.u8("edge dst")?;
            let label = r.u16("edge label")?;
            for v in [src, dst] {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            edges.push(QueryEdge::new(src, dst, label));
        }
        // `Pattern::canonical` asserts on > 8 variables; turn that into
        // a decode error up front.
        if vars.len() > 8 {
            return Err(bad_snap(format!(
                "markov entry {i}: pattern has {} variables (limit 8)",
                vars.len()
            )));
        }
        table.insert(Pattern::canonical(&edges), card);
    }
    if !r.is_exhausted() {
        return Err(bad_snap(format!(
            "markov payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(table)
}

/// Write a full `.cegsnap` service snapshot: epoch, graph (raw CSR
/// relations) and Markov catalog, each as a checksummed section of the
/// versioned container (`ceg_graph::snapshot`). Restoring with
/// [`read_snapshot`] skips text parsing and catalog construction — the
/// cold-start cost a server pays today.
///
/// The write is **atomic**: bytes go to a unique temp file next to the
/// target, are synced to disk, and are renamed over `path` only once
/// complete — a crash, disk-full, or concurrent snapshot can never
/// leave a truncated or interleaved file where a good snapshot used to
/// be ([`ceg_graph::snapshot::atomic_write`]). It is **streamed**: the
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
        markov: markov.ok_or_else(|| bad_snap("snapshot has no markov section"))?,
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
    fn roundtrip() {
        let t = table();
        let mut buf = Vec::new();
        write_markov(&t, &mut buf).unwrap();
        let t2 = read_markov(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t2.h(), t.h());
        assert_eq!(t2.len(), t.len());
        for (p, c) in t.iter() {
            assert_eq!(t2.card(p), Some(c), "{p}");
        }
    }

    #[test]
    fn bad_header_is_error() {
        let err = read_markov(io::BufReader::new("nope\n".as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_entry_is_error() {
        let text = "markov h=2\n5 2 0 1\n";
        assert!(read_markov(io::BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = MarkovTable::empty(3);
        let mut buf = Vec::new();
        write_markov(&t, &mut buf).unwrap();
        let t2 = read_markov(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t2.h(), 3);
        assert!(t2.is_empty());
    }

    /// Canonical persisted-text form — the strictest table equality.
    fn text_bytes(t: &MarkovTable) -> Vec<u8> {
        let mut buf = Vec::new();
        write_markov(t, &mut buf).unwrap();
        buf
    }

    /// The `MRKV` payload built whole, in memory, field by field as the
    /// format lists them: the oracle [`write_markov_payload`] is held to.
    fn encode_markov(table: &MarkovTable) -> Vec<u8> {
        let mut entries: Vec<(&Pattern, u64)> = table.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut buf = Vec::new();
        buf.extend_from_slice(&(table.h() as u64).to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (p, c) in entries {
            buf.extend_from_slice(&c.to_le_bytes());
            buf.extend_from_slice(&(p.num_edges() as u16).to_le_bytes());
            for e in p.edges() {
                buf.push(e.src);
                buf.push(e.dst);
                buf.extend_from_slice(&e.label.to_le_bytes());
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> io::Result<MarkovTable> {
        decode_markov(&mut PayloadReader::new(payload))
    }

    #[test]
    fn streamed_markov_payload_is_the_oracle_payload() {
        for t in [table(), MarkovTable::empty(3)] {
            let want = encode_markov(&t);
            let entries = sorted_entries(&t);
            assert_eq!(markov_payload_len(&entries), want.len() as u64);
            let mut got = Vec::new();
            write_markov_payload(t.h(), &entries, &mut got).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn markov_payload_roundtrips_byte_identically() {
        let t = table();
        let t2 = decode(&encode_markov(&t)).unwrap();
        assert_eq!(text_bytes(&t), text_bytes(&t2));
        // And the binary encoding itself is canonical (sorted entries).
        assert_eq!(encode_markov(&t), encode_markov(&t2));
    }

    #[test]
    fn corrupt_markov_payloads_are_rejected() {
        let good = encode_markov(&table());
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = good.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // h < 2 violates the MarkovTable precondition...
        let mut bad_h = good.clone();
        bad_h[0] = 1;
        assert!(decode(&bad_h).is_err());
        // ...but any h the writer could run with restores fine — the
        // reader accepts everything the writer can produce.
        bad_h[0] = 99;
        assert_eq!(decode(&bad_h).unwrap().h(), 99);
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
        assert_eq!(text_bytes(&snap.markov), text_bytes(&t));

        // The graph-only reader of `ceg-graph::io` reads the same file,
        // skipping the catalog section it does not know.
        let (g2, epoch) = ceg_graph::io::read_snapshot(&path).unwrap();
        assert_eq!(epoch, 17);
        assert_eq!(g2.num_edges(), g.num_edges());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_without_markov_section_is_an_error_here() {
        let g = GraphBuilder::new(2).build();
        let path =
            std::env::temp_dir().join(format!("ceg-cat-graphonly-{}.cegsnap", std::process::id()));
        ceg_graph::io::write_snapshot(&path, &g, 0).unwrap();
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
        assert_eq!(text_bytes(&snap.markov), text_bytes(&t));
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
