//! Versioned binary snapshot framing and the graph section codec.
//!
//! A `.cegsnap` file is a sequence of checksummed sections behind a fixed
//! header, designed so a restart can skip text parsing and neighbour-list
//! sorting entirely — the persisted offsets and targets *are* the
//! in-memory arrays, and the row ids next to them are what the row
//! directory is rebuilt from:
//!
//! ```text
//! magic   8 bytes  b"CEGSNAP\0"
//! version u32 LE   format version (currently 2)
//! section*:
//!   tag      4 bytes   b"GRPH" | b"MRKV" | b"EPOC" | future tags
//!   len      u64 LE    payload length in bytes
//!   payload  len bytes
//!   checksum u64 LE    length-seeded FxHash64 of the payload
//! ```
//!
//! Compatibility rules: an unknown *tag* is skipped (a newer writer can
//! add sections without breaking older readers), an unknown *version* is
//! rejected (the section payloads themselves may have changed shape).
//! Every decode error — bad magic, truncation, checksum mismatch, a
//! structurally invalid payload — surfaces as `io::ErrorKind::InvalidData`
//! (or `UnexpectedEof`), never as a panic: snapshot files cross process
//! boundaries and must be treated as untrusted input.
//!
//! This module owns the container plus the `GRPH`/`EPOC` payload codecs;
//! `ceg-catalog::io` adds the `MRKV` codec and the combined
//! graph+catalog+epoch snapshot used by the service.

use std::io::{self, Read, Write};

use crate::csr::Csr;
use crate::{LabeledGraph, VertexId};

/// File magic: identifies a `.cegsnap` container.
pub const MAGIC: [u8; 8] = *b"CEGSNAP\0";

/// Current container format version. Version 2 changed the `GRPH`
/// payload to the sparse row layout of [`encode_graph`]; there is no
/// reader for version 1 (re-bootstrap from the `.edges` file).
pub const FORMAT_VERSION: u32 = 2;

/// Section tag: the rebased CSR relations of a [`LabeledGraph`].
pub const TAG_GRAPH: [u8; 4] = *b"GRPH";

/// Section tag: a Markov catalog (codec lives in `ceg-catalog::io`).
pub const TAG_MARKOV: [u8; 4] = *b"MRKV";

/// Section tag: the dataset epoch (a bare `u64`).
pub const TAG_EPOCH: [u8; 4] = *b"EPOC";

/// Section checksum: the workspace's word-at-a-time FxHash over the
/// payload, seeded with the payload length so a truncated-but-zero tail
/// cannot collide. Cheap (≈8 bytes/multiply, an order of magnitude
/// faster than byte-serial FNV — it sits on the restore hot path) and
/// sufficient to catch the accidental corruption (truncation, bit rot,
/// partial writes) snapshots are exposed to. Not a cryptographic
/// integrity check.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write a file atomically: `fill` streams the bytes through a buffered
/// writer into a unique temp file next to `path`, which is synced to disk
/// and renamed over `path` only once complete — the file is never held
/// in memory. A crash, a full disk, or a concurrent
/// writer therefore can never leave a truncated or interleaved file at
/// `path` — at worst the old file survives untouched (plus a stray
/// `.tmp.*` sibling from a hard crash, which [`sweep_orphan_temps`]
/// deletes on the next startup). Snapshots are recovery artifacts;
/// overwriting the only good copy in place would let the durability
/// feature destroy the very state it exists to protect.
pub fn atomic_write(
    path: &std::path::Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    atomic_write_with(&crate::vfs::OsStorage, path, fill)
}

/// [`atomic_write`] through an explicit [`crate::vfs::Storage`] — the
/// fault-injection seam: tests swap in a
/// [`crate::vfs::FaultStorage`] to crash the write at every step.
pub fn atomic_write_with(
    storage: &dyn crate::vfs::Storage,
    path: &std::path::Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "snapshot".into());
    name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let result = (|| {
        let mut w = io::BufWriter::with_capacity(WRITE_BUFFER, FileWriter(storage.create(&tmp)?));
        fill(&mut w)?;
        let FileWriter(mut f) = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        f.sync()?;
        storage.rename(&tmp, path)?;
        // The rename's directory entry must reach disk too, or a power
        // loss right after a successful return could resurrect the old
        // file — an ack'd snapshot has to actually be durable.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            storage.sync_dir(dir)?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = storage.remove(&tmp);
    }
    result
}

/// Bytes [`atomic_write_with`] gathers before each write to the file.
const WRITE_BUFFER: usize = 64 * 1024;

/// [`io::Write`] over a storage handle, which only appends whole buffers.
struct FileWriter(Box<dyn crate::vfs::StorageFile>);

impl Write for FileWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Delete orphaned `.cegsnap.tmp.*` / `.cegwal.tmp.*` siblings that a
/// hard crash mid-[`atomic_write`] left behind in a dataset directory.
/// Returns the paths removed. Call this when the directory is first
/// opened, **before** any writer is live — a temp file in use by a
/// concurrent writer must never be swept.
pub fn sweep_orphan_temps(
    storage: &dyn crate::vfs::Storage,
    dir: &std::path::Path,
) -> io::Result<Vec<std::path::PathBuf>> {
    let mut removed = Vec::new();
    for path in storage.list(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.contains(".cegsnap.tmp.") || name.contains(".cegwal.tmp.") {
            storage.remove(&path)?;
            removed.push(path);
        }
    }
    Ok(removed)
}

/// Writes the container header, then checksummed sections.
#[derive(Debug)]
pub struct SnapshotWriter<W: Write> {
    inner: W,
}

impl<W: Write> SnapshotWriter<W> {
    /// Write the magic + version header and return the section writer.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(SnapshotWriter { inner })
    }

    /// Append one checksummed section.
    pub fn write_section(&mut self, tag: [u8; 4], payload: &[u8]) -> io::Result<()> {
        self.inner.write_all(&tag)?;
        self.inner
            .write_all(&(payload.len() as u64).to_le_bytes())?;
        self.inner.write_all(payload)?;
        self.inner
            .write_all(&section_checksum(payload).to_le_bytes())?;
        Ok(())
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads the container header, then sections one at a time.
#[derive(Debug)]
pub struct SnapshotReader<R: Read> {
    inner: R,
}

impl<R: Read> SnapshotReader<R> {
    /// Check the magic + version header. A version this build does not
    /// know is an error (payload layouts may differ), not a best-effort
    /// read.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        inner
            .read_exact(&mut magic)
            .map_err(|_| bad("not a snapshot: file shorter than the magic"))?;
        if magic != MAGIC {
            return Err(bad("not a snapshot: bad magic"));
        }
        let mut version = [0u8; 4];
        inner
            .read_exact(&mut version)
            .map_err(|_| bad("truncated snapshot: missing format version"))?;
        let version = u32::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "snapshot format version {version} is not supported (this build reads {FORMAT_VERSION})"
            )));
        }
        Ok(SnapshotReader { inner })
    }

    /// Read the next section, verifying its checksum. `Ok(None)` at a
    /// clean end of file; truncation anywhere inside a section is an
    /// error. The payload buffer grows with the bytes actually present,
    /// so a corrupt length field cannot force a giant allocation.
    pub fn next_section(&mut self) -> io::Result<Option<([u8; 4], Vec<u8>)>> {
        let mut tag = [0u8; 4];
        match self.inner.read(&mut tag)? {
            0 => return Ok(None),
            4 => {}
            n => {
                // A short first read may still be a valid tag split across
                // reads; finish it, treating EOF as truncation.
                self.inner
                    .read_exact(&mut tag[n..])
                    .map_err(|_| bad("truncated snapshot: partial section tag"))?;
            }
        }
        let mut len = [0u8; 8];
        self.inner
            .read_exact(&mut len)
            .map_err(|_| bad("truncated snapshot: missing section length"))?;
        let len = u64::from_le_bytes(len);
        let mut payload = Vec::new();
        let got = (&mut self.inner).take(len).read_to_end(&mut payload)?;
        if got as u64 != len {
            return Err(bad(format!(
                "truncated snapshot: section {} claims {len} bytes, file holds {got}",
                String::from_utf8_lossy(&tag)
            )));
        }
        let mut checksum = [0u8; 8];
        self.inner
            .read_exact(&mut checksum)
            .map_err(|_| bad("truncated snapshot: missing section checksum"))?;
        if u64::from_le_bytes(checksum) != section_checksum(&payload) {
            return Err(bad(format!(
                "snapshot section {} failed its checksum",
                String::from_utf8_lossy(&tag)
            )));
        }
        Ok(Some((tag, payload)))
    }
}

/// Little-endian cursor over a section payload. Every read is
/// bounds-checked against the bytes actually present, so decoding a
/// corrupt payload errors instead of panicking or over-allocating.
pub struct PayloadReader<'a> {
    /// The bytes not yet consumed.
    buf: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    fn truncated(&self, n: usize, what: &str) -> io::Error {
        bad(format!(
            "truncated payload: {what} needs {n} bytes, {} remain",
            self.buf.len()
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(self.truncated(n, what));
        };
        self.buf = rest;
        Ok(head)
    }

    /// The one fixed-width read every integer below decodes from.
    fn take_array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return Err(self.truncated(N, what));
        };
        self.buf = rest;
        Ok(*head)
    }

    pub fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(u8::from_le_bytes(self.take_array(what)?))
    }

    pub fn u16(&mut self, what: &str) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take_array(what)?))
    }

    pub fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    /// A `u64` that must fit a (bounded) in-memory count.
    pub fn count(&mut self, what: &str, max: usize) -> io::Result<usize> {
        let n = self.u64(what)?;
        if n > max as u64 {
            return Err(bad(format!("{what} {n} exceeds the limit of {max}")));
        }
        Ok(n as usize)
    }

    /// Read `n` little-endian `u32`s. `n` is multiplied with overflow
    /// checking — a hostile count cannot wrap into a short read (or a
    /// debug-build panic).
    pub fn u32_array(&mut self, n: usize, what: &str) -> io::Result<Vec<u32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| bad(format!("{what}: element count {n} overflows")))?;
        let (words, _) = self.take(bytes, what)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
    }
}

/// Append little-endian integers to a payload buffer.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encode a graph as a `GRPH` payload: per relation and direction, the
/// ids of the active rows, their offsets and the targets — what
/// [`Csr`] holds, with the row directory spelled out as ids so the file
/// costs the edges and rows, never the vertex domain.
///
/// ```text
/// u64 num_vertices, u64 num_labels
/// per label: fwd CSR, bwd CSR
/// CSR: u64 num_rows, u64 num_targets,
///      rows u32*num_rows, offsets u32*(num_rows+1), targets u32*num_targets
/// ```
pub fn encode_graph(graph: &LabeledGraph) -> Vec<u8> {
    // The length is known up front: the one allocation is exact, where
    // growing by doubling would hold up to three times the payload.
    let len = 16
        + graph
            .csr_pairs()
            .flat_map(|(fwd, bwd)| [fwd, bwd])
            .map(|csr| 16 + 4 * (2 * csr.num_active() + 1 + csr.num_edges()))
            .sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    put_u64(&mut buf, graph.num_vertices() as u64);
    put_u64(&mut buf, graph.num_labels() as u64);
    for (fwd, bwd) in graph.csr_pairs() {
        for csr in [fwd, bwd] {
            let (offsets, targets) = csr.raw_parts();
            // A relation without edges keeps no offsets in memory; on
            // disk it has the one entry of any other row-less array.
            let offsets: &[u32] = if offsets.is_empty() { &[0] } else { offsets };
            put_u64(&mut buf, csr.num_active() as u64);
            put_u64(&mut buf, targets.len() as u64);
            for v in csr.active_vertices() {
                put_u32(&mut buf, v);
            }
            for &o in offsets {
                put_u32(&mut buf, o);
            }
            for &t in targets {
                put_u32(&mut buf, t);
            }
        }
    }
    debug_assert_eq!(buf.len(), len);
    buf
}

/// Largest label count a `GRPH` payload may declare (`LabelId` is `u16`).
const MAX_LABELS: usize = u16::MAX as usize + 1;

/// Decode a `GRPH` payload, validating every structural invariant
/// (bounded domain and counts, strictly increasing in-domain row ids, no
/// empty row, offsets ending at the target count, sorted rows, in-range
/// targets, exact transpose) so a corrupt or hostile snapshot is
/// rejected with an error.
pub fn decode_graph(payload: &[u8]) -> io::Result<LabeledGraph> {
    let mut r = PayloadReader::new(payload);
    let num_vertices = r.count("num_vertices", VertexId::MAX as usize + 1)?;
    let num_labels = r.count("num_labels", MAX_LABELS)?;
    let mut pairs = Vec::with_capacity(num_labels);
    for label in 0..num_labels {
        let fwd = decode_csr(&mut r, num_vertices, &format!("label {label} forward CSR"))?;
        let bwd = decode_csr(&mut r, num_vertices, &format!("label {label} backward CSR"))?;
        // The backward index must be exactly the transpose of the
        // forward one. Without this, an internally inconsistent (but
        // checksum-valid) file would load and silently answer wrong
        // counts whenever an estimator walks the backward direction.
        if !is_transpose(&fwd, &bwd) {
            return Err(bad(format!(
                "label {label}: backward index is not the transpose of the forward index"
            )));
        }
        pairs.push((fwd, bwd));
    }
    if !r.is_exhausted() {
        return Err(bad(format!(
            "graph payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(LabeledGraph::from_csr_pairs(num_vertices, pairs))
}

/// Decode one direction of one relation. Both declared counts are
/// bounded by the bytes actually remaining (4 per entry) and the row
/// count by the domain as well — a hostile count fails here, it never
/// reaches an allocation or an overflowing multiply.
fn decode_csr(r: &mut PayloadReader<'_>, num_vertices: usize, what: &str) -> io::Result<Csr> {
    let num_rows = r.count(what, num_vertices.min(r.remaining() / 4))?;
    let num_targets = r.count(what, r.remaining() / 4)?;
    let rows = r.u32_array(num_rows, what)?;
    let offsets = r.u32_array(num_rows + 1, what)?;
    let targets = r.u32_array(num_targets, what)?;
    if targets.iter().any(|&t| t as usize >= num_vertices) {
        return Err(bad(format!("{what}: target vertex out of range")));
    }
    Csr::from_raw_parts(num_vertices, &rows, &offsets, &targets)
        .map_err(|e| bad(format!("{what}: {e}")))
}

/// Exact transpose check in O(E): the forward edges arrive in `(src,
/// dst)` order, so the sources of one destination arrive ascending — the
/// order its backward row stores them in. Each forward edge must
/// therefore be the next unread entry of its destination's backward row;
/// with equal edge counts that is a bijection, so the two indexes hold
/// the same relation. One cursor per backward *row*, nothing per vertex,
/// and an order of magnitude cheaper than per-edge binary searches, which
/// would eat into the snapshot-restore win this module exists for.
fn is_transpose(fwd: &Csr, bwd: &Csr) -> bool {
    if fwd.num_edges() != bwd.num_edges() {
        return false;
    }
    let (b_offsets, b_targets) = bwd.raw_parts();
    let mut cursor = b_offsets.to_vec();
    for (src, dst) in fwd.iter_edges() {
        let Some(row) = bwd.row_index(dst) else {
            return false;
        };
        let (Some(next), Some(&end)) = (cursor.get_mut(row), b_offsets.get(row + 1)) else {
            return false;
        };
        if *next >= end || b_targets.get(*next as usize) != Some(&src) {
            return false;
        }
        *next += 1;
    }
    true
}

/// Encode an `EPOC` payload.
pub fn encode_epoch(epoch: u64) -> Vec<u8> {
    epoch.to_le_bytes().to_vec()
}

/// Decode an `EPOC` payload.
pub fn decode_epoch(payload: &[u8]) -> io::Result<u64> {
    let mut r = PayloadReader::new(payload);
    let epoch = r.u64("epoch")?;
    if !r.is_exhausted() {
        return Err(bad("epoch payload has trailing bytes"));
    }
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, GraphDelta};

    fn sample() -> LabeledGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(2, 3, 1);
        b.add_edge(4, 0, 2);
        b.build()
    }

    fn graphs_equal(a: &LabeledGraph, b: &LabeledGraph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.num_labels() == b.num_labels()
            && a.num_edges() == b.num_edges()
            && a.all_edges().all(|e| b.has_edge(e.src, e.dst, e.label))
    }

    #[test]
    fn graph_payload_roundtrips() {
        let g = sample();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert!(graphs_equal(&g, &g2));
        // The decoded CSRs carry correct cached aggregates.
        assert_eq!(g2.max_out_degree(0), g.max_out_degree(0));
        assert_eq!(g2.distinct_sources(0), g.distinct_sources(0));
        assert_eq!(g2.in_neighbors(0, 2), g.in_neighbors(0, 2));
    }

    #[test]
    fn rebased_graph_with_mixed_domains_roundtrips() {
        // Rebase grows the domain but shares the untouched label-1
        // relation at its old 5-vertex domain; the codec must preserve
        // that shape.
        let g = sample();
        let mut d = GraphDelta::new();
        d.add_edge(6, 1, 0);
        let r = g.rebase(&d);
        assert_eq!(r.num_vertices(), 7);
        let r2 = decode_graph(&encode_graph(&r)).unwrap();
        assert!(graphs_equal(&r, &r2));
        assert_eq!(r2.out_neighbors(6, 0), &[1]);
        assert_eq!(r2.out_neighbors(2, 1), &[3]);
    }

    #[test]
    fn gap_labels_roundtrip_as_empty_relations() {
        // A delta that introduces label 4 leaves label 3 as a default
        // (offset-less) CSR; the codec must preserve that legally.
        let g = sample();
        let mut d = GraphDelta::new();
        d.add_edge(0, 1, 4);
        let r = g.rebase(&d);
        assert_eq!(r.num_labels(), 5);
        assert_eq!(r.label_count(3), 0);
        let r2 = decode_graph(&encode_graph(&r)).unwrap();
        assert!(graphs_equal(&r, &r2));
        assert_eq!(r2.label_count(3), 0);
        assert!(r2.has_edge(0, 1, 4));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new(0).build();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_labels(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn sections_roundtrip_and_unknown_tags_skip() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(*b"XTRA", b"future section").unwrap();
        w.write_section(TAG_EPOCH, &encode_epoch(42)).unwrap();
        w.finish().unwrap();

        let mut r = SnapshotReader::new(&file[..]).unwrap();
        let (tag, payload) = r.next_section().unwrap().unwrap();
        assert_eq!(tag, *b"XTRA");
        assert_eq!(payload, b"future section");
        let (tag, payload) = r.next_section().unwrap().unwrap();
        assert_eq!(tag, TAG_EPOCH);
        assert_eq!(decode_epoch(&payload).unwrap(), 42);
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(SnapshotReader::new(&b"NOTSNAPX\x01\0\0\0"[..]).is_err());
        assert!(SnapshotReader::new(&b"CEG"[..]).is_err());
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&99u32.to_le_bytes());
        let err = SnapshotReader::new(&file[..]).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn every_truncation_of_a_section_file_errors() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(TAG_EPOCH, &encode_epoch(7)).unwrap();
        w.finish().unwrap();
        // Cuts inside the header fail at `new`; cuts inside the section
        // fail at `next_section`. The one boundary cut (exactly the
        // 12-byte header) is a legal empty snapshot, so start past it.
        for cut in 1..12 {
            assert!(
                SnapshotReader::new(&file[..cut]).is_err(),
                "header truncation at {cut} bytes must error"
            );
        }
        for cut in 13..file.len() {
            let r = SnapshotReader::new(&file[..cut])
                .and_then(|mut r| r.next_section())
                .map(|_| ());
            assert!(r.is_err(), "truncation at {cut} bytes must error");
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(TAG_EPOCH, &encode_epoch(7)).unwrap();
        w.finish().unwrap();
        // Flip one payload byte (header is 12 bytes, tag+len 12 more).
        file[25] ^= 0xFF;
        let err = SnapshotReader::new(&file[..])
            .unwrap()
            .next_section()
            .unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn hostile_section_length_cannot_force_allocation() {
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(b"GRPH");
        file.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        file.extend_from_slice(b"tiny");
        let err = SnapshotReader::new(&file[..])
            .unwrap()
            .next_section()
            .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_graph_payloads_are_rejected() {
        let g = sample();
        let good = encode_graph(&g);
        // Truncations at every byte boundary.
        for cut in 0..good.len() {
            assert!(decode_graph(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_graph(&long).is_err());
        // An out-of-range target vertex.
        let mut bad_target = good.clone();
        let n = bad_target.len();
        bad_target[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_graph(&bad_target).is_err());
    }

    /// One direction of one relation in the `GRPH` layout, field by
    /// field, so a test can lie in any of them.
    fn csr_bytes(
        num_rows: u64,
        num_targets: u64,
        rows: &[u32],
        offsets: &[u32],
        targets: &[u32],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, num_rows);
        put_u64(&mut buf, num_targets);
        for &x in rows.iter().chain(offsets).chain(targets) {
            put_u32(&mut buf, x);
        }
        buf
    }

    /// A one-label `GRPH` payload over `num_vertices` from two
    /// [`csr_bytes`].
    fn one_label_payload(num_vertices: u64, fwd: &[u8], bwd: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, num_vertices);
        put_u64(&mut buf, 1);
        buf.extend_from_slice(fwd);
        buf.extend_from_slice(bwd);
        buf
    }

    /// Decoding must fail with `InvalidData`, naming label 0 and `dir`.
    fn assert_rejected(payload: &[u8], dir: &str, because: &str) {
        let err = decode_graph(payload).expect_err(because);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{because}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("label 0") && msg.contains(dir),
            "{because}: error must name the label and the {dir} direction: {msg}"
        );
    }

    #[test]
    fn hostile_row_directories_are_rejected() {
        // The honest relation {0->1, 0->2, 3->1} over five vertices.
        let fwd = csr_bytes(2, 3, &[0, 3], &[0, 2, 3], &[1, 2, 1]);
        let bwd = csr_bytes(2, 3, &[1, 2], &[0, 2, 3], &[0, 3, 0]);
        let g = decode_graph(&one_label_payload(5, &fwd, &bwd)).unwrap();
        assert_eq!(g.out_neighbors(0, 0), &[1, 2]);
        assert_eq!(g.in_neighbors(1, 0), &[0, 3]);

        let lies = [
            (
                csr_bytes(2, 3, &[0, 5], &[0, 2, 3], &[1, 2, 1]),
                "a row id at num_vertices",
            ),
            (
                csr_bytes(2, 3, &[3, 3], &[0, 2, 3], &[1, 2, 1]),
                "a repeated row id",
            ),
            (
                csr_bytes(2, 3, &[3, 0], &[0, 2, 3], &[1, 2, 1]),
                "descending row ids",
            ),
            (
                csr_bytes(3, 3, &[0, 2, 3], &[0, 2, 2, 3], &[1, 2, 1]),
                "an empty row",
            ),
            (
                csr_bytes(2, 3, &[0, 3], &[0, 3, 2], &[1, 2, 1]),
                "a reversed row that still ends at num_targets",
            ),
            (
                csr_bytes(2, 3, &[0, 3], &[0, 2, 2], &[1, 2, 1]),
                "offsets that stop short of num_targets",
            ),
            (
                csr_bytes(2, 3, &[0, 3], &[0, 2, 4], &[1, 2, 1]),
                "offsets that run past num_targets",
            ),
            (
                csr_bytes(2, 3, &[0, 3], &[1, 2, 3], &[1, 2, 1]),
                "offsets that do not start at 0",
            ),
            (
                csr_bytes(
                    6,
                    3,
                    &[0, 1, 2, 3, 4, 5],
                    &[0, 1, 2, 3, 3, 3, 3],
                    &[1, 2, 1],
                ),
                "more rows than vertices",
            ),
        ];
        for (bad_fwd, because) in &lies {
            assert_rejected(&one_label_payload(5, bad_fwd, &bwd), "forward", because);
        }
        // The same lies told by the backward index name that direction.
        let bad_bwd = csr_bytes(2, 3, &[1, 1], &[0, 2, 3], &[0, 3, 0]);
        assert_rejected(
            &one_label_payload(5, &fwd, &bad_bwd),
            "backward",
            "a repeated backward row id",
        );
    }

    #[test]
    fn hostile_row_count_cannot_force_allocation() {
        // A domain of 2^32 vertices makes every row count "in range":
        // the bytes actually remaining must bound it instead, before
        // anything is allocated for it.
        for num_rows in [1u64 << 31, u32::MAX as u64 + 1, 6] {
            let fwd = csr_bytes(num_rows, 0, &[], &[0], &[]);
            let bwd = csr_bytes(0, 0, &[], &[0], &[]);
            assert_rejected(
                &one_label_payload(1 << 32, &fwd, &bwd),
                "forward",
                "a row count larger than the payload",
            );
        }
    }

    #[test]
    fn well_formed_backward_index_that_is_not_the_transpose_is_rejected() {
        // Forward {0->1}; the backward index repeats it instead of
        // holding {1->0}. Each CSR is valid on its own.
        let fwd = csr_bytes(1, 1, &[0], &[0, 1], &[1]);
        assert!(decode_graph(&one_label_payload(
            2,
            &fwd,
            &csr_bytes(1, 1, &[1], &[0, 1], &[0])
        ))
        .is_ok());
        assert_rejected(
            &one_label_payload(2, &fwd, &fwd),
            "backward",
            "a backward index that is not the transpose",
        );
        // Right rows, wrong order inside one: {0->2, 1->2} transposed is
        // 2 -> [0, 1]; a backward CSR cannot store [1, 0] (unsorted), so
        // the nearest well-formed lie swaps a source for another vertex.
        let fwd = csr_bytes(2, 2, &[0, 1], &[0, 1, 2], &[2, 2]);
        let bwd = csr_bytes(1, 2, &[2], &[0, 2], &[0, 2]);
        assert_rejected(
            &one_label_payload(3, &fwd, &bwd),
            "backward",
            "a backward row naming the wrong source",
        );
    }

    #[test]
    fn version_1_header_is_refused() {
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&1u32.to_le_bytes());
        let err = SnapshotReader::new(&file[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("snapshot format version 1 is not supported"),
            "{err}"
        );
    }

    #[test]
    fn atomic_write_preserves_the_old_file_on_failure() {
        let path = std::env::temp_dir().join(format!("ceg-atomic-{}.cegsnap", std::process::id()));
        std::fs::write(&path, b"precious previous snapshot").unwrap();
        let err = atomic_write(&path, |f| {
            f.write_all(b"partial garbage")?;
            Err(bad("simulated crash mid-write"))
        });
        assert!(err.is_err());
        // The target still holds the old bytes; the temp file is gone.
        assert_eq!(std::fs::read(&path).unwrap(), b"precious previous snapshot");
        let dir = path.parent().unwrap();
        let strays = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&*path.file_name().unwrap().to_string_lossy())
                    && e.file_name() != path.file_name().unwrap()
            })
            .count();
        assert_eq!(strays, 0, "temp file must be cleaned up");
        // And a successful write replaces it.
        atomic_write(&path, |f| f.write_all(b"new snapshot")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new snapshot");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sweep_deletes_only_orphaned_temp_files() {
        use crate::vfs::{FaultStorage, Storage};
        use std::path::Path;
        let fs = FaultStorage::new();
        let dir = Path::new("/data");
        // Live artifacts that must survive the sweep...
        fs.install(&dir.join("default.cegsnap"), b"snap".to_vec());
        fs.install(&dir.join("default.cegwal"), b"wal".to_vec());
        fs.install(&dir.join("notes.txt"), b"keep".to_vec());
        // ...and the orphans a hard crash mid-atomic_write leaves.
        fs.install(&dir.join("default.cegsnap.tmp.123.0"), b"torn".to_vec());
        fs.install(&dir.join("default.cegwal.tmp.123.1"), b"torn".to_vec());
        let mut removed = sweep_orphan_temps(&fs, dir).unwrap();
        removed.sort();
        assert_eq!(
            removed,
            vec![
                dir.join("default.cegsnap.tmp.123.0"),
                dir.join("default.cegwal.tmp.123.1"),
            ]
        );
        let mut left = fs.list(dir).unwrap();
        left.sort();
        assert_eq!(
            left,
            vec![
                dir.join("default.cegsnap"),
                dir.join("default.cegwal"),
                dir.join("notes.txt"),
            ]
        );
        // Idempotent on a clean directory.
        assert!(sweep_orphan_temps(&fs, dir).unwrap().is_empty());
    }

    #[test]
    fn atomic_write_crash_leaves_an_orphan_the_sweep_removes() {
        use crate::vfs::{FaultPlan, FaultStorage, Storage};
        use std::path::Path;
        let fs = FaultStorage::new();
        let path = Path::new("/data/ds.cegsnap");
        fs.install(path, b"old good snapshot".to_vec());
        // Crash on the temp-file sync: create (op 0) + write (op 1)
        // happened, the rename never did.
        fs.set_plan(FaultPlan {
            crash_after: Some(2),
            ..Default::default()
        });
        let err = atomic_write_with(&fs, path, |f| f.write_all(b"new snapshot bytes"));
        assert!(err.is_err());
        fs.reboot(usize::MAX);
        // The good snapshot survived; a torn orphan sits next to it.
        assert_eq!(fs.read(path).unwrap(), b"old good snapshot");
        let orphans = sweep_orphan_temps(&fs, Path::new("/data")).unwrap();
        assert_eq!(orphans.len(), 1, "{orphans:?}");
        assert_eq!(
            fs.list(Path::new("/data")).unwrap(),
            vec![path.to_path_buf()]
        );
    }

    /// A file larger than the write buffer reaches storage in several
    /// writes; a crash at any of them, or at the sync, rename or
    /// directory sync after, leaves the old or the new file — never a
    /// blend — and the sweep clears what the crash left.
    #[test]
    fn streamed_write_survives_a_crash_at_every_step() {
        use crate::vfs::{FaultPlan, FaultStorage, Storage};
        use std::path::Path;
        let path = Path::new("/data/ds.cegsnap");
        let old = b"old good snapshot".to_vec();
        let new: Vec<u8> = (0..3 * WRITE_BUFFER + 17).map(|i| i as u8).collect();
        let write = |fs: &FaultStorage| {
            atomic_write_with(fs, path, |f| {
                new.chunks(1000).try_for_each(|c| f.write_all(c))
            })
        };

        let fs = FaultStorage::new();
        fs.install(path, old.clone());
        write(&fs).unwrap();
        let ops = fs.op_count();
        assert!(ops >= 7, "create, 4 writes, sync, rename, sync_dir: {ops}");
        assert_eq!(fs.read(path).unwrap(), new);

        for crash_at in 0..ops {
            for keep_unsynced in [0, 1, usize::MAX] {
                let fs = FaultStorage::new();
                fs.install(path, old.clone());
                fs.set_plan(FaultPlan::default().crash_after(crash_at));
                // Only the directory sync can fail after the rename landed.
                let _ = write(&fs);
                fs.reboot(keep_unsynced);
                let on_disk = fs.read(path).unwrap();
                assert!(
                    on_disk == old || on_disk == new,
                    "crash at op {crash_at}: {} bytes on disk",
                    on_disk.len()
                );
                sweep_orphan_temps(&fs, Path::new("/data")).unwrap();
                assert_eq!(
                    fs.list(Path::new("/data")).unwrap(),
                    vec![path.to_path_buf()]
                );
            }
        }
    }

    #[test]
    fn inconsistent_backward_index_is_rejected() {
        // The last target of the payload is the backward entry of the
        // sample's 4 -2-> 0 edge (in_neighbors(0, 2) == [4]). Rewriting
        // it to another in-range vertex keeps the CSR well-formed and
        // the edge counts equal — only the transpose check can catch it.
        let good = encode_graph(&sample());
        let mut skewed = good.clone();
        let n = skewed.len();
        skewed[n - 4..].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_graph(&skewed).unwrap_err();
        assert!(err.to_string().contains("transpose"), "{err}");
    }

    #[test]
    fn checksum_is_stable_and_length_sensitive() {
        // Deterministic for equal input...
        assert_eq!(section_checksum(b"foobar"), section_checksum(b"foobar"));
        // ...sensitive to content, to a flipped bit, and to a zero tail
        // (the length seed keeps `x` and `x\0` apart).
        assert_ne!(section_checksum(b"foobar"), section_checksum(b"foobas"));
        assert_ne!(section_checksum(b"x"), section_checksum(b"x\0"));
        assert_ne!(section_checksum(b""), section_checksum(b"\0"));
    }
}
