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
//! Both directions stream. A section's length is computed before its
//! first byte is written ([`graph_payload_len`]), so the writer emits
//! `tag, len`, lets the encoder write the payload through a
//! [`Checksummed`] adapter and appends the sum — no payload buffer
//! exists. The reader hands a decoder the payload as a length-limited,
//! checksumming [`Read`] ([`SectionBody`]) and the decoder fills the
//! in-memory arrays from it; the stored sum is compared once the payload
//! has passed, before the decoded value is handed on, so a file that
//! fails its checksum never yields a graph. What is resident is the
//! 64 KiB file buffer and the value being built, never the file or a
//! section of it.
//!
//! Compatibility rules: an unknown *tag* is skipped (a newer writer can
//! add sections without breaking older readers), an unknown *version* is
//! rejected (the section payloads themselves may have changed shape).
//! Every decode error — bad magic, truncation, checksum mismatch, a
//! structurally invalid payload — surfaces as `io::ErrorKind::InvalidData`
//! (or `UnexpectedEof`), never as a panic: snapshot files cross process
//! boundaries and must be treated as untrusted input. Length first: the
//! reader knows how many bytes the file holds, a section may not declare
//! more than remain, and a count inside a payload may not declare more
//! than its section has left — each is checked before anything is
//! allocated for it.
//!
//! This module owns the container plus the `GRPH`/`EPOC` payload codecs;
//! `ceg-catalog::io` adds the `MRKV` codec and the combined
//! graph+catalog+epoch snapshot used by the service.

use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::hash::FxHasher;
use crate::vfs::Storage;
use crate::{LabeledGraph, VertexId};

/// File magic: identifies a `.cegsnap` container.
pub const MAGIC: [u8; 8] = *b"CEGSNAP\0";

/// Current container format version. Version 2 changed the `GRPH`
/// payload to the sparse row layout of [`write_graph`]; there is no
/// reader for version 1 (re-bootstrap from the `.edges` file).
pub const FORMAT_VERSION: u32 = 2;

/// Section tag: the rebased CSR relations of a [`LabeledGraph`].
pub const TAG_GRAPH: [u8; 4] = *b"GRPH";

/// Section tag: a Markov catalog (codec lives in `ceg-catalog::io`).
pub const TAG_MARKOV: [u8; 4] = *b"MRKV";

/// Section tag: the dataset epoch (a bare `u64`).
pub const TAG_EPOCH: [u8; 4] = *b"EPOC";

/// Bytes before the first section: magic and version.
const HEADER: u64 = 8 + 4;

/// Bytes framing a section's payload: tag, length, checksum.
const SECTION_FRAME: u64 = 4 + 8 + 8;

/// Section checksum: the workspace's word-at-a-time FxHash over the
/// payload, seeded with the payload length so a truncated-but-zero tail
/// cannot collide. Cheap (≈8 bytes/multiply, an order of magnitude
/// faster than byte-serial FNV — it sits on the restore hot path) and
/// sufficient to catch the accidental corruption (truncation, bit rot,
/// partial writes) snapshots are exposed to. Not a cryptographic
/// integrity check. This is the definition over a whole payload;
/// [`RunningChecksum`] is what the snapshot paths compute.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

/// [`section_checksum`] of a payload that arrives in pieces. The hash
/// folds little-endian 8-byte words, so the bytes since the last word
/// boundary are carried between calls: the sum depends on the payload,
/// not on how it was cut into writes or reads.
#[derive(Clone, Copy)]
pub struct RunningChecksum {
    hash: FxHasher,
    /// The `fed % 8` bytes since the last word boundary, little-endian
    /// in the low bytes; the high bytes are zero — the padding the
    /// payload's last word gets.
    partial: u64,
    /// Payload bytes folded in so far.
    fed: u64,
}

impl RunningChecksum {
    /// The checksum of a payload of `len` bytes, none of them seen yet.
    pub fn new(len: u64) -> Self {
        let mut hash = FxHasher::default();
        hash.write_u64(len);
        RunningChecksum {
            hash,
            partial: 0,
            fed: 0,
        }
    }

    fn push_byte(&mut self, b: u8) {
        self.partial |= u64::from(b) << (8 * (self.fed % 8));
        self.fed += 1;
        if self.fed.is_multiple_of(8) {
            self.hash.write_u64(self.partial);
            self.partial = 0;
        }
    }

    /// Fold in the next bytes of the payload.
    pub fn update(&mut self, bytes: &[u8]) {
        // Up to 7 bytes complete the word in progress, whole words
        // follow, up to 7 bytes start the next one.
        let to_boundary = (8 - self.fed % 8) % 8;
        let (head, rest) = bytes.split_at(bytes.len().min(to_boundary as usize));
        head.iter().for_each(|&b| self.push_byte(b));
        let (words, tail) = rest.as_chunks::<8>();
        for w in words {
            self.hash.write_u64(u64::from_le_bytes(*w));
        }
        self.fed += 8 * words.len() as u64;
        tail.iter().for_each(|&b| self.push_byte(b));
    }

    /// Payload bytes folded in so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// The checksum of the bytes folded in so far.
    pub fn finish(&self) -> u64 {
        let mut hash = self.hash;
        if !self.fed.is_multiple_of(8) {
            hash.write_u64(self.partial);
        }
        hash.finish()
    }
}

/// The payload side of one section: a [`Write`] or [`Read`] that folds
/// every byte passing through it into the section's [`RunningChecksum`].
pub struct Checksummed<'a, T> {
    inner: &'a mut T,
    sum: RunningChecksum,
}

impl<T: Write> Write for Checksummed<'_, T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(buf.get(..n).unwrap_or(buf));
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for Checksummed<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.sum.update(buf.get(..n).unwrap_or(buf));
        Ok(n)
    }
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

/// Bytes [`atomic_write_with`] gathers before each write to the file,
/// and [`read_sections`] fetches with each read from it.
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

    /// Append one checksummed section whose payload is the `len` bytes
    /// `fill` writes. The length goes out before the payload, so it must
    /// be exact: a `fill` that writes more or fewer bytes is an error
    /// (and, under [`atomic_write`], no file).
    pub fn section(
        &mut self,
        tag: [u8; 4],
        len: u64,
        fill: impl FnOnce(&mut Checksummed<'_, W>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.inner.write_all(&tag)?;
        self.inner.write_all(&len.to_le_bytes())?;
        let mut body = Checksummed {
            inner: &mut self.inner,
            sum: RunningChecksum::new(len),
        };
        fill(&mut body)?;
        let sum = body.sum;
        if sum.fed() != len {
            return Err(bad(format!(
                "snapshot section {} declared {len} bytes, {} were written",
                String::from_utf8_lossy(&tag),
                sum.fed()
            )));
        }
        self.inner.write_all(&sum.finish().to_le_bytes())
    }

    /// [`SnapshotWriter::section`] for a payload already in memory.
    pub fn write_section(&mut self, tag: [u8; 4], payload: &[u8]) -> io::Result<()> {
        self.section(tag, payload.len() as u64, |body| body.write_all(payload))
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// What a section decoder reads: the section's payload and no byte
/// more, every byte folded into the section's checksum on its way.
pub type SectionBody<'a, R> = PayloadReader<Checksummed<'a, R>>;

/// Reads the container header, then sections one at a time.
#[derive(Debug)]
pub struct SnapshotReader<R: Read> {
    inner: R,
    /// Bytes of the source after the last section read.
    left: u64,
}

impl<R: Read> SnapshotReader<R> {
    /// Check the magic + version header of a source holding `len` bytes.
    /// A version this build does not know is an error (payload layouts
    /// may differ), not a best-effort read.
    pub fn new(mut inner: R, len: u64) -> io::Result<Self> {
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
        Ok(SnapshotReader {
            inner,
            left: len.saturating_sub(HEADER),
        })
    }

    /// Hand the next section's tag and payload to `decode` and return
    /// what it built, once the payload has passed its checksum;
    /// `Ok(None)` at a clean end of file. Whatever `decode` leaves
    /// unread is skipped (that is how an unknown tag is passed over),
    /// still under the checksum. The declared length is checked against
    /// the bytes the source holds before `decode` runs, so no length
    /// `decode` reads from the body can exceed the file; truncation
    /// anywhere inside a section is an error.
    pub fn next_section<T>(
        &mut self,
        decode: impl FnOnce([u8; 4], &mut SectionBody<'_, R>) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        if self.left == 0 {
            return Ok(None);
        }
        let room = self
            .left
            .checked_sub(SECTION_FRAME)
            .ok_or_else(|| bad("truncated snapshot: partial section header"))?;
        let mut tag = [0u8; 4];
        self.inner.read_exact(&mut tag)?;
        let mut len = [0u8; 8];
        self.inner.read_exact(&mut len)?;
        let len = u64::from_le_bytes(len);
        let name = String::from_utf8_lossy(&tag);
        if len > room {
            return Err(bad(format!(
                "truncated snapshot: section {name} claims {len} bytes, file holds {room}"
            )));
        }
        let mut body = PayloadReader {
            inner: Checksummed {
                inner: &mut self.inner,
                sum: RunningChecksum::new(len),
            }
            .take(len),
        };
        let value = decode(tag, &mut body)?;
        io::copy(&mut body, &mut io::sink())?;
        let sum = body.inner.into_inner().sum;
        if sum.fed() != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated snapshot: section {name} ends after {} of {len} bytes",
                    sum.fed()
                ),
            ));
        }
        let mut checksum = [0u8; 8];
        self.inner.read_exact(&mut checksum)?;
        if u64::from_le_bytes(checksum) != sum.finish() {
            return Err(bad(format!("snapshot section {name} failed its checksum")));
        }
        self.left = room - len;
        Ok(Some(value))
    }
}

/// Little-endian cursor over a payload: a section's, streamed from the
/// file ([`SectionBody`]), or a WAL record's, in memory. Every read is
/// checked against the bytes the payload has left, so decoding a corrupt
/// payload errors instead of panicking or over-allocating.
pub struct PayloadReader<R> {
    /// The payload bytes not yet consumed, and no byte past them.
    inner: io::Take<R>,
}

impl<'a> PayloadReader<&'a [u8]> {
    /// A cursor over a payload already in memory.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader {
            inner: buf.take(buf.len() as u64),
        }
    }

    /// The next `n` bytes, borrowed from the payload instead of copied.
    pub fn slice(&mut self, n: u64, what: &str) -> io::Result<&'a [u8]> {
        self.ensure(n, what)?;
        let rest = self.inner.get_mut();
        let (head, tail) = usize::try_from(n)
            .ok()
            .and_then(|n| rest.split_at_checked(n))
            .ok_or_else(|| bad(format!("{what}: {n} bytes are past the buffer")))?;
        *rest = tail;
        self.inner.set_limit(self.remaining() - n);
        Ok(head)
    }
}

impl<R: Read> Read for PayloadReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<R: Read> PayloadReader<R> {
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.inner.limit()
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// How many `width`-byte entries the unread bytes can hold: the
    /// ceiling for any count read from the payload.
    pub fn room_for(&self, width: u64) -> usize {
        usize::try_from(self.remaining() / width).unwrap_or(usize::MAX)
    }

    /// The next `n` bytes must exist before anything is read (or
    /// allocated) for them.
    fn ensure(&self, n: u64, what: &str) -> io::Result<()> {
        if n > self.remaining() {
            return Err(bad(format!(
                "truncated payload: {what} needs {n} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// The one fixed-width read every integer below decodes from; a tag
    /// or a magic number is read with it as is.
    pub fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        self.ensure(N as u64, what)?;
        let mut bytes = [0u8; N];
        self.inner.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    pub fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    pub fn u16(&mut self, what: &str) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    pub fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A `u64` that must fit a (bounded) in-memory count.
    pub fn count(&mut self, what: &str, max: usize) -> io::Result<usize> {
        let n = self.u64(what)?;
        if n > max as u64 {
            return Err(bad(format!("{what} {n} exceeds the limit of {max}")));
        }
        Ok(n as usize)
    }

    /// Read `n` little-endian `u32`s into one exact allocation. `n` is
    /// multiplied with overflow checking and held against the bytes that
    /// remain first — a hostile count cannot wrap into a short read (or a
    /// debug-build panic), nor reserve memory the payload cannot fill.
    pub fn u32_array(&mut self, n: usize, what: &str) -> io::Result<Vec<u32>> {
        let bytes = (n as u64)
            .checked_mul(4)
            .ok_or_else(|| bad(format!("{what}: element count {n} overflows")))?;
        self.ensure(bytes, what)?;
        let mut out = Vec::with_capacity(n);
        let mut chunk = [0u8; ARRAY_CHUNK];
        while out.len() < n {
            let (chunk, _) = chunk.split_at_mut(ARRAY_CHUNK.min(4 * (n - out.len())));
            self.inner.read_exact(chunk)?;
            let (words, _) = chunk.as_chunks::<4>();
            out.extend(words.iter().map(|&w| u32::from_le_bytes(w)));
        }
        Ok(out)
    }
}

/// Bytes of a `u32` array converted per read or write: the arrays go
/// between their in-memory and little-endian forms through a stack
/// buffer of this size, never through a second array.
const ARRAY_CHUNK: usize = 4096;

/// Write `values` as little-endian `u32`s.
fn write_u32s(out: &mut impl Write, values: impl IntoIterator<Item = u32>) -> io::Result<()> {
    let mut values = values.into_iter();
    let mut chunk = [0u8; ARRAY_CHUNK];
    loop {
        let mut filled = 0;
        // The slots lead the zip: a full chunk ends it without taking a
        // value that has no slot.
        for (slot, v) in chunk.as_chunks_mut::<4>().0.iter_mut().zip(&mut values) {
            *slot = v.to_le_bytes();
            filled += 4;
        }
        if filled == 0 {
            return Ok(());
        }
        out.write_all(chunk.split_at(filled).0)?;
    }
}

/// What one direction of one relation writes, after its two counts.
fn csr_words(csr: &Csr) -> usize {
    2 * csr.num_active() + 1 + csr.num_edges()
}

/// Exact length in bytes of the `GRPH` payload [`write_graph`] writes
/// for `graph`.
pub fn graph_payload_len(graph: &LabeledGraph) -> u64 {
    16 + graph
        .csr_pairs()
        .flat_map(|(fwd, bwd)| [fwd, bwd])
        .map(|csr| 16 + 4 * csr_words(csr) as u64)
        .sum::<u64>()
}

/// Write a graph as a `GRPH` payload: per relation and direction, the
/// ids of the active rows, their offsets and the targets — what
/// [`Csr`] holds, with the row directory spelled out as ids so the file
/// costs the edges and rows, never the vertex domain. The arrays are
/// read in place; nothing the size of the graph is built.
///
/// ```text
/// u64 num_vertices, u64 num_labels
/// per label: fwd CSR, bwd CSR
/// CSR: u64 num_rows, u64 num_targets,
///      rows u32*num_rows, offsets u32*(num_rows+1), targets u32*num_targets
/// ```
pub fn write_graph(graph: &LabeledGraph, out: &mut impl Write) -> io::Result<()> {
    out.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&(graph.num_labels() as u64).to_le_bytes())?;
    for (fwd, bwd) in graph.csr_pairs() {
        for csr in [fwd, bwd] {
            let (offsets, targets) = csr.raw_parts();
            // A relation without edges keeps no offsets in memory; on
            // disk it has the one entry of any other row-less array.
            let offsets: &[u32] = if offsets.is_empty() { &[0] } else { offsets };
            out.write_all(&(csr.num_active() as u64).to_le_bytes())?;
            out.write_all(&(targets.len() as u64).to_le_bytes())?;
            write_u32s(out, csr.active_vertices())?;
            write_u32s(out, offsets.iter().copied())?;
            write_u32s(out, targets.iter().copied())?;
        }
    }
    Ok(())
}

/// Append the `EPOC` and `GRPH` sections of a snapshot — the part of the
/// file the graph-only and the full service snapshot share.
pub fn write_graph_sections<W: Write>(
    w: &mut SnapshotWriter<W>,
    graph: &LabeledGraph,
    epoch: u64,
) -> io::Result<()> {
    w.write_section(TAG_EPOCH, &epoch.to_le_bytes())?;
    w.section(TAG_GRAPH, graph_payload_len(graph), |body| {
        write_graph(graph, body)
    })
}

/// Largest label count a `GRPH` payload may declare (`LabelId` is `u16`).
const MAX_LABELS: usize = u16::MAX as usize + 1;

/// One direction of one relation, as the file lists it.
struct CsrArrays {
    rows: Vec<VertexId>,
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

/// A `GRPH` payload read into the arrays the graph will keep, not yet
/// checked and not yet trusted: [`decode_graph`] makes it from bytes that
/// have not passed their checksum, [`GraphArrays::into_graph`] turns it
/// into a graph once they have.
pub struct GraphArrays {
    num_vertices: usize,
    /// Per label, the forward and the backward direction.
    relations: Vec<[CsrArrays; 2]>,
}

/// Read a `GRPH` payload. Every count is bounded by the bytes the
/// payload has left before anything is allocated for it (and the row
/// count by the domain as well), so what this allocates the payload
/// fills: a hostile count fails here, it never reaches an allocation or
/// an overflowing multiply. Nothing sized by a *value* is built — that
/// is [`GraphArrays::into_graph`], after the checksum.
pub fn decode_graph<R: Read>(r: &mut PayloadReader<R>) -> io::Result<GraphArrays> {
    let num_vertices = r.count("num_vertices", VertexId::MAX as usize + 1)?;
    let num_labels = r.count("num_labels", MAX_LABELS)?;
    // Two directions of two counts and one offset: a label costs 40 bytes.
    let mut relations = Vec::with_capacity(num_labels.min(r.room_for(40)));
    for label in 0..num_labels {
        let mut read = |dir: &str| {
            let what = format!("label {label} {dir} CSR");
            let num_rows = r.count(&what, num_vertices.min(r.room_for(4)))?;
            let num_targets = r.count(&what, r.room_for(4))?;
            io::Result::Ok(CsrArrays {
                rows: r.u32_array(num_rows, &what)?,
                offsets: r.u32_array(num_rows + 1, &what)?,
                targets: r.u32_array(num_targets, &what)?,
            })
        };
        relations.push([read("forward")?, read("backward")?]);
    }
    if !r.is_exhausted() {
        return Err(bad(format!(
            "graph payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(GraphArrays {
        num_vertices,
        relations,
    })
}

impl GraphArrays {
    /// Validate every structural invariant (strictly increasing
    /// in-domain row ids, no empty row, offsets ending at the target
    /// count, sorted rows, in-range targets, exact transpose) and build
    /// the row directories, relation by relation; the offsets and targets
    /// move into the graph, they are not copied. A corrupt or hostile
    /// snapshot is rejected with an error. Call this once the payload has
    /// passed its checksum: the directory is a bit per vertex of the
    /// declared domain — the one allocation sized by a value in the file
    /// instead of by the file's length — and must not be made for a
    /// domain bit rot invented.
    pub fn into_graph(self) -> io::Result<LabeledGraph> {
        let num_vertices = self.num_vertices;
        let mut pairs = Vec::with_capacity(self.relations.len());
        for (label, [fwd, bwd]) in self.relations.into_iter().enumerate() {
            let build = |arrays: CsrArrays, dir: &str| {
                let what = format!("label {label} {dir} CSR");
                if arrays.targets.iter().any(|&t| t as usize >= num_vertices) {
                    return Err(bad(format!("{what}: target vertex out of range")));
                }
                Csr::from_raw_parts(num_vertices, &arrays.rows, arrays.offsets, arrays.targets)
                    .map_err(|e| bad(format!("{what}: {e}")))
            };
            let (fwd, bwd) = (build(fwd, "forward")?, build(bwd, "backward")?);
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
        Ok(LabeledGraph::from_csr_pairs(num_vertices, pairs))
    }
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

/// Decode an `EPOC` payload.
pub fn decode_epoch<R: Read>(r: &mut PayloadReader<R>) -> io::Result<u64> {
    let epoch = r.u64("epoch")?;
    if !r.is_exhausted() {
        return Err(bad("epoch payload has trailing bytes"));
    }
    Ok(epoch)
}

/// The source [`read_sections`] decodes from: a file of a
/// [`Storage`], behind the one read buffer.
pub type SnapshotFile = io::BufReader<Box<dyn Read + Send>>;

/// Read a `.cegsnap` through `storage`, section by section: the graph
/// and the epoch, which every snapshot must hold, and what `markov`
/// makes of the `MRKV` section if there is one — a `markov` that reads
/// nothing skips it, like the sections of unknown tag. The file is
/// streamed; what this holds beside its results is the read buffer.
pub fn read_sections<M>(
    storage: &dyn Storage,
    path: &Path,
    mut markov: impl FnMut(&mut SectionBody<'_, SnapshotFile>) -> io::Result<M>,
) -> io::Result<(LabeledGraph, u64, Option<M>)> {
    let (file, len) = storage.open(path)?;
    let mut r = SnapshotReader::new(io::BufReader::with_capacity(WRITE_BUFFER, file), len)?;
    let (mut arrays, mut graph, mut epoch, mut catalog) = (None, None, None, None);
    while r
        .next_section(|tag, body| {
            match tag {
                TAG_GRAPH => arrays = Some(decode_graph(body)?),
                TAG_EPOCH => epoch = Some(decode_epoch(body)?),
                TAG_MARKOV => catalog = Some(markov(body)?),
                _ => {} // unknown section: skip (forward compatibility)
            }
            Ok(())
        })?
        .is_some()
    {
        // The section has passed its checksum: its arrays may be believed.
        if let Some(arrays) = arrays.take() {
            graph = Some(arrays.into_graph()?);
        }
    }
    let graph = graph.ok_or_else(|| bad("snapshot has no graph section"))?;
    let epoch = epoch.ok_or_else(|| bad("snapshot has no epoch section"))?;
    Ok((graph, epoch, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, GraphDelta};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The `GRPH` payload built whole, in memory, field by field as the
    /// format lists them: the oracle [`write_graph`] is held to.
    fn encode_graph(graph: &LabeledGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, graph.num_vertices() as u64);
        put_u64(&mut buf, graph.num_labels() as u64);
        for (fwd, bwd) in graph.csr_pairs() {
            for csr in [fwd, bwd] {
                let (offsets, targets) = csr.raw_parts();
                let offsets: &[u32] = if offsets.is_empty() { &[0] } else { offsets };
                put_u64(&mut buf, csr.num_active() as u64);
                put_u64(&mut buf, targets.len() as u64);
                for v in csr.active_vertices() {
                    put_u32(&mut buf, v);
                }
                for &x in offsets.iter().chain(targets) {
                    put_u32(&mut buf, x);
                }
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> io::Result<LabeledGraph> {
        decode_graph(&mut PayloadReader::new(payload))?.into_graph()
    }

    fn reader(file: &[u8]) -> io::Result<SnapshotReader<&[u8]>> {
        SnapshotReader::new(file, file.len() as u64)
    }

    /// The next section as its tag and its whole payload.
    fn next_raw<R: Read>(r: &mut SnapshotReader<R>) -> io::Result<Option<([u8; 4], Vec<u8>)>> {
        r.next_section(|tag, body| {
            let mut payload = Vec::new();
            body.read_to_end(&mut payload)?;
            Ok((tag, payload))
        })
    }

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
        let g2 = decode(&encode_graph(&g)).unwrap();
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
        let r2 = decode(&encode_graph(&r)).unwrap();
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
        let r2 = decode(&encode_graph(&r)).unwrap();
        assert!(graphs_equal(&r, &r2));
        assert_eq!(r2.label_count(3), 0);
        assert!(r2.has_edge(0, 1, 4));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new(0).build();
        let g2 = decode(&encode_graph(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_labels(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn sections_roundtrip_and_unknown_tags_skip() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(*b"XTRA", b"future section").unwrap();
        w.write_section(TAG_EPOCH, &42u64.to_le_bytes()).unwrap();
        w.finish().unwrap();

        let mut r = reader(&file).unwrap();
        let (tag, payload) = next_raw(&mut r).unwrap().unwrap();
        assert_eq!(tag, *b"XTRA");
        assert_eq!(payload, b"future section");
        // A decoder that reads nothing skips the section, checksum and all.
        let mut r = reader(&file).unwrap();
        assert_eq!(r.next_section(|tag, _| Ok(tag)).unwrap(), Some(*b"XTRA"));
        let epoch = r
            .next_section(|tag, body| {
                assert_eq!(tag, TAG_EPOCH);
                decode_epoch(body)
            })
            .unwrap();
        assert_eq!(epoch, Some(42));
        assert!(next_raw(&mut r).unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(reader(b"NOTSNAPX\x01\0\0\0").is_err());
        assert!(reader(b"CEG").is_err());
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&99u32.to_le_bytes());
        let err = reader(&file).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn every_truncation_of_a_section_file_errors() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(TAG_EPOCH, &7u64.to_le_bytes()).unwrap();
        w.finish().unwrap();
        // Cuts inside the header fail at `new`; cuts inside the section
        // fail at `next_section`. The one boundary cut (exactly the
        // 12-byte header) is a legal empty snapshot, so start past it.
        for cut in 1..12 {
            assert!(
                reader(&file[..cut]).is_err(),
                "header truncation at {cut} bytes must error"
            );
        }
        for cut in 13..file.len() {
            let r = reader(&file[..cut])
                .and_then(|mut r| next_raw(&mut r))
                .map(|_| ());
            assert!(r.is_err(), "truncation at {cut} bytes must error");
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(TAG_EPOCH, &7u64.to_le_bytes()).unwrap();
        w.finish().unwrap();
        // Flip one payload byte (header is 12 bytes, tag+len 12 more).
        file[25] ^= 0xFF;
        let err = next_raw(&mut reader(&file).unwrap()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn hostile_section_length_cannot_force_allocation() {
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(b"GRPH");
        file.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        file.extend_from_slice(b"tiny");
        let err = next_raw(&mut reader(&file).unwrap()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_graph_payloads_are_rejected() {
        let g = sample();
        let good = encode_graph(&g);
        // Truncations at every byte boundary.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // An out-of-range target vertex.
        let mut bad_target = good.clone();
        let n = bad_target.len();
        bad_target[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad_target).is_err());
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
        let err = decode(payload).expect_err(because);
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
        let g = decode(&one_label_payload(5, &fwd, &bwd)).unwrap();
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
        assert!(decode(&one_label_payload(
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
        let err = reader(&file).unwrap_err();
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
    /// blend — and the sweep clears what the crash left. Read back, the
    /// file arrives in several reads; a failure or a crash at any of
    /// them, or at the open, is an error — never a short payload.
    #[test]
    fn streamed_write_survives_a_crash_at_every_step() {
        use crate::vfs::{FaultPlan, FaultStorage, Storage};
        use std::path::Path;
        let path = Path::new("/data/ds.cegsnap");
        let old = b"old good snapshot".to_vec();
        let payload: Vec<u8> = (0..3 * WRITE_BUFFER + 17).map(|i| i as u8).collect();
        let write = |fs: &FaultStorage| {
            atomic_write_with(fs, path, |f| {
                let mut w = SnapshotWriter::new(f)?;
                w.section(*b"BLOB", payload.len() as u64, |body| {
                    payload.chunks(1000).try_for_each(|c| body.write_all(c))
                })?;
                w.finish().map(drop)
            })
        };

        let fs = FaultStorage::new();
        fs.install(path, old.clone());
        write(&fs).unwrap();
        let ops = fs.op_count();
        assert!(ops >= 7, "create, 4 writes, sync, rename, sync_dir: {ops}");
        let new = fs.read(path).unwrap();
        assert_eq!(
            new.len() as u64,
            HEADER + SECTION_FRAME + payload.len() as u64
        );

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

        let read = |fs: &FaultStorage| {
            let (file, len) = fs.open(path)?;
            let file = io::BufReader::with_capacity(WRITE_BUFFER, file);
            next_raw(&mut SnapshotReader::new(file, len)?)
        };
        let fs = FaultStorage::new();
        fs.install(path, new.clone());
        assert_eq!(read(&fs).unwrap(), Some((*b"BLOB", payload.clone())));
        let ops = fs.op_count();
        assert!(ops >= 5, "open, 4 reads: {ops}");
        for at in 0..ops {
            for plan in [
                FaultPlan::default().fail_at(at, io::ErrorKind::Other),
                FaultPlan::default().crash_after(at),
            ] {
                let fs = FaultStorage::new();
                fs.install(path, new.clone());
                fs.set_plan(plan);
                assert!(read(&fs).is_err(), "failure at read op {at} went unnoticed");
            }
        }
    }

    #[test]
    fn a_fill_that_misses_its_declared_length_is_an_error_and_no_file() {
        use crate::vfs::{FaultStorage, Storage};
        use std::path::Path;
        let path = Path::new("/data/ds.cegsnap");
        for (declared, written) in [(8u64, 7usize), (8, 9), (0, 1), (1, 0)] {
            let fs = FaultStorage::new();
            let err = atomic_write_with(&fs, path, |f| {
                let mut w = SnapshotWriter::new(f)?;
                w.section(*b"BLOB", declared, |body| {
                    body.write_all(&[7u8; 9][..written])
                })?;
                w.finish().map(drop)
            })
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("declared"), "{err}");
            assert!(!fs.exists(path), "a short section left a file behind");
            assert_eq!(fs.list(Path::new("/data")).unwrap(), Vec::<PathBuf>::new());
        }
    }

    #[test]
    fn streamed_graph_payload_is_the_oracle_payload() {
        let g = sample();
        let mut grown = GraphDelta::new();
        grown.add_edge(6, 1, 0); // rebased: mixed domains
        grown.add_edge(0, 1, 4); // a gap label: an empty relation
        let graphs = [
            g.clone(),
            g.rebase(&grown),
            GraphBuilder::new(0).build(),
            GraphBuilder::with_labels(3, 2).build(),
        ];
        for g in &graphs {
            let want = encode_graph(g);
            assert_eq!(graph_payload_len(g), want.len() as u64);
            let mut got = Vec::new();
            write_graph(g, &mut got).unwrap();
            assert_eq!(got, want);
            // One byte per write: the chunking a writer sees is not the
            // chunking the encoder chose.
            let mut file = Vec::new();
            let mut w = SnapshotWriter::new(&mut file).unwrap();
            w.section(TAG_GRAPH, want.len() as u64, |body| {
                want.iter().try_for_each(|b| body.write_all(&[*b]))
            })
            .unwrap();
            let mut whole = Vec::new();
            let mut w = SnapshotWriter::new(&mut whole).unwrap();
            w.write_section(TAG_GRAPH, &want).unwrap();
            assert_eq!(file, whole);
            assert_eq!(
                file[file.len() - 8..],
                section_checksum(&want).to_le_bytes()
            );
        }
    }

    /// A payload wider than one conversion chunk, so `u32_array` and
    /// `write_u32s` both cross a chunk boundary.
    #[test]
    fn arrays_longer_than_a_chunk_roundtrip() {
        let n = (ARRAY_CHUNK / 4 * 3 + 5) as u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(v, (v * 7 + 1) % n, 0);
        }
        let g = b.build();
        let mut payload = Vec::new();
        write_graph(&g, &mut payload).unwrap();
        assert_eq!(payload, encode_graph(&g));
        assert!(graphs_equal(&g, &decode(&payload).unwrap()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The running checksum is the checksum of the payload, however
        /// the payload is cut: 1-byte pieces, pieces that are no multiple
        /// of 8, cuts inside a word, empty pieces.
        #[test]
        fn running_checksum_ignores_how_the_payload_is_cut(
            payload in prop::collection::vec(0u8..=255, 0..300),
            cuts in prop::collection::vec(0usize..20, 0..60),
        ) {
            let want = section_checksum(&payload);
            let mut whole = RunningChecksum::new(payload.len() as u64);
            whole.update(&payload);
            prop_assert_eq!(whole.finish(), want);

            let mut bytewise = RunningChecksum::new(payload.len() as u64);
            payload.iter().for_each(|b| bytewise.update(&[*b]));
            prop_assert_eq!(bytewise.finish(), want);

            let mut pieces = RunningChecksum::new(payload.len() as u64);
            let mut rest = &payload[..];
            for cut in cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                pieces.update(piece);
                rest = tail;
            }
            pieces.update(rest);
            prop_assert_eq!(pieces.fed(), payload.len() as u64);
            prop_assert_eq!(pieces.finish(), want);
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
        let err = decode(&skewed).unwrap_err();
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
