//! Versioned binary snapshot framing and the graph section codec.
//!
//! A `.cegsnap` file is a sequence of checksummed sections behind a fixed
//! header, designed so a restart can skip text parsing and neighbour-list
//! sorting entirely. The graph section stores each relation once,
//! forward, as a bit stream of gap codes (`write_graph`): Elias-γ for
//! the relation's target set and for the row-id gaps and degrees, Rice
//! for the gaps between a row's targets' ranks in that set, with a
//! parameter both sides derive from the row's degree and the set's
//! size. The decoder reads them into one relation's row ids, offsets and
//! targets at a time (the set only while its relation is read), cuts
//! those into the pages the graph keeps, and derives the backward index
//! by one counting [`Csr::transpose`]. The catalog section
//! (`ceg-catalog::io`) and the log's records are coded as LEB128
//! varints, through the same [`ChunkedWriter`] and [`ChunkedReader`]:
//!
//! ```text
//! magic   8 bytes  b"CEGSNAP\0"
//! version u32 LE   format version (currently 6)
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
//! The `.cegwal` write-ahead log is the same container under its own
//! [`Header`] (see [`crate::wal`]): one section per committed
//! transaction, written with `SnapshotWriter::appending` and read with
//! [`SnapshotReader::next_section`]. The frame and its checksum are
//! defined here once; the header a reader checks and the name its errors
//! use are passed in as data.
//!
//! Compatibility rules: an unknown *tag* is skipped by the snapshot
//! reader (a newer writer can add sections without breaking older
//! readers; the log, with one record kind, stops at one instead), an
//! unknown *version* is rejected (the section payloads themselves may
//! have changed shape).
//! Every decode error — bad magic, truncation, checksum mismatch, a
//! structurally invalid payload — surfaces as `io::ErrorKind::InvalidData`
//! (or `UnexpectedEof`), never as a panic: snapshot files cross process
//! boundaries and must be treated as untrusted input. Length first: the
//! reader knows how many bytes the file holds, a section may not declare
//! more than remain, and a count inside a payload may not declare more
//! than its section has left — each is checked before anything is
//! allocated for it.
//!
//! This module owns the container, the varint codec the catalog and the
//! log are coded with and the `GRPH`/`EPOC` payload codecs; `ceg-catalog::io`
//! adds the `MRKV` codec and the combined graph+catalog+epoch snapshot
//! used by the service.

// The panic-path rule: a snapshot's bytes are untrusted, and damage is
// an error, never a panic. Tests are exempt (the root clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use std::convert::Infallible;
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::hash::FxHasher;
use crate::vfs::Storage;
use crate::{LabeledGraph, VertexId};

/// File magic: identifies a `.cegsnap` container.
pub const MAGIC: [u8; 8] = *b"CEGSNAP\0";

/// Current container format version. Version 2 stored each relation's
/// rows, offsets and targets as raw `u32`s in both directions; version 3
/// stored each relation once, forward, as LEB128 gaps (about a quarter
/// of the bytes); version 4 coded the `MRKV` catalog entries as LEB128
/// varints too, each against the leading edges it shares with the entry
/// before it. Version 5 coded each relation of `GRPH` as one bit stream:
/// a row header is two Elias-γ codes, so a gap of 0 and a degree of 1
/// cost a bit each where a varint cost a byte, and a row's targets were
/// Rice codes with `k = ⌊log2(num_vertices / degree)⌋`, so a target paid
/// for the whole domain. Version 6 (the layout is at `write_graph`)
/// writes each relation's target set `π_dst R` once, as γ gaps, and
/// codes a row's targets as Rice gaps of their ranks in that set with
/// `k = ⌊log2(num_targets / degree)⌋`: a target pays for its own
/// relation's set, and the set pays for where in the domain it lies.
/// Both sides derive `k`; it is never stored or tuned. The cost ledger's
/// `snapshot.sections.*` lines (`tests/cost/mod.rs`) pin the bytes each
/// section costs on the benchmark's seeded graphs and catalog.
/// There is no reader for versions 1 to 5: rebuild from the `.edges`
/// file.
pub const FORMAT_VERSION: u32 = 6;

/// Section tag: the rebased CSR relations of a [`LabeledGraph`].
pub const TAG_GRAPH: [u8; 4] = *b"GRPH";

/// Section tag: a Markov catalog (codec lives in `ceg-catalog::io`).
pub const TAG_MARKOV: [u8; 4] = *b"MRKV";

/// Section tag: the dataset epoch (a bare `u64`).
pub const TAG_EPOCH: [u8; 4] = *b"EPOC";

/// Bytes before the first section: magic and version.
pub const HEADER_LEN: u64 = 8 + 4;

/// What a container's header says it is: the magic and format version
/// it starts with, and the name its errors call it by. The frame code
/// writes and reads every container this crate keeps from this
/// description alone.
pub struct Header {
    /// The first 8 bytes of the file.
    pub magic: [u8; 8],
    /// The format version this build writes and reads, the next 4.
    pub version: u32,
    /// What errors call the file (`"snapshot"`, `"WAL"`).
    pub kind: &'static str,
}

impl Header {
    /// The header as it is on disk: the magic, then the version.
    pub fn bytes(&self) -> [u8; HEADER_LEN as usize] {
        let [m0, m1, m2, m3, m4, m5, m6, m7] = self.magic;
        let [v0, v1, v2, v3] = self.version.to_le_bytes();
        [m0, m1, m2, m3, m4, m5, m6, m7, v0, v1, v2, v3]
    }
}

/// The header of a `.cegsnap`.
pub const SNAPSHOT: Header = Header {
    magic: MAGIC,
    version: FORMAT_VERSION,
    kind: "snapshot",
};

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
    fn update(&mut self, bytes: &[u8]) {
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
    fn fed(&self) -> u64 {
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

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write a file atomically through `storage` (tests swap in a
/// [`crate::vfs::FaultStorage`] to crash the write at every step): `fill`
/// streams the bytes through a buffered
/// writer into a unique temp file next to `path`, which is synced to disk
/// and renamed over `path` only once complete — the file is never held
/// in memory. A crash, a full disk, or a concurrent
/// writer therefore can never leave a truncated or interleaved file at
/// `path` — at worst the old file survives untouched (plus a stray
/// `.tmp.*` sibling from a hard crash, which [`sweep_orphan_temps`]
/// deletes on the next startup). Snapshots are recovery artifacts;
/// overwriting the only good copy in place would let the durability
/// feature destroy the very state it exists to protect.
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
/// hard crash mid-`atomic_write_with` left behind in a dataset directory.
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
    /// Write the `.cegsnap` header and return the section writer.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&SNAPSHOT.bytes())?;
        Ok(SnapshotWriter::appending(inner))
    }

    /// A section writer for bytes that go after a header already in
    /// place: the records the write-ahead log appends.
    pub(crate) fn appending(inner: W) -> Self {
        SnapshotWriter { inner }
    }

    /// Append one checksummed section whose payload is the `len` bytes
    /// `fill` writes. The length goes out before the payload, so it must
    /// be exact: a `fill` that writes more or fewer bytes is an error
    /// (and, under `atomic_write_with`, no file).
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
                "section {} declared {len} bytes, {} were written",
                String::from_utf8_lossy(&tag),
                sum.fed()
            )));
        }
        self.inner.write_all(&sum.finish().to_le_bytes())
    }

    /// [`SnapshotWriter::section`] for a payload already in memory.
    pub(crate) fn write_section(&mut self, tag: [u8; 4], payload: &[u8]) -> io::Result<()> {
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
    /// What errors call the file: [`Header::kind`].
    kind: &'static str,
}

impl<R: Read> SnapshotReader<R> {
    /// Check the `.cegsnap` header of a source holding `len` bytes.
    pub fn new(inner: R, len: u64) -> io::Result<Self> {
        SnapshotReader::with_header(inner, len, &SNAPSHOT)
    }

    /// Check that a source holding `len` bytes starts with `header`. A
    /// version this build does not know is an error (payload layouts may
    /// differ), not a best-effort read.
    pub(crate) fn with_header(mut inner: R, len: u64, header: &Header) -> io::Result<Self> {
        let kind = header.kind;
        let mut magic = [0u8; 8];
        inner
            .read_exact(&mut magic)
            .map_err(|_| bad(format!("not a {kind}: file shorter than the magic")))?;
        if magic != header.magic {
            return Err(bad(format!("not a {kind}: bad magic")));
        }
        let mut version = [0u8; 4];
        inner
            .read_exact(&mut version)
            .map_err(|_| bad(format!("truncated {kind}: missing format version")))?;
        let version = u32::from_le_bytes(version);
        if version != header.version {
            return Err(bad(format!(
                "{kind} format version {version} is not supported (this build reads {})",
                header.version
            )));
        }
        Ok(SnapshotReader {
            inner,
            left: len.saturating_sub(HEADER_LEN),
            kind,
        })
    }

    /// Bytes of the source after the last section read: where the next
    /// one starts is the source's length less this.
    pub fn left(&self) -> u64 {
        self.left
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
        let kind = self.kind;
        let room = self
            .left
            .checked_sub(SECTION_FRAME)
            .ok_or_else(|| bad(format!("truncated {kind}: partial section header")))?;
        let mut tag = [0u8; 4];
        self.inner.read_exact(&mut tag)?;
        let mut len = [0u8; 8];
        self.inner.read_exact(&mut len)?;
        let len = u64::from_le_bytes(len);
        let name = String::from_utf8_lossy(&tag);
        if len > room {
            return Err(bad(format!(
                "truncated {kind}: section {name} claims {len} bytes, file holds {room}"
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
                    "truncated {kind}: section {name} ends after {} of {len} bytes",
                    sum.fed()
                ),
            ));
        }
        let mut checksum = [0u8; 8];
        self.inner.read_exact(&mut checksum)?;
        if u64::from_le_bytes(checksum) != sum.finish() {
            return Err(bad(format!("{kind} section {name} failed its checksum")));
        }
        self.left = room - len;
        Ok(Some(value))
    }
}

/// Little-endian cursor over one section's payload ([`SectionBody`]).
/// Every read is checked against the bytes the payload has left, so
/// decoding a corrupt payload errors instead of panicking or
/// over-allocating.
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
    fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// How many `width`-byte entries the unread bytes can hold: the
    /// ceiling for any count read from the payload.
    fn room_for(&self, width: u64) -> usize {
        usize::try_from(self.remaining() / width).unwrap_or(usize::MAX)
    }

    /// The next 8 bytes as a little-endian `u64`; they must exist before
    /// any is read.
    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        if self.remaining() < 8 {
            return Err(bad(format!(
                "truncated payload: {what} needs 8 bytes, {} remain",
                self.remaining()
            )));
        }
        let mut bytes = [0u8; 8];
        self.inner.read_exact(&mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A `u64` that must fit a (bounded) in-memory count.
    pub fn count(&mut self, what: &str, max: usize) -> io::Result<usize> {
        let n = self.u64(what)?;
        if n > max as u64 {
            return Err(bad(format!("{what} {n} exceeds the limit of {max}")));
        }
        Ok(n as usize)
    }
}

/// Bytes of varints converted per read or write: they go between their
/// in-memory and encoded forms through a buffer of this size, never
/// through a buffer the size of a section.
const CHUNK: usize = 4096;

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// Bytes of the LEB128 encoding of `v`: seven bits per byte.
pub fn varint_len(v: u64) -> u64 {
    u64::from(u64::BITS - (v | 1).leading_zeros()).div_ceil(7)
}

/// The writing half of the payload codec: little-endian `u64`s and
/// LEB128 varints, encoded into a chunk and written to the payload a
/// chunk at a time. Call [`ChunkedWriter::finish`] to write the last
/// chunk; a payload cut short is caught by the section's declared
/// length.
pub struct ChunkedWriter<'w, W: ?Sized> {
    out: &'w mut W,
    chunk: Vec<u8>,
}

impl<'w, W: Write + ?Sized> ChunkedWriter<'w, W> {
    pub fn new(out: &'w mut W) -> Self {
        ChunkedWriter {
            out,
            chunk: Vec::with_capacity(CHUNK),
        }
    }

    pub fn u64(&mut self, v: u64) -> io::Result<()> {
        self.chunk.extend_from_slice(&v.to_le_bytes());
        self.spill()
    }

    /// LEB128: seven bits per byte, low bits first, the high bit set on
    /// every byte but the last.
    #[inline]
    pub fn varint(&mut self, mut v: u64) -> io::Result<()> {
        while v >= 0x80 {
            self.chunk.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.chunk.push(v as u8);
        self.spill()
    }

    /// Write the chunk once another value might not fit it.
    #[inline]
    fn spill(&mut self) -> io::Result<()> {
        if self.chunk.len() > CHUNK - MAX_VARINT {
            self.out.write_all(&self.chunk)?;
            self.chunk.clear();
        }
        Ok(())
    }

    /// Write what the chunk holds.
    pub fn finish(self) -> io::Result<()> {
        self.out.write_all(&self.chunk)
    }
}

/// One code of a relation's bit stream: `zeros` zeros, a one, then the
/// `width` low bits of `low`. Bits go out least significant first, so a
/// reader takes them from the low end of a little-endian word.
#[derive(Clone, Copy)]
struct Code {
    zeros: u64,
    low: u64,
    width: u32,
}

impl Code {
    /// Elias-γ of `x >= 1`: `⌊log2 x⌋` zeros, a one, then the bits of
    /// `x` below its leading one.
    fn gamma(x: u64) -> Code {
        let n = x.ilog2();
        Code {
            zeros: n.into(),
            low: x & !(u64::MAX << n),
            width: n,
        }
    }

    /// Rice of `v` with parameter `k`: the quotient `v >> k` in unary,
    /// then the `k` low bits of `v`.
    fn rice(v: u64, k: u32) -> Code {
        Code {
            zeros: v >> k,
            low: v & !(u64::MAX << k),
            width: k,
        }
    }

    /// Bits the code takes in the stream.
    fn bits(self) -> u64 {
        self.zeros + 1 + u64::from(self.width)
    }
}

/// The Rice parameter of a row of `degree` targets in a set of `n`
/// (`1 <= degree <= n`): `⌊log2(n / degree)⌋`, the parameter whose codes
/// a row with evenly spread targets is shortest in. Both sides derive
/// it, so it is never stored. It is the largest `k` with `degree << k <=
/// n`: the difference of the two logs, or one less (no division per
/// row).
#[inline]
fn rice_k(n: u64, degree: u64) -> u32 {
    let k = n.ilog2() - degree.ilog2();
    k - u32::from(degree << k > n)
}

/// Where [`relation_codes`] hands a relation's codes.
trait CodeSink {
    type Error;
    /// Take the next code.
    fn code(&mut self, code: Code) -> Result<(), Self::Error>;
    /// A point between codes where a writer can pass its chunk on: after
    /// every [`TARGETS_PER_PAUSE`] ids of the target set and after the
    /// set, after each row, and after every [`TARGETS_PER_PAUSE`] targets
    /// of one.
    fn pause(&mut self) -> Result<(), Self::Error>;
}

/// Most target codes a [`CodeSink`] is handed between two pauses.
const TARGETS_PER_PAUSE: usize = 256;

/// Hand `sink` the codes of one relation's bit stream, in order: the γ
/// of each gap plus one in its target set `π_dst R` (the rows of `bwd`,
/// the relation's backward index), then per row of `fwd` the γ of its
/// id's gap plus one, the γ of its degree, and the Rice codes of the
/// gaps between its targets' ranks in that set. A gap is the value minus
/// the previous value minus 1, with -1 before the first set id, the
/// first row id and each row's first rank. A rank is read from `ranks`,
/// `bwd`'s [`Csr::rank_table`]: nothing is sorted or collected.
fn relation_codes<S: CodeSink>(
    fwd: &Csr,
    bwd: &Csr,
    ranks: &[u64],
    sink: &mut S,
) -> Result<(), S::Error> {
    // The previous value plus 1.
    let mut next = 0u64;
    for (i, t) in bwd.active_vertices().enumerate() {
        let t = u64::from(t);
        sink.code(Code::gamma(t - next + 1))?;
        next = t + 1;
        if i % TARGETS_PER_PAUSE == TARGETS_PER_PAUSE - 1 {
            sink.pause()?;
        }
    }
    sink.pause()?;
    let num_targets = bwd.num_active() as u64;
    let mut next_row = 0u64;
    for (v, row) in fwd.rows() {
        let v = u64::from(v);
        sink.code(Code::gamma(v - next_row + 1))?;
        next_row = v + 1;
        let degree = row.len() as u64;
        sink.code(Code::gamma(degree))?;
        let k = rice_k(num_targets, degree);
        let mut next = 0u64;
        for part in row.chunks(TARGETS_PER_PAUSE) {
            for &t in part {
                let rank = Csr::rank(t, ranks);
                debug_assert!(rank.is_some(), "target {t} has no backward row");
                let rank = rank.unwrap_or_default() as u64;
                sink.code(Code::rice(rank.saturating_sub(next), k))?;
                next = rank + 1;
            }
            sink.pause()?;
        }
    }
    Ok(())
}

/// A [`CodeSink`] that counts bits.
struct BitCount(u64);

impl CodeSink for BitCount {
    type Error = Infallible;

    fn code(&mut self, code: Code) -> Result<(), Infallible> {
        self.0 += code.bits();
        Ok(())
    }

    fn pause(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

/// The buffer that holds one relation's [`Csr::rank_table`] at a time,
/// reserved once for the graph's largest: the passes over a graph's
/// relations allocate nothing else.
fn rank_buffer(graph: &LabeledGraph) -> Vec<u64> {
    let lens = graph.csr_pairs().map(|(_, bwd)| bwd.rank_table_len());
    Vec::with_capacity(lens.max().unwrap_or(0))
}

/// Exact length in bytes of the `GRPH` payload `write_graph` writes
/// for `graph`: one sizing pass over the codes it will write.
pub fn graph_payload_len(graph: &LabeledGraph) -> u64 {
    payload_len(graph, &mut rank_buffer(graph))
}

/// [`graph_payload_len`] through a [`rank_buffer`].
fn payload_len(graph: &LabeledGraph, ranks: &mut Vec<u64>) -> u64 {
    let relations = graph.csr_pairs().map(|(fwd, bwd)| {
        bwd.rank_table(ranks);
        let mut bits = BitCount(0);
        let Ok(()) = relation_codes(fwd, bwd, ranks, &mut bits);
        24 + bits.0.div_ceil(8)
    });
    16 + relations.sum::<u64>()
}

/// The bits of a payload on their way into a [`ChunkedWriter`]'s chunk,
/// least significant first, a byte as soon as it is whole. It holds the
/// chunk while it writes, at the chunk's capacity, with its own count of
/// the bytes in it: a code stores into memory no field of the writer
/// lives in, so those stay in registers.
struct BitWriter<'w, W: ?Sized> {
    out: &'w mut W,
    /// `chunk[..at]` holds the bytes not yet written out.
    chunk: Vec<u8>,
    at: usize,
    /// Bits not yet in the chunk, the next one lowest; fewer than 8.
    acc: u64,
    len: u32,
}

/// Chunk bytes past which a [`BitWriter`] writes the chunk out: what
/// the codes between two pauses add (at most 32 bits each, 8 bytes
/// stored past the end) then still fits the chunk's capacity, so it is
/// never reallocated.
const BIT_CHUNK: usize = CHUNK - 4 * (TARGETS_PER_PAUSE + 2) - 8;

impl<'w, W: Write + ?Sized> BitWriter<'w, W> {
    /// Continue a payload with bits, after the bytes `chunk` holds;
    /// `finish` hands the chunk back.
    fn new(out: &'w mut W, mut chunk: Vec<u8>) -> Self {
        let at = chunk.len();
        chunk.resize(CHUNK, 0);
        BitWriter {
            out,
            chunk,
            at,
            acc: 0,
            len: 0,
        }
    }

    /// The `n <= 32` low bits of `bits` (the bits above them are zero).
    /// The accumulator is stored whole on every call and `at` counts the
    /// bytes that are complete, so no branch waits on a full word.
    #[inline]
    fn put(&mut self, bits: u64, n: u32) {
        self.acc |= bits << self.len;
        let len = self.len + n;
        if let Some(word) = self.chunk.get_mut(self.at..self.at + 8) {
            word.copy_from_slice(&self.acc.to_le_bytes());
        }
        self.at += (len / 8) as usize;
        self.acc >>= len & !7;
        self.len = len % 8;
    }

    /// Write the chunk once it holds [`BIT_CHUNK`] bytes.
    fn drain(&mut self) -> io::Result<()> {
        if self.at >= BIT_CHUNK {
            self.out
                .write_all(self.chunk.get(..self.at).unwrap_or_default())?;
            self.at = 0;
        }
        Ok(())
    }

    /// A code of more than 32 bits: its zeros 32 at a time, draining the
    /// chunk between them.
    #[inline(never)]
    fn long_code(&mut self, code: Code) -> io::Result<()> {
        let mut zeros = code.zeros;
        while zeros >= 32 {
            self.put(0, 32);
            self.drain()?;
            zeros -= 32;
        }
        self.put(1 << zeros, zeros as u32 + 1);
        self.put(code.low, code.width);
        self.drain()
    }

    /// The chunk with what is left, the last byte padded with zeros.
    fn finish(mut self) -> Vec<u8> {
        if self.len > 0 {
            self.put(0, 8 - self.len);
        }
        self.chunk.truncate(self.at);
        self.chunk
    }
}

impl<W: Write + ?Sized> CodeSink for BitWriter<'_, W> {
    type Error = io::Error;

    /// One code (`width <= 32`), in one `put` when it fits one.
    #[inline]
    fn code(&mut self, code: Code) -> io::Result<()> {
        if code.bits() <= 32 {
            let zeros = code.zeros as u32;
            self.put((code.low << 1 | 1) << zeros, zeros + 1 + code.width);
            return Ok(());
        }
        self.long_code(code)
    }

    fn pause(&mut self) -> io::Result<()> {
        self.drain()
    }
}

/// Write a graph as a `GRPH` payload: each relation once, forward, as a
/// bit stream of gap codes — the file costs the edges, rows and target
/// sets, never the vertex domain, and holds no backward index (the
/// reader derives it with [`Csr::transpose`]). The rows are read in
/// place and each target's rank from the backward index's rank table;
/// nothing the size of a relation is built (`ranks` is a
/// [`rank_buffer`]).
///
/// ```text
/// u64 num_vertices, u64 num_labels
/// per label: u64 num_rows, u64 num_edges, u64 num_targets, then one bit
///   stream, zero-padded to a whole byte, holding
///     γ(target-set id gap + 1) * num_targets, ascending: π_dst R
///     per row, ascending:
///       γ(row-id gap + 1)  γ(degree)  rice_k(target-rank gap) * degree
///       k = ⌊log2(num_targets / degree)⌋
/// gap = value - previous value - 1 (previous = -1 before the first set
///       id, the first row id and each row's first rank); a rank is a
///       target's position in π_dst R
/// ```
fn write_graph(graph: &LabeledGraph, ranks: &mut Vec<u64>, out: &mut impl Write) -> io::Result<()> {
    let mut w = ChunkedWriter::new(out);
    w.u64(graph.num_vertices() as u64)?;
    w.u64(graph.num_labels() as u64)?;
    for (fwd, bwd) in graph.csr_pairs() {
        w.u64(fwd.num_active() as u64)?;
        w.u64(fwd.num_edges() as u64)?;
        w.u64(bwd.num_active() as u64)?;
        bwd.rank_table(ranks);
        let mut bits = BitWriter::new(&mut *w.out, std::mem::take(&mut w.chunk));
        bits.drain()?;
        relation_codes(fwd, bwd, ranks, &mut bits)?;
        w.chunk = bits.finish();
        w.spill()?;
    }
    w.finish()
}

/// Append the `EPOC` and `GRPH` sections of a snapshot — the part of the
/// file the graph-only and the full service snapshot share.
pub fn write_graph_sections<W: Write>(
    w: &mut SnapshotWriter<W>,
    graph: &LabeledGraph,
    epoch: u64,
) -> io::Result<()> {
    w.write_section(TAG_EPOCH, &epoch.to_le_bytes())?;
    let mut ranks = rank_buffer(graph);
    let len = payload_len(graph, &mut ranks);
    w.section(TAG_GRAPH, len, |body| write_graph(graph, &mut ranks, body))
}

/// Largest label count a `GRPH` payload may declare (`LabelId` is `u16`).
const MAX_LABELS: usize = u16::MAX as usize + 1;

/// One relation, forward, as the file lists it.
struct Relation {
    rows: Vec<VertexId>,
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

/// A `GRPH` payload read into the arrays the graph will keep, checked
/// but not yet trusted: `decode_graph` makes it from bytes that have
/// not passed their checksum, `GraphArrays::into_graph` turns it into
/// a graph once they have.
pub struct GraphArrays {
    num_vertices: usize,
    /// Per label, the forward direction.
    relations: Vec<Relation>,
}

/// The reading half of the payload codec: the `u64`s and varints of a
/// payload, read into a stack buffer a chunk at a time (a varint is
/// decoded from the buffer, not read byte by byte from the file).
pub struct ChunkedReader<'r, R> {
    r: &'r mut PayloadReader<R>,
    buf: [u8; CHUNK],
    /// `buf[at..end]` has been read from the payload, not yet decoded.
    at: usize,
    end: usize,
}

impl<'r, R: Read> ChunkedReader<'r, R> {
    /// Decode the rest of `r`'s payload.
    pub fn new(r: &'r mut PayloadReader<R>) -> Self {
        ChunkedReader {
            r,
            buf: [0; CHUNK],
            at: 0,
            end: 0,
        }
    }

    /// Bytes of the payload not yet decoded.
    pub fn remaining(&self) -> u64 {
        (self.end - self.at) as u64 + self.r.remaining()
    }

    /// The bytes read and not yet decoded, topped up to at least `want`
    /// unless the payload ends first.
    fn fill(&mut self, want: usize) -> io::Result<&[u8]> {
        if self.end - self.at < want {
            self.buf.copy_within(self.at..self.end, 0);
            self.end -= self.at;
            self.at = 0;
            while self.end < want {
                let n = match self.buf.get_mut(self.end..) {
                    Some(free) => self.r.read(free)?,
                    None => 0,
                };
                if n == 0 {
                    break;
                }
                self.end += n;
            }
        }
        Ok(self.buf.get(self.at..self.end).unwrap_or_default())
    }

    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        let word = self.fill(8)?.first_chunk::<8>().copied();
        let word = word.ok_or_else(|| bad(format!("truncated payload: {what} needs 8 bytes")))?;
        self.at += 8;
        Ok(u64::from_le_bytes(word))
    }

    /// One LEB128 varint of a `T` (`u8` to `u64`): at most as many bytes
    /// as `T`'s bits need, holding a value `T` can hold, and no longer
    /// than that value needs (a last byte of zero after another is
    /// overlong), so a payload has exactly one encoding.
    #[inline]
    pub fn varint<T: From<u8> + TryFrom<u64>>(&mut self, what: &str) -> io::Result<T> {
        // Most values fit one byte: take it straight from the buffer.
        if let Some(&b) = self.buf.get(self.at..self.end).and_then(<[u8]>::first) {
            if b < 0x80 {
                self.at += 1;
                return Ok(b.into());
            }
        }
        self.long_varint(what)
    }

    /// [`ChunkedReader::varint`] past its one-byte case, kept out of
    /// line so the loops that call `varint` (the `MRKV` entries, the
    /// WAL's records) inline only the one-byte case.
    #[inline(never)]
    fn long_varint<T: TryFrom<u64>>(&mut self, what: &str) -> io::Result<T> {
        let bits = 8 * std::mem::size_of::<T>();
        let max_len = bits.div_ceil(7);
        let bytes = self.fill(max_len)?;
        let mut value = 0u64;
        for (i, &b) in bytes.iter().take(max_len).enumerate() {
            value |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if b == 0 && i > 0 {
                    return Err(bad(format!("{what}: overlong varint")));
                }
                // The tenth byte of a `u64` holds its top bit alone: a
                // higher one would have been shifted out.
                let value = (i < 9 || b == 1)
                    .then_some(value)
                    .and_then(|v| T::try_from(v).ok())
                    .ok_or_else(|| bad(format!("{what}: varint is past u{bits}")))?;
                self.at += i + 1;
                return Ok(value);
            }
        }
        Err(if bytes.len() < max_len {
            bad(format!("truncated payload: {what} ends inside a varint"))
        } else {
            bad(format!("{what}: overlong varint"))
        })
    }
}

/// The bits of a payload, least significant first, read a word at a
/// time from a [`ChunkedReader`]'s buffer into a 64-bit accumulator.
/// Every read is checked against the payload's end, and a unary run
/// against a limit as well, so no code makes a loop run past either.
struct BitReader<'r, R> {
    bytes: ChunkedReader<'r, R>,
    /// Bits taken from the payload and not yet decoded, the next one
    /// lowest; the bits above `len` are zero.
    acc: u64,
    len: u32,
}

impl<R: Read> BitReader<'_, R> {
    /// Bits of the payload not yet decoded.
    fn remaining(&self) -> u64 {
        u64::from(self.len) + 8 * self.bytes.remaining()
    }

    /// Top the accumulator up with whole bytes, to more than 56 bits
    /// unless the payload ends first.
    #[inline]
    fn refill(&mut self) -> io::Result<()> {
        if self.len > 56 {
            return Ok(());
        }
        let len = self.len;
        let take = (64 - len) / 8;
        let word = match self.bytes.buf.get(self.bytes.at..self.bytes.end) {
            Some(avail) => avail.first_chunk::<8>().copied(),
            None => None,
        };
        if let Some(word) = word {
            self.acc |= (u64::from_le_bytes(word) & (u64::MAX >> (64 - 8 * take))) << len;
            self.bytes.at += take as usize;
            self.len += 8 * take;
            return Ok(());
        }
        self.refill_slow()
    }

    /// [`BitReader::refill`] with fewer than 8 bytes in the buffer: top
    /// it up, then take what fits a byte at a time.
    #[inline(never)]
    fn refill_slow(&mut self) -> io::Result<()> {
        let avail = self.bytes.fill(8)?;
        let take = avail.len().min(((64 - self.len) / 8) as usize);
        for &b in avail.iter().take(take) {
            self.acc |= u64::from(b) << self.len;
            self.len += 8;
        }
        self.bytes.at += take;
        Ok(())
    }

    fn consume(&mut self, n: u32) {
        self.acc = self.acc.checked_shr(n).unwrap_or(0);
        self.len -= n;
    }

    /// [`BitReader::consume`] of `1 <= n <= 64` bits, without a branch.
    #[inline]
    fn consume_code(&mut self, n: u32) {
        self.acc = self.acc >> (n - 1) >> 1;
        self.len -= n;
    }

    /// The next `n <= 32` bits as a number, the first one lowest.
    #[inline]
    fn bits(&mut self, n: u32, what: &str) -> io::Result<u64> {
        self.refill()?;
        if self.len < n {
            return Err(bad(format!("truncated payload: {what} ends inside a code")));
        }
        let v = self.acc & !(u64::MAX << n);
        self.consume(n);
        Ok(v)
    }

    /// The zeros before the next one, which is consumed with them. A run
    /// of more than `limit` zeros is the error `past` makes as soon as it
    /// has passed `limit`, and a run the payload ends inside is an error
    /// too.
    #[inline]
    fn unary(&mut self, limit: u64, what: &str, past: impl Fn() -> io::Error) -> io::Result<u64> {
        let mut zeros = 0u64;
        loop {
            self.refill()?;
            if self.acc != 0 {
                let run = self.acc.trailing_zeros();
                zeros += u64::from(run);
                if zeros > limit {
                    return Err(past());
                }
                self.consume(run + 1);
                return Ok(zeros);
            }
            if self.len == 0 {
                return Err(bad(format!(
                    "truncated payload: {what} has a unary run past the payload's end"
                )));
            }
            zeros += u64::from(self.len);
            self.consume(self.len);
            if zeros > limit {
                return Err(past());
            }
        }
    }

    /// A code of `zeros_limit()` zeros at most, then a one and
    /// `width(zeros)` low bits: `(zeros, low bits)`. A code the
    /// accumulator holds whole is taken from it in one step; its run is
    /// not held to the limit, because a run past the limit gives a value
    /// past the bound its caller checks (and only a run the accumulator
    /// holds is taken).
    #[inline]
    fn code(
        &mut self,
        width: impl Fn(u32) -> u32,
        zeros_limit: impl Fn() -> u64,
        what: &str,
        past: impl Fn() -> io::Error,
    ) -> io::Result<(u64, u64)> {
        self.refill()?;
        // At most 63 when the accumulator holds a one.
        let zeros = self.acc.trailing_zeros();
        let n = width(zeros);
        if zeros + 1 + n <= self.len {
            let low = (self.acc >> zeros >> 1) & !(u64::MAX << n);
            self.consume_code(zeros + 1 + n);
            return Ok((zeros.into(), low));
        }
        self.code_slow(zeros_limit(), &width, what, &past)
    }

    /// [`BitReader::code`] for a code the accumulator does not hold
    /// whole: a long unary run, or one the buffer's end cuts.
    #[inline(never)]
    fn code_slow(
        &mut self,
        zeros_limit: u64,
        width: &dyn Fn(u32) -> u32,
        what: &str,
        past: &dyn Fn() -> io::Error,
    ) -> io::Result<(u64, u64)> {
        let zeros = self.unary(zeros_limit, what, past)?;
        let low = self.bits(width(zeros as u32), what)?;
        Ok((zeros, low))
    }

    /// An Elias-γ code of a value of at most `max`.
    #[inline]
    fn gamma(&mut self, max: u64, what: &str, past: impl Fn() -> io::Error) -> io::Result<u64> {
        let limit = max.checked_ilog2().ok_or_else(&past)?;
        let (n, low) = self.code(|n| n, || limit.into(), what, &past)?;
        let x = (1 << n) | low;
        if x > max {
            return Err(past());
        }
        Ok(x)
    }

    /// A `u64`, little-endian, at a byte boundary.
    fn u64(&mut self, what: &str) -> io::Result<u64> {
        let low = self.bits(32, what)?;
        Ok(low | self.bits(32, what)? << 32)
    }

    /// Skip to the next byte boundary; the bits skipped must be zero.
    fn align(&mut self, what: &str) -> io::Result<()> {
        let pad = self.len % 8;
        if self.acc & !(u64::MAX << pad) != 0 {
            return Err(bad(format!("{what}: padding bits are not zero")));
        }
        self.consume(pad);
        Ok(())
    }

    /// One relation: its three counts, then its bit stream. The counts
    /// are held to the domain and to the bits left before anything is
    /// allocated for them — a row costs at least its two γ codes of one
    /// bit, an edge at least the one bit that ends its unary quotient, a
    /// target-set id its γ's one bit — so what this allocates is at most
    /// 4 bytes per bit of the payload. Every id is checked against the
    /// domain and every rank against the set as it is decoded, and every
    /// unary run stops as soon as it could only name a value past its
    /// bound; strictly increasing ids and non-empty rows hold by
    /// construction. `named` holds one bit per set member while the
    /// relation is read, set as a row names it: a member no row names is
    /// refused, so the set is exactly the relation's targets and a graph
    /// has one encoding.
    fn relation(
        &mut self,
        label: usize,
        num_vertices: u64,
        named: &mut Vec<u64>,
    ) -> io::Result<Relation> {
        let what = format!("label {label}");
        let num_rows = self.u64(&what)?;
        let num_edges = self.u64(&what)?;
        let num_targets = self.u64(&what)?;
        let left = self.remaining();
        if num_edges > u64::from(u32::MAX)
            || num_rows > num_edges.min(num_vertices)
            || num_targets > num_edges.min(num_vertices)
            || 2 * num_rows + num_edges + num_targets > left
        {
            return Err(bad(format!(
                "{what}: {num_rows} rows, {num_edges} edges and {num_targets} targets over \
                 {num_vertices} vertices do not fit the {left} bits left"
            )));
        }
        // The ids a rank names, ascending.
        let mut set = Vec::with_capacity(num_targets as usize);
        let mut next = 0u64;
        for _ in 0..num_targets {
            let past = || {
                bad(format!(
                    "{what}: a target-set id past the domain of {num_vertices}"
                ))
            };
            let t = next + self.gamma(num_vertices - next, &what, past)? - 1;
            set.push(t as VertexId);
            next = t + 1;
        }
        named.clear();
        named.resize(num_targets.div_ceil(64) as usize, 0);
        let mut rows = Vec::with_capacity(num_rows as usize);
        let mut offsets = Vec::with_capacity(num_rows as usize + 1);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(num_edges as usize);
        let mut next_row = 0u64;
        for _ in 0..num_rows {
            let past = || {
                bad(format!(
                    "{what}: a row id past the domain of {num_vertices}"
                ))
            };
            let v = next_row + self.gamma(num_vertices - next_row, &what, past)? - 1;
            let past = || bad(format!("{what}: a degree past 2^32"));
            let degree = self.gamma(1 << 32, &what, past)?;
            if degree > num_targets {
                return Err(bad(format!(
                    "{what}: degree {degree} of row {v} is above the {num_targets} targets"
                )));
            }
            if targets.len() as u64 + degree > num_edges {
                return Err(bad(format!(
                    "{what}: degree {degree} of row {v} overruns num_edges {num_edges}"
                )));
            }
            let k = rice_k(num_targets, degree);
            let past = || {
                bad(format!(
                    "{what}: a rank of row {v} past the {num_targets} targets"
                ))
            };
            let mut next = 0u64;
            for _ in 0..degree {
                // A Rice code; a quotient past this limit carries the
                // rank past the set.
                let limit = || (num_targets - next).saturating_sub(1) >> k;
                let (q, low) = self.code(|_| k, limit, &what, past)?;
                let rank = next + (q << k | low);
                // The set holds `num_targets` ids: a rank below it names one.
                let &t = set.get(rank as usize).ok_or_else(past)?;
                if let Some(word) = named.get_mut((rank / 64) as usize) {
                    *word |= 1 << (rank % 64);
                }
                targets.push(t);
                next = rank + 1;
            }
            rows.push(v as VertexId);
            offsets.push(targets.len() as u32);
            next_row = v + 1;
        }
        if targets.len() as u64 != num_edges {
            return Err(bad(format!(
                "{what}: degrees sum to {}, num_edges is {num_edges}",
                targets.len()
            )));
        }
        let unnamed = num_targets - named.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        if unnamed > 0 {
            return Err(bad(format!(
                "{what}: {unnamed} of the {num_targets} targets are named by no row"
            )));
        }
        self.align(&what)?;
        Ok(Relation {
            rows,
            offsets,
            targets,
        })
    }
}

/// Read a `GRPH` payload. Every count is bounded by the bits the payload
/// has left before anything is allocated for it (and the row count by
/// the domain as well), so what this allocates the payload fills: a
/// hostile count fails here, it never reaches an allocation or an
/// overflowing multiply. Every code, row id and target is checked as it
/// is decoded. Nothing sized by a *value* is built — that is
/// `GraphArrays::into_graph`, after the checksum.
fn decode_graph<R: Read>(r: &mut PayloadReader<R>) -> io::Result<GraphArrays> {
    let num_vertices = r.count("num_vertices", VertexId::MAX as usize + 1)?;
    // Two counts: a label costs at least 16 bytes.
    let num_labels = r.count("num_labels", MAX_LABELS.min(r.room_for(16)))?;
    let mut r = BitReader {
        bytes: ChunkedReader::new(r),
        acc: 0,
        len: 0,
    };
    let mut named = Vec::new();
    let relations = (0..num_labels)
        .map(|label| r.relation(label, num_vertices as u64, &mut named))
        .collect::<io::Result<Vec<_>>>()?;
    if r.remaining() != 0 {
        return Err(bad(format!(
            "graph payload has {} trailing bytes",
            r.remaining() / 8
        )));
    }
    Ok(GraphArrays {
        num_vertices,
        relations,
    })
}

impl GraphArrays {
    /// Build the graph, relation by relation: the pages of the forward
    /// index (its arrays are freed once the pages hold them), then the
    /// backward index as its [`Csr::transpose`] — the file holds no
    /// second copy that could disagree with the first. Call this once
    /// the payload has passed its checksum: a page table reaches the
    /// largest id the file names — sized by values in the file, not by
    /// the file's length — and must not be made for ids bit rot
    /// invented.
    fn into_graph(self) -> LabeledGraph {
        let num_vertices = self.num_vertices;
        let pairs = self
            .relations
            .into_iter()
            .map(|r| {
                let fwd = Csr::from_raw_parts(num_vertices, r.rows, r.offsets, r.targets);
                let bwd = fwd.transpose();
                (fwd, bwd)
            })
            .collect();
        LabeledGraph::from_csr_pairs(num_vertices, pairs)
    }
}

/// Decode an `EPOC` payload.
fn decode_epoch<R: Read>(r: &mut PayloadReader<R>) -> io::Result<u64> {
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
                // Held until the checksum has been compared: the codes
                // take their Rice parameters from the declared counts, so
                // one flipped bit there misreads every rank after it, and
                // the checksum is what names that.
                TAG_GRAPH => arrays = Some(decode_graph(body)),
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
            graph = Some(arrays?.into_graph());
        }
    }
    let graph = graph.ok_or_else(|| bad("snapshot has no graph section"))?;
    let epoch = epoch.ok_or_else(|| bad("snapshot has no epoch section"))?;
    Ok((graph, epoch, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsStorage;
    use crate::{GraphBuilder, GraphDelta};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A bit stream built one bit at a time, each byte filled from its
    /// lowest bit, zero-padded: the oracle the codec is held to, and how
    /// a test spells out a payload that lies.
    #[derive(Default, Clone)]
    struct Bits(Vec<bool>);

    impl Bits {
        /// The `n` low bits of `v`, lowest first.
        fn raw(mut self, v: u64, n: u32) -> Self {
            self.0.extend((0..n).map(|i| v >> i & 1 == 1));
            self
        }

        fn zeros(mut self, n: u64) -> Self {
            self.0.extend((0..n).map(|_| false));
            self
        }

        /// Elias-γ of `x >= 1`: `⌊log2 x⌋` zeros, a one, the bits below
        /// the leading one.
        fn gamma(self, x: u64) -> Self {
            let n = x.ilog2();
            self.zeros(n.into()).raw(1, 1).raw(x, n)
        }

        /// Rice of `v` with parameter `k`: the quotient in unary, then
        /// `k` low bits.
        fn rice(self, v: u64, k: u32) -> Self {
            self.zeros(v >> k).raw(1, 1).raw(v, k)
        }

        fn bytes(&self) -> Vec<u8> {
            self.0
                .chunks(8)
                .map(|c| c.iter().rev().fold(0u8, |b, &bit| b << 1 | u8::from(bit)))
                .collect()
        }
    }

    /// The `GRPH` payload built whole, in memory, field by field as the
    /// format lists them: the oracle `write_graph` is held to. The target
    /// set is the forward targets sorted, and a rank a binary search in
    /// it.
    fn encode_graph(graph: &LabeledGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, graph.num_vertices() as u64);
        put_u64(&mut buf, graph.num_labels() as u64);
        for l in 0..graph.num_labels() as u16 {
            let mut set: Vec<VertexId> =
                graph.rows(l, false).flat_map(|(_, r)| r).copied().collect();
            set.sort_unstable();
            set.dedup();
            put_u64(&mut buf, graph.distinct_sources(l) as u64);
            put_u64(&mut buf, graph.label_count(l) as u64);
            put_u64(&mut buf, set.len() as u64);
            let mut bits = Bits::default();
            let mut prev = -1i64;
            for &t in &set {
                bits = bits.gamma((i64::from(t) - prev) as u64);
                prev = t.into();
            }
            let mut prev_row = -1i64;
            for (v, row) in graph.rows(l, false) {
                bits = bits.gamma((i64::from(v) - prev_row) as u64);
                bits = bits.gamma(row.len() as u64);
                let k = (set.len() as u64 / row.len() as u64).ilog2();
                let mut prev = -1i64;
                for t in row {
                    let rank = set.binary_search(t).unwrap() as i64;
                    bits = bits.rice((rank - prev - 1) as u64, k);
                    prev = rank;
                }
                prev_row = v.into();
            }
            buf.extend(bits.bytes());
        }
        buf
    }

    /// `write_graph` into memory.
    fn write_payload(graph: &LabeledGraph) -> Vec<u8> {
        let mut payload = Vec::new();
        write_graph(graph, &mut rank_buffer(graph), &mut payload).unwrap();
        payload
    }

    fn decode(payload: &[u8]) -> io::Result<LabeledGraph> {
        decode_graph(&mut PayloadReader::new(payload)).map(GraphArrays::into_graph)
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

    /// Same domain, same labels, same rows in both directions.
    fn graphs_equal(a: &LabeledGraph, b: &LabeledGraph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.num_labels() == b.num_labels()
            && (0..a.num_labels() as u16).all(|l| {
                [false, true]
                    .into_iter()
                    .all(|backward| a.rows(l, backward).eq(b.rows(l, backward)))
            })
    }

    #[test]
    fn graph_payload_roundtrips() {
        let g = sample();
        let g2 = decode(&encode_graph(&g)).unwrap();
        assert!(graphs_equal(&g, &g2));
        // Both indexes come back array for array, cached aggregates and
        // capacities included: the derived backward index is the one the
        // builder made.
        assert!(g.csr_pairs().eq(g2.csr_pairs()));
        assert_eq!(g2.heap_bytes(), g.heap_bytes());
        assert_eq!(g2.max_in_degree(0), g.max_in_degree(0));
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
        let graph = sample();
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        write_graph_sections(&mut w, &graph, 7).unwrap();
        w.finish().unwrap();
        // Header, the `EPOC` section, then the `GRPH` frame's tag and
        // length: every prefix of the graph payload is one of the cuts.
        let grph = 12 + 28 + 12..file.len() - 8;
        assert_eq!(grph.len() as u64, graph_payload_len(&graph));
        // Cuts inside the header fail at `new`; cuts inside a section
        // fail at `next_section`. The one boundary cut (exactly the
        // 12-byte header) is a legal empty snapshot, so start past it.
        for cut in 1..12 {
            assert!(
                reader(&file[..cut]).is_err(),
                "header truncation at {cut} bytes must error"
            );
        }
        let epoch_end = 12 + 28;
        for cut in 13..file.len() {
            let graph = reader(&file[..cut]).and_then(|mut r| {
                let mut graph = None;
                while r
                    .next_section(|tag, body| {
                        if tag == TAG_GRAPH {
                            graph = Some(decode_graph(body)?);
                        }
                        Ok(())
                    })?
                    .is_some()
                {}
                Ok(graph)
            });
            if cut == epoch_end {
                // The cut after `EPOC` is a legal container without a graph.
                assert!(
                    matches!(graph, Ok(None)),
                    "the cut after EPOC must read no graph"
                );
            } else {
                assert!(graph.is_err(), "truncation at {cut} bytes must error");
            }
        }
        // And the payload alone, cut anywhere, fails to decode.
        for cut in grph.clone() {
            assert!(
                decode(&file[grph.start..cut]).is_err(),
                "payload cut at {cut}"
            );
        }
        assert!(decode(&file[grph]).is_ok());
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
        // Label 0's stream (after the two graph counts and its three) is
        // its set {1, 2} as γ(2) γ(1), then row 0 as γ(1) γ(2) rice_0(0)
        // rice_0(0): 10 bits, so the top bit of its second byte pads.
        let mut padded = good.clone();
        padded[16 + 24 + 1] |= 0x80;
        let err = decode(&padded).unwrap_err();
        assert!(err.to_string().contains("padding"), "{err}");
    }

    /// A one-label `GRPH` payload over `num_vertices`, field by field, so
    /// a test can lie in any of them.
    fn one_label(
        num_vertices: u64,
        num_rows: u64,
        num_edges: u64,
        num_targets: u64,
        body: &Bits,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, num_vertices);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, num_rows);
        put_u64(&mut buf, num_edges);
        put_u64(&mut buf, num_targets);
        buf.extend(body.bytes());
        buf
    }

    /// Decoding must fail with `InvalidData` or `UnexpectedEof` — an
    /// error, not a panic — naming label 0 and saying `why`.
    fn assert_rejected(payload: &[u8], because: &str, why: &str) {
        let err = decode(payload).expect_err(because);
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ),
            "{because}: {err}"
        );
        assert!(
            err.to_string().contains("label 0") && err.to_string().contains(why),
            "{because}: error must name the label and say {why:?}: {err}"
        );
    }

    /// The target set of the honest relation {0->1, 0->2, 3->1} over five
    /// vertices: {1, 2}, as the gaps 1 and 0.
    fn honest_set() -> Bits {
        Bits::default().gamma(2).gamma(1)
    }

    /// The set, then the relation's first row: row 0 (gap 0, degree 2,
    /// so `k = ⌊log2 2/2⌋ = 0`, the ranks 0 and 1 as gaps 0 and 0).
    fn honest_row_0() -> Bits {
        honest_set().gamma(1).gamma(2).rice(0, 0).rice(0, 0)
    }

    /// The whole honest relation: row 0, then row 3 (gap 2, degree 1, so
    /// `k = ⌊log2 2⌋ = 1`, the rank 0 of target 1).
    fn honest() -> Bits {
        honest_row_0().gamma(3).gamma(1).rice(0, 1)
    }

    #[test]
    fn hostile_row_directories_are_rejected() {
        let g = decode(&one_label(5, 2, 3, 2, &honest())).unwrap();
        assert_eq!(g.out_neighbors(0, 0), &[1, 2]);
        assert_eq!(g.out_neighbors(3, 0), &[1]);
        assert_eq!(g.in_neighbors(1, 0), &[0, 3]);

        let domain = "past the domain";
        let lies: [(Vec<u8>, &str, &str); 8] = [
            (
                one_label(5, 2, 3, 2, &honest_row_0().gamma(5).gamma(1).rice(0, 1)),
                "a row gap that lands on num_vertices",
                domain,
            ),
            (
                one_label(5, 2, 3, 2, &honest_row_0().gamma(9).gamma(1).rice(0, 1)),
                "a row gap that lands past num_vertices",
                domain,
            ),
            (
                one_label(5, 2, 3, 2, &honest_row_0().gamma(3).gamma(2).zeros(16)),
                "a degree that overruns num_edges",
                "overruns",
            ),
            (
                one_label(5, 2, 4, 2, &honest()),
                "degrees that sum to less than num_edges",
                "sum to",
            ),
            (
                // Row 0, then a gap of 2^32 - 1: an id sum that wrapped at
                // 32 bits would land on row 0 again.
                one_label(
                    1 << 32,
                    2,
                    2,
                    1,
                    &Bits::default()
                        .gamma(1)
                        .gamma(1)
                        .gamma(1)
                        .rice(0, 0)
                        .gamma(1 << 32)
                        .gamma(1)
                        .rice(0, 0),
                ),
                "a row-id gap that repeats a row",
                domain,
            ),
            (
                // Eight zeros: the first set id's unary run has not reached
                // its limit (32 zeros in a domain of 2^32) when the payload
                // ends.
                one_label(1 << 32, 1, 1, 1, &Bits::default().zeros(8)),
                "a unary run that passes the payload's end",
                "payload's end",
            ),
            (
                one_label(2, 3, 3, 1, &Bits::default().zeros(64)),
                "more rows than vertices",
                "do not fit",
            ),
            (
                one_label(5, 4, 3, 1, &Bits::default().zeros(64)),
                "more rows than edges",
                "do not fit",
            ),
        ];
        for (payload, because, why) in &lies {
            assert_rejected(payload, because, why);
        }
    }

    /// A target set or a rank that lies is `InvalidData`, refused before
    /// anything is allocated for a count the bits cannot hold.
    #[test]
    fn hostile_target_sets_are_rejected() {
        let domain = "past the domain";
        let set = "past the 2 targets";
        let lies: [(Vec<u8>, &str, &str); 10] = [
            (
                one_label(2, 1, 3, 3, &Bits::default().zeros(64)),
                "more targets than vertices",
                "do not fit",
            ),
            (
                one_label(5, 1, 2, 3, &Bits::default().zeros(64)),
                "more targets than edges",
                "do not fit",
            ),
            (
                // 2^32 - 1 targets would reserve 16 GiB.
                one_label(
                    1 << 32,
                    1,
                    u32::MAX.into(),
                    u32::MAX.into(),
                    &Bits::default().zeros(56),
                ),
                "more targets than the bits left",
                "bits left",
            ),
            (
                one_label(
                    5,
                    1,
                    2,
                    2,
                    &Bits::default().gamma(6).gamma(1).gamma(1).gamma(2),
                ),
                "a first set id at num_vertices",
                domain,
            ),
            (
                one_label(
                    5,
                    1,
                    2,
                    2,
                    &Bits::default().gamma(2).gamma(4).gamma(1).gamma(2),
                ),
                "a set gap that lands on num_vertices",
                domain,
            ),
            (
                one_label(5, 2, 3, 2, &honest_row_0().gamma(3).gamma(1).rice(2, 1)),
                "a rank equal to num_targets",
                set,
            ),
            (
                one_label(5, 2, 3, 2, &honest_row_0().gamma(3).gamma(1).rice(12, 1)),
                "a Rice quotient that carries a rank past the set",
                set,
            ),
            (
                one_label(
                    5,
                    2,
                    3,
                    2,
                    &honest_row_0().gamma(3).gamma(1).zeros(70).raw(1, 2),
                ),
                "a unary run longer than any rank in the set",
                set,
            ),
            (
                one_label(5, 1, 3, 2, &honest_set().gamma(1).gamma(3).zeros(8)),
                "a degree above num_targets",
                "above the 2 targets",
            ),
            (
                // Rows 0 and 3 both to rank 0: target 2 is in the set
                // but on no row.
                one_label(
                    5,
                    2,
                    2,
                    2,
                    &honest_set()
                        .gamma(1)
                        .gamma(1)
                        .rice(0, 1)
                        .gamma(3)
                        .gamma(1)
                        .rice(0, 1),
                ),
                "a set member no row names",
                "1 of the 2 targets are named by no row",
            ),
        ];
        for (payload, because, why) in &lies {
            assert_rejected(payload, because, why);
            let err = decode(payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{because}: {err}");
        }
    }

    #[test]
    fn hostile_codes_are_rejected() {
        // A degree's γ with 33 zeros: longer than any degree a domain of
        // at most 2^32 vertices has.
        let long = Bits::default()
            .gamma(1)
            .gamma(1)
            .zeros(33)
            .raw(1, 1)
            .zeros(40);
        assert_rejected(&one_label(5, 1, 1, 1, &long), "an overlong γ", "past 2^32");
        // A relation of row 0 alone (10 bits) with a padding bit set: one
        // encoding per relation.
        let mut set = honest_row_0().bytes();
        *set.last_mut().unwrap() |= 0x80;
        let mut payload = one_label(5, 1, 2, 2, &Bits::default());
        payload.extend(set);
        assert_rejected(&payload, "a padding bit set", "padding");
        // A Rice code cut inside its low bits by the end of the payload:
        // 64 set ids as γ(2), then row 0 of degree 1 (`k = 6`) with only
        // five bits left after its quotient.
        let cut = (0..64)
            .fold(Bits::default(), |b, _| b.gamma(2))
            .gamma(1)
            .gamma(1)
            .raw(1, 1)
            .raw(0, 3);
        assert_rejected(
            &one_label(1 << 32, 1, 64, 64, &cut),
            "a code the payload ends inside",
            "ends inside a code",
        );
        // The largest id a domain of 2^32 holds still decodes, as a set id
        // and as a row id (the arrays only: the graph would be one page at
        // the end of a page table of 2^20 slots per relation and
        // direction).
        let max = Bits::default()
            .gamma(1 << 32)
            .gamma(1 << 32)
            .gamma(1)
            .rice(0, 0);
        let arrays = decode_graph(&mut PayloadReader::new(&one_label(1 << 32, 1, 1, 1, &max)));
        let arrays = arrays.unwrap();
        assert_eq!(arrays.relations[0].rows, [u32::MAX]);
        assert_eq!(arrays.relations[0].targets, [u32::MAX]);
    }

    #[test]
    fn hostile_row_count_cannot_force_allocation() {
        // A domain of 2^32 vertices makes every count "in range": the
        // bits actually remaining must bound it instead, before anything
        // is allocated for it. A row costs two bits, an edge and a target
        // one each, and the 7 bytes below hold 56.
        for (num_rows, num_edges, num_targets) in [
            (1u64 << 31, 1u64 << 31, 0),
            (u32::MAX as u64 + 1, u32::MAX as u64 + 1, 0),
            (0, 1 << 31, 0),
            (0, u64::MAX, 0),
            (u64::MAX, u64::MAX, 0),
            (19, 19, 0),
            (0, 57, 0),
            (1, 1 << 31, 1 << 31),
            (0, 1, u64::MAX),
            (1, 28, 27),
        ] {
            assert_rejected(
                &one_label(
                    1 << 32,
                    num_rows,
                    num_edges,
                    num_targets,
                    &Bits::default().zeros(56),
                ),
                "counts larger than the payload",
                "bits left",
            );
        }
        // Counts the bits hold reach the codes: an honest relation, and
        // the one edge of a one-vertex domain in four bits.
        for fits in [
            one_label(5, 2, 3, 2, &honest()),
            one_label(
                1,
                1,
                1,
                1,
                &Bits::default().gamma(1).gamma(1).gamma(1).rice(0, 0),
            ),
        ] {
            assert!(decode_graph(&mut PayloadReader::new(&fits)).is_ok());
        }
    }

    #[test]
    fn trailing_bytes_after_the_last_relation_are_rejected() {
        let payload = [one_label(5, 2, 3, 2, &honest()), vec![0]].concat();
        let err = decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    }

    /// A header of an older format version is refused with the typed
    /// message that names both versions.
    fn assert_version_refused(version: u32) {
        let mut file = Vec::from(MAGIC);
        file.extend_from_slice(&version.to_le_bytes());
        let err = reader(&file).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("snapshot format version {version} is not supported (this build reads 6)")
        );
    }

    #[test]
    fn version_1_header_is_refused() {
        assert_version_refused(1);
    }

    #[test]
    fn version_2_header_is_refused() {
        assert_version_refused(2);
    }

    #[test]
    fn version_3_header_is_refused() {
        assert_version_refused(3);
    }

    #[test]
    fn version_4_header_is_refused() {
        assert_version_refused(4);
    }

    #[test]
    fn version_5_header_is_refused() {
        assert_eq!(FORMAT_VERSION, 6);
        assert_version_refused(5);
    }

    /// Every width round-trips its extremes and the values around each
    /// seven-bit boundary, through the writer and back, and refuses a
    /// value one past its type.
    #[test]
    fn varints_of_every_width_roundtrip_and_refuse_overflow() {
        let mut values: Vec<u64> = (0..64).flat_map(|b| [(1 << b) - 1, 1 << b]).collect();
        values.push(u64::MAX);
        let mut payload = Vec::new();
        let mut w = ChunkedWriter::new(&mut payload);
        values.iter().try_for_each(|&v| w.varint(v)).unwrap();
        w.finish().unwrap();
        let want: u64 = values.iter().map(|&v| varint_len(v)).sum();
        assert_eq!(payload.len() as u64, want);
        assert_eq!(varint_len(u64::MAX), MAX_VARINT as u64);

        fn each<T: From<u8> + TryFrom<u64>>(payload: &[u8], values: &[u64]) -> Vec<Option<T>> {
            let mut r = PayloadReader::new(payload);
            let mut r = ChunkedReader::new(&mut r);
            values
                .iter()
                .map(|&v| {
                    let got = r.varint::<T>("v").ok();
                    if got.is_none() {
                        // Skip the refused value's bytes.
                        r.at += varint_len(v) as usize;
                    }
                    got
                })
                .collect()
        }
        fn fits<T: TryFrom<u64>>(values: &[u64]) -> Vec<Option<T>> {
            values.iter().map(|&v| T::try_from(v).ok()).collect()
        }
        assert_eq!(each::<u8>(&payload, &values), fits::<u8>(&values));
        assert_eq!(each::<u16>(&payload, &values), fits::<u16>(&values));
        assert_eq!(each::<u32>(&payload, &values), fits::<u32>(&values));
        assert_eq!(each::<u64>(&payload, &values), fits::<u64>(&values));

        // Ten bytes whose last carries more than bit 63, and eleven.
        for hostile in [
            [&[0xff; 9][..], &[0x02]].concat(),
            [&[0x80; 10][..], &[0x01]].concat(),
        ] {
            let mut r = PayloadReader::new(&hostile);
            let err = ChunkedReader::new(&mut r).varint::<u64>("v").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn atomic_write_preserves_the_old_file_on_failure() {
        let path = std::env::temp_dir().join(format!("ceg-atomic-{}.cegsnap", std::process::id()));
        std::fs::write(&path, b"precious previous snapshot").unwrap();
        let err = atomic_write_with(&OsStorage, &path, |f| {
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
        atomic_write_with(&OsStorage, &path, |f| f.write_all(b"new snapshot")).unwrap();
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
        // ...and the orphans a hard crash mid-atomic_write_with leaves.
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
            HEADER_LEN + SECTION_FRAME + payload.len() as u64
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
            assert_eq!(write_payload(g), want);
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

    /// A relation wider than several conversion chunks, so
    /// `ChunkedWriter` and the decoder's buffer both cross chunk
    /// boundaries, inside a varint too — whether the source hands over
    /// the payload whole or one byte per read.
    #[test]
    fn arrays_longer_than_a_chunk_roundtrip() {
        let n = (CHUNK * 3 + 5) as u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(v, (v * 7 + 1) % n, 0);
            b.add_edge(v, (v * 131 + 7) % n, 0);
        }
        let g = b.build();
        let payload = write_payload(&g);
        assert!(payload.len() > 4 * CHUNK, "{} bytes", payload.len());
        assert_eq!(payload, encode_graph(&g));
        assert_eq!(graph_payload_len(&g), payload.len() as u64);
        assert!(graphs_equal(&g, &decode(&payload).unwrap()));

        struct ByteByByte<'a>(&'a [u8]);
        impl Read for ByteByByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match (buf.first_mut(), self.0.split_first()) {
                    (Some(slot), Some((&b, rest))) => {
                        *slot = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    _ => Ok(0),
                }
            }
        }
        let mut file = Vec::new();
        let mut w = SnapshotWriter::new(&mut file).unwrap();
        w.write_section(TAG_GRAPH, &payload).unwrap();
        w.finish().unwrap();
        let mut r = SnapshotReader::new(ByteByByte(&file), file.len() as u64).unwrap();
        let back = r.next_section(|_, body| decode_graph(body)).unwrap();
        assert!(graphs_equal(&g, &back.unwrap().into_graph()));
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

        /// `Csr::transpose` is `Csr::from_pairs` of the reversed pairs —
        /// page table, every page's directory, ranks, offsets and
        /// targets, the cached totals and the capacities — on random
        /// relations over domains around the directory's word boundaries
        /// and ids across several pages, and on the same relations
        /// rebased (edges added and deleted) over a grown domain.
        #[test]
        fn transpose_is_from_pairs_of_the_reversed_pairs(
            n in 1usize..140,
            wide in (0u8..2).prop_map(|b| b == 1),
            pairs in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..120),
            grow in 0usize..70,
            adds in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..40),
            del_every in 1usize..6,
        ) {
            // A wide domain spreads the ids over up to four pages.
            let (n, grow) = if wide { (n * 97, grow * 97) } else { (n, grow) };
            let reversed_from_pairs = |csr: &Csr| {
                let rev: Vec<(VertexId, VertexId)> = csr.iter_edges().map(|(s, d)| (d, s)).collect();
                Csr::from_pairs(csr.num_vertices(), &rev)
            };
            let mut pairs: Vec<(VertexId, VertexId)> =
                pairs.iter().map(|&(s, d)| (s % n as u32, d % n as u32)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let base = Csr::from_pairs(n, &pairs);
            let m = n + grow;
            let mut adds: Vec<(VertexId, VertexId)> = adds
                .iter()
                .map(|&(s, d)| (s % m as u32, d % m as u32))
                .filter(|&(s, d)| !base.contains(s, d))
                .collect();
            adds.sort_unstable();
            adds.dedup();
            let dels: Vec<(VertexId, VertexId)> = pairs.iter().copied().step_by(del_every).collect();
            let rebased = base.rebase(m, &adds, &dels);
            for csr in [&base, &rebased] {
                let want = reversed_from_pairs(csr);
                let got = csr.transpose();
                prop_assert_eq!(got.heap_bytes(), want.heap_bytes());
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(&got.transpose(), csr);
            }
        }
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
