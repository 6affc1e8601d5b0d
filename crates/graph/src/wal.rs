//! The commit write-ahead log: an append-only `.cegwal` file that makes
//! an acked `COMMITTED` reply survive a crash.
//!
//! The file is the `.cegsnap` container (see [`crate::snapshot`]) under
//! its own header, written and read by the same frame code — one
//! checksummed section per committed transaction:
//!
//! ```text
//! magic   8 bytes  b"CEGWAL\0\0"
//! version u32 LE   format version (currently 2)
//! record*:
//!   tag      4 bytes   b"TXN "
//!   len      u64 LE    payload length in bytes
//!   payload  len bytes u64 LE epoch, varint(op count), then per op
//!                      varint(src) varint(dst) varint(label * 2 + del)
//!   checksum u64 LE    length-seeded FxHash64 of the payload
//! ```
//!
//! A record holds the *effective* edge operations one commit applied,
//! stamped with the epoch that commit produced. The writer appends it
//! with one write and one `fdatasync` per commit (never per op), and only
//! after the sync returns does the server ack.
//!
//! Reading is **prefix recovery**, not all-or-nothing like a snapshot:
//! a crash legitimately leaves a torn tail, so [`scan_bytes`] reads
//! records until the first sign of damage (truncation, a checksum
//! mismatch, a malformed payload, an unknown tag, an epoch regression)
//! and returns every record before it, the byte offset at which the file
//! stops being trustworthy ([`WalScan::valid_len`]) and a diagnosis
//! naming that offset. With one record kind an unknown tag is damage,
//! never a record to skip, so a flipped tag stops the scan without being
//! in the checksum. Damage is never a panic, and a hostile length or op
//! count can never force an allocation: each is held to the bytes the
//! file has left first.
//!
//! A log of any other version, 1 included, is refused and left as it
//! is: this build has no reader for it.

// The panic-path rule: the log's bytes are untrusted, and damage is an
// error, never a panic. Tests are exempt (the root clippy.toml).
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

use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::snapshot::{
    bad, ChunkedReader, ChunkedWriter, Header, SectionBody, SnapshotReader, SnapshotWriter,
    HEADER_LEN,
};
use crate::vfs::{Storage, StorageFile};
use crate::{LabelId, VertexId};

/// The header of a `.cegwal`.
pub const WAL_HEADER: Header = Header {
    magic: *b"CEGWAL\0\0",
    version: 2,
    kind: "WAL",
};

/// Header length: magic + version.
pub const WAL_HEADER_LEN: u64 = HEADER_LEN;

/// Record tag: one committed transaction.
pub const TAG_TX: [u8; 4] = *b"TXN ";

/// The fewest bytes an op is coded in: three one-byte varints.
const MIN_OP_LEN: u64 = 3;

/// One logged edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOp {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge label.
    pub label: LabelId,
    /// True for a deletion, false for an insertion.
    pub del: bool,
}

/// One committed transaction recovered from (or appended to) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTx {
    /// The epoch this commit produced.
    pub epoch: u64,
    /// The effective edge operations the commit applied.
    pub ops: Vec<WalOp>,
}

/// What a [`scan_bytes`] recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Complete transactions, in log order.
    pub txs: Vec<WalTx>,
    /// Bytes of the file that are trustworthy: the header plus every
    /// record up to and including the last good one. Re-opening for
    /// append truncates the file here. `0` means even the header is torn
    /// (a crash during creation).
    pub valid_len: u64,
    /// Why scanning stopped before the end of the file; `None` when
    /// every byte was consumed cleanly.
    pub diagnosis: Option<String>,
}

impl WalScan {
    /// Highest committed epoch in the log, if any transaction survived.
    pub fn last_epoch(&self) -> Option<u64> {
        self.txs.last().map(|t| t.epoch)
    }
}

/// Encode one transaction as its record (no header).
fn encode_tx(epoch: u64, ops: &[WalOp]) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    let mut w = ChunkedWriter::new(&mut payload);
    w.u64(epoch)?;
    w.varint(ops.len() as u64)?;
    for op in ops {
        w.varint(op.src.into())?;
        w.varint(op.dst.into())?;
        w.varint(u64::from(op.label) * 2 + u64::from(op.del))?;
    }
    w.finish()?;
    let mut record = SnapshotWriter::appending(Vec::new());
    record.write_section(TAG_TX, &payload)?;
    record.finish()
}

/// Decode one record. The op count is held to the bytes left before
/// anything is allocated for it.
fn decode_tx<R: Read>(tag: [u8; 4], body: &mut SectionBody<'_, R>) -> io::Result<WalTx> {
    if tag != TAG_TX {
        let tag = String::from_utf8_lossy(&tag);
        return Err(bad(format!("unknown record tag `{tag}`")));
    }
    let mut r = ChunkedReader::new(body);
    let epoch = r.u64("epoch")?;
    let count = r.varint::<u64>("op count")?;
    if count > r.remaining() / MIN_OP_LEN {
        return Err(bad(format!(
            "op count {count} does not fit the {} bytes left",
            r.remaining()
        )));
    }
    let ops = (0..count)
        .map(|_| {
            let src = r.varint("op src")?;
            let dst = r.varint("op dst")?;
            let code = r.varint::<u32>("op label")?;
            let label = LabelId::try_from(code / 2)
                .map_err(|_| bad(format!("op label {} is past u16", code / 2)))?;
            let del = code % 2 == 1;
            Ok(WalOp {
                src,
                dst,
                label,
                del,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    if r.remaining() != 0 {
        return Err(bad(format!("record has {} trailing bytes", r.remaining())));
    }
    Ok(WalTx { epoch, ops })
}

/// Scan a `.cegwal` image, recovering the valid committed-transaction
/// prefix. Damage mid-log is a *diagnosis*, not an error — that is the
/// normal post-crash state. The only `Err` is a file that is not a WAL
/// this build reads: a header with the wrong magic or another version
/// (a strict prefix of the header is a crash during creation and scans
/// to an empty log with `valid_len == 0`).
pub fn scan_bytes(bytes: &[u8]) -> io::Result<WalScan> {
    let len = bytes.len() as u64;
    let mut scan = WalScan::default();
    if len < WAL_HEADER_LEN && WAL_HEADER.bytes().starts_with(bytes) {
        scan.diagnosis = Some("torn header (crash during log creation)".into());
        return Ok(scan);
    }
    let mut r = SnapshotReader::with_header(bytes, len, &WAL_HEADER)?;
    loop {
        scan.valid_len = len - r.left();
        let off = scan.valid_len;
        match r.next_section(decode_tx) {
            Ok(None) => return Ok(scan),
            Ok(Some(tx)) => match scan.last_epoch() {
                Some(last) if tx.epoch <= last => {
                    let epoch = tx.epoch;
                    let why = format!("epoch regression at byte {off}: {epoch} after {last}");
                    scan.diagnosis = Some(why);
                    return Ok(scan);
                }
                _ => scan.txs.push(tx),
            },
            Err(e) => {
                scan.diagnosis = Some(format!("record at byte {off}: {e}"));
                return Ok(scan);
            }
        }
    }
}

/// Append handle to a dataset's `.cegwal`, always opened through
/// [`WalWriter::open`] so a torn tail is physically truncated before
/// any new record can land after it.
pub struct WalWriter {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    len: u64,
}

impl WalWriter {
    /// Open (creating if missing) the log at `path` for appending.
    /// Existing bytes are scanned first; everything past the valid
    /// committed prefix — a torn tail — is truncated away, so the
    /// returned [`WalScan`] is exactly what a replay must apply and the
    /// on-disk file ends where new appends begin. A log this build does
    /// not read is an error, and its bytes are left as they are.
    pub fn open(storage: &dyn Storage, path: &Path) -> io::Result<(WalWriter, WalScan)> {
        let scan = if storage.exists(path) {
            let bytes = storage.read(path)?;
            let scan = scan_bytes(&bytes)?;
            if scan.valid_len < bytes.len() as u64 && scan.valid_len > 0 {
                storage.truncate(path, scan.valid_len)?;
            }
            scan
        } else {
            WalScan::default()
        };
        let (file, len) = if scan.valid_len == 0 {
            // Missing, or so torn even the header is incomplete: start
            // a fresh log (there is nothing to preserve — no complete
            // record ever hit the disk).
            let mut file = storage.create(path)?;
            file.write_all(&WAL_HEADER.bytes())?;
            file.sync()?;
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                storage.sync_dir(dir)?;
            }
            (file, WAL_HEADER_LEN)
        } else {
            (storage.append(path)?, scan.valid_len)
        };
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                len,
            },
            scan,
        ))
    }

    /// Append one transaction and sync it to disk: one write, one
    /// `fdatasync`. Returns the bytes appended. After an `Ok` the
    /// commit is durable and may be acked; after an `Err` the caller
    /// must treat the commit as failed (the file may hold a torn tail,
    /// which the next [`WalWriter::open`] truncates).
    pub fn append_tx(&mut self, epoch: u64, ops: &[WalOp]) -> io::Result<u64> {
        let bytes = encode_tx(epoch, ops)?;
        self.file.write_all(&bytes)?;
        self.file.sync()?;
        self.len += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Current log length in bytes (header included) — the service folds
    /// the log once its bytes past the header reach its snapshot's size.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no transactions (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// Reset the log to an empty header after its transactions were
    /// folded into a snapshot. The truncate happens through `storage`
    /// and the handle is re-opened, so a crash at any point leaves
    /// either the old log (replay skips its pre-snapshot epochs) or the
    /// fresh empty one.
    pub fn reset(&mut self, storage: &dyn Storage) -> io::Result<()> {
        storage.truncate(&self.path, WAL_HEADER_LEN)?;
        self.file = storage.append(&self.path)?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }

    /// Cut a torn tail left by a failed [`WalWriter::append_tx`]: the
    /// file is truncated back to the last durable record boundary and
    /// the append handle re-opened. Until this succeeds the writer must
    /// not append again — a new record landing after torn bytes would be
    /// unreachable to the recovery scan, silently losing an acked
    /// commit.
    pub fn repair(&mut self, storage: &dyn Storage) -> io::Result<()> {
        storage.truncate(&self.path, self.len)?;
        self.file = storage.append(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultStorage;

    fn ops(n: u64) -> Vec<WalOp> {
        (0..n)
            .map(|i| WalOp {
                src: i as u32,
                dst: (i + 1) as u32,
                label: (i % 3) as u16,
                del: i % 2 == 1,
            })
            .collect()
    }

    fn header() -> Vec<u8> {
        WAL_HEADER.bytes().to_vec()
    }

    fn tx(epoch: u64, n: u64) -> Vec<u8> {
        encode_tx(epoch, &ops(n)).unwrap()
    }

    fn full_log(txs: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = header();
        for &(epoch, n) in txs {
            bytes.extend(tx(epoch, n));
        }
        bytes
    }

    /// One record of `tag` around `payload`, under a valid checksum: what
    /// the scan sees is what the decoder makes of the payload.
    fn record(tag: [u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut w = SnapshotWriter::appending(Vec::new());
        w.write_section(tag, payload).unwrap();
        w.finish().unwrap()
    }

    /// A `TXN ` payload: the epoch, then `varints` as they are.
    fn payload(epoch: u64, varints: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::new(&mut out);
        w.u64(epoch).unwrap();
        varints.iter().for_each(|&v| w.varint(v).unwrap());
        w.finish().unwrap();
        out
    }

    /// Scan one good transaction followed by `tail`: the scan keeps the
    /// transaction, stops at the byte `tail` starts at and names it.
    fn assert_stops_at_tail(tail: &[u8], because: &str) -> String {
        let mut bytes = full_log(&[(1, 2)]);
        let off = bytes.len() as u64;
        bytes.extend(tail);
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.txs.len(), 1, "{because}");
        assert_eq!(scan.valid_len, off, "{because}");
        let why = scan.diagnosis.expect(because);
        assert!(why.contains(&format!("at byte {off}")), "{because}: {why}");
        why
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let bytes = full_log(&[(1, 3), (2, 0), (5, 7)]);
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.diagnosis, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.last_epoch(), Some(5));
        let mut re = header();
        for tx in &scan.txs {
            re.extend(encode_tx(tx.epoch, &tx.ops).unwrap());
        }
        assert_eq!(re, bytes);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan_bytes(&header()).unwrap();
        assert!(scan.txs.is_empty());
        assert_eq!(scan.valid_len, WAL_HEADER_LEN);
        assert_eq!(scan.diagnosis, None);
    }

    #[test]
    fn every_truncation_recovers_a_tx_prefix() {
        let txs = [(1u64, 2u64), (2, 1), (3, 4)];
        let bytes = full_log(&txs);
        let clean = scan_bytes(&bytes).unwrap();
        // Boundaries where a cut is *not* damage: exactly at the end of
        // a record (or the bare header).
        for cut in 0..bytes.len() {
            let scan = scan_bytes(&bytes[..cut]).unwrap();
            assert!(
                scan.txs.len() <= clean.txs.len(),
                "cut={cut} grew transactions"
            );
            assert_eq!(
                scan.txs,
                clean.txs[..scan.txs.len()],
                "cut={cut} is not a prefix"
            );
            assert!(scan.valid_len <= cut as u64, "cut={cut}");
            // Sub-header cuts scan to valid_len 0 but still carry the
            // torn-header diagnosis.
            let at_boundary = scan.valid_len == cut as u64 && cut >= WAL_HEADER_LEN as usize;
            assert_eq!(
                scan.diagnosis.is_none(),
                at_boundary,
                "cut={cut}: diagnosis iff mid-record"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_recovers_a_tx_prefix() {
        let bytes = full_log(&[(1, 2), (2, 1), (7, 3)]);
        let clean = scan_bytes(&bytes).unwrap();
        for idx in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[idx] ^= 0x01;
            let Ok(scan) = scan_bytes(&flipped) else {
                assert!(
                    idx < WAL_HEADER_LEN as usize,
                    "flip at {idx} rejected header-style"
                );
                continue;
            };
            assert_eq!(
                scan.txs,
                clean.txs[..scan.txs.len()],
                "flip at {idx} is not a prefix"
            );
        }
    }

    #[test]
    fn hostile_length_cannot_allocate_or_panic() {
        let mut bytes = header();
        bytes.extend(TAG_TX);
        bytes.extend(u64::MAX.to_le_bytes());
        bytes.extend([0xAA; 16]);
        let scan = scan_bytes(&bytes).unwrap();
        assert!(scan.txs.is_empty());
        assert!(scan.diagnosis.unwrap().contains("claims"));
    }

    #[test]
    fn epoch_regression_and_order_violations_stop_the_scan() {
        // An epoch going backwards, and one repeated.
        for next in [4, 5] {
            let mut bytes = full_log(&[(5, 1)]);
            bytes.extend(tx(next, 1));
            let scan = scan_bytes(&bytes).unwrap();
            assert_eq!(scan.txs.len(), 1);
            let why = scan.diagnosis.unwrap();
            assert!(why.contains("epoch regression"), "{why}");
            assert_eq!(scan.valid_len, (bytes.len() - tx(next, 1).len()) as u64);
        }
    }

    #[test]
    fn unknown_or_flipped_tags_stop_the_scan_at_their_record() {
        let why = assert_stops_at_tail(&record(*b"XTRA", b"future payload"), "unknown tag");
        assert!(why.contains("unknown record tag `XTRA`"), "{why}");
        // A good record whose tag lost a bit, followed by another good
        // record: the scan stops at the flipped one, not after it.
        for bit in 0..32 {
            let mut tail = tx(2, 3);
            tail[bit / 8] ^= 1 << (bit % 8);
            tail.extend(tx(3, 1));
            assert_stops_at_tail(&tail, &format!("tag bit {bit}"));
        }
    }

    #[test]
    fn hostile_op_counts_are_a_diagnosis() {
        for count in [1 << 32, u64::MAX, 3] {
            // Two ops' worth of bytes behind a count that claims more.
            let tail = record(TAG_TX, &payload(2, &[count, 1, 2, 0, 3, 4, 0]));
            let why = assert_stops_at_tail(&tail, "hostile op count");
            assert!(why.contains(&format!("op count {count}")), "{why}");
        }
    }

    #[test]
    fn labels_past_u16_and_trailing_bytes_are_rejected() {
        let past = (u64::from(u16::MAX) + 1) * 2;
        let tail = record(TAG_TX, &payload(2, &[1, 0, 1, past]));
        let why = assert_stops_at_tail(&tail, "label past u16");
        assert!(why.contains("op label 65536 is past u16"), "{why}");
        // The largest label still decodes.
        let mut bytes = full_log(&[(1, 2)]);
        bytes.extend(record(TAG_TX, &payload(2, &[1, 0, 1, past - 1])));
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.diagnosis, None);
        let op = scan.txs[1].ops[0];
        assert_eq!((op.label, op.del), (u16::MAX, true));

        let tail = record(TAG_TX, &payload(2, &[1, 0, 1, 0, 0]));
        let why = assert_stops_at_tail(&tail, "trailing bytes");
        assert!(why.contains("1 trailing bytes"), "{why}");
    }

    #[test]
    fn non_wal_files_are_errors_not_empty_scans() {
        assert!(scan_bytes(b"CEGSNAP\0junkjunk").is_err());
        let mut wrong_version = header();
        wrong_version[8] = 9;
        assert!(scan_bytes(&wrong_version).is_err());
        // A strict prefix of the correct header is a torn creation.
        let scan = scan_bytes(&header()[..5]).unwrap();
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn version_1_log_is_refused_and_left_as_it_is() {
        let mut v1 = b"CEGWAL\0\0".to_vec();
        v1.extend(1u32.to_le_bytes());
        v1.extend(b"BEGN");
        let want = "WAL format version 1 is not supported (this build reads 2)";
        assert_eq!(scan_bytes(&v1).unwrap_err().to_string(), want);
        let fs = FaultStorage::new();
        let path = Path::new("/wal/ds.cegwal");
        fs.install(path, v1.clone());
        let err = WalWriter::open(&fs, path).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), want);
        assert_eq!(fs.dump(path).unwrap(), v1);
    }

    #[test]
    fn writer_creates_appends_and_truncates_torn_tails() {
        let fs = FaultStorage::new();
        let path = Path::new("/wal/ds.cegwal");
        let (mut w, scan) = WalWriter::open(&fs, path).unwrap();
        assert!(scan.txs.is_empty() && w.is_empty());
        w.append_tx(1, &ops(2)).unwrap();
        w.append_tx(2, &ops(1)).unwrap();
        assert_eq!(w.len(), fs.len(path).unwrap());
        drop(w);

        // Tear the tail: append half a transaction's bytes by hand.
        let tail = tx(3, 2);
        let mut bytes = fs.dump(path).unwrap();
        bytes.extend(&tail[..tail.len() / 2]);
        fs.install(path, bytes);

        let (w, scan) = WalWriter::open(&fs, path).unwrap();
        assert_eq!(scan.txs.len(), 2);
        assert!(scan.diagnosis.is_some());
        assert_eq!(
            fs.len(path).unwrap(),
            scan.valid_len,
            "torn tail must be physically gone"
        );
        assert_eq!(w.len(), scan.valid_len);
        drop(w);

        // Re-open after clean truncation: no diagnosis.
        let (_, scan) = WalWriter::open(&fs, path).unwrap();
        assert_eq!(scan.diagnosis, None);
        assert_eq!(scan.txs.len(), 2);
    }

    #[test]
    fn writer_reset_leaves_an_empty_valid_log() {
        let fs = FaultStorage::new();
        let path = Path::new("/wal/ds.cegwal");
        let (mut w, _) = WalWriter::open(&fs, path).unwrap();
        w.append_tx(1, &ops(3)).unwrap();
        assert!(!w.is_empty());
        w.reset(&fs).unwrap();
        assert!(w.is_empty());
        w.append_tx(2, &ops(1)).unwrap();
        drop(w);
        let (_, scan) = WalWriter::open(&fs, path).unwrap();
        assert_eq!(scan.txs.len(), 1);
        assert_eq!(scan.last_epoch(), Some(2));
    }

    #[test]
    fn writer_restarts_a_log_with_a_torn_header() {
        let fs = FaultStorage::new();
        let path = Path::new("/wal/ds.cegwal");
        fs.install(path, header()[..7].to_vec());
        let (mut w, scan) = WalWriter::open(&fs, path).unwrap();
        assert!(scan.txs.is_empty());
        w.append_tx(1, &ops(1)).unwrap();
        drop(w);
        let (_, scan) = WalWriter::open(&fs, path).unwrap();
        assert_eq!(scan.txs.len(), 1);
        assert_eq!(scan.diagnosis, None);
    }

    #[test]
    fn failed_append_surfaces_and_recovery_drops_the_torn_tx() {
        use crate::vfs::FaultPlan;
        let fs = FaultStorage::new();
        let path = Path::new("/wal/ds.cegwal");
        let (mut w, _) = WalWriter::open(&fs, path).unwrap();
        w.append_tx(1, &ops(2)).unwrap();
        // Crash on the next write: half the tx bytes land, no sync.
        let crash_at = fs.op_count();
        fs.set_plan(FaultPlan {
            crash_after: Some(crash_at),
            ..Default::default()
        });
        assert!(w.append_tx(2, &ops(2)).is_err());
        drop(w);
        fs.reboot(usize::MAX); // even if every torn byte survives...
        let (_, scan) = WalWriter::open(&fs, path).unwrap();
        assert_eq!(scan.txs.len(), 1, "...the unacked tx must not replay");
        assert_eq!(scan.last_epoch(), Some(1));
    }
}
