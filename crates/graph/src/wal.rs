//! The commit write-ahead log: an append-only `.cegwal` record log that
//! makes an acked `COMMITTED` reply survive a crash.
//!
//! The file reuses the `.cegsnap` section idiom (see
//! [`crate::snapshot`]) — a fixed header followed by checksummed,
//! length-prefixed records:
//!
//! ```text
//! magic   8 bytes  b"CEGWAL\0\0"
//! version u32 LE   format version (currently 1)
//! record*:
//!   tag      4 bytes   b"BEGN" | b"EOPS" | b"CMIT" | future tags
//!   len      u64 LE    payload length in bytes
//!   payload  len bytes
//!   checksum u64 LE    length-seeded FxHash64 of tag + payload
//! ```
//!
//! Unlike a snapshot section, the record checksum covers the **tag**
//! too: a snapshot reader cross-checks its required-section set, but
//! the WAL's only integrity story is the per-record checksum, and a
//! bit-flipped tag must stop the scan rather than silently reclassify
//! a record (e.g. turning `EOPS` into an ignorable unknown tag and
//! committing a transaction without its operations).
//!
//! One committed transaction is the record run `BEGN(epoch)`,
//! `EOPS(ops)`, `CMIT(epoch)` — the *effective* edge operations a
//! commit applied, stamped with the epoch that commit produced. The
//! writer appends all three records with one buffered write and one
//! `fdatasync` per commit (fsync batched per `COMMIT`, never per op),
//! and only after the sync returns does the server ack.
//!
//! Reading is **prefix recovery**, not all-or-nothing like a snapshot:
//! a crash legitimately leaves a torn or half-written tail, so
//! [`scan`] walks records until the first sign of damage (truncation,
//! checksum mismatch, a malformed payload, an out-of-order record, an
//! epoch regression) and returns every transaction whose `CMIT` landed
//! before it, plus the byte offset at which the file stops being
//! trustworthy ([`WalScan::valid_len`]) and a human-readable diagnosis.
//! A transaction missing its `CMIT` is *not* returned — its commit was
//! never acked. Unknown record tags with valid checksums are skipped
//! (same forward-compatibility rule as snapshot sections). Damage is
//! never a panic, and a hostile length field can never force an
//! allocation: the scanner only slices bytes that are actually present.
//!
//! [`scan`]: scan_bytes

use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::PayloadReader;
use crate::vfs::{Storage, StorageFile};
use crate::{LabelId, VertexId};

/// File magic: identifies a `.cegwal` log.
pub const WAL_MAGIC: [u8; 8] = *b"CEGWAL\0\0";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Header length: magic + version.
pub const WAL_HEADER_LEN: u64 = 12;

/// Record tag: transaction start, payload = `u64` epoch.
pub const TAG_BEGIN: [u8; 4] = *b"BEGN";

/// Record tag: edge-operation run, payload = `u32` count + ops.
pub const TAG_OPS: [u8; 4] = *b"EOPS";

/// Record tag: transaction commit, payload = `u64` epoch (must equal
/// the opening `BEGN`'s).
pub const TAG_COMMIT: [u8; 4] = *b"CMIT";

/// Encoded size of one edge operation: flags(1) + src(4) + dst(4) +
/// label(2).
const OP_BYTES: usize = 11;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Complete (`CMIT`-terminated) transactions, in log order.
    pub txs: Vec<WalTx>,
    /// Bytes of the file that are trustworthy: the header plus every
    /// record up to and including the last complete transaction.
    /// Re-opening for append truncates the file here. `0` means even
    /// the header is torn (a crash during creation).
    pub valid_len: u64,
    /// Raw records scanned successfully (incl. skipped unknown tags).
    pub records: usize,
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

/// The 12-byte header a fresh log starts with.
pub fn header_bytes() -> [u8; WAL_HEADER_LEN as usize] {
    let [m0, m1, m2, m3, m4, m5, m6, m7] = WAL_MAGIC;
    let [v0, v1, v2, v3] = WAL_VERSION.to_le_bytes();
    [m0, m1, m2, m3, m4, m5, m6, m7, v0, v1, v2, v3]
}

/// Record checksum: the same length-seeded FxHash64 as
/// [`crate::snapshot::section_checksum`], but folding in the tag (see
/// the module docs for why).
pub fn record_checksum(tag: [u8; 4], payload: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u64(payload.len() as u64);
    h.write(&tag);
    h.write(payload);
    h.finish()
}

fn put_record(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&record_checksum(tag, payload).to_le_bytes());
}

/// Encode one transaction as its three records (no header).
pub fn encode_tx(epoch: u64, ops: &[WalOp]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + ops.len() * OP_BYTES);
    body.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        body.push(op.del as u8);
        body.extend_from_slice(&op.src.to_le_bytes());
        body.extend_from_slice(&op.dst.to_le_bytes());
        body.extend_from_slice(&op.label.to_le_bytes());
    }
    let mut out = Vec::with_capacity(3 * 24 + body.len());
    put_record(&mut out, TAG_BEGIN, &epoch.to_le_bytes());
    put_record(&mut out, TAG_OPS, &body);
    put_record(&mut out, TAG_COMMIT, &epoch.to_le_bytes());
    out
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn decode_u64(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.try_into().ok()?))
}

fn decode_ops(payload: &[u8]) -> Option<Vec<WalOp>> {
    let mut r = PayloadReader::new(payload);
    let count = r.u32("op count").ok()? as usize;
    if r.remaining() != count.checked_mul(OP_BYTES)? as u64 {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let flags = r.u8("op flags").ok()?;
        if flags > 1 {
            return None; // flags other than the del bit are not in v1
        }
        ops.push(WalOp {
            del: flags == 1,
            src: r.u32("op src").ok()?,
            dst: r.u32("op dst").ok()?,
            label: r.u16("op label").ok()?,
        });
    }
    Some(ops)
}

/// Scan a `.cegwal` image, recovering the valid committed-transaction
/// prefix. Damage mid-log is a *diagnosis*, not an error — that is the
/// normal post-crash state. The only `Err` is a file that is not a WAL
/// at all: a complete header with the wrong magic or an unsupported
/// version (truncated headers are a crash during creation and scan to
/// an empty log with `valid_len == 0`).
pub fn scan_bytes(bytes: &[u8]) -> io::Result<WalScan> {
    let header = header_bytes();
    if bytes.len() < header.len() {
        if header.starts_with(bytes) {
            return Ok(WalScan {
                txs: Vec::new(),
                valid_len: 0,
                records: 0,
                diagnosis: Some("torn header (crash during log creation)".into()),
            });
        }
        return Err(bad("not a WAL: file shorter than the header"));
    }
    let mut r = PayloadReader::new(bytes);
    if r.array("WAL magic")? != WAL_MAGIC {
        return Err(bad("not a WAL: bad magic"));
    }
    let version = r.u32("WAL version")?;
    if version != WAL_VERSION {
        return Err(bad(format!(
            "WAL format version {version} is not supported (this build reads {WAL_VERSION})"
        )));
    }

    let mut scan = WalScan {
        txs: Vec::new(),
        valid_len: WAL_HEADER_LEN,
        records: 0,
        diagnosis: None,
    };
    // The transaction being assembled: Some((epoch, ops)) between a
    // BEGN and its CMIT.
    let mut open: Option<(u64, Vec<WalOp>)> = None;
    let stop = |scan: &mut WalScan, msg: String| scan.diagnosis = Some(msg);
    loop {
        // The byte the next record starts at.
        let off = bytes.len() as u64 - r.remaining();
        if r.is_exhausted() {
            if open.is_some() {
                stop(
                    &mut scan,
                    "log ends inside a transaction (commit was never acked)".into(),
                );
            }
            return Ok(scan);
        }
        if r.remaining() < 12 {
            stop(&mut scan, format!("torn record header at byte {off}"));
            return Ok(scan);
        }
        let tag = r.array("record tag")?;
        let len = r.u64("record length")?;
        // A hostile or torn length cannot allocate or read past the
        // bytes that exist.
        if len.checked_add(8).is_none_or(|rest| rest > r.remaining()) {
            stop(
                &mut scan,
                format!("record at byte {off} overruns the file (len={len})"),
            );
            return Ok(scan);
        }
        let payload = r.slice(len, "record payload")?;
        if r.u64("record checksum")? != record_checksum(tag, payload) {
            stop(&mut scan, format!("checksum mismatch at byte {off}"));
            return Ok(scan);
        }
        scan.records += 1;
        match tag {
            TAG_BEGIN => {
                if open.is_some() {
                    stop(
                        &mut scan,
                        format!("BEGN inside an open transaction at byte {off}"),
                    );
                    return Ok(scan);
                }
                let Some(epoch) = decode_u64(payload) else {
                    stop(&mut scan, format!("malformed BEGN payload at byte {off}"));
                    return Ok(scan);
                };
                if scan.txs.last().is_some_and(|t| epoch <= t.epoch) {
                    stop(&mut scan, format!("epoch regression at byte {off}"));
                    return Ok(scan);
                }
                open = Some((epoch, Vec::new()));
            }
            TAG_OPS => {
                let Some((_, ops)) = open.as_mut() else {
                    stop(
                        &mut scan,
                        format!("EOPS outside a transaction at byte {off}"),
                    );
                    return Ok(scan);
                };
                let Some(mut decoded) = decode_ops(payload) else {
                    stop(&mut scan, format!("malformed EOPS payload at byte {off}"));
                    return Ok(scan);
                };
                ops.append(&mut decoded);
            }
            TAG_COMMIT => {
                let Some((epoch, ops)) = open.take() else {
                    stop(
                        &mut scan,
                        format!("CMIT outside a transaction at byte {off}"),
                    );
                    return Ok(scan);
                };
                if decode_u64(payload) != Some(epoch) {
                    stop(
                        &mut scan,
                        format!("CMIT epoch does not match its BEGN at byte {off}"),
                    );
                    return Ok(scan);
                }
                scan.txs.push(WalTx { epoch, ops });
                scan.valid_len = bytes.len() as u64 - r.remaining();
            }
            _ => {
                // Unknown tag with a valid checksum: a future record
                // kind. Skip it, but only count it durable once a CMIT
                // follows (valid_len does not advance here).
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
    /// on-disk file ends where new appends begin.
    pub fn open(storage: &dyn Storage, path: &Path) -> io::Result<(WalWriter, WalScan)> {
        let scan = if storage.exists(path) {
            let bytes = storage.read(path)?;
            let scan = scan_bytes(&bytes)?;
            if scan.valid_len < bytes.len() as u64 && scan.valid_len > 0 {
                storage.truncate(path, scan.valid_len)?;
            }
            scan
        } else {
            WalScan {
                txs: Vec::new(),
                valid_len: 0,
                records: 0,
                diagnosis: None,
            }
        };
        let (file, len) = if scan.valid_len == 0 {
            // Missing, or so torn even the header is incomplete: start
            // a fresh log (there is nothing to preserve — no complete
            // record ever hit the disk).
            let mut file = storage.create(path)?;
            file.write_all(&header_bytes())?;
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

    /// Append one transaction and sync it to disk: one buffered write,
    /// one `fdatasync`. Returns the bytes appended. After an `Ok` the
    /// commit is durable and may be acked; after an `Err` the caller
    /// must treat the commit as failed (the file may hold a torn tail,
    /// which the next [`WalWriter::open`] truncates).
    pub fn append_tx(&mut self, epoch: u64, ops: &[WalOp]) -> io::Result<u64> {
        let bytes = encode_tx(epoch, ops);
        self.file.write_all(&bytes)?;
        self.file.sync()?;
        self.len += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Current log length in bytes (header included) — the rotation
    /// trigger compares this against `wal_rotate_bytes`.
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

    fn full_log(txs: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for &(epoch, n) in txs {
            bytes.extend(encode_tx(epoch, &ops(n)));
        }
        bytes
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let bytes = full_log(&[(1, 3), (2, 0), (5, 7)]);
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.diagnosis, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records, 9);
        assert_eq!(scan.last_epoch(), Some(5));
        let mut re = header_bytes().to_vec();
        for tx in &scan.txs {
            re.extend(encode_tx(tx.epoch, &tx.ops));
        }
        assert_eq!(re, bytes);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan_bytes(&header_bytes()).unwrap();
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
        // a committed transaction (or the bare header).
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
                "cut={cut}: diagnosis iff mid-record/mid-tx"
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
    fn missing_commit_record_drops_the_open_transaction() {
        let mut bytes = header_bytes().to_vec();
        bytes.extend(encode_tx(1, &ops(2)));
        let keep = bytes.len();
        bytes.extend(encode_tx(2, &ops(1)));
        // Chop the CMIT record (28 bytes: tag+len+8-byte payload+sum).
        bytes.truncate(bytes.len() - 28);
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.txs.len(), 1);
        assert_eq!(scan.valid_len, keep as u64);
        assert!(scan.diagnosis.unwrap().contains("never acked"));
    }

    #[test]
    fn hostile_length_cannot_allocate_or_panic() {
        let mut bytes = header_bytes().to_vec();
        bytes.extend(TAG_BEGIN);
        bytes.extend(u64::MAX.to_le_bytes());
        bytes.extend([0xAA; 16]);
        let scan = scan_bytes(&bytes).unwrap();
        assert!(scan.txs.is_empty());
        assert!(scan.diagnosis.unwrap().contains("overruns"));
    }

    #[test]
    fn epoch_regression_and_order_violations_stop_the_scan() {
        // CMIT with no BEGN.
        let mut bytes = header_bytes().to_vec();
        put_record(&mut bytes, TAG_COMMIT, &1u64.to_le_bytes());
        assert!(scan_bytes(&bytes)
            .unwrap()
            .diagnosis
            .unwrap()
            .contains("outside a transaction"));
        // Epoch going backwards between transactions.
        let mut bytes = full_log(&[(5, 1)]);
        bytes.extend(encode_tx(5, &ops(1)));
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.txs.len(), 1);
        assert!(scan.diagnosis.unwrap().contains("epoch regression"));
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let mut bytes = header_bytes().to_vec();
        bytes.extend(encode_tx(1, &ops(1)));
        put_record(&mut bytes, *b"XTRA", b"future payload");
        bytes.extend(encode_tx(2, &ops(2)));
        let scan = scan_bytes(&bytes).unwrap();
        assert_eq!(scan.txs.len(), 2);
        assert_eq!(scan.diagnosis, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
    }

    #[test]
    fn non_wal_files_are_errors_not_empty_scans() {
        assert!(scan_bytes(b"CEGSNAP\0junkjunk").is_err());
        let mut wrong_version = header_bytes().to_vec();
        wrong_version[8] = 9;
        assert!(scan_bytes(&wrong_version).is_err());
        // A strict prefix of the correct header is a torn creation.
        let scan = scan_bytes(&header_bytes()[..5]).unwrap();
        assert_eq!(scan.valid_len, 0);
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
        let tail = encode_tx(3, &ops(2));
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
        fs.install(path, header_bytes()[..7].to_vec());
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
