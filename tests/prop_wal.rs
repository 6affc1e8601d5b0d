//! Property tests of the `.cegwal` write-ahead log codec, mirroring
//! `tests/prop_snapshot.rs` for the WAL:
//!
//! 1. **Round-trip** — appending random transactions and scanning the
//!    bytes back recovers exactly the transactions that were appended,
//!    in order, with `valid_len` equal to the file length and no
//!    diagnosis.
//! 2. **Truncation** — *every* strict prefix of a valid log scans to a
//!    valid whole-transaction prefix of the original sequence, never an
//!    error, never a partial transaction.
//! 3. **Bit rot** — flipping any single bit of a record yields a
//!    whole-transaction prefix that stops before the flipped record; a
//!    flipped header is refused outright as "not a WAL" / unsupported
//!    version, never misread.

use cegraph::graph::vfs::{FaultStorage, Storage};
use cegraph::graph::wal::{scan_bytes, WalOp, WalTx, WalWriter, WAL_HEADER_LEN};
use proptest::prelude::*;
use std::path::Path;

const WAL: &str = "/w/log.cegwal";

fn arb_op() -> impl Strategy<Value = WalOp> {
    (0u32..64, 0u32..64, 0u16..8, (0u8..2).prop_map(|b| b == 1)).prop_map(
        |(src, dst, label, del)| WalOp {
            src,
            dst,
            label,
            del,
        },
    )
}

/// Random transactions with strictly increasing epochs (the invariant
/// the commit path maintains; the scanner enforces it).
fn arb_txs() -> impl Strategy<Value = Vec<WalTx>> {
    (
        prop::collection::vec(prop::collection::vec(arb_op(), 0..6), 1..8),
        1u64..20,
        prop::collection::vec(1u64..4, 8),
    )
        .prop_map(|(ops_per_tx, first_epoch, gaps)| {
            let mut epoch = first_epoch;
            ops_per_tx
                .into_iter()
                .zip(gaps.into_iter().chain(std::iter::repeat(1)))
                .map(|(ops, gap)| {
                    let tx = WalTx { epoch, ops };
                    epoch += gap;
                    tx
                })
                .collect()
        })
}

/// Write the transactions through the real writer and return the bytes
/// that would be on disk.
fn log_bytes(txs: &[WalTx]) -> Vec<u8> {
    let fs = FaultStorage::new();
    let path = Path::new(WAL);
    let (mut w, scan) = WalWriter::open(&fs, path).unwrap();
    assert!(scan.txs.is_empty());
    for tx in txs {
        w.append_tx(tx.epoch, &tx.ops).unwrap();
    }
    drop(w);
    fs.read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_recovers_exactly_what_was_appended(txs in arb_txs()) {
        let bytes = log_bytes(&txs);
        let scan = scan_bytes(&bytes).unwrap();
        prop_assert_eq!(&scan.txs, &txs);
        prop_assert_eq!(scan.valid_len, bytes.len() as u64);
        prop_assert!(scan.diagnosis.is_none(), "{:?}", scan.diagnosis);

        // And re-opening the same bytes through the writer appends
        // byte-identically: a second writer continues the log, it does
        // not rewrite it.
        let fs = FaultStorage::new();
        fs.install(Path::new(WAL), bytes.clone());
        let (w, scan2) = WalWriter::open(&fs, Path::new(WAL)).unwrap();
        prop_assert_eq!(scan2.txs, txs);
        prop_assert_eq!(w.len(), bytes.len() as u64);
        prop_assert_eq!(fs.read(Path::new(WAL)).unwrap(), bytes);
    }

    #[test]
    fn every_truncation_scans_to_a_whole_transaction_prefix(
        txs in arb_txs(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = log_bytes(&txs);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut = cut.min(bytes.len() - 1); // strict prefix
        let truncated = &bytes[..cut];
        if cut < WAL_HEADER_LEN as usize {
            // A torn header scans as an empty log flagged for
            // re-creation, or (length 0 .. header) is still "torn".
            let scan = scan_bytes(truncated).unwrap();
            prop_assert_eq!(scan.valid_len, 0);
            prop_assert!(scan.txs.is_empty());
            prop_assert!(scan.diagnosis.is_some());
        } else {
            let scan = scan_bytes(truncated).unwrap();
            // Whole-transaction prefix of the original, nothing else.
            prop_assert!(scan.txs.len() <= txs.len());
            prop_assert_eq!(&scan.txs[..], &txs[..scan.txs.len()]);
            prop_assert!(scan.valid_len <= cut as u64);
            // Anything cut mid-record must be diagnosed.
            if (scan.valid_len as usize) < cut {
                prop_assert!(scan.diagnosis.is_some());
            }
            // Recovery truncates to valid_len; that image is clean.
            let clean = scan_bytes(&truncated[..scan.valid_len as usize]).unwrap();
            prop_assert_eq!(clean.txs, scan.txs);
            prop_assert!(clean.diagnosis.is_none());
        }
    }

    #[test]
    fn every_bit_flip_yields_a_valid_prefix_or_a_refusal(
        txs in arb_txs(),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = log_bytes(&txs);
        let idx = (((bytes.len() - 1) as f64) * flip_frac) as usize;
        let mut rotted = bytes.clone();
        rotted[idx] ^= 1 << bit;
        if idx < WAL_HEADER_LEN as usize {
            // Magic or version damage: refused as not-a-WAL, never
            // misinterpreted (a flip always changes the version, so it
            // is never 2 again).
            prop_assert!(scan_bytes(&rotted).is_err());
        } else {
            // Record damage: the checksum, or for a flipped tag the one
            // tag the log knows, stops the scan at the flipped record,
            // so the result is a whole-transaction prefix of the
            // original.
            let scan = scan_bytes(&rotted).unwrap();
            prop_assert!(scan.txs.len() <= txs.len());
            prop_assert_eq!(&scan.txs[..], &txs[..scan.txs.len()]);
            if scan.txs.len() < txs.len() {
                prop_assert!(scan.diagnosis.is_some(), "shortened scan must say why");
            }
        }
    }
}
