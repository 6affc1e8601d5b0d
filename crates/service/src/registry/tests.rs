//! The registry's unit tests (`registry::tests`), compiled only under
//! `cfg(test)`.

use super::*;
use ceg_graph::GraphBuilder;
use ceg_query::templates;

fn toy_graph() -> LabeledGraph {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(3, 4, 0);
    b.build()
}

#[test]
fn ensure_patterns_fills_catalog_once() {
    let registry = DatasetRegistry::new();
    let entry = registry.insert_graph("toy", toy_graph(), 2);
    let q = templates::path(2, &[0, 1]);
    assert_eq!(entry.catalog_len(), 0);
    let added = entry.ensure_patterns(std::slice::from_ref(&q));
    assert!(added > 0);
    let len = entry.catalog_len();
    // Same queries again: nothing to add.
    assert_eq!(entry.ensure_patterns(std::slice::from_ref(&q)), 0);
    assert_eq!(entry.catalog_len(), len);
    // The filled catalog answers the full query pattern.
    let card = entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask()));
    assert_eq!(card, Some(2)); // 0->1->{2,3}
}

#[test]
fn batch_ensure_deduplicates_across_queries() {
    let registry = DatasetRegistry::new();
    let entry = registry.insert_graph("toy", toy_graph(), 2);
    // Two isomorphic queries share all patterns: batch counts them once.
    let q1 = templates::path(2, &[0, 1]);
    let q2 = templates::path(2, &[0, 1]);
    let added = entry.ensure_patterns(&[q1, q2]);
    assert_eq!(added, entry.catalog_len());
}

/// Assert two entries hold identical catalogs without ever holding
/// both state locks at once (same rank: the checker forbids it).
fn assert_catalogs_equal(a: &DatasetEntry, b: &DatasetEntry) {
    let entries: Vec<(Pattern, u64)> =
        a.with_markov(|t| t.iter().map(|(p, c)| (p.clone(), c)).collect());
    b.with_markov(|t| {
        assert_eq!(t.len(), entries.len());
        for (p, c) in &entries {
            assert_eq!(t.card(p), Some(*c), "pattern {p}");
        }
    });
}

#[test]
fn the_first_insert_wins() {
    let registry = DatasetRegistry::new();
    assert!(registry.get("a").is_none());
    let first = registry.insert_graph("a", toy_graph(), 2);
    let second = registry.insert_graph("b", toy_graph(), 3);
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!((second.name(), second.h()), ("a", 2));
    assert!(registry.get("a").is_some());
    assert!(registry.get("b").is_none());
}

#[test]
fn updates_are_invisible_until_commit() {
    let registry = DatasetRegistry::new();
    let entry = registry.insert_graph("toy", toy_graph(), 2);
    let q = templates::path(2, &[0, 1]);
    entry.ensure_patterns(std::slice::from_ref(&q));
    let before = entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask()));
    assert_eq!(before, Some(2));

    // A structural change that feeds the path: 4 -1-> 0 extends 3->4.
    let (epoch, pending) = entry.add_edge(4, 0, 1).unwrap();
    assert_eq!(epoch, 0);
    assert_eq!(pending, 1);
    // Nothing changed yet.
    assert_eq!(
        entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
        Some(2)
    );
    assert_eq!(entry.epoch(), 0);

    let outcome = entry.try_commit().unwrap();
    assert_eq!(outcome.epoch, 1);
    assert_eq!(outcome.added, 1);
    assert_eq!(outcome.deleted, 0);
    assert!(outcome.recounted > 0);
    assert_eq!(entry.epoch(), 1);
    assert_eq!(entry.pending_len(), 0);
    assert_eq!(
        entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
        Some(3)
    );
}

#[test]
fn pending_buffer_is_capped() {
    let mut entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
    entry.pending_cap = 2;
    entry.add_edge(0, 2, 0).unwrap();
    entry.add_edge(0, 3, 0).unwrap();
    let err = entry.add_edge(0, 4, 0).unwrap_err();
    assert!(err.contains("pending update buffer full"), "{err}");
    // Replacing an already-buffered op does not grow the buffer, so
    // it is allowed even at the cap.
    entry.del_edge(0, 2, 0).unwrap();
    assert_eq!(entry.pending_len(), 2);
    // COMMIT drains the buffer and new updates flow again.
    entry.try_commit().unwrap();
    entry.add_edge(0, 4, 0).unwrap();
}

#[test]
fn updates_are_bounds_checked_against_domain_plus_growth() {
    let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
    // Growth within the allowance is fine even beyond the domain (5).
    entry
        .add_edge(MAX_UPDATE_VERTEX, 0, MAX_UPDATE_LABEL)
        .unwrap();
    // Beyond the allowance (and the 5-vertex domain): refused.
    let err = entry.add_edge(MAX_UPDATE_VERTEX + 1, 0, 0).unwrap_err();
    assert!(err.contains("vertex id out of range"), "{err}");
    let err = entry.del_edge(0, 1, MAX_UPDATE_LABEL + 1).unwrap_err();
    assert!(err.contains("label out of range"), "{err}");
    // The bound is max(domain, allowance): after the commit grows the
    // committed domain, ids inside it stay updatable — a dataset
    // larger than the allowance is never locked out of its own
    // vertices.
    entry.try_commit().unwrap();
    assert!(entry.add_edge(MAX_UPDATE_VERTEX, 1, 0).is_ok());
}

#[test]
fn noop_commit_keeps_epoch() {
    let registry = DatasetRegistry::new();
    let entry = registry.insert_graph("toy", toy_graph(), 2);
    assert_eq!(entry.try_commit().unwrap().epoch, 0); // empty pending buffer
    entry.add_edge(0, 1, 0).unwrap(); // already present
    entry.del_edge(2, 0, 1).unwrap(); // absent
    let outcome = entry.try_commit().unwrap();
    assert_eq!(outcome.epoch, 0);
    assert_eq!((outcome.added, outcome.deleted), (0, 0));
    assert_eq!(entry.epoch(), 0);
    // Mixed with effective ops, the no-ops are stripped and only the
    // rest is counted.
    entry.add_edge(0, 1, 0).unwrap(); // already present
    entry.add_edge(4, 0, 0).unwrap(); // genuinely new
    entry.del_edge(1, 2, 1).unwrap(); // genuinely deleted
    entry.del_edge(2, 0, 1).unwrap(); // absent
    let outcome = entry.try_commit().unwrap();
    assert_eq!(outcome.epoch, 1);
    assert_eq!((outcome.added, outcome.deleted), (1, 1));
}

#[test]
fn add_then_del_in_one_batch_collapses() {
    let registry = DatasetRegistry::new();
    let entry = registry.insert_graph("toy", toy_graph(), 2);
    entry.add_edge(2, 4, 0).unwrap();
    entry.del_edge(2, 4, 0).unwrap();
    let outcome = entry.try_commit().unwrap();
    assert_eq!(outcome.epoch, 0, "last-writer-wins: net no-op");
    entry.del_edge(0, 1, 0).unwrap();
    entry.add_edge(0, 1, 0).unwrap();
    assert_eq!(entry.try_commit().unwrap().epoch, 0);
}

#[test]
fn snapshot_roundtrips_through_the_registry() {
    let path =
        std::env::temp_dir().join(format!("ceg-registry-snap-{}.cegsnap", std::process::id()));
    let registry = DatasetRegistry::new();
    let entry = registry.insert(DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2)));
    let q = templates::path(2, &[0, 1]);
    entry.ensure_patterns(std::slice::from_ref(&q));
    entry.add_edge(4, 0, 1).unwrap();
    entry.try_commit().unwrap();
    assert_eq!(entry.epoch(), 1);
    // Pending ops must NOT be captured.
    entry.add_edge(2, 2, 0).unwrap();

    let (epoch, bytes) = entry.write_snapshot(&path).unwrap();
    assert_eq!(epoch, 1);
    assert!(bytes > 0);

    let restored = DatasetRegistry::new()
        .load_snapshot("restored", &path)
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(restored.epoch(), 1);
    assert_eq!(restored.pending_len(), 0);
    assert_eq!(restored.graph_summary(), entry.graph_summary());
    // Catalog equal to the live one (locks taken one at a time:
    // same-rank nesting trips the lock-rank checker).
    let live = entry.with_markov(MarkovTable::clone);
    assert_eq!(restored.with_markov(MarkovTable::clone), live);
    // The epoch sequence continues, it does not restart.
    restored.add_edge(2, 2, 0).unwrap();
    assert_eq!(restored.try_commit().unwrap().epoch, 2);
}

#[test]
fn wire_ids_address_edges_and_snapshot_bytes_round_trip() {
    let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));

    // An update addresses exactly the edge whose ids the client sent.
    entry.del_edge(1, 2, 1).unwrap();
    entry.add_edge(4, 0, 1).unwrap();
    entry.try_commit().unwrap();
    let after = entry.materialized_graph();
    assert!(!after.has_edge(1, 2, 1));
    assert!(after.has_edge(4, 0, 1));
    assert!(after.has_edge(1, 3, 1), "untouched edges survive");

    // Snapshot round-trip: bytes written by the live entry restore
    // into an entry that writes the identical bytes, and estimates
    // agree between the live and the cold server.
    let q = templates::path(2, &[0, 1]);
    entry.ensure_patterns(std::slice::from_ref(&q));
    let dir = std::env::temp_dir();
    let p1 = dir.join(format!("ceg-renum-1-{}.cegsnap", std::process::id()));
    let p2 = dir.join(format!("ceg-renum-2-{}.cegsnap", std::process::id()));
    entry.write_snapshot(&p1).unwrap();
    let registry = DatasetRegistry::new();
    let cold = registry.load_snapshot("cold", &p1).unwrap();
    cold.write_snapshot(&p2).unwrap();
    let b1 = std::fs::read(&p1).unwrap();
    let b2 = std::fs::read(&p2).unwrap();
    std::fs::remove_file(&p1).unwrap();
    std::fs::remove_file(&p2).unwrap();
    assert_eq!(b1, b2, "snapshot bytes must round-trip identically");
    assert_eq!(
        entry.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
        cold.with_markov(|t| t.card_of_subquery(&q, q.full_mask())),
        "live and cold estimates agree"
    );
}

#[test]
fn snapshot_restore_of_corrupt_file_is_an_error() {
    let path =
        std::env::temp_dir().join(format!("ceg-registry-junk-{}.cegsnap", std::process::id()));
    std::fs::write(&path, b"garbage").unwrap();
    let registry = DatasetRegistry::new();
    assert!(registry.load_snapshot("x", &path).is_err());
    std::fs::remove_file(&path).unwrap();
    assert!(registry.get("x").is_none());
}

#[test]
fn commit_shares_untouched_relations_with_the_predecessor() {
    // What keeps a commit's cost and peak memory proportional to the
    // relations it touches: the successor's CSR for every other label
    // is the predecessor's allocation, in both directions.
    let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
    let before = entry.pin();
    entry.add_edge(0, 3, 0).unwrap();
    assert!(entry.try_commit().unwrap().rebased);
    let after = entry.pin();
    assert_eq!(after.epoch(), before.epoch() + 1);
    let (old, new) = (&before.graph, &after.graph);
    assert!(std::ptr::eq(
        old.out_neighbors(1, 1),
        new.out_neighbors(1, 1)
    ));
    assert!(std::ptr::eq(old.in_neighbors(2, 1), new.in_neighbors(2, 1)));
    // Label 0 was rebuilt beside the pinned predecessor's.
    assert_eq!(old.out_neighbors(0, 0).len(), 1);
    assert_eq!(new.out_neighbors(0, 0).len(), 2);
    assert!(!std::ptr::eq(
        old.out_neighbors(3, 0).as_ptr(),
        new.out_neighbors(3, 0).as_ptr()
    ));
}

mod durability {
    use super::*;
    use ceg_graph::vfs::{FaultPlan, FaultStorage};

    fn paths() -> (PathBuf, PathBuf) {
        (
            PathBuf::from("/data/toy.cegsnap"),
            PathBuf::from("/data/toy.cegwal"),
        )
    }

    fn durable_entry(fs: &FaultStorage) -> DatasetEntry {
        let (snap, wal) = paths();
        let entry = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
        entry
            .attach_durability(Arc::new(fs.clone()), snap, wal)
            .unwrap();
        entry
    }

    /// Compare two entries as an estimator would see them: same
    /// epoch, same committed edges, same catalog entries.
    fn assert_same_committed(a: &DatasetEntry, b: &DatasetEntry) {
        assert_eq!(a.epoch(), b.epoch());
        let (ga, gb) = (a.materialized_graph(), b.materialized_graph());
        assert_eq!(ga.num_edges(), gb.num_edges());
        for e in ga.all_edges() {
            assert!(gb.has_edge(e.src, e.dst, e.label), "{e:?}");
        }
        assert_catalogs_equal(a, b);
    }

    #[test]
    fn attach_writes_a_baseline_snapshot_and_an_empty_wal() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        let (snap, wal) = paths();
        assert!(fs.exists(&snap));
        // Empty: recovery finds no transaction and no damage in it.
        let (_, report) =
            DatasetEntry::recover("toy", Arc::new(fs.clone()), &snap, &wal, 1).unwrap();
        assert_eq!((report.replayed_commits, report.torn_tail), (0, None));
        entry.add_edge(0, 4, 1).unwrap();
        assert!(entry.try_commit().unwrap().wal_bytes > 0);
    }

    #[test]
    fn committed_transactions_recover_exactly() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        entry.add_edge(0, 4, 1).unwrap();
        entry.add_edge(2, 3, 0).unwrap();
        let out = entry.try_commit().unwrap();
        assert_eq!(out.epoch, 1);
        assert!(out.wal_bytes > 0);
        entry.del_edge(0, 1, 0).unwrap();
        entry.try_commit().unwrap();

        let (snap, wal) = paths();
        let (recovered, report) =
            DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.replayed_commits, 2);
        assert_eq!(report.replayed_ops, 3);
        assert!(report.torn_tail.is_none());
        assert_same_committed(&entry, &recovered);
    }

    #[test]
    fn noop_commit_appends_nothing() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        let (_, wal) = paths();
        let before = fs.len(&wal).unwrap();
        // Adding an edge the graph already has is effectively empty.
        entry.add_edge(0, 1, 0).unwrap();
        let out = entry.try_commit().unwrap();
        assert_eq!(out.epoch, 0);
        assert_eq!(out.wal_bytes, 0);
        assert_eq!(fs.len(&wal).unwrap(), before);
    }

    #[test]
    fn failed_append_restores_pending_and_applies_nothing() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        fs.set_plan(FaultPlan::default().fail_at(fs.op_count(), io::ErrorKind::Other));
        entry.add_edge(0, 4, 1).unwrap();
        let err = entry.try_commit().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // Nothing applied, nothing acked, op still pending.
        assert_eq!(entry.epoch(), 0);
        assert!(!entry.materialized_graph().has_edge(0, 4, 1));
        assert_eq!(entry.pending_len(), 1);
        // The plan is one-shot: the retry commits the restored op.
        let out = entry.try_commit().unwrap();
        assert_eq!(out.epoch, 1);
        assert!(entry.materialized_graph().has_edge(0, 4, 1));
    }

    #[test]
    fn append_failure_keeps_later_ops_buffered_after_restore() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        fs.set_plan(FaultPlan::default().fail_at(fs.op_count(), io::ErrorKind::WriteZero));
        entry.add_edge(0, 4, 1).unwrap();
        entry.try_commit().unwrap_err();
        // An op buffered after the failure must survive the restore
        // and win over the restored delta where they overlap.
        entry.del_edge(0, 4, 1).unwrap();
        let out = entry.try_commit().unwrap();
        assert_eq!(out.epoch, 0, "add then del of an absent edge is a no-op");
        assert!(!entry.materialized_graph().has_edge(0, 4, 1));
    }

    #[test]
    fn crashed_storage_poisons_the_wal_and_refuses_commits() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        entry.add_edge(0, 4, 1).unwrap();
        entry.try_commit().unwrap();
        // Storage dies: the append fails AND the repair truncate
        // fails, so the writer can no longer trust its tail.
        fs.set_plan(FaultPlan::default().crash_after(0));
        entry.add_edge(2, 3, 0).unwrap();
        entry.try_commit().unwrap_err();
        entry.add_edge(2, 4, 0).unwrap();
        let err = entry.try_commit().unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The acked commit is still durable: reboot and recover.
        fs.reboot(0);
        let (snap, wal) = paths();
        let (recovered, report) =
            DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(recovered.epoch(), 1);
        assert!(recovered.materialized_graph().has_edge(0, 4, 1));
        assert!(!recovered.materialized_graph().has_edge(2, 3, 0));
    }

    /// Buffer and commit one new edge `(i, i + 1)` among the ids the
    /// toy graph lacks, so every commit is effective.
    fn commit_new_edge(entry: &DatasetEntry, i: u32) {
        entry.add_edge(10 + i, 11 + i, 0).unwrap();
        assert!(entry.try_commit().unwrap().wal_bytes > 0);
    }

    #[test]
    fn rotation_folds_the_log_and_recovery_still_matches() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        let (snap, wal) = paths();
        let baseline = fs.len(&snap).unwrap();
        let empty_log = fs.len(&wal).unwrap();
        let mut commits = 0;
        let out = loop {
            assert!(commits < 64, "the log never outgrew its snapshot");
            commit_new_edge(&entry, commits);
            commits += 1;
            if let Some(out) = entry.maybe_rotate().unwrap() {
                break out;
            }
        };
        assert_eq!(out.epoch, u64::from(commits));
        assert!(out.wal_bytes_folded >= baseline);
        assert_eq!(out.snapshot_bytes, fs.len(&snap).unwrap());
        assert_eq!(fs.len(&wal).unwrap(), empty_log);
        // Post-rotation commits land in the fresh log.
        entry.del_edge(0, 1, 0).unwrap();
        entry.try_commit().unwrap();
        let (recovered, report) =
            DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
        assert_eq!(report.snapshot_epoch, u64::from(commits));
        assert_eq!(report.replayed_commits, 1);
        assert_same_committed(&entry, &recovered);
    }

    #[test]
    fn maybe_rotate_folds_once_the_log_reaches_its_snapshot() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        let (snap, wal) = paths();
        let empty_log = fs.len(&wal).unwrap();
        let logged = || fs.len(&wal).unwrap() - empty_log;
        assert!(entry.maybe_rotate().unwrap().is_none(), "empty log");
        commit_new_edge(&entry, 0);
        assert!(logged() < fs.len(&snap).unwrap());
        assert!(entry.maybe_rotate().unwrap().is_none(), "shorter log");
        let mut i = 1;
        while logged() < fs.len(&snap).unwrap() {
            commit_new_edge(&entry, i);
            i += 1;
        }
        let before = logged();
        let out = entry.maybe_rotate().unwrap().expect("log as long");
        assert_eq!(out.wal_bytes_folded, before);
        assert_eq!(logged(), 0);
        // The next fold waits for the log to reach the new snapshot.
        commit_new_edge(&entry, i);
        assert!(entry.maybe_rotate().unwrap().is_none(), "fresh log");
    }

    #[test]
    fn attach_refuses_a_wal_ahead_of_the_entry() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        entry.add_edge(0, 4, 1).unwrap();
        entry.try_commit().unwrap();
        // A fresh entry at epoch 0 must not adopt this epoch-1 log.
        let fresh = DatasetEntry::new("toy", toy_graph(), MarkovTable::empty(2));
        let (snap, wal) = paths();
        let err = fresh
            .attach_durability(Arc::new(fs.clone()), snap, wal)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("recover"), "{err}");
    }

    #[test]
    fn torn_tail_is_reported_and_acked_prefix_recovers() {
        let fs = FaultStorage::new();
        let entry = durable_entry(&fs);
        entry.add_edge(0, 4, 1).unwrap();
        entry.try_commit().unwrap();
        // Crash mid-append of the second commit: half the record's
        // bytes land, unsynced.
        fs.set_plan(FaultPlan::default().crash_after(0));
        entry.add_edge(2, 3, 0).unwrap();
        entry.try_commit().unwrap_err();
        fs.reboot(usize::MAX); // keep every torn byte
        let (snap, wal) = paths();
        let (recovered, report) =
            DatasetEntry::recover("toy", Arc::new(fs.clone()), snap, wal, 1).unwrap();
        assert!(report.torn_tail.is_some());
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(recovered.epoch(), 1);
        assert!(!recovered.materialized_graph().has_edge(2, 3, 0));
        // The torn bytes were truncated: new commits append cleanly.
        recovered.add_edge(2, 3, 0).unwrap();
        assert_eq!(recovered.try_commit().unwrap().epoch, 2);
    }
}
