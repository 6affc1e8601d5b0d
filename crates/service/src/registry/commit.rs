//! A commit, written as its stages. Every log decision — append,
//! repair, poison — is [`Durability`]'s.

use std::io;
use std::sync::Arc;

use ceg_graph::sync::OrderedMutexGuard;
use ceg_graph::GraphDelta;

use super::durability::Durability;
use super::{DatasetEntry, EpochState};

/// What one [`DatasetEntry::try_commit`] did, echoed over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Epoch after the commit (unchanged if the commit was a no-op).
    pub epoch: u64,
    /// Edges actually inserted (pending adds the graph lacked).
    pub added: usize,
    /// Edges actually deleted (pending dels the graph had).
    pub deleted: usize,
    /// Catalog entries recounted by incremental maintenance.
    pub recounted: usize,
    /// True if the commit changed the graph (its delta was folded into a
    /// fresh CSR); false for a no-op commit.
    pub rebased: bool,
    /// WAL bytes appended (and fsynced) for this commit before it was
    /// applied — 0 for no-op commits and for datasets running without
    /// durability attached. Not echoed over the wire.
    pub wal_bytes: u64,
}

impl DatasetEntry {
    /// Apply the pending delta and publish the successor epoch: the part
    /// of the buffer that changes the graph is logged, folded into a
    /// fresh CSR and its touched catalog entries recounted. A commit that
    /// changes nothing keeps the epoch, and cached estimates stay valid.
    ///
    /// With durability attached the delta is fsynced to the WAL
    /// **before** the successor is built: after `Ok` the commit survives
    /// any crash; after `Err` nothing was published and the taken ops
    /// are pending again, so the client may retry a failed COMMIT but
    /// never sees a half-applied one. Readers are never blocked: they
    /// keep estimating the current state until the pointer swap.
    pub fn try_commit(&self) -> io::Result<CommitOutcome> {
        // Held to the end: commits publish in the order they log.
        let mut dur = self.lock_writable()?;
        let taken = self.take_pending()?;
        // Only commits publish, so `cur` stays current until the swap.
        let cur = self.pin();
        let effective = effective_delta(&cur, &taken);
        if effective.is_empty() {
            return Ok(CommitOutcome {
                epoch: cur.epoch(),
                ..CommitOutcome::default()
            });
        }
        let epoch = cur.epoch() + 1;
        let wal_bytes = self.log(dur.as_mut(), epoch, &effective, taken)?;
        let mut next = cur.fork();
        next.fold(&effective, epoch);
        let recounted = next.recount(&effective.touched_labels());
        self.publish(next);
        Ok(CommitOutcome {
            epoch,
            added: effective.adds().count(),
            deleted: effective.dels().count(),
            recounted,
            rebased: true,
            wal_bytes,
        })
    }

    /// Take the commit mutex and refuse a poisoned log — first, so even
    /// a no-op `COMMIT` on a poisoned log is refused.
    fn lock_writable(&self) -> io::Result<OrderedMutexGuard<'_, Option<Durability>>> {
        let dur = self.lock_durability()?;
        dur.as_ref().map_or(Ok(()), Durability::writable)?;
        Ok(dur)
    }

    /// Empty the pending buffer into the delta this commit applies.
    fn take_pending(&self) -> io::Result<GraphDelta> {
        let pending = self.pending.checked_lock();
        let mut pending = pending.map_err(|e| io::Error::other(self.poisoned_msg(e)))?;
        Ok(std::mem::take(&mut *pending))
    }

    /// The durability barrier: the effective delta, stamped with the
    /// epoch it creates, is on disk before a successor is built. On
    /// failure `taken` is pending again and nothing is published.
    fn log(
        &self,
        dur: Option<&mut Durability>,
        epoch: u64,
        effective: &GraphDelta,
        taken: GraphDelta,
    ) -> io::Result<u64> {
        let Some(d) = dur else { return Ok(0) };
        d.append(epoch, effective)
            .inspect_err(|_| self.restore_pending(taken))
    }

    /// Merge `taken` back *under* anything buffered since, so later
    /// client ops still win. Best effort: a lock poisoned here cannot
    /// improve on the append error already being returned.
    fn restore_pending(&self, mut taken: GraphDelta) {
        if let Ok(mut pending) = self.pending.checked_lock() {
            taken.merge(&pending);
            *pending = taken;
        }
    }

    /// Swap the successor in. The caller's pin outlives the swap, so the
    /// predecessor is never freed under the slot lock.
    fn publish(&self, next: EpochState) {
        *self.current.write() = Arc::new(next);
    }
}

/// The part of `taken` that changes `cur`'s graph: re-adding an edge it
/// has or deleting one it lacks is dropped.
fn effective_delta(cur: &EpochState, taken: &GraphDelta) -> GraphDelta {
    taken.effective(|e| cur.graph.has_edge(e.src, e.dst, e.label))
}
