//! One committed epoch of a dataset, and the bounds an update must keep
//! to reach the next one.

use std::sync::Arc;
use std::time::Instant;

use ceg_catalog::{count_patterns, FillStats, MarkovTable};
use ceg_graph::sync::{LockRank, OrderedReadGuard, OrderedRwLock};
use ceg_graph::{GraphDelta, LabelId, LabeledGraph, VertexId};
use ceg_query::Pattern;

/// Largest vertex id an update may introduce **beyond** the dataset's
/// current domain. Vertices the graph already has are always updatable
/// (a 45M-vertex dataset accepts updates across its whole domain).
///
/// A far id costs the graph little: each relation-direction it lands in
/// pays one page and, at this bound, a page table of at most 4,096 slots
/// (48 KiB; see [`ceg_graph::Csr`]). The bound protects what is sized by
/// `num_vertices()` rather than by the edges: the tree DP's scratch (one
/// weight per vertex, 128 MiB of `u64` at 2^24 ids), the kernel's bitset
/// (a bit per vertex), and the page tables, which an id near `u32::MAX`
/// would take to 2^20 slots (12 MiB) per touched relation-direction.
pub const MAX_UPDATE_VERTEX: VertexId = (1 << 24) - 1;

/// Largest label an update may introduce beyond the dataset's current
/// label set (one relation pair of CSRs exists per label).
pub const MAX_UPDATE_LABEL: LabelId = 4095;

/// What one catalog fill did — the catalog half of an `EXPLAIN_ESTIMATE`
/// breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnsureOutcome {
    /// Patterns inserted into the catalog by this call.
    pub added: usize,
    /// Counting-kernel work done filling them.
    pub fill: FillStats,
}

/// One committed epoch of a dataset — everything an estimate reads.
/// Once published only the catalog changes: it *grows*, by exact counts
/// taken on this state's own graph.
pub(crate) struct EpochState {
    /// The committed graph, in the ids the client sent.
    pub(super) graph: Arc<LabeledGraph>,
    epoch: u64,
    /// Same rank as the slot that publishes this state (the two never
    /// nest). Held for lookups, a fill's inserts or one clone — never
    /// across counting or I/O.
    markov: OrderedRwLock<MarkovTable>,
}

impl EpochState {
    /// `graph` as committed epoch `epoch`, moved in as loaded.
    pub(super) fn new(graph: LabeledGraph, epoch: u64, markov: MarkovTable) -> Self {
        EpochState {
            graph: Arc::new(graph),
            epoch,
            markov: OrderedRwLock::new(LockRank::DatasetState, markov),
        }
    }

    /// The epoch this state was committed as.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This epoch's catalog, read-locked (many readers at once).
    pub(crate) fn catalog(&self) -> OrderedReadGuard<'_, MarkovTable> {
        self.markov.read()
    }

    /// Validate one update op: ids the graph covers are always legal,
    /// growth beyond it is bounded by [`MAX_UPDATE_VERTEX`] and
    /// [`MAX_UPDATE_LABEL`].
    pub(super) fn check_update(
        &self,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
    ) -> Result<(), String> {
        let num_vertices = self.graph.num_vertices();
        let num_labels = self.graph.num_labels();
        let vertex_bound = num_vertices.max(MAX_UPDATE_VERTEX as usize + 1);
        if (src as usize) >= vertex_bound || (dst as usize) >= vertex_bound {
            return Err(format!(
                "vertex id out of range (dataset domain is 0..{num_vertices}, \
                 new vertices are limited to {MAX_UPDATE_VERTEX})"
            ));
        }
        let label_bound = num_labels.max(MAX_UPDATE_LABEL as usize + 1);
        if (label as usize) >= label_bound {
            return Err(format!(
                "label out of range (dataset has {num_labels} labels, \
                 new labels are limited to {MAX_UPDATE_LABEL})"
            ));
        }
        Ok(())
    }

    /// An unpublished copy to build the successor from: the graph is
    /// shared, the catalog cloned.
    pub(super) fn fork(&self) -> EpochState {
        EpochState {
            graph: self.graph.clone(),
            epoch: self.epoch,
            markov: OrderedRwLock::new(LockRank::DatasetState, self.catalog().clone()),
        }
    }

    /// Advance this unpublished state to `epoch`: `delta` is folded into
    /// a fresh CSR that shares every relation it does not touch.
    pub(super) fn fold(&mut self, delta: &GraphDelta, epoch: u64) {
        self.graph = Arc::new(self.graph.rebase(delta));
        self.epoch = epoch;
    }

    /// Recount, on this state's graph, every catalog entry that names a
    /// label in `touched`. Returns how many were recounted.
    pub(super) fn recount(&mut self, touched: &[LabelId], jobs: usize) -> usize {
        self.markov
            .get_mut()
            .refresh_touched(&self.graph, touched, jobs)
    }

    /// Count `missing` — patterns a query resolved against this catalog
    /// lacked ([`MarkovTable::resolve`]) — on up to `jobs` threads with no
    /// lock held, into this state's catalog, so a commit landing meanwhile
    /// cannot make them stale. Counting stops at `deadline` (inside the
    /// kernel, [`ceg_exec::CountBudget`]) and only completed counts are
    /// inserted: an abandoned fill leaves its patterns missing.
    pub(crate) fn fill(
        &self,
        missing: &[Pattern],
        deadline: Option<Instant>,
        jobs: usize,
    ) -> EnsureOutcome {
        let mut outcome = EnsureOutcome::default();
        if missing.is_empty() {
            return outcome;
        }
        let budget = match deadline {
            Some(d) => ceg_exec::CountBudget::until(d),
            None => ceg_exec::CountBudget::UNLIMITED,
        };
        let (counts, fill) = count_patterns(&self.graph, missing, jobs, budget);
        outcome.fill = fill;
        let mut table = self.markov.write();
        for (pat, card) in missing.iter().zip(counts) {
            // Abandoned counts insert nothing: a partial count must
            // never enter the catalog as if it were exact.
            let Ok(card) = card else { continue };
            if table.card(pat).is_none() {
                table.insert(pat.clone(), card);
                outcome.added += 1;
            }
        }
        outcome
    }
}
