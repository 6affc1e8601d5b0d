//! Edge-level graph deltas: the mutable layer over immutable CSR graphs.
//!
//! A [`GraphDelta`] records a batch of edge insertions and deletions as a
//! sorted last-writer-wins map over [`Edge`]s. Deltas are *positional*
//! overlays: they describe the desired presence of each touched edge
//! relative to some base graph, so re-adding an edge the base already has
//! (or deleting one it lacks) is a recorded no-op that normalization
//! ([`GraphDelta::effective`]) strips at apply time. Two layering
//! operations consume a delta:
//!
//! * [`crate::LabeledGraph::rebase`] folds it into a fresh CSR graph,
//!   rebuilding only the touched relations and sharing the rest,
//! * [`crate::OverlayGraph`] lays it over the base without rebuilding,
//!   patching only the touched neighbour lists.

use std::collections::BTreeMap;

use crate::graph::Edge;
use crate::{LabelId, LabeledGraph, VertexId};

/// A batch of edge insertions/deletions over some base graph.
///
/// Internally a sorted map `Edge -> present?`; the last `add_edge` /
/// `del_edge` call for a given `(src, dst, label)` wins, which makes
/// merging deltas ([`GraphDelta::merge`]) a plain map union.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// `true` = the edge should exist after applying, `false` = it should
    /// not. Sorted by [`Edge`]'s derived order: `(src, dst, label)`.
    ops: BTreeMap<Edge, bool>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Record that `src -label-> dst` should exist.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: LabelId) {
        self.ops.insert(Edge { src, dst, label }, true);
    }

    /// Record that `src -label-> dst` should not exist.
    pub fn del_edge(&mut self, src: VertexId, dst: VertexId, label: LabelId) {
        self.ops.insert(Edge { src, dst, label }, false);
    }

    /// Number of recorded edge operations (insertions + deletions).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operation is recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop every recorded operation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Iterate the recorded insertions, in `(src, dst, label)` order.
    pub fn adds(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ops.iter().filter(|&(_, &add)| add).map(|(&e, _)| e)
    }

    /// Iterate the recorded deletions, in `(src, dst, label)` order.
    pub fn dels(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ops.iter().filter(|&(_, &add)| !add).map(|(&e, _)| e)
    }

    /// The recorded presence override for one edge, if any: `Some(true)`
    /// means inserted, `Some(false)` deleted, `None` untouched.
    pub fn edge_override(&self, src: VertexId, dst: VertexId, label: LabelId) -> Option<bool> {
        self.ops.get(&Edge { src, dst, label }).copied()
    }

    /// The labels with at least one recorded operation, sorted and
    /// duplicate-free — the relations incremental catalog maintenance
    /// must recount.
    pub fn touched_labels(&self) -> Vec<LabelId> {
        let mut labels: Vec<LabelId> = self.ops.keys().map(|e| e.label).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Largest vertex id mentioned by any operation.
    pub fn max_vertex(&self) -> Option<VertexId> {
        self.ops.keys().map(|e| e.src.max(e.dst)).max()
    }

    /// Largest label mentioned by any operation.
    pub fn max_label(&self) -> Option<LabelId> {
        self.ops.keys().map(|e| e.label).max()
    }

    /// Layer `newer` on top of `self` (later operations win). Folding a
    /// sequence of committed deltas into one overlay is exactly repeated
    /// `merge`.
    pub fn merge(&mut self, newer: &GraphDelta) {
        for (&e, &add) in &newer.ops {
            self.ops.insert(e, add);
        }
    }

    /// Normalize against `base`: the insertions the base actually lacks
    /// and the deletions it actually has, each sorted. These two sets are
    /// disjoint and are what [`LabeledGraph::rebase`] /
    /// [`crate::OverlayGraph`] physically apply; everything else in the
    /// delta is a no-op relative to `base`.
    pub fn effective(&self, base: &LabeledGraph) -> (Vec<Edge>, Vec<Edge>) {
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        for (&e, &add) in &self.ops {
            let present = base.has_edge(e.src, e.dst, e.label);
            match (add, present) {
                (true, false) => adds.push(e),
                (false, true) => dels.push(e),
                _ => {}
            }
        }
        (adds, dels)
    }

    /// [`GraphDelta::effective`] grouped per label in one pass: for each
    /// touched label (ascending), its effective insertions and deletions
    /// as `(src, dst)` pairs, each list sorted (the per-label
    /// subsequences of the `(src, dst, label)`-ordered op map). Labels
    /// whose operations are all no-ops relative to `base` produce no
    /// entry. This is what [`LabeledGraph::rebase`] and
    /// [`crate::OverlayGraph`] consume — one scan of the delta instead of
    /// one per touched label.
    #[allow(clippy::type_complexity)]
    pub fn effective_by_label(
        &self,
        base: &LabeledGraph,
    ) -> std::collections::BTreeMap<LabelId, (Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>)>
    {
        let mut by_label: std::collections::BTreeMap<
            LabelId,
            (Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>),
        > = std::collections::BTreeMap::new();
        for (&e, &add) in &self.ops {
            let present = base.has_edge(e.src, e.dst, e.label);
            if add == present {
                continue; // no-op relative to the base
            }
            let entry = by_label.entry(e.label).or_default();
            if add {
                entry.0.push((e.src, e.dst));
            } else {
                entry.1.push((e.src, e.dst));
            }
        }
        by_label
    }

    /// Drop operations that are no-ops relative to `base`, returning how
    /// many insertions and deletions remain.
    pub fn normalize(&mut self, base: &LabeledGraph) -> (usize, usize) {
        self.ops
            .retain(|e, &mut add| add != base.has_edge(e.src, e.dst, e.label));
        let adds = self.ops.values().filter(|&&a| a).count();
        (adds, self.ops.len() - adds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn base() -> LabeledGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn last_writer_wins() {
        let mut d = GraphDelta::new();
        d.add_edge(0, 1, 0);
        d.del_edge(0, 1, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d.edge_override(0, 1, 0), Some(false));
        d.add_edge(0, 1, 0);
        assert_eq!(d.edge_override(0, 1, 0), Some(true));
        assert_eq!(d.adds().count(), 1);
        assert_eq!(d.dels().count(), 0);
    }

    #[test]
    fn touched_labels_sorted_dedup() {
        let mut d = GraphDelta::new();
        d.add_edge(0, 1, 2);
        d.del_edge(1, 2, 0);
        d.add_edge(2, 3, 2);
        assert_eq!(d.touched_labels(), vec![0, 2]);
        assert_eq!(d.max_vertex(), Some(3));
        assert_eq!(d.max_label(), Some(2));
    }

    #[test]
    fn effective_strips_noops() {
        let g = base();
        let mut d = GraphDelta::new();
        d.add_edge(0, 1, 0); // already present: no-op
        d.add_edge(3, 0, 0); // genuinely new
        d.del_edge(1, 2, 0); // genuinely deleted
        d.del_edge(0, 3, 1); // absent: no-op
        let (adds, dels) = d.effective(&g);
        assert_eq!(adds.len(), 1);
        assert_eq!(
            adds[0],
            Edge {
                src: 3,
                dst: 0,
                label: 0
            }
        );
        assert_eq!(dels.len(), 1);
        assert_eq!(
            dels[0],
            Edge {
                src: 1,
                dst: 2,
                label: 0
            }
        );
        let mut d2 = d.clone();
        assert_eq!(d2.normalize(&g), (1, 1));
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn merge_is_last_writer_wins_across_deltas() {
        let mut older = GraphDelta::new();
        older.add_edge(0, 1, 0);
        older.del_edge(1, 2, 0);
        let mut newer = GraphDelta::new();
        newer.del_edge(0, 1, 0);
        newer.add_edge(2, 3, 1);
        older.merge(&newer);
        assert_eq!(older.edge_override(0, 1, 0), Some(false));
        assert_eq!(older.edge_override(1, 2, 0), Some(false));
        assert_eq!(older.edge_override(2, 3, 1), Some(true));
        assert_eq!(older.len(), 3);
    }

    #[test]
    fn empty_delta_is_effective_noop() {
        let g = base();
        let d = GraphDelta::new();
        assert!(d.is_empty());
        let (adds, dels) = d.effective(&g);
        assert!(adds.is_empty() && dels.is_empty());
        assert!(d.touched_labels().is_empty());
        assert_eq!(d.max_vertex(), None);
    }
}
