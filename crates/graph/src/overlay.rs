//! Base-plus-delta overlay: run the counting kernel on an updated graph
//! without rebuilding any CSR.
//!
//! An [`OverlayGraph`] lays a [`GraphDelta`] over an immutable
//! [`LabeledGraph`]. Construction merges, for each touched `(label,
//! vertex, direction)` triple only, the base neighbour slice with the
//! delta's insertions/deletions into a small patched list; every
//! untouched list is served straight from the base CSR. Because the
//! patched lists are sorted `&[VertexId]` slices like the base's, the
//! whole [`GraphView`] surface — including the merge/galloping
//! intersection the PR 3 kernel is built on — works unchanged.
//!
//! Cost model: building the overlay is O(Δ · d) where `d` is the degree
//! of the touched vertices — independent of graph size — so it is the
//! right representation for a small delta over a big graph. Once a delta
//! grows past a threshold, fold it with [`LabeledGraph::rebase`] and
//! start a fresh overlay (the service registry does exactly this).

use crate::delta::GraphDelta;
use crate::view::GraphView;
use crate::{FxHashMap, LabelId, LabeledGraph, VertexId};

/// Patched adjacency of one relation in one direction.
#[derive(Debug, Default)]
struct DirPatch {
    /// Fully merged, sorted neighbour lists for the touched vertices.
    lists: FxHashMap<VertexId, Vec<VertexId>>,
    /// The keys of `lists`, ascending: what [`GraphView::rows`] merges
    /// the base rows with (point lookups go through the map).
    touched: Vec<VertexId>,
    /// Upper bound on the maximum degree (base bound ∨ patched lists).
    max_degree: usize,
    /// Exact number of vertices with non-zero degree.
    num_active: usize,
}

/// Patch state of one touched relation.
#[derive(Debug)]
struct LabelPatch {
    /// Exact `|R_l|` after applying the delta.
    label_count: usize,
    fwd: DirPatch,
    bwd: DirPatch,
}

/// A [`GraphView`] over `base` with `delta` applied, no CSR rebuilt.
#[derive(Debug)]
pub struct OverlayGraph<'a> {
    base: &'a LabeledGraph,
    num_vertices: usize,
    num_labels: usize,
    /// Indexed by label; `None` for relations the delta does not touch.
    patches: Vec<Option<LabelPatch>>,
}

impl<'a> OverlayGraph<'a> {
    /// Lay `delta` over `base`. The delta is normalized and grouped per
    /// label in one pass ([`GraphDelta::effective_by_label`]), so
    /// recorded no-ops cost nothing beyond that pass and a label's
    /// operations are never re-scanned for other labels.
    pub fn new(base: &'a LabeledGraph, delta: &GraphDelta) -> Self {
        let num_vertices = base
            .num_vertices()
            .max(delta.max_vertex().map_or(0, |v| v as usize + 1));
        let num_labels = base
            .num_labels()
            .max(delta.max_label().map_or(0, |l| l as usize + 1));
        let mut patches: Vec<Option<LabelPatch>> = Vec::new();
        patches.resize_with(num_labels, || None);
        for (l, (add_l, del_l)) in delta.effective_by_label(base) {
            let label_count = base.label_count(l) + add_l.len() - del_l.len();
            let fwd = Self::dir_patch(base, l, false, &add_l, &del_l);
            let bwd = Self::dir_patch(base, l, true, &add_l, &del_l);
            patches[l as usize] = Some(LabelPatch {
                label_count,
                fwd,
                bwd,
            });
        }
        OverlayGraph {
            base,
            num_vertices,
            num_labels,
            patches,
        }
    }

    /// Build the patched lists of one direction of one relation.
    fn dir_patch(
        base: &LabeledGraph,
        l: LabelId,
        backward: bool,
        adds: &[(VertexId, VertexId)],
        dels: &[(VertexId, VertexId)],
    ) -> DirPatch {
        let key = |&(s, d): &(VertexId, VertexId)| if backward { (d, s) } else { (s, d) };
        // Group per endpoint: sorted target lists per touched vertex.
        let mut add_by: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
        let mut del_by: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
        for p in adds {
            let (v, t) = key(p);
            add_by.entry(v).or_default().push(t);
        }
        for p in dels {
            let (v, t) = key(p);
            del_by.entry(v).or_default().push(t);
        }
        let base_row = |v: VertexId| {
            if backward {
                base.in_neighbors(v, l)
            } else {
                base.out_neighbors(v, l)
            }
        };
        let base_max = if backward {
            base.max_in_degree(l)
        } else {
            base.max_out_degree(l)
        };
        let base_active = if backward {
            base.distinct_targets(l)
        } else {
            base.distinct_sources(l)
        };
        let mut touched: Vec<VertexId> = add_by.keys().chain(del_by.keys()).copied().collect();
        touched.sort_unstable();
        touched.dedup();
        let mut patch = DirPatch {
            max_degree: base_max,
            num_active: base_active,
            ..Default::default()
        };
        for &v in &touched {
            let mut a = add_by.remove(&v).unwrap_or_default();
            let mut d = del_by.remove(&v).unwrap_or_default();
            a.sort_unstable();
            d.sort_unstable();
            let row = base_row(v);
            let mut merged = Vec::with_capacity((row.len() + a.len()).saturating_sub(d.len()));
            crate::csr::merge_row_into(row, &a, &d, &mut merged);
            patch.max_degree = patch.max_degree.max(merged.len());
            match (row.is_empty(), merged.is_empty()) {
                (true, false) => patch.num_active += 1,
                (false, true) => patch.num_active -= 1,
                _ => {}
            }
            patch.lists.insert(v, merged);
        }
        patch.touched = touched;
        patch
    }

    fn patch(&self, l: LabelId) -> Option<&LabelPatch> {
        self.patches.get(l as usize).and_then(Option::as_ref)
    }

    /// The base graph this overlay reads through to.
    pub fn base(&self) -> &'a LabeledGraph {
        self.base
    }

    /// Total number of edges across all labels.
    pub fn num_edges(&self) -> usize {
        (0..self.num_labels as LabelId)
            .map(|l| GraphView::label_count(self, l))
            .sum()
    }
}

impl GraphView for OverlayGraph<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_labels(&self) -> usize {
        self.num_labels
    }

    fn label_count(&self, l: LabelId) -> usize {
        match self.patch(l) {
            Some(p) => p.label_count,
            None => self.base.label_count(l),
        }
    }

    fn out_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        match self.patch(l).and_then(|p| p.fwd.lists.get(&v)) {
            Some(list) => list,
            None => self.base.out_neighbors(v, l),
        }
    }

    fn in_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        match self.patch(l).and_then(|p| p.bwd.lists.get(&v)) {
            Some(list) => list,
            None => self.base.in_neighbors(v, l),
        }
    }

    fn max_out_degree(&self, l: LabelId) -> usize {
        match self.patch(l) {
            Some(p) => p.fwd.max_degree,
            None => self.base.max_out_degree(l),
        }
    }

    fn max_in_degree(&self, l: LabelId) -> usize {
        match self.patch(l) {
            Some(p) => p.bwd.max_degree,
            None => self.base.max_in_degree(l),
        }
    }

    fn distinct_sources(&self, l: LabelId) -> usize {
        match self.patch(l) {
            Some(p) => p.fwd.num_active,
            None => self.base.distinct_sources(l),
        }
    }

    fn distinct_targets(&self, l: LabelId) -> usize {
        match self.patch(l) {
            Some(p) => p.bwd.num_active,
            None => self.base.distinct_targets(l),
        }
    }

    fn rows(&self, l: LabelId, backward: bool) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        // A two-way merge in vertex order: the base rows, and the patched
        // lists, which replace the base row of the same vertex and are
        // left out where the delta emptied them.
        let patch = self
            .patch(l)
            .map(|p| if backward { &p.bwd } else { &p.fwd });
        let mut patched = patch
            .into_iter()
            .flat_map(|p| p.touched.iter().map(|v| (*v, p.lists[v].as_slice())));
        let mut base = self.base.rows(l, backward);
        let mut next_patched = patched.next();
        // A base row read past the next patched vertex.
        let mut held = None;
        std::iter::from_fn(move || loop {
            let Some(p) = next_patched else {
                return held.take().or_else(|| base.next());
            };
            match held.take().or_else(|| base.next()) {
                Some(b) if b.0 < p.0 => return Some(b),
                b => {
                    held = b.filter(|b| b.0 != p.0);
                    next_patched = patched.next();
                    if !p.1.is_empty() {
                        return Some(p);
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// label 0 = {0->1, 0->2, 1->2}, label 1 = {2->0}.
    fn base() -> LabeledGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 1);
        b.build()
    }

    fn delta() -> GraphDelta {
        let mut d = GraphDelta::new();
        d.add_edge(2, 1, 0);
        d.del_edge(0, 1, 0);
        d.add_edge(1, 0, 1);
        d
    }

    /// Every GraphView observable must agree between the overlay and the
    /// rebased (fully materialized) graph.
    fn assert_view_equivalence(ov: &OverlayGraph<'_>, want: &LabeledGraph) {
        assert_eq!(GraphView::num_vertices(ov), want.num_vertices());
        assert_eq!(GraphView::num_labels(ov), want.num_labels());
        for l in 0..want.num_labels() as LabelId {
            assert_eq!(
                GraphView::label_count(ov, l),
                want.label_count(l),
                "|R_{l}|"
            );
            assert_eq!(ov.distinct_sources(l), want.distinct_sources(l));
            assert_eq!(ov.distinct_targets(l), want.distinct_targets(l));
            assert!(ov.max_out_degree(l) >= want.max_out_degree(l));
            assert!(ov.max_in_degree(l) >= want.max_in_degree(l));
            let (mut s_ov, mut s_want) = (Vec::new(), Vec::new());
            ov.sources_into(l, &mut s_ov);
            want.sources_into(l, &mut s_want);
            assert_eq!(s_ov, s_want, "sources of {l}");
            let (mut t_ov, mut t_want) = (Vec::new(), Vec::new());
            ov.targets_into(l, &mut t_ov);
            want.targets_into(l, &mut t_want);
            assert_eq!(t_ov, t_want, "targets of {l}");
            for v in 0..want.num_vertices() as VertexId {
                assert_eq!(
                    GraphView::out_neighbors(ov, v, l),
                    want.out_neighbors(v, l),
                    "out({v}, {l})"
                );
                assert_eq!(
                    GraphView::in_neighbors(ov, v, l),
                    want.in_neighbors(v, l),
                    "in({v}, {l})"
                );
            }
        }
    }

    /// `rows` over patched and untouched relations, both directions,
    /// yields exactly the rebased graph's rows.
    fn assert_rows_equivalence(ov: &OverlayGraph<'_>, want: &LabeledGraph) {
        for l in 0..want.num_labels() as LabelId + 1 {
            for backward in [false, true] {
                let got: Vec<_> = GraphView::rows(ov, l, backward).collect();
                let want: Vec<_> = want.rows(l, backward).collect();
                assert_eq!(got, want, "rows({l}, {backward})");
            }
        }
    }

    #[test]
    fn rows_merge_patched_lists_with_base_rows() {
        // Label 0 rows at 0, 2, 4, 6, 8; label 1 untouched.
        let mut b = GraphBuilder::new(10);
        for v in [0, 2, 4, 6, 8] {
            b.add_edge(v, v + 1, 0);
        }
        b.add_edge(3, 4, 1);
        let g = b.build();
        let mut d = GraphDelta::new();
        d.del_edge(0, 1, 0); // the first row emptied
        d.add_edge(2, 9, 0); // a row grown
        d.add_edge(3, 0, 0); // a row between two base rows
        d.del_edge(8, 9, 0); // the last row emptied...
        d.add_edge(9, 0, 0); // ...and a new one past it
        d.add_edge(12, 2, 0); // and one past the base domain
        let ov = OverlayGraph::new(&g, &d);
        assert_rows_equivalence(&ov, &g.rebase(&d));
        let sources: Vec<VertexId> = GraphView::rows(&ov, 0, false).map(|r| r.0).collect();
        assert_eq!(sources, [2, 3, 4, 6, 9, 12]);
    }

    #[test]
    fn overlay_matches_rebased_graph() {
        let g = base();
        let d = delta();
        let ov = OverlayGraph::new(&g, &d);
        let want = g.rebase(&d);
        assert_view_equivalence(&ov, &want);
        assert_rows_equivalence(&ov, &want);
        assert_eq!(ov.num_edges(), want.num_edges());
    }

    #[test]
    fn overlay_with_domain_growth() {
        let g = base();
        let mut d = GraphDelta::new();
        d.add_edge(4, 5, 2); // new vertices and a new label
        d.add_edge(0, 4, 0);
        let ov = OverlayGraph::new(&g, &d);
        let want = g.rebase(&d);
        assert_view_equivalence(&ov, &want);
        assert!(ov.has_edge(4, 5, 2));
        assert_eq!(GraphView::out_neighbors(&ov, 0, 0), &[1, 2, 4]);
    }

    #[test]
    fn overlay_with_noop_delta_reads_through() {
        let g = base();
        let mut d = GraphDelta::new();
        d.add_edge(0, 1, 0); // already present
        d.del_edge(1, 0, 1); // already absent
        let ov = OverlayGraph::new(&g, &d);
        assert_view_equivalence(&ov, &g.rebase(&d));
        assert_eq!(ov.num_edges(), g.num_edges());
    }

    #[test]
    fn overlay_deleting_a_whole_relation() {
        let g = base();
        let mut d = GraphDelta::new();
        d.del_edge(2, 0, 1);
        let ov = OverlayGraph::new(&g, &d);
        let want = g.rebase(&d);
        assert_view_equivalence(&ov, &want);
        assert_eq!(GraphView::label_count(&ov, 1), 0);
        assert_eq!(ov.distinct_sources(1), 0);
    }
}
