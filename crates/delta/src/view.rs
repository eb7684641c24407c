//! The unified read surface over base CSR + [`TargetIndex`] + overlay.
//!
//! [`GraphView`] is a cheap `Copy` bundle of borrows that answers every
//! question a matcher's inner loop asks — labels, adjacency, degrees,
//! candidate lists, signatures, edge probes — routing each one to the
//! delta overlay for touched nodes and to the base CSR/index for
//! everything else. A view without an overlay behaves exactly like the
//! raw graph + index it wraps, so the static-serving fast path pays only
//! an `Option` test per probe.
//!
//! [`PinnedView`] is the owned form: `Arc` handles to the epoch's graph,
//! index, and overlay, captured once when a race is prepared. In-flight
//! races keep their pins while updates swap in new overlays and the
//! compactor swaps in whole new epochs, which is what "readers stay
//! pinned to the epoch they started on" means operationally.

use crate::overlay::DeltaOverlay;
use psi_graph::{Graph, Label, LabelStats, NodeId, TargetIndex};
use std::sync::Arc;

/// A borrowed, copyable read view of one epoch of a live graph. See the
/// module docs.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a Graph,
    index: Option<&'a TargetIndex>,
    overlay: Option<&'a DeltaOverlay>,
    epoch: u64,
}

impl<'a> GraphView<'a> {
    /// A plain view of a bare graph: no index, no overlay, scan probes.
    /// This is what the index-free search entry points (FTV filter
    /// verification) use.
    pub fn of_graph(graph: &'a Graph) -> Self {
        Self { graph, index: None, overlay: None, epoch: 0 }
    }

    /// An indexed view: candidate lists, signatures and bitset probes all
    /// come from `index`.
    pub fn of_index(index: &'a TargetIndex) -> Self {
        Self { graph: index.graph(), index: Some(index), overlay: None, epoch: 0 }
    }

    /// Attaches a delta overlay (if any) to the view.
    pub fn with_overlay(mut self, overlay: Option<&'a DeltaOverlay>) -> Self {
        self.overlay = overlay;
        self
    }

    /// Stamps the epoch this view belongs to.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Substitutes `index` if the view has none — matchers prepared over
    /// a shared index use this so a graph-only view still reaches their
    /// own prepared structures.
    pub fn with_default_index(mut self, index: &'a TargetIndex) -> Self {
        if self.index.is_none() {
            self.index = Some(index);
        }
        self
    }

    /// The epoch this view was pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base graph (current epoch's CSR — overlay not applied).
    pub fn base(&self) -> &'a Graph {
        self.graph
    }

    /// Whether a delta overlay is attached.
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Whether the view carries an index (candidate lists, signatures,
    /// bitset probes).
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The view's index when no overlay is attached: then every
    /// candidate list, degree and signature the view answers is the
    /// index's own, so answers derived from them (the index's candidate
    /// memo) hold for the view. `None` with an overlay or without an
    /// index.
    pub fn base_index(&self) -> Option<&'a TargetIndex> {
        self.index.filter(|_| self.overlay.is_none())
    }

    /// Number of nodes in the view (base + appended; tombstones retain
    /// their IDs and stay counted).
    pub fn node_count(&self) -> usize {
        self.graph.node_count() + self.overlay.map_or(0, |o| o.added_nodes())
    }

    /// Number of live undirected edges.
    pub fn edge_count(&self) -> usize {
        match self.overlay {
            Some(o) => o.edge_count(),
            None => self.graph.edge_count(),
        }
    }

    /// Whether `v` exists and is not tombstoned.
    pub fn is_live(&self, v: NodeId) -> bool {
        (v as usize) < self.node_count() && self.overlay.is_none_or(|o| !o.is_removed(v))
    }

    /// Label of `v` ([`crate::TOMBSTONE_LABEL`] for removed nodes).
    pub fn label(&self, v: NodeId) -> Label {
        if let Some(o) = self.overlay {
            if let Some(on) = o.node(v) {
                return on.label;
            }
            if (v as usize) >= o.base_nodes() {
                return o.added_label(v);
            }
        }
        self.graph.label(v)
    }

    /// Sorted live adjacency of `v`.
    pub fn neighbors(&self, v: NodeId) -> &'a [NodeId] {
        if let Some(o) = self.overlay {
            if let Some(on) = o.node(v) {
                return &on.neighbors;
            }
        }
        self.graph.neighbors(v)
    }

    /// Live degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        if let Some(o) = self.overlay {
            if let Some(on) = o.node(v) {
                return on.neighbors.len();
            }
        }
        self.graph.degree(v)
    }

    /// Whether the undirected edge `(u, v)` exists in the view.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (mut bs, mut bin) = (0, 0);
        self.has_edge_counted(u, v, &mut bs, &mut bin)
    }

    /// Edge probe with accounting, mirroring
    /// [`TargetIndex::has_edge_counted`]: overlay-touched endpoints are
    /// answered by binary search in the overlay adjacency (counted as
    /// `binary`), untouched pairs go to the index (bitset fast path when
    /// built) or, without one, to CSR binary search.
    #[inline]
    pub fn has_edge_counted(
        &self,
        u: NodeId,
        v: NodeId,
        bitset: &mut u64,
        binary: &mut u64,
    ) -> bool {
        if let Some(o) = self.overlay {
            // Any edge mutation touches both endpoints, so a touched
            // endpoint's list is authoritative for all its edges.
            if let Some(on) = o.node(u) {
                *binary += 1;
                return on.neighbors.binary_search(&v).is_ok();
            }
            if let Some(on) = o.node(v) {
                *binary += 1;
                return on.neighbors.binary_search(&u).is_ok();
            }
        }
        match self.index {
            Some(ix) => ix.has_edge_counted(u, v, bitset, binary),
            None => {
                *binary += 1;
                self.graph.has_edge(u, v)
            }
        }
    }

    /// Label of edge `(u, v)`, if the view is edge-labeled and the edge
    /// exists. Edges without an explicit label report `Some(0)`, matching
    /// what compaction materializes.
    pub fn edge_label(&self, u: NodeId, v: NodeId) -> Option<Label> {
        if !self.edge_labeled() {
            return None;
        }
        if let Some(o) = self.overlay {
            for (a, b) in [(u, v), (v, u)] {
                if let Some(on) = o.node(a) {
                    let i = on.neighbors.binary_search(&b).ok()?;
                    return Some(on.edge_labels[i]);
                }
            }
        }
        match self.graph.edge_label(u, v) {
            Some(l) => Some(l),
            // Base is unlabeled but the view is (overlay added a labeled
            // edge): untouched base edges carry the default label 0.
            None if self.graph.has_edge(u, v) => Some(0),
            None => None,
        }
    }

    /// Whether the view carries edge labels.
    pub fn edge_labeled(&self) -> bool {
        match self.overlay {
            Some(o) => o.edge_labeled(),
            None => self.graph.has_edge_labels(),
        }
    }

    /// Live candidate nodes for `label`: the overlay's merged list when
    /// the label's membership changed, the index's list otherwise.
    ///
    /// # Panics
    /// Panics if the view has no index — candidate seeding is an indexed
    /// operation (index-free searches scan labels instead).
    pub fn candidates(&self, label: Label) -> &'a [NodeId] {
        if let Some(o) = self.overlay {
            if let Some(list) = o.candidates_override(label) {
                return list;
            }
        }
        self.index.expect("GraphView::candidates requires an index").candidates(label)
    }

    /// Sorted multiset of `v`'s live neighbor labels.
    ///
    /// # Panics
    /// Panics for untouched nodes if the view has no index.
    pub fn signature(&self, v: NodeId) -> &'a [Label] {
        if let Some(o) = self.overlay {
            if let Some(on) = o.node(v) {
                return &on.signature;
            }
        }
        self.index.expect("GraphView::signature requires an index").signature(v)
    }

    /// 64-bit label mask of `v`'s neighborhood.
    ///
    /// # Panics
    /// Panics for untouched nodes if the view has no index.
    pub fn label_mask(&self, v: NodeId) -> u64 {
        if let Some(o) = self.overlay {
            if let Some(on) = o.node(v) {
                return on.mask;
            }
        }
        self.index.expect("GraphView::label_mask requires an index").label_mask(v)
    }

    /// Label statistics of the *live* view (tombstones excluded) — feeds
    /// the ILF rewriting family so query orderings track mutations.
    pub fn label_stats(&self) -> LabelStats {
        match self.overlay {
            None => LabelStats::from_graph(self.graph),
            Some(_) => {
                let mut s = LabelStats::new();
                for v in 0..self.node_count() as NodeId {
                    if self.is_live(v) {
                        s.add_label(self.label(v));
                    }
                }
                s
            }
        }
    }
}

/// Owned epoch pin: `Arc` handles to everything a [`GraphView`] borrows,
/// captured when a race is prepared so concurrent updates and compactions
/// cannot pull state out from under it.
#[derive(Clone)]
pub struct PinnedView {
    index: Arc<TargetIndex>,
    overlay: Option<Arc<DeltaOverlay>>,
    epoch: u64,
}

impl PinnedView {
    /// Pins an epoch's state: its base graph's index and outstanding
    /// overlay.
    pub fn new(index: Arc<TargetIndex>, overlay: Option<Arc<DeltaOverlay>>, epoch: u64) -> Self {
        Self { index, overlay, epoch }
    }

    /// A static pin over a bare indexed graph (epoch 0, no overlay).
    pub fn of_index(index: Arc<TargetIndex>) -> Self {
        Self::new(index, None, 0)
    }

    /// The borrowed view.
    pub fn as_view(&self) -> GraphView<'_> {
        GraphView::of_index(&self.index)
            .with_overlay(self.overlay.as_deref())
            .with_epoch(self.epoch)
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned base graph.
    pub fn graph(&self) -> &Arc<Graph> {
        self.index.graph()
    }

    /// The pinned index.
    pub fn index(&self) -> &Arc<TargetIndex> {
        &self.index
    }

    /// The pinned overlay, if any mutations are outstanding.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{UpdateOp, TOMBSTONE_LABEL};
    use psi_graph::graph::graph_from_parts;

    fn base() -> Graph {
        graph_from_parts(&[0, 1, 0, 2], &[(0, 1), (1, 2), (1, 3)])
    }

    #[test]
    fn plain_view_matches_graph() {
        let g = base();
        let v = GraphView::of_graph(&g);
        assert_eq!(v.node_count(), 4);
        assert_eq!(v.edge_count(), 3);
        assert_eq!(v.label(3), 2);
        assert_eq!(v.neighbors(1), g.neighbors(1));
        assert!(v.has_edge(0, 1));
        assert!(!v.has_edge(0, 2));
        assert!(!v.has_index());
        assert!(v.is_live(3));
        assert!(!v.is_live(4));
    }

    #[test]
    fn indexed_view_uses_index() {
        let g = Arc::new(base());
        let ix = TargetIndex::build(Arc::clone(&g));
        let v = GraphView::of_index(&ix);
        assert!(v.has_index());
        assert_eq!(v.candidates(0), ix.candidates(0));
        assert_eq!(v.signature(1), ix.signature(1));
        let (mut bs, mut bin) = (0u64, 0u64);
        assert!(v.has_edge_counted(0, 1, &mut bs, &mut bin));
        assert_eq!(bs + bin, 1);
    }

    #[test]
    fn overlay_view_routes_touched_nodes() {
        let g = Arc::new(base());
        let ix = TargetIndex::build(Arc::clone(&g));
        let ops = [
            UpdateOp::AddNode { label: 0 },
            UpdateOp::AddEdge { u: 4, v: 2, label: None },
            UpdateOp::RemoveNode { node: 0 },
        ];
        let ov = DeltaOverlay::build(&g, Some(&ix), &ops).unwrap();
        let v = GraphView::of_index(&ix).with_overlay(Some(&ov)).with_epoch(3);
        assert_eq!(v.epoch(), 3);
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.edge_count(), 3); // +1 added, -1 via node removal
        assert!(!v.is_live(0));
        assert!(v.is_live(4));
        assert_eq!(v.label(0), TOMBSTONE_LABEL);
        assert_eq!(v.label(4), 0);
        assert_eq!(v.neighbors(4), &[2]);
        assert_eq!(v.neighbors(2), &[1, 4]);
        assert!(v.has_edge(4, 2));
        assert!(!v.has_edge(0, 1));
        // Untouched node 3 still answers from the base.
        assert_eq!(v.neighbors(3), g.neighbors(3));
        // Candidates for label 0: node 0 removed, node 4 added.
        assert_eq!(v.candidates(0), &[2, 4]);
        // Signatures track the overlay.
        assert_eq!(v.signature(2), &[0, 1]);
        assert_eq!(v.label_mask(2), TargetIndex::mask_of(&[0, 1]));
        // Live label stats exclude the tombstone.
        let stats = v.label_stats();
        assert_eq!(stats.frequency(0), 2);
        assert_eq!(stats.frequency(TOMBSTONE_LABEL), 0);
        assert_eq!(stats.total_occurrences(), 4);
    }

    #[test]
    fn edge_labels_through_overlay() {
        let g = base();
        let ops = [UpdateOp::AddEdge { u: 0, v: 3, label: Some(9) }];
        let ov = DeltaOverlay::build(&g, None, &ops).unwrap();
        let v = GraphView::of_graph(&g).with_overlay(Some(&ov));
        assert!(v.edge_labeled());
        assert_eq!(v.edge_label(0, 3), Some(9));
        assert_eq!(v.edge_label(3, 0), Some(9));
        // Untouched base edge in a labeled view: default 0.
        assert_eq!(v.edge_label(1, 2), Some(0));
        assert_eq!(v.edge_label(0, 2), None);
    }

    #[test]
    fn pinned_view_round_trips() {
        let g = Arc::new(base());
        let ix = Arc::new(TargetIndex::build(Arc::clone(&g)));
        let pin = PinnedView::of_index(Arc::clone(&ix));
        assert_eq!(pin.epoch(), 0);
        assert!(pin.overlay().is_none());
        let v = pin.as_view();
        assert!(v.has_index());
        assert_eq!(v.node_count(), 4);
    }
}
