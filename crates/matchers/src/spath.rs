//! sPath (Zhao & Han — PVLDB 2010), "SPA" in the paper.
//!
//! §3.1.2: "sPath ... maintains a neighbourhood signature comprised of
//! shortest paths organized in a compact indexing structure. Specifically,
//! in order to reduce the storing space, shortest paths are not really
//! maintained, but they are decomposed in a distance-wise structure. In the
//! query processing, the query is initially decomposed in shortest paths
//! that are then matched to the candidate shortest paths from the stored
//! graph. From all possible candidate shortest paths, those that (i) can
//! cover the query and (ii) provide good selectivity ... are selected as
//! candidates. For each one of the selected paths, an edge-by-edge
//! verification is then used to perform the sub-iso test."
//!
//! Concretely:
//! * **Index**: for every stored node, the count of each label at every BFS
//!   distance `1..=radius` (the "distance-wise decomposition" of shortest
//!   paths; paper default radius 4).
//! * **Layout**: all nodes' signatures live in two flat arrays. `pairs`
//!   holds sorted `(label, cumulative count)` pairs; `offsets` has one
//!   entry per (node, distance) and delimits that layer's run of `pairs`.
//!   The build runs one BFS per node, marking visits in one stamp array
//!   shared by every source and counting labels in a dense array indexed
//!   by label rank (labels are arbitrary `u32`s, up to the overlay's
//!   tombstone `u32::MAX`), so it allocates nothing per node. The query
//!   side uses the same builder, and the fit test is a merge walk of two
//!   sorted layers.
//! * **Candidates**: query node `u` can map to stored node `v` only if
//!   labels match and, for every distance `d`, the query's *cumulative*
//!   label counts within `d` hops of `u` fit under the target's (sound for
//!   non-induced sub-iso because embeddings can only shorten distances).
//! * **Query decomposition**: greedy cover of the query's edges by paths of
//!   length ≤ `max_path_len`, each path starting at the most selective
//!   available vertex (fewest candidates, ties by node ID — the ID
//!   tie-break is what the paper's rewritings exploit).
//! * **Matching**: vertices are bound in path order with edge-by-edge
//!   verification against previously bound neighbors.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, Matcher, SearchStats};
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::{Graph, Label, NodeId, TargetIndex};
use std::borrow::Cow;
use std::sync::Arc;

/// Paper defaults (§3.2): "neighbourhood radius of 4 and maximum path
/// length 4".
pub const DEFAULT_RADIUS: usize = 4;
/// Paper default maximum decomposition path length.
pub const DEFAULT_MAX_PATH_LEN: usize = 4;

/// sPath prepared over a stored graph: the distance-wise signatures are
/// sPath's own (radius-parameterized) index; label lists, degrees and
/// adjacency probes come from the shared [`TargetIndex`].
#[derive(Debug)]
pub struct SPath {
    index: Arc<TargetIndex>,
    /// Per-node cumulative distance-wise signatures of the stored graph.
    signatures: Signatures,
    max_path_len: usize,
}

impl SPath {
    /// Indexing phase with paper-default radius (4) and path length (4),
    /// building a private [`TargetIndex`]. Prefer [`SPath::with_index`]
    /// when matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_params(target, DEFAULT_RADIUS, DEFAULT_MAX_PATH_LEN)
    }

    /// Indexing phase with explicit neighborhood radius and maximum
    /// decomposition path length.
    pub fn with_params(target: Arc<Graph>, radius: usize, max_path_len: usize) -> Self {
        Self::build(Arc::new(TargetIndex::build(target)), radius, max_path_len)
    }

    /// Indexed constructor path with paper-default parameters: only the
    /// distance-wise signatures (sPath's own structure) are computed
    /// here; label lists and adjacency come from the shared index.
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        Self::build(index, DEFAULT_RADIUS, DEFAULT_MAX_PATH_LEN)
    }

    fn build(index: Arc<TargetIndex>, radius: usize, max_path_len: usize) -> Self {
        assert!(radius >= 1, "radius must be at least 1");
        assert!(max_path_len >= 1, "path length must be at least 1");
        let signatures = Signatures::build(index.graph(), radius);
        Self { index, signatures, max_path_len }
    }

    /// The configured neighborhood radius.
    pub fn radius(&self) -> usize {
        self.signatures.radius
    }

    /// Candidate lists per query node via label + cumulative distance-wise
    /// signature containment. Ticks the budget clock so racing cancellation
    /// reaches the pre-search phase promptly.
    ///
    /// The distance signatures were computed over the *base* graph at
    /// preparation time; a delta overlay can shorten or lengthen BFS
    /// distances arbitrarily, so on overlay views the signature filter is
    /// skipped entirely (applying a stale signature could wrongly reject a
    /// valid candidate — label and degree checks remain sound).
    fn candidates(
        &self,
        query: &Graph,
        view: GraphView<'_>,
        clock: &mut BudgetClock<'_>,
    ) -> Result<Vec<Vec<NodeId>>, StopReason> {
        let qsigs = (!view.has_overlay()).then(|| Signatures::build(query, self.radius()));
        let mut out = Vec::with_capacity(query.node_count());
        for u in 0..query.node_count() as NodeId {
            let mut cands = Vec::new();
            for &v in view.candidates(query.label(u)) {
                if let Some(r) = clock.tick() {
                    return Err(r);
                }
                if query.degree(u) <= view.degree(v)
                    && qsigs.as_ref().is_none_or(|q| q.fits(u, &self.signatures, v))
                {
                    cands.push(v);
                }
            }
            out.push(cands);
        }
        Ok(out)
    }

    /// Decomposes the query into a selectivity-ordered edge cover by paths
    /// of length ≤ `max_path_len`, returning the vertex matching order (each
    /// vertex once, in first-traversal order).
    ///
    /// The first path starts at the vertex with the fewest candidates;
    /// subsequent paths prefer starting at an already-covered vertex with
    /// remaining edges (keeping the join connected), again most-selective
    /// first with node-ID tie-breaks.
    fn path_order(&self, query: &Graph, cands: &[Vec<NodeId>]) -> Vec<NodeId> {
        let nq = query.node_count();
        let mut remaining: std::collections::HashSet<(NodeId, NodeId)> = query.edges().collect();
        let mut order: Vec<NodeId> = Vec::with_capacity(nq);
        let mut in_order = vec![false; nq];
        let push = |v: NodeId, order: &mut Vec<NodeId>, in_order: &mut Vec<bool>| {
            if !in_order[v as usize] {
                in_order[v as usize] = true;
                order.push(v);
            }
        };

        let selectivity = |v: NodeId| (cands[v as usize].len(), v);
        let has_remaining = |v: NodeId, remaining: &std::collections::HashSet<(NodeId, NodeId)>| {
            query.neighbors(v).iter().any(|&n| remaining.contains(&key(v, n)))
        };

        while !remaining.is_empty() {
            // Choose path start.
            let covered_start = order
                .iter()
                .copied()
                .filter(|&v| has_remaining(v, &remaining))
                .min_by_key(|&v| selectivity(v));
            let start = covered_start.unwrap_or_else(|| {
                (0..nq as NodeId)
                    .filter(|&v| has_remaining(v, &remaining))
                    .min_by_key(|&v| selectivity(v))
                    .expect("remaining non-empty implies an incident vertex")
            });
            push(start, &mut order, &mut in_order);
            // Greedy walk.
            let mut cur = start;
            for _ in 0..self.max_path_len {
                let next = query
                    .neighbors(cur)
                    .iter()
                    .copied()
                    .filter(|&n| remaining.contains(&key(cur, n)))
                    .min_by_key(|&n| selectivity(n));
                match next {
                    Some(n) => {
                        remaining.remove(&key(cur, n));
                        push(n, &mut order, &mut in_order);
                        cur = n;
                    }
                    None => break,
                }
            }
        }
        // Isolated query vertices (no edges) go last, most selective first.
        let mut rest: Vec<NodeId> = (0..nq as NodeId).filter(|&v| !in_order[v as usize]).collect();
        rest.sort_unstable_by_key(|&v| selectivity(v));
        for v in rest {
            push(v, &mut order, &mut in_order);
        }
        order
    }
}

#[inline]
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Cumulative distance-wise label counts of every node of one graph, in
/// one CSR layout: layer `d` (`1..=radius`) of node `v` is
/// `pairs[offsets[v * radius + d - 1]..offsets[v * radius + d]]`, the
/// `(label, nodes with that label within d hops)` pairs sorted by label.
/// Every node has all `radius` layers; past its eccentricity a layer
/// repeats the one before it.
#[derive(Debug)]
struct Signatures {
    radius: usize,
    offsets: Vec<u32>,
    pairs: Vec<(Label, u32)>,
}

impl Signatures {
    /// One BFS per node out to `radius`. The BFS marks visits with the
    /// source's ID in one stamp array shared by all sources, and counts
    /// labels in a dense array indexed by label rank (labels are
    /// arbitrary `u32`s, up to the overlay's tombstone `u32::MAX`), so the
    /// build allocates nothing per node.
    fn build(g: &Graph, radius: usize) -> Self {
        let n = g.node_count();
        let mut by_rank: Vec<Label> = g.labels().to_vec();
        by_rank.sort_unstable();
        by_rank.dedup();
        let rank: Vec<u32> = g
            .labels()
            .iter()
            .map(|l| by_rank.binary_search(l).expect("a label of the graph") as u32)
            .collect();
        let mut counts = vec![0u32; by_rank.len()];
        // Ranks with a nonzero count in the current BFS.
        let mut touched: Vec<u32> = Vec::new();
        let mut stamp = vec![NodeId::MAX; n];
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        let mut offsets = Vec::with_capacity(n * radius + 1);
        offsets.push(0);
        let mut pairs = Vec::new();
        for v in 0..n as NodeId {
            stamp[v as usize] = v;
            frontier.clear();
            frontier.push(v);
            for _ in 0..radius {
                next.clear();
                for &u in &frontier {
                    for &x in g.neighbors(u) {
                        if stamp[x as usize] != v {
                            stamp[x as usize] = v;
                            let r = rank[x as usize];
                            if counts[r as usize] == 0 {
                                touched.push(r);
                            }
                            counts[r as usize] += 1;
                            next.push(x);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                // Rank order is label order.
                touched.sort_unstable();
                pairs.extend(touched.iter().map(|&r| (by_rank[r as usize], counts[r as usize])));
                offsets.push(u32::try_from(pairs.len()).expect("signature pairs fit in u32"));
            }
            for &r in &touched {
                counts[r as usize] = 0;
            }
            touched.clear();
        }
        Self { radius, offsets, pairs }
    }

    /// Layer `d` (`1..=radius`) of node `v`.
    #[inline]
    fn layer(&self, v: NodeId, d: usize) -> &[(Label, u32)] {
        let k = v as usize * self.radius + d - 1;
        &self.pairs[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Whether query node `u`'s signature fits under target node `v`'s at
    /// every distance: each label's cumulative count in the query layer is
    /// at most the target's. Both signatures have the same radius.
    fn fits(&self, u: NodeId, target: &Signatures, v: NodeId) -> bool {
        debug_assert_eq!(self.radius, target.radius);
        (1..=self.radius).all(|d| layer_fits(self.layer(u, d), target.layer(v, d)))
    }
}

/// Merge walk of two label-sorted layers: every query label must appear in
/// the target layer with at least the query's count.
fn layer_fits(query: &[(Label, u32)], target: &[(Label, u32)]) -> bool {
    if query.len() > target.len() {
        return false;
    }
    let mut target = target.iter();
    query.iter().all(|&(l, qc)| {
        target.by_ref().find(|&&(tl, _)| tl >= l).is_some_and(|&(tl, tc)| tl == l && qc <= tc)
    })
}

impl Matcher for SPath {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SPath
    }

    fn index(&self) -> &Arc<TargetIndex> {
        &self.index
    }

    fn slice_session<'a>(
        &'a self,
        query: &'a Graph,
        view: GraphView<'a>,
        budget: &SearchBudget,
    ) -> SliceSetup<'a> {
        kernel::slice_session(self, query, view.with_default_index(&self.index), budget)
    }
}

/// The path order as a plan with edge-by-edge verification: a vertex
/// with an earlier-bound neighbour (the first in adjacency order) extends
/// through that neighbour's image and keeps only its own candidates; a
/// path start draws from its candidate list.
impl Planner for SPath {
    type Hook = ();

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        clock: &mut BudgetClock<'_>,
        _: &mut SearchStats,
    ) -> Result<Plan<'a, ()>, StopReason> {
        let mut cands = self.candidates(query, view, clock)?;
        if cands.iter().any(|c| c.is_empty()) {
            return Err(StopReason::Complete);
        }
        let order = self.path_order(query, &cands);
        let mut bound = vec![false; query.node_count()];
        let steps = order
            .into_iter()
            .map(|qv| {
                let anchor = query.neighbors(qv).iter().copied().find(|&qn| bound[qn as usize]);
                bound[qv as usize] = true;
                let domain = Cow::Owned(std::mem::take(&mut cands[qv as usize]));
                match anchor {
                    Some(qn) => {
                        Step { in_domain: true, ..Step::new(qv, Source::Neighbor(qn), domain) }
                    }
                    None => Step::new(qv, Source::Domain, domain),
                }
            })
            .collect();
        Ok(Plan::new(query, steps, ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::matcher::{is_valid_embedding, Embedding};
    use psi_delta::TOMBSTONE_LABEL;
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use psi_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::hash_map::{Entry, HashMap};

    fn spa(t: Graph) -> SPath {
        SPath::prepare(Arc::new(t))
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    /// Reference signature: cumulative label counts per BFS distance,
    /// `sig[d-1]` holding sorted `(label, count-of-nodes-within-distance-d)`
    /// pairs, built with hash maps.
    type DistanceSignature = Vec<Vec<(Label, u32)>>;

    /// Reference BFS out to `radius`, one hash map per distance.
    fn distance_signature(g: &Graph, v: NodeId, radius: usize) -> DistanceSignature {
        let mut counts: Vec<HashMap<Label, u32>> = vec![HashMap::new(); radius];
        let mut dist: HashMap<NodeId, usize> = HashMap::new();
        dist.insert(v, 0);
        let mut frontier = vec![v];
        for d in 1..=radius {
            let mut next = Vec::new();
            for &u in &frontier {
                for &nb in g.neighbors(u) {
                    if let Entry::Vacant(e) = dist.entry(nb) {
                        e.insert(d);
                        *counts[d - 1].entry(g.label(nb)).or_insert(0) += 1;
                        next.push(nb);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        // Cumulate: distance ≤ d.
        let mut out: DistanceSignature = Vec::with_capacity(radius);
        let mut acc: HashMap<Label, u32> = HashMap::new();
        for layer in counts {
            for (l, c) in layer {
                *acc.entry(l).or_insert(0) += c;
            }
            let mut flat: Vec<(Label, u32)> = acc.iter().map(|(&l, &c)| (l, c)).collect();
            flat.sort_unstable();
            out.push(flat);
        }
        out
    }

    /// Reference fit: per label binary search at every distance.
    fn signature_fits(qsig: &DistanceSignature, tsig: &DistanceSignature) -> bool {
        qsig.iter().zip(tsig).all(|(qlayer, tlayer)| {
            qlayer.iter().all(|&(l, qc)| {
                let tc = tlayer
                    .binary_search_by_key(&l, |&(tl, _)| tl)
                    .map(|i| tlayer[i].1)
                    .unwrap_or(0);
                qc <= tc
            })
        })
    }

    /// A seeded random graph of two components with no edge between them
    /// plus two isolated nodes, labelled from a pool that includes values
    /// near `u32::MAX` and the overlay's tombstone.
    fn split_graph(rng: &mut ChaCha8Rng) -> Graph {
        const LABELS: [Label; 6] = [0, 3, 7, u32::MAX - 2, u32::MAX - 1, TOMBSTONE_LABEL];
        let half = rng.random_range(1..12usize);
        let n = 2 * half + 2;
        let labels: Vec<Label> =
            (0..n).map(|_| LABELS[rng.random_range(0..LABELS.len())]).collect();
        let mut b = GraphBuilder::new();
        b.add_nodes(&labels);
        for _ in 0..rng.random_range(0..=3 * half) {
            let base = if rng.random_bool(0.5) { 0 } else { half };
            let u = (base + rng.random_range(0..half)) as NodeId;
            let v = (base + rng.random_range(0..half)) as NodeId;
            if u != v {
                b.add_edge(u, v).expect("distinct endpoints");
            }
        }
        b.build().expect("endpoints in range")
    }

    #[test]
    fn distance_signature_of_path() {
        // 0 -1- 2 -3 chain labels a,b,c,d
        let g = graph_from_parts(&[10, 11, 12, 13], &[(0, 1), (1, 2), (2, 3)]);
        let sigs = Signatures::build(&g, 4);
        assert_eq!(sigs.layer(0, 1), [(11, 1)]); // within distance 1
        assert_eq!(sigs.layer(0, 2), [(11, 1), (12, 1)]); // within 2
        assert_eq!(sigs.layer(0, 3), [(11, 1), (12, 1), (13, 1)]);
        // Radius 4 exceeds eccentricity; the cumulative layer just repeats.
        assert_eq!(sigs.layer(0, 4), sigs.layer(0, 3));
        assert_eq!(sigs.layer(3, 1), [(12, 1)]);
        assert_eq!(sigs.offsets.len(), 4 * 4 + 1);
    }

    #[test]
    fn signature_fits_cumulative_rule() {
        // Needs two label-1 within the distance.
        assert!(layer_fits(&[(1, 2)], &[(1, 2), (2, 1)]));
        assert!(!layer_fits(&[(1, 2)], &[(1, 1), (2, 5)]));
        // A query label the target lacks fails, before or after its labels.
        assert!(!layer_fits(&[(0, 1)], &[(1, 1), (2, 1)]));
        assert!(!layer_fits(&[(1, 1), (3, 1)], &[(1, 1), (2, 1)]));
        assert!(!layer_fits(&[(1, 1), (2, 1)], &[(1, 1)]));
        // A query with no demands at a distance fits anything there.
        assert!(layer_fits(&[], &[]));
        assert!(layer_fits(&[], &[(1, 1)]));
        assert!(layer_fits(
            &[(2, 1), (TOMBSTONE_LABEL, 3)],
            &[(1, 1), (2, 4), (TOMBSTONE_LABEL, 3)]
        ));
    }

    #[test]
    fn flat_signatures_match_the_hash_map_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        for case in 0..60 {
            let g = split_graph(&mut rng);
            for radius in 1..=6 {
                let sigs = Signatures::build(&g, radius);
                assert_eq!(sigs.offsets.len(), g.node_count() * radius + 1);
                for v in g.nodes() {
                    let want = distance_signature(&g, v, radius);
                    for d in 1..=radius {
                        assert_eq!(sigs.layer(v, d), want[d - 1], "case {case} r {radius} v {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_match_the_reference_signature_filter() {
        let mut rng = ChaCha8Rng::seed_from_u64(977);
        let budget = SearchBudget::unlimited();
        for case in 0..40 {
            let t = split_graph(&mut rng);
            let q = split_graph(&mut rng);
            for radius in [1, 2, 4, 6] {
                let m = SPath::with_params(Arc::new(t.clone()), radius, DEFAULT_MAX_PATH_LEN);
                let mut clock = budget.start();
                let got = m.candidates(&q, GraphView::of_index(&m.index), &mut clock).unwrap();
                let want: Vec<Vec<NodeId>> = q
                    .nodes()
                    .map(|u| {
                        let qsig = distance_signature(&q, u, radius);
                        m.index
                            .candidates(q.label(u))
                            .iter()
                            .copied()
                            .filter(|&v| {
                                q.degree(u) <= t.degree(v)
                                    && signature_fits(&qsig, &distance_signature(&t, v, radius))
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(got, want, "case {case} radius {radius}");
            }
        }
    }

    #[test]
    fn triangle_vs_path_distance_pruning() {
        // Distance signatures let sPath reject mapping a node that needs
        // 2 label-2 nodes within distance 1 onto one that has them at
        // distance 2.
        let t = graph_from_parts(&[1, 2, 2], &[(0, 1), (1, 2)]); // path: 2 at dist 2
        let m = spa(t);
        let q = graph_from_parts(&[1, 2, 2], &[(0, 1), (0, 2)]); // star
        let r = m.search(&q, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 0);
        assert_eq!(r.stats.nodes_expanded, 0, "signature filter should preempt search");
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(606);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(12, 20, &labels, &mut rng);
            let q = random_connected_graph(5, 6, &labels, &mut rng);
            let m = spa(t.clone());
            let got = m.search(&q, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "case {i}");
        }
    }

    #[test]
    fn path_order_covers_all_vertices_once() {
        let t = graph_from_parts(&[0; 2], &[(0, 1)]);
        let m = spa(t);
        let q =
            graph_from_parts(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let cands: Vec<Vec<NodeId>> = vec![vec![0, 1]; 6];
        let order = m.path_order(&q, &cands);
        let mut sorted_order = order.clone();
        sorted_order.sort_unstable();
        assert_eq!(sorted_order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn path_order_handles_isolated_vertices() {
        let t = graph_from_parts(&[0], &[]);
        let m = spa(t);
        let q = graph_from_parts(&[0, 0, 0], &[(0, 1)]); // 2 isolated
        let cands: Vec<Vec<NodeId>> = vec![vec![0], vec![0], vec![0]];
        let order = m.path_order(&q, &cands);
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], 2, "isolated vertex should come last");
    }

    #[test]
    fn embeddings_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(25, 50, &labels, &mut rng);
        let q = random_connected_graph(5, 5, &labels, &mut rng);
        let m = spa(t.clone());
        let r = m.search(&q, &SearchBudget::paper_default());
        for e in &r.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn match_cap() {
        let t = graph_from_parts(&[0; 10], &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let m = spa(t);
        let q = graph_from_parts(&[0, 0], &[(0, 1)]);
        let r = m.search(&q, &SearchBudget::with_max_matches(7));
        assert_eq!(r.num_matches, 7);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn matcher_trait_and_params() {
        let t = Arc::new(graph_from_parts(&[0, 1], &[(0, 1)]));
        let m = SPath::prepare(Arc::clone(&t));
        assert_eq!(m.algorithm(), Algorithm::SPath);
        assert_eq!(m.radius(), DEFAULT_RADIUS);
        let m2 = SPath::with_params(t, 2, 3);
        assert_eq!(m2.radius(), 2);
        assert!(m2.contains(&graph_from_parts(&[0, 1], &[(0, 1)])));
    }

    #[test]
    fn radius_one_still_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(10, 14, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let m = SPath::with_params(Arc::new(t.clone()), 1, 2);
        let got = m.search(&q, &SearchBudget::unlimited());
        let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
        assert_eq!(sorted(got.embeddings), sorted(want.embeddings));
    }

    #[test]
    fn empty_query() {
        let t = graph_from_parts(&[0], &[]);
        assert_eq!(
            spa(t).search(&graph_from_parts(&[], &[]), &SearchBudget::unlimited()).num_matches,
            1
        );
    }
}
