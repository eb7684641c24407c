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
use std::collections::HashMap;
use std::sync::Arc;

/// Paper defaults (§3.2): "neighbourhood radius of 4 and maximum path
/// length 4".
pub const DEFAULT_RADIUS: usize = 4;
/// Paper default maximum decomposition path length.
pub const DEFAULT_MAX_PATH_LEN: usize = 4;

/// Cumulative label counts per BFS distance: `counts[d-1]` holds sorted
/// `(label, count-of-nodes-within-distance-d)` pairs.
type DistanceSignature = Vec<Vec<(Label, u32)>>;

/// sPath prepared over a stored graph: the distance-wise signatures are
/// sPath's own (radius-parameterized) index; label lists, degrees and
/// adjacency probes come from the shared [`TargetIndex`].
#[derive(Debug)]
pub struct SPath {
    index: Arc<TargetIndex>,
    /// Per-node cumulative distance-wise signatures.
    signatures: Vec<DistanceSignature>,
    radius: usize,
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
        let target = index.graph();
        let signatures = (0..target.node_count() as NodeId)
            .map(|v| distance_signature(target, v, radius))
            .collect();
        Self { index, signatures, radius, max_path_len }
    }

    /// The configured neighborhood radius.
    pub fn radius(&self) -> usize {
        self.radius
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
        let use_signatures = !view.has_overlay();
        let qsigs: Vec<DistanceSignature> = if use_signatures {
            (0..query.node_count() as NodeId)
                .map(|u| distance_signature(query, u, self.radius))
                .collect()
        } else {
            Vec::new()
        };
        let mut out = Vec::with_capacity(query.node_count());
        for u in 0..query.node_count() as NodeId {
            let mut cands = Vec::new();
            for &v in view.candidates(query.label(u)) {
                if let Some(r) = clock.tick() {
                    return Err(r);
                }
                if query.degree(u) <= view.degree(v)
                    && (!use_signatures
                        || signature_fits(&qsigs[u as usize], &self.signatures[v as usize]))
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

/// BFS out to `radius`, producing cumulative per-distance label counts.
fn distance_signature(g: &Graph, v: NodeId, radius: usize) -> DistanceSignature {
    let mut counts: Vec<HashMap<Label, u32>> = vec![HashMap::new(); radius];
    let mut dist: HashMap<NodeId, usize> = HashMap::new();
    dist.insert(v, 0);
    let mut frontier = vec![v];
    for d in 1..=radius {
        let mut next = Vec::new();
        for &u in &frontier {
            for &nb in g.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(nb) {
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

/// Whether the query signature fits under the target signature at every
/// distance (cumulative counts, per label).
fn signature_fits(qsig: &DistanceSignature, tsig: &DistanceSignature) -> bool {
    for (d, qlayer) in qsig.iter().enumerate() {
        let Some(tlayer) = tsig.get(d) else {
            // Target has no nodes past this distance; query demands some.
            return qlayer.is_empty();
        };
        for &(l, qc) in qlayer {
            let tc =
                tlayer.binary_search_by_key(&l, |&(tl, _)| tl).map(|i| tlayer[i].1).unwrap_or(0);
            if qc > tc {
                return false;
            }
        }
    }
    true
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
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn spa(t: Graph) -> SPath {
        SPath::prepare(Arc::new(t))
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    #[test]
    fn distance_signature_of_path() {
        // 0 -1- 2 -3 chain labels a,b,c,d
        let g = graph_from_parts(&[10, 11, 12, 13], &[(0, 1), (1, 2), (2, 3)]);
        let sig = distance_signature(&g, 0, 4);
        assert_eq!(sig[0], vec![(11, 1)]); // within distance 1
        assert_eq!(sig[1], vec![(11, 1), (12, 1)]); // within 2
        assert_eq!(sig[2], vec![(11, 1), (12, 1), (13, 1)]);
        // Radius 4 exceeds eccentricity; the cumulative layer just repeats.
        assert_eq!(sig.len(), 4);
        assert_eq!(sig[3], sig[2]);
    }

    #[test]
    fn signature_fits_cumulative_rule() {
        let q = vec![vec![(1, 2)]]; // needs two label-1 within distance 1
        let t_good = vec![vec![(1, 2), (2, 1)]];
        let t_bad = vec![vec![(1, 1), (2, 5)]];
        assert!(signature_fits(&q, &t_good));
        assert!(!signature_fits(&q, &t_bad));
        // Query demanding nodes beyond target's reach fails.
        let q_deep = vec![vec![(1, 1)], vec![(1, 1), (2, 1)]];
        let t_shallow = vec![vec![(1, 1)]];
        assert!(!signature_fits(&q_deep, &t_shallow));
        // ... unless the query has no demands there either.
        let q_shallow = vec![vec![(1, 1)], vec![]];
        assert!(signature_fits(&q_shallow, &t_shallow));
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
