//! GraphQL (He & Singh — SIGMOD 2008), "GQL" in the paper.
//!
//! §3.1.2: "In the indexing phase ... the labels of all vertices along with
//! the neighbourhood signatures, which capture the labels of neighbouring
//! nodes ... are indexed. In the subgraph matching phase, the algorithm
//! starts by retrieving all possible matches for each node in the pattern.
//! Subsequently, 3 rules are applied to prune the search space. First, the
//! indexed vertex labels and neighbourhood signatures are used to \[prune\]
//! infeasible matches. Then a pseudo subgraph isomorphism algorithm is
//! applied iteratively up to level l; i.e., for every pair of possible
//! graph-query vertex matches, the nodes adjacent to the query node should
//! be matched to the corresponding neighbours of the graph \[node\]. Finally,
//! the algorithm ... optimize\[s\] the search order ... based on an estimation
//! of the result-set size of intermediate joins; only left-deep query plans
//! are considered."
//!
//! The pseudo-isomorphism check is a bipartite semi-perfect matching between
//! the query node's neighbors and the target node's neighbors (Kuhn's
//! algorithm); it runs for [`GraphQl::refine_level`] iterations (paper
//! default r = 4).

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, Matcher, SearchStats};
use crate::scratch;
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::{Graph, Label, NodeId, TargetIndex};
use std::borrow::Cow;
use std::sync::Arc;

/// Paper default refinement level ("refined level of iterations of
/// pseudo-subgraph isomorphism r = 4", §3.2).
pub const DEFAULT_REFINE_LEVEL: usize = 4;

/// Per-join-edge selectivity used by the left-deep plan cost estimate: each
/// edge joining the next vertex to the partial plan is assumed to keep this
/// fraction of candidate combinations.
const JOIN_SELECTIVITY: f64 = 0.5;

/// GraphQL prepared over a stored graph. The neighborhood signatures and
/// label lists GraphQL indexes are exactly the shared [`TargetIndex`]'s
/// structures — computed once per stored graph at matcher construction
/// (never inside `search`), and shared with every other matcher when the
/// index is. `search` only ever computes the *query's* signatures, which
/// necessarily vary per call.
#[derive(Debug)]
pub struct GraphQl {
    index: Arc<TargetIndex>,
    /// Number of pseudo-iso refinement iterations.
    refine_level: usize,
}

impl GraphQl {
    /// Runs GraphQL's indexing phase with the paper-default refinement
    /// level (4), building a private [`TargetIndex`]. Prefer
    /// [`GraphQl::with_index`] when matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_refine_level(target, DEFAULT_REFINE_LEVEL)
    }

    /// Indexing phase with an explicit pseudo-iso refinement level.
    pub fn with_refine_level(target: Arc<Graph>, refine_level: usize) -> Self {
        Self { index: Arc::new(TargetIndex::build(target)), refine_level }
    }

    /// Indexed constructor path: the signatures/label lists are the
    /// shared index; nothing further to precompute.
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        Self { index, refine_level: DEFAULT_REFINE_LEVEL }
    }

    /// The configured pseudo-iso refinement level.
    pub fn refine_level(&self) -> usize {
        self.refine_level
    }

    /// Rule 1: initial candidate lists by label + signature containment.
    /// Target signatures are index lookups (built once at construction);
    /// only the query's signatures are computed here. The 64-bit
    /// label-mask pre-filter rejects most infeasible candidates before
    /// the multiset walk. Ticks the budget clock
    /// so racing cancellation reaches even the pre-search phase promptly.
    fn initial_candidates(
        &self,
        query: &Graph,
        view: GraphView<'_>,
        clock: &mut BudgetClock<'_>,
    ) -> Result<Vec<Vec<NodeId>>, StopReason> {
        let qsigs: Vec<Vec<Label>> =
            (0..query.node_count() as NodeId).map(|u| signature(query, u)).collect();
        let mut out = Vec::with_capacity(query.node_count());
        for u in 0..query.node_count() as NodeId {
            let qsig = &qsigs[u as usize];
            let qmask = TargetIndex::mask_of(qsig);
            let qdeg = query.degree(u);
            let mut cands = Vec::new();
            for &v in view.candidates(query.label(u)) {
                if let Some(r) = clock.tick() {
                    return Err(r);
                }
                if qdeg > view.degree(v) {
                    continue;
                }
                // Mask subset is necessary for multiset containment, so
                // the pre-filter never changes the candidate set — it
                // only skips doomed multiset walks.
                if qmask & !view.label_mask(v) != 0 {
                    continue;
                }
                if multiset_contains(view.signature(v), qsig) {
                    cands.push(v);
                }
            }
            out.push(cands);
        }
        Ok(out)
    }

    /// Rule 2: iterated pseudo sub-iso refinement. Removes candidate `v`
    /// for query node `u` unless the neighbors of `u` can be matched
    /// one-to-one into *distinct* candidate neighbors of `v`.
    fn refine(
        &self,
        query: &Graph,
        view: GraphView<'_>,
        cands: &mut [Vec<NodeId>],
        clock: &mut BudgetClock<'_>,
        stats: &mut SearchStats,
    ) -> Result<(), StopReason> {
        let nq = query.node_count();
        let nt = view.node_count();
        // Membership matrix for O(1) "is v a candidate of u" checks.
        let mut member = scratch::bool_buf(nq * nt);
        for (u, c) in cands.iter().enumerate() {
            for &v in c {
                member[u * nt + v as usize] = true;
            }
        }
        let mut kuhn = Kuhn::default();
        for _level in 0..self.refine_level {
            let mut changed = false;
            for u in 0..nq {
                let qn: &[NodeId] = query.neighbors(u as NodeId);
                if qn.is_empty() {
                    continue;
                }
                // Survivors are compacted in place, in their original order.
                let mut kept = 0;
                for i in 0..cands[u].len() {
                    if let Some(r) = clock.tick() {
                        return Err(r);
                    }
                    let v = cands[u][i];
                    if kuhn.match_exists(qn, view.neighbors(v), |q2, t2| {
                        member[q2 as usize * nt + t2 as usize]
                    }) {
                        cands[u][kept] = v;
                        kept += 1;
                    } else {
                        member[u * nt + v as usize] = false;
                        stats.candidates_pruned += 1;
                        changed = true;
                    }
                }
                cands[u].truncate(kept);
            }
            if !changed {
                break;
            }
        }
        Ok(())
    }

    /// Rule 3: left-deep join order. Greedy: start from the smallest
    /// candidate list; repeatedly append the vertex minimizing the estimated
    /// intermediate result growth `|C(u)| * JOIN_SELECTIVITY^(edges to
    /// chosen)`, preferring connected vertices and breaking ties by node ID.
    fn plan_order(&self, query: &Graph, cands: &[Vec<NodeId>]) -> Vec<NodeId> {
        let nq = query.node_count();
        let mut order: Vec<NodeId> = Vec::with_capacity(nq);
        let mut chosen = vec![false; nq];
        for step in 0..nq {
            let mut best: Option<(u8, f64, NodeId)> = None; // (disconnected?, cost, id)
            for u in 0..nq as NodeId {
                if chosen[u as usize] {
                    continue;
                }
                let links =
                    query.neighbors(u).iter().filter(|&&n| chosen[n as usize]).count() as i32;
                let disconnected = u8::from(step > 0 && links == 0);
                let cost = cands[u as usize].len() as f64 * JOIN_SELECTIVITY.powi(links);
                let better = match best {
                    None => true,
                    Some((bd, bc, _)) => (disconnected, cost) < (bd, bc),
                };
                if better {
                    best = Some((disconnected, cost, u));
                }
            }
            let (_, _, u) = best.expect("step < nq leaves an unchosen vertex");
            chosen[u as usize] = true;
            order.push(u);
        }
        order
    }
}

/// Sorted neighbor-label multiset of `v`.
fn signature(g: &Graph, v: NodeId) -> Vec<Label> {
    let mut s: Vec<Label> = g.neighbors(v).iter().map(|&n| g.label(n)).collect();
    s.sort_unstable();
    s
}

/// Whether sorted multiset `needle` is contained in sorted multiset `hay`.
fn multiset_contains(hay: &[Label], needle: &[Label]) -> bool {
    let mut i = 0;
    for &x in needle {
        loop {
            if i >= hay.len() {
                return false;
            }
            if hay[i] == x {
                i += 1;
                break;
            }
            if hay[i] > x {
                return false;
            }
            i += 1;
        }
    }
    true
}

/// Kuhn's augmenting-path bipartite matching with its working memory:
/// one refinement pass calls it once per (query vertex, candidate), so the
/// two arrays are owned by the pass and only cleared and resized per call.
#[derive(Debug, Default)]
struct Kuhn {
    /// Left index matched to each right index (`usize::MAX`: free).
    match_right: Vec<usize>,
    /// Right indices tried in the current augmenting search.
    visited: Vec<bool>,
}

impl Kuhn {
    /// Can every node of `left` be matched to a *distinct* node of `right`
    /// where `feasible(l, r)` holds?
    fn match_exists(
        &mut self,
        left: &[NodeId],
        right: &[NodeId],
        feasible: impl Fn(NodeId, NodeId) -> bool,
    ) -> bool {
        if left.len() > right.len() {
            return false;
        }
        let Self { match_right, visited } = self;
        match_right.clear();
        match_right.resize(right.len(), usize::MAX);
        visited.resize(right.len(), false);
        (0..left.len()).all(|l| {
            visited.fill(false);
            augment(l, left, right, &feasible, match_right, visited)
        })
    }
}

/// One augmenting-path search from left index `l`.
fn augment(
    l: usize,
    left: &[NodeId],
    right: &[NodeId],
    feasible: &impl Fn(NodeId, NodeId) -> bool,
    match_right: &mut [usize],
    visited: &mut [bool],
) -> bool {
    for r in 0..right.len() {
        if visited[r] || !feasible(left[l], right[r]) {
            continue;
        }
        visited[r] = true;
        if match_right[r] == usize::MAX
            || augment(match_right[r], left, right, feasible, match_right, visited)
        {
            match_right[r] = l;
            return true;
        }
    }
    false
}

impl Matcher for GraphQl {
    fn algorithm(&self) -> Algorithm {
        Algorithm::GraphQl
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

/// Rules 1–3 as a plan: every step draws from its refined candidate list,
/// in join order. Slice tasks each run this prework; it is deterministic,
/// so every task computes the same plan and the same slice domain.
impl Planner for GraphQl {
    type Hook = ();

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        clock: &mut BudgetClock<'_>,
        stats: &mut SearchStats,
    ) -> Result<Plan<'a, ()>, StopReason> {
        let mut cands = self.initial_candidates(query, view, clock)?;
        if cands.iter().any(|c| c.is_empty()) {
            return Err(StopReason::Complete);
        }
        self.refine(query, view, &mut cands, clock, stats)?;
        if cands.iter().any(|c| c.is_empty()) {
            return Err(StopReason::Complete);
        }
        let order = self.plan_order(query, &cands);
        let steps = order
            .into_iter()
            .map(|qv| {
                let domain = Cow::Owned(std::mem::take(&mut cands[qv as usize]));
                Step::new(qv, Source::Domain, domain)
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
    use proptest::prelude::*;
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gql(t: Graph) -> GraphQl {
        GraphQl::prepare(Arc::new(t))
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    #[test]
    fn multiset_contains_works() {
        assert!(multiset_contains(&[1, 1, 2, 3], &[1, 2]));
        assert!(multiset_contains(&[1, 1, 2, 3], &[1, 1]));
        assert!(!multiset_contains(&[1, 2, 3], &[1, 1]));
        assert!(!multiset_contains(&[1, 2], &[4]));
        assert!(multiset_contains(&[1, 2], &[]));
        assert!(!multiset_contains(&[], &[1]));
    }

    #[test]
    fn bipartite_matching_basic() {
        let mut kuhn = Kuhn::default();
        // left {0,1} each feasible only with right {5}: no injective match.
        assert!(!kuhn.match_exists(&[0, 1], &[5, 6], |_, r| r == 5));
        // distinct options: ok.
        assert!(kuhn.match_exists(&[0, 1], &[5, 6], |l, r| (l == 0) == (r == 5)));
        // augmenting path required: 0 can take 5 or 6, 1 only 5.
        assert!(kuhn.match_exists(&[0, 1], &[5, 6], |l, r| l == 0 || r == 5));
        assert!(!kuhn.match_exists(&[0, 1, 2], &[5, 6], |_, _| true));
    }

    /// A `(left, right, feasible)` triple: `left` and `right` sizes and a
    /// bit matrix whose bit `l * 10 + r` says left index `l` may take right
    /// index `r`.
    type MatchingCase = (usize, usize, u64);

    fn verdict(kuhn: &mut Kuhn, &(nl, nr, feasible): &MatchingCase) -> bool {
        let left: Vec<NodeId> = (0..nl as NodeId).collect();
        let right: Vec<NodeId> = (100..100 + nr as NodeId).collect();
        kuhn.match_exists(&left, &right, |l, r| feasible >> (l * 10 + r - 100) & 1 == 1)
    }

    proptest! {
        /// A long right side, then a shorter one, through one reused
        /// buffer pair: each verdict equals the verdict from fresh buffers,
        /// so no stale `match_right`/`visited` entry leaks between calls.
        #[test]
        fn reused_matching_buffers_agree_with_fresh(
            cases in proptest::collection::vec((0usize..6, 0usize..10, any::<u64>()), 1..8),
        ) {
            let mut long_first = cases.clone();
            long_first.sort_by_key(|&(_, nr, _)| std::cmp::Reverse(nr));
            let mut reused = Kuhn::default();
            for case in cases.iter().chain(&long_first) {
                prop_assert_eq!(verdict(&mut reused, case), verdict(&mut Kuhn::default(), case));
            }
        }
    }

    #[test]
    fn signature_pruning_rejects_poor_neighborhoods() {
        // Target: label-1 node whose neighbors are labels {2}; query wants
        // a label-1 node with neighbors {2, 3}.
        let t = graph_from_parts(&[1, 2], &[(0, 1)]);
        let m = gql(t);
        let q = graph_from_parts(&[1, 2, 3], &[(0, 1), (0, 2)]);
        let budget = SearchBudget::unlimited();
        let mut clock = budget.start();
        let cands = m.initial_candidates(&q, GraphView::of_index(&m.index), &mut clock).unwrap();
        assert!(cands[0].is_empty(), "signature containment must fail");
    }

    #[test]
    fn refinement_uses_injective_neighbor_matching() {
        // Query center needs two distinct label-2 neighbors; target center
        // has exactly two -> survives; target with one label-2 neighbor and
        // one label-9 neighbor is rejected by rule 1 already, so craft a
        // rule-2 case: neighbors exist but their own candidates are empty.
        let t = graph_from_parts(&[1, 2, 2, 9], &[(0, 1), (0, 2), (0, 3)]);
        let m = gql(t);
        let q = graph_from_parts(&[1, 2, 2], &[(0, 1), (0, 2)]);
        let r = m.search(&q, &SearchBudget::unlimited());
        // center -> 0, the two leaves -> {1,2} in both orders.
        assert_eq!(r.num_matches, 2);
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(808);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(12, 20, &labels, &mut rng);
            let q = random_connected_graph(5, 6, &labels, &mut rng);
            let m = gql(t.clone());
            let got = m.search(&q, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "case {i}");
        }
    }

    #[test]
    fn plan_order_starts_with_most_selective() {
        let mut tb = psi_graph::GraphBuilder::new();
        // 20 label-0 nodes, 1 label-1 node, fully connected star on label-1.
        let hub = tb.add_node(1);
        for _ in 0..20 {
            let v = tb.add_node(0);
            tb.add_edge(hub, v).unwrap();
        }
        let t = tb.build().unwrap();
        let m = gql(t);
        let q = graph_from_parts(&[0, 1], &[(0, 1)]); // node 1 is rare
        let budget = SearchBudget::unlimited();
        let mut clock = budget.start();
        let cands = m.initial_candidates(&q, GraphView::of_index(&m.index), &mut clock).unwrap();
        let order = m.plan_order(&q, &cands);
        assert_eq!(order[0], 1, "rare label-1 vertex should lead the plan");
    }

    #[test]
    fn embeddings_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(25, 50, &labels, &mut rng);
        let q = random_connected_graph(5, 5, &labels, &mut rng);
        let m = gql(t.clone());
        let r = m.search(&q, &SearchBudget::paper_default());
        for e in &r.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn match_cap_honored() {
        let t = graph_from_parts(&[0; 10], &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let m = gql(t);
        let q = graph_from_parts(&[0, 0], &[(0, 1)]);
        let r = m.search(&q, &SearchBudget::with_max_matches(4));
        assert_eq!(r.num_matches, 4);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn refine_level_zero_still_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(10, 15, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let m0 = GraphQl::with_refine_level(Arc::new(t.clone()), 0);
        let got = m0.search(&q, &SearchBudget::unlimited());
        let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
        assert_eq!(sorted(got.embeddings), sorted(want.embeddings));
    }

    #[test]
    fn matcher_trait() {
        let t = Arc::new(graph_from_parts(&[0, 1], &[(0, 1)]));
        let m = GraphQl::prepare(t);
        assert_eq!(m.algorithm(), Algorithm::GraphQl);
        assert_eq!(m.refine_level(), DEFAULT_REFINE_LEVEL);
        assert!(m.contains(&graph_from_parts(&[0, 1], &[(0, 1)])));
    }

    #[test]
    fn empty_query() {
        let t = graph_from_parts(&[0], &[]);
        assert_eq!(
            gql(t).search(&graph_from_parts(&[], &[]), &SearchBudget::unlimited()).num_matches,
            1
        );
    }
}
