//! VF2 (Cordella, Foggia, Sansone, Vento — TPAMI 2004).
//!
//! The underlying isomorphism algorithm of both Grapes and GGSX (§3.1.1 of
//! the paper). VF2 keeps a partial mapping plus "terminal sets" (unmatched
//! nodes adjacent to the mapping) on both sides, and extends the mapping one
//! pair at a time with three pruning rules:
//!
//! 1. consistency — the candidate target node must be adjacent to the images
//!    of the candidate query node's already-matched neighbors (with matching
//!    edge labels);
//! 2. terminal lookahead — the candidate query node must not have more
//!    unmatched neighbors *in the terminal set* than the candidate target
//!    node does;
//! 3. new-node lookahead — ditto for unmatched neighbors *outside* the
//!    terminal set.
//!
//! (For non-induced matching, both lookaheads are `≤` comparisons.)
//!
//! VF2 "does not define any order in which query vertices are selected"
//! (§3.1.1): like the reference implementation, we pick the **lowest-ID**
//! query vertex in the terminal set, which is exactly why permuting query
//! node IDs (the paper's rewritings) changes VF2's search and runtime.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, label_domain, Hook, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, MatchResult, Matcher, SearchStats};
use crate::scratch;
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::{Graph, NodeId, TargetIndex};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// VF2 prepared over a stored graph. VF2 itself needs no algorithm-
/// specific preprocessing; an indexed instance probes the shared
/// [`TargetIndex`] for root candidates and adjacency.
#[derive(Debug, Clone)]
pub struct Vf2 {
    index: Arc<TargetIndex>,
}

impl Vf2 {
    /// Wraps a stored graph, building a private [`TargetIndex`]. Prefer
    /// [`Vf2::with_index`] when several matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_index(Arc::new(TargetIndex::build(target)))
    }

    /// Indexed constructor path: shares an already-built [`TargetIndex`].
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        Self { index }
    }
}

impl Matcher for Vf2 {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Vf2
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
        kernel::slice_session(&Vf2Planner, query, view.with_default_index(&self.index), budget)
    }
}

/// Runs VF2 directly on a (query, target) pair without constructing a
/// [`Vf2`] value. The FTV systems call this per candidate graph / extracted
/// component; without an index, root candidates come from one label scan.
pub fn vf2_search(query: &Graph, target: &Graph, budget: &SearchBudget) -> MatchResult {
    let start = Instant::now();
    let setup = kernel::slice_session(&Vf2Planner, query, GraphView::of_graph(target), budget);
    kernel::run_whole(setup, budget, start)
}

/// VF2's prework. Which query vertices are matched at a given depth does
/// not depend on their images, so the lowest-ID terminal-set order is
/// fixed per query and computed up front.
struct Vf2Planner;

impl Planner for Vf2Planner {
    type Hook = Lookahead;

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        _: &mut BudgetClock<'_>,
        _: &mut SearchStats,
    ) -> Result<Plan<'a, Lookahead>, StopReason> {
        let n = query.node_count();
        let mut matched = vec![false; n];
        // Unmatched vertices adjacent to the mapping: the terminal set.
        let mut terminal = vec![false; n];
        let mut steps = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            // The lowest-ID terminal vertex, else the lowest-ID unmatched
            // one (start of search, or a new query component).
            let unmatched = || (0..n).filter(|&v| !matched[v]);
            let (v, anchored) = match unmatched().find(|&v| terminal[v]) {
                Some(v) => (v, true),
                None => (unmatched().next().expect("an unmatched vertex remains"), false),
            };
            let qv = v as NodeId;
            let label = query.label(qv);
            let step = if anchored {
                Step::new(qv, Source::SmallestNeighbor, Cow::Borrowed(&[]))
            } else {
                Step::new(qv, Source::Domain, label_domain(view, label))
            };
            steps.push(Step { label: Some(label), ..step });
            let unmatched = query.neighbors(qv).iter().filter(|&&qn| !matched[qn as usize]);
            let in_terminal = unmatched.clone().filter(|&&qn| terminal[qn as usize]).count();
            counts.push((in_terminal, unmatched.count() - in_terminal));
            matched[v] = true;
            for &qn in query.neighbors(qv) {
                terminal[qn as usize] = true;
            }
        }
        let lookahead = Lookahead { query: counts, tin: scratch::u32_buf(view.node_count(), 0) };
        Ok(Plan::new(query, steps, lookahead))
    }
}

/// Rules 2 and 3: the terminal-set lookahead.
struct Lookahead {
    /// Per step: the step vertex's unmatched query neighbours inside and
    /// outside the terminal set.
    query: Vec<(usize, usize)>,
    /// Depth (1-based) at which each target vertex entered the terminal
    /// region (bound, or adjacent to a bound vertex); 0 = outside.
    tin: scratch::U32Buf,
}

impl Hook for Lookahead {
    fn feasible(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>, used: &[bool]) -> bool {
        let (q_term, q_new) = self.query[depth];
        let (mut t_term, mut t_new) = (0usize, 0usize);
        for &tn in view.neighbors(tv) {
            if !used[tn as usize] {
                if self.tin[tn as usize] != 0 {
                    t_term += 1;
                } else {
                    t_new += 1;
                }
            }
        }
        // Non-induced: the target may have extras, the query may not
        // exceed. A "new" query neighbour can also map onto a terminal
        // target neighbour, so the second comparison bounds the total.
        q_term <= t_term && q_term + q_new <= t_term + t_new
    }

    fn bind(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>) {
        let d = depth as u32 + 1;
        for &t in std::iter::once(&tv).chain(view.neighbors(tv)) {
            if self.tin[t as usize] == 0 {
                self.tin[t as usize] = d;
            }
        }
    }

    fn release(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>) {
        // Only `tv` and its neighbours can carry this depth's mark.
        let d = depth as u32 + 1;
        for &t in std::iter::once(&tv).chain(view.neighbors(tv)) {
            if self.tin[t as usize] == d {
                self.tin[t as usize] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::matcher::{is_valid_embedding, Embedding};
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use psi_graph::Permutation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    #[test]
    fn agrees_with_bruteforce_on_small_cases() {
        let cases: Vec<(Graph, Graph)> = vec![
            (graph_from_parts(&[0, 1], &[(0, 1)]), graph_from_parts(&[0, 1, 0], &[(0, 1), (1, 2)])),
            (
                graph_from_parts(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]),
                graph_from_parts(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 0), (0, 3)]),
            ),
            (
                graph_from_parts(&[1, 2, 1], &[(0, 1), (1, 2)]),
                graph_from_parts(&[1, 2, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            ),
        ];
        for (q, t) in cases {
            let got = vf2_search(&q, &t, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "q={q:?} t={t:?}");
            assert_eq!(got.stop, StopReason::Complete);
        }
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(10, 16, &labels, &mut rng);
            let q = random_connected_graph(4, 4, &labels, &mut rng);
            let got = vf2_search(&q, &t, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(
                sorted(got.embeddings),
                sorted(want.embeddings),
                "case {i}: q={q:?} t={t:?}"
            );
        }
    }

    #[test]
    fn disconnected_query_supported() {
        let t = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
        let q = graph_from_parts(&[0, 0], &[]); // two isolated label-0 nodes
        let got = vf2_search(&q, &t, &SearchBudget::unlimited());
        let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
        assert_eq!(sorted(got.embeddings), sorted(want.embeddings));
        assert_eq!(got.num_matches, 2); // (0,2) and (2,0)
    }

    #[test]
    fn embeddings_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(20, 40, &labels, &mut rng);
        let q = random_connected_graph(5, 6, &labels, &mut rng);
        let got = vf2_search(&q, &t, &SearchBudget::unlimited());
        for e in &got.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn first_match_budget_stops_early() {
        let t = graph_from_parts(&[0; 8], &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let q = graph_from_parts(&[0, 0], &[(0, 1)]);
        let r = vf2_search(&q, &t, &SearchBudget::first_match());
        assert_eq!(r.num_matches, 1);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn quick_reject_on_size() {
        let t = graph_from_parts(&[0], &[]);
        let q = graph_from_parts(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let r = vf2_search(&q, &t, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 0);
        assert_eq!(r.stop, StopReason::Complete);
        assert_eq!(r.stats.nodes_expanded, 0);
    }

    #[test]
    fn matcher_trait_roundtrip() {
        let t = Arc::new(graph_from_parts(&[0, 1, 0], &[(0, 1), (1, 2)]));
        let m = Vf2::prepare(t);
        assert_eq!(m.algorithm(), Algorithm::Vf2);
        let q = graph_from_parts(&[0, 1], &[(0, 1)]);
        assert!(m.contains(&q));
        let q_missing = graph_from_parts(&[2], &[]);
        assert!(!m.contains(&q_missing));
    }

    #[test]
    fn isomorphic_rewriting_preserves_answer() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        let t = random_connected_graph(15, 30, &labels, &mut rng);
        let q = random_connected_graph(5, 6, &labels, &mut rng);
        let orig = vf2_search(&q, &t, &SearchBudget::unlimited());
        for seed in 0..5 {
            let mut prng = ChaCha8Rng::seed_from_u64(seed);
            let p = Permutation::random(q.node_count(), &mut prng);
            let q2 = p.apply_to(&q);
            let rewritten = vf2_search(&q2, &t, &SearchBudget::unlimited());
            assert_eq!(orig.num_matches, rewritten.num_matches, "seed {seed}");
        }
    }

    #[test]
    fn rewriting_changes_search_order() {
        // A query whose node 0 is a rare label vs one whose node 0 is a
        // frequent label should expand different numbers of nodes: ID order
        // is load-bearing.
        let mut tb = psi_graph::GraphBuilder::new();
        // Target: 30 label-0 nodes in a chain, one label-1 node hanging off.
        let n0 = tb.add_node(1);
        let mut prev = tb.add_node(0);
        tb.add_edge(n0, prev).unwrap();
        for _ in 0..29 {
            let nxt = tb.add_node(0);
            tb.add_edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let t = tb.build().unwrap();

        // Query: rare label 1 attached to a frequent label 0.
        let q_rare_first = graph_from_parts(&[1, 0], &[(0, 1)]);
        let q_freq_first = graph_from_parts(&[0, 1], &[(0, 1)]);
        let r1 = vf2_search(&q_rare_first, &t, &SearchBudget::unlimited());
        let r2 = vf2_search(&q_freq_first, &t, &SearchBudget::unlimited());
        assert_eq!(r1.num_matches, r2.num_matches);
        assert!(
            r1.stats.nodes_expanded < r2.stats.nodes_expanded,
            "rare-label-first should expand fewer nodes ({} vs {})",
            r1.stats.nodes_expanded,
            r2.stats.nodes_expanded
        );
    }

    #[test]
    fn cancellation_observed() {
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let t = graph_from_parts(&[0, 0], &[(0, 1)]);
        let q = graph_from_parts(&[0], &[]);
        let r = vf2_search(&q, &t, &SearchBudget::unlimited().cancellable(token));
        assert_eq!(r.stop, StopReason::Cancelled);
        assert_eq!(r.num_matches, 0);
    }
}
