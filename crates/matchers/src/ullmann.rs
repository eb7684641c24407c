//! Ullmann's algorithm (JACM 1976) — reference \[18\] of the paper.
//!
//! The classic candidate-matrix formulation: a boolean matrix `M[q][t]`
//! holds the surviving target candidates for every query vertex, seeded by
//! label and degree, and *refined* to a fixpoint before the search: a
//! candidate `t` for `q` survives only if every neighbor of `q` still has at
//! least one candidate among the neighbors of `t`. Vertices are matched strictly in
//! **query node-ID order** — Ullmann is the most order-sensitive algorithm
//! in the suite, which makes it a useful extreme point for the rewriting
//! experiments.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, Matcher, SearchStats};
use crate::scratch;
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::{Graph, NodeId, TargetIndex};
use std::borrow::Cow;
use std::sync::Arc;

/// Ullmann prepared over a stored graph. The candidate matrix is seeded
/// from the shared [`TargetIndex`]'s label lists.
#[derive(Debug, Clone)]
pub struct Ullmann {
    index: Arc<TargetIndex>,
}

impl Ullmann {
    /// Wraps a stored graph, building a private [`TargetIndex`]. Prefer
    /// [`Ullmann::with_index`] when matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_index(Arc::new(TargetIndex::build(target)))
    }

    /// Indexed constructor path: shares an already-built [`TargetIndex`].
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        Self { index }
    }
}

impl Matcher for Ullmann {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Ullmann
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

/// The refined matrix as a plan: query node-ID order, each row becoming
/// that vertex's ascending candidate list.
impl Planner for Ullmann {
    type Hook = ();

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        _: &mut BudgetClock<'_>,
        stats: &mut SearchStats,
    ) -> Result<Plan<'a, ()>, StopReason> {
        // Seed: label equality + degree feasibility (non-induced, so
        // deg(q) <= deg(t)).
        let (nq, nt) = (query.node_count(), view.node_count());
        let mut m = Matrix { cols: nt, data: scratch::bool_buf(nq * nt) };
        for q in 0..nq {
            let qdeg = query.degree(q as NodeId);
            for &t in view.candidates(query.label(q as NodeId)) {
                if qdeg <= view.degree(t) {
                    m.set(q, t as usize, true);
                }
            }
        }
        if !refine(query, view, &mut m, stats) {
            return Err(StopReason::Complete);
        }
        // A row is a subset of its label's (ascending) candidate list.
        let steps = (0..nq)
            .map(|q| {
                let cands = view.candidates(query.label(q as NodeId));
                let row = cands.iter().copied().filter(|&t| m.get(q, t as usize)).collect();
                Step::new(q as NodeId, Source::Domain(Cow::Owned(row)))
            })
            .collect();
        Ok(Plan::new(query, steps, ()))
    }
}

/// Candidate matrix: row per query node, dense bit-less boolean per target
/// node, drawn from the per-worker scratch pool.
struct Matrix {
    cols: usize,
    data: scratch::BoolBuf,
}

impl Matrix {
    #[inline]
    fn get(&self, r: usize, c: usize) -> bool {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: bool) {
        self.data[r * self.cols + c] = v;
    }

    fn row_empty(&self, r: usize) -> bool {
        !self.data[r * self.cols..(r + 1) * self.cols].iter().any(|&b| b)
    }
}

/// Ullmann's refinement: iterate to a fixpoint removing candidates `(q, t)`
/// for which some neighbor of `q` has no candidate among `t`'s neighbors.
/// Returns false if some query vertex loses all candidates.
fn refine(query: &Graph, view: GraphView<'_>, m: &mut Matrix, stats: &mut SearchStats) -> bool {
    let nq = query.node_count();
    let nt = view.node_count();
    let mut changed = true;
    while changed {
        changed = false;
        for q in 0..nq {
            for t in 0..nt {
                if !m.get(q, t) {
                    continue;
                }
                let ok = query.neighbors(q as NodeId).iter().all(|&qn| {
                    view.neighbors(t as NodeId).iter().any(|&tn| m.get(qn as usize, tn as usize))
                });
                if !ok {
                    m.set(q, t, false);
                    stats.candidates_pruned += 1;
                    changed = true;
                }
            }
            if m.row_empty(q) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::matcher::{is_valid_embedding, Embedding, MatchResult};
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ull(query: &Graph, target: &Graph, budget: &SearchBudget) -> MatchResult {
        Ullmann::prepare(Arc::new(target.clone())).search(query, budget)
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(31337);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(10, 18, &labels, &mut rng);
            let q = random_connected_graph(4, 4, &labels, &mut rng);
            let got = ull(&q, &t, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "case {i}");
        }
    }

    #[test]
    fn refinement_prunes() {
        // A path query on a star target: refinement should kill leaf-center
        // confusion quickly.
        let t = graph_from_parts(&[0, 1, 1, 1, 1], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let q = graph_from_parts(&[1, 0, 1], &[(0, 1), (1, 2)]);
        let r = ull(&q, &t, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 4 * 3);
        for e in &r.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn impossible_query_pruned_before_search() {
        // Query needs degree 3 on label 1, target has max degree 2 there.
        let t = graph_from_parts(&[1, 0, 0], &[(0, 1), (0, 2)]);
        let q = graph_from_parts(&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let r = ull(&q, &t, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 0);
        assert_eq!(r.stats.nodes_expanded, 0, "refinement should preempt search");
    }

    #[test]
    fn match_limit() {
        let t = graph_from_parts(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let q = graph_from_parts(&[0, 0], &[(0, 1)]);
        let r = ull(&q, &t, &SearchBudget::with_max_matches(2));
        assert_eq!(r.num_matches, 2);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn matcher_trait() {
        let t = Arc::new(graph_from_parts(&[0, 1], &[(0, 1)]));
        let m = Ullmann::prepare(t);
        assert_eq!(m.algorithm(), Algorithm::Ullmann);
        assert!(m.contains(&graph_from_parts(&[1], &[])));
    }

    #[test]
    fn empty_query() {
        let t = graph_from_parts(&[0], &[]);
        let q = graph_from_parts(&[], &[]);
        assert_eq!(ull(&q, &t, &SearchBudget::unlimited()).num_matches, 1);
    }

    #[test]
    fn timeout_reported() {
        let t = graph_from_parts(&[0, 0], &[(0, 1)]);
        let q = graph_from_parts(&[0], &[]);
        let b = SearchBudget::unlimited()
            .deadline_at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let r = ull(&q, &t, &b);
        assert_eq!(r.stop, StopReason::TimedOut);
    }
}
