//! The [`Matcher`] trait and common result types.
//!
//! Each NFV algorithm in this crate is *prepared* once over a stored graph
//! (the paper's "indexing/pre-processing phase", §2.1) and can then run any
//! number of queries against it, possibly concurrently from racing threads
//! (matchers are `Send + Sync` and `search` takes `&self`).

use crate::budget::{SearchBudget, StopReason};
use psi_delta::GraphView;
use psi_graph::{Graph, NodeId, TargetIndex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One embedding of the query: `embedding[q]` is the stored-graph node that
/// query node `q` maps to.
pub type Embedding = Vec<NodeId>;

/// Counters describing the work a search performed; used by the experiment
/// harness for ablation reporting and by tests to assert that pruning
/// actually prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of (query node, target node) pair extensions attempted.
    pub nodes_expanded: u64,
    /// Number of candidate pairs rejected by feasibility/pruning rules.
    pub candidates_pruned: u64,
    /// Number of backtracks.
    pub backtracks: u64,
    /// Adjacency probes answered by the shared [`TargetIndex`]'s dense
    /// bitset (`O(1)` fast path).
    pub edge_probes_bitset: u64,
    /// Adjacency probes answered by binary search: CSR adjacency when no
    /// bitset was built (or the view has no index), overlay adjacency for
    /// touched nodes.
    pub edge_probes_binary: u64,
}

/// Outcome of one search.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Embeddings found (at most `budget.max_matches`).
    pub embeddings: Vec<Embedding>,
    /// Number of embeddings found (== `embeddings.len()`).
    pub num_matches: usize,
    /// Why the search stopped.
    pub stop: StopReason,
    /// Work counters.
    pub stats: SearchStats,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
}

impl MatchResult {
    /// A result carrying no matches, with the given stop reason.
    pub fn empty(stop: StopReason) -> Self {
        Self {
            embeddings: Vec::new(),
            num_matches: 0,
            stop,
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
        }
    }

    /// Whether at least one embedding was found (the decision problem's
    /// "contained" answer).
    pub fn found(&self) -> bool {
        self.num_matches > 0
    }

    /// Whether the answer is definitive: either we found something, or we
    /// exhausted the space without interruption.
    pub fn is_conclusive(&self) -> bool {
        self.found() || self.stop == StopReason::Complete
    }
}

/// Algorithm identifiers, used for reporting and for configuring Ψ variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// VF2 (Cordella et al. 2004).
    Vf2,
    /// Ullmann (1976).
    Ullmann,
    /// QuickSI (Shang et al. 2008) — "QSI" in the paper.
    QuickSi,
    /// GraphQL (He & Singh 2008) — "GQL" in the paper.
    GraphQl,
    /// sPath (Zhao & Han 2010) — "SPA" in the paper.
    SPath,
}

impl Algorithm {
    /// Short name as used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            Algorithm::Vf2 => "VF2",
            Algorithm::Ullmann => "ULL",
            Algorithm::QuickSi => "QSI",
            Algorithm::GraphQl => "GQL",
            Algorithm::SPath => "SPA",
        }
    }

    /// All algorithms evaluated as NFV methods in the paper (§3.1.2),
    /// in the order they appear in the figures.
    pub fn paper_nfv() -> [Algorithm; 3] {
        [Algorithm::GraphQl, Algorithm::SPath, Algorithm::QuickSi]
    }

    /// Prepares this algorithm over a stored graph. This runs the
    /// algorithm's indexing phase (label statistics, signatures, ...), so it
    /// can be expensive — do it once per stored graph. Builds a private
    /// [`TargetIndex`]; callers preparing several algorithms over the
    /// *same* graph should build the index once and use
    /// [`Algorithm::prepare_indexed`] instead.
    pub fn prepare(self, target: Arc<Graph>) -> Arc<dyn Matcher> {
        self.prepare_indexed(Arc::new(TargetIndex::build(target)))
    }

    /// Prepares this algorithm over an already-built shared
    /// [`TargetIndex`] — the indexed constructor path. All algorithm
    /// preparation beyond the shared index (e.g. QuickSI's edge
    /// frequencies, sPath's distance signatures) still runs here, but
    /// the label/degree/signature/adjacency structures are the shared
    /// `Arc`, built once per stored graph no matter how many matchers
    /// race over it.
    pub fn prepare_indexed(self, index: Arc<TargetIndex>) -> Arc<dyn Matcher> {
        match self {
            Algorithm::Vf2 => Arc::new(crate::vf2::Vf2::with_index(index)),
            Algorithm::Ullmann => Arc::new(crate::ullmann::Ullmann::with_index(index)),
            Algorithm::QuickSi => Arc::new(crate::quicksi::QuickSi::with_index(index)),
            Algorithm::GraphQl => Arc::new(crate::graphql::GraphQl::with_index(index)),
            Algorithm::SPath => Arc::new(crate::spath::SPath::with_index(index)),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A subgraph-isomorphism engine prepared over one stored graph.
pub trait Matcher: Send + Sync {
    /// The algorithm this matcher implements.
    fn algorithm(&self) -> Algorithm;

    /// The target index this matcher probes. Matchers prepared through
    /// [`Algorithm::prepare_indexed`] share one `Arc` per stored graph.
    fn index(&self) -> &Arc<TargetIndex>;

    /// The stored graph this matcher was prepared over.
    fn target(&self) -> &Graph {
        self.index().graph()
    }

    /// Finds embeddings of `query` in the stored graph, subject to `budget`.
    ///
    /// Returns all found embeddings (each a query-node → target-node map).
    /// The search checks the budget cooperatively so that races can cancel
    /// it promptly.
    fn search(&self, query: &Graph, budget: &SearchBudget) -> MatchResult {
        self.search_view(query, GraphView::of_index(self.index()), budget)
    }

    /// Like [`Matcher::search`], but against an explicit [`GraphView`] —
    /// the live-graph entry point. The view's base graph must be the
    /// graph this matcher was prepared over (same epoch); the view may
    /// additionally carry a delta overlay, which the matcher's inner
    /// loops probe for touched nodes. A view without an overlay makes
    /// this equivalent to [`Matcher::search`]. The unsliced search is the
    /// [`Matcher::slice_session`] run as one chunk.
    fn search_view(
        &self,
        query: &Graph,
        view: GraphView<'_>,
        budget: &SearchBudget,
    ) -> MatchResult {
        let start = Instant::now();
        crate::kernel::run_whole(self.slice_session(query, view, budget), budget, start)
    }

    /// Prepares a sliceable search session over `view`: prework runs here
    /// (candidate filtering, plan/sequence construction), after which the
    /// session enumerates arbitrary ranges of the first step's candidate
    /// list via
    /// [`SliceSession::run_chunk`](crate::slice::SliceSession::run_chunk).
    fn slice_session<'a>(
        &'a self,
        query: &'a Graph,
        view: GraphView<'a>,
        budget: &SearchBudget,
    ) -> crate::slice::SliceSetup<'a>;

    /// Decision-problem convenience: does `query` embed at all?
    fn contains(&self, query: &Graph) -> bool {
        self.search(query, &SearchBudget::first_match()).found()
    }
}

/// Validates that `embedding` is a correct non-induced sub-iso embedding of
/// `query` into `target` (Def. 3). Shared by tests of all matchers.
pub fn is_valid_embedding(query: &Graph, target: &Graph, embedding: &[NodeId]) -> bool {
    if embedding.len() != query.node_count() {
        return false;
    }
    // Injectivity.
    let mut seen = std::collections::HashSet::with_capacity(embedding.len());
    for &t in embedding {
        if (t as usize) >= target.node_count() || !seen.insert(t) {
            return false;
        }
    }
    // Labels.
    for q in query.nodes() {
        if query.label(q) != target.label(embedding[q as usize]) {
            return false;
        }
    }
    // Edges (non-induced: only query edges need to be present).
    for (u, v) in query.edges() {
        if !target.has_edge(embedding[u as usize], embedding[v as usize]) {
            return false;
        }
        if query.has_edge_labels()
            && query.edge_label(u, v)
                != target.edge_label(embedding[u as usize], embedding[v as usize])
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::graph::graph_from_parts;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::GraphQl.short_name(), "GQL");
        assert_eq!(Algorithm::SPath.to_string(), "SPA");
        assert_eq!(Algorithm::paper_nfv().len(), 3);
    }

    #[test]
    fn valid_embedding_checks() {
        let target = graph_from_parts(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let query = graph_from_parts(&[0, 1], &[(0, 1)]);
        assert!(is_valid_embedding(&query, &target, &[0, 1]));
        assert!(is_valid_embedding(&query, &target, &[2, 1]));
        // label mismatch
        assert!(!is_valid_embedding(&query, &target, &[1, 0]));
        // missing edge
        assert!(!is_valid_embedding(&query, &target, &[0, 2].map(|x| x as NodeId)));
        // non-injective
        let q2 = graph_from_parts(&[0, 0], &[]);
        assert!(!is_valid_embedding(&q2, &target, &[0, 0]));
        // wrong arity
        assert!(!is_valid_embedding(&query, &target, &[0]));
        // out of range
        assert!(!is_valid_embedding(&query, &target, &[0, 9]));
    }

    #[test]
    fn match_result_flags() {
        let r = MatchResult::empty(StopReason::Complete);
        assert!(!r.found());
        assert!(r.is_conclusive());
        let r = MatchResult::empty(StopReason::TimedOut);
        assert!(!r.is_conclusive());
    }
}
