//! QuickSI (Shang, Zhang, Lin, Yu — PVLDB 2008), "QSI" in the paper.
//!
//! §3.1.2: "priority is given to the vertices with infrequent labels and
//! infrequent adjacent edge labels. In the indexing phase, QuickSI
//! precomputes the frequencies of labels and edges and uses them to compute
//! the *average inner support* of a vertex or an edge; i.e., the average
//! number of possible mappings of the vertex or edge in the graph. The inner
//! support is later used ... to assign weights on the edges of the query
//! graph and construct a rooted minimum spanning tree (MST). In case of
//! symmetries, edges are added in such a way that will make the MST denser.
//! The order in which vertices are inserted to the MST defines the order in
//! which they are then matched."
//!
//! Tie-breaking on equal weights falls back to query node IDs, mirroring the
//! reference implementation — this is what makes QSI respond to the paper's
//! ID-permuting rewritings.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, label_domain, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, Matcher, SearchStats};
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::{Graph, Label, NodeId, TargetIndex};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// QuickSI prepared over a stored graph: the edge "inner support"
/// frequency table (algorithm-specific), with label frequencies and the
/// inverted label → vertices list read from the shared [`TargetIndex`].
#[derive(Debug)]
pub struct QuickSi {
    index: Arc<TargetIndex>,
    /// Frequency of each unordered label pair over target edges.
    edge_freq: HashMap<(Label, Label), u32>,
}

impl QuickSi {
    /// Runs QuickSI's indexing phase over the stored graph, building a
    /// private [`TargetIndex`]. Prefer [`QuickSi::with_index`] when
    /// matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_index(Arc::new(TargetIndex::build(target)))
    }

    /// Indexed constructor path: only the edge-frequency table (QuickSI's
    /// own inner-support statistic) is computed here; label lists and
    /// frequencies come from the shared index.
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        let edge_freq = Self::edge_frequencies(index.graph());
        Self { index, edge_freq }
    }

    fn edge_frequencies(target: &Graph) -> HashMap<(Label, Label), u32> {
        let mut edge_freq: HashMap<(Label, Label), u32> = HashMap::new();
        for (u, v) in target.edges() {
            let (a, b) = ordered_pair(target.label(u), target.label(v));
            *edge_freq.entry((a, b)).or_insert(0) += 1;
        }
        edge_freq
    }

    fn vertex_support(&self, l: Label) -> u32 {
        self.index.candidates(l).len() as u32
    }

    fn edge_support(&self, l1: Label, l2: Label) -> u32 {
        self.edge_freq.get(&ordered_pair(l1, l2)).copied().unwrap_or(0)
    }

    /// Builds the QSI matching sequence for a query: a rooted MST by Prim's
    /// algorithm over inner-support edge weights.
    ///
    /// Returns, per matching step: `(query_vertex, parent_index_or_none)`,
    /// where `parent_index` points into the sequence (not a node ID). The
    /// root minimizes `(vertex support, node id)`; each subsequent step adds
    /// the frontier edge minimizing `(edge support, -connections_to_tree,
    /// vertex support, node id)` — the `-connections_to_tree` term is the
    /// "make the MST denser" symmetry-breaking rule.
    pub fn build_sequence(&self, query: &Graph) -> Vec<(NodeId, Option<usize>)> {
        let nq = query.node_count();
        if nq == 0 {
            return Vec::new();
        }
        let mut seq: Vec<(NodeId, Option<usize>)> = Vec::with_capacity(nq);
        let mut in_tree = vec![false; nq];
        let mut pos_in_seq = vec![usize::MAX; nq];

        while seq.len() < nq {
            // Best frontier edge: min (edge support, -connections-to-tree,
            // vertex support, node id). `Candidate` orders by exactly that.
            #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
            struct Candidate {
                edge_support: u32,
                neg_conn: i64,
                vertex_support: u32,
                vertex: NodeId,
            }
            let mut best: Option<(Candidate, usize)> = None;
            for &(tv, _) in &seq {
                for &nb in query.neighbors(tv) {
                    if in_tree[nb as usize] {
                        continue;
                    }
                    let cand = Candidate {
                        edge_support: self.edge_support(query.label(tv), query.label(nb)),
                        neg_conn: -(query
                            .neighbors(nb)
                            .iter()
                            .filter(|&&x| in_tree[x as usize])
                            .count() as i64),
                        vertex_support: self.vertex_support(query.label(nb)),
                        vertex: nb,
                    };
                    if best.is_none_or(|(b, _)| cand < b) {
                        best = Some((cand, pos_in_seq[tv as usize]));
                    }
                }
            }
            match best {
                Some((cand, parent_pos)) => {
                    pos_in_seq[cand.vertex as usize] = seq.len();
                    seq.push((cand.vertex, Some(parent_pos)));
                    in_tree[cand.vertex as usize] = true;
                }
                None => {
                    // Empty frontier: initial root, or a new component of a
                    // disconnected query. Min (vertex support, node id).
                    let root = (0..nq as NodeId)
                        .filter(|&v| !in_tree[v as usize])
                        .min_by_key(|&v| (self.vertex_support(query.label(v)), v))
                        .expect("loop guard ensures a free vertex");
                    pos_in_seq[root as usize] = seq.len();
                    seq.push((root, None));
                    in_tree[root as usize] = true;
                }
            }
        }
        seq
    }
}

fn ordered_pair(a: Label, b: Label) -> (Label, Label) {
    (a.min(b), a.max(b))
}

impl Matcher for QuickSi {
    fn algorithm(&self) -> Algorithm {
        Algorithm::QuickSi
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

/// The MST sequence as a plan: a tree edge draws candidates from the
/// parent image's neighbourhood, a component root from its label's list;
/// both filter by label and degree.
impl Planner for QuickSi {
    type Hook = ();

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        _: &mut BudgetClock<'_>,
        _: &mut SearchStats,
    ) -> Result<Plan<'a, ()>, StopReason> {
        let seq = self.build_sequence(query);
        let steps = seq
            .iter()
            .map(|&(qv, parent)| {
                let label = query.label(qv);
                let step = match parent {
                    Some(p) => Step::new(qv, Source::Neighbor(seq[p].0), Cow::Borrowed(&[])),
                    None => Step::new(qv, Source::Domain, label_domain(view, label)),
                };
                Step { label: Some(label), min_degree: query.degree(qv), ..step }
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

    fn qsi(t: Graph) -> QuickSi {
        QuickSi::prepare(Arc::new(t))
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    #[test]
    fn sequence_starts_at_rarest_label() {
        // Target: many label-0, one label-1.
        let t = graph_from_parts(&[0, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
        let m = qsi(t);
        // Query: path label 0 - 0 - 1; vertex 2 is rare.
        let q = graph_from_parts(&[0, 0, 1], &[(0, 1), (1, 2)]);
        let seq = m.build_sequence(&q);
        assert_eq!(seq[0], (2, None), "rarest-label vertex should root the MST");
        assert_eq!(seq.len(), 3);
        // Parent pointers form a valid tree over the sequence.
        for (i, &(_, p)) in seq.iter().enumerate().skip(1) {
            assert!(p.expect("connected query after root") < i);
        }
    }

    #[test]
    fn sequence_covers_disconnected_queries() {
        let t = graph_from_parts(&[0, 1], &[(0, 1)]);
        let m = qsi(t);
        let q = graph_from_parts(&[0, 1, 0], &[(0, 1)]); // node 2 isolated
        let seq = m.build_sequence(&q);
        assert_eq!(seq.len(), 3);
        let roots = seq.iter().filter(|(_, p)| p.is_none()).count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(404);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(12, 20, &labels, &mut rng);
            let q = random_connected_graph(4, 5, &labels, &mut rng);
            let m = qsi(t.clone());
            let got = m.search(&q, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "case {i}");
        }
    }

    #[test]
    fn embeddings_valid_and_capped() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(30, 60, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let m = qsi(t.clone());
        let r = m.search(&q, &SearchBudget::with_max_matches(5));
        assert!(r.num_matches <= 5);
        for e in &r.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn no_candidates_for_unknown_label() {
        let t = graph_from_parts(&[0, 0], &[(0, 1)]);
        let m = qsi(t);
        let q = graph_from_parts(&[7], &[]);
        let r = m.search(&q, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 0);
        assert_eq!(r.stop, StopReason::Complete);
    }

    #[test]
    fn empty_query_single_vacuous_match() {
        let t = graph_from_parts(&[0], &[]);
        let m = qsi(t);
        let q = graph_from_parts(&[], &[]);
        assert_eq!(m.search(&q, &SearchBudget::unlimited()).num_matches, 1);
    }

    #[test]
    fn matcher_trait() {
        let t = Arc::new(graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]));
        let m = QuickSi::prepare(t);
        assert_eq!(m.algorithm(), Algorithm::QuickSi);
        assert!(m.contains(&graph_from_parts(&[1, 2], &[(0, 1)])));
        assert!(!m.contains(&graph_from_parts(&[0, 2], &[(0, 1)])));
    }

    #[test]
    fn dense_tie_breaking_prefers_more_connected_vertex() {
        // Query: square 0-1-2-3 with all labels equal; after root + one
        // edge, the "denser" choice is the vertex adjacent to two tree
        // vertices.
        let t = graph_from_parts(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let m = qsi(t);
        let q = graph_from_parts(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let seq = m.build_sequence(&q);
        // Root = 0 (all supports equal, min id). Frontier edges from {0}:
        // (0,1), (0,3) — equal support/connections, min id wins: 1.
        assert_eq!(seq[0].0, 0);
        assert_eq!(seq[1].0, 1);
        // Now 2 connects to one tree vertex (1), 3 connects to one (0)...
        // but after adding 2 or 3 first; with equal keys min id 2 wins, and
        // 3 then connects to two tree vertices.
        assert_eq!(seq[2].0, 2);
        assert_eq!(seq[3].0, 3);
    }
}
