//! Ψ over the NFV matchers (§8.2).
//!
//! [`PsiRunner`] prepares every algorithm appearing in the configured
//! variants once over the stored graph (the algorithms' indexing phases run
//! at construction, matching the paper's setup where indexes pre-exist), and
//! then races the variants per query.

use crate::config::{PsiConfig, Variant};
use crate::race::{race, PsiOutcome, RaceBudget};
use psi_delta::{DeltaOverlay, GraphUpdate, GraphView, PinnedView, UpdateError, UpdateOp};
use psi_graph::{Graph, LabelStats, NodeId, TargetIndex};
use psi_matchers::{Algorithm, MatchResult, Matcher, SearchBudget};
use psi_rewrite::{embedding_for_original, Rewriting};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Prepared matcher per algorithm, shared by every entrant of a race.
type MatcherSet = HashMap<Algorithm, Arc<dyn Matcher>>;

/// The Ψ-framework runner for a single stored graph (NFV setting).
///
/// The runner is **live**: [`PsiRunner::apply_update`] lands mutation
/// batches in a per-runner delta overlay, every race prepared afterwards
/// probes base + overlay through a pinned [`GraphView`], and
/// [`PsiRunner::compact`] folds a grown overlay into a fresh CSR +
/// rebuilt index under a new epoch. In-flight races hold `Arc` pins to
/// the epoch they started on, so neither updates nor compaction ever
/// pause or invalidate them.
pub struct PsiRunner {
    stats: LabelStats,
    /// The shared per-graph [`TargetIndex`] of the *registration* epoch
    /// (over the stored graph as registered): built exactly once and
    /// handed (as an `Arc`) to every prepared matcher, so every entrant
    /// of every race probes the same label/degree/signature/adjacency
    /// structures.
    index: Arc<TargetIndex>,
    matchers: MatcherSet,
    config: PsiConfig,
    live: RwLock<Live>,
}

/// The mutable serving state: everything a race pins when prepared.
struct Live {
    /// The current epoch's index, over its base CSR.
    index: Arc<TargetIndex>,
    matchers: Arc<MatcherSet>,
    stats: Arc<LabelStats>,
    overlay: Option<Arc<DeltaOverlay>>,
    /// Cumulative ops since the last compaction, in application order.
    ops: Vec<UpdateOp>,
    epoch: u64,
}

/// What one [`PsiRunner::compact`] run did.
#[derive(Debug, Clone, Copy)]
pub struct Compaction {
    /// The epoch the compacted state was installed as.
    pub epoch: u64,
    /// Number of overlay ops folded into the new base CSR.
    pub folded_ops: usize,
    /// Wall-clock time spent materializing + rebuilding off-lock.
    pub duration: Duration,
}

/// Label statistics of the live view: tombstones (and overlay-removed
/// nodes) excluded, overlay-added nodes included.
fn live_label_stats(base: &Graph, overlay: Option<&DeltaOverlay>) -> LabelStats {
    let view = GraphView::of_graph(base).with_overlay(overlay);
    let mut s = LabelStats::new();
    for v in 0..view.node_count() as NodeId {
        if view.is_live(v) {
            let l = view.label(v);
            if l != psi_delta::TOMBSTONE_LABEL {
                s.add_label(l);
            }
        }
    }
    s
}

/// Prepares every algorithm `config` uses over one shared index.
fn prepare_all(config: &PsiConfig, index: &Arc<TargetIndex>) -> MatcherSet {
    config
        .algorithms_used()
        .into_iter()
        .map(|a| (a, a.prepare_indexed(Arc::clone(index))))
        .collect()
}

impl Live {
    /// Pins this epoch's index and overlay.
    fn pin(&self) -> PinnedView {
        PinnedView::new(Arc::clone(&self.index), self.overlay.clone(), self.epoch)
    }
}

impl PsiRunner {
    /// Prepares all algorithms used by `config` over `stored`, sharing
    /// one [`TargetIndex`] across every matcher.
    pub fn new(stored: Arc<Graph>, config: PsiConfig) -> Self {
        let stats = LabelStats::from_graph(&stored);
        let index = Arc::new(TargetIndex::build(stored));
        let matchers = prepare_all(&config, &index);
        Self::assemble(stats, index, matchers, config)
    }

    /// Wires the registration-epoch parts into a runner whose live state
    /// starts as epoch 0 with no overlay.
    fn assemble(
        stats: LabelStats,
        index: Arc<TargetIndex>,
        matchers: MatcherSet,
        config: PsiConfig,
    ) -> Self {
        let live = Live {
            index: Arc::clone(&index),
            matchers: Arc::new(matchers.clone()),
            stats: Arc::new(stats.clone()),
            overlay: None,
            ops: Vec::new(),
            epoch: 0,
        };
        Self { stats, index, matchers, config, live: RwLock::new(live) }
    }

    /// Like [`PsiRunner::new`], but over an **already-built**
    /// [`TargetIndex`] (e.g. one loaded from a snapshot by the
    /// persistence layer) instead of building one here. The index must
    /// be over `stored` — matchers probe it for every candidate and
    /// adjacency decision.
    ///
    /// # Panics
    /// Panics if `index` was built over a different graph handle's
    /// contents (node counts disagree).
    pub fn with_prebuilt_index(
        stored: Arc<Graph>,
        config: PsiConfig,
        index: Arc<TargetIndex>,
    ) -> Self {
        assert_eq!(
            index.node_count(),
            stored.node_count(),
            "prebuilt index does not match the stored graph"
        );
        let stats = LabelStats::from_graph(&stored);
        let matchers = prepare_all(&config, &index);
        Self::assemble(stats, index, matchers, config)
    }

    /// The paper's §8 NFV default: GraphQL ∥ sPath on the original query.
    pub fn nfv_default(stored: &Graph) -> Self {
        Self::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig())
    }

    /// [`PsiRunner::nfv_default`] over an already-shared graph handle —
    /// no deep clone. A multi-graph registry registering many stored
    /// graphs hands out `Arc<Graph>` handles; cloning each CSR would
    /// double resident memory for nothing.
    pub fn nfv_default_shared(stored: Arc<Graph>) -> Self {
        Self::new(stored, PsiConfig::gql_spa_orig())
    }

    /// Returns a runner with a different variant set, re-using already
    /// prepared matchers *and* the shared target index (new algorithms
    /// are prepared on demand against the same index).
    pub fn with_config(&self, config: PsiConfig) -> Self {
        let mut matchers = self.matchers.clone();
        for a in config.algorithms_used() {
            matchers.entry(a).or_insert_with(|| a.prepare_indexed(Arc::clone(&self.index)));
        }
        Self::assemble(self.stats.clone(), Arc::clone(&self.index), matchers, config)
    }

    /// The stored graph **as registered** (epoch 0). Live mutations do
    /// not touch this handle; see [`PsiRunner::materialized`] for the
    /// current contents.
    pub fn stored(&self) -> &Arc<Graph> {
        self.index.graph()
    }

    /// The current epoch: 0 at registration, bumped by every
    /// [`PsiRunner::compact`] that folds outstanding ops.
    pub fn epoch(&self) -> u64 {
        self.live.read().unwrap().epoch
    }

    /// Number of overlay ops applied since the last compaction.
    pub fn pending_ops(&self) -> usize {
        self.live.read().unwrap().ops.len()
    }

    /// Pins the current epoch's state (base, index, overlay) for a race.
    /// The pin keeps its epoch alive via `Arc`s no matter how many
    /// updates or compactions land after it is taken.
    pub fn pinned(&self) -> PinnedView {
        self.live.read().unwrap().pin()
    }

    /// The current epoch's base CSR (overlay **not** applied).
    pub fn live_graph(&self) -> Arc<Graph> {
        Arc::clone(self.live.read().unwrap().index.graph())
    }

    /// The current epoch's shared index.
    pub fn live_index(&self) -> Arc<TargetIndex> {
        Arc::clone(&self.live.read().unwrap().index)
    }

    /// The current live contents as a standalone graph: the epoch base
    /// with any outstanding overlay folded in (tombstones kept as
    /// isolated [`psi_delta::TOMBSTONE_LABEL`] nodes so IDs are stable).
    pub fn materialized(&self) -> Arc<Graph> {
        let live = self.live.read().unwrap();
        match &live.overlay {
            None => Arc::clone(live.index.graph()),
            Some(o) => Arc::new(o.materialize(live.index.graph())),
        }
    }

    /// Applies one mutation batch to the live view. The batch is
    /// validated against the current base + overlay and lands atomically:
    /// on `Ok` the returned epoch's view (and every race prepared from
    /// now on) reflects it; on `Err` the graph is untouched.
    ///
    /// Races already in flight keep their pinned state and never observe
    /// the update — the paper's immutable-CSR serving discipline, kept
    /// per epoch.
    pub fn apply_update(&self, update: &GraphUpdate) -> Result<u64, UpdateError> {
        let mut live = self.live.write().unwrap();
        if update.ops.is_empty() {
            return Ok(live.epoch);
        }
        let mut ops = live.ops.clone();
        ops.extend_from_slice(&update.ops);
        let overlay = DeltaOverlay::build(live.index.graph(), Some(&live.index), &ops)?;
        live.stats = Arc::new(live_label_stats(live.index.graph(), Some(&overlay)));
        live.overlay = Some(Arc::new(overlay));
        live.ops = ops;
        Ok(live.epoch)
    }

    /// Folds the outstanding overlay into a fresh CSR, rebuilds the
    /// shared index and every configured matcher over it, and installs
    /// the result as a new epoch. Materialization and index/matcher
    /// rebuilds run **off-lock**, so queries and updates keep flowing;
    /// ops that land while the rebuild runs survive as the new epoch's
    /// (small) overlay.
    ///
    /// Returns `None` when there was nothing to fold, or when a
    /// concurrent compaction installed a newer epoch first.
    pub fn compact(&self) -> Option<Compaction> {
        let (base, overlay, folded_ops, epoch) = {
            let live = self.live.read().unwrap();
            let overlay = live.overlay.clone()?;
            (Arc::clone(live.index.graph()), overlay, live.ops.len(), live.epoch)
        };
        let started = Instant::now();
        let index = Arc::new(TargetIndex::build(Arc::new(overlay.materialize(&base))));
        let matchers = prepare_all(&self.config, &index);
        let duration = started.elapsed();

        let mut live = self.live.write().unwrap();
        if live.epoch != epoch {
            // A concurrent compaction won; its epoch already folded our ops.
            return None;
        }
        // Ops that landed during the rebuild become the new epoch's
        // overlay — valid as-is because materialization preserves node
        // IDs (tombstones keep theirs).
        let tail: Vec<UpdateOp> = live.ops[folded_ops..].to_vec();
        let overlay = if tail.is_empty() {
            None
        } else {
            Some(Arc::new(
                DeltaOverlay::build(index.graph(), Some(&index), &tail)
                    .expect("tail ops were validated when applied and IDs are stable"),
            ))
        };
        live.stats = Arc::new(live_label_stats(index.graph(), overlay.as_deref()));
        live.index = index;
        live.matchers = Arc::new(matchers);
        live.overlay = overlay;
        live.ops = tail;
        live.epoch = epoch + 1;
        Some(Compaction { epoch: live.epoch, folded_ops, duration })
    }

    /// The shared per-graph [`TargetIndex`], built once at construction
    /// and probed by every entrant of every race.
    pub fn target_index(&self) -> &Arc<TargetIndex> {
        &self.index
    }

    /// Label statistics of the stored graph **as registered** (drives the
    /// ILF rewritings; see [`PsiRunner::live_stats`] for the mutated
    /// view's statistics).
    pub fn label_stats(&self) -> &LabelStats {
        &self.stats
    }

    /// Label statistics of the current live view: recomputed on every
    /// applied update and compaction, tombstones excluded.
    pub fn live_stats(&self) -> Arc<LabelStats> {
        Arc::clone(&self.live.read().unwrap().stats)
    }

    /// The configured variant set.
    pub fn config(&self) -> &PsiConfig {
        &self.config
    }

    /// The prepared matcher for `algorithm`.
    ///
    /// # Panics
    /// Panics if the algorithm is not part of the configuration.
    pub fn matcher(&self, algorithm: Algorithm) -> &Arc<dyn Matcher> {
        self.matchers.get(&algorithm).expect("algorithm not prepared for this runner")
    }

    /// Runs one variant *solo* (no race) — the baseline measurements of the
    /// experiment harness. Embeddings are returned in the **original**
    /// query's node numbering.
    pub fn run_variant(
        &self,
        query: &Graph,
        variant: Variant,
        budget: &SearchBudget,
    ) -> MatchResult {
        let (pin, stats, matcher) = {
            let live = self.live.read().unwrap();
            let matcher = Arc::clone(
                live.matchers
                    .get(&variant.algorithm)
                    .expect("algorithm not prepared for this runner"),
            );
            (live.pin(), Arc::clone(&live.stats), matcher)
        };
        let perm = variant.rewriting.permutation(query, &stats);
        let rewritten = perm.apply_to(query);
        let mut result = matcher.search_view(&rewritten, pin.as_view(), budget);
        for emb in &mut result.embeddings {
            *emb = embedding_for_original(emb, &perm);
        }
        result
    }

    /// Prepares every configured variant for execution on `query`: the
    /// query is rewritten once per distinct rewriting, and each entrant is
    /// packaged self-contained (matcher + rewritten query + permutation)
    /// so it can run on any thread — a scoped racing thread here, or a
    /// pooled worker in `psi-engine`.
    pub fn prepare_entrants(&self, query: &Graph) -> Vec<PreparedEntrant> {
        let (pin, stats, matchers) = {
            let live = self.live.read().unwrap();
            (live.pin(), Arc::clone(&live.stats), Arc::clone(&live.matchers))
        };
        let mut perms: HashMap<Rewriting, Arc<(Graph, psi_graph::Permutation)>> = HashMap::new();
        for v in &self.config.variants {
            perms.entry(v.rewriting).or_insert_with(|| {
                let p = v.rewriting.permutation(query, &stats);
                Arc::new((p.apply_to(query), p))
            });
        }
        self.config
            .variants
            .iter()
            .map(|&v| PreparedEntrant {
                variant: v,
                matcher: Arc::clone(
                    matchers.get(&v.algorithm).expect("algorithm not prepared for this runner"),
                ),
                prepared: Arc::clone(&perms[&v.rewriting]),
                pin: pin.clone(),
            })
            .collect()
    }

    /// Races all configured variants on `query` (§8.2). The winner's
    /// embeddings (and every conclusive entrant's) are translated back to
    /// the original query numbering.
    pub fn race(&self, query: &Graph, budget: RaceBudget) -> PsiOutcome<Variant> {
        let entrants: Vec<(Variant, _)> = self
            .prepare_entrants(query)
            .into_iter()
            .map(|e| (e.variant, move |b: &SearchBudget| e.execute(b)))
            .collect();
        race(entrants, &budget)
    }
}

/// One racing entrant, prepared and self-contained: owns (shares) its
/// matcher and the rewritten query, and translates embeddings back to the
/// original query numbering on execution. `Send + Sync + 'static`, so it
/// can be shipped to a worker pool.
#[derive(Clone)]
pub struct PreparedEntrant {
    /// The (algorithm, rewriting) identity of this entrant.
    pub variant: Variant,
    matcher: Arc<dyn Matcher>,
    prepared: Arc<(Graph, psi_graph::Permutation)>,
    /// The epoch state this entrant was prepared against. Holding the
    /// `Arc`s here is what pins an in-flight race to its start epoch
    /// while updates and compactions land concurrently.
    pin: PinnedView,
}

impl PreparedEntrant {
    /// Runs the search under `budget`; embeddings come back in the
    /// **original** query's node numbering.
    pub fn execute(&self, budget: &SearchBudget) -> MatchResult {
        let mut result = self.matcher.search_view(&self.prepared.0, self.pin.as_view(), budget);
        self.translate(&mut result);
        result
    }

    /// Runs one slice task of this entrant's search against `coord`.
    /// Several pooled tasks call this concurrently on clones of one
    /// entrant; the coordinator partitions the rewritten query's
    /// root-candidate space among them. Embeddings stay in the entrant's
    /// own numbering until [`PreparedEntrant::translate`] runs on the
    /// merged result.
    pub fn run_slice_task(
        &self,
        coord: &psi_matchers::SliceCoordinator,
    ) -> psi_matchers::SliceTaskSummary {
        coord.run_task(self.matcher.as_ref(), &self.prepared.0, self.pin.as_view())
    }

    /// Translates a merged (or otherwise entrant-numbered) result's
    /// embeddings back to the original query numbering.
    pub fn translate(&self, result: &mut MatchResult) {
        for emb in &mut result.embeddings {
            *emb = embedding_for_original(emb, &self.prepared.1);
        }
    }

    /// Node count of the (rewritten) query this entrant searches for —
    /// the scheduler's query-size input.
    pub fn query_node_count(&self) -> usize {
        self.prepared.0.node_count()
    }

    /// The epoch this entrant is pinned to.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch()
    }

    /// The pinned epoch state (base graph, index, overlay).
    pub fn pin(&self) -> &PinnedView {
        &self.pin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use psi_matchers::matcher::is_valid_embedding;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn stored() -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
        random_connected_graph(40, 90, &labels, &mut rng)
    }

    fn query_from(g: &Graph) -> Graph {
        // A 3-path grown from node 0 so containment is guaranteed.
        let v0 = 0;
        let v1 = g.neighbors(v0)[0];
        let v2 = g.neighbors(v1).iter().copied().find(|&x| x != v0).unwrap();
        graph_from_parts(&[g.label(v0), g.label(v1), g.label(v2)], &[(0, 1), (1, 2)])
    }

    #[test]
    fn race_finds_known_embedding() {
        let g = stored();
        let q = query_from(&g);
        let psi = PsiRunner::nfv_default(&g);
        let outcome = psi.race(&q, RaceBudget::decision());
        assert!(outcome.found());
        let w = outcome.winner().unwrap();
        for emb in &w.result.embeddings {
            assert!(is_valid_embedding(&q, &g, emb), "embedding must be in original numbering");
        }
    }

    #[test]
    fn race_agrees_with_solo_on_match_count() {
        let g = stored();
        let q = query_from(&g);
        let psi = PsiRunner::nfv_default(&g);
        let solo = psi.run_variant(
            &q,
            Variant::new(Algorithm::GraphQl, Rewriting::Orig),
            &psi_matchers::SearchBudget::unlimited(),
        );
        let raced = psi.race(&q, RaceBudget::with_max_matches(usize::MAX));
        assert!(raced.is_conclusive());
        assert_eq!(raced.num_matches(), solo.num_matches);
    }

    #[test]
    fn rewriting_variants_agree_on_answers() {
        let g = stored();
        let q = query_from(&g);
        let psi = PsiRunner::new(
            Arc::new(g.clone()),
            PsiConfig::rewritings(
                Algorithm::SPath,
                [Rewriting::Orig, Rewriting::Ilf, Rewriting::Dnd, Rewriting::IlfInd],
            ),
        );
        let baseline = psi
            .run_variant(
                &q,
                Variant::new(Algorithm::SPath, Rewriting::Orig),
                &psi_matchers::SearchBudget::unlimited(),
            )
            .num_matches;
        for &rw in &[Rewriting::Ilf, Rewriting::Dnd, Rewriting::IlfInd] {
            let r = psi.run_variant(
                &q,
                Variant::new(Algorithm::SPath, rw),
                &psi_matchers::SearchBudget::unlimited(),
            );
            assert_eq!(r.num_matches, baseline, "{rw}");
            for emb in &r.embeddings {
                assert!(is_valid_embedding(&q, &g, emb), "{rw} embedding must be translated");
            }
        }
    }

    #[test]
    fn negative_decision_is_conclusive() {
        let g = graph_from_parts(&[0, 1], &[(0, 1)]);
        let psi = PsiRunner::nfv_default(&g);
        let q = graph_from_parts(&[5], &[]);
        let outcome = psi.race(&q, RaceBudget::decision());
        assert!(outcome.is_conclusive());
        assert!(!outcome.found());
    }

    #[test]
    fn with_config_reuses_and_extends() {
        let g = stored();
        let psi = PsiRunner::nfv_default(&g);
        let psi3 = psi.with_config(PsiConfig::algorithms(
            [Algorithm::GraphQl, Algorithm::SPath, Algorithm::QuickSi],
            Rewriting::Orig,
        ));
        assert_eq!(psi3.config().thread_count(), 3);
        let q = query_from(&g);
        assert!(psi3.race(&q, RaceBudget::decision()).found());
    }
}
