//! Saturated-pool comparison of race strategies: the same workload,
//! replayed as concurrent traffic against two engines that differ only
//! in [`RaceStrategy`] — the full-field race versus staged racing
//! ([`RaceStrategy::Adaptive`]) with escalation.
//!
//! On a saturated pool the full field pays for its insurance twice: the
//! losing variants of every race occupy workers that could be running
//! *other* queries' winners. Pruning predictable losers frees those
//! slots, so staged throughput should meet or beat race-all throughput
//! once the predictor is trained — which is exactly what the CI bench
//! artifact tracks over time ([`psi_bench`]'s `topk_qps` metric).

use crate::multi::submit_batch_multi;
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{EngineConfig, GraphId, MultiEngine, MultiEngineConfig, RaceStrategy};
use psi_graph::Graph;
use std::sync::Arc;

/// Outcome of one Full-vs-staged saturated-pool measurement.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// Throughput racing the full entrant field, queries/second.
    pub full_qps: f64,
    /// Throughput with staged racing, queries/second.
    pub topk_qps: f64,
    /// `topk_qps / full_qps` (0 when the full run measured 0 qps).
    pub speedup: f64,
    /// Fraction of the staged engine's staged races that escalated to
    /// the full field — low means the predictor's pruning held.
    pub escalation_rate: f64,
    /// Entrants the staged engine never launched thanks to pruning.
    pub pruned_entrants: u64,
    /// Races the staged engine actually staged (its training-phase races
    /// run the full field and are not counted here).
    pub topk_races: u64,
}

/// Shape of a [`compare_race_strategies`] measurement.
#[derive(Debug, Clone)]
pub struct StrategySpec {
    /// The variant field both engines race.
    pub config: PsiConfig,
    /// The staged strategy under test (the reference engine always runs
    /// [`RaceStrategy::Full`]).
    pub strategy: RaceStrategy,
    /// Pool workers per engine; `clients` should exceed this so the pool
    /// saturates.
    pub workers: usize,
    /// Concurrent client threads replaying the workload.
    pub clients: usize,
    /// Race budget applied to every query.
    pub budget: RaceBudget,
    /// Races the predictor must observe before staged pruning
    /// activates; the training workload should cover this.
    pub min_observations: usize,
}

impl Default for StrategySpec {
    fn default() -> Self {
        Self {
            config: PsiConfig::gql_spa_orig_dnd(),
            strategy: RaceStrategy::Adaptive { max_slices: 1, escalate_after: 0.02 },
            workers: 4,
            clients: 8,
            budget: RaceBudget::decision(),
            min_observations: 8,
        }
    }
}

/// A one-tenant engine serving `stored` under `strategy`.
fn racing_engine(
    stored: &Arc<Graph>,
    spec: &StrategySpec,
    strategy: RaceStrategy,
) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: spec.workers,
        // Admission must not cap the benefit under test: pruning frees
        // pool slots precisely so that *more* races can be in flight, so
        // both engines admit up to every client at once (the pool itself
        // stays the bottleneck).
        max_concurrent_races: spec.workers.max(spec.clients),
        tenant: EngineConfig {
            // Isolate the racing path: no result cache, no fast path —
            // every submission really races under the strategy.
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: spec.min_observations,
            race_strategy: strategy,
            default_budget: spec.budget.clone(),
            ..EngineConfig::default()
        },
    });
    let id = multi
        .register("stored", PsiRunner::new(Arc::clone(stored), spec.config.clone()))
        .expect("fresh registry");
    (multi, id)
}

/// Measures saturated-pool throughput of `queries` against `stored`
/// under the full-field race and under `spec.strategy`, returning both
/// qps numbers and the staged engine's pruning statistics.
///
/// The staged engine's predictor is first trained on `training` (raced
/// full-field until `spec.min_observations` races accumulate); the
/// measured passes then replay `queries` from `spec.clients` concurrent
/// clients against each engine in turn.
pub fn compare_race_strategies(
    stored: &Arc<Graph>,
    training: &[Graph],
    queries: &[Graph],
    spec: &StrategySpec,
) -> StrategyComparison {
    let (full, full_id) = racing_engine(stored, spec, RaceStrategy::Full);
    let (topk, topk_id) = racing_engine(stored, spec, spec.strategy);
    let traffic = |id: GraphId, qs: &[Graph]| -> Vec<(GraphId, Graph)> {
        qs.iter().map(|q| (id, q.clone())).collect()
    };
    // Train the staged engine's predictor (and warm both pools evenly).
    submit_batch_multi(&topk, &traffic(topk_id, training), spec.clients);
    submit_batch_multi(&full, &traffic(full_id, training), spec.clients);

    let full_report = submit_batch_multi(&full, &traffic(full_id, queries), spec.clients);
    let topk_report = submit_batch_multi(&topk, &traffic(topk_id, queries), spec.clients);

    let stats = topk.stats();
    StrategyComparison {
        full_qps: full_report.qps,
        topk_qps: topk_report.qps,
        speedup: if full_report.qps > 0.0 { topk_report.qps / full_report.qps } else { 0.0 },
        escalation_rate: stats.escalation_rate,
        pruned_entrants: stats.pruned_entrants,
        topk_races: stats.topk_races,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_gen::Workloads;
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn comparison_measures_both_strategies_and_prunes() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
        let stored = Arc::new(random_connected_graph(60, 140, &labels, &mut rng));
        let training: Vec<Graph> = Workloads::nfv_workload(&stored, 6, 12, 5);
        let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 6, 16, 6);
        assert!(training.len() >= 8 && !queries.is_empty());

        let spec = StrategySpec { workers: 2, clients: 4, ..StrategySpec::default() };
        let cmp = compare_race_strategies(&stored, &training, &queries, &spec);
        assert!(cmp.full_qps > 0.0);
        assert!(cmp.topk_qps > 0.0);
        assert!(cmp.speedup > 0.0);
        // Every measured race is staged; late *training* races may stage
        // too once the observation floor is crossed mid-training.
        assert!(
            cmp.topk_races as usize >= queries.len(),
            "trained engine stages every measured race: {cmp:?}"
        );
        assert!(
            cmp.pruned_entrants > 0 || cmp.escalation_rate > 0.0,
            "staged races either prune or escalate"
        );
        assert!((0.0..=1.0).contains(&cmp.escalation_rate));
    }
}
