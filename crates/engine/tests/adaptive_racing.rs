//! Staged racing (`RaceStrategy::Adaptive`): staged escalation preserves
//! the full race's verdicts, pruning actually skips entrants once the
//! predictor has evidence, and escalation respects the original
//! admission-anchored deadline.

use proptest::prelude::*;
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{
    EngineConfig, GraphId, MultiEngine, MultiEngineConfig, QueryRequest, RaceStrategy, ServePath,
    Submit, TelemetryConfig, TraceEvent, TraceRecord,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::Graph;
use psi_matchers::bruteforce;
use psi_matchers::Algorithm;
use psi_rewrite::Rewriting;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pair(seed: u64) -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    let target = random_connected_graph(16, 30, &labels, &mut rng);
    let query = random_connected_graph(4, 5, &labels, &mut rng);
    (query, target)
}

/// Staged racing with slicing off: only the entrant count is tuned.
fn staged(escalate_after: f64) -> RaceStrategy {
    RaceStrategy::Adaptive { max_slices: 1, escalate_after }
}

/// One tenant serving `runner` over a `workers`-thread pool.
fn serve(runner: PsiRunner, workers: usize, tenant: EngineConfig) -> (MultiEngine, GraphId) {
    let multi =
        MultiEngine::new(MultiEngineConfig { workers, max_concurrent_races: workers, tenant });
    let id = multi.register("target", runner).expect("fresh registry");
    (multi, id)
}

/// An engine whose every miss races (no cache, no fast path) under the
/// given strategy, with the predictor training gate opened so staging is
/// active from the first query.
fn racing_engine(
    target: &Graph,
    config: PsiConfig,
    strategy: RaceStrategy,
) -> (MultiEngine, GraphId) {
    serve(
        PsiRunner::new(Arc::new(target.clone()), config),
        2,
        EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 0,
            race_strategy: strategy,
            default_budget: RaceBudget::decision(),
            // Room for every race of the tests below in the slow log.
            telemetry: TelemetryConfig { slow_query_capacity: 64, ..TelemetryConfig::default() },
            ..EngineConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A staged race with escalation reaches the same conclusive
    /// found/not-found verdict as a Full race on the same query — and
    /// both match brute-force ground truth. Escalation fractions cover
    /// immediate (0.0), mid-budget, and heat-exhaustion-only (1.0).
    #[test]
    fn prop_staged_verdict_equals_full_race(seed in 0u64..20_000, stage in 0usize..3) {
        let (query, target) = pair(seed);
        let truth = bruteforce::contains(&query, &target);
        let escalate_after = [0.0, 0.5, 1.0][stage];

        let field = PsiConfig::gql_spa_orig_dnd();
        let (full, f) = racing_engine(&target, field.clone(), RaceStrategy::Full);
        let (adaptive, a) = racing_engine(&target, field, staged(escalate_after));

        let full_response = full.submit(f, &query).unwrap();
        let staged_response = adaptive.submit(a, &query).unwrap();
        prop_assert!(full_response.conclusive, "tiny inputs must conclude");
        prop_assert!(staged_response.conclusive, "staged race must also conclude");
        prop_assert_eq!(staged_response.path, ServePath::Race);
        prop_assert_eq!(full_response.found(), truth);
        prop_assert_eq!(staged_response.found(), truth);
        let stats = adaptive.stats();
        prop_assert_eq!(stats.topk_races, 1, "a trained-gate race of 4 variants must stage");
        // An empty predictor votes with share 0, so the heat is half the
        // field: 2 launch, 2 reserve.
        prop_assert_eq!(stats.pruned_entrants + stats.escalations * 2, 2,
            "either the heat decided (2 pruned) or the reserve launched");
    }
}

#[test]
fn trained_staging_prunes_losing_entrants() {
    let (_, target) = pair(77);
    let (engine, id) = racing_engine(&target, PsiConfig::gql_spa_orig_dnd(), staged(1.0));
    // Serve a batch of small queries; with no race timeout the heat
    // always concludes, so the unlaunched variants of every staged race
    // are pruned. Periodic exploration probes run the full field — those
    // (and escalated races) are contested races that feed the
    // predictor's per-entrant tallies, as do heats of two or more.
    let mut served = 0u64;
    for seed in 0..32 {
        let (query, _) = pair(3000 + seed);
        let response = engine.submit(id, &query).unwrap();
        assert!(response.conclusive);
        served += 1;
    }
    let stats = engine.stats();
    assert!(
        stats.topk_races < served,
        "exploration probes must run some full-field races: {stats:?}"
    );
    assert!(stats.topk_races >= served * 3 / 4, "most races should still be staged: {stats:?}");
    // Per race, from the slow-query log (sized to hold all of them):
    // with `escalate_after: 1.0` and a decision budget every heat decides
    // or escalates. A decided heat launches 1..4 entrants and prunes the
    // rest; probes and escalated races run the whole field and prune
    // nothing.
    let races: Vec<_> = engine.slow_queries().into_iter().map(|(_, q)| q).collect();
    assert_eq!(races.len() as u64, served);
    let mut decided_heats = 0u64;
    for race in &races {
        assert_eq!(race.entrants.len(), 4, "one timing per configured variant: {race:?}");
        let pruned = race.entrants.iter().filter(|e| e.pruned).count();
        if pruned > 0 {
            decided_heats += 1;
            assert!(pruned < 4, "a decided heat launched at least one entrant: {race:?}");
        }
    }
    assert_eq!(
        decided_heats,
        stats.topk_races - stats.escalations,
        "exactly the non-escalated staged races prune their reserve: {stats:?}"
    );
    let pruned: u64 =
        races.iter().map(|q| q.entrants.iter().filter(|e| e.pruned).count() as u64).sum();
    assert_eq!(pruned, stats.pruned_entrants);
    let contested = races
        .iter()
        .filter(|q| q.winner.is_some() && q.entrants.iter().filter(|e| !e.pruned).count() > 1)
        .count() as u64;
    let tallies = engine.entrant_tallies(id).expect("registered");
    assert_eq!(tallies.len(), 4, "one tally per configured variant");
    let wins: u64 = tallies.iter().map(|t| t.wins).sum();
    assert_eq!(
        wins, contested,
        "only contested races credit a winner — uncontested heat wins would be \
         self-fulfilling evidence"
    );
    assert!(wins >= 1, "probes guarantee some contested evidence");
}

/// A query/stored-graph pair whose complete search is combinatorially
/// explosive: single-label dense graph, path query, no cap — no variant
/// can conclude before any realistic deadline.
fn explosive_setup() -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let mut picked = vec![0u32];
    while picked.len() < 10 {
        let from = picked[rng.random_range(0..picked.len())];
        let nbrs = stored.neighbors(from);
        let next = nbrs[rng.random_range(0..nbrs.len())];
        if !picked.contains(&next) {
            picked.push(next);
        }
    }
    let labels: Vec<u32> = picked.iter().map(|&v| stored.label(v)).collect();
    let mut edges = Vec::new();
    for (i, &u) in picked.iter().enumerate() {
        for (j, &v) in picked.iter().enumerate().skip(i + 1) {
            if stored.has_edge(u, v) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    (stored, psi_graph::graph::graph_from_parts(&labels, &edges))
}

#[test]
fn escalation_respects_the_admission_anchored_deadline() {
    let (stored, slow_query) = explosive_setup();
    let timeout = Duration::from_millis(600);
    // Two variants and an empty predictor: a one-entrant heat, one
    // entrant in reserve.
    let (engine, id) = serve(
        PsiRunner::nfv_default(&stored),
        1,
        EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 0,
            race_strategy: staged(0.75),
            default_budget: RaceBudget::with_max_matches(usize::MAX).timeout(timeout),
            ..EngineConfig::default()
        },
    );
    let admitted = Instant::now();
    let response = engine.submit(id, &slow_query).unwrap();
    let elapsed = admitted.elapsed();
    assert!(!response.conclusive, "no variant can finish an explosive search in time");
    let stats = engine.stats();
    assert_eq!(stats.topk_races, 1);
    assert_eq!(stats.escalations, 1, "the undecided heat must escalate at the stage deadline");
    assert_eq!(stats.pruned_entrants, 0);
    // Escalated entrants run under the ORIGINAL admission-anchored
    // deadline: the whole race ends ≈ one timeout after admission. If
    // escalation re-anchored deadlines at stage time, the race would run
    // to ~1.75× the timeout; the margins leave ~50% slack either way so
    // a loaded CI runner cannot flake the assertion.
    assert!(
        elapsed < timeout.mul_f64(1.5),
        "escalated race must still honour the admission-anchored deadline, took {elapsed:?}"
    );
    assert!(elapsed >= timeout.mul_f64(0.8), "the race should have used its budget: {elapsed:?}");
}

#[test]
fn staging_falls_back_to_full_until_trained() {
    let (query, target) = pair(5);
    let (engine, id) = serve(
        PsiRunner::new(Arc::new(target.clone()), PsiConfig::gql_spa_orig_dnd()),
        2,
        EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 3,
            race_strategy: staged(0.5),
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    );
    // Below the observation floor every race runs the full field.
    for _ in 0..3 {
        assert!(engine.submit(id, &query).unwrap().conclusive);
    }
    let warmup = engine.stats();
    assert_eq!(warmup.topk_races, 0, "training-phase races must not be staged");
    assert_eq!(warmup.pruned_entrants, 0);
    // With the floor met, staging begins.
    assert!(engine.submit(id, &query).unwrap().conclusive);
    assert_eq!(engine.stats().topk_races, 1);
}

#[test]
fn a_one_entrant_field_runs_unstaged() {
    let (query, target) = pair(9);
    let single = PsiConfig::rewritings(Algorithm::GraphQl, [Rewriting::Orig]);
    let (engine, id) = racing_engine(&target, single, staged(0.5));
    assert!(engine.submit(id, &query).unwrap().conclusive);
    let stats = engine.stats();
    assert_eq!(stats.topk_races, 0, "a single entrant leaves nothing to stage");
    assert_eq!(stats.pruned_entrants, 0);
}

#[test]
fn a_dropped_ticket_prunes_the_reserve_instead_of_escalating() {
    let (stored, slow_query) = explosive_setup();
    // Two variants and an open training gate: a one-entrant heat with one
    // entrant in reserve, and a stage deadline (at the full timeout) far
    // beyond the test.
    let (engine, id) = serve(
        PsiRunner::nfv_default(&stored),
        2,
        EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 0,
            race_strategy: staged(1.0),
            default_budget: RaceBudget::with_max_matches(usize::MAX)
                .timeout(Duration::from_secs(60)),
            ..EngineConfig::default()
        },
    );
    let ticket =
        engine.submit_nonblocking(QueryRequest::new(slow_query).graph(id)).expect("admitted");
    let query = ticket.query_id();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut events = Vec::new();
    let started = |events: &[TraceRecord]| {
        events
            .iter()
            .any(|r| matches!(r.event, TraceEvent::EntrantStarted { query: q, .. } if q == query))
    };
    while !started(&events) {
        assert!(Instant::now() < deadline, "the heat never started");
        std::thread::sleep(Duration::from_millis(2));
        events.extend(engine.drain_trace().into_iter().map(|(_, r)| r));
    }
    // The heat is searching an explosive space: dropping the ticket
    // cancels it, and nobody is left to want the reserve.
    drop(ticket);
    while engine.stats().races == 0 {
        assert!(Instant::now() < deadline, "the cancelled race never finalized");
        std::thread::sleep(Duration::from_millis(2));
    }
    events.extend(engine.drain_trace().into_iter().map(|(_, r)| r));
    let stats = engine.stats();
    assert_eq!(stats.topk_races, 1);
    assert_eq!(stats.escalations, 0, "a cancelled race must not escalate: {stats:?}");
    assert_eq!(stats.pruned_entrants, 1, "the reserve is pruned: {stats:?}");
    let finalized: Vec<_> = events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Finalized { query: q, cancelled, .. } if q == query => Some(cancelled),
            _ => None,
        })
        .collect();
    assert_eq!(finalized, vec![true], "exactly one cancelled terminal event");
}
