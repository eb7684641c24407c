//! The ticket frontend: non-blocking submission returns a completion
//! handle, dropping it cancels the race and frees pool slots, timed-out
//! waits don't poison the slot, completion queues drain many tickets
//! from one thread — and blocking submission is provably the ticket path
//! plus `wait`.

use proptest::prelude::*;
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{
    AdmissionError, CompletionQueue, EngineConfig, GraphId, MultiEngine, MultiEngineConfig,
    QueryRequest, RaceStrategy, RouteError, ServePath, Submit, SubmitError,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
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

/// Grows a small connected query from a random stored-graph node, so the
/// query is guaranteed to embed.
fn grown_query(g: &Graph, nodes: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let start = rng.random_range(0..g.node_count() as u32);
    let mut picked = vec![start];
    while picked.len() < nodes {
        let from = picked[rng.random_range(0..picked.len())];
        let nbrs = g.neighbors(from);
        let next = nbrs[rng.random_range(0..nbrs.len())];
        if !picked.contains(&next) {
            picked.push(next);
        }
    }
    let labels: Vec<u32> = picked.iter().map(|&v| g.label(v)).collect();
    let mut edges = Vec::new();
    for (i, &u) in picked.iter().enumerate() {
        for (j, &v) in picked.iter().enumerate().skip(i + 1) {
            if g.has_edge(u, v) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    graph_from_parts(&labels, &edges)
}

/// A query/stored-graph pair whose complete search is combinatorially
/// explosive: single-label dense graph, path query, no cap — no variant
/// can conclude before any realistic deadline.
fn explosive_setup() -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let query = grown_query(&stored, 10, 5);
    (stored, query)
}

/// A one-tenant engine whose every miss races (no cache, no fast path).
fn race_only(
    stored: &Graph,
    workers: usize,
    races: usize,
    budget: RaceBudget,
) -> (MultiEngine, GraphId) {
    race_only_with_room(stored, workers, races, budget, EngineConfig::default().waiting_room)
}

/// Like [`race_only`], with an explicit waiting-room bound (0 restores
/// hard `Busy` refusals on the non-blocking path).
fn race_only_with_room(
    stored: &Graph,
    workers: usize,
    races: usize,
    budget: RaceBudget,
    waiting_room: usize,
) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers,
        max_concurrent_races: races,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            default_budget: budget,
            waiting_room,
            ..EngineConfig::default()
        },
    });
    let id = multi.register("stored", PsiRunner::nfv_default(stored)).expect("fresh registry");
    (multi, id)
}

#[test]
fn dropping_a_ticket_cancels_the_race_and_frees_the_slot() {
    let (stored, slow_query) = explosive_setup();
    // NO wall-clock timeout: without cancellation this race would occupy
    // the single worker and the single admission slot essentially
    // forever, and the probe loop below would never admit. Waiting room
    // disabled so capacity exhaustion is *observable* as `Busy`.
    let (engine, id) =
        race_only_with_room(&stored, 1, 1, RaceBudget::with_max_matches(usize::MAX), 0);
    let ticket = engine
        .submit_nonblocking(QueryRequest::new(slow_query).graph(id))
        .expect("idle engine admits immediately");
    // Let the race occupy the worker, then confirm the engine is full.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!ticket.is_complete(), "explosive search cannot conclude this fast");
    let probe = grown_query(&stored, 3, 99);
    assert!(
        matches!(
            engine.submit_nonblocking(QueryRequest::new(probe.clone()).graph(id)).unwrap_err(),
            SubmitError::Admission(AdmissionError::Busy { .. })
        ),
        "the slow race must hold the only admission slot"
    );

    // Dropping the ticket cancels the race: its entrants unwind at the
    // next budget check, the admission slot and the worker free, and the
    // probe gets served — no leaked workers, no leaked slots.
    drop(ticket);
    let deadline = Instant::now() + Duration::from_secs(10);
    let response = loop {
        let request = QueryRequest::new(probe.clone()).graph(id).budget(RaceBudget::decision());
        match engine.submit_nonblocking(request) {
            Ok(t) => break t.wait(),
            Err(SubmitError::Admission(AdmissionError::Busy { .. })) => {
                assert!(
                    Instant::now() < deadline,
                    "dropped ticket must free its admission slot promptly"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected engine error: {other}"),
        }
    };
    assert!(response.conclusive, "the freed worker must serve the probe to completion");
    assert!(response.found());
    let stats = engine.stats();
    assert!(stats.inconclusive >= 1, "the cancelled race finalizes as inconclusive");
}

#[test]
fn wait_timeout_expires_without_poisoning_the_ticket() {
    let (stored, slow_query) = explosive_setup();
    let race_budget = Duration::from_millis(500);
    let (engine, id) =
        race_only(&stored, 1, 1, RaceBudget::with_max_matches(usize::MAX).timeout(race_budget));
    let started = Instant::now();
    let ticket = engine
        .submit_nonblocking(QueryRequest::new(slow_query).graph(id))
        .expect("idle engine admits");
    // The wait gives up long before the race budget...
    assert!(ticket.wait_timeout(Duration::from_millis(30)).is_none());
    assert!(started.elapsed() < race_budget, "wait_timeout must return before the race budget");
    assert!(!ticket.is_complete());
    // ...and the ticket is untouched: a later wait still completes with
    // the race's real (here: timed-out, inconclusive) verdict.
    let response = ticket.wait_timeout(race_budget * 4).expect("race ends at its deadline");
    assert!(!response.conclusive, "explosive search must time out");
    assert!(!response.found());
}

#[test]
fn wait_timeout_returns_completed_answers() {
    let (query, target) = pair(17);
    let (engine, id) = race_only(&target, 2, 2, RaceBudget::decision());
    let ticket =
        engine.submit_nonblocking(QueryRequest::new(query).graph(id)).expect("idle engine admits");
    let response = ticket.wait_timeout(Duration::from_secs(30)).expect("tiny race concludes");
    assert!(response.conclusive);
    assert_eq!(response.path, ServePath::Race);
}

#[test]
fn completion_queue_drains_many_tickets_from_one_thread() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
    let stored = random_connected_graph(60, 140, &labels, &mut rng);
    // Admission far above the worker count: all 24 queries are in flight
    // at once, racing 2-at-a-time on the pool, no client thread blocked.
    let (engine, id) = race_only(&stored, 2, 32, RaceBudget::decision());
    let queue = CompletionQueue::new();
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            let query = grown_query(&stored, 4, 500 + i);
            engine
                .submit_into(QueryRequest::new(query).graph(id).tag(i), &queue)
                .expect("admission above the batch size")
        })
        .collect();
    let mut seen = vec![false; tickets.len()];
    for _ in 0..tickets.len() {
        let tag = queue.wait() as usize;
        assert!(!seen[tag], "each ticket completes exactly once");
        seen[tag] = true;
        let response = tickets[tag].poll().expect("queued tag implies completion");
        assert!(response.conclusive);
        assert!(response.found(), "grown queries embed");
    }
    assert!(seen.iter().all(|&s| s));
    assert_eq!(engine.stats().races, 24);
}

#[test]
fn multi_engine_routes_tickets_and_reports_routing_errors() {
    let (query, target) = pair(23);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
    });
    let id = multi.register("only", PsiRunner::nfv_default(&target)).expect("first registration");

    // A request without a graph cannot be routed...
    assert_eq!(
        multi.submit_nonblocking(QueryRequest::new(query.clone())).unwrap_err(),
        SubmitError::Route(RouteError::NoGraph)
    );
    // ...nor can one naming a graph that was never registered.
    let bogus = multi.graph_id("nope");
    assert_eq!(bogus, None);
    // A routed ticket serves normally and per-graph stats account for it.
    let ticket =
        multi.submit_nonblocking(QueryRequest::new(query).graph(id)).expect("routed request");
    let response = ticket.wait();
    assert!(response.conclusive);
    assert_eq!(multi.graph_stats(id).unwrap().queries, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The blocking call and the ticket path agree verdict for
    /// verdict — they *are* the same admission code path, and this pins
    /// it: found/not-found, conclusiveness and (complete-search) match
    /// counts all coincide, under both race strategies.
    #[test]
    fn prop_blocking_submit_equals_ticket_wait(seed in 0u64..20_000, staged in 0usize..2) {
        let (query, target) = pair(seed);
        let strategy = if staged == 1 {
            RaceStrategy::Adaptive { max_slices: 2, escalate_after: 0.5 }
        } else {
            RaceStrategy::Full
        };
        let make_engine = || {
            let multi = MultiEngine::new(MultiEngineConfig {
                workers: 2,
                max_concurrent_races: 2,
                tenant: EngineConfig {
                    cache_capacity: 0,
                    predictor_confidence: 2.0,
                    predictor_min_observations: 0,
                    race_strategy: strategy,
                    // Complete searches have a unique answer set, so the
                    // two paths must agree exactly, not just on `found`.
                    default_budget: RaceBudget::with_max_matches(usize::MAX),
                    ..EngineConfig::default()
                },
            });
            let runner = PsiRunner::new(Arc::new(target.clone()), PsiConfig::gql_spa_orig_dnd());
            let id = multi.register("target", runner).expect("fresh registry");
            (multi, id)
        };
        let (engine, id) = make_engine();
        let blocking = engine.submit(id, &query).expect("registered graph");
        let (engine, id) = make_engine();
        let ticketed = engine
            .submit_nonblocking(QueryRequest::new(query.clone()).graph(id))
            .expect("idle engine admits")
            .wait();
        prop_assert!(blocking.conclusive, "tiny inputs must conclude");
        prop_assert!(ticketed.conclusive);
        prop_assert_eq!(blocking.found(), ticketed.found());
        prop_assert_eq!(blocking.num_matches(), ticketed.num_matches());
        prop_assert_eq!(blocking.path, ServePath::Race);
        prop_assert_eq!(ticketed.path, ServePath::Race);
    }
}
