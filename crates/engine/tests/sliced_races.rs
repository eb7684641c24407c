//! Intra-query slicing end to end through the engine: an idle-biased
//! pool under [`RaceStrategy::Adaptive`] splits heat entrants into
//! cooperating root-candidate slices, the slice counters and trace
//! events surface, answers stay correct — and a cancelled sliced race
//! releases its admission slot (no leaked permits).

use psi_core::{PsiRunner, RaceBudget};
use psi_engine::{
    CompletionQueue, EngineConfig, GraphId, MultiEngine, MultiEngineConfig, QueryRequest,
    RaceStrategy, Submit, TraceEvent,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Grows a connected query from a random stored-graph node, so the query
/// is guaranteed to embed.
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

/// An idle-biased adaptive engine: one race at a time over many workers,
/// so the scheduler always sees spare capacity to hand out as slices.
fn sliced_engine(stored: &Graph) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 8,
        max_concurrent_races: 1,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 0,
            race_strategy: RaceStrategy::Adaptive { max_slices: 4, escalate_after: 1.0 },
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    });
    let id = multi.register("stored", PsiRunner::nfv_default(stored)).expect("fresh registry");
    (multi, id)
}

#[test]
fn adaptive_engine_slices_big_queries_and_answers_correctly() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    let stored = random_connected_graph(80, 240, &labels, &mut rng);
    let (engine, id) = sliced_engine(&stored);

    // Queries above `slice_min_query_nodes` (default 6) on an idle pool
    // must slice; grown queries always embed, so correctness is
    // observable per answer.
    let served = 8u64;
    for seed in 0..served {
        let query = grown_query(&stored, 8, 4000 + seed);
        let response = engine.submit(id, &query).unwrap();
        assert!(response.conclusive, "decision races on small graphs conclude");
        assert!(response.found(), "grown queries embed");
    }

    let stats = engine.stats();
    assert_eq!(stats.queries, served);
    assert_eq!(stats.sliced_races, served, "every big query on an idle pool slices");
    assert!(
        stats.slices_spawned > stats.sliced_races,
        "sliced races spawn multiple slice tasks: spawned = {}, races = {}",
        stats.slices_spawned,
        stats.sliced_races
    );

    // The slice lifecycle is visible in the trace: every spawned slice
    // finishes, even those cancelled by a sibling's conclusive verdict.
    let events: Vec<_> = engine.drain_trace().into_iter().map(|(_, r)| r).collect();
    let spawned =
        events.iter().filter(|r| matches!(r.event, TraceEvent::SliceSpawned { .. })).count() as u64;
    let finished =
        events.iter().filter(|r| matches!(r.event, TraceEvent::SliceFinished { .. })).count()
            as u64;
    assert_eq!(spawned, stats.slices_spawned, "one SliceSpawned per spawned slice task");
    assert_eq!(finished, spawned, "every slice reports SliceFinished");

    // The scrape exposes the same counters.
    let scrape = engine.exporter().render_prometheus();
    assert!(scrape.contains("psi_slices_total"), "scrape must expose slice counters:\n{scrape}");
    assert!(scrape.contains("psi_slice_steals_total"));
}

#[test]
fn small_queries_stay_unsliced() {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    let stored = random_connected_graph(40, 90, &labels, &mut rng);
    let (engine, id) = sliced_engine(&stored);
    for seed in 0..4 {
        let query = grown_query(&stored, 3, 7000 + seed);
        assert!(engine.submit(id, &query).unwrap().conclusive);
    }
    let stats = engine.stats();
    assert_eq!(stats.sliced_races, 0, "3-node queries sit below slice_min_query_nodes");
    assert_eq!(stats.slices_spawned, 0);
}

#[test]
fn cancelled_sliced_race_frees_its_admission_slot() {
    // A dense single-label graph makes an uncapped 10-node query
    // combinatorially explosive: its sliced race cannot conclude and
    // holds the engine's only race slot until cancelled.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let (engine, id) = sliced_engine(&stored);

    let explosive = grown_query(&stored, 10, 5);
    let held = engine
        .submit_nonblocking(
            QueryRequest::new(explosive).graph(id).budget(RaceBudget::with_max_matches(usize::MAX)),
        )
        .expect("idle engine admits");
    std::thread::sleep(Duration::from_millis(50));
    assert!(!held.is_complete(), "explosive sliced search cannot conclude this fast");
    // Dropping the ticket cancels the race mid-flight: the group token
    // fires, every slice unwinds, and the flight finalizes inconclusive.
    drop(held);

    // If a cancelled slice leaked its permit the engine would stay
    // saturated forever: with one race slot, the probe below would park
    // and never be granted. A bounded wait converts that hang into a
    // failure.
    let queue = CompletionQueue::new();
    let probe = grown_query(&stored, 8, 6);
    let ticket = engine
        .submit_into(QueryRequest::new(probe).graph(id).tag(1), &queue)
        .expect("waiting room absorbs the probe even while the cancel drains");
    assert!(
        queue.wait_timeout(Duration::from_secs(30)).is_some(),
        "cancelled sliced race must release its slot: probe never ran"
    );
    let response = ticket.poll().expect("queued tag implies completion");
    assert!(response.conclusive);
    assert!(response.found(), "grown probe embeds");

    let stats = engine.stats();
    assert!(stats.sliced_races >= 1, "the explosive race must have sliced: {stats:?}");
    assert!(stats.slices_spawned >= 2, "sliced race spawns at least two slices: {stats:?}");
    assert_eq!(stats.queries, 2, "both the cancelled race and the probe were admitted");
}
