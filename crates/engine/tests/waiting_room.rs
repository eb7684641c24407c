//! The waiting room end to end: a non-blocking burst far over the race
//! limit completes with zero refusals, the overflow visibly parks, and
//! the room's depth and wait-time surface in stats and the Prometheus
//! scrape.

use psi_core::{PsiRunner, RaceBudget};
use psi_engine::{
    CompletionQueue, EngineConfig, MultiEngine, MultiEngineConfig, QueryRequest, Submit,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

#[test]
fn four_x_over_limit_burst_parks_instead_of_bouncing() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
    // Dense, label-poor graph: a large uncapped query on it is an
    // explosive enumeration that cannot finish before it is cancelled.
    let stored = random_connected_graph(60, 400, &labels, &mut rng);
    // Cache and fast path off so every submission needs a race slot —
    // 16 non-blocking submissions against 4 slots is a 4x burst.
    let races = 4;
    let burst = 4 * races;
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: races,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    });
    let id = engine.register("stored", PsiRunner::nfv_default(&stored)).expect("fresh registry");

    // Pin every slot with an explosive uncapped race first — admission
    // is synchronous, so the four permits are held the moment these
    // return. The burst below then *must* park: no slot can free while
    // the pins are alive, which makes the parked count deterministic
    // instead of racing the submission loop against fast finalizes.
    let pins: Vec<_> = (0..races)
        .map(|i| {
            let query = grown_query(&stored, 10, 500 + i as u64);
            engine
                .submit_nonblocking(
                    QueryRequest::new(query)
                        .graph(id)
                        .budget(RaceBudget::with_max_matches(usize::MAX)),
                )
                .expect("idle engine admits the pins")
        })
        .collect();

    let queue = CompletionQueue::new();
    let tickets: Vec<_> = (0..burst - races)
        .map(|i| {
            let query = grown_query(&stored, 4, 900 + i as u64);
            engine
                .submit_into(QueryRequest::new(query).graph(id).tag(i as u64), &queue)
                .expect("the waiting room absorbs the whole burst")
        })
        .collect();

    // The overflow is parked right now: the pins hold every slot, so
    // all twelve burst submissions sit in the room.
    let depth_during = engine.stats().waiting_room_depth;
    // Cancel the pins; their slots free and the room drains in FIFO
    // order through the grant chain.
    drop(pins);

    let mut seen = vec![false; tickets.len()];
    for _ in 0..tickets.len() {
        let tag = queue.wait() as usize;
        assert!(!seen[tag], "each ticket completes exactly once");
        seen[tag] = true;
        let response = tickets[tag].poll().expect("queued tag implies completion");
        assert!(response.conclusive);
        assert!(response.found(), "grown queries embed");
    }

    let stats = engine.stats();
    assert_eq!(stats.queries, burst as u64, "every burst query served");
    assert_eq!(stats.busy_rejections, 0, "nothing bounced with Busy");
    assert_eq!(stats.queue_full_rejections, 0);
    assert!(
        stats.parked >= (burst - races) as u64,
        "at least the overflow parked (parked = {}, overflow = {})",
        stats.parked,
        burst - races
    );
    assert!(depth_during > 0, "the room was visibly occupied while the burst was in flight");
    assert_eq!(stats.waiting_room_depth, 0, "the room drains with the burst");
    assert!(
        stats.park_wait_p99 >= stats.park_wait_p50,
        "park-wait percentiles come from a real histogram"
    );

    // The same story renders for a scraper: depth gauge, park counter,
    // park-wait histogram.
    let scrape = engine.exporter().render_prometheus();
    for family in ["psi_waiting_room_depth", "psi_parked_total", "psi_park_wait_us"] {
        assert!(scrape.contains(family), "scrape must expose {family}:\n{scrape}");
    }
    assert!(
        scrape.contains("psi_waiting_room_depth{graph=\"stored\"} 0"),
        "the drained room scrapes as depth 0:\n{scrape}"
    );
}

#[test]
fn zero_capacity_room_restores_hard_busy() {
    // waiting_room: 0 is the pre-room contract: a saturated engine
    // refuses non-blocking submissions instead of parking them.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 1,
        max_concurrent_races: 1,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            // Uncapped complete search: the race cannot conclude before
            // the probe below, so the slot stays visibly held.
            default_budget: RaceBudget::with_max_matches(usize::MAX),
            waiting_room: 0,
            ..EngineConfig::default()
        },
    });
    let id = engine.register("stored", PsiRunner::nfv_default(&stored)).expect("fresh registry");
    // An explosive query pins the only slot; with no room, the next
    // submission must bounce.
    let slow = grown_query(&stored, 10, 5);
    let held =
        engine.submit_nonblocking(QueryRequest::new(slow).graph(id)).expect("idle engine admits");
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!held.is_complete(), "explosive search cannot conclude this fast");
    let probe = grown_query(&stored, 4, 6);
    let refused = engine.submit_nonblocking(QueryRequest::new(probe).graph(id));
    assert!(refused.is_err(), "no room, no parking: saturated engine refuses");
    assert_eq!(engine.stats().parked, 0);
    assert!(engine.stats().busy_rejections >= 1);
    drop(held); // cancels the pinned race
}
