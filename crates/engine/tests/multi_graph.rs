//! Multi-graph serving integration: per-graph cache partitions never
//! collide and evict independently, queueing delay under a saturated
//! shared pool still counts against each query's race budget no matter
//! which graph submitted it, and a flooding tenant cannot wedge a light
//! one.

use psi_core::{PsiRunner, RaceBudget};
use psi_engine::{
    EngineConfig, EngineResponse, GraphId, MultiEngine, MultiEngineConfig, QueryRequest, ServePath,
    Submit, SubmitError,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn stored_graph(seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
    random_connected_graph(60, 140, &labels, &mut rng)
}

/// Grows a small connected query from a stored-graph node, so the query
/// is guaranteed to embed in that graph.
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

/// Tenant template with the predictor disabled so every miss races.
fn race_only_tenant() -> EngineConfig {
    EngineConfig {
        predictor_confidence: 2.0,
        default_budget: RaceBudget::decision(),
        ..EngineConfig::default()
    }
}

#[test]
fn identical_queries_on_different_graphs_never_collide() {
    // Graph A contains the 0–1 edge pattern; graph B has no label-0 node
    // at all. Same query, opposite answers — a cache keyed only by the
    // query (ignoring the graph) would leak A's answer to B.
    let a_graph = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let b_graph = graph_from_parts(&[2, 3, 2], &[(0, 1), (1, 2)]);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        tenant: race_only_tenant(),
    });
    let a = multi.register("has-pattern", PsiRunner::nfv_default(&a_graph)).unwrap();
    let b = multi.register("lacks-pattern", PsiRunner::nfv_default(&b_graph)).unwrap();

    let query = graph_from_parts(&[0, 1], &[(0, 1)]);
    let a_cold = multi.submit(a, &query).unwrap();
    let b_cold = multi.submit(b, &query).unwrap();
    assert!(a_cold.found());
    assert!(!b_cold.found());

    // Replays hit each graph's own partition and keep per-graph answers.
    let a_warm = multi.submit(a, &query).unwrap();
    let b_warm = multi.submit(b, &query).unwrap();
    assert_eq!(a_warm.path, ServePath::CacheHit);
    assert_eq!(b_warm.path, ServePath::CacheHit);
    assert!(a_warm.found(), "A's cached answer must stay A's");
    assert!(!b_warm.found(), "B's cached answer must not be polluted by A's");

    let a_stats = multi.graph_stats(a).unwrap();
    let b_stats = multi.graph_stats(b).unwrap();
    assert_eq!(a_stats.cache_hits, 1);
    assert_eq!(b_stats.cache_hits, 1);
    assert_eq!(multi.stats().cache_hits, 2);
}

#[test]
fn per_graph_eviction_leaves_other_graphs_hot_entries_alone() {
    let a_graph = stored_graph(41);
    let b_graph = stored_graph(43);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        // Tiny single-shard caches so eviction is easy to force.
        tenant: EngineConfig { cache_shards: 1, cache_capacity: 2, ..race_only_tenant() },
    });
    let a = multi.register("hot-tenant", PsiRunner::nfv_default(&a_graph)).unwrap();
    let b = multi.register("churny-tenant", PsiRunner::nfv_default(&b_graph)).unwrap();

    // Prime A's hot entry and B's first entry.
    let hot = grown_query(&a_graph, 4, 7);
    assert_eq!(multi.submit(a, &hot).unwrap().path, ServePath::Race);
    assert_eq!(multi.submit(a, &hot).unwrap().path, ServePath::CacheHit);
    let b_first = grown_query(&b_graph, 4, 100);
    assert_eq!(multi.submit(b, &b_first).unwrap().path, ServePath::Race);

    // Flood B with distinct queries, far past its 2-entry capacity.
    for seed in 101..113 {
        let q = grown_query(&b_graph, 4, seed);
        multi.submit(b, &q).unwrap();
    }

    // B's own earliest entry has churned out...
    assert_eq!(
        multi.submit(b, &b_first).unwrap().path,
        ServePath::Race,
        "B's first entry should have been evicted by B's own churn"
    );
    // ...but A's hot entry is untouched: partitions evict independently.
    assert_eq!(
        multi.submit(a, &hot).unwrap().path,
        ServePath::CacheHit,
        "B's eviction churn must never evict A's hot entry"
    );
}

/// Blocking submission of `query` to `graph` under an explicit budget.
fn submit_with_budget(
    multi: &MultiEngine,
    graph: GraphId,
    query: &Graph,
    budget: RaceBudget,
) -> Result<EngineResponse, SubmitError> {
    multi.submit_request(QueryRequest::new(query.clone()).graph(graph).budget(budget))
}

/// A stored-graph/query pair whose complete search is combinatorially
/// explosive: single-label dense graph, path query, no embedding cap.
fn explosive_setup() -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let query = grown_query(&stored, 10, 5);
    (stored, query)
}

/// The deadline-accounting regression (ISSUE 2 satellite): when the one
/// shared pool is saturated by graph A's race, a query for graph B that
/// spends its whole budget queued must come back inconclusive — its
/// deadline anchors at submission, so cross-graph queueing delay counts
/// against the race budget exactly as single-graph queueing does.
#[test]
fn queueing_delay_counts_against_budget_across_graphs() {
    let (heavy_graph, explosive) = explosive_setup();
    let light_graph = stored_graph(59);
    // One worker serializes all pool tasks; two admission slots let the
    // light query through the gate immediately so only *pool* queueing
    // delays it.
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 1,
        max_concurrent_races: 2,
        tenant: race_only_tenant(),
    });
    let heavy = multi.register("heavy", PsiRunner::nfv_default(&heavy_graph)).unwrap();
    let light = multi.register("light", PsiRunner::nfv_default(&light_graph)).unwrap();

    let trivial = grown_query(&light_graph, 4, 17);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = submit_with_budget(
                &multi,
                heavy,
                &explosive,
                RaceBudget::with_max_matches(usize::MAX).timeout(Duration::from_millis(700)),
            );
        });
        std::thread::sleep(Duration::from_millis(100));
        // 50 ms budget, but the single worker is pinned by the heavy
        // graph's race for ~700 ms: the budget expires in the queue.
        let response = submit_with_budget(
            &multi,
            light,
            &trivial,
            RaceBudget::decision().timeout(Duration::from_millis(50)),
        )
        .unwrap();
        assert!(
            !response.conclusive,
            "light graph's queued-past-deadline query must not conclude (path {:?})",
            response.path
        );
        assert!(!response.found());
    });
    // On an idle pool the same query and budget succeed comfortably.
    let direct = submit_with_budget(
        &multi,
        light,
        &trivial,
        RaceBudget::decision().timeout(Duration::from_millis(50)),
    )
    .unwrap();
    assert!(direct.conclusive, "idle-engine control must conclude");
}

#[test]
fn flooding_tenant_does_not_wedge_a_light_tenant() {
    let (heavy_graph, explosive) = explosive_setup();
    let light_graph = stored_graph(61);
    let multi = Arc::new(MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        tenant: race_only_tenant(),
    }));
    let heavy = multi.register("heavy", PsiRunner::nfv_default(&heavy_graph)).unwrap();
    let light = multi.register("light", PsiRunner::nfv_default(&light_graph)).unwrap();

    let start = Instant::now();
    std::thread::scope(|scope| {
        // The heavy tenant floods: a stream of explosive races, each
        // capped at 150 ms, submitted back-to-back from two clients.
        for _ in 0..2 {
            let multi = Arc::clone(&multi);
            let explosive = explosive.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    let _ = submit_with_budget(
                        &multi,
                        heavy,
                        &explosive,
                        RaceBudget::with_max_matches(usize::MAX)
                            .timeout(Duration::from_millis(150)),
                    );
                }
            });
        }
        // Meanwhile the light tenant keeps submitting trivial queries;
        // all of them must be served (no starvation, no deadlock).
        let mut served = 0;
        for seed in 0..10 {
            let q = grown_query(&light_graph, 4, 300 + seed);
            let r = multi.submit(light, &q).unwrap();
            if r.conclusive {
                served += 1;
            }
        }
        assert_eq!(served, 10, "every light-tenant query must conclude");
    });
    assert!(start.elapsed() < Duration::from_secs(30), "mixed flood must drain without wedging");
    let light_stats = multi.graph_stats(light).unwrap();
    assert_eq!(light_stats.queries, 10);
    assert_eq!(multi.graph_stats(heavy).unwrap().queries, 8);
    assert_eq!(multi.stats().queries, 18);
}

#[test]
fn aggregate_stats_sum_per_graph_stats() {
    let g1 = stored_graph(71);
    let g2 = stored_graph(73);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        tenant: race_only_tenant(),
    });
    let a = multi.register("one", PsiRunner::nfv_default(&g1)).unwrap();
    let b = multi.register("two", PsiRunner::nfv_default(&g2)).unwrap();
    for seed in 0..5 {
        multi.submit(a, &grown_query(&g1, 4, seed)).unwrap();
    }
    for seed in 0..3 {
        multi.submit(b, &grown_query(&g2, 4, 50 + seed)).unwrap();
    }
    let (sa, sb, agg) =
        (multi.graph_stats(a).unwrap(), multi.graph_stats(b).unwrap(), multi.stats());
    assert_eq!(sa.queries, 5);
    assert_eq!(sb.queries, 3);
    assert_eq!(agg.queries, 8);
    assert_eq!(agg.races, sa.races + sb.races);
    assert_eq!(agg.cache_misses, sa.cache_misses + sb.cache_misses);
    assert!(agg.latency_p50 <= agg.latency_p99);
    assert!(agg.throughput_qps > 0.0);
}
