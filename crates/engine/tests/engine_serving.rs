//! Integration: the engine serves concurrent traffic with the same
//! answers as one-shot `PsiRunner::race`, the result cache is sound and
//! observable, admission backpressure works, and queueing delay counts
//! against the race budget.

use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{
    AdmissionError, EngineConfig, GraphId, MultiEngine, MultiEngineConfig, QueryRequest, ServePath,
    Submit, SubmitError,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
use psi_matchers::matcher::is_valid_embedding;
use psi_matchers::Algorithm;
use psi_rewrite::Rewriting;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

fn stored_graph(seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
    random_connected_graph(60, 140, &labels, &mut rng)
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

fn sorted_embeddings(mut embs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    embs.sort();
    embs
}

/// A tenant config with the predictor fast path disabled so every miss
/// races.
fn race_only(budget: RaceBudget) -> EngineConfig {
    EngineConfig { predictor_confidence: 2.0, default_budget: budget, ..EngineConfig::default() }
}

/// One tenant serving `runner`: `workers` pool threads, `races`
/// admission slots.
fn serve(
    runner: PsiRunner,
    workers: usize,
    races: usize,
    tenant: EngineConfig,
) -> (MultiEngine, GraphId) {
    let multi =
        MultiEngine::new(MultiEngineConfig { workers, max_concurrent_races: races, tenant });
    let id = multi.register("stored", runner).expect("fresh registry");
    (multi, id)
}

#[test]
fn concurrent_submissions_match_serial_races() {
    let g = stored_graph(11);
    let config = PsiConfig::gql_spa_orig_dnd();
    let runner = PsiRunner::new(Arc::new(g.clone()), config.clone());

    // Complete searches (no embedding cap) have a unique answer set, so
    // serial and concurrent executions must agree exactly.
    let budget = RaceBudget::with_max_matches(usize::MAX);
    let queries: Vec<Graph> =
        (0..24).map(|i| grown_query(&g, 4 + (i % 3), 1000 + i as u64)).collect();
    let serial: Vec<(bool, usize, Vec<Vec<u32>>)> = queries
        .iter()
        .map(|q| {
            let outcome = runner.race(q, budget.clone());
            let w = outcome.winner().expect("serial race concludes");
            (outcome.found(), w.result.num_matches, sorted_embeddings(w.result.embeddings.clone()))
        })
        .collect();

    // Pool (3 workers) far smaller than queries × variants (24 × 4).
    let (engine, id) = serve(
        PsiRunner::new(Arc::new(g.clone()), config),
        3,
        2,
        EngineConfig { cache_capacity: 0, ..race_only(budget) },
    );
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let engine = &engine;
                scope.spawn(move || engine.submit(id, q).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for (i, (response, expected)) in responses.iter().zip(&serial).enumerate() {
        assert!(response.conclusive, "query {i} must conclude");
        assert_eq!(response.found(), expected.0, "query {i} decision");
        assert_eq!(response.num_matches(), expected.1, "query {i} match count");
        assert_eq!(
            sorted_embeddings(response.answer.embeddings.clone()),
            expected.2,
            "query {i} embedding set"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 24);
    assert_eq!(stats.races, 24);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn cache_hits_return_the_raced_answer() {
    let g = stored_graph(23);
    let runner = PsiRunner::new(
        Arc::new(g.clone()),
        PsiConfig::rewritings(Algorithm::GraphQl, [Rewriting::Orig, Rewriting::Ilf]),
    );
    let budget = RaceBudget::with_max_matches(usize::MAX);
    let query = grown_query(&g, 5, 7);
    let fresh = runner.race(&query, budget.clone());
    let fresh_w = fresh.winner().expect("fresh race concludes");

    let (engine, id) = serve(
        PsiRunner::new(
            Arc::new(g.clone()),
            PsiConfig::rewritings(Algorithm::GraphQl, [Rewriting::Orig, Rewriting::Ilf]),
        ),
        2,
        2,
        race_only(budget),
    );
    let cold = engine.submit(id, &query).unwrap();
    assert_eq!(cold.path, ServePath::Race);
    let warm = engine.submit(id, &query).unwrap();
    assert_eq!(warm.path, ServePath::CacheHit);

    // The cached answer equals both the engine's cold answer and an
    // independent fresh race.
    assert_eq!(warm.found(), cold.found());
    assert_eq!(warm.num_matches(), cold.num_matches());
    assert_eq!(warm.num_matches(), fresh_w.result.num_matches);
    assert_eq!(
        sorted_embeddings(warm.answer.embeddings.clone()),
        sorted_embeddings(fresh_w.result.embeddings.clone()),
    );

    let stats = engine.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert!((stats.hit_rate - 0.5).abs() < 1e-12);
    assert_eq!(stats.races, 1);
}

#[test]
fn renumbered_query_hits_the_cache() {
    // Distinct labels let canonicalization fully normalize the numbering.
    let g = graph_from_parts(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let (engine, id) = serve(
        PsiRunner::nfv_default(&g),
        2,
        2,
        race_only(RaceBudget::with_max_matches(usize::MAX)),
    );
    let q1 = graph_from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]);
    let q2 = graph_from_parts(&[2, 1, 0], &[(2, 1), (1, 0)]); // same path, renumbered
    let a1 = engine.submit(id, &q1).unwrap();
    let a2 = engine.submit(id, &q2).unwrap();
    assert_eq!(a1.path, ServePath::Race);
    assert_eq!(a2.path, ServePath::CacheHit);
    assert_eq!(a1.num_matches(), a2.num_matches());
    // The hit's embeddings must be valid in *q2's own* numbering, not the
    // numbering of the query that originally populated the entry.
    assert!(a2.found());
    for emb in &a2.answer.embeddings {
        assert!(
            is_valid_embedding(&q2, &g, emb),
            "cached embedding {emb:?} must be translated into q2's numbering"
        );
    }
    for emb in &a1.answer.embeddings {
        assert!(is_valid_embedding(&q1, &g, emb));
    }
}

/// A query/stored-graph pair whose complete search is combinatorially
/// explosive: single-label dense graph, path query, no cap.
fn explosive_setup() -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    let stored = random_connected_graph(120, 1200, &labels, &mut rng);
    let query = grown_query(&stored, 10, 5);
    (stored, query)
}

#[test]
fn nonblocking_submit_bounces_when_at_capacity_with_no_waiting_room() {
    let (stored, slow_query) = explosive_setup();
    let (engine, id) = serve(
        PsiRunner::nfv_default(&stored),
        1,
        1,
        EngineConfig {
            // Restore the pre-waiting-room contract: over-limit
            // non-blocking submissions bounce instead of parking.
            waiting_room: 0,
            ..race_only(
                RaceBudget::with_max_matches(usize::MAX).timeout(Duration::from_millis(600)),
            )
        },
    );
    let try_submit = |q: &Graph| {
        engine.submit_nonblocking(QueryRequest::new(q.clone()).graph(id)).map(|t| t.wait())
    };
    std::thread::scope(|scope| {
        let background = &engine;
        let sq = slow_query.clone();
        scope.spawn(move || {
            let _ = background.submit(id, &sq);
        });
        // Let the background race occupy the single admission slot, then
        // expect Busy from the non-blocking path. Probe a *different*
        // query so the cache cannot answer it.
        std::thread::sleep(Duration::from_millis(150));
        let probe = grown_query(&stored, 3, 99);
        match try_submit(&probe).unwrap_err() {
            SubmitError::Admission(AdmissionError::Busy { retry_hint }) => {
                // The hint is the engine's p50 latency clamped to a sane
                // band — never zero, never unbounded.
                assert!(retry_hint >= Duration::from_micros(200));
                assert!(retry_hint <= Duration::from_millis(100));
            }
            other => panic!("expected Busy at capacity, got {other}"),
        }
    });
    assert!(engine.stats().busy_rejections >= 1);
    assert_eq!(engine.stats().parked, 0, "waiting_room: 0 never parks");
    // Once drained, the same probe is served.
    let probe = grown_query(&stored, 3, 99);
    assert!(try_submit(&probe).is_ok());
}

#[test]
fn queueing_delay_counts_against_the_budget() {
    let (stored, slow_query) = explosive_setup();
    // One worker, two admission slots: the second query is admitted
    // immediately but its tasks queue behind the slow race's tasks.
    let (engine, id) = serve(
        PsiRunner::nfv_default(&stored),
        1,
        2,
        race_only(RaceBudget::with_max_matches(usize::MAX).timeout(Duration::from_millis(700))),
    );
    let trivial = grown_query(&stored, 4, 17);
    let with_50ms_budget = || {
        let budget = RaceBudget::decision().timeout(Duration::from_millis(50));
        engine.submit_request(QueryRequest::new(trivial.clone()).graph(id).budget(budget)).unwrap()
    };
    std::thread::scope(|scope| {
        let background = &engine;
        let sq = slow_query.clone();
        scope.spawn(move || {
            let _ = background.submit(id, &sq);
        });
        std::thread::sleep(Duration::from_millis(100));
        // Trivial query, but its 50 ms budget expires while queued behind
        // the ~700 ms race on the single worker. Deadlines anchor at
        // admission, so it must come back inconclusive — if deadlines
        // were anchored at pool start it would trivially succeed.
        let response = with_50ms_budget();
        assert!(
            !response.conclusive,
            "queued-past-deadline query must not conclude (path {:?})",
            response.path
        );
        assert!(!response.found());
    });
    // Served directly (idle engine), the same query with the same budget
    // succeeds comfortably.
    let direct = with_50ms_budget();
    assert!(direct.conclusive);
}

#[test]
fn fast_path_takes_over_after_training_and_falls_back_safely() {
    let g = stored_graph(31);
    let runner = PsiRunner::new(Arc::new(g.clone()), PsiConfig::gql_spa_orig());
    let (engine, id) = serve(
        runner,
        2,
        2,
        EngineConfig {
            cache_capacity: 0, // force every submit through predict/race
            predictor_min_observations: 8,
            predictor_confidence: 0.6,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    );
    // Training phase: all races (predictor below min observations).
    for i in 0..8 {
        let q = grown_query(&g, 4, 200 + i);
        assert_eq!(engine.submit(id, &q).unwrap().path, ServePath::Race);
    }
    // Serving phase: similar queries should now ride the fast path at
    // least sometimes, and answers must stay correct (these queries are
    // grown from the stored graph, so `found` must hold).
    let mut fast = 0;
    let mut fast_queries = Vec::new();
    for i in 0..12 {
        let q = grown_query(&g, 4, 400 + i);
        let r = engine.submit(id, &q).unwrap();
        assert!(r.conclusive);
        assert!(r.found(), "grown query {i} must embed");
        if r.path == ServePath::FastPath {
            fast += 1;
            fast_queries.push(q);
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.fast_paths, fast);
    assert!(fast > 0, "confident predictor should serve some fast paths");
    assert_eq!(stats.queries, 20);

    // Settle: re-serve the fast-path queries until one pass races none of
    // them. An uncontested fast-path win teaches the predictor nothing,
    // and a race with no winner teaches it no sample, so from here on
    // every query left in `fast_queries` stays confident.
    loop {
        let before = fast_queries.len();
        fast_queries.retain(|q| engine.submit(id, q).unwrap().path == ServePath::FastPath);
        if fast_queries.len() == before {
            break;
        }
    }
    assert!(!fast_queries.is_empty(), "some query must stay confident");

    // Fall back: an already-expired deadline makes the predicted entrant
    // inconclusive, so each query falls back to the race, which cannot
    // conclude either.
    let wait = |request: QueryRequest| {
        engine
            .submit_nonblocking(request.graph(id))
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("ticket completes; no admission slot leaked")
    };
    let before = engine.stats();
    for q in &fast_queries {
        let r = wait(QueryRequest::new(q.clone()).deadline(Duration::ZERO));
        assert!(!r.conclusive, "an expired deadline cannot conclude");
        assert_eq!(r.path, ServePath::Race, "an inconclusive fast path answers as a race");
    }
    let after = engine.stats();
    let fell_back = fast_queries.len() as u64;
    assert_eq!(after.fast_path_fallbacks, before.fast_path_fallbacks + fell_back);
    assert_eq!(after.inconclusive, before.inconclusive + fell_back);
    assert_eq!(after.fast_paths, before.fast_paths);
    // Every fallback released its admission slot: a normal submit still
    // gets through.
    let r = wait(QueryRequest::new(fast_queries[0].clone()));
    assert!(r.conclusive && r.found());
}
