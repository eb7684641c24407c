//! The one serving front, end to end: every route a caller can take into
//! a `MultiEngine` — blocking `submit`, `submit_nonblocking` + `wait`,
//! `submit_into` + a `CompletionQueue`, and a loopback TCP `PsiClient` —
//! answers every query of a seeded workload exactly as brute force does,
//! under both the full race and staged adaptive racing (with slicing).
//!
//! Caching and the predictor fast path are off, so every route really
//! races instead of replaying the first route's cached answers.

use psi::graph::generate::{random_connected_graph, LabelDist};
use psi::graph::graph::graph_from_parts;
use psi::matchers::bruteforce;
use psi::matchers::matcher::is_valid_embedding;
use psi::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn stored_graph() -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(2017);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    random_connected_graph(40, 90, &labels, &mut rng)
}

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

/// 24 grown queries of 3–7 nodes (the larger ones reach the slicing
/// threshold) plus queries that cannot embed: a label the stored graph
/// never uses, and a 6-clique on a sparse graph.
fn workload(stored: &Graph) -> Vec<Graph> {
    let mut queries: Vec<Graph> =
        (0..24).map(|i| grown_query(stored, 3 + (i % 5), 900 + i as u64)).collect();
    queries.push(graph_from_parts(&[7], &[]));
    queries.push(graph_from_parts(&[0, 7, 1], &[(0, 1), (1, 2)]));
    let clique: Vec<(u32, u32)> = (0..6).flat_map(|u| (u + 1..6).map(move |v| (u, v))).collect();
    queries.push(graph_from_parts(&[0; 6], &clique));
    queries
}

/// One route's answer to one query: verdict plus the embeddings it
/// returned (the wire carries only the first).
struct Answer {
    found: bool,
    conclusive: bool,
    embeddings: Vec<Vec<u32>>,
}

impl From<EngineResponse> for Answer {
    fn from(r: EngineResponse) -> Self {
        Self { found: r.found(), conclusive: r.conclusive, embeddings: r.answer.embeddings.clone() }
    }
}

fn engine(strategy: RaceStrategy) -> (Arc<MultiEngine>, GraphId) {
    // More workers than cores on a small box, so a staged heat finds
    // idle workers to split into slices.
    let multi = Arc::new(MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 4,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            // Stage from the first race: no training phase to wait out.
            predictor_min_observations: 0,
            race_strategy: strategy,
            default_budget: RaceBudget::with_max_matches(8),
            ..EngineConfig::default()
        },
    }));
    let id = multi.register("stored", PsiRunner::nfv_default(&stored_graph())).unwrap();
    (multi, id)
}

/// Answers `queries` through each of the four routes, in route order.
fn every_route(multi: &Arc<MultiEngine>, id: GraphId, queries: &[Graph]) -> Vec<Vec<Answer>> {
    let request = |q: &Graph| QueryRequest::new(q.clone()).graph(id);
    let blocking = queries.iter().map(|q| multi.submit(id, q).unwrap().into()).collect();
    let ticketed = queries
        .iter()
        .map(|q| multi.submit_nonblocking(request(q)).unwrap().wait().into())
        .collect();

    let queue = CompletionQueue::new();
    let tickets: Vec<QueryTicket> = (0..queries.len())
        .map(|i| multi.submit_into(request(&queries[i]).tag(i as u64), &queue).unwrap())
        .collect();
    let mut queued: Vec<Option<Answer>> = (0..queries.len()).map(|_| None).collect();
    for _ in 0..queries.len() {
        let tag = queue.wait() as usize;
        queued[tag] = Some(tickets[tag].poll().expect("queued tag implies completion").into());
    }

    let server = psi::net::loopback(Arc::clone(multi), 1).unwrap();
    let mut client = PsiClient::connect(server.addr()).unwrap();
    let wire = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut frame = QueryFrame::new(id.index() as u64, q);
            frame.tag = i as u64;
            let reply = client.roundtrip(&frame).unwrap();
            assert_eq!((reply.tag, reply.status), (i as u64, WireStatus::Ok));
            let v = reply.verdict.expect("Ok replies carry a verdict");
            let embeddings = if v.embedding.is_empty() { Vec::new() } else { vec![v.embedding] };
            Answer { found: v.found, conclusive: v.conclusive, embeddings }
        })
        .collect();

    vec![
        blocking,
        ticketed,
        queued.into_iter().map(|a| a.expect("every tag drained")).collect(),
        wire,
    ]
}

fn check_against_bruteforce(strategy: RaceStrategy) {
    let stored = stored_graph();
    let queries = workload(&stored);
    let truth: Vec<bool> = queries.iter().map(|q| bruteforce::contains(q, &stored)).collect();
    assert!(
        truth.iter().filter(|&&t| !t).count() >= 3,
        "the workload carries non-embeddable queries"
    );

    let (multi, id) = engine(strategy);
    let routes = ["submit", "submit_nonblocking + wait", "submit_into + queue", "loopback TCP"];
    for (route, answers) in routes.iter().zip(every_route(&multi, id, &queries)) {
        for (i, (answer, &expected)) in answers.iter().zip(&truth).enumerate() {
            let at = format!("{strategy:?} via {route}, query {i}");
            assert!(answer.conclusive, "{at}: small queries conclude");
            assert_eq!(answer.found, expected, "{at}: verdict differs from brute force");
            assert_eq!(answer.embeddings.is_empty(), !expected, "{at}: embeddings match verdict");
            for emb in &answer.embeddings {
                assert!(is_valid_embedding(&queries[i], &stored, emb), "{at}: invalid {emb:?}");
            }
        }
    }
    let stats = multi.stats();
    assert_eq!(stats.races, 4 * queries.len() as u64, "every answer came from a race");
    if let RaceStrategy::Adaptive { .. } = strategy {
        assert!(stats.topk_races > 0 && stats.sliced_races > 0, "staged and sliced: {stats:?}");
    }
}

#[test]
fn full_race_answers_like_bruteforce_on_every_route() {
    check_against_bruteforce(RaceStrategy::Full);
}

#[test]
fn adaptive_racing_answers_like_bruteforce_on_every_route() {
    check_against_bruteforce(RaceStrategy::Adaptive { max_slices: 2, escalate_after: 0.5 });
}

/// A full race launches its entrants best-ranked first. The predictor's
/// state comes from a snapshot plus hand-written WAL samples for the
/// query's features: entrant 1 won twice, entrant 0 once, so the ranking
/// is [1, 0] with a 2/3 leader share, under the 0.9 a fast heat needs. On
/// one worker the entrants run in launch order, so the first entrant to
/// start is the ranked leader, not the first-listed entrant.
#[test]
fn a_full_race_starts_its_ranked_leader_first() {
    use psi::core::predictor::QueryFeatures;
    use psi::matchers::Algorithm;
    use psi::store::{Wal, WalRecord};

    let stored = stored_graph();
    let query = grown_query(&stored, 4, 77);
    let config = || MultiEngineConfig {
        workers: 1,
        max_concurrent_races: 1,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_k: 3,
            predictor_min_observations: 3,
            predictor_confidence: 0.9,
            race_strategy: RaceStrategy::Full,
            default_budget: RaceBudget::matching(),
            ..EngineConfig::default()
        },
    };
    let runner = PsiRunner::new(
        Arc::new(stored.clone()),
        PsiConfig::new(vec![
            Variant::new(Algorithm::Ullmann, Rewriting::Orig),
            Variant::new(Algorithm::GraphQl, Rewriting::Orig),
        ]),
    );
    let features = QueryFeatures::extract(&query, runner.label_stats());
    let dir = std::env::temp_dir().join(format!("psi-ranked-launch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let saved = {
        let untrained = MultiEngine::new(config());
        let id = untrained.register("ranked", runner).unwrap();
        untrained.save_graph(id, &dir).unwrap()
    };
    let (mut wal, _) = Wal::open(&saved.wal_path).unwrap();
    for winner in [1, 1, 0] {
        wal.append(&WalRecord::Sample { features, winner }).unwrap();
    }
    drop(wal);

    let engine = MultiEngine::new(config());
    let id = engine.load_graph(&saved.snapshot_path).unwrap().graph;
    let r = engine.submit(id, &query).unwrap();
    let started: Vec<u32> = engine
        .drain_trace()
        .into_iter()
        .filter_map(|(_, rec)| match rec.event {
            TraceEvent::EntrantStarted { entrant, .. } => Some(entrant),
            _ => None,
        })
        .collect();
    assert_eq!(started.first(), Some(&1), "the ranked leader starts first: {started:?}");
    let stats = engine.stats();
    assert_eq!((r.path, stats.races_unconfident), (ServePath::Race, 1));
    let want = bruteforce::enumerate(&query, &stored, &SearchBudget::unlimited());
    assert!(r.conclusive && want.num_matches < 1000, "the answer is the whole embedding set");
    let mut got = r.answer.embeddings.clone();
    let mut want = want.embeddings;
    got.sort();
    want.sort();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}
