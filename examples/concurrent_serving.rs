//! Serve a concurrent query workload through the Ψ-engine: a fixed
//! worker pool races every query's (rewriting × algorithm) variants,
//! admission control bounds in-flight work, repeated queries hit the
//! result cache, and the predictor fast path takes over once trained.
//!
//! ```text
//! cargo run --release --example concurrent_serving
//! ```

use psi::engine::ServePath;
use psi::prelude::*;
use psi_core::PsiConfig;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A yeast-like stored graph and a 4-variant racing configuration:
    // {GraphQL, sPath} × {original, DND rewriting}.
    let stored = psi::graph::datasets::yeast_like(0.3, 7);
    let config = PsiConfig::gql_spa_orig_dnd();
    let variants = config.thread_count();
    println!(
        "stored graph: {} nodes / {} edges; racing {} variants per query",
        stored.node_count(),
        stored.edge_count(),
        variants
    );

    // A workload of 120 queries with a skewed repeat pattern (some
    // queries are popular, as in real serving traffic).
    let distinct: Vec<psi::graph::Graph> = Workloads::nfv_workload(&stored, 10, 30, 2024);
    let mut queries = Vec::with_capacity(120);
    for i in 0..120 {
        // Zipf-ish repetition: the first few distinct queries dominate.
        let idx = if i % 3 == 0 { i % 4 } else { (i * 7) % distinct.len() };
        queries.push(distinct[idx].clone());
    }

    // The engine: 4 pooled workers serve 120 queries × 4 variants = 480
    // racing tasks — the one-shot library path would have spawned up to
    // 480 threads; the engine never exceeds its fixed pool.
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 4,
        tenant: EngineConfig {
            predictor_min_observations: 24,
            predictor_confidence: 0.7,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    });
    let yeast = engine
        .register("yeast", PsiRunner::new(Arc::new(stored.clone()), config))
        .expect("fresh engine");
    println!(
        "engine: {} workers, {} concurrent races max, {} queries inbound\n",
        4,
        4,
        queries.len()
    );

    // 8 client threads hammer the engine concurrently.
    let t0 = Instant::now();
    let traffic: Vec<_> = queries.iter().map(|q| (yeast, q.clone())).collect();
    let report = psi::workload::submit_batch_multi(&engine, &traffic, 8);
    let wall = t0.elapsed();

    let found = report.responses.iter().filter(|(_, r)| r.found()).count();
    println!(
        "served {} queries in {:.1} ms ({:.0} queries/s)",
        report.responses.len(),
        wall.as_secs_f64() * 1e3,
        report.qps
    );
    println!("  decisions: {found} embed / {} don't", report.responses.len() - found);
    println!(
        "  paths: {} races, {} cache hits, {} predictor fast-paths",
        report.races, report.cache_hits, report.fast_paths
    );

    let stats = engine.stats();
    println!("\nengine stats:");
    println!("  throughput     {:.0} queries/s", stats.throughput_qps);
    println!("  latency        p50 {:?}  p99 {:?}", stats.latency_p50, stats.latency_p99);
    println!(
        "  cache          {:.0}% hit rate ({} hits / {} misses)",
        stats.hit_rate * 100.0,
        stats.cache_hits,
        stats.cache_misses
    );
    println!(
        "  races          {} run, {} variants cancelled by winners",
        stats.races, stats.cancelled_variants
    );
    println!(
        "  fast path      {} served, {} fell back to a race",
        stats.fast_paths, stats.fast_path_fallbacks
    );

    // Show the cache effect directly: the hottest query, cold vs. hot —
    // submitted through the unified request builder this time (cache
    // hits complete the ticket at submission; no race, no waiting).
    let hot = &queries[0];
    let ticket = engine
        .submit_nonblocking(QueryRequest::new(hot.clone()).graph(yeast))
        .expect("cache hits are served even at capacity");
    assert!(ticket.is_complete(), "a cache hit completes its ticket immediately");
    let hot_response = ticket.wait();
    assert_eq!(hot_response.path, ServePath::CacheHit);
    println!(
        "\nhottest query: cold race took {:?}, cached answer now returns in {:?} ({}x faster)",
        hot_response.answer.cold_elapsed,
        hot_response.elapsed,
        (hot_response.answer.cold_elapsed.as_nanos() / hot_response.elapsed.as_nanos().max(1))
    );
}
