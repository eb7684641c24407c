//! Engine serving benchmarks: cache-hit vs. cold-race latency, and
//! pooled-race throughput under concurrent clients vs. the one-shot
//! thread-per-race library path.

use criterion::{criterion_group, criterion_main, Criterion};
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{EngineConfig, GraphId, MultiEngine, MultiEngineConfig, RaceStrategy, ServePath};
use psi_graph::{datasets, Graph};
use psi_workload::{compare_race_strategies, submit_batch_multi, StrategySpec, Workloads};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One tenant on a 4-worker pool; `runner` serves under `tenant`.
fn one_tenant(
    runner: PsiRunner,
    max_concurrent_races: usize,
    tenant: EngineConfig,
) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig { workers: 4, max_concurrent_races, tenant });
    let id = multi.register("yeast", runner).expect("fresh registry");
    (multi, id)
}

fn serving_engine(stored: &Graph, cache_capacity: usize) -> (MultiEngine, GraphId) {
    one_tenant(
        PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd()),
        4,
        EngineConfig {
            cache_capacity,
            // Benchmarks isolate cache/race costs; keep the predictor out.
            predictor_confidence: 2.0,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    )
}

/// `queries` as traffic routed to the tenant `id`.
fn traffic(id: GraphId, queries: &[Graph]) -> Vec<(GraphId, Graph)> {
    queries.iter().map(|q| (id, q.clone())).collect()
}

fn bench_cache_vs_cold(c: &mut Criterion) {
    let stored = datasets::yeast_like(0.2, 42);
    let query = Workloads::single_query(&stored, 10, 9).expect("generable query");

    let (cold_engine, cold_id) = serving_engine(&stored, 0); // cache disabled: every submit races
    let (warm_engine, warm_id) = serving_engine(&stored, 4096);
    let cold_submit = || cold_engine.submit(cold_id, &query).expect("registered graph");
    let warm_submit = || warm_engine.submit(warm_id, &query).expect("registered graph");
    warm_submit(); // prime the cache

    let mut group = c.benchmark_group("engine_repeat_query");
    group.sample_size(20);
    group.bench_function("cold_race", |b| b.iter(|| black_box(cold_submit())));
    group.bench_function("cache_hit", |b| b.iter(|| black_box(warm_submit())));
    group.finish();

    // Direct headline number for the acceptance check: median cache-hit
    // latency vs. median cold-race latency on the same repeated query.
    let median = |f: &dyn Fn()| {
        let mut times: Vec<f64> = (0..31)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[times.len() / 2]
    };
    let cold = median(&|| {
        black_box(cold_submit());
    });
    let hit = median(&|| {
        black_box(warm_submit());
    });
    assert_eq!(warm_submit().path, ServePath::CacheHit);
    println!(
        "engine_repeat_query/speedup: cache hit {:.1}x faster than cold race \
         (cold {:.1} µs, hit {:.1} µs)",
        cold / hit,
        cold * 1e6,
        hit * 1e6
    );
}

fn bench_concurrent_throughput(c: &mut Criterion) {
    let stored = datasets::yeast_like(0.2, 42);
    let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 8, 24, 7);
    let runner = PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd());

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    // The library path: one scoped-thread race per query, serially.
    group.bench_function("one_shot_races_serial", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(runner.race(q, RaceBudget::decision()));
            }
        })
    });
    // The serving path: same queries as concurrent traffic over a fixed
    // pool (cache off so every query actually races).
    let (engine, id) = serving_engine(&stored, 0);
    let pooled = traffic(id, &queries);
    group.bench_function("engine_pooled_8_clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&engine, &pooled, 8)))
    });
    // And with the cache on, a mostly-repeated workload collapses to hits.
    let (cached, cached_id) = serving_engine(&stored, 4096);
    let repeated = traffic(cached_id, &queries);
    submit_batch_multi(&cached, &repeated, 8);
    group.bench_function("engine_cached_8_clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&cached, &repeated, 8)))
    });
    group.finish();
}

fn bench_race_strategies(c: &mut Criterion) {
    let stored = Arc::new(datasets::yeast_like(0.1, 42));
    let training: Vec<Graph> = Workloads::nfv_workload(&stored, 10, 32, 5);
    let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 10, 48, 6);
    let spec = StrategySpec {
        config: PsiConfig::gql_spa_orig_dnd(),
        strategy: RaceStrategy::Adaptive { max_slices: 1, escalate_after: 0.02 },
        workers: 4,
        clients: 8,
        budget: RaceBudget::with_max_matches(64),
        min_observations: 16,
    };

    // Criterion loop: one full-field engine vs one trained staged engine,
    // each serving the measured workload from 8 clients (cache off, so
    // every request really races).
    let build = |strategy: RaceStrategy| {
        let (engine, id) = one_tenant(
            PsiRunner::new(Arc::clone(&stored), spec.config.clone()),
            // Admission above worker count: pruning frees pool slots so
            // more races can be in flight; don't cap that here.
            spec.clients,
            EngineConfig {
                cache_capacity: 0,
                predictor_confidence: 2.0,
                predictor_min_observations: spec.min_observations,
                // The criterion loop replays the workload many times; a
                // bounded window keeps each ranking's k-NN scan (paid
                // per miss by the staged engine) at a fixed cost instead
                // of growing with every observed race.
                predictor_window: 256,
                race_strategy: strategy,
                default_budget: spec.budget.clone(),
                ..EngineConfig::default()
            },
        );
        submit_batch_multi(&engine, &traffic(id, &training), spec.clients); // warm / train
        let measured = traffic(id, &queries);
        (engine, measured)
    };
    let (full, full_traffic) = build(RaceStrategy::Full);
    let (topk, topk_traffic) = build(spec.strategy);

    let mut group = c.benchmark_group("race_strategy_saturated");
    group.sample_size(10);
    group.bench_function("full_field_8_clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&full, &full_traffic, spec.clients)))
    });
    group.bench_function("staged_escalating_8_clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&topk, &topk_traffic, spec.clients)))
    });
    group.finish();

    // Direct headline comparison (fresh engines, disjoint training) for
    // eyeball numbers next to the criterion output.
    let cmp = compare_race_strategies(&stored, &training, &queries, &spec);
    println!(
        "race_strategy_saturated/summary: full {:.0} qps, staged {:.0} qps ({:.2}x), \
         {} entrants pruned, {:.1}% of staged races escalated",
        cmp.full_qps,
        cmp.topk_qps,
        cmp.speedup,
        cmp.pruned_entrants,
        cmp.escalation_rate * 100.0
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(15);
    targets = bench_cache_vs_cold, bench_concurrent_throughput, bench_race_strategies
}
criterion_main!(benches);
