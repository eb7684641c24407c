//! Multi-graph registry benchmarks: skewed traffic over 4 stored graphs
//! served by one shared 4-worker pool, versus the same traffic over four
//! dedicated single-worker engines (same total thread count). Skew is
//! where the shared pool earns its keep — dedicated pools idle on the
//! cold graphs while the hot graph's queue grows.

use criterion::{criterion_group, criterion_main, Criterion};
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{EngineConfig, MultiEngine, MultiEngineConfig, QueryRequest};
use psi_workload::{submit_batch_async, submit_batch_multi, MultiWorkload, MultiWorkloadSpec};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tenant_config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        cache_capacity,
        // Isolate pool/cache behaviour; the predictor has its own bench.
        predictor_confidence: 2.0,
        default_budget: RaceBudget::decision(),
        ..EngineConfig::default()
    }
}

fn build_multi(
    workload: &MultiWorkload,
    cache_capacity: usize,
) -> (MultiEngine, Vec<(psi_engine::GraphId, psi_graph::Graph)>) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 4,
        tenant: tenant_config(cache_capacity),
    });
    let ids: Vec<_> = workload
        .graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            multi
                .register(
                    format!("bench-{i}"),
                    PsiRunner::new(Arc::clone(g), PsiConfig::gql_spa_orig_dnd()),
                )
                .expect("unique name")
        })
        .collect();
    let traffic = workload.traffic.iter().map(|(g, q)| (ids[*g], q.clone())).collect::<Vec<_>>();
    (multi, traffic)
}

fn bench_shared_vs_dedicated(c: &mut Criterion) {
    let spec = MultiWorkloadSpec { total_queries: 96, skew: 1.2, ..MultiWorkloadSpec::default() };
    let workload = MultiWorkload::generate(&spec, 99);

    let mut group = c.benchmark_group("multi_engine");
    group.sample_size(10);

    // One shared 4-worker pool serving all 4 graphs (cache off: every
    // request really races).
    let (shared, traffic) = build_multi(&workload, 0);
    group.bench_function("shared_pool_4graphs_8clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&shared, &traffic, 8)))
    });

    // Four dedicated one-tenant engines, one worker each (same total
    // threads), each fed its own slice of the same traffic by two clients.
    let engines: Vec<_> = workload
        .graphs
        .iter()
        .map(|g| {
            let engine = MultiEngine::new(MultiEngineConfig {
                workers: 1,
                max_concurrent_races: 1,
                tenant: tenant_config(0),
            });
            let runner = PsiRunner::new(Arc::clone(g), PsiConfig::gql_spa_orig_dnd());
            let id = engine.register("dedicated", runner).expect("fresh registry");
            (engine, id)
        })
        .collect();
    group.bench_function("dedicated_pools_4x1worker", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for (gid, (engine, id)) in engines.iter().enumerate() {
                    let slice: Vec<_> = workload
                        .traffic
                        .iter()
                        .filter(|(g, _)| *g == gid)
                        .map(|(_, q)| q)
                        .collect();
                    scope.spawn(move || {
                        let cursor = AtomicUsize::new(0);
                        std::thread::scope(|inner| {
                            for _ in 0..2 {
                                inner.spawn(|| loop {
                                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                                    if idx >= slice.len() {
                                        break;
                                    }
                                    black_box(engine.submit(*id, slice[idx]).expect("registered"));
                                });
                            }
                        });
                    });
                }
            });
        })
    });

    // Shared pool with per-graph caches on: the skewed repeats collapse
    // to partition hits.
    let (cached, cached_traffic) = build_multi(&workload, 4096);
    submit_batch_multi(&cached, &cached_traffic, 8); // warm every partition
    group.bench_function("shared_pool_warm_caches", |b| {
        b.iter(|| black_box(submit_batch_multi(&cached, &cached_traffic, 8)))
    });
    group.finish();
}

fn bench_async_frontend(c: &mut Criterion) {
    let spec = MultiWorkloadSpec { total_queries: 96, skew: 1.2, ..MultiWorkloadSpec::default() };
    let workload = MultiWorkload::generate(&spec, 99);

    let mut group = c.benchmark_group("async_frontend");
    group.sample_size(10);

    // Blocking thread-per-request clients: 8 threads, one in-flight
    // query each (the classic submit_batch_multi driver).
    let (blocking, traffic) = build_multi(&workload, 0);
    group.bench_function("blocking_8clients", |b| {
        b.iter(|| black_box(submit_batch_multi(&blocking, &traffic, 8)))
    });

    // Ticket frontend: 2 event-loop clients keep up to 8 tickets each
    // in flight over the same 4-worker pool (admission raised so the
    // pool, not the gate, is the bottleneck).
    let ticketed = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 16,
        tenant: tenant_config(0),
    });
    let ids: Vec<_> = workload
        .graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            ticketed
                .register(
                    format!("bench-{i}"),
                    PsiRunner::new(Arc::clone(g), PsiConfig::gql_spa_orig_dnd()),
                )
                .expect("unique name")
        })
        .collect();
    let requests: Vec<QueryRequest> =
        workload.traffic.iter().map(|(g, q)| QueryRequest::new(q.clone()).graph(ids[*g])).collect();
    group.bench_function("tickets_2clients_16inflight", |b| {
        b.iter(|| black_box(submit_batch_async(&ticketed, &requests, 2, 8)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_shared_vs_dedicated, bench_async_frontend
}
criterion_main!(benches);
