//! Shared `TargetIndex` benchmarks: what registration pays to build the
//! index, and what a first query costs on top of it.

use criterion::{criterion_group, criterion_main, Criterion};
use psi_graph::{datasets, TargetIndex};
use psi_matchers::{Algorithm, SearchBudget};
use psi_workload::Workloads;
use std::hint::black_box;
use std::sync::Arc;

fn bench_build_cost(c: &mut Criterion) {
    let stored = Arc::new(datasets::yeast_like(0.2, 42));
    let mut group = c.benchmark_group("target_index_build");
    group.sample_size(20);
    // The one-time registration cost: full index (with the dense
    // bitset) vs the bitset-free variant large graphs get.
    group.bench_function("build_full", |b| {
        b.iter(|| black_box(TargetIndex::build(Arc::clone(&stored))))
    });
    group.bench_function("build_without_bitset", |b| {
        b.iter(|| black_box(TargetIndex::build_without_bitset(Arc::clone(&stored))))
    });
    group.finish();

    let ix = TargetIndex::build(Arc::clone(&stored));
    println!(
        "target_index: {} nodes, build {} µs, ~{} KiB resident, bitset={}",
        stored.node_count(),
        ix.build_micros(),
        ix.memory_bytes() / 1024,
        ix.has_bitset(),
    );
}

fn bench_first_query(c: &mut Criterion) {
    // Registration plus the first query: one shared index build
    // amortized over a GQL+SPA matcher pair, each followed by one cold
    // search.
    let stored = Arc::new(datasets::yeast_like(0.2, 42));
    let query = Workloads::single_query(&stored, 10, 9).expect("generable query");
    let budget = SearchBudget::first_match();
    let mut group = c.benchmark_group("target_index_first_query");
    group.sample_size(10);
    group.bench_function("indexed_prepare_and_search", |b| {
        b.iter(|| {
            let ix = Arc::new(TargetIndex::build(Arc::clone(&stored)));
            for alg in [Algorithm::GraphQl, Algorithm::SPath] {
                let m = alg.prepare_indexed(Arc::clone(&ix));
                black_box(m.search(&query, &budget));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build_cost, bench_first_query);
criterion_main!(benches);
