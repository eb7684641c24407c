//! Head-to-head matcher microbenchmarks: the five sub-iso engines on the
//! same (stored graph, query) pairs, decision and matching modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psi_graph::datasets;
use psi_matchers::{Algorithm, Matcher, SearchBudget};
use psi_workload::Workloads;
use std::hint::black_box;
use std::sync::Arc;

/// Seed of servebench's `cold_search` stored graph, `wordnet_like(0.25)`.
const WORDNET_SEED: u64 = 7;

fn bench_matchers(c: &mut Criterion) {
    let stored = Arc::new(datasets::yeast_like(0.2, 42));
    let prepared: Vec<(Algorithm, Arc<dyn Matcher>)> = [
        Algorithm::Vf2,
        Algorithm::Ullmann,
        Algorithm::QuickSi,
        Algorithm::GraphQl,
        Algorithm::SPath,
    ]
    .into_iter()
    .map(|a| (a, a.prepare(Arc::clone(&stored))))
    .collect();

    let mut group = c.benchmark_group("matchers_decision");
    for &edges in &[8usize, 16] {
        let query = Workloads::single_query(&stored, edges, 3).expect("generable");
        for (alg, m) in &prepared {
            group.bench_with_input(BenchmarkId::new(alg.short_name(), edges), &query, |b, q| {
                b.iter(|| black_box(m.search(q, &SearchBudget::first_match())))
            });
        }
    }
    group.finish();

    // `cold_search`'s regime: wordnet's 5 labels give every query vertex
    // a long label list, so the raced matchers' prework (candidate
    // filtering, refinement) dominates their search.
    let wordnet = Arc::new(datasets::wordnet_like(0.25, WORDNET_SEED));
    let mut group = c.benchmark_group("matchers_decision_wordnet");
    for alg in [Algorithm::GraphQl, Algorithm::SPath] {
        let m = alg.prepare(Arc::clone(&wordnet));
        for &edges in &[8usize, 16] {
            let query = Workloads::single_query(&wordnet, edges, 3).expect("generable");
            group.bench_with_input(BenchmarkId::new(alg.short_name(), edges), &query, |b, q| {
                b.iter(|| black_box(m.search(q, &SearchBudget::first_match())))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("matchers_matching_cap100");
    let query = Workloads::single_query(&stored, 12, 5).expect("generable");
    for (alg, m) in &prepared {
        group.bench_function(alg.short_name(), |b| {
            b.iter(|| black_box(m.search(&query, &SearchBudget::with_max_matches(100))))
        });
    }
    group.finish();
}

fn bench_prepare(c: &mut Criterion) {
    // The §2.1 indexing phases: what each algorithm pays per stored graph.
    let stored = Arc::new(datasets::yeast_like(0.2, 42));
    let mut group = c.benchmark_group("matcher_prepare");
    group.sample_size(10);
    for alg in [Algorithm::QuickSi, Algorithm::GraphQl, Algorithm::SPath] {
        group.bench_function(alg.short_name(), |b| {
            b.iter(|| black_box(alg.prepare(Arc::clone(&stored))))
        });
    }
    // sPath's radius-4 signatures over `cold_search`'s stored graph.
    let wordnet = Arc::new(datasets::wordnet_like(0.25, WORDNET_SEED));
    group.bench_function("SPA/wordnet", |b| {
        b.iter(|| black_box(Algorithm::SPath.prepare(Arc::clone(&wordnet))))
    });
    group.finish();
}

/// Short measurement windows: the workspace has many benchmarks and the
/// defaults (3s warm-up + 5s measurement each) would take tens of minutes.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_matchers, bench_prepare
}
criterion_main!(benches);
