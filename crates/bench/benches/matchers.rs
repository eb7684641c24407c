//! Head-to-head matcher microbenchmarks: the five sub-iso engines on the
//! same (stored graph, query) pairs, decision and matching modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psi_graph::{datasets, Graph, TargetIndex};
use psi_matchers::{Algorithm, Matcher, SearchBudget};
use psi_workload::Workloads;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

/// Seed of servebench's stored graphs: `cold_search`'s
/// `wordnet_like(0.25)` and `hot_repeat`'s `yeast_like(1.0)`.
const DATASET_SEED: u64 = 7;

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
    let wordnet = Arc::new(datasets::wordnet_like(0.25, DATASET_SEED));
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

    // The same regime as a stream: each iteration searches the next of
    // 256 distinct queries, 7 to 24 nodes drawn as in `cold_search`, so
    // the index's rule-1 candidate memo sees a realistic mix of seen and
    // new query-vertex profiles (a single repeated query would only ever
    // read a warm memo). Both matchers share one index, as racing
    // entrants do.
    bench_stream(c, "matchers_stream_wordnet", &wordnet, &cold_search_stream(&wordnet, 256));

    // The other side: `hot_repeat`'s yeast graph has 184 Zipf labels, so
    // most of sPath's signature layers name labels outside its eight
    // lanes and take the overflow walk. 256 queries of 4 to 10 edges,
    // near `hot_repeat`'s queries of 4 to 10 nodes.
    let yeast = Arc::new(datasets::yeast_like(1.0, DATASET_SEED));
    let stream: Vec<Graph> = (0..256)
        .map(|seed| {
            Workloads::single_query(&yeast, 4 + seed as usize % 7, seed).expect("generable")
        })
        .collect();
    bench_stream(c, "matchers_stream_yeast", &yeast, &stream);

    let mut group = c.benchmark_group("matchers_matching_cap100");
    let query = Workloads::single_query(&stored, 12, 5).expect("generable");
    for (alg, m) in &prepared {
        group.bench_function(alg.short_name(), |b| {
            b.iter(|| black_box(m.search(&query, &SearchBudget::with_max_matches(100))))
        });
    }
    group.finish();
}

/// GraphQL and sPath over one shared index of `g`, each iteration
/// searching the next query of `stream`.
fn bench_stream(c: &mut Criterion, name: &str, g: &Arc<Graph>, stream: &[Graph]) {
    let index = Arc::new(TargetIndex::build(Arc::clone(g)));
    let mut group = c.benchmark_group(name);
    for alg in [Algorithm::GraphQl, Algorithm::SPath] {
        let m = alg.prepare_indexed(Arc::clone(&index));
        let mut next = 0;
        group.bench_function(alg.short_name(), |b| {
            b.iter(|| {
                next = (next + 1) % stream.len();
                black_box(m.search(&stream[next], &SearchBudget::first_match()))
            })
        });
    }
    group.finish();
}

/// `count` queries grown from `g`, each from its own seed, with 6 to 23
/// edges and the smaller ones more often (`P(6 + k) ∝ 1 / (k + 1)`, the
/// Zipf shape `cold_search` draws its query sizes from).
fn cold_search_stream(g: &Graph, count: usize) -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(DATASET_SEED);
    let weights: Vec<f64> = (1..=18).map(|k| 1.0 / f64::from(k)).collect();
    let total: f64 = weights.iter().sum();
    (0..count as u64)
        .map(|seed| {
            let mut draw = rng.random_range(0.0..total);
            let mut k = 0;
            while k + 1 < weights.len() && draw >= weights[k] {
                draw -= weights[k];
                k += 1;
            }
            Workloads::single_query(g, 6 + k, seed).expect("generable")
        })
        .collect()
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
    let wordnet = Arc::new(datasets::wordnet_like(0.25, DATASET_SEED));
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
