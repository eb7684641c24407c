//! The CI bench artifact: a fixed, deterministic serving measurement
//! emitted as `BENCH_engine.json` and gated against a committed
//! `BENCH_baseline.json` by the `bench_check` binary.
//!
//! The artifact is the performance *trail* of the repo: every CI run
//! measures the same headline numbers — single-engine throughput,
//! serving latency percentiles, the cache-hit speedup, multi-graph
//! registry throughput racing the full field, the same workload under
//! staged racing, the staged escalation rate, and the ticket
//! frontend's throughput with 2 clients ≪ in-flight — writes them
//! as flat JSON (optionally stamped with commit SHA + date), uploads
//! the file as a workflow artifact, and fails the job if any metric regresses more
//! than the allowed fraction versus the committed baseline. The baseline
//! is deliberately conservative (CI runners are slower and noisier than
//! dev machines): it catches order-of-magnitude regressions — a lost
//! cache, a serialized pool — not single-digit drift.
//!
//! No serde in the tree, so the JSON is hand-rolled: a flat object of
//! numeric fields plus a `schema` version. [`parse_flat_json`] reads
//! exactly that shape back.

use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{
    EngineConfig, GraphId, MultiEngine, MultiEngineConfig, QueryRequest, RaceStrategy, ServePath,
};
use psi_graph::{datasets, Graph};
use psi_workload::{
    submit_batch_async, submit_batch_multi, MultiWorkload, MultiWorkloadSpec, Workloads,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Artifact schema version (bump when fields change meaning).
/// v2: added `topk_qps` and `escalation_rate` (adaptive top-K racing).
/// v3: added `async_qps` (ticket frontend, clients ≪ in-flight).
/// v4: added `indexed_speedup` (shared per-graph `TargetIndex` vs the
///     legacy scan paths, matching-race multi-graph workload).
/// v5: added `telemetry_overhead` (tracing-on vs tracing-off saturated
///     qps ratio, gated) plus the informational trail columns
///     `index_build_us`, `edge_probes_bitset`, `edge_probes_binary`.
/// v6: added `net_qps` (the same race-only workload served over real
///     loopback TCP by `psi_net::PsiServer` — 256 pipelined
///     connections, one event-loop thread).
/// v7: added `cold_start_speedup` (register-and-retrain from scratch vs
///     cold-opening a psi-store snapshot + WAL, gated) plus the
///     informational trail columns `snapshot_bytes` and
///     `wal_replay_us`; the top-K registry now races under a wall-clock
///     timeout with an early stage deadline so `escalation_rate` is
///     exercised (nonzero) instead of sitting at 0.000.
/// v8: added `ingest_qps` (query throughput while concurrent writers
///     stream additive `GraphUpdate` batches into the served graph —
///     reads through the delta overlay under constant cache
///     invalidation and epoch swaps, gated) plus the informational
///     trail column `compaction_us` (total time folding overlays into
///     new epochs during the ingest run).
/// v9: added `sliced_p99_speedup` (heavy-tailed idle-biased p99 with
///     intra-query slicing vs classic one-slice racing, gated) plus the
///     informational trail columns `slices_per_query` and `steal_count`
///     (the adaptive scheduler's slicing selectivity and the
///     work-stealing cursor's rebalancing activity). `topk_qps` and
///     `escalation_rate` keep their v2 names (the trail joins on them)
///     and measure `RaceStrategy::Adaptive { max_slices: 1,
///     escalate_after: 0.02 }`, the one staged strategy.
pub const SCHEMA_VERSION: f64 = 9.0;

/// The headline serving metrics CI tracks over time.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBenchMetrics {
    /// Single-engine throughput over the standard mixed batch
    /// (cold + warm pass), queries/second. Higher is better.
    pub qps: f64,
    /// Median end-to-end serving latency over the standard batch,
    /// microseconds. Lower is better.
    pub p50_us: f64,
    /// 99th-percentile serving latency, microseconds. Lower is better.
    pub p99_us: f64,
    /// Median cache-hit latency vs. median cold-race latency on one
    /// repeated query. Higher is better.
    pub cache_hit_speedup: f64,
    /// Multi-graph registry racing throughput: 4 graphs, skewed traffic,
    /// a 4-variant field racing in full on one shared saturated 4-worker
    /// pool, caches off so every request really races, queries/second.
    /// (v2: previously measured with caches on; hit-serving speed is
    /// already tracked by `qps` and `cache_hit_speedup`.) Higher is
    /// better.
    pub multi_qps: f64,
    /// The same race-only workload served with staged racing
    /// (`RaceStrategy::Adaptive` with slicing off: a predictor-sized
    /// first heat, staged escalation) by an identical registry whose
    /// predictors were pre-trained on a disjoint stream, queries/second.
    /// The headline comparison is `topk_qps` vs `multi_qps`: pruning
    /// predictable losers frees pool slots, so staged racing should meet
    /// or beat the full field on a saturated pool. Higher is better.
    pub topk_qps: f64,
    /// Fraction of the staged registry's staged races that escalated to
    /// the full field, in [0, 1]. Tracked for the trail; the gate direction
    /// is lower-is-better but a conservative baseline keeps it from ever
    /// failing on noise (the rate is bounded by 1).
    pub escalation_rate: f64,
    /// The same race-only multi-graph workload driven through the
    /// non-blocking ticket frontend: ONE event-loop client thread
    /// keeping up to 8 queries in flight over the same saturated
    /// 4-worker pool, queries/second. The headline comparison is
    /// `async_qps` vs `multi_qps`: one thread multiplexing 8 in-flight
    /// tickets should meet or beat 8 blocking client threads (on
    /// multi-core hardware it wins outright — the blocking clients
    /// contend for cores; on a 1-core CI runner the two sit at parity).
    /// Higher is better.
    pub async_qps: f64,
    /// The same race-only workload served over the wire (v6): a
    /// loopback `psi_net::PsiServer` (one event-loop thread) under a
    /// 256-connection pipelined client fleet, queries/second. The
    /// headline comparison is `net_qps` vs `async_qps`: the wire adds
    /// framing, syscalls and the waiting room to the same ticket
    /// frontend, and should retain the large majority of in-process
    /// throughput. Higher is better.
    pub net_qps: f64,
    /// Shared per-graph `TargetIndex` vs the legacy scan paths (v4):
    /// the standard 4-graph skewed workload raced as *matching* queries
    /// (the paper's 1000-embedding budget, so entrants live in their
    /// enumeration loops where candidate lists, the adjacency bitset
    /// and scratch reuse pay), identical registries except matcher
    /// preparation mode, caches and fast path off. Reported as
    /// `indexed_qps / legacy_qps`; ≥ 1 means building the index once
    /// at registration beats rescanning per query. Higher is better.
    pub indexed_speedup: f64,
    /// Ψ-trace cost (v5): tracing-on vs tracing-off saturated qps on
    /// otherwise-identical registries (caches and fast path off, a
    /// consumer draining the rings between passes). 1.0 means free; the
    /// gate holds the ratio up, so a tracing hot-path regression fails
    /// CI. Higher is better.
    pub telemetry_overhead: f64,
    /// One-time `TargetIndex` build cost summed over the indexed
    /// registry's graphs, microseconds (v5). Informational: trended in
    /// the trail table, never gated — it measures dataset size as much
    /// as code.
    pub index_build_us: f64,
    /// Adjacency probes the indexed-registry pass answered from the
    /// dense bitset (v5, informational).
    pub edge_probes_bitset: f64,
    /// Adjacency probes that fell back to binary search (v5,
    /// informational).
    pub edge_probes_binary: f64,
    /// Cold-start speedup (v7): time to register-and-retrain a tenant
    /// from scratch (index build + training stream + first answer)
    /// divided by time to cold-open the same tenant from its psi-store
    /// snapshot + WAL (`MultiEngine::load_graph` + first answer). The
    /// gate holds this up: a restart must stay an order of magnitude
    /// cheaper than a rebuild. Higher is better.
    pub cold_start_speedup: f64,
    /// Size of the tenant's snapshot file on disk, bytes (v7,
    /// informational — it measures dataset size as much as code).
    pub snapshot_bytes: f64,
    /// Time `load_graph` spent replaying the WAL tail into the
    /// predictor, microseconds (v7, informational).
    pub wal_replay_us: f64,
    /// Live-graph serving throughput (v8): queries/second answered
    /// while concurrent writer threads stream additive `GraphUpdate`
    /// batches into the same graph — every read probes the delta
    /// overlay, every write clears the cache partition, and background
    /// epoch swaps land mid-stream. The headline comparison is
    /// `ingest_qps` vs `multi_qps`: mutation must not collapse read
    /// throughput (the acceptance floor is half of static multi-graph
    /// throughput). Higher is better.
    pub ingest_qps: f64,
    /// Total time the ingest run spent folding delta overlays into new
    /// epochs (CSR rebuild + index rebuild + swap), microseconds (v8,
    /// informational — it measures overlay size as much as code).
    pub compaction_us: f64,
    /// Intra-query slicing tail speedup (v9): p99 latency of a
    /// heavy-tailed workload on an idle-biased pool (1 client, 6
    /// workers) under classic one-slice racing divided by the same p99
    /// under `RaceStrategy::Adaptive` — big queries split into
    /// work-stealing root-candidate slices. Hardware-dependent by
    /// design: slicing spends *spare physical cores*, so multi-core CI
    /// shows a genuine speedup while single-core hosts degrade to heat
    /// narrowing and hover around parity. The gate compares against the
    /// baseline the same host recorded, catching regressions rather
    /// than enforcing an absolute. Higher is better.
    pub sliced_p99_speedup: f64,
    /// Mean slice tasks spawned per query on the sliced registry (v9,
    /// informational — it measures the scheduler's selectivity on this
    /// workload shape as much as code).
    pub slices_per_query: f64,
    /// Root-candidate ranges stolen across slices during the sliced
    /// passes (v9, informational).
    pub steal_count: f64,
}

/// One metric's comparison direction in the regression gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Regression = current falls below baseline (throughput, speedup).
    HigherIsBetter,
    /// Regression = current rises above baseline (latency).
    LowerIsBetter,
    /// Tracked in the artifact and trail but never gated (workload-
    /// shape-dependent counters like probe totals and index build cost).
    Informational,
}

impl EngineBenchMetrics {
    /// Field names, values and directions, in artifact order.
    pub fn fields(&self) -> Vec<(&'static str, f64, Direction)> {
        vec![
            ("qps", self.qps, Direction::HigherIsBetter),
            ("p50_us", self.p50_us, Direction::LowerIsBetter),
            ("p99_us", self.p99_us, Direction::LowerIsBetter),
            ("cache_hit_speedup", self.cache_hit_speedup, Direction::HigherIsBetter),
            ("multi_qps", self.multi_qps, Direction::HigherIsBetter),
            ("topk_qps", self.topk_qps, Direction::HigherIsBetter),
            ("escalation_rate", self.escalation_rate, Direction::LowerIsBetter),
            ("async_qps", self.async_qps, Direction::HigherIsBetter),
            ("net_qps", self.net_qps, Direction::HigherIsBetter),
            ("indexed_speedup", self.indexed_speedup, Direction::HigherIsBetter),
            ("telemetry_overhead", self.telemetry_overhead, Direction::HigherIsBetter),
            ("index_build_us", self.index_build_us, Direction::Informational),
            ("edge_probes_bitset", self.edge_probes_bitset, Direction::Informational),
            ("edge_probes_binary", self.edge_probes_binary, Direction::Informational),
            ("cold_start_speedup", self.cold_start_speedup, Direction::HigherIsBetter),
            ("snapshot_bytes", self.snapshot_bytes, Direction::Informational),
            ("wal_replay_us", self.wal_replay_us, Direction::Informational),
            ("ingest_qps", self.ingest_qps, Direction::HigherIsBetter),
            ("compaction_us", self.compaction_us, Direction::Informational),
            ("sliced_p99_speedup", self.sliced_p99_speedup, Direction::HigherIsBetter),
            ("slices_per_query", self.slices_per_query, Direction::Informational),
            ("steal_count", self.steal_count, Direction::Informational),
        ]
    }

    /// Serializes the artifact as flat JSON.
    pub fn to_json(&self) -> String {
        self.to_json_stamped(&[])
    }

    /// Serializes the artifact with trailing provenance stamps (commit
    /// SHA, date, ...) appended as string fields. [`parse_flat_json`]
    /// skips string values, so a stamped artifact still round-trips its
    /// metrics while the trail keeps which commit produced which run.
    pub fn to_json_stamped(&self, stamps: &[(String, String)]) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
        let fields = self.fields();
        for (i, (name, value, _)) in fields.iter().enumerate() {
            let comma = if i + 1 < fields.len() || !stamps.is_empty() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {value:.3}{comma}\n"));
        }
        for (i, (key, value)) in stamps.iter().enumerate() {
            let comma = if i + 1 < stamps.len() { "," } else { "" };
            out.push_str(&format!("  \"{key}\": \"{value}\"{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Reads an artifact back from its flat-JSON form. Unknown fields
    /// are ignored (forward compatibility); missing fields error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let map = parse_flat_json(text)?;
        let get = |name: &str| {
            map.iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("missing field {name:?} in bench artifact"))
        };
        Ok(Self {
            qps: get("qps")?,
            p50_us: get("p50_us")?,
            p99_us: get("p99_us")?,
            cache_hit_speedup: get("cache_hit_speedup")?,
            multi_qps: get("multi_qps")?,
            topk_qps: get("topk_qps")?,
            escalation_rate: get("escalation_rate")?,
            async_qps: get("async_qps")?,
            net_qps: get("net_qps")?,
            indexed_speedup: get("indexed_speedup")?,
            telemetry_overhead: get("telemetry_overhead")?,
            index_build_us: get("index_build_us")?,
            edge_probes_bitset: get("edge_probes_bitset")?,
            edge_probes_binary: get("edge_probes_binary")?,
            cold_start_speedup: get("cold_start_speedup")?,
            snapshot_bytes: get("snapshot_bytes")?,
            wal_replay_us: get("wal_replay_us")?,
            ingest_qps: get("ingest_qps")?,
            compaction_us: get("compaction_us")?,
            sliced_p99_speedup: get("sliced_p99_speedup")?,
            slices_per_query: get("slices_per_query")?,
            steal_count: get("steal_count")?,
        })
    }
}

/// Parses a flat JSON object of numeric fields — the only JSON shape the
/// bench trail uses. Returns `(key, value)` pairs in file order.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let trimmed = text.trim();
    let body = trimmed
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| "bench artifact must be a JSON object".to_string())?;
    let mut out = Vec::new();
    for raw in body.split(',') {
        let pair = raw.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) =
            pair.split_once(':').ok_or_else(|| format!("malformed JSON pair {pair:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("malformed JSON key in {pair:?}"))?;
        let value = value.trim();
        if value.starts_with('"') {
            // Provenance stamps (commit SHA, date) are string-valued;
            // the numeric trail reader skips them.
            continue;
        }
        let value: f64 =
            value.parse().map_err(|_| format!("non-numeric JSON value in {pair:?}"))?;
        out.push((key.to_string(), value));
    }
    Ok(out)
}

/// One regression found by [`check_regressions`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Which metric regressed.
    pub metric: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured in this run.
    pub current: f64,
    /// Relative change in the *bad* direction (0.5 = 50% worse).
    pub ratio: f64,
}

/// Compares `current` against `baseline`: a metric regresses when it is
/// more than `max_regression` (a fraction, e.g. 0.30) worse in its bad
/// direction. Improvements never fail, however large.
pub fn check_regressions(
    current: &EngineBenchMetrics,
    baseline: &EngineBenchMetrics,
    max_regression: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for ((metric, cur, direction), (_, base, _)) in
        current.fields().into_iter().zip(baseline.fields())
    {
        if base <= 0.0 {
            continue; // defensively skip degenerate baselines
        }
        let ratio = match direction {
            Direction::HigherIsBetter => (base - cur) / base,
            Direction::LowerIsBetter => (cur - base) / base,
            Direction::Informational => continue,
        };
        if ratio > max_regression {
            regressions.push(Regression { metric, baseline: base, current: cur, ratio });
        }
    }
    regressions
}

/// Runs a small standard serving workload and renders the engine's
/// metrics exporter as Prometheus text — the snapshot the CI bench-smoke
/// job puts in its job summary, and the golden-format fixture the
/// exporter tests parse. Deterministic workload, nondeterministic
/// timings (it is a real measurement).
pub fn sample_metrics_snapshot() -> String {
    let stored = datasets::yeast_like(0.2, 42);
    let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 8, 16, 7);
    let (engine, id) = serving_engine(&stored, 4096);
    let traffic = routed(id, &queries);
    // Cold pass then warm pass: the snapshot shows races, cache hits
    // and stage latencies all nonzero.
    submit_batch_multi(&engine, &traffic, 4);
    submit_batch_multi(&engine, &traffic, 4);
    engine.exporter().render_prometheus()
}

/// A one-tenant engine serving `stored` on 4 workers.
fn serving_engine(stored: &Graph, cache_capacity: usize) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 4,
        tenant: EngineConfig {
            cache_capacity,
            // The artifact isolates cache/race/pool costs; the predictor
            // fast path has its own tests.
            predictor_confidence: 2.0,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    });
    let runner = PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd());
    let id = multi.register("yeast", runner).expect("fresh registry");
    (multi, id)
}

/// `queries` as traffic routed to the tenant `id`.
fn routed(id: GraphId, queries: &[Graph]) -> Vec<(GraphId, Graph)> {
    queries.iter().map(|q| (id, q.clone())).collect()
}

/// Runs the standard measurement (a few seconds) and returns the
/// artifact metrics. Fixed seeds and workload sizes keep runs
/// comparable across commits.
pub fn measure() -> EngineBenchMetrics {
    // --- Single-engine batch: cold pass then warm (cached) pass. ---
    let stored = datasets::yeast_like(0.2, 42);
    let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 8, 24, 7);
    let (engine, id) = serving_engine(&stored, 4096);
    let traffic = routed(id, &queries);
    let t0 = Instant::now();
    let cold = submit_batch_multi(&engine, &traffic, 8);
    let warm = submit_batch_multi(&engine, &traffic, 8);
    let wall = t0.elapsed().as_secs_f64();
    let served = (cold.responses.len() + warm.responses.len()) as f64;
    let qps = if wall > 0.0 { served / wall } else { 0.0 };
    let stats = engine.stats();
    let p50_us = stats.latency_p50.as_secs_f64() * 1e6;
    let p99_us = stats.latency_p99.as_secs_f64() * 1e6;

    // --- Cache-hit speedup: one repeated query, cold vs. hit medians. ---
    let repeat = Workloads::single_query(&stored, 10, 9).expect("generable query");
    let (cold_engine, cold_id) = serving_engine(&stored, 0); // cache off: every submit races
    let (hit_engine, hit_id) = serving_engine(&stored, 4096);
    let cold_submit = || cold_engine.submit(cold_id, &repeat).expect("registered graph");
    let hit_submit = || hit_engine.submit(hit_id, &repeat).expect("registered graph");
    hit_submit(); // prime
    assert_eq!(hit_submit().path, ServePath::CacheHit);
    let median = |f: &dyn Fn()| {
        let mut times: Vec<f64> = (0..31)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[times.len() / 2]
    };
    let cold_t = median(&|| {
        std::hint::black_box(cold_submit());
    });
    let hit_t = median(&|| {
        std::hint::black_box(hit_submit());
    });
    let cache_hit_speedup = if hit_t > 0.0 { cold_t / hit_t } else { 0.0 };

    // --- Multi-graph registry racing throughput, Full vs staged: the
    // same skewed 4-graph workload against two identical registries
    // (one shared saturated 4-worker pool each, 4-variant field, caches
    // off so every request really races) that differ only in
    // RaceStrategy. The staged registry's predictors are pre-trained on a
    // disjoint per-graph query stream; the same training pass runs
    // through the Full registry so both measure equally warm. ---
    let spec =
        MultiWorkloadSpec { total_queries: 640, query_edges: 10, ..MultiWorkloadSpec::default() };
    let workload = MultiWorkload::generate(&spec, 2024);
    let race_only_registry = |strategy: RaceStrategy, max_concurrent_races: usize| {
        let multi = MultiEngine::new(MultiEngineConfig {
            workers: 4,
            // Admission above worker count: pruning frees pool slots so
            // more races can be in flight; don't cap the benefit under
            // test (the pool stays the bottleneck for both registries).
            max_concurrent_races,
            tenant: EngineConfig {
                cache_capacity: 0,
                predictor_confidence: 2.0,
                predictor_min_observations: 4,
                race_strategy: strategy,
                // Matching (not decision) races: enough work per entrant
                // that pool occupancy, the thing pruning reclaims,
                // dominates the per-query serving overhead. The
                // wall-clock cap anchors the staged registry's stage
                // deadline (escalate_after is a fraction of it) low
                // enough that slow staged races really escalate — a
                // benchmark whose escalation_rate sits at 0.000 is not
                // exercising staged racing at all.
                default_budget: RaceBudget::with_max_matches(64).timeout(Duration::from_millis(25)),
                ..EngineConfig::default()
            },
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
        for (i, (graph, id)) in workload.graphs.iter().zip(&ids).enumerate() {
            for query in Workloads::nfv_workload(graph, spec.query_edges, 8, 7000 + i as u64) {
                multi.submit(*id, &query).expect("registered graph");
            }
        }
        let traffic: Vec<_> = workload.traffic.iter().map(|(g, q)| (ids[*g], q.clone())).collect();
        (multi, traffic)
    };
    let (full_multi, full_traffic) = race_only_registry(RaceStrategy::Full, 8);
    let (topk_multi, topk_traffic) =
        race_only_registry(RaceStrategy::Adaptive { max_slices: 1, escalate_after: 0.02 }, 8);
    // --- Ticket frontend on the same race-only workload: one
    // event-loop client keeps 8 tickets in flight (admission 16) over
    // the identical saturated 4-worker pool — the same pipeline depth
    // as the 8 blocking clients, from an eighth of the threads. ---
    let (async_multi, async_traffic) = race_only_registry(RaceStrategy::Full, 16);
    let async_requests: Vec<QueryRequest> =
        async_traffic.into_iter().map(|(id, q)| QueryRequest::new(q).graph(id)).collect();

    // Each configuration runs twice and keeps its best pass, with the
    // six passes interleaved in palindromic order (a t m | m t a) so
    // every configuration carries the same total position weight: the
    // passes are tens of milliseconds each, and on a small throttled CI
    // runner throughput decays monotonically across the sequence — a
    // block-ordered measurement would hand whichever configuration ran
    // first a systematic edge.
    let mut multi_qps = 0.0f64;
    let mut topk_qps = 0.0f64;
    let mut async_qps = 0.0f64;
    let mut run_async =
        || async_qps = async_qps.max(submit_batch_async(&async_multi, &async_requests, 1, 8).qps);
    let mut run_topk =
        || topk_qps = topk_qps.max(submit_batch_multi(&topk_multi, &topk_traffic, 8).qps);
    let mut run_multi =
        || multi_qps = multi_qps.max(submit_batch_multi(&full_multi, &full_traffic, 8).qps);
    run_async();
    run_topk();
    run_multi();
    run_multi();
    run_topk();
    run_async();

    // --- Wire frontend: the same race-only workload through a real
    // loopback TCP server — 256 pipelined connections over one
    // event-loop thread, driven by an 8-thread client fleet. Frames
    // keep the
    // tenant's default budget (max_matches = 0 on the wire) so the
    // engine races exactly the work the in-process passes race; the
    // over-admission overflow parks in the waiting room rather than
    // bouncing. Best of two passes against one warm server. ---
    let (net_multi, net_traffic) = race_only_registry(RaceStrategy::Full, 16);
    let net_frames: Vec<psi_net::QueryFrame> = net_traffic
        .iter()
        .map(|(id, q)| {
            let mut frame = psi_net::QueryFrame::new(id.index() as u64, q);
            frame.max_matches = 0;
            frame
        })
        .collect();
    let net_server = psi_net::loopback(Arc::new(net_multi), 1).expect("loopback bench server");
    let net_spec = psi_workload::NetFleetSpec {
        connections: 256,
        queries_per_conn: 8,
        client_threads: 4,
        // Two frames in flight per connection (512 total): enough
        // over-admission to keep the waiting room busy without turning
        // the 1-core event loop into the bottleneck.
        pipeline: 2,
    };
    let mut net_qps = 0.0f64;
    for _ in 0..2 {
        let report = psi_workload::run_net_fleet(net_server.addr(), &net_frames, &net_spec);
        assert_eq!(report.admission_errors, 0, "the waiting room must absorb the bench fleet");
        assert_eq!(report.other_errors, 0, "bench fleet frames are well-formed");
        net_qps = net_qps.max(report.qps);
    }
    drop(net_server);

    // --- Shared TargetIndex vs legacy scan paths: the standard 4-graph
    // skewed workload shape raced as matching queries (the paper's
    // 1000-embedding budget) against two identical registries differing
    // only in matcher preparation mode. Matching races keep entrants in
    // their enumeration loops, which is where the index's candidate
    // lists, adjacency bitset and scratch reuse pay; a 2-label alphabet
    // keeps those loops deep, and 100–250-node stored graphs give the
    // legacy scans something real to rescan. compare_index_modes
    // interleaves its passes palindromically itself. ---
    let index_cmp = psi_workload::compare_index_modes(
        &psi_workload::IndexCmpSpec {
            workload: MultiWorkloadSpec {
                base_nodes: 100,
                node_step: 50,
                base_labels: 2,
                query_edges: 10,
                total_queries: 280,
                ..MultiWorkloadSpec::default()
            },
            budget: RaceBudget::matching(),
            // Best-of-3 per mode: the ratio of two threaded measurements
            // is the noisiest metric in the artifact, and an extra pass
            // costs well under a second.
            passes: 3,
            ..psi_workload::IndexCmpSpec::default()
        },
        2024,
    );

    // --- Ψ-trace overhead: the standard skewed workload raced against
    // two registries identical except TelemetryConfig (tracing on with a
    // draining consumer vs off). Decision races keep the per-query
    // serving overhead — the thing tracing adds to — prominent; the
    // gate holds the qps ratio near 1. compare_telemetry_overhead
    // interleaves its passes palindromically itself. ---
    let overhead = psi_workload::compare_telemetry_overhead(
        &psi_workload::OverheadSpec {
            workload: MultiWorkloadSpec {
                query_edges: 10,
                total_queries: 280,
                ..MultiWorkloadSpec::default()
            },
            // Best-of-3 per mode: a qps ratio of two threaded
            // measurements is noisy, and the passes are cheap.
            passes: 3,
            ..psi_workload::OverheadSpec::default()
        },
        2024,
    );

    // --- Cold-start speedup (v7): rebuilding a tenant from scratch vs
    // cold-opening its psi-store snapshot + WAL. The first life trains
    // on a query stream, saves (compacting learned state into the
    // snapshot) and serves a little post-save traffic so the WAL holds
    // a tail. Both cold paths then answer one probe query; rebuild is
    // measured first so a throttled runner's monotonic decay can only
    // understate the speedup. ---
    let persist_dir =
        std::env::temp_dir().join(format!("psi-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&persist_dir);
    let persist_stored = Arc::new(datasets::yeast_like(0.2, 42));
    // A roster without sPath: sPath's per-registration preparation is
    // ~50ms on this graph and is paid identically by both lives (matcher
    // prep is not persisted), so it would only dilute the ratio the
    // metric tracks — what the snapshot actually avoids.
    let persist_config = || {
        PsiConfig::algorithms(
            [psi_matchers::Algorithm::GraphQl, psi_matchers::Algorithm::QuickSi],
            psi_rewrite::Rewriting::Orig,
        )
    };
    // Matching-budget training: decision races on this graph finish in
    // tens of microseconds, which would let a from-scratch rebuild
    // "retrain" nearly for free and understate what the snapshot saves.
    // A 256-query matching stream is the realistic warm-up the cold
    // open gets to skip.
    let train: Vec<Graph> = Workloads::nfv_workload(&persist_stored, 8, 256, 4242);
    let probe = Workloads::single_query(&persist_stored, 8, 9999).expect("generable probe");
    let persist_engine = || {
        MultiEngine::new(MultiEngineConfig {
            workers: 4,
            max_concurrent_races: 4,
            tenant: EngineConfig {
                // Cache off and fast path off: every training query
                // really races, in both lives.
                cache_capacity: 0,
                predictor_confidence: 2.0,
                default_budget: RaceBudget::with_max_matches(64),
                ..EngineConfig::default()
            },
        })
    };
    let (snapshot_bytes, snapshot_path) = {
        let multi = persist_engine();
        let id = multi
            .register("persist", PsiRunner::new(Arc::clone(&persist_stored), persist_config()))
            .expect("unique name");
        for query in &train {
            multi.submit(id, query).expect("registered graph");
        }
        let saved = multi.save_graph(id, &persist_dir).expect("bench snapshot saves");
        // Post-save traffic lands only in the WAL; the cold open below
        // must replay it.
        for query in &train[..8] {
            multi.submit(id, query).expect("registered graph");
        }
        (saved.snapshot_bytes as f64, saved.snapshot_path)
    };
    let t_rebuild = Instant::now();
    let rebuild_multi = persist_engine();
    let rebuild_id = rebuild_multi
        .register("persist", PsiRunner::new(Arc::clone(&persist_stored), persist_config()))
        .expect("unique name");
    for query in &train {
        rebuild_multi.submit(rebuild_id, query).expect("registered graph");
    }
    rebuild_multi.submit(rebuild_id, &probe).expect("registered graph");
    let rebuild_s = t_rebuild.elapsed().as_secs_f64();
    let t_cold = Instant::now();
    let cold_multi = persist_engine();
    let loaded = cold_multi.load_graph(&snapshot_path).expect("bench snapshot loads");
    cold_multi.submit(loaded.graph, &probe).expect("registered graph");
    let cold_s = t_cold.elapsed().as_secs_f64();
    assert!(!loaded.index_rebuilt, "same-version snapshot must load its index sections");
    assert!(loaded.replayed_samples > 0, "the cold engine must start trained");
    let cold_start_speedup = if cold_s > 0.0 { rebuild_s / cold_s } else { 0.0 };
    let wal_replay_us = loaded.wal_replay_us as f64;
    let _ = std::fs::remove_dir_all(&persist_dir);

    // --- Streaming ingest (v8): the live-graph subsystem under load.
    // A query fleet (4 clients, decision races, warm cache allowed —
    // mutations keep clearing it) reads one registered graph while two
    // writer threads stream additive GraphUpdate batches through the
    // same fair admission gate; a low compact threshold forces
    // background epoch swaps to land mid-stream. Best of two passes,
    // each against a fresh registry so replayed batches never conflict.
    // Every answer is checked: mutations are additive, so a conclusive
    // "not found" would be a serving bug, not noise. ---
    let ingest_spec = psi_workload::StreamingSpec::default();
    let ingest_workload = psi_workload::StreamingWorkload::generate(&ingest_spec, 2024);
    let mut ingest_qps = 0.0f64;
    let mut compaction_us = 0.0f64;
    for _ in 0..2 {
        let ingest_multi = MultiEngine::new(MultiEngineConfig {
            workers: 4,
            max_concurrent_races: 8,
            tenant: EngineConfig {
                cache_capacity: 4096,
                predictor_confidence: 2.0,
                default_budget: RaceBudget::decision(),
                // Well under the ~64 ops the writers stream: background
                // compactions must really land while queries are racing.
                compact_threshold: 24,
                ..EngineConfig::default()
            },
        });
        let ingest_id = ingest_multi
            .register(
                "live",
                PsiRunner::new(
                    Arc::new(ingest_workload.stored.clone()),
                    PsiConfig::gql_spa_orig_dnd(),
                ),
            )
            .expect("unique name");
        let report =
            psi_workload::run_streaming_ingest(&ingest_multi, ingest_id, &ingest_workload, 4);
        assert_eq!(report.wrong_answers, 0, "additive ingest must not lose answers");
        assert_eq!(report.update_failures, 0, "generated batches never conflict");
        assert!(report.final_epoch >= 1, "the ingest run must swap at least one epoch");
        if report.ingest_qps > ingest_qps {
            ingest_qps = report.ingest_qps;
            compaction_us = report.compaction_us as f64;
        }
    }

    // --- Intra-query slicing tail speedup (v9): a heavy-tailed
    // workload (power-law query sizes — mostly small, rare large
    // stragglers) replayed idle-biased (2 clients against 6 workers)
    // against two registries differing only in race strategy. Under
    // classic racing a straggler runs on one worker while the rest of
    // the pool idles; under Adaptive racing the scheduler hands the
    // spare workers out as work-stealing root-candidate slices, so the
    // p99 — which the stragglers own — shrinks. compare_slicing
    // interleaves its passes palindromically itself. ---
    let slicing = psi_workload::compare_slicing(
        &psi_workload::SlicingSpec {
            // Best-of-3 per mode: a p99 ratio of two threaded
            // measurements is the noisiest kind of metric in the
            // artifact, and the idle-biased passes are cheap.
            passes: 3,
            ..psi_workload::SlicingSpec::default()
        },
        2024,
    );

    let escalation_rate = topk_multi.stats().escalation_rate;
    assert!(escalation_rate > 0.0, "the staged bench must exercise escalation (rate was 0)");

    EngineBenchMetrics {
        qps,
        p50_us,
        p99_us,
        cache_hit_speedup,
        multi_qps,
        topk_qps,
        escalation_rate,
        async_qps,
        net_qps,
        indexed_speedup: index_cmp.speedup,
        telemetry_overhead: overhead.overhead_ratio,
        index_build_us: index_cmp.index_build_us as f64,
        edge_probes_bitset: index_cmp.edge_probes_bitset as f64,
        edge_probes_binary: index_cmp.edge_probes_binary as f64,
        cold_start_speedup,
        snapshot_bytes,
        wal_replay_us,
        ingest_qps,
        compaction_us,
        sliced_p99_speedup: slicing.sliced_p99_speedup,
        slices_per_query: slicing.slices_per_query,
        steal_count: slicing.steal_count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineBenchMetrics {
        EngineBenchMetrics {
            qps: 1000.0,
            p50_us: 200.0,
            p99_us: 900.0,
            cache_hit_speedup: 40.0,
            multi_qps: 800.0,
            topk_qps: 900.0,
            escalation_rate: 0.125,
            async_qps: 850.0,
            net_qps: 700.0,
            indexed_speedup: 1.2,
            telemetry_overhead: 0.97,
            index_build_us: 1500.0,
            edge_probes_bitset: 2_000_000.0,
            edge_probes_binary: 0.0,
            cold_start_speedup: 12.0,
            snapshot_bytes: 250_000.0,
            wal_replay_us: 80.0,
            ingest_qps: 600.0,
            compaction_us: 3_000.0,
            sliced_p99_speedup: 1.8,
            slices_per_query: 2.5,
            steal_count: 400.0,
        }
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let parsed = EngineBenchMetrics::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed, m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(EngineBenchMetrics::from_json("not json").is_err());
        assert!(EngineBenchMetrics::from_json("{\"qps\": \"fast\"}").is_err());
        assert!(
            EngineBenchMetrics::from_json("{\"qps\": 1.0}").is_err(),
            "missing fields must error"
        );
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let mut json = sample().to_json();
        json = json.replace("\"qps\"", "\"future_metric\": 7.0,\n  \"qps\"");
        assert_eq!(EngineBenchMetrics::from_json(&json).expect("forward compatible"), sample());
    }

    #[test]
    fn regression_gate_directions() {
        let base = sample();
        // 50% qps loss and doubled p99: both flagged at the 30% gate.
        let worse = EngineBenchMetrics { qps: 500.0, p99_us: 1800.0, ..base.clone() };
        let regs = check_regressions(&worse, &base, 0.30);
        let names: Vec<_> = regs.iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["qps", "p99_us"]);
        assert!((regs[0].ratio - 0.5).abs() < 1e-9);

        // Within tolerance: 20% off in the bad direction passes.
        let mild = EngineBenchMetrics { qps: 800.0, p50_us: 240.0, ..base.clone() };
        assert!(check_regressions(&mild, &base, 0.30).is_empty());

        // Improvements never fail, however large.
        let better = EngineBenchMetrics {
            qps: 10_000.0,
            p50_us: 1.0,
            p99_us: 2.0,
            cache_hit_speedup: 500.0,
            multi_qps: 9_000.0,
            topk_qps: 9_500.0,
            escalation_rate: 0.01,
            async_qps: 9_800.0,
            net_qps: 9_700.0,
            indexed_speedup: 3.0,
            telemetry_overhead: 1.02,
            index_build_us: 1500.0,
            edge_probes_bitset: 2_000_000.0,
            edge_probes_binary: 0.0,
            cold_start_speedup: 200.0,
            snapshot_bytes: 250_000.0,
            wal_replay_us: 80.0,
            ingest_qps: 8_000.0,
            compaction_us: 3_000.0,
            sliced_p99_speedup: 5.0,
            slices_per_query: 2.5,
            steal_count: 400.0,
        };
        assert!(check_regressions(&better, &base, 0.30).is_empty());
    }

    #[test]
    fn telemetry_overhead_regressions_are_gated() {
        let base = sample();
        // Tracing suddenly costing 40% of throughput trips the gate.
        let worse = EngineBenchMetrics { telemetry_overhead: 0.58, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["telemetry_overhead"]);
    }

    #[test]
    fn informational_metrics_are_never_gated() {
        let base = sample();
        // Probe counts and build cost can swing wildly with workload
        // shape; the gate must ignore them in both directions.
        let wild = EngineBenchMetrics {
            index_build_us: 90_000.0,
            edge_probes_bitset: 10.0,
            edge_probes_binary: 5_000_000.0,
            snapshot_bytes: 9_000_000.0,
            wal_replay_us: 40_000.0,
            compaction_us: 900_000.0,
            slices_per_query: 12.0,
            steal_count: 2.0,
            ..base.clone()
        };
        assert!(check_regressions(&wild, &base, 0.30).is_empty());
    }

    #[test]
    fn cold_start_speedup_regressions_are_gated() {
        let base = sample();
        // Restart cost creeping back toward rebuild cost (a lost
        // snapshot, an index rebuilt on load) trips the gate.
        let worse = EngineBenchMetrics { cold_start_speedup: 4.0, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["cold_start_speedup"]);
    }

    #[test]
    fn indexed_speedup_regressions_are_gated() {
        let base = sample();
        // A lost index (speedup collapsing to parity) trips the gate.
        let worse = EngineBenchMetrics { indexed_speedup: 0.8, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["indexed_speedup"]);
    }

    #[test]
    fn ingest_qps_regressions_are_gated() {
        let base = sample();
        // Live-graph reads collapsing under mutation (a lost overlay
        // fast path, a serialized writer) trips the gate.
        let worse = EngineBenchMetrics { ingest_qps: 200.0, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["ingest_qps"]);
    }

    #[test]
    fn sliced_p99_speedup_regressions_are_gated() {
        let base = sample();
        // The slice path collapsing to parity (scheduler never slicing,
        // a serialized coordinator) trips the gate.
        let worse = EngineBenchMetrics { sliced_p99_speedup: 1.0, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["sliced_p99_speedup"]);
    }

    #[test]
    fn async_qps_regressions_are_gated() {
        let base = sample();
        let worse = EngineBenchMetrics { async_qps: 400.0, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["async_qps"]);
    }

    #[test]
    fn net_qps_regressions_are_gated() {
        let base = sample();
        // Wire throughput collapsing (a serialized event loop, a lost
        // pipeline) trips the gate like any other qps column.
        let worse = EngineBenchMetrics { net_qps: 300.0, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["net_qps"]);
    }

    #[test]
    fn topk_regressions_are_gated() {
        let base = sample();
        // Halved topk throughput trips the gate; a doubled escalation
        // rate (lower-is-better) does too.
        let worse = EngineBenchMetrics { topk_qps: 450.0, escalation_rate: 0.5, ..base.clone() };
        let names: Vec<_> =
            check_regressions(&worse, &base, 0.30).iter().map(|r| r.metric).collect();
        assert_eq!(names, vec!["topk_qps", "escalation_rate"]);
    }

    #[test]
    fn stamped_artifact_round_trips_metrics() {
        let m = sample();
        let stamped = m.to_json_stamped(&[
            ("commit".to_string(), "0123abcd".to_string()),
            ("date".to_string(), "2026-07-26T02:47:00Z".to_string()),
        ]);
        assert!(stamped.contains("\"commit\": \"0123abcd\""));
        assert!(stamped.contains("\"date\": \"2026-07-26T02:47:00Z\""));
        let parsed = EngineBenchMetrics::from_json(&stamped).expect("stamps are skipped");
        assert_eq!(parsed, m);
    }
}
