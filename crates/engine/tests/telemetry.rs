//! Ψ-trace end to end: histogram merges vs pooled observations
//! (property-based), trace/completion-queue agreement on per-ticket
//! terminal state under concurrent cancel-on-drop, the Prometheus
//! rendering's format invariants, and MultiEngine aggregate percentiles
//! vs the pooled per-graph histograms.

use proptest::prelude::*;
use psi_core::{PsiConfig, PsiRunner, RaceBudget};
use psi_engine::{
    CompletionQueue, EngineConfig, GraphId, HistogramKind, HistogramSnapshot, LatencyHistogram,
    MultiEngine, MultiEngineConfig, QueryRequest, Submit, TelemetryConfig, TraceEvent,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use psi_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn stored_graph(seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    random_connected_graph(16, 30, &labels, &mut rng)
}

/// Grows a small connected query from a random stored-graph node, so the
/// query is guaranteed to embed (and races conclude quickly).
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

fn traced_engine(stored: &Graph) -> (MultiEngine, GraphId) {
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 4,
        tenant: EngineConfig {
            cache_capacity: 0, // every accepted query takes the race path
            predictor_confidence: 2.0,
            default_budget: RaceBudget::decision(),
            telemetry: TelemetryConfig {
                trace_events: true,
                trace_capacity: 1 << 16,
                ..TelemetryConfig::default()
            },
            ..EngineConfig::default()
        },
    });
    let runner = PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd());
    let id = multi.register("stored", runner).expect("fresh registry");
    (multi, id)
}

// ---- Histogram merge = pooled observations (property-based) ----

/// The histogram's rank convention over exact sorted samples.
fn exact_percentile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = (q * (samples.len() - 1) as f64).ceil() as usize;
    samples[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording per-graph then merging must estimate the same
    /// percentiles as pooling every observation, to within one bucket
    /// width (≤ 1/32 relative) — the MultiEngine aggregation contract.
    #[test]
    fn merged_percentiles_match_pooled_observations(
        groups in prop::collection::vec(
            prop::collection::vec(0u64..10_000_000, 1..200),
            1..4,
        ),
        q in 0.0f64..1.0,
    ) {
        let merged = LatencyHistogram::new();
        for group in &groups {
            let per_graph = LatencyHistogram::new();
            for &v in group {
                per_graph.record(v);
            }
            merged.merge_from(&per_graph);
        }
        let mut pooled: Vec<u64> = groups.concat();
        let exact = exact_percentile(&mut pooled, q);
        let est = merged.percentile(q);
        prop_assert!(est >= exact, "estimate {est} under exact {exact}");
        prop_assert!(
            est - exact <= exact / 32 + 1,
            "estimate {est} further than one bucket above exact {exact}"
        );
        // Snapshot-level merge agrees with the live merge.
        let mut snap = HistogramSnapshot::default();
        for group in &groups {
            let h = LatencyHistogram::new();
            for &v in group {
                h.record(v);
            }
            snap.merge(&h.snapshot());
        }
        prop_assert_eq!(snap.percentile(q), est);
    }
}

// ---- Trace vs completion queue under concurrent cancel-on-drop ----

/// Every accepted ticket reaches exactly one terminal trace event
/// (`Finalized` here — cache off), whether its ticket was drained
/// through a [`CompletionQueue`] or dropped mid-flight (cancel-on-drop).
/// The trace and the queue must agree on which queries terminated.
#[test]
fn trace_terminal_events_agree_with_completion_queue_under_cancel() {
    let stored = stored_graph(11);
    let (engine, id) = traced_engine(&stored);
    let queue = CompletionQueue::new();

    let mut kept = 0u64;
    let mut accepted: Vec<u64> = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..24u64 {
        let query = grown_query(&stored, 4, 100 + i);
        if i % 3 == 0 {
            let ticket =
                engine.submit_queued(QueryRequest::new(query).graph(id)).expect("queued admission");
            accepted.push(ticket.query_id());
            // Cancel-on-drop while the race may still be in flight.
            drop(ticket);
        } else {
            let ticket = engine
                .submit_queued_into(QueryRequest::new(query).graph(id), &queue)
                .expect("queued admission");
            accepted.push(ticket.query_id());
            tickets.push(ticket);
            kept += 1;
        }
    }
    // Drain the queue: every kept ticket completes exactly once.
    let mut queue_terminals: Vec<u64> = Vec::new();
    for _ in 0..kept {
        queue_terminals.push(queue.wait_timeout(Duration::from_secs(30)).expect("completion"));
    }

    // Drain the trace until every accepted query has its terminal event
    // (dropped tickets' flights finalize asynchronously).
    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        events.extend(engine.drain_trace().into_iter().map(|(_, r)| r));
        let terminals = events.iter().filter(|r| r.event.is_terminal()).count();
        if terminals >= accepted.len() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.exporter().graphs()[0].trace_dropped, 0, "ring sized for the whole test");

    let mut terminal_counts: HashMap<u64, usize> = HashMap::new();
    for record in &events {
        if record.event.is_terminal() {
            *terminal_counts.entry(record.event.query()).or_default() += 1;
        }
    }
    for id in &accepted {
        assert_eq!(
            terminal_counts.get(id),
            Some(&1),
            "query {id} must reach exactly one terminal event"
        );
    }
    assert_eq!(terminal_counts.len(), accepted.len(), "no phantom query ids in the trace");
    // The queue's view is a subset of the trace's view.
    for id in &queue_terminals {
        assert_eq!(terminal_counts.get(id), Some(&1), "queue-drained query {id} traced");
    }
    // Lifecycle ordering: every traced query was admitted before it
    // finalized, and sequence numbers are strictly increasing.
    let mut admitted: HashMap<u64, u64> = HashMap::new();
    for record in &events {
        if let TraceEvent::Admitted { query } = record.event {
            admitted.insert(query, record.seq);
        }
    }
    for record in &events {
        if let TraceEvent::Finalized { query, .. } = record.event {
            let admit_seq = admitted.get(&query).expect("finalized implies admitted");
            assert!(*admit_seq < record.seq, "admit precedes finalize in sequence order");
        }
    }
    let mut prev_seq = None;
    let mut sorted = events.clone();
    sorted.sort_by_key(|r| r.seq);
    for r in &sorted {
        if let Some(p) = prev_seq {
            assert!(r.seq > p, "sequence numbers are unique");
        }
        prev_seq = Some(r.seq);
    }
}

// ---- Prometheus rendering format ----

struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_prometheus(text: &str) -> (HashMap<String, String>, Vec<PromSample>) {
    let mut types = HashMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate # TYPE for {name}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("numeric value in {line:?}"));
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("balanced label braces");
                let labels = body
                    .split(',')
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .expect("quoted label value");
                        (k.to_string(), v.to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
            None => (series.to_string(), Vec::new()),
        };
        samples.push(PromSample { name, labels, value });
    }
    (types, samples)
}

/// The exporter's Prometheus text must parse line by line, declare each
/// metric family exactly once, and emit internally consistent histogram
/// series (nondecreasing cumulative buckets, `+Inf` last and equal to
/// `_count`).
#[test]
fn prometheus_rendering_is_well_formed() {
    let stored = stored_graph(21);
    let other = stored_graph(22);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 4,
        tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
    });
    let a = multi
        .register(
            "graphs/a",
            PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd()),
        )
        .unwrap();
    let b = multi
        .register(
            "graphs/b",
            PsiRunner::new(Arc::new(other.clone()), PsiConfig::gql_spa_orig_dnd()),
        )
        .unwrap();
    for i in 0..8 {
        multi.submit(a, &grown_query(&stored, 4, 300 + i)).unwrap();
        multi.submit(b, &grown_query(&other, 4, 400 + i)).unwrap();
    }
    let text = multi.exporter().render_prometheus();
    let (types, samples) = parse_prometheus(&text);
    assert!(!samples.is_empty());

    // Every sample belongs to a declared family (histograms declare the
    // base name; samples append _bucket/_sum/_count).
    for s in &samples {
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                s.name
                    .strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(s.name.as_str());
        assert!(types.contains_key(base), "sample {} has no # TYPE", s.name);
        assert!(s.name.starts_with("psi_"), "namespaced metric: {}", s.name);
    }

    // Histogram series: group buckets by (name, labels-minus-le).
    let mut buckets: HashMap<String, Vec<(Option<f64>, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let series_key = |name: &str, labels: &[(String, String)]| {
        let mut rest: Vec<String> =
            labels.iter().filter(|(k, _)| k != "le").map(|(k, v)| format!("{k}={v}")).collect();
        rest.sort();
        format!("{name}|{}", rest.join(","))
    };
    for s in &samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            let le = s.labels.iter().find(|(k, _)| k == "le").expect("buckets carry le");
            let le = if le.1 == "+Inf" { None } else { Some(le.1.parse::<f64>().expect("le")) };
            buckets.entry(series_key(base, &s.labels)).or_default().push((le, s.value));
        } else if let Some(base) = s.name.strip_suffix("_count") {
            counts.insert(series_key(base, &s.labels), s.value);
        }
    }
    assert!(!buckets.is_empty(), "histograms rendered");
    for (key, series) in &buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for (i, (le, cum)) in series.iter().enumerate() {
            match le {
                Some(le) => {
                    assert!(*le > prev_le, "{key}: le values ascend");
                    prev_le = *le;
                }
                None => assert_eq!(i, series.len() - 1, "{key}: +Inf only in last position"),
            }
            assert!(*cum >= prev_cum, "{key}: cumulative buckets never decrease");
            prev_cum = *cum;
        }
        let (last_le, last_cum) = series.last().expect("nonempty");
        assert!(last_le.is_none(), "{key}: +Inf bucket comes last");
        assert_eq!(Some(last_cum), counts.get(key).as_ref().copied(), "{key}: +Inf == _count");
    }

    // Both graph labels appear.
    assert!(text.contains("graph=\"graphs/a\""));
    assert!(text.contains("graph=\"graphs/b\""));
    // And the JSON rendering at least produces both graphs.
    let json = multi.exporter().render_json();
    assert!(json.contains("\"name\":\"graphs/a\""));
    assert!(json.contains("\"name\":\"graphs/b\""));

    // Every numeric `EngineStats` field renders in both formats, under a
    // pinned JSON key and Prometheus series. The field list is read off
    // the `Debug` rendering, so a new counter fails here until it is
    // exported (and listed).
    let exported = [
        ("queries", "psi_queries_total"),
        ("cache_hits", "psi_cache_hits_total"),
        ("cache_misses", "psi_cache_misses_total"),
        ("hit_rate", "psi_cache_hit_rate"),
        ("races", "psi_races_total"),
        ("fast_paths", "psi_fast_paths_total"),
        ("fast_path_fallbacks", "psi_fast_path_fallbacks_total"),
        (
            "fallbacks_inconclusive",
            "psi_fast_path_fallbacks_by_cause_total{cause=\"inconclusive\"}",
        ),
        ("fallbacks_deadline", "psi_fast_path_fallbacks_by_cause_total{cause=\"deadline\"}"),
        ("races_unconfident", "psi_raced_misses_total{cause=\"unconfident\"}"),
        ("races_untrained", "psi_raced_misses_total{cause=\"untrained\"}"),
        ("cancelled_variants", "psi_cancelled_variants_total"),
        ("busy_rejections", "psi_busy_rejections_total"),
        ("queue_full_rejections", "psi_queue_full_total"),
        ("parked", "psi_parked_total"),
        ("waiting_room_depth", "psi_waiting_room_depth"),
        ("inconclusive", "psi_inconclusive_total"),
        ("topk_races", "psi_topk_races_total"),
        ("pruned_entrants", "psi_pruned_entrants_total"),
        ("escalations", "psi_escalations_total"),
        ("escalation_rate", "psi_escalation_rate"),
        ("sliced_races", "psi_sliced_races_total"),
        ("slices_spawned", "psi_slices_total"),
        ("slice_steals", "psi_slice_steals_total"),
        ("index_build_us", "psi_index_build_us"),
        ("edge_probes_bitset", "psi_edge_probes_total{kind=\"bitset\"}"),
        ("edge_probes_binary", "psi_edge_probes_total{kind=\"binary\"}"),
        ("wal_appended", "psi_wal_appended_total"),
        ("wal_replayed", "psi_wal_replayed_total"),
        ("updates_applied", "psi_updates_applied_total"),
        ("compactions", "psi_compactions_total"),
        ("compaction_us", "psi_compaction_us_total"),
        ("cache_invalidations", "psi_cache_invalidations_total"),
        ("epoch", "psi_epoch"),
        ("throughput_qps", "psi_throughput_qps"),
    ];
    let debug = format!("{:?}", multi.graph_stats(a).expect("registered"));
    let mut numeric: Vec<&str> = debug
        .trim_start_matches("EngineStats { ")
        .split(", ")
        .filter_map(|field| field.split_once(": "))
        .filter(|(_, value)| value.parse::<f64>().is_ok())
        .map(|(name, _)| name)
        .collect();
    numeric.sort_unstable();
    let mut listed: Vec<&str> = exported.iter().map(|(key, _)| *key).collect();
    listed.sort_unstable();
    assert_eq!(numeric, listed, "every numeric EngineStats field is listed");
    // Each sample's series: its name plus every label but `graph`.
    let series: std::collections::HashSet<String> = samples
        .iter()
        .map(|s| {
            let extra: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "graph")
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if extra.is_empty() {
                s.name.clone()
            } else {
                format!("{}{{{}}}", s.name, extra.join(","))
            }
        })
        .collect();
    for (key, prometheus) in exported {
        assert!(json.contains(&format!("\"{key}\":")), "JSON lacks {key}:\n{json}");
        assert!(series.contains(prometheus), "Prometheus lacks {prometheus}:\n{text}");
    }
}

// ---- MultiEngine aggregate percentiles vs pooled per-graph ----

/// When the registry is quiesced, the aggregate `stats()` percentiles
/// must equal percentiles of the bucket-wise merged per-graph histogram
/// snapshots exactly — same buckets, same math, no sampling.
#[test]
fn aggregate_stats_match_pooled_per_graph_histograms() {
    let stored = stored_graph(31);
    let other = stored_graph(32);
    let multi = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 2,
        tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
    });
    let a = multi
        .register("a", PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd()))
        .unwrap();
    let b = multi
        .register("b", PsiRunner::new(Arc::new(other.clone()), PsiConfig::gql_spa_orig_dnd()))
        .unwrap();
    for i in 0..10 {
        multi.submit(a, &grown_query(&stored, 4, 500 + i)).unwrap();
        multi.submit(b, &grown_query(&other, 4, 600 + i)).unwrap();
    }
    let agg = multi.stats();
    let exporter = multi.exporter();
    for (kind, agg_p50, agg_p99) in [
        (HistogramKind::Latency, agg.latency_p50, agg.latency_p99),
        (HistogramKind::QueueWait, agg.stages.queue_p50, agg.stages.queue_p99),
        (HistogramKind::RaceStage, agg.stages.race_p50, agg.stages.race_p99),
        (HistogramKind::FinalizeStage, agg.stages.finalize_p50, agg.stages.finalize_p99),
    ] {
        let pooled = exporter.merged_histogram(kind);
        assert_eq!(
            pooled.percentile(0.50),
            agg_p50.as_micros() as u64,
            "pooled p50 equals aggregate for {kind:?}"
        );
        assert_eq!(
            pooled.percentile(0.99),
            agg_p99.as_micros() as u64,
            "pooled p99 equals aggregate for {kind:?}"
        );
    }
    // The pooled count covers both graphs' served queries.
    assert_eq!(exporter.merged_histogram(HistogramKind::Latency).count, agg.queries);
}
