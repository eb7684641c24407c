//! Reproduce the paper's core observations from the Ψ-trace layer alone:
//!
//! 1. stragglers exist (Observation 1) — the whole-population latency
//!    histogram has a tail far above its median, and the slow-query log
//!    names the offenders,
//! 2. isomorphic instances of the same query behave differently
//!    (Observation 2) — each race fields Orig and DND instances of one
//!    query, and their fates within a race diverge (one concludes, the
//!    others are cancelled mid-flight),
//! 3. stragglers are rewriting- and algorithm-specific (Observations
//!    4–5) — the winning variant is not constant across queries, and in
//!    each slow race the per-entrant timing shows which variant would
//!    have been the straggler had it run alone.
//!
//! Instead of hand-timing matcher calls, everything below is read back
//! from a serving engine's telemetry: the trace stream's `Finalized`
//! events, the stage histograms, the slow-query log with per-entrant
//! timing, and the Prometheus exporter. One caveat the trace makes
//! explicit: losing entrants are cooperatively *cancelled* when the
//! winner claims, so their recorded wall times are truncated — a loser's
//! wall is a lower bound on what it would have cost alone. That
//! truncation is exactly the paper's argument for racing.
//!
//! A second act replays the same traffic under the self-tuning
//! scheduler (`RaceStrategy::Adaptive`) and attributes each surviving
//! straggler to its *slices*: `SliceSpawned`/`SliceFinished` trace
//! events show how the query's root-candidate space was split across
//! cooperating work-stealing tasks, which slice carried the weight, and
//! whether the stealing cursor rebalanced the split.
//!
//! ```text
//! cargo run --release --example straggler_hunt
//! ```

use psi::prelude::*;
use psi_workload::metrics::max_min_ratio;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let stored = psi::graph::datasets::human_like(0.35, 11);
    println!(
        "stored graph: {} nodes / {} edges (dense, human-like)",
        stored.node_count(),
        stored.edge_count()
    );

    // The paper's 4-thread Fig 14/15 field — GQL/SPA × Orig/DND — on a
    // traced engine with the shortcuts off: no cache and no predictor
    // fast path, so every query runs the full entrant field and the
    // trace shows complete races.
    let runner = PsiRunner::new(Arc::new(stored.clone()), PsiConfig::gql_spa_orig_dnd());
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            default_budget: RaceBudget::matching().timeout(Duration::from_millis(200)),
            telemetry: TelemetryConfig {
                trace_capacity: 1 << 16,
                slow_query_capacity: 5,
                ..TelemetryConfig::default()
            },
            ..EngineConfig::default()
        },
        ..MultiEngineConfig::default()
    });
    let human = engine.register("human", runner).expect("fresh engine");

    let queries = Workloads::nfv_workload(&stored, 20, 20, 5);
    println!("workload: {} queries of 20 edges, 200ms race timeout\n", queries.len());
    for q in &queries {
        engine.submit(human, q).expect("registered graph");
    }

    // The trace stream: one Admitted and one terminal event per query,
    // with every entrant report in between.
    let events: Vec<TraceRecord> = engine.drain_trace().into_iter().map(|(_, r)| r).collect();
    let entrant_reports =
        events.iter().filter(|r| matches!(r.event, TraceEvent::EntrantFinished { .. })).count();
    println!(
        "trace: {} events ({} entrant reports, {} terminals, {} dropped)",
        events.len(),
        entrant_reports,
        events.iter().filter(|r| r.event.is_terminal()).count(),
        engine.exporter().graphs()[0].trace_dropped
    );

    // Observation 1: the tail dwarfs the median. Histogram percentiles
    // cover the whole population (exact to one 1/32 bucket), and the
    // Finalized events carry per-query wall times.
    let stats = engine.stats();
    println!(
        "latency: p50 {:?}  p99 {:?}   stages p99: queue {:?} / race {:?} / finalize {:?}",
        stats.latency_p50,
        stats.latency_p99,
        stats.stages.queue_p99,
        stats.stages.race_p99,
        stats.stages.finalize_p99
    );
    let finals: Vec<(u64, u64, Option<Variant>)> = events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Finalized { query, elapsed_us, winner, .. } => {
                Some((query, elapsed_us, winner))
            }
            _ => None,
        })
        .collect();
    let walls: Vec<f64> = finals.iter().map(|&(_, us, _)| us as f64).collect();
    if let Some(spread) = max_min_ratio(&walls) {
        println!("query-time (max/min) across the workload: {spread:.1}×  (stragglers exist)\n");
    }

    // Observations 4, 5: which variant won each race? A straggler under
    // one (algorithm, rewriting) pair is fast under another, which is
    // why racing the field wins.
    let mut by_variant: Vec<(String, usize)> = Vec::new();
    for &(_, _, winner) in &finals {
        if let Some(v) = winner {
            let name = v.to_string();
            match by_variant.iter_mut().find(|(n, _)| *n == name) {
                Some((_, n)) => *n += 1,
                None => by_variant.push((name, 1)),
            }
        }
    }
    by_variant.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    print!("winning variant: ");
    for (name, n) in &by_variant {
        print!("{name} ×{n}  ");
    }
    println!(
        "\n{} distinct winning variants across {} queries: the fastest instance is \
         (algorithm, rewriting)-specific.\n",
        by_variant.len(),
        finals.len()
    );

    // The slow-query log keeps per-entrant timing for the worst races:
    // the fastest entrant is the winner, the slowest is the straggler
    // racing rescued the query from (its wall truncated at cancellation).
    println!("slow-query log, worst first (per-entrant timing):");
    for (_, sq) in engine.slow_queries() {
        let ran: Vec<&EntrantTiming> =
            sq.entrants.iter().filter(|e| !e.pruned && e.wall_us > 0).collect();
        let winner = sq.winner.map_or("none".to_string(), |w| w.to_string());
        println!("  query {:>3}: {:>8} µs  winner {winner}", sq.query, sq.elapsed_us);
        if let (Some(fast), Some(slow)) =
            (ran.iter().min_by_key(|e| e.wall_us), ran.iter().max_by_key(|e| e.wall_us))
        {
            println!(
                "             fastest {:<10} {:>8} µs ({:?})   slowest {:<10} {:>8} µs ({:?})",
                fast.variant.to_string(),
                fast.wall_us,
                fast.stop,
                slow.variant.to_string(),
                slow.wall_us,
                slow.stop
            );
        }
    }

    // And the same numbers, scrape-ready.
    let scrape = engine.exporter().render_prometheus();
    println!("\nexporter excerpt ({} lines total):", scrape.lines().count());
    for line in scrape.lines().filter(|l| {
        l.starts_with("psi_queries_total")
            || l.starts_with("psi_races_total")
            || l.starts_with("psi_query_latency_us_count")
    }) {
        println!("  {line}");
    }

    // ── Act 2: the same traffic under the self-tuning scheduler ──────
    //
    // `RaceStrategy::Adaptive` splits each big query's root-candidate
    // space into cooperating work-stealing slices whenever the pool has
    // spare workers (idle-biased here: one race at a time over 4
    // workers). The trace attributes every straggler to its slices.
    let sliced = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 1,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            // Let the scheduler plan from the first query: this act is
            // about slice attribution, not predictor warm-up.
            predictor_min_observations: 0,
            race_strategy: RaceStrategy::Adaptive { max_slices: 3, escalate_after: 1.0 },
            default_budget: RaceBudget::matching().timeout(Duration::from_millis(200)),
            telemetry: TelemetryConfig {
                trace_capacity: 1 << 16,
                slow_query_capacity: 3,
                ..TelemetryConfig::default()
            },
            ..EngineConfig::default()
        },
    });
    let human = sliced
        .register("human", PsiRunner::new(Arc::new(stored), PsiConfig::gql_spa_orig_dnd()))
        .expect("fresh engine");
    for q in &queries {
        sliced.submit(human, q).expect("registered graph");
    }
    let stats = sliced.stats();
    println!(
        "\nadaptive scheduler: {} of {} races sliced, {} slice tasks spawned, {} ranges stolen",
        stats.sliced_races, stats.races, stats.slices_spawned, stats.slice_steals
    );

    // Per-straggler slice attribution: every `SliceFinished` event names
    // its (entrant, slice) and reports the chunks that slice claimed off
    // the shared cursor plus its wall time. An uneven chunk split on a
    // slow query is the work-stealing cursor rebalancing: the slice that
    // hit the hard region claimed fewer ranges while its siblings ate
    // the rest of the domain.
    let events: Vec<TraceRecord> = sliced.drain_trace().into_iter().map(|(_, r)| r).collect();
    println!("slow queries attributed to slices (entrant/slice: chunks claimed, wall):");
    for (_, sq) in sliced.slow_queries() {
        let winner = sq.winner.map_or("none".to_string(), |w| w.to_string());
        println!("  query {:>3}: {:>8} µs  winner {winner}", sq.query, sq.elapsed_us);
        let mut slices: Vec<(u32, u32, u32, u64)> = events
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::SliceFinished { query, entrant, slice, chunks, wall_us }
                    if query == sq.query =>
                {
                    Some((entrant, slice, chunks, wall_us))
                }
                _ => None,
            })
            .collect();
        slices.sort_by_key(|&(entrant, _, _, wall_us)| (entrant, std::cmp::Reverse(wall_us)));
        if slices.is_empty() {
            println!("             ran unsliced (the scheduler saw no spare capacity)");
            continue;
        }
        for (entrant, slice, chunks, wall_us) in &slices {
            println!(
                "             entrant {entrant} slice {slice}: {chunks:>3} chunks  {wall_us:>8} µs"
            );
        }
        if let Some((entrant, slice, _, wall_us)) = slices.iter().max_by_key(|&&(_, _, _, w)| w) {
            println!(
                "             heaviest share: entrant {entrant} slice {slice} at {wall_us} µs — \
                 the straggling region of the root domain"
            );
        }
    }
}
