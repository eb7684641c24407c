//! Staged racing on a saturated pool: the predictor ranks the entrant
//! field per query, the scheduler launches only a heat of the
//! top-ranked entrants — sized by how confident the ranking is — and
//! the rest of the field stays in reserve, escalating only if the
//! pruned heat can't decide the race. Pruned losers never occupy
//! workers, so the same pool serves more queries per second than racing
//! the whole field.
//!
//! ```text
//! cargo run --release --example adaptive_racing
//! ```

use psi::prelude::*;
use psi::workload::{compare_race_strategies, StrategySpec};
use psi_core::PsiConfig;
use std::sync::Arc;

fn main() {
    // A yeast-like stored graph and the 4-variant field of Fig 14/15:
    // {GraphQL, sPath} × {original, DND rewriting}.
    let stored = Arc::new(psi::graph::datasets::yeast_like(0.1, 7));
    let config = PsiConfig::gql_spa_orig_dnd();
    println!(
        "stored graph: {} nodes / {} edges; field of {} variants per query",
        stored.node_count(),
        stored.edge_count(),
        config.thread_count()
    );

    // Disjoint training and measurement workloads from the same
    // distribution: the predictor learns on one, is measured on the other.
    let training: Vec<Graph> = Workloads::nfv_workload(&stored, 10, 48, 11);
    let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 10, 96, 12);
    println!(
        "workload: {} training queries, {} measured queries, 8 clients on a 4-worker pool\n",
        training.len(),
        queries.len()
    );

    // Head-to-head: identical engines (no cache, no fast path — every
    // query really races) differing only in RaceStrategy. Slicing off:
    // on a saturated pool the scheduler tunes only the heat size.
    let staged = RaceStrategy::Adaptive { max_slices: 1, escalate_after: 0.02 };
    let spec = StrategySpec {
        config: config.clone(),
        strategy: staged,
        workers: 4,
        clients: 8,
        budget: RaceBudget::with_max_matches(64),
        min_observations: 16,
    };
    let cmp = compare_race_strategies(&stored, &training, &queries, &spec);
    println!("saturated-pool throughput:");
    println!("  race-all (Full)   {:>8.0} queries/s", cmp.full_qps);
    println!("  staged + escalate {:>8.0} queries/s  ({:.2}x)", cmp.topk_qps, cmp.speedup);
    println!(
        "  staged races: {} — {} entrants pruned, {:.1}% escalated\n",
        cmp.topk_races,
        cmp.pruned_entrants,
        cmp.escalation_rate * 100.0
    );

    // The same strategy inside one long-lived engine, to show the
    // learned per-entrant statistics behind the ranking.
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 4,
        max_concurrent_races: 4,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            predictor_min_observations: 16,
            race_strategy: staged,
            default_budget: RaceBudget::with_max_matches(64),
            ..EngineConfig::default()
        },
    });
    let yeast = engine
        .register("yeast", PsiRunner::new(Arc::clone(&stored), config.clone()))
        .expect("fresh engine");
    for q in training.iter().chain(&queries) {
        engine.submit(yeast, q).expect("registered graph");
    }
    let stats = engine.stats();
    println!("long-lived staged engine after {} queries:", stats.queries);
    println!(
        "  races          {} total, {} staged, {} escalations ({:.1}%)",
        stats.races,
        stats.topk_races,
        stats.escalations,
        stats.escalation_rate * 100.0
    );
    println!(
        "  pruning        {} entrants never launched, {} cancelled by winners",
        stats.pruned_entrants, stats.cancelled_variants
    );
    println!("\nlearned entrant record (wins / losses / timeouts):");
    let tallies = engine.entrant_tallies(yeast).expect("registered graph");
    for (variant, tally) in config.variants.iter().zip(tallies) {
        println!(
            "  {variant:<12} {:>4} / {:>4} / {:>4}   win rate {:>5.1}%",
            tally.wins,
            tally.losses,
            tally.timeouts,
            tally.win_rate() * 100.0
        );
    }
}
