//! The non-blocking ticket frontend: 1000 queries in flight from TWO
//! client threads.
//!
//! The blocking API needs one parked OS thread per in-flight query —
//! serving 1000 concurrent queries would mean 1000 client threads. The
//! ticket frontend inverts that: `submit_nonblocking` returns a
//! `QueryTicket` the moment the query is admitted, the race runs
//! reactively on the engine's fixed worker pool, and a
//! `CompletionQueue` lets one thread drain any number of tickets as
//! they complete — the event-loop shape a network layer multiplexing
//! thousands of clients would use.
//!
//! ```text
//! cargo run --release --example async_frontend
//! ```

use psi::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let stored = psi::graph::datasets::yeast_like(0.3, 7);
    println!(
        "stored graph: {} nodes / {} edges; racing 2 variants per query",
        stored.node_count(),
        stored.edge_count()
    );

    // 1000 distinct queries — no repeats, so every one really occupies
    // an admission slot (cache hits would complete at submission).
    let queries = Workloads::nfv_workload(&stored, 8, 1000, 2026);
    let total = queries.len();

    // 4 workers serve everything; admission is deliberately opened wide
    // so this demo never sheds load — in-flight queries are bounded by
    // tickets (cheap structs), not threads. A production frontend would
    // size `max_concurrent_races` to its latency budget and handle
    // `SubmitError::Admission` (see `psi_workload::submit_batch_async`).
    let workers = 4;
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        workers,
        max_concurrent_races: 1024,
        tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
    }));
    let yeast = engine.register("yeast", PsiRunner::nfv_default(&stored)).expect("fresh engine");
    let requests: Vec<QueryRequest> =
        queries.into_iter().map(|q| QueryRequest::new(q).graph(yeast)).collect();
    println!("engine: {workers} workers, {total} queries inbound from 2 client threads\n");

    let cursor = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let high_water = AtomicUsize::new(0);
    let found = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..2 {
            let engine = Arc::clone(&engine);
            let (cursor, in_flight, high_water, found, requests) =
                (&cursor, &in_flight, &high_water, &found, &requests);
            scope.spawn(move || {
                // Submission phase: fire tickets as fast as the cursor
                // hands out work. Nothing blocks — each call returns at
                // admission with a completion handle.
                let queue = CompletionQueue::new();
                let mut held: HashMap<u64, QueryTicket> = HashMap::new();
                let mut submitted = 0usize;
                let collect = |held: &mut HashMap<u64, QueryTicket>, tag: u64| {
                    let ticket = held.remove(&tag).expect("tag of a held ticket");
                    let response = ticket.poll().expect("queued tag implies completion");
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    assert!(response.conclusive, "decision races on this graph all conclude");
                    if response.found() {
                        found.fetch_add(1, Ordering::Relaxed);
                    }
                };
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= requests.len() {
                        break;
                    }
                    let ticket = engine
                        .submit_into(requests[idx].clone().tag(idx as u64), &queue)
                        .expect("admission sized above the workload");
                    let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    high_water.fetch_max(now, Ordering::Relaxed);
                    held.insert(idx as u64, ticket);
                    submitted += 1;
                    // Drain whatever already finished, so the in-flight
                    // counter measures genuine concurrency — were serving
                    // secretly synchronous, every ticket would complete
                    // right here and the high-water mark would stay ~2.
                    while let Some(tag) = queue.try_next() {
                        collect(&mut held, tag);
                    }
                }
                // Drain phase: one thread collects every remaining completion.
                while !held.is_empty() {
                    let tag = queue.wait();
                    collect(&mut held, tag);
                }
                println!("  client {client}: submitted {submitted}, drained {submitted}");
            });
        }
    });
    let wall = t0.elapsed();

    let peak = high_water.load(Ordering::Relaxed);
    let stats = engine.stats();
    println!(
        "\nserved {total} queries in {:.1} ms ({:.0} queries/s)",
        wall.as_secs_f64() * 1e3,
        total as f64 / wall.as_secs_f64()
    );
    println!(
        "  in-flight high-water: {peak} queries over {workers} workers ({}x) — from 2 client threads",
        peak / workers
    );
    println!(
        "  decisions: {} embed / {} don't",
        found.load(Ordering::Relaxed),
        total - found.load(Ordering::Relaxed)
    );
    println!(
        "  paths: {} races, {} cache hits, {} fast paths ({} fallbacks)",
        stats.races, stats.cache_hits, stats.fast_paths, stats.fast_path_fallbacks
    );
    println!("  latency: p50 {:?}  p99 {:?}", stats.latency_p50, stats.latency_p99);
    println!(
        "\nNote the p99: deadlines anchor at admission, so with everything admitted at\n\
         once the tail includes its time in line — a real frontend bounds that wait by\n\
         sizing max_concurrent_races and turning the overflow into EngineBusy backpressure."
    );

    assert_eq!(stats.queries as usize, total);
    assert!(
        peak > 2 * workers,
        "the ticket frontend must multiplex far beyond thread-per-query: peak {peak}"
    );
}
