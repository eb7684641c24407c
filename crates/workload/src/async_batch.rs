//! Ticket-driven batch submission: many queries in flight from few
//! client threads.
//!
//! [`crate::submit_batch_multi`] models classic thread-per-request clients —
//! each client thread parks inside one blocking call at a time, so
//! in-flight queries ≤ client threads. [`submit_batch_async`] models an
//! event-loop frontend instead: each client keeps a *window* of
//! [`psi_engine::QueryTicket`]s open, topping the window up with
//! [`psi_engine::Submit::submit_nonblocking`] and draining completions
//! through a [`psi_engine::CompletionQueue`]. Two client threads can
//! keep hundreds of queries in flight over the engine's bounded pool —
//! the multiplexing a network layer needs. Over-limit submissions park
//! in the engine's waiting room; only once that overflows does
//! backpressure surface as a typed [`psi_engine::AdmissionError`], and
//! the driver reacts by draining a completion and retrying — exactly
//! the loop a real server runs.
//!
//! Works through the [`Submit`] trait: route each request by building
//! it with [`psi_engine::QueryRequest::graph`].

use crate::metrics::SummaryStats;
use psi_engine::{
    CompletionQueue, EngineResponse, QueryRequest, QueryTicket, ServePath, Submit, SubmitError,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Aggregate outcome of one ticket-driven batch run.
#[derive(Debug)]
pub struct AsyncBatchReport {
    /// Per-request responses, in request order.
    pub responses: Vec<EngineResponse>,
    /// Wall time of the whole batch (first submit to last completion).
    pub wall: Duration,
    /// Served requests per second over the batch.
    pub qps: f64,
    /// Distribution of per-request latencies (admission to answer), in
    /// seconds.
    pub latency: Option<SummaryStats>,
    /// Highest number of requests simultaneously in flight (submitted,
    /// completion not yet observed) across all clients — the
    /// multiplexing headline: with enough admission slots this exceeds
    /// the client count many times over. Clients drain finished tickets
    /// opportunistically after every submission, so serving that
    /// secretly completed synchronously would collapse this to ≈ the
    /// client count.
    pub in_flight_high_water: usize,
    /// Admission refusals (`Busy` / `QueueFull`) absorbed by the
    /// drain-and-retry loop. With a non-zero waiting room this stays 0
    /// until the room itself overflows.
    pub busy_retries: u64,
    /// Requests answered from the result cache.
    pub cache_hits: usize,
    /// Requests answered by the predictor fast path.
    pub fast_paths: usize,
    /// Requests answered by a race.
    pub races: usize,
    /// Requests whose answer was not definitive.
    pub inconclusive: usize,
}

/// Submits every request through `engine` from `clients` event-loop
/// threads (at least 1), each keeping up to `window` tickets in flight,
/// and blocks until all are served. Responses come back in request
/// order regardless of completion order.
///
/// The effective in-flight ceiling is `min(clients × window,
/// max_concurrent_races)` — admission still bounds pool occupancy; this
/// driver just stops needing a thread per admitted query.
///
/// # Panics
/// Panics if a request fails to route (an unregistered
/// [`psi_engine::GraphId`] or a graph-less request against a
/// multi-graph engine) — a workload construction bug, not a serving
/// condition.
pub fn submit_batch_async<S: Submit + Sync>(
    engine: &S,
    requests: &[QueryRequest],
    clients: usize,
    window: usize,
) -> AsyncBatchReport {
    let clients = clients.clamp(1, requests.len().max(1));
    let window = window.max(1);
    let pending: Mutex<VecDeque<usize>> = Mutex::new((0..requests.len()).collect());
    let slots: Mutex<Vec<Option<EngineResponse>>> = Mutex::new(vec![None; requests.len()]);
    let in_flight = AtomicUsize::new(0);
    let high_water = AtomicUsize::new(0);
    let busy_retries = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let queue = CompletionQueue::new();
                let mut held: HashMap<u64, QueryTicket> = HashMap::new();
                // Count a submission in flight and remember the peak.
                let track = || {
                    let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    high_water.fetch_max(now, Ordering::Relaxed);
                };
                // Collect one completed ticket's response.
                let complete = |held: &mut HashMap<u64, QueryTicket>, tag: u64| {
                    let ticket = held.remove(&tag).expect("queued tags map to held tickets");
                    let response = ticket.poll().expect("queued tag implies completion");
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    slots.lock().expect("batch slots lock")[tag as usize] = Some(response);
                };
                loop {
                    // Top the window up without blocking; an admission
                    // refusal means even the waiting room is full — fall
                    // through and drain a completion instead.
                    while held.len() < window {
                        let Some(idx) = pending.lock().expect("pending queue lock").pop_front()
                        else {
                            break;
                        };
                        let tag = idx as u64;
                        match engine.submit_into(requests[idx].clone().tag(tag), &queue) {
                            Ok(ticket) => {
                                track();
                                held.insert(tag, ticket);
                            }
                            Err(SubmitError::Admission(_)) => {
                                busy_retries.fetch_add(1, Ordering::Relaxed);
                                pending.lock().expect("pending queue lock").push_front(idx);
                                break;
                            }
                            Err(other) => panic!("async batch request failed to route: {other}"),
                        }
                        // Drain whatever already finished so the
                        // in-flight counter tracks genuine concurrency:
                        // if serving were secretly synchronous, every
                        // submission would complete right here and the
                        // high-water mark would stay near the client
                        // count instead of the window.
                        while let Some(tag) = queue.try_next() {
                            complete(&mut held, tag);
                        }
                    }
                    if held.is_empty() {
                        let Some(idx) = pending.lock().expect("pending queue lock").pop_front()
                        else {
                            break; // nothing held, nothing pending: done
                        };
                        // Every slot is held by other clients: queue for
                        // admission (priority-ordered, no spinning).
                        let tag = idx as u64;
                        let ticket = engine
                            .submit_queued_into(requests[idx].clone().tag(tag), &queue)
                            .unwrap_or_else(|e| panic!("async batch request failed to route: {e}"));
                        track();
                        held.insert(tag, ticket);
                    }
                    // Block for one completion (more drain on later spins).
                    let tag = queue.wait();
                    complete(&mut held, tag);
                }
            });
        }
    });
    let wall = start.elapsed();
    let responses: Vec<EngineResponse> = slots
        .into_inner()
        .expect("batch slots lock")
        .into_iter()
        .map(|slot| slot.expect("every request served"))
        .collect();

    let latencies: Vec<f64> = responses.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    let count = |path: ServePath| responses.iter().filter(|r| r.path == path).count();
    AsyncBatchReport {
        cache_hits: count(ServePath::CacheHit),
        fast_paths: count(ServePath::FastPath),
        races: count(ServePath::Race),
        inconclusive: responses.iter().filter(|r| !r.conclusive).count(),
        latency: SummaryStats::of(&latencies),
        qps: if wall.as_secs_f64() > 0.0 {
            responses.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        in_flight_high_water: high_water.load(Ordering::Relaxed),
        busy_retries: busy_retries.load(Ordering::Relaxed),
        wall,
        responses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_gen::Workloads;
    use psi_core::{PsiRunner, RaceBudget};
    use psi_engine::{EngineConfig, GraphId, MultiEngine, MultiEngineConfig};
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn async_batch_multiplexes_far_beyond_the_client_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
        let stored = random_connected_graph(60, 140, &labels, &mut rng);
        let queries: Vec<Graph> = Workloads::nfv_workload(&stored, 6, 48, 77);
        assert!(queries.len() >= 32, "workload large enough to saturate the window");

        let workers = 2;
        let engine = MultiEngine::new(MultiEngineConfig {
            workers,
            // Admission far above the pool: in-flight queries are
            // bounded by tickets, not threads.
            max_concurrent_races: 32,
            tenant: EngineConfig {
                cache_capacity: 0, // every request really races
                predictor_confidence: 2.0,
                // Complete searches keep each race busy long enough for
                // the 2 clients to fill their windows.
                default_budget: RaceBudget::with_max_matches(usize::MAX),
                ..EngineConfig::default()
            },
        });
        let id = engine.register("stored", PsiRunner::nfv_default(&stored)).expect("fresh");
        let requests: Vec<QueryRequest> =
            queries.iter().map(|q| QueryRequest::new(q.clone()).graph(id)).collect();
        let report = submit_batch_async(&engine, &requests, 2, 16);
        assert_eq!(report.responses.len(), queries.len());
        assert!(report.responses.iter().all(|r| r.conclusive));
        assert!(report.responses.iter().all(|r| r.found()), "grown queries embed");
        assert_eq!(report.races, queries.len());
        assert!(report.qps > 0.0);
        // The multiplexing claim: 2 client threads sustained at least
        // 4 × workers queries in flight simultaneously.
        assert!(
            report.in_flight_high_water >= 4 * workers,
            "2 clients must keep >= {} queries in flight, saw {}",
            4 * workers,
            report.in_flight_high_water
        );
        assert_eq!(engine.stats().races, queries.len() as u64);
    }

    #[test]
    fn async_batch_routes_multi_graph_requests() {
        let spec = crate::multi::MultiWorkloadSpec {
            graphs: 3,
            total_queries: 45,
            distinct_per_graph: 6,
            ..crate::multi::MultiWorkloadSpec::default()
        };
        let workload = crate::multi::MultiWorkload::generate(&spec, 21);
        let multi = MultiEngine::new(MultiEngineConfig {
            workers: 2,
            max_concurrent_races: 8,
            tenant: EngineConfig {
                default_budget: RaceBudget::decision(),
                ..EngineConfig::default()
            },
        });
        let ids: Vec<GraphId> = workload
            .graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                multi
                    .register_shared(
                        format!("graph-{i}"),
                        Arc::new(PsiRunner::nfv_default_shared(Arc::clone(g))),
                    )
                    .expect("unique names")
            })
            .collect();
        let requests: Vec<QueryRequest> = workload
            .traffic
            .iter()
            .map(|(g, q)| QueryRequest::new(q.clone()).graph(ids[*g]))
            .collect();
        let report = submit_batch_async(&multi, &requests, 2, 4);
        assert_eq!(report.responses.len(), requests.len());
        // Queries are grown from their own graph, so every request must
        // embed — a response answering from the wrong graph breaks this.
        assert!(report.responses.iter().all(|r| r.conclusive && r.found()));
        assert_eq!(multi.stats().queries, requests.len() as u64);
        // Backpressure (if any) was absorbed, never surfaced.
        assert_eq!(report.cache_hits + report.races + report.fast_paths, requests.len());
    }
}
