//! The fair gate's hand-off under real threads: with the only race slot
//! pinned, blocked writers, blocked `submit_queued` callers at mixed
//! priorities and parked non-blocking tickets all queue behind it, and
//! releasing the pin hands the slot down the whole queue — every caller
//! completes, none is lost, and the gate drains to an idle slot.

use psi_core::{GraphUpdate, PsiRunner, RaceBudget, UpdateOp};
use psi_engine::{
    EngineConfig, GraphId, MultiEngine, MultiEngineConfig, Priority, QueryRequest, Submit,
};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::graph::graph_from_parts;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 3;
const BLOCKED_READERS: usize = 6;
const PARKED: usize = 4;

/// A single-edge query: embeds in any graph with an edge.
fn edge(graph: GraphId) -> QueryRequest {
    QueryRequest::new(graph_from_parts(&[0, 0], &[(0, 1)])).graph(graph)
}

#[test]
fn every_waiter_kind_is_handed_the_slot_when_the_pin_releases() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let labels = LabelDist::Uniform { num_labels: 1 }.sampler();
    // Dense and single-labelled: an uncapped 10-node path query is an
    // enumeration that cannot finish before it is cancelled, while a
    // single edge embeds at once.
    let stored = random_connected_graph(60, 400, &labels, &mut rng);
    let engine = MultiEngine::new(MultiEngineConfig {
        workers: 2,
        max_concurrent_races: 1,
        tenant: EngineConfig {
            cache_capacity: 0,
            predictor_confidence: 2.0,
            default_budget: RaceBudget::decision(),
            ..EngineConfig::default()
        },
    });
    let id = engine.register("stored", PsiRunner::nfv_default(&stored)).expect("fresh registry");
    let engine = Arc::new(engine);

    let path: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    let pin = engine
        .submit_nonblocking(
            QueryRequest::new(graph_from_parts(&[0; 10], &path))
                .graph(id)
                .budget(RaceBudget::with_max_matches(usize::MAX)),
        )
        .expect("an idle engine admits the pin");
    // Admission is synchronous: the pin holds the only slot from here on.
    let parked: Vec<_> = (0..PARKED)
        .map(|_| engine.submit_nonblocking(edge(id)).expect("the waiting room has space"))
        .collect();

    // A lost wake-up would hang a caller forever; the callers run on a
    // watched thread so that fails this test instead of hanging it.
    let (done, finished) = mpsc::channel();
    let watched = Arc::clone(&engine);
    let watcher = std::thread::spawn(move || {
        let engine = &*watched;
        std::thread::scope(|callers| {
            for _ in 0..WRITERS {
                callers.spawn(|| {
                    let update = GraphUpdate::new(vec![UpdateOp::AddNode { label: 0 }]);
                    engine.apply_update(id, &update).expect("a valid batch applies");
                });
            }
            for i in 0..BLOCKED_READERS {
                let priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
                callers.spawn(move || {
                    let ticket = engine
                        .submit_queued(edge(id).priority(priority))
                        .expect("blocking submission waits instead of refusing");
                    let response = ticket.wait();
                    assert!(response.conclusive && response.found(), "an edge embeds");
                });
            }
            // Give the callers time to block behind the pin. Every
            // assertion here holds in any interleaving; the pause only
            // makes it likely that all of them queue before it drops.
            // Only the parked tickets occupy the waiting room; blocked
            // threads never count toward it.
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(engine.stats().waiting_room_depth, PARKED as u64);
            drop(pin);
            for ticket in parked {
                let response = ticket.wait();
                assert!(response.conclusive && response.found(), "an edge embeds");
            }
        });
        done.send(()).expect("the test thread is listening");
    });
    let outcome = finished.recv_timeout(Duration::from_secs(120));
    assert_ne!(outcome, Err(RecvTimeoutError::Timeout), "a waiter was never handed its slot");
    watcher.join().expect("every caller completes");

    let stats = engine.stats();
    assert_eq!(stats.updates_applied, WRITERS as u64);
    assert_eq!(stats.parked, PARKED as u64, "only the non-blocking tickets parked");
    assert_eq!(stats.waiting_room_depth, 0, "the room drained");
    assert_eq!(stats.queries, (1 + PARKED + BLOCKED_READERS) as u64);
    // Every permit is back: on this one-slot engine a fresh submission
    // takes the fast path instead of parking.
    let probe = engine.submit_nonblocking(edge(id)).expect("an idle engine admits");
    assert_eq!(engine.stats().parked, PARKED as u64, "the gate drained to 0 in flight");
    assert!(probe.wait().found());
}
