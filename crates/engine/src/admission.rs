//! Admission: the one fair gate every tenant's races pass through, and
//! the deferred launches parked in its waiting room.
//!
//! **Fair admission.** A single counting gate bounds races in flight
//! across *all* graphs. When slots are contended the gate hands the
//! freed slot to the waiting graph with the fewest races currently in
//! flight (max–min fairness), tie-broken by priority and then arrival
//! order — so a tenant flooding the engine with traffic cannot starve a
//! light tenant, yet an uncontended engine behaves exactly like
//! per-graph FIFO.
//!
//! **The hand-off.** Waiters come in two kinds, sharing one queue and
//! one fairness policy: *thread* waiters (blocking submissions and
//! writes, asleep on their own one-shot channel) and *parked* waiters
//! (non-blocking submissions over the limit, carrying a
//! [`DeferredLaunch`] instead of a thread — the waiting room). Either
//! way, the thread that frees a slot picks the winner under the lock,
//! takes the slot on its behalf, and completes the hand-off outside the
//! lock: a parked launch fires, a blocked thread wakes already holding
//! its slot. A slot is never reserved for a waiter that has yet to claim
//! it, so a later arrival — whatever its priority — cannot take a slot
//! already handed over, and cancelling a parked entry touches nothing
//! but that entry.

use crate::cache::{CachedAnswer, QueryKey};
use crate::engine::{EngineResponse, ServeCore, ServePath};
use crate::flight::{prepare_and_launch, StageTimer};
use crate::pool::WorkerPool;
use crate::submit::{CompletionSlot, Priority};
use crate::telemetry::TraceEvent;
use psi_core::RaceBudget;
use psi_graph::Graph;
use psi_matchers::CancelToken;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// What a queued admission is waiting *as*.
enum Waiter {
    /// A blocking submission or write: its thread sleeps on the other
    /// end of this one-shot channel until it is handed its slot.
    Thread(SyncSender<()>),
    /// A non-blocking submission over the limit: nobody is blocked; the
    /// hand-off launches the race directly. Boxed: a prepared launch is
    /// ~300 bytes and the `Thread` variant carries one pointer.
    Parked { since: Instant, launch: Box<DeferredLaunch> },
}

/// One queued admission: sort key `(rank, ticket)` plus its waiter kind.
struct WaitEntry {
    rank: u8,
    ticket: u64,
    waiter: Waiter,
}

impl WaitEntry {
    fn is_parked(&self) -> bool {
        matches!(self.waiter, Waiter::Parked { .. })
    }

    /// Completes the hand-off of a slot already taken on this waiter's
    /// behalf. Must run with the gate lock **released**: a launch submits
    /// to the worker pool, and a cache-coalesced or instantly-failing
    /// race could re-enter the gate (release → hand-off) on the same
    /// call stack.
    fn hand_off(self) {
        match self.waiter {
            // The receiver lives as long as its blocked thread, which
            // leaves only after this send, so the send cannot fail.
            Waiter::Thread(wake) => {
                let _ = wake.send(());
            }
            Waiter::Parked { since, launch } => launch.launch(Some(since.elapsed())),
        }
    }
}

/// The scheduling core of the fair gate. Pure state machine (no blocking)
/// so the fairness policy is unit-testable without threads.
///
/// **Invariant:** a waiter is queued only while every slot is taken —
/// a submission queues only when the fast path is closed, and each
/// freed slot goes straight to the next waiter — so a release frees
/// exactly the one slot its winner takes. Every tenant's [`TenantGate`]
/// shares the engine's one `FairCore` behind a mutex.
#[derive(Default)]
pub(crate) struct FairCore {
    /// The slot cap: races (and writes) in flight across every graph.
    max: usize,
    in_flight_total: usize,
    /// Races in flight per graph slot.
    in_flight: Vec<usize>,
    /// Waiting entries per graph slot, sorted by `(priority rank,
    /// ticket)` — the front entry is the graph's next candidate.
    /// Priority reorders waiters *within* a graph; across graphs,
    /// max–min fairness stays primary. Thread and parked waiters share
    /// one queue so neither kind can starve the other.
    waiters: Vec<Vec<WaitEntry>>,
    next_ticket: u64,
}

impl FairCore {
    pub(crate) fn new(max: usize) -> Self {
        Self { max: max.max(1), ..Self::default() }
    }

    fn add_graph(&mut self) -> usize {
        self.in_flight.push(0);
        self.waiters.push(Vec::new());
        self.in_flight.len() - 1
    }

    fn take(&mut self, graph: usize) {
        self.in_flight_total += 1;
        self.in_flight[graph] += 1;
    }

    /// Queues a waiter of either kind; returns its ticket.
    fn enqueue(&mut self, graph: usize, rank: u8, waiter: Waiter) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let queue = &mut self.waiters[graph];
        let at = queue.partition_point(|e| (e.rank, e.ticket) <= (rank, ticket));
        queue.insert(at, WaitEntry { rank, ticket, waiter });
        ticket
    }

    /// Parks `launch` in `graph`'s waiting room of `room` parked entries:
    /// `Ok((ticket, depth))` with the room's occupancy after parking, or
    /// the launch handed back when the room is full (or `room` is 0).
    fn park(
        &mut self,
        graph: usize,
        rank: u8,
        launch: Box<DeferredLaunch>,
        room: usize,
    ) -> Result<(u64, usize), Box<DeferredLaunch>> {
        if self.parked(graph) >= room {
            return Err(launch);
        }
        let ticket = self.enqueue(graph, rank, Waiter::Parked { since: Instant::now(), launch });
        Ok((ticket, self.parked(graph)))
    }

    /// Parked entries queued for `graph` (the waiting-room occupancy the
    /// per-graph bound is checked against).
    fn parked(&self, graph: usize) -> usize {
        self.waiters[graph].iter().filter(|e| e.is_parked()).count()
    }

    /// Parked entries across every graph.
    fn total_parked(&self) -> usize {
        self.waiters.iter().flatten().filter(|e| e.is_parked()).count()
    }

    /// Removes a parked entry by ticket (its [`crate::QueryTicket`] was
    /// cancelled or dropped). Returns the launch so the caller can drop
    /// it *outside* the lock — abandoning fulfills the completion slot,
    /// which may run arbitrary completion-queue callbacks. Removal frees
    /// no capacity, so nobody else is handed a slot.
    fn cancel_parked(&mut self, graph: usize, ticket: u64) -> Option<Box<DeferredLaunch>> {
        let queue = &mut self.waiters[graph];
        let at = queue.iter().position(|e| e.ticket == ticket && e.is_parked())?;
        match queue.remove(at).waiter {
            Waiter::Parked { launch, .. } => Some(launch),
            Waiter::Thread(_) => None,
        }
    }

    /// Whether a submission may bypass the queue entirely: capacity free
    /// and nobody waiting.
    fn can_fast_path(&self) -> bool {
        self.in_flight_total < self.max && self.waiters.iter().all(|q| q.is_empty())
    }

    /// Dispenses free capacity: among graphs with waiters, the one with
    /// the fewest races in flight wins (max–min fairness); within the
    /// chosen load level, higher priority wins; ties go to the oldest
    /// ticket. Each winner leaves the queue holding a slot taken on its
    /// behalf; the caller hands the winners over **outside** the lock.
    fn schedule(&mut self) -> Vec<WaitEntry> {
        let mut winners = Vec::new();
        while self.in_flight_total < self.max {
            let Some(graph) = self
                .waiters
                .iter()
                .enumerate()
                .filter_map(|(g, q)| q.first().map(|e| ((self.in_flight[g], e.rank, e.ticket), g)))
                .min_by_key(|&(key, _)| key)
                .map(|(_, g)| g)
            else {
                break;
            };
            self.take(graph);
            winners.push(self.waiters[graph].remove(0));
        }
        winners
    }

    fn release(&mut self, graph: usize) -> Vec<WaitEntry> {
        self.in_flight_total -= 1;
        self.in_flight[graph] -= 1;
        self.schedule()
    }
}

/// The shared fair gate bound to one tenant's slot: where that tenant
/// gets permission to occupy the worker pool with a race or a write.
pub(crate) struct TenantGate {
    shared: Arc<Mutex<FairCore>>,
    pub(crate) graph: usize,
}

impl TenantGate {
    /// Registers a new graph slot with `shared` and binds to it.
    pub(crate) fn new(shared: Arc<Mutex<FairCore>>) -> Self {
        let graph = shared.lock().expect("fair admission lock").add_graph();
        Self { shared, graph }
    }

    fn core(&self) -> MutexGuard<'_, FairCore> {
        self.shared.lock().expect("fair admission lock")
    }

    /// Blocks until this thread is handed a race slot; among waiters,
    /// higher [`Priority`] is served first, FIFO within a priority.
    pub(crate) fn acquire(&self, priority: Priority) {
        let woken = {
            let mut core = self.core();
            if core.can_fast_path() {
                core.take(self.graph);
                return;
            }
            let (wake, woken) = sync_channel(1);
            core.enqueue(self.graph, priority.rank(), Waiter::Thread(wake));
            woken
        };
        // The sender sits in the queue until the hand-off sends on it.
        woken.recv().expect("a queued thread waiter is always handed its slot");
    }

    /// Returns a previously acquired slot, handing it to the next waiter
    /// if there is one.
    pub(crate) fn release(&self) {
        let winners = self.core().release(self.graph);
        winners.into_iter().for_each(WaitEntry::hand_off);
    }

    /// Non-blocking admission with parking: takes a slot immediately
    /// ([`Admit::Ready`]), parks the launch in the waiting room of
    /// `room` entries per graph ([`Admit::Parked`]), or hands the launch
    /// back when the room is full ([`Admit::Full`]). A parked launch
    /// fires from whichever thread frees the slot handed to it.
    pub(crate) fn admit(&self, priority: Priority, launch: DeferredLaunch, room: usize) -> Admit {
        let mut core = self.core();
        if core.can_fast_path() {
            core.take(self.graph);
            return Admit::Ready(launch);
        }
        match core.park(self.graph, priority.rank(), Box::new(launch), room) {
            Ok((ticket, depth)) => Admit::Parked { ticket, depth },
            Err(launch) => Admit::Full(*launch),
        }
    }

    /// Removes a parked launch by its park ticket, abandoning its query
    /// (the ticket completes inconclusive/cancelled). `false` when the
    /// launch already left the room — launched or gone.
    pub(crate) fn cancel_parked(&self, ticket: u64) -> bool {
        let launch = self.core().cancel_parked(self.graph, ticket);
        // Dropping the launch abandons it — the completion slot is
        // fulfilled inconclusive — and that must happen outside the
        // lock (completion queues run arbitrary waker callbacks).
        launch.is_some()
    }

    /// Requests currently parked in the waiting room (all graphs — the
    /// gauge the exporter reports).
    pub(crate) fn waiting(&self) -> usize {
        self.core().total_parked()
    }
}

/// Outcome of [`TenantGate::admit`].
pub(crate) enum Admit {
    /// A slot was taken; launch now.
    Ready(DeferredLaunch),
    /// Parked in the waiting room; the gate owns the launch and will fire
    /// it on hand-off. `ticket` cancels the parking; `depth` is the room's
    /// occupancy right after parking (for the `Parked` trace event).
    Parked { ticket: u64, depth: usize },
    /// Waiting room full (or disabled); the launch comes back untouched
    /// so the caller can discard it without side effects.
    Full(DeferredLaunch),
}

/// Everything a query carries from submission into its flight: the
/// serving core, the raw query, the ticket plumbing, the admission
/// permit once it holds a slot, and weak handles to the
/// pool/timer/gate (weak so a parked entry can never keep a shut-down
/// engine alive — if the upgrade fails at launch time the query is
/// abandoned instead).
pub(crate) struct DeferredInner {
    pub(crate) core: Arc<ServeCore>,
    pub(crate) query: Graph,
    pub(crate) query_id: u64,
    pub(crate) budget: RaceBudget,
    pub(crate) admitted: Instant,
    pub(crate) keyed: Option<(QueryKey, Vec<u32>)>,
    pub(crate) token: CancelToken,
    pub(crate) slot: Arc<CompletionSlot>,
    pub(crate) permit: Option<OwnedPermit>,
    pub(crate) pool: Weak<WorkerPool>,
    pub(crate) timer: Weak<StageTimer>,
    pub(crate) gate: Weak<TenantGate>,
}

/// A query's launch, deferred until admission hands it a slot and then
/// until its setup task hands the plumbing to a
/// [`crate::flight::RaceFlight`]. Created at submission, then either
/// launched immediately (capacity free), parked in the waiting room, or
/// discarded (room full → typed error).
///
/// **Drop = abandon**: a `DeferredLaunch` dropped while still armed —
/// parked entry cancelled, gate torn down with queries still parked,
/// engine shut down under it, ticket dropped before setup ran, an empty
/// entrant field, a panicking setup step — frees its admission slot and
/// fulfills its ticket inconclusive, so no waiter hangs. Only
/// [`DeferredLaunch::discard`] suppresses that (used on the rejection
/// path, where no ticket was ever handed out).
pub(crate) struct DeferredLaunch {
    pub(crate) inner: Option<DeferredInner>,
}

impl DeferredLaunch {
    pub(crate) fn new(inner: DeferredInner) -> Self {
        Self { inner: Some(inner) }
    }

    /// Takes the slot this launch was handed: counts the admission,
    /// emits `Unparked` (when it waited) + `Admitted`, and hands the
    /// still-armed launch to the pool for setup. Safe from any thread —
    /// including a pooled worker releasing its own permit.
    pub(crate) fn launch(mut self, waited: Option<Duration>) {
        let Some(d) = self.inner.as_mut() else { return };
        // Engine shut down while this query was parked: Drop abandons.
        let (Some(pool), Some(gate)) = (d.pool.upgrade(), d.gate.upgrade()) else { return };
        if let Some(waited) = waited {
            d.core.stats.park_wait.record_duration(waited);
            d.core.telemetry.emit(TraceEvent::Unparked {
                query: d.query_id,
                waited_us: waited.as_micros().min(u64::MAX as u128) as u64,
            });
        }
        // The slot was taken by the gate on this launch's behalf; the
        // permit releases it when the flight finalizes or Drop abandons.
        d.permit = Some(OwnedPermit(gate));
        d.core.stats.queries.fetch_add(1, Ordering::Relaxed);
        d.core.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        d.core.telemetry.emit(TraceEvent::Admitted { query: d.query_id });
        pool.submit(move || prepare_and_launch(self));
    }

    /// Disarms without fulfilling anything: the rejection path, where the
    /// caller returns a typed error and no ticket exists. Must **not**
    /// route through the Drop-abandon path — that would count an
    /// inconclusive query that was never admitted.
    pub(crate) fn discard(mut self) {
        self.inner = None;
    }

    /// A launch with no payload, for exercising gate scheduling policy
    /// in unit tests without standing up an engine. Launching or
    /// dropping it is a no-op.
    #[cfg(test)]
    fn disarmed() -> Self {
        Self { inner: None }
    }
}

impl Drop for DeferredLaunch {
    fn drop(&mut self) {
        let Some(d) = self.inner.take() else { return };
        // Free the admission slot before the answer lands, so a caller
        // observing completion can immediately re-submit.
        drop(d.permit);
        d.core.stats.inconclusive.fetch_add(1, Ordering::Relaxed);
        let elapsed = d.admitted.elapsed();
        d.core.stats.record_latency(elapsed);
        d.core.telemetry.emit(TraceEvent::Finalized {
            query: d.query_id,
            conclusive: false,
            cancelled: d.token.is_cancelled(),
            winner: None,
            elapsed_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
        });
        let answer = Arc::new(CachedAnswer {
            found: false,
            num_matches: 0,
            embeddings: Vec::new(),
            winner: None,
            cold_elapsed: elapsed,
        });
        d.slot.fulfill(EngineResponse {
            answer,
            path: ServePath::Race,
            elapsed,
            conclusive: false,
        });
    }
}

/// An owned admission slot, released on drop. Travels with the in-flight
/// race ([`crate::flight::RaceFlight`]) or write so the slot frees
/// exactly when it finishes — including after panics or ticket
/// cancellation.
pub(crate) struct OwnedPermit(pub(crate) Arc<TenantGate>);

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::Receiver;

    /// A thread waiter for driving `FairCore` without a thread: the
    /// receiver observes the hand-off.
    fn thread_waiter() -> (Waiter, Receiver<()>) {
        let (wake, woken) = sync_channel(1);
        (Waiter::Thread(wake), woken)
    }

    fn parked_waiter() -> Waiter {
        Waiter::Parked { since: Instant::now(), launch: Box::new(DeferredLaunch::disarmed()) }
    }

    fn tickets(winners: &[WaitEntry]) -> Vec<u64> {
        winners.iter().map(|e| e.ticket).collect()
    }

    // ---- FairCore policy (deterministic, no threads) ----

    #[test]
    fn fair_core_hands_light_graph_the_slot_before_older_heavy_waiter() {
        let mut core = FairCore::new(2);
        let (g0, g1) = (core.add_graph(), core.add_graph());
        // g0 saturates both slots, then queues another race *before*
        // g1's first ever arrives.
        core.take(g0);
        core.take(g0);
        let heavy = core.enqueue(g0, Priority::Normal.rank(), thread_waiter().0);
        let light = core.enqueue(g1, Priority::Normal.rank(), thread_waiter().0);
        // A slot frees: the light graph (0 in flight) beats the older
        // ticket of the heavy graph (1 still in flight).
        assert_eq!(tickets(&core.release(g0)), vec![light]);
        assert_eq!(tickets(&core.release(g0)), vec![heavy]);
        assert_eq!(core.in_flight, vec![1, 1]);
    }

    #[test]
    fn priority_reorders_within_a_graph_but_fairness_stays_primary() {
        let mut core = FairCore::new(2);
        let (g0, g1) = (core.add_graph(), core.add_graph());
        core.take(g0);
        core.take(g0);
        // Within g0: a later High waiter beats an earlier Low one.
        let g0_low = core.enqueue(g0, Priority::Low.rank(), thread_waiter().0);
        let g0_high = core.enqueue(g0, Priority::High.rank(), parked_waiter());
        // Across graphs: g1 (0 in flight vs g0's 1 after the release
        // below) beats g0's High waiter even at Low priority — max–min
        // fairness is primary.
        let g1_low = core.enqueue(g1, Priority::Low.rank(), thread_waiter().0);
        assert_eq!(tickets(&core.release(g0)), vec![g1_low], "fairness before priority");
        assert_eq!(tickets(&core.release(g1)), vec![g0_high], "priority within g0");
        assert_eq!(tickets(&core.release(g0)), vec![g0_low]);
    }

    #[test]
    fn late_high_priority_arrival_cannot_take_a_handed_over_slot() {
        // Regression: a High waiter that enqueues right after a Normal
        // waiter was handed the freed slot — but before that waiter's
        // thread has woken — sorts ahead of nothing that matters: the
        // slot is already the Normal waiter's, and the High waiter
        // queues for the next one.
        let mut core = FairCore::new(1);
        let g0 = core.add_graph();
        core.take(g0);
        let (waiter, woken) = thread_waiter();
        let normal = core.enqueue(g0, Priority::Normal.rank(), waiter);
        let winners = core.release(g0);
        assert_eq!(tickets(&winners), vec![normal]);
        let high = core.enqueue(g0, Priority::High.rank(), thread_waiter().0);
        assert!(!core.can_fast_path(), "the handed-over slot is taken");
        winners.into_iter().for_each(WaitEntry::hand_off);
        assert_eq!(woken.try_recv(), Ok(()), "the Normal waiter wakes holding the slot");
        assert_eq!(core.in_flight, vec![1]);
        assert_eq!(tickets(&core.release(g0)), vec![high], "High is next in line");
    }

    // ---- FairCore against a reference model ----

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const GRAPHS: usize = 3;
        const MAX: usize = 2;
        const ROOM: usize = 2;

        /// One queued waiter as the reference model sees it.
        struct Queued {
            graph: usize,
            rank: u8,
            arrival: usize,
            ticket: u64,
            parked: bool,
        }

        /// The policy in its plainest form: a freed slot goes to the
        /// waiter minimising `(in_flight[graph], rank, arrival)`.
        #[derive(Default)]
        struct Model {
            in_flight: [usize; GRAPHS],
            queue: Vec<Queued>,
            arrivals: usize,
        }

        impl Model {
            fn total(&self) -> usize {
                self.in_flight.iter().sum()
            }

            fn parked(&self, graph: usize) -> usize {
                self.queue.iter().filter(|e| e.parked && e.graph == graph).count()
            }

            fn release(&mut self, graph: usize) -> Option<u64> {
                self.in_flight[graph] -= 1;
                let at = (0..self.queue.len()).min_by_key(|&i| {
                    let e = &self.queue[i];
                    (self.in_flight[e.graph], e.rank, e.arrival)
                })?;
                let winner = self.queue.remove(at);
                self.in_flight[winner.graph] += 1;
                Some(winner.ticket)
            }
        }

        /// Releases one of `graph`'s slots in both the core and the
        /// model, checks the winner against the model's pick and hands
        /// it over.
        fn release(
            core: &mut FairCore,
            model: &mut Model,
            graph: usize,
            woken: &mut HashMap<u64, Receiver<()>>,
            handed: &mut Vec<u64>,
        ) -> Result<(), TestCaseError> {
            let winners = core.release(graph);
            prop_assert_eq!(
                tickets(&winners),
                model.release(graph).into_iter().collect::<Vec<_>>()
            );
            for winner in winners {
                let ticket = winner.ticket;
                prop_assert!(!handed.contains(&ticket), "ticket {} handed over twice", ticket);
                handed.push(ticket);
                winner.hand_off();
                if let Some(rx) = woken.remove(&ticket) {
                    prop_assert_eq!(rx.try_recv(), Ok(()));
                    prop_assert!(rx.try_recv().is_err(), "a thread waiter wakes once");
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random interleavings of thread enqueues, parked enqueues
            /// under a room bound, cancels and releases across 3 graphs
            /// and 3 priorities: every freed slot goes to the model's
            /// pick, every waiter is handed over exactly once (a thread
            /// waiter wakes exactly once), a cancelled parked waiter
            /// never, and the slot cap and room bound always hold.
            #[test]
            fn fair_core_hands_over_in_model_order(
                ops in proptest::collection::vec(
                    (0u8..4, 0..GRAPHS, 0u8..3, any::<usize>()),
                    1..64,
                ),
            ) {
                let mut core = FairCore::new(MAX);
                for _ in 0..GRAPHS {
                    core.add_graph();
                }
                let mut model = Model::default();
                // Every ticket issued, with its graph; thread waiters'
                // wake receivers; tickets handed over or cancelled.
                let mut issued: Vec<(usize, u64)> = Vec::new();
                let mut woken: HashMap<u64, Receiver<()>> = HashMap::new();
                let mut handed: Vec<u64> = Vec::new();
                let mut cancelled: Vec<u64> = Vec::new();
                for (kind, graph, rank, pick) in ops {
                    let parked = kind == 1;
                    match kind {
                        0 | 1 => {
                            let fast = model.total() < MAX && model.queue.is_empty();
                            prop_assert_eq!(core.can_fast_path(), fast);
                            let ticket = if fast {
                                core.take(graph);
                                model.in_flight[graph] += 1;
                                None
                            } else if parked {
                                // Through the gate's own room check: a
                                // full room hands the launch back.
                                let outcome = core.park(graph, rank, Box::new(DeferredLaunch::disarmed()), ROOM);
                                let room_full = model.parked(graph) >= ROOM;
                                prop_assert_eq!(outcome.is_err(), room_full);
                                match outcome {
                                    Ok((ticket, depth)) => {
                                        prop_assert_eq!(depth, model.parked(graph) + 1);
                                        Some(ticket)
                                    }
                                    Err(_) => None,
                                }
                            } else {
                                let (waiter, rx) = thread_waiter();
                                let ticket = core.enqueue(graph, rank, waiter);
                                woken.insert(ticket, rx);
                                Some(ticket)
                            };
                            if let Some(ticket) = ticket {
                                let arrival = model.arrivals;
                                model.arrivals += 1;
                                model.queue.push(Queued { graph, rank, arrival, ticket, parked });
                                issued.push((graph, ticket));
                            }
                        }
                        2 if !issued.is_empty() => {
                            let (graph, ticket) = issued[pick % issued.len()];
                            let at = model.queue.iter().position(|e| e.ticket == ticket && e.parked);
                            prop_assert_eq!(core.cancel_parked(graph, ticket).is_some(), at.is_some());
                            if let Some(at) = at {
                                model.queue.remove(at);
                                cancelled.push(ticket);
                            }
                        }
                        3 => {
                            let holders: Vec<usize> =
                                (0..GRAPHS).filter(|&g| model.in_flight[g] > 0).collect();
                            if !holders.is_empty() {
                                let graph = holders[pick % holders.len()];
                                release(&mut core, &mut model, graph, &mut woken, &mut handed)?;
                            }
                        }
                        _ => {}
                    }
                    prop_assert_eq!(&core.in_flight[..], &model.in_flight[..]);
                    prop_assert_eq!(core.in_flight_total, model.total());
                    prop_assert!(core.in_flight_total <= MAX);
                    prop_assert!(
                        model.queue.is_empty() || core.in_flight_total == MAX,
                        "a waiter queues only while every slot is taken"
                    );
                    for g in 0..GRAPHS {
                        prop_assert_eq!(core.parked(g), model.parked(g));
                        prop_assert!(core.parked(g) <= ROOM);
                    }
                }
                // Drain: every waiter still queued is handed over.
                while let Some(graph) = (0..GRAPHS).find(|&g| model.in_flight[g] > 0) {
                    release(&mut core, &mut model, graph, &mut woken, &mut handed)?;
                }
                prop_assert!(core.waiters.iter().all(|q| q.is_empty()));
                prop_assert_eq!(handed.len() + cancelled.len(), issued.len());
                prop_assert!(cancelled.iter().all(|t| !handed.contains(t)));
            }
        }
    }

    // ---- TenantGate ----

    #[test]
    fn admit_parks_up_to_the_room_then_hands_the_launch_back() {
        let gate = TenantGate::new(Arc::new(Mutex::new(FairCore::new(1))));
        // The one slot is taken and held for the whole test.
        assert!(matches!(
            gate.admit(Priority::Normal, DeferredLaunch::disarmed(), 2),
            Admit::Ready(_)
        ));
        let depths: Vec<usize> = (0..3)
            .filter_map(|_| match gate.admit(Priority::Normal, DeferredLaunch::disarmed(), 2) {
                Admit::Parked { depth, .. } => Some(depth),
                Admit::Ready(_) => panic!("the slot is held"),
                Admit::Full(_) => None,
            })
            .collect();
        assert_eq!(
            depths,
            vec![1, 2],
            "depth reports occupancy after parking; the third is refused"
        );
        assert_eq!(gate.waiting(), 2);
        let other = TenantGate::new(Arc::clone(&gate.shared));
        assert!(
            matches!(other.admit(Priority::High, DeferredLaunch::disarmed(), 0), Admit::Full(_)),
            "a room of 0 parks nothing"
        );
        assert_eq!(gate.waiting(), 2);
    }

    #[test]
    fn blocking_acquire_eventually_admits_everyone() {
        let fair = Arc::new(Mutex::new(FairCore::new(2)));
        let gates = [TenantGate::new(Arc::clone(&fair)), TenantGate::new(Arc::clone(&fair))];
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..16 {
                let (gate, admitted) = (&gates[i % 2], &admitted);
                let priority = [Priority::High, Priority::Normal, Priority::Low][i % 3];
                scope.spawn(move || {
                    gate.acquire(priority);
                    admitted.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                    gate.release();
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 16);
        let core = fair.lock().unwrap();
        assert_eq!(core.in_flight_total, 0);
        assert!(core.waiters.iter().all(|q| q.is_empty()));
    }
}
