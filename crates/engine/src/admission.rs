//! Admission: the one fair gate every tenant's races pass through, and
//! the deferred launches parked in its waiting room.
//!
//! **Fair admission.** A single counting gate bounds races in flight
//! across *all* graphs. When slots are contended the gate grants the
//! freed slot to the waiting graph with the fewest races currently in
//! flight (max–min fairness), tie-broken by priority and then arrival
//! order — so a tenant flooding the engine with traffic cannot starve a
//! light tenant, yet an uncontended engine behaves exactly like
//! per-graph FIFO.
//!
//! **The waiting room.** Waiters come in two kinds, sharing one queue
//! and one fairness policy: *thread* waiters (blocking submissions,
//! parked on a condvar until granted) and *parked* waiters (non-blocking
//! submissions over the limit, carrying a [`DeferredLaunch`] instead of
//! a thread). When scheduling picks a parked waiter it takes the slot and
//! fires the launch right there — no wakeup round-trip — while a thread
//! waiter gets the classic grant-then-accept handshake. Only thread
//! waiters ever hold the pending grant, so cancelling a parked entry
//! (its ticket was dropped) can never orphan the grant chain.

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
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// What a queued admission is waiting *as*: a blocked thread (condvar
/// handshake) or a parked non-blocking submission (deferred launch fired
/// by the scheduler itself).
enum Waiter {
    /// A blocking submission: a thread sleeps on the gate's condvar and
    /// must wake to `accept` its grant.
    Thread,
    /// A non-blocking submission over the limit: nobody is blocked; the
    /// scheduler launches the race directly when the slot frees. Boxed:
    /// a prepared launch is ~300 bytes and the common `Thread` variant
    /// carries nothing.
    Parked { since: Instant, launch: Box<DeferredLaunch> },
}

impl Waiter {
    fn is_parked(&self) -> bool {
        matches!(self, Waiter::Parked { .. })
    }
}

/// One queued admission: sort key `(rank, ticket)` plus its waiter kind.
struct WaitEntry {
    rank: u8,
    ticket: u64,
    waiter: Waiter,
}

/// The scheduling core of the fair gate. Pure state machine (no blocking)
/// so the fairness policy is unit-testable without threads.
struct FairCore {
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
    /// The one ticket currently cleared to take a slot. Grants chain:
    /// the grantee accepts, then scheduling runs again. **Invariant:**
    /// only `Waiter::Thread` entries are ever granted — parked entries
    /// are launched by `schedule` directly, so cancelling one can never
    /// leave a dangling grant.
    granted: Option<u64>,
}

impl FairCore {
    fn new() -> Self {
        Self {
            in_flight_total: 0,
            in_flight: Vec::new(),
            waiters: Vec::new(),
            next_ticket: 0,
            granted: None,
        }
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

    fn insert_entry(&mut self, graph: usize, rank: u8, waiter: Waiter) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let queue = &mut self.waiters[graph];
        let at = queue.partition_point(|e| (e.rank, e.ticket) <= (rank, ticket));
        queue.insert(at, WaitEntry { rank, ticket, waiter });
        ticket
    }

    /// Queues a blocking (thread) waiter.
    fn enqueue(&mut self, graph: usize, rank: u8) -> u64 {
        self.insert_entry(graph, rank, Waiter::Thread)
    }

    /// Parks a non-blocking submission. Returns its ticket and its
    /// 1-based position among `graph`'s parked entries (the reported
    /// waiting-room depth).
    fn enqueue_parked(&mut self, graph: usize, rank: u8, launch: DeferredLaunch) -> (u64, usize) {
        let waiter = Waiter::Parked { since: Instant::now(), launch: Box::new(launch) };
        let ticket = self.insert_entry(graph, rank, waiter);
        (ticket, self.parked(graph))
    }

    /// Parked entries queued for `graph` (the waiting-room occupancy the
    /// per-graph bound is checked against).
    fn parked(&self, graph: usize) -> usize {
        self.waiters[graph].iter().filter(|e| e.waiter.is_parked()).count()
    }

    /// Parked entries across every graph.
    fn total_parked(&self) -> usize {
        self.waiters.iter().flatten().filter(|e| e.waiter.is_parked()).count()
    }

    /// Removes a parked entry by ticket (its [`crate::QueryTicket`] was
    /// cancelled or dropped). Returns the launch so the caller can drop
    /// it *outside* the lock — abandoning fulfills the completion slot,
    /// which may run arbitrary completion-queue callbacks. Removal frees
    /// no capacity, so no reschedule is needed.
    fn cancel_parked(&mut self, graph: usize, ticket: u64) -> Option<DeferredLaunch> {
        debug_assert_ne!(self.granted, Some(ticket), "parked entries are never granted");
        let at =
            self.waiters[graph].iter().position(|e| e.ticket == ticket && e.waiter.is_parked())?;
        match self.waiters[graph].remove(at).waiter {
            Waiter::Parked { launch, .. } => Some(*launch),
            Waiter::Thread => unreachable!("position matched a parked entry"),
        }
    }

    /// Whether a submission may bypass the queue entirely: capacity free,
    /// nobody waiting, no grant pending.
    fn can_fast_path(&self, max: usize) -> bool {
        self.granted.is_none()
            && self.in_flight_total < max
            && self.waiters.iter().all(|q| q.is_empty())
    }

    /// Dispenses freed capacity: among graphs with waiters, the one with
    /// the fewest races in flight wins (max–min fairness); within the
    /// chosen load level, higher priority wins; ties go to the oldest
    /// ticket. A winning *thread* waiter becomes the pending grant (it
    /// must wake and `accept`); a winning *parked* waiter takes its slot
    /// right here and its launch is returned, paired with how long it
    /// waited — the caller fires launches **outside** the lock. The loop
    /// keeps dispensing until capacity runs out, the queues drain, or a
    /// thread grant (which must round-trip through its waiter) blocks
    /// further progress.
    fn schedule(&mut self, max: usize) -> Vec<(DeferredLaunch, Duration)> {
        let mut launches = Vec::new();
        while self.granted.is_none() && self.in_flight_total < max {
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
            match self.waiters[graph][0].waiter {
                Waiter::Thread => self.granted = Some(self.waiters[graph][0].ticket),
                Waiter::Parked { .. } => match self.waiters[graph].remove(0).waiter {
                    Waiter::Parked { since, launch } => {
                        self.take(graph);
                        launches.push((*launch, since.elapsed()));
                    }
                    Waiter::Thread => unreachable!("match guarded on Parked"),
                },
            }
        }
        launches
    }

    /// The grantee accepts its slot. The granted ticket is removed *by
    /// value*, not by position: a higher-priority waiter may have
    /// enqueued ahead of it between the grant and this accept, and a
    /// grant, once issued, is honoured (never revoked or re-routed).
    fn accept(&mut self, graph: usize, ticket: u64, max: usize) -> Vec<(DeferredLaunch, Duration)> {
        debug_assert_eq!(self.granted, Some(ticket));
        self.granted = None;
        let at = self.waiters[graph]
            .iter()
            .position(|e| e.ticket == ticket)
            .expect("granted ticket must still be queued");
        self.waiters[graph].remove(at);
        self.take(graph);
        self.schedule(max)
    }

    fn release(&mut self, graph: usize, max: usize) -> Vec<(DeferredLaunch, Duration)> {
        self.in_flight_total -= 1;
        self.in_flight[graph] -= 1;
        self.schedule(max)
    }
}

/// The shared cross-graph admission gate (see module docs).
pub(crate) struct FairAdmission {
    core: Mutex<FairCore>,
    changed: Condvar,
    max: usize,
}

impl FairAdmission {
    pub(crate) fn new(max: usize) -> Self {
        Self { core: Mutex::new(FairCore::new()), changed: Condvar::new(), max: max.max(1) }
    }

    fn add_graph(&self) -> usize {
        self.core.lock().expect("fair admission lock").add_graph()
    }

    /// Fires the launches a scheduling pass dispensed. Must run with the
    /// core lock **released**: each launch submits to the worker pool,
    /// and a cache-coalesced or instantly-failing race could re-enter
    /// this gate (release → schedule) on the same call stack.
    fn run_launches(launches: Vec<(DeferredLaunch, Duration)>) {
        for (launch, waited) in launches {
            launch.launch(Some(waited));
        }
    }

    fn acquire(&self, graph: usize, priority: Priority) {
        let launches;
        {
            let mut core = self.core.lock().expect("fair admission lock");
            if core.can_fast_path(self.max) {
                core.take(graph);
                return;
            }
            let ticket = core.enqueue(graph, priority.rank());
            // Defensive pass; enqueueing frees no capacity, so this
            // never grants or launches in any reachable state.
            let pre = core.schedule(self.max);
            debug_assert!(pre.is_empty(), "enqueue cannot create capacity");
            loop {
                if core.granted == Some(ticket) {
                    launches = core.accept(graph, ticket, self.max);
                    break;
                }
                core = self.changed.wait(core).expect("fair admission lock");
            }
        }
        Self::run_launches(launches);
        // A chained grant (or freed capacity) may concern others.
        self.changed.notify_all();
    }

    #[cfg(test)]
    fn try_acquire(&self, graph: usize) -> bool {
        let mut core = self.core.lock().expect("fair admission lock");
        if core.can_fast_path(self.max) {
            core.take(graph);
            true
        } else {
            false
        }
    }

    /// Non-blocking admission with a waiting room of `room` parked
    /// entries per graph (see [`TenantGate::admit`]).
    fn admit(
        &self,
        graph: usize,
        priority: Priority,
        launch: DeferredLaunch,
        room: usize,
    ) -> Admit {
        let verdict;
        let launches;
        {
            let mut core = self.core.lock().expect("fair admission lock");
            if core.can_fast_path(self.max) {
                core.take(graph);
                return Admit::Ready(launch);
            }
            if room == 0 || core.parked(graph) >= room {
                return Admit::Full(launch);
            }
            let (ticket, depth) = core.enqueue_parked(graph, priority.rank(), launch);
            verdict = Admit::Parked { ticket, depth };
            // Defensive pass, mirroring `acquire` (parking frees no
            // capacity either).
            launches = core.schedule(self.max);
            debug_assert!(launches.is_empty(), "parking cannot create capacity");
        }
        Self::run_launches(launches);
        verdict
    }

    /// Removes a parked entry (its ticket was cancelled or dropped).
    fn cancel_parked(&self, graph: usize, ticket: u64) -> bool {
        let launch = {
            let mut core = self.core.lock().expect("fair admission lock");
            core.cancel_parked(graph, ticket)
        };
        // Dropping the launch abandons it — the completion slot is
        // fulfilled inconclusive — and that must happen outside the
        // lock (completion queues run arbitrary waker callbacks).
        launch.is_some()
    }

    /// Requests parked in the waiting room across every graph — the
    /// gauge the stats and the exporter report.
    pub(crate) fn total_parked(&self) -> usize {
        self.core.lock().expect("fair admission lock").total_parked()
    }

    fn release(&self, graph: usize) {
        let launches = {
            let mut core = self.core.lock().expect("fair admission lock");
            core.release(graph, self.max)
        };
        Self::run_launches(launches);
        self.changed.notify_all();
    }
}

/// The shared fair gate bound to one tenant's slot: where that tenant
/// gets permission to occupy the worker pool with a race.
pub(crate) struct TenantGate {
    shared: Arc<FairAdmission>,
    pub(crate) graph: usize,
}

impl TenantGate {
    /// Registers a new graph slot with `shared` and binds to it.
    pub(crate) fn new(shared: Arc<FairAdmission>) -> Self {
        let graph = shared.add_graph();
        Self { shared, graph }
    }

    /// Blocks until a race slot is granted; among waiters, higher
    /// [`Priority`] is served first, FIFO within a priority.
    pub(crate) fn acquire(&self, priority: Priority) {
        self.shared.acquire(self.graph, priority);
    }

    /// Takes a slot if one is immediately available (and nobody with a
    /// pending grant is queued ahead) — a capacity probe for tests.
    #[cfg(test)]
    fn try_acquire(&self) -> bool {
        self.shared.try_acquire(self.graph)
    }

    /// Returns a previously acquired slot.
    pub(crate) fn release(&self) {
        self.shared.release(self.graph);
    }

    /// Non-blocking admission with parking: takes a slot immediately
    /// ([`Admit::Ready`]), parks the launch in the bounded waiting room
    /// ([`Admit::Parked`]), or hands the launch back when the room (of
    /// capacity `room`) is full ([`Admit::Full`]). A parked launch fires
    /// from whichever thread frees the slot that grants it.
    pub(crate) fn admit(&self, priority: Priority, launch: DeferredLaunch, room: usize) -> Admit {
        self.shared.admit(self.graph, priority, launch, room)
    }

    /// Removes a parked launch by its park ticket, abandoning its query
    /// (the ticket completes inconclusive/cancelled). `false` when the
    /// launch already left the room — launched or gone.
    pub(crate) fn cancel_parked(&self, ticket: u64) -> bool {
        self.shared.cancel_parked(self.graph, ticket)
    }

    /// Requests currently parked in the waiting room (all graphs — the
    /// gauge the exporter reports).
    pub(crate) fn waiting(&self) -> usize {
        self.shared.total_parked()
    }
}

/// Outcome of [`TenantGate::admit`].
pub(crate) enum Admit {
    /// A slot was taken; launch now.
    Ready(DeferredLaunch),
    /// Parked in the waiting room; the gate owns the launch and will fire
    /// it on grant. `ticket` cancels the parking; `depth` is the queue
    /// position observed at park time (for the `Parked` trace event).
    Parked { ticket: u64, depth: usize },
    /// Waiting room full (or disabled); the launch comes back untouched
    /// so the caller can discard it without side effects.
    Full(DeferredLaunch),
}

/// Everything a query carries from submission into its flight: the
/// serving core, the raw query, the ticket plumbing, the admission
/// permit once a slot is granted, and weak handles to the
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

/// A query's launch, deferred until admission grants a slot and then
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

    /// Takes the slot this launch was granted: counts the admission,
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

    // ---- FairCore policy (deterministic, no threads) ----

    #[test]
    fn fair_core_grants_light_graph_before_older_heavy_waiter() {
        let mut core = FairCore::new();
        let (g0, g1) = (core.add_graph(), core.add_graph());
        let max = 2;
        // g0 saturates both slots.
        core.take(g0);
        core.take(g0);
        // g0 queues another race *before* g1's first ever arrives.
        let t_heavy = core.enqueue(g0, Priority::Normal.rank());
        let t_light = core.enqueue(g1, Priority::Normal.rank());
        core.schedule(max);
        assert_eq!(core.granted, None, "no capacity, no grant");
        // A slot frees: the light graph (0 in flight) beats the older
        // ticket of the heavy graph (1 still in flight).
        core.release(g0, max);
        assert_eq!(core.granted, Some(t_light));
        core.accept(g1, t_light, max);
        // Next freed slot finally reaches the heavy graph's waiter.
        core.release(g0, max);
        assert_eq!(core.granted, Some(t_heavy));
        core.accept(g0, t_heavy, max);
        assert_eq!(core.in_flight, vec![1, 1]);
    }

    #[test]
    fn fair_core_ties_break_by_arrival_order() {
        let mut core = FairCore::new();
        let (g0, g1) = (core.add_graph(), core.add_graph());
        let max = 1;
        core.take(g0);
        let first = core.enqueue(g1, Priority::Normal.rank());
        let second = core.enqueue(g0, Priority::Normal.rank());
        // Slot frees; both graphs are at 0 in flight — FIFO decides.
        core.release(g0, max);
        assert_eq!(core.granted, Some(first));
        core.accept(g1, first, max);
        core.release(g1, max);
        assert_eq!(core.granted, Some(second));
    }

    #[test]
    fn fair_core_chains_grants_when_capacity_allows() {
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        let max = 2;
        core.take(g0);
        core.take(g0);
        let t1 = core.enqueue(g0, Priority::Normal.rank());
        let t2 = core.enqueue(g0, Priority::Normal.rank());
        core.release(g0, max);
        assert_eq!(core.granted, Some(t1));
        // Accepting t1 re-schedules, but capacity is full again.
        core.accept(g0, t1, max);
        assert_eq!(core.granted, None);
        // Freeing another slot chains straight to t2.
        core.release(g0, max);
        assert_eq!(core.granted, Some(t2));
    }

    #[test]
    fn fast_path_requires_empty_queue_and_capacity() {
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        assert!(core.can_fast_path(1));
        core.take(g0);
        assert!(!core.can_fast_path(1), "no capacity");
        core.enqueue(g0, Priority::Normal.rank());
        core.release(g0, 1);
        assert!(!core.can_fast_path(1), "grant pending for the waiter");
    }

    #[test]
    fn late_high_priority_arrival_cannot_displace_a_pending_grant() {
        // Regression: a High waiter that enqueues *between* a grant and
        // its accept sorts ahead of the granted ticket in the queue.
        // Accept must remove the granted ticket by value — removing the
        // queue head would evict the High waiter, re-grant a departed
        // ticket forever, and wedge the gate.
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        let max = 1;
        core.take(g0);
        let normal = core.enqueue(g0, Priority::Normal.rank());
        core.release(g0, max);
        assert_eq!(core.granted, Some(normal));
        // The grantee has not accepted yet; a High submission arrives
        // and jumps to the front of g0's queue.
        let high = core.enqueue(g0, Priority::High.rank());
        core.accept(g0, normal, max);
        assert_eq!(core.in_flight, vec![1], "the granted Normal waiter got the slot");
        // The High waiter is intact and next in line.
        core.release(g0, max);
        assert_eq!(core.granted, Some(high));
        core.accept(g0, high, max);
    }

    #[test]
    fn priority_reorders_within_a_graph_but_fairness_stays_primary() {
        let mut core = FairCore::new();
        let (g0, g1) = (core.add_graph(), core.add_graph());
        let max = 2;
        core.take(g0);
        core.take(g0);
        // Within g0: a later High waiter beats an earlier Low one.
        let g0_low = core.enqueue(g0, Priority::Low.rank());
        let g0_high = core.enqueue(g0, Priority::High.rank());
        // Across graphs: g1 (0 in flight vs g0's 1 after the release
        // below) beats g0's High waiter even at Low priority — max–min
        // fairness is primary.
        let g1_low = core.enqueue(g1, Priority::Low.rank());
        core.release(g0, max);
        assert_eq!(core.granted, Some(g1_low), "fairness before priority");
        core.accept(g1, g1_low, max);
        // Both graphs now hold 1 slot; the next freed slot goes to g0's
        // queue, reordered by priority.
        core.release(g1, max);
        assert_eq!(core.granted, Some(g0_high), "priority reorders g0's own queue");
        core.accept(g0, g0_high, max);
        core.release(g0, max);
        assert_eq!(core.granted, Some(g0_low));
    }

    // ---- Waiting-room policy (deterministic, no threads) ----

    #[test]
    fn parked_entries_launch_priority_then_fifo_as_slots_free() {
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        let max = 1;
        core.take(g0);
        let (low, _) = core.enqueue_parked(g0, Priority::Low.rank(), DeferredLaunch::disarmed());
        let (normal, _) =
            core.enqueue_parked(g0, Priority::Normal.rank(), DeferredLaunch::disarmed());
        let (high, depth) =
            core.enqueue_parked(g0, Priority::High.rank(), DeferredLaunch::disarmed());
        assert_eq!(depth, 3, "depth reports occupancy after parking");
        // Each freed slot launches exactly one parked entry, in
        // priority-then-FIFO order, without ever touching the grant.
        for expected in [high, normal, low] {
            let launched = core.release(g0, max);
            assert_eq!(launched.len(), 1);
            assert!(
                core.waiters[g0].iter().all(|e| e.ticket != expected),
                "ticket {expected} launches next"
            );
            assert_eq!(core.granted, None, "parked launches never hold the grant");
        }
        assert!(core.waiters[g0].is_empty());
        assert_eq!(core.in_flight_total, 1, "the last launch holds its slot");
    }

    #[test]
    fn thread_and_parked_waiters_share_one_queue() {
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        let max = 1;
        core.take(g0);
        let thread = core.enqueue(g0, Priority::Normal.rank());
        let (_parked, _) =
            core.enqueue_parked(g0, Priority::Normal.rank(), DeferredLaunch::disarmed());
        // The older thread waiter wins the freed slot; the parked entry
        // stays queued behind the pending grant.
        assert!(core.release(g0, max).is_empty());
        assert_eq!(core.granted, Some(thread));
        // Accepting chains the schedule, but capacity is taken again.
        assert!(core.accept(g0, thread, max).is_empty());
        // The next freed slot reaches the parked entry directly.
        assert_eq!(core.release(g0, max).len(), 1);
        assert_eq!(core.granted, None);
        assert_eq!(core.parked(g0), 0);
    }

    #[test]
    fn cancelling_a_parked_entry_frees_room_without_touching_the_grant() {
        let mut core = FairCore::new();
        let g0 = core.add_graph();
        let max = 1;
        core.take(g0);
        let (first, _) =
            core.enqueue_parked(g0, Priority::Normal.rank(), DeferredLaunch::disarmed());
        let (second, _) =
            core.enqueue_parked(g0, Priority::Normal.rank(), DeferredLaunch::disarmed());
        assert_eq!(core.parked(g0), 2);
        assert!(core.cancel_parked(g0, first).is_some());
        assert!(core.cancel_parked(g0, first).is_none(), "second cancel is a no-op");
        assert_eq!(core.parked(g0), 1);
        let launched = core.release(g0, max);
        assert_eq!(launched.len(), 1);
        assert!(core.waiters[g0].is_empty(), "the surviving entry ({second}) launched");
        assert_eq!(core.granted, None);
    }

    mod waiting_room_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Releasing slots one at a time drains parked entries in
            /// priority-then-FIFO order, whatever the arrival order.
            #[test]
            fn parked_admission_is_priority_then_fifo(
                ranks in proptest::collection::vec(0u8..3, 1..24),
            ) {
                let mut core = FairCore::new();
                let g0 = core.add_graph();
                let max = 1;
                core.take(g0);
                let mut expected: Vec<(u8, u64)> = Vec::new();
                for &rank in &ranks {
                    let (ticket, _) =
                        core.enqueue_parked(g0, rank, DeferredLaunch::disarmed());
                    expected.push((rank, ticket));
                }
                expected.sort();
                for &(_, ticket) in &expected {
                    let launched = core.release(g0, max);
                    prop_assert_eq!(launched.len(), 1);
                    prop_assert!(
                        core.waiters[g0].iter().all(|e| e.ticket != ticket),
                        "ticket {} launches next", ticket
                    );
                    prop_assert_eq!(core.granted, None);
                }
                prop_assert!(core.waiters[g0].is_empty());
            }

            /// Cancelling any subset of parked entries (their tickets
            /// were dropped) leaves the survivors draining normally and
            /// never wedges the grant chain: a blocking waiter enqueued
            /// afterwards is still granted exactly once, and the grant
            /// never names a parked ticket.
            #[test]
            fn cancelled_parked_entries_never_poison_the_grant_chain(
                ranks in proptest::collection::vec(0u8..3, 2..16),
                cancel_mask in proptest::collection::vec(any::<bool>(), 16),
            ) {
                let mut core = FairCore::new();
                let g0 = core.add_graph();
                let max = 1;
                core.take(g0);
                let mut entries = Vec::new();
                for &rank in &ranks {
                    let (ticket, _) =
                        core.enqueue_parked(g0, rank, DeferredLaunch::disarmed());
                    entries.push(ticket);
                }
                let mut survivors = entries.len();
                for (i, &ticket) in entries.iter().enumerate() {
                    if cancel_mask[i % cancel_mask.len()] {
                        prop_assert!(core.cancel_parked(g0, ticket).is_some());
                        survivors -= 1;
                    }
                }
                let thread = core.enqueue(g0, Priority::Normal.rank());
                let mut launched_total = 0;
                let mut thread_admitted = false;
                while !core.waiters[g0].is_empty() {
                    launched_total += core.release(g0, max).len();
                    if core.granted == Some(thread) {
                        prop_assert!(!thread_admitted, "granted at most once");
                        thread_admitted = true;
                        launched_total += core.accept(g0, thread, max).len();
                    }
                    prop_assert!(
                        core.granted.is_none() || core.granted == Some(thread),
                        "the grant may only ever name the thread waiter"
                    );
                }
                prop_assert!(thread_admitted);
                prop_assert_eq!(launched_total, survivors);
                prop_assert_eq!(core.granted, None);
            }
        }
    }

    // ---- FairAdmission under real threads ----

    #[test]
    fn blocking_acquire_eventually_admits_everyone() {
        let fair = Arc::new(FairAdmission::new(2));
        let g0 = fair.add_graph();
        let g1 = fair.add_graph();
        let admitted = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for i in 0..16 {
                let fair = Arc::clone(&fair);
                let admitted = Arc::clone(&admitted);
                let graph = if i % 2 == 0 { g0 } else { g1 };
                scope.spawn(move || {
                    fair.acquire(graph, Priority::Normal);
                    admitted.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                    fair.release(graph);
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 16);
        let core = fair.core.lock().unwrap();
        assert_eq!(core.in_flight_total, 0);
        assert!(core.waiters.iter().all(|q| q.is_empty()));
        assert_eq!(core.granted, None);
    }

    #[test]
    fn try_acquire_respects_capacity_and_queue() {
        let fair = FairAdmission::new(1);
        let g0 = fair.add_graph();
        let g1 = fair.add_graph();
        assert!(fair.try_acquire(g0));
        assert!(!fair.try_acquire(g1), "at capacity");
        fair.release(g0);
        assert!(fair.try_acquire(g1));
        fair.release(g1);
    }

    // ---- One tenant's gate: priority-then-FIFO under contention ----

    #[test]
    fn tenant_gate_admits_every_priority_under_contention() {
        let gate = TenantGate::new(Arc::new(FairAdmission::new(2)));
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..16 {
                let (gate, admitted) = (&gate, &admitted);
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
        // The gate must be fully drained: capacity available again.
        assert!(gate.try_acquire());
        gate.release();
    }
}
