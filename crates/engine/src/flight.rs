//! In-flight races as reactive state machines.
//!
//! The blocking engine drove every race from its caller's thread: submit
//! the entrant tasks, then sit in a collection loop managing staged
//! escalation until the last entrant reported. A non-blocking frontend
//! cannot afford that thread — thousands of tickets may be in flight at
//! once — so this module turns the collection loop inside out:
//!
//! * every cache miss becomes one [`RaceFlight`], which holds everything
//!   its race needs to finish (result slots, the escalation reserve, the
//!   completion slot, the admission permit);
//! * the flight's plan is decided in one place, [`prepare_and_launch`]:
//!   a confident predictor's leader runs alone as a *fast heat*, inline
//!   on the setup worker, with the rest of the field in reserve;
//!   otherwise the scheduler's staged heat or the full field launches;
//! * every entrant task reports *into* the flight when it finishes; the
//!   report that completes the field finalizes the race — predictor
//!   feedback, cache store, stats, ticket fulfillment — right there on
//!   the pooled worker;
//! * a heat that drains inconclusive escalates its reserve immediately
//!   from the reporting task itself, and every heat with a reserve also
//!   registers a stage deadline with the engine's one [`StageTimer`]
//!   thread, which fires undecided heats' reserves: a staged heat's at
//!   the right fraction of the race budget, a fast heat's one
//!   [`UNTIMED_STAGE_WINDOW`] after its leader starts, so a stuck leader
//!   cannot hold the race until the budget runs out. A decided or
//!   cancelled race prunes its reserve instead.
//!
//! No thread belongs to any one query: N in-flight races cost N
//! allocations, not N threads. Until the flight exists the query's
//! [`DeferredLaunch`] abandons it on drop; after, entrant panics are
//! absorbed by a report guard (the panicking entrant reports a cancelled
//! placeholder), so a query can never leak its admission slot or leave
//! its ticket unfulfilled.
//!
//! Shutdown safety: flights reference the worker pool and stage timer
//! *weakly*. Tasks hold only the pool-free [`ServeCore`], so whichever
//! thread drops the last reference never joins a worker from inside a
//! worker.

use crate::admission::{DeferredInner, DeferredLaunch, OwnedPermit};
use crate::cache::{CachedAnswer, QueryKey};
use crate::engine::{EngineResponse, RaceStrategy, ServeCore, ServePath, Unranked};
use crate::pool::WorkerPool;
use crate::scheduler::{plan_race, RacePlan, SchedulerInputs};
use crate::submit::CompletionSlot;
use crate::telemetry::{EntrantTiming, SlowQuery, TraceEvent, TraceSink};
use psi_core::predictor::QueryFeatures;
use psi_core::{PreparedEntrant, RaceBudget, RaceObserver, RaceState, Variant, VariantResult};
use psi_matchers::{MatchResult, SliceCoordinator, SliceTaskSummary, StopReason};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Notional race window used to place the stage deadline when the race
/// budget has no wall-clock timeout, and a fast heat's deadline under any
/// budget. Conclusive heats on typical serving queries finish far inside
/// this; only genuinely stuck heats escalate.
const UNTIMED_STAGE_WINDOW: Duration = Duration::from_millis(25);

/// How late the stage timer may run a check: it sleeps until the earliest
/// deadline plus this slack, so deadlines that fall within it of one
/// another share one wake. Every fast heat registers a deadline, and
/// nearly all of them finish long before it, so without the slack the
/// timer would wake once per fast heat.
const TIMER_SLACK: Duration = Duration::from_millis(2);

/// Every Nth staged race runs the full field instead — an exploration
/// probe. An uncontested heat win is self-fulfilling evidence (the
/// pruned entrants never get to disprove the ranking), so only probes
/// and escalated races feed the predictor; the cadence bounds how long
/// workload drift can hide behind a stale ranking.
const EXPLORATION_PERIOD: u64 = 16;

/// The pooled setup task of an admitted cache miss: prepares the entrant
/// field, consults the predictor once, plans the flight and launches its
/// first heat. `launch` stays armed until the flight takes over its
/// plumbing, so a ticket dropped before setup ran, an empty entrant
/// field, an engine shut down under the query or a panicking setup step
/// all abandon through its drop.
pub(crate) fn prepare_and_launch(mut launch: DeferredLaunch) {
    let setup_started = Instant::now();
    let d = launch.inner.as_ref().expect("launch armed");
    if d.token.is_cancelled() {
        return;
    }
    let queue_wait = setup_started.duration_since(d.admitted);
    d.core.stats.queue_wait.record_duration(queue_wait);
    d.core.telemetry.emit(TraceEvent::SetupStarted {
        query: d.query_id,
        queue_us: queue_wait.as_micros().min(u64::MAX as u128) as u64,
    });
    let entrants = d.core.runner.prepare_entrants(&d.query);
    let n = entrants.len();
    let Some(pool) = d.pool.upgrade().filter(|_| n > 0) else { return };
    let features = QueryFeatures::extract(&d.query, d.core.runner.label_stats());
    let consulted = d.core.consult_predictor(&features, n);
    let untrained = consulted == Err(Unranked::Untrained);
    let ranking = consulted.ok();
    let ranked = ranking.is_some();
    let core = &d.core;

    // The one plan decision. A confident prediction is a fast heat: the
    // leader alone, the rest in reserve until the leader drains
    // inconclusive or outlives one stage window. Otherwise
    // Adaptive stages only when the predictor was consultable (trained
    // past its observation floor); every EXPLORATION_PERIODth would-be
    // staged race runs the full field instead, so contested evidence
    // keeps flowing and a drifted ranking cannot entrench itself behind
    // uncontested heat wins. A full race launches best-ranked first
    // when there is a ranking: with more entrants than idle workers, the
    // launch order decides which entrants run first.
    let confidence = core.config.predictor_confidence;
    let (plan, fast, escalate_after) = match (ranking, core.config.race_strategy) {
        (Some((order, share)), _) if confidence <= 1.0 && share >= confidence => {
            (RacePlan { order, heat: 1, slices: 1 }, true, 0.0)
        }
        (ranking, RaceStrategy::Adaptive { max_slices, escalate_after }) => {
            let exploration = ranking.is_some()
                && (core.staged_seq.fetch_add(1, Ordering::Relaxed) + 1)
                    .is_multiple_of(EXPLORATION_PERIOD);
            let staged_so_far = core.stats.topk_races.load(Ordering::Relaxed);
            let escalations = core.stats.escalations.load(Ordering::Relaxed);
            let plan = plan_race(SchedulerInputs {
                entrants: n,
                ranking: ranking.filter(|_| !exploration),
                escalation_rate: if staged_so_far == 0 {
                    0.0
                } else {
                    escalations as f64 / staged_so_far as f64
                },
                idle_workers: pool.idle(),
                max_slices,
                query_nodes: d.query.node_count(),
                slice_min_query_nodes: core.config.slice_min_query_nodes,
            });
            (plan, false, escalate_after)
        }
        (ranking, RaceStrategy::Full) => {
            let order = ranking.map_or_else(|| (0..n).collect(), |(order, _)| order);
            (RacePlan { order, heat: n, slices: 1 }, false, 0.0)
        }
    };
    // Why a miss with a predictor to ask races instead of running a fast
    // heat.
    if !fast && (untrained || ranked) {
        let cause =
            if untrained { &core.stats.races_untrained } else { &core.stats.races_unconfident };
        cause.fetch_add(1, Ordering::Relaxed);
    }
    let RacePlan { order, heat: k, slices } = plan;
    let staged = k < n && !fast;
    if staged {
        core.stats.topk_races.fetch_add(1, Ordering::Relaxed);
    }
    if slices > 1 {
        core.stats.sliced_races.fetch_add(1, Ordering::Relaxed);
    }

    let DeferredInner {
        core, query_id, budget, admitted, keyed, token, slot, permit, timer, ..
    } = launch.inner.take().expect("launch armed");
    let variants: Vec<Variant> = entrants.iter().map(|e| e.variant).collect();
    let mut slots: Vec<Option<PreparedEntrant>> = entrants.into_iter().map(Some).collect();
    let mut field =
        order.iter().map(|&i| (i, slots[i].take().expect("each entrant launches once")));
    let heat: Vec<(usize, PreparedEntrant)> = field.by_ref().take(k).collect();
    // The reserve is held back un-launched; pruning it is free (entrants
    // never occupy workers), escalating it is one submit per entrant.
    let reserve: Vec<(usize, PreparedEntrant)> = field.collect();
    core.telemetry.emit(TraceEvent::HeatLaunched {
        query: query_id,
        launched: k as u32,
        reserved: (n - k) as u32,
    });
    // Per-entrant start/claim events flow through the race layer's stage
    // hook; skipped entirely when tracing is off.
    let mut state = RaceState::with_token(admitted, token);
    if let Some(trace) = &core.telemetry.trace {
        state =
            state.observe(Arc::new(FlightObserver { trace: Arc::clone(trace), query: query_id }));
    }
    let flight = Arc::new(RaceFlight {
        core,
        pool: Arc::downgrade(&pool),
        state,
        budget,
        admitted,
        query_id,
        setup_started,
        keyed,
        features,
        variants,
        fast,
        escalate_after,
        slot,
        inner: Mutex::new(FlightInner {
            results: (0..n).map(|_| None).collect(),
            pruned: vec![false; n],
            reported: 0,
            launched: k,
            reserve,
            finished: false,
            permit,
        }),
    });
    if let Some(timer) = timer.upgrade().filter(|_| staged || fast) {
        // A staged heat with a timed budget anchors its stage deadline at
        // admission — entrant deadlines are admission-anchored, so
        // escalating any later than the race deadline would be useless.
        // Every other heat anchors at the instant it begins executing
        // (see `RaceFlight::current_stage_deadline`); the first check
        // fires one window out and re-arms as needed. The fast heat
        // registers before its leader runs inline below.
        let first = match flight.budget.timeout {
            Some(_) if staged => {
                flight.budget.stage_deadline(admitted, escalate_after, UNTIMED_STAGE_WINDOW)
            }
            _ => Instant::now() + UNTIMED_STAGE_WINDOW,
        };
        timer.register(first, Arc::downgrade(&flight));
    }
    if fast {
        // Inline: we are already on a worker, so the fast heat adds no
        // pool hop. The strong pool handle goes first — the heat may
        // outlive the engine.
        drop(pool);
        for (idx, entrant) in heat {
            entrant_task(Arc::clone(&flight), idx, entrant)();
        }
        return;
    }
    // The first heat launches immediately, best-ranked first. Heat
    // entrants granted slices split their root-candidate space across
    // cooperating tasks; escalated reserves (launched later, into a pool
    // that just proved itself busy) run single-slice.
    for (idx, entrant) in heat {
        if slices > 1 {
            submit_sliced(&flight, &pool, idx, entrant, slices);
        } else {
            pool.submit(entrant_task(Arc::clone(&flight), idx, entrant));
        }
    }
}

/// The [`RaceObserver`] a traced flight attaches to its race state:
/// forwards entrant-start and win-claim milestones into the trace ring
/// from the entrant's own worker thread.
struct FlightObserver {
    trace: Arc<TraceSink>,
    query: u64,
}

impl RaceObserver for FlightObserver {
    fn entrant_started(&self, idx: usize, _since_start: Duration) {
        self.trace.emit(TraceEvent::EntrantStarted { query: self.query, entrant: idx as u32 });
    }

    fn race_claimed(&self, idx: usize, wall: Duration) {
        self.trace.emit(TraceEvent::WinClaimed {
            query: self.query,
            entrant: idx as u32,
            wall_us: wall.as_micros().min(u64::MAX as u128) as u64,
        });
    }
}

/// One in-flight race: shared by its entrant tasks (strongly) and the
/// stage timer (weakly). The last entrant to report finalizes.
pub(crate) struct RaceFlight {
    core: Arc<ServeCore>,
    pool: Weak<WorkerPool>,
    state: RaceState,
    budget: RaceBudget,
    admitted: Instant,
    query_id: u64,
    setup_started: Instant,
    keyed: Option<(QueryKey, Vec<u32>)>,
    features: QueryFeatures,
    variants: Vec<Variant>,
    /// The plan was a fast heat: the predictor's leader alone, the rest
    /// of the field in reserve until the leader drains inconclusive or
    /// is still running one stage window after it started.
    fast: bool,
    escalate_after: f64,
    slot: Arc<CompletionSlot>,
    inner: Mutex<FlightInner>,
}

struct FlightInner {
    results: Vec<Option<VariantResult<Variant>>>,
    pruned: Vec<bool>,
    reported: usize,
    launched: usize,
    reserve: Vec<(usize, PreparedEntrant)>,
    finished: bool,
    permit: Option<OwnedPermit>,
}

/// What a report (or timer check) decided to do, computed under the
/// flight lock and executed after releasing it.
enum FlightAction {
    Nothing,
    Escalate(Vec<(usize, PreparedEntrant)>),
    Finalize,
}

/// Packages one entrant as a pool task that always reports back into the
/// flight — on normal completion with its real result, on a panic (the
/// pool contains it) with a cancelled placeholder via the drop guard, so
/// the flight always finalizes and the ticket is always fulfilled.
fn entrant_task(
    flight: Arc<RaceFlight>,
    idx: usize,
    entrant: PreparedEntrant,
) -> impl FnOnce() + Send + 'static {
    move || {
        let variant = entrant.variant;
        let mut guard = ReportGuard(Some((Arc::clone(&flight), idx, variant)));
        let (result, wall) = flight.state.run_entrant(idx, &flight.budget, |b| entrant.execute(b));
        if let Some((flight, idx, variant)) = guard.0.take() {
            flight.on_report(idx, VariantResult { label: variant, result, wall });
        }
    }
}

struct ReportGuard(Option<(Arc<RaceFlight>, usize, Variant)>);

impl Drop for ReportGuard {
    fn drop(&mut self) {
        if let Some((flight, idx, variant)) = self.0.take() {
            let wall = flight.admitted.elapsed();
            flight.on_report(
                idx,
                VariantResult {
                    label: variant,
                    result: MatchResult::empty(StopReason::Cancelled),
                    wall,
                },
            );
        }
    }
}

/// One sliced heat entrant in flight: the prepared entrant shared by its
/// slice tasks plus the [`SliceCoordinator`] they claim root-candidate
/// chunks from.
struct SliceGroup {
    flight: Arc<RaceFlight>,
    idx: usize,
    entrant: PreparedEntrant,
    coord: SliceCoordinator,
    /// Whether some slice already recorded the entrant-start milestone.
    started: AtomicBool,
}

/// Launches one heat entrant as `slices` cooperating slice tasks over a
/// shared coordinator. The first task to reach a worker records the
/// entrant's start milestone; the last to finish merges the group,
/// translates embeddings back to original-query numbering, claims the
/// race if conclusive, and reports into the flight — so to the flight a
/// sliced entrant is indistinguishable from an ordinary one.
fn submit_sliced(
    flight: &Arc<RaceFlight>,
    pool: &Arc<WorkerPool>,
    idx: usize,
    entrant: PreparedEntrant,
    slices: usize,
) {
    // The coordinator's per-chunk budget mirrors the race-wired entrant
    // budget (same cap and admission-anchored deadline); its group token
    // is linked under the race token, so a sibling entrant's win stops
    // every slice while the group cancelling itself (cap reached in the
    // committed prefix) never touches the race.
    let outer = flight.budget.entrant_budget(flight.state.token().clone(), flight.admitted);
    let group = Arc::new(SliceGroup {
        flight: Arc::clone(flight),
        idx,
        entrant,
        coord: SliceCoordinator::new(&outer, slices),
        started: AtomicBool::new(false),
    });
    flight.core.stats.slices_spawned.fetch_add(slices as u64, Ordering::Relaxed);
    for slice in 0..slices as u32 {
        flight.core.telemetry.emit(TraceEvent::SliceSpawned {
            query: flight.query_id,
            entrant: idx as u32,
            slice,
        });
        let group = Arc::clone(&group);
        pool.submit(move || run_slice(&group, slice));
    }
}

/// One slice task's body. The guard mirrors [`ReportGuard`]: even a
/// panicking slice marks itself finished, so the group always concludes,
/// the flight always finalizes, and the admission permit can never leak.
/// A panicked slice's claimed-but-uncommitted range surfaces as a merge
/// gap — the entrant reports inconclusive, never wrong.
fn run_slice(group: &Arc<SliceGroup>, slice: u32) {
    struct SliceGuard {
        group: Arc<SliceGroup>,
        slice: u32,
        started: Instant,
        summary: SliceTaskSummary,
    }

    impl Drop for SliceGuard {
        fn drop(&mut self) {
            let group = &self.group;
            let flight = &group.flight;
            flight.core.telemetry.emit(TraceEvent::SliceFinished {
                query: flight.query_id,
                entrant: group.idx as u32,
                slice: self.slice,
                chunks: self.summary.chunks,
                wall_us: self.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            });
            if let Some(mut result) = group.coord.finish_task() {
                flight.core.stats.slice_steals.fetch_add(group.coord.steals(), Ordering::Relaxed);
                group.entrant.translate(&mut result);
                let wall = flight.state.complete_entrant(group.idx, &result);
                flight.on_report(
                    group.idx,
                    VariantResult { label: group.entrant.variant, result, wall },
                );
            }
        }
    }

    let mut guard = SliceGuard {
        group: Arc::clone(group),
        slice,
        started: Instant::now(),
        summary: SliceTaskSummary::default(),
    };
    // The entrant-start milestone fires once, on whichever slice reaches
    // a worker first. Only the milestone matters: the returned budget is
    // a copy of what the coordinator already carries.
    if !group.started.swap(true, Ordering::AcqRel) {
        let _ = group.flight.state.start_entrant(group.idx, &group.flight.budget);
    }
    guard.summary = group.entrant.run_slice_task(&group.coord);
}

impl RaceFlight {
    /// The stage deadline as of now. A fast heat's is one
    /// [`UNTIMED_STAGE_WINDOW`] after its leader started, whatever the
    /// budget: a leader still running then is a straggler, and its
    /// reserve launches. A staged heat's is admission-anchored for timed
    /// budgets and anchored at the heat's first actual execution for
    /// untimed ones (`None` while the heat is still queued), so pool
    /// queueing delay on a saturated pool cannot trigger spurious
    /// escalations before the heat has even run.
    fn current_stage_deadline(&self) -> Option<Instant> {
        let begun = self.state.first_entrant_started();
        if self.fast {
            return begun.map(|begun| begun + UNTIMED_STAGE_WINDOW);
        }
        match self.budget.timeout {
            Some(_) => Some(self.budget.stage_deadline(
                self.admitted,
                self.escalate_after,
                UNTIMED_STAGE_WINDOW,
            )),
            None => begun.map(|begun| {
                self.budget.stage_deadline(begun, self.escalate_after, UNTIMED_STAGE_WINDOW)
            }),
        }
    }

    /// One entrant's result arrives. Prunes or escalates the reserve as
    /// the race's state dictates, and finalizes once the whole launched
    /// field has reported.
    fn on_report(self: &Arc<Self>, idx: usize, vr: VariantResult<Variant>) {
        self.core.telemetry.emit(TraceEvent::EntrantFinished {
            query: self.query_id,
            entrant: idx as u32,
            stop: vr.result.stop,
            wall_us: vr.wall.as_micros().min(u64::MAX as u128) as u64,
        });
        let action = {
            let mut inner = self.inner.lock().expect("race flight lock");
            if inner.results[idx].is_none() {
                inner.results[idx] = Some(vr);
                inner.reported += 1;
            }
            let mut action = FlightAction::Nothing;
            if !inner.reserve.is_empty()
                && !self.prune_if_settled(&mut inner)
                && inner.reported >= inner.launched
            {
                // The heat drained inconclusive: escalate now rather than
                // waiting out the stage deadline.
                let cause = &self.core.stats.fallbacks_inconclusive;
                action = FlightAction::Escalate(self.take_reserve(&mut inner, cause));
            }
            if matches!(action, FlightAction::Nothing) && Self::ready_to_finalize(&mut inner) {
                action = FlightAction::Finalize;
            }
            action
        };
        self.perform(action);
    }

    /// Prunes the reserve of a race that no longer needs it — decided by
    /// the heat, or cancelled because its ticket was dropped — so the
    /// reserve never occupies a worker. Returns whether it pruned.
    fn prune_if_settled(&self, inner: &mut FlightInner) -> bool {
        let settled = self.state.is_decided() || self.state.token().is_cancelled();
        if settled {
            let reserve = std::mem::take(&mut inner.reserve);
            self.prune(inner, reserve);
        }
        settled
    }

    fn prune(&self, inner: &mut FlightInner, entries: Vec<(usize, PreparedEntrant)>) {
        self.core
            .telemetry
            .emit(TraceEvent::ReservePruned { query: self.query_id, count: entries.len() as u32 });
        for (idx, _) in entries {
            inner.pruned[idx] = true;
        }
    }

    /// Moves the reserve out for launching; the caller escalates outside
    /// the lock. A fast heat counts the escalation under `cause`.
    fn take_reserve(
        &self,
        inner: &mut FlightInner,
        cause: &AtomicU64,
    ) -> Vec<(usize, PreparedEntrant)> {
        if self.fast {
            cause.fetch_add(1, Ordering::Relaxed);
        }
        let reserve = std::mem::take(&mut inner.reserve);
        inner.launched += reserve.len();
        reserve
    }

    /// Whether every launched entrant has reported with nothing left to
    /// launch; flips `finished` so finalization runs exactly once.
    fn ready_to_finalize(inner: &mut FlightInner) -> bool {
        if inner.reserve.is_empty() && inner.reported >= inner.launched && !inner.finished {
            inner.finished = true;
            return true;
        }
        false
    }

    fn perform(self: &Arc<Self>, action: FlightAction) {
        match action {
            FlightAction::Nothing => {}
            FlightAction::Escalate(entries) => self.submit_escalation(entries),
            FlightAction::Finalize => self.finalize(),
        }
    }

    /// Launches the escalation reserve under the same race state — a
    /// late full-field winner still cancels everyone, and every deadline
    /// stays anchored at admission.
    fn submit_escalation(self: &Arc<Self>, entries: Vec<(usize, PreparedEntrant)>) {
        match self.pool.upgrade() {
            Some(pool) => {
                // The escalation rate is a share of staged races
                // (`topk_races`), which fast heats are not.
                if !self.fast {
                    self.core.stats.escalations.fetch_add(1, Ordering::Relaxed);
                }
                self.core.telemetry.emit(TraceEvent::Escalated {
                    query: self.query_id,
                    launched: entries.len() as u32,
                });
                for (idx, entrant) in entries {
                    pool.submit(entrant_task(Arc::clone(self), idx, entrant));
                }
            }
            None => {
                // Engine shut down: the reserve can never launch. Treat
                // it as pruned so the flight still finalizes.
                let finalize = {
                    let mut inner = self.inner.lock().expect("race flight lock");
                    inner.launched -= entries.len();
                    self.prune(&mut inner, entries);
                    Self::ready_to_finalize(&mut inner)
                };
                if finalize {
                    self.finalize();
                }
            }
        }
    }

    /// Timer callback: escalate an undecided heat whose stage deadline
    /// has passed. Returns `Some(at)` to be re-checked at `at`, `None`
    /// when the flight needs no further timing.
    pub(crate) fn stage_check(self: &Arc<Self>, now: Instant) -> Option<Instant> {
        let (action, rearm) = {
            let mut inner = self.inner.lock().expect("race flight lock");
            if inner.finished || inner.reserve.is_empty() {
                (FlightAction::Nothing, None)
            } else if self.prune_if_settled(&mut inner) {
                let action = if Self::ready_to_finalize(&mut inner) {
                    FlightAction::Finalize
                } else {
                    FlightAction::Nothing
                };
                (action, None)
            } else {
                match self.current_stage_deadline() {
                    // Heat still queued: check again once it could have
                    // started; no escalation can fire before then.
                    None => (FlightAction::Nothing, Some(now + UNTIMED_STAGE_WINDOW)),
                    Some(deadline) if now < deadline => (FlightAction::Nothing, Some(deadline)),
                    Some(_) => {
                        let cause = &self.core.stats.fallbacks_deadline;
                        (FlightAction::Escalate(self.take_reserve(&mut inner, cause)), None)
                    }
                }
            }
        };
        self.perform(action);
        rearm
    }

    /// Assembles the outcome, feeds the predictor, stores a conclusive
    /// answer in the cache, updates stats, releases the admission slot
    /// and fulfills the ticket. Runs exactly once, on whichever pooled
    /// worker (or timer tick) completed the field.
    fn finalize(self: &Arc<Self>) {
        let finalize_started = Instant::now();
        self.core
            .stats
            .race_stage
            .record_duration(finalize_started.duration_since(self.setup_started));
        let (results, pruned, permit) = {
            let mut inner = self.inner.lock().expect("race flight lock");
            (
                std::mem::take(&mut inner.results),
                std::mem::take(&mut inner.pruned),
                inner.permit.take(),
            )
        };
        let n = self.variants.len();
        // A slot can only stay empty if its task panicked (reported as a
        // cancelled placeholder by the guard — defensive here) or never
        // launched (pruned); neither poisons the whole race.
        let per_variant: Vec<VariantResult<Variant>> = results
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.unwrap_or_else(|| VariantResult {
                    label: self.variants[idx],
                    result: MatchResult::empty(StopReason::Cancelled),
                    wall: self.admitted.elapsed(),
                })
            })
            .collect();
        let pruned_count = pruned.iter().filter(|&&p| p).count();
        // Edge-probe accounting: every launched entrant counted its
        // index probes locally; fold them into the engine totals here,
        // two atomic adds per entrant instead of one per probe.
        for vr in &per_variant {
            self.core.stats.record_probes(&vr.result.stats);
        }
        // Pruned entrants carry the Cancelled placeholder but never ran —
        // count them separately from the Ψ "kill" count.
        let cancelled = per_variant
            .iter()
            .enumerate()
            .filter(|&(idx, vr)| !pruned[idx] && vr.result.stop == StopReason::Cancelled)
            .count();
        let mut outcome = self.state.finish(per_variant);
        let stats = &self.core.stats;
        let elapsed = self.admitted.elapsed();
        let conclusive = outcome.is_conclusive();
        // A fast heat whose reserve never launched is served as a fast
        // path, not counted as a race; one that escalated (or could not
        // conclude) fell back.
        let heat_only = self.fast && pruned_count + 1 == n;
        let path = if heat_only && conclusive { ServePath::FastPath } else { ServePath::Race };
        if self.fast {
            let counter = match path {
                ServePath::FastPath => &stats.fast_paths,
                _ => &stats.fast_path_fallbacks,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if !heat_only {
            stats.races.fetch_add(1, Ordering::Relaxed);
            stats.cancelled_variants.fetch_add(cancelled as u64, Ordering::Relaxed);
            stats.pruned_entrants.fetch_add(pruned_count as u64, Ordering::Relaxed);
        }
        // An uncontested win (no other entrant launched) proves nothing
        // about the rest of the field — feeding it back would make the
        // ranking self-fulfilling. Only contested races train the
        // predictor; the exploration probes guarantee a steady supply.
        let contested = n - pruned_count > 1;
        if contested {
            let mut wal_records: Vec<psi_store::WalRecord> = Vec::new();
            {
                let mut predictor = self.core.predictor.lock().expect("predictor lock");
                if let Some(winner_idx) = outcome.winner_index {
                    predictor.observe(self.features, winner_idx);
                    wal_records.push(psi_store::WalRecord::Sample {
                        features: self.features,
                        winner: winner_idx as u32,
                    });
                }
                for (idx, vr) in outcome.per_variant.iter().enumerate() {
                    if pruned[idx] || outcome.winner_index == Some(idx) {
                        continue;
                    }
                    match vr.result.stop {
                        StopReason::TimedOut => {
                            predictor.record_timeout(idx);
                            wal_records.push(psi_store::WalRecord::Timeout { idx: idx as u32 });
                        }
                        _ if outcome.winner_index.is_some() => {
                            predictor.record_loss(idx);
                            wal_records.push(psi_store::WalRecord::Loss { idx: idx as u32 });
                        }
                        _ => {}
                    }
                }
            }
            // File I/O happens after the predictor lock is released so a
            // slow disk never serializes other finalizing races.
            self.core.wal_append(&wal_records);
        }
        if outcome.winner_index.is_none() {
            stats.inconclusive.fetch_add(1, Ordering::Relaxed);
        }
        let winner = outcome.winner().map(|w| w.label);
        let (num_matches, embeddings) = match outcome.winner_index {
            Some(idx) => {
                let result = &mut outcome.per_variant[idx].result;
                (result.num_matches, std::mem::take(&mut result.embeddings))
            }
            None => (0, Vec::new()),
        };
        let answer = Arc::new(CachedAnswer {
            found: num_matches > 0,
            num_matches,
            embeddings,
            winner,
            cold_elapsed: elapsed,
        });
        // Only definitive answers are cacheable: a timed-out race might
        // succeed on retry with a fresh budget.
        if conclusive {
            self.core.cache_store(self.keyed.as_ref(), &answer);
        }
        stats.record_latency(elapsed);
        let elapsed_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let entrants: Vec<EntrantTiming> = outcome
            .per_variant
            .iter()
            .enumerate()
            .map(|(idx, vr)| EntrantTiming {
                variant: vr.label,
                stop: vr.result.stop,
                wall_us: vr.wall.as_micros().min(u64::MAX as u128) as u64,
                pruned: pruned[idx],
            })
            .collect();
        self.core.telemetry.slow.record(SlowQuery {
            query: self.query_id,
            elapsed_us,
            path,
            conclusive,
            winner,
            entrants,
        });
        self.core.stats.finalize_stage.record_duration(finalize_started.elapsed());
        self.core.telemetry.emit(TraceEvent::Finalized {
            query: self.query_id,
            conclusive,
            cancelled: !conclusive && self.state.token().is_cancelled(),
            winner,
            elapsed_us,
        });
        // Free the admission slot before the answer lands, so a caller
        // observing completion can immediately re-submit.
        drop(permit);
        self.slot.fulfill(EngineResponse { answer, path, elapsed, conclusive });
    }
}

// ---- The stage-deadline timer ----

struct TimerEntry {
    at: Instant,
    flight: Weak<RaceFlight>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        other.at.cmp(&self.at)
    }
}

#[derive(Default)]
struct TimerInner {
    queue: BinaryHeap<TimerEntry>,
    shutdown: bool,
}

#[derive(Default)]
struct TimerShared {
    inner: Mutex<TimerInner>,
    tick: Condvar,
}

/// One timer thread per engine (shared across all graphs of a
/// [`crate::MultiEngine`]) that fires stage-deadline checks for every
/// staged race and fast heat in flight, at most [`TIMER_SLACK`] late.
/// Entries hold the flight weakly: a race that finalized (or whose
/// ticket was dropped and finalized early) simply never fires.
pub(crate) struct StageTimer {
    shared: Arc<TimerShared>,
    handle: Option<JoinHandle<()>>,
    owner: std::thread::ThreadId,
}

impl StageTimer {
    pub(crate) fn new() -> Self {
        let shared = Arc::new(TimerShared::default());
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("psi-stage-timer".to_string())
            .spawn(move || timer_loop(&thread_shared))
            .expect("spawning the stage timer must succeed");
        Self { shared, handle: Some(handle), owner: std::thread::current().id() }
    }

    /// Schedules a stage check for `flight` at `at`.
    pub(crate) fn register(&self, at: Instant, flight: Weak<RaceFlight>) {
        let mut inner = self.shared.inner.lock().expect("stage timer lock");
        // Only wake the timer thread when this deadline moves the wakeup
        // earlier: it already sleeps until the current front of the
        // heap, and a per-registration wake would cost a context switch
        // per staged race.
        let wake = inner.queue.peek().is_none_or(|front| at < front.at);
        inner.queue.push(TimerEntry { at, flight });
        drop(inner);
        if wake {
            self.shared.tick.notify_one();
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.shared.inner.lock().expect("stage timer lock").shutdown = true;
        self.shared.tick.notify_all();
        // Join only from the thread that built the timer: workers
        // briefly hold strong references (launch registers deadlines),
        // so during teardown a pool worker can run this drop — joining
        // from there risks a mutual join with `WorkerPool::drop`
        // (EDEADLK → panic). The shutdown flag already makes the timer
        // thread exit on its own.
        if std::thread::current().id() == self.owner {
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn timer_loop(shared: &TimerShared) {
    let mut due: Vec<Weak<RaceFlight>> = Vec::new();
    loop {
        {
            let mut inner = shared.inner.lock().expect("stage timer lock");
            loop {
                if inner.shutdown {
                    return;
                }
                let now = Instant::now();
                match inner.queue.peek() {
                    Some(entry) if entry.at <= now => break,
                    Some(entry) => {
                        let wait = entry.at - now + TIMER_SLACK;
                        inner = shared.tick.wait_timeout(inner, wait).expect("stage timer lock").0;
                    }
                    None => inner = shared.tick.wait(inner).expect("stage timer lock"),
                }
            }
            let now = Instant::now();
            while inner.queue.peek().is_some_and(|e| e.at <= now) {
                due.push(inner.queue.pop().expect("peeked entry").flight);
            }
        }
        for weak in due.drain(..) {
            if let Some(flight) = weak.upgrade() {
                if let Some(rearm) = flight.stage_check(Instant::now()) {
                    shared
                        .inner
                        .lock()
                        .expect("stage timer lock")
                        .queue
                        .push(TimerEntry { at: rearm, flight: Arc::downgrade(&flight) });
                }
            }
        }
    }
}
