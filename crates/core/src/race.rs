//! The generic racing engine.
//!
//! §8: "These threads run in parallel with each being assigned one rewriting
//! of the initial query, and the first thread to finish is the 'winner';
//! i.e., the rest of the threads are killed."
//!
//! "Killing" is implemented as cooperative cancellation: every entrant's
//! [`psi_matchers::SearchBudget`] shares one [`CancelToken`]; the first
//! entrant to produce a *conclusive* result (found an answer, or exhausted
//! its space) claims the win with an atomic compare-exchange and cancels the
//! token. Losing entrants observe the flag at their next budget check and
//! unwind promptly. This gives the same observable behaviour as thread
//! kill without the memory-unsafety.

use psi_matchers::{CancelToken, MatchResult, SearchBudget};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage hooks on a [`RaceState`]: an observer hears about entrant
/// execution milestones *as they happen*, on the entrant's own thread —
/// before the race outcome is assembled. `psi-engine` attaches one to
/// feed its trace-event layer; the default no-op methods keep plain
/// library races zero-cost.
///
/// All callbacks may run concurrently from multiple entrant threads and
/// must not block.
pub trait RaceObserver: Send + Sync {
    /// An entrant body began executing. `since_start` measures from the
    /// race anchor, so in a pooled engine it includes queue wait.
    fn entrant_started(&self, idx: usize, since_start: Duration) {
        let _ = (idx, since_start);
    }

    /// Entrant `idx` produced the first conclusive result and claimed the
    /// race (cancelling the shared token). Fires exactly once per race,
    /// at claim time — not at finish-assembly time.
    fn race_claimed(&self, idx: usize, wall: Duration) {
        let _ = (idx, wall);
    }
}

/// Budget for a whole race (shared deadline; per-entrant embedding cap).
#[derive(Debug, Clone)]
pub struct RaceBudget {
    /// Per-entrant embedding cap (1 for decision racing, 1000 for the
    /// paper's matching setup).
    pub max_matches: usize,
    /// Wall-clock limit for the whole race (the paper's 10-minute cap,
    /// scaled).
    pub timeout: Option<Duration>,
}

impl RaceBudget {
    /// Decision-problem racing: first embedding wins.
    pub fn decision() -> Self {
        Self { max_matches: 1, timeout: None }
    }

    /// Matching-problem racing with the paper's 1000-embedding cap.
    pub fn matching() -> Self {
        Self { max_matches: 1000, timeout: None }
    }

    /// Racing with an explicit embedding cap.
    pub fn with_max_matches(max_matches: usize) -> Self {
        Self { max_matches, timeout: None }
    }

    /// Adds a wall-clock limit.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Converts into a per-entrant [`SearchBudget`] sharing `token` and an
    /// absolute deadline fixed at race start.
    pub fn entrant_budget(&self, token: CancelToken, start: Instant) -> SearchBudget {
        let mut b = SearchBudget::with_max_matches(self.max_matches).cancellable(token);
        if let Some(t) = self.timeout {
            b = b.deadline_at(start + t);
        }
        b
    }

    /// The stage deadline of a staged race: the instant, measured
    /// from the race anchor `start`, at which a still-undecided pruned
    /// first heat should escalate to the full entrant field.
    ///
    /// The deadline sits at the `escalate_after` fraction (clamped to
    /// `[0, 1]`) of the race timeout. Races without a wall-clock timeout
    /// measure the fraction against `fallback_window` instead, so
    /// escalation is always bounded. Entrant deadlines themselves are
    /// unaffected — escalated entrants still run under the original
    /// `start`-anchored budget.
    pub fn stage_deadline(
        &self,
        start: Instant,
        escalate_after: f64,
        fallback_window: Duration,
    ) -> Instant {
        let window = self.timeout.unwrap_or(fallback_window);
        start + window.mul_f64(escalate_after.clamp(0.0, 1.0))
    }
}

/// One entrant's outcome.
#[derive(Debug, Clone)]
pub struct VariantResult<L> {
    /// Caller-supplied identity (e.g. a [`crate::Variant`] or a rewriting).
    pub label: L,
    /// The search result (embeddings in the *entrant's own* query
    /// numbering; NFV callers translate them back, see [`crate::nfv`]).
    pub result: MatchResult,
    /// Wall time of this entrant, from race start to entrant completion.
    pub wall: Duration,
}

/// Outcome of one race.
#[derive(Debug, Clone)]
pub struct PsiOutcome<L> {
    /// All entrants, in configuration order.
    pub per_variant: Vec<VariantResult<L>>,
    /// Index into `per_variant` of the winner (the first conclusive
    /// finisher), if any entrant concluded.
    pub winner_index: Option<usize>,
    /// The Ψ query time: start-of-race to the winner claiming victory
    /// (the paper's semantics — the losers are killed at that instant).
    /// Falls back to the full join time when nobody wins.
    pub elapsed: Duration,
    /// Start-of-race to the last loser unwinding after cancellation —
    /// the *cooperative* kill cost our implementation pays. The gap
    /// `join_elapsed - elapsed` is the Ψ overhead discussed in §8.
    pub join_elapsed: Duration,
}

impl<L> PsiOutcome<L> {
    /// The winning entrant, if any.
    pub fn winner(&self) -> Option<&VariantResult<L>> {
        self.winner_index.map(|i| &self.per_variant[i])
    }

    /// Decision answer: did the winner find at least one embedding?
    pub fn found(&self) -> bool {
        self.winner().is_some_and(|w| w.result.found())
    }

    /// Number of embeddings the winner found (0 if no winner).
    pub fn num_matches(&self) -> usize {
        self.winner().map_or(0, |w| w.result.num_matches)
    }

    /// Whether the race produced a definitive answer.
    pub fn is_conclusive(&self) -> bool {
        self.winner_index.is_some()
    }
}

/// Shared bookkeeping of one in-flight race, decoupled from *where* the
/// entrants execute. [`race`] drives it from scoped OS threads (one per
/// entrant, the paper's setup); `psi-engine` drives the same state machine
/// from pooled workers shared by many concurrent races.
///
/// The state is anchored at a start [`Instant`]; entrant deadlines and all
/// reported wall times are measured from that anchor. An engine passes its
/// *admission* time so queueing delay inside a worker pool counts against
/// the race budget's timeout (the paper's 10-minute cap convention).
pub struct RaceState {
    token: CancelToken,
    claimed: AtomicUsize,
    claim_nanos: std::sync::atomic::AtomicU64,
    first_start_nanos: std::sync::atomic::AtomicU64,
    start: Instant,
    observer: Option<Arc<dyn RaceObserver>>,
}

impl std::fmt::Debug for RaceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceState")
            .field("start", &self.start)
            .field("winner_index", &self.winner_index())
            .field("cancelled", &self.token.is_cancelled())
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl RaceState {
    /// Race state anchored at `start` (use [`RaceState::begin`] for "now").
    pub fn new(start: Instant) -> Self {
        Self::with_token(start, CancelToken::new())
    }

    /// Race state anchored at `start` whose cancellation flows through an
    /// *externally owned* `token`. This is what makes completion handles
    /// ticket-safe in `psi-engine`: the ticket keeps a clone of the token,
    /// so dropping the ticket cancels every entrant of the race it refers
    /// to — exactly as a winning entrant would — without the ticket ever
    /// touching the race's internal claim state.
    pub fn with_token(start: Instant, token: CancelToken) -> Self {
        Self {
            token,
            claimed: AtomicUsize::new(usize::MAX),
            claim_nanos: std::sync::atomic::AtomicU64::new(0),
            first_start_nanos: std::sync::atomic::AtomicU64::new(u64::MAX),
            start,
            observer: None,
        }
    }

    /// Attaches a [`RaceObserver`] hearing this race's execution
    /// milestones. Builder-style; at most one observer per race.
    pub fn observe(mut self, observer: Arc<dyn RaceObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Race state anchored at the current instant.
    pub fn begin() -> Self {
        Self::new(Instant::now())
    }

    /// The anchor instant all deadlines and wall times are measured from.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// The shared cancellation token losing entrants observe.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Runs one entrant body to completion: executes `f` under the
    /// race-wired budget, then claims victory if the result is conclusive
    /// and nobody claimed earlier. Returns the result and the entrant's
    /// wall time from the race anchor.
    pub fn run_entrant<F>(&self, idx: usize, budget: &RaceBudget, f: F) -> (MatchResult, Duration)
    where
        F: FnOnce(&SearchBudget) -> MatchResult,
    {
        let entrant_budget = self.start_entrant(idx, budget);
        let result = f(&entrant_budget);
        let wall = self.complete_entrant(idx, &result);
        (result, wall)
    }

    /// First half of an entrant's lifecycle: wires the race-wide budget
    /// and records the start milestone. Split from [`RaceState::run_entrant`]
    /// so a *sliced* entrant — whose body spans several pooled tasks —
    /// can start once (on its first slice to execute) and complete once
    /// (on the last slice, with the merged result).
    pub fn start_entrant(&self, idx: usize, budget: &RaceBudget) -> SearchBudget {
        let entrant_budget = budget.entrant_budget(self.token.clone(), self.start);
        // Mark when the race actually began executing (first entrant to
        // reach a thread/worker): staged schedulers anchor the stage
        // window here for budgets without a wall-clock timeout, so pool
        // queueing delay cannot trigger spurious escalations.
        let since_start = self.start.elapsed();
        self.first_start_nanos.fetch_min(since_start.as_nanos() as u64, Ordering::AcqRel);
        if let Some(obs) = &self.observer {
            obs.entrant_started(idx, since_start);
        }
        entrant_budget
    }

    /// Second half of an entrant's lifecycle: claims victory if `result`
    /// is conclusive and nobody claimed earlier. Returns the entrant's
    /// wall time from the race anchor.
    pub fn complete_entrant(&self, idx: usize, result: &MatchResult) -> Duration {
        let wall = self.start.elapsed();
        if result.stop.is_conclusive()
            && self
                .claimed
                .compare_exchange(usize::MAX, idx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // First conclusive finisher claims the win and "kills" the rest.
            self.claim_nanos.store(wall.as_nanos() as u64, Ordering::Release);
            self.token.cancel();
            if let Some(obs) = &self.observer {
                obs.race_claimed(idx, wall);
            }
        }
        wall
    }

    /// Index of the winning entrant, if any has claimed victory yet.
    pub fn winner_index(&self) -> Option<usize> {
        let w = self.claimed.load(Ordering::Acquire);
        (w != usize::MAX).then_some(w)
    }

    /// Whether some entrant has already claimed the race.
    pub fn is_decided(&self) -> bool {
        self.winner_index().is_some()
    }

    /// The instant the first entrant began executing, if any has started
    /// yet. This is distinct from the anchor [`RaceState::start`]: in a
    /// pooled engine, queueing delay separates admission from execution.
    pub fn first_entrant_started(&self) -> Option<Instant> {
        let nanos = self.first_start_nanos.load(Ordering::Acquire);
        (nanos != u64::MAX).then(|| self.start + Duration::from_nanos(nanos))
    }

    /// Assembles the outcome once every entrant has reported its
    /// [`VariantResult`] (in configuration order).
    pub fn finish<L>(&self, per_variant: Vec<VariantResult<L>>) -> PsiOutcome<L> {
        let join_elapsed = self.start.elapsed();
        let winner_index = self.winner_index();
        let elapsed = if winner_index.is_some() {
            Duration::from_nanos(self.claim_nanos.load(Ordering::Acquire))
        } else {
            join_elapsed
        };
        PsiOutcome { per_variant, winner_index, elapsed, join_elapsed }
    }
}

/// Races `entrants` (label + closure) under `budget`. Each closure receives
/// its pre-wired [`SearchBudget`] and runs on its own OS thread, exactly as
/// the paper instantiates one thread per rewriting/algorithm.
///
/// The winner is the first entrant whose result is conclusive
/// (`StopReason::Complete` or `StopReason::MatchLimit`); it cancels the
/// shared token. Entrants that time out or get cancelled never win. If no
/// entrant concludes (e.g. global timeout), `winner_index` is `None`.
pub fn race<L, F>(entrants: Vec<(L, F)>, budget: &RaceBudget) -> PsiOutcome<L>
where
    L: Send,
    F: FnOnce(&SearchBudget) -> MatchResult + Send,
{
    let state = RaceState::begin();
    if entrants.is_empty() {
        return state.finish(Vec::new());
    }
    let results: Vec<VariantResult<L>> = std::thread::scope(|scope| {
        let handles: Vec<_> = entrants
            .into_iter()
            .enumerate()
            .map(|(idx, (label, f))| {
                let state = &state;
                scope.spawn(move || {
                    let (result, wall) = state.run_entrant(idx, budget, f);
                    VariantResult { label, result, wall }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("entrant thread must not panic")).collect()
    });
    state.finish(results)
}

/// Convenience used by tests and ablation benches: runs the entrants
/// *sequentially* (no parallelism, no cancellation) and reports the best
/// conclusive result — the "oracle best variant" that `speedup★` compares
/// against.
pub fn run_sequential<L, F>(entrants: Vec<(L, F)>, budget: &RaceBudget) -> Vec<VariantResult<L>>
where
    F: FnOnce(&SearchBudget) -> MatchResult,
{
    entrants
        .into_iter()
        .map(|(label, f)| {
            let start = Instant::now();
            let mut b = SearchBudget::with_max_matches(budget.max_matches);
            if let Some(t) = budget.timeout {
                b = b.timeout(t);
            }
            let result = f(&b);
            VariantResult { label, result, wall: start.elapsed() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_matchers::matcher::SearchStats;
    use psi_matchers::StopReason;

    fn quick_result(n: usize) -> MatchResult {
        MatchResult {
            embeddings: vec![vec![0]; n],
            num_matches: n,
            stop: if n > 0 { StopReason::MatchLimit } else { StopReason::Complete },
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn fastest_conclusive_entrant_wins() {
        let outcome = race(
            vec![
                (
                    "slow",
                    Box::new(|b: &SearchBudget| {
                        // Simulate a straggler that heeds cancellation.
                        let clock = b.start();
                        for _ in 0..1000 {
                            std::thread::sleep(Duration::from_millis(1));
                            if let Some(r) = clock.check_now() {
                                return MatchResult::empty(r);
                            }
                        }
                        quick_result(1)
                    }) as Box<dyn FnOnce(&SearchBudget) -> MatchResult + Send>,
                ),
                ("fast", Box::new(|_b: &SearchBudget| quick_result(1))),
            ],
            &RaceBudget::decision(),
        );
        let w = outcome.winner().expect("someone wins");
        assert_eq!(w.label, "fast");
        assert!(outcome.found());
        // The slow entrant must have been cancelled, not run to completion.
        let slow = &outcome.per_variant[0];
        assert_eq!(slow.result.stop, StopReason::Cancelled);
        assert!(outcome.elapsed < Duration::from_millis(900), "race should end early");
    }

    #[test]
    fn negative_answers_also_win() {
        // An entrant that exhausts its space (Complete, no matches) is
        // conclusive and should cancel stragglers.
        let outcome = race(
            vec![
                (
                    "empty",
                    Box::new(|_b: &SearchBudget| quick_result(0))
                        as Box<dyn FnOnce(&SearchBudget) -> MatchResult + Send>,
                ),
                (
                    "sleepy",
                    Box::new(|b: &SearchBudget| {
                        let clock = b.start();
                        for _ in 0..1000 {
                            std::thread::sleep(Duration::from_millis(1));
                            if let Some(r) = clock.check_now() {
                                return MatchResult::empty(r);
                            }
                        }
                        quick_result(1)
                    }),
                ),
            ],
            &RaceBudget::decision(),
        );
        assert!(outcome.is_conclusive());
        assert!(!outcome.found());
        assert_eq!(outcome.winner().unwrap().label, "empty");
    }

    #[test]
    fn global_timeout_yields_no_winner() {
        let outcome = race(
            vec![("hopeless", |b: &SearchBudget| {
                let clock = b.start();
                loop {
                    std::thread::sleep(Duration::from_millis(1));
                    if let Some(r) = clock.check_now() {
                        return MatchResult::empty(r);
                    }
                }
            })],
            &RaceBudget::decision().timeout(Duration::from_millis(20)),
        );
        assert!(outcome.winner().is_none());
        assert!(!outcome.is_conclusive());
        assert_eq!(outcome.per_variant[0].result.stop, StopReason::TimedOut);
    }

    #[test]
    fn empty_race() {
        let outcome =
            race(Vec::<(&str, fn(&SearchBudget) -> MatchResult)>::new(), &RaceBudget::decision());
        assert!(outcome.winner().is_none());
        assert_eq!(outcome.num_matches(), 0);
    }

    #[test]
    fn per_variant_order_is_configuration_order() {
        let outcome = race(
            vec![
                ("a", (|_b: &SearchBudget| quick_result(1)) as fn(&SearchBudget) -> MatchResult),
                ("b", (|_b: &SearchBudget| quick_result(1)) as fn(&SearchBudget) -> MatchResult),
                ("c", (|_b: &SearchBudget| quick_result(1)) as fn(&SearchBudget) -> MatchResult),
            ],
            &RaceBudget::decision(),
        );
        let labels: Vec<_> = outcome.per_variant.iter().map(|v| v.label).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert!(outcome.winner_index.is_some());
    }

    #[test]
    fn stage_deadline_is_a_fraction_of_the_timeout() {
        let start = Instant::now();
        let fallback = Duration::from_millis(40);
        let timed = RaceBudget::decision().timeout(Duration::from_millis(200));
        assert_eq!(timed.stage_deadline(start, 0.5, fallback), start + Duration::from_millis(100));
        // Clamped: fractions outside [0, 1] pin to the anchor / full cap.
        assert_eq!(timed.stage_deadline(start, -3.0, fallback), start);
        assert_eq!(timed.stage_deadline(start, 7.0, fallback), start + Duration::from_millis(200));
        // No timeout: the fallback window stands in for the race budget.
        let untimed = RaceBudget::decision();
        assert_eq!(
            untimed.stage_deadline(start, 0.25, fallback),
            start + Duration::from_millis(10)
        );
    }

    #[test]
    fn first_start_and_decision_tracking() {
        let state = RaceState::begin();
        assert!(state.first_entrant_started().is_none(), "nothing has executed yet");
        assert!(!state.is_decided());
        let budget = RaceBudget::decision();
        state.run_entrant(0, &budget, |_b| quick_result(0));
        let first = state.first_entrant_started().expect("heat has started");
        assert!(first >= state.start());
        assert!(state.is_decided(), "a conclusive entrant claims the race");
        state.run_entrant(1, &budget, |_b| quick_result(1));
        assert_eq!(
            state.first_entrant_started(),
            Some(first),
            "later entrants never move the first-start marker forward"
        );
        assert_eq!(state.winner_index(), Some(0), "late finishers cannot re-claim");
    }

    #[test]
    fn external_token_cancels_without_claiming() {
        // A ticket-style owner cancels the race from outside: entrants
        // observe the shared token through their budgets and unwind, and
        // nobody claims a win — cancellation is not a verdict.
        let token = CancelToken::new();
        let state = RaceState::with_token(Instant::now(), token.clone());
        token.cancel();
        let (result, _) = state.run_entrant(0, &RaceBudget::decision(), |b| {
            let clock = b.start();
            match clock.check_now() {
                Some(r) => MatchResult::empty(r),
                None => quick_result(1),
            }
        });
        assert_eq!(result.stop, StopReason::Cancelled);
        assert!(!state.is_decided(), "external cancellation must not claim a winner");
    }

    #[test]
    fn observer_hears_starts_and_exactly_one_claim() {
        struct Spy {
            starts: AtomicUsize,
            claims: AtomicUsize,
            claimed_idx: AtomicUsize,
        }
        impl RaceObserver for Spy {
            fn entrant_started(&self, _idx: usize, _since_start: Duration) {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            fn race_claimed(&self, idx: usize, _wall: Duration) {
                self.claims.fetch_add(1, Ordering::Relaxed);
                self.claimed_idx.store(idx, Ordering::Relaxed);
            }
        }
        let spy = Arc::new(Spy {
            starts: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            claimed_idx: AtomicUsize::new(usize::MAX),
        });
        let state = RaceState::begin().observe(Arc::clone(&spy) as Arc<dyn RaceObserver>);
        let budget = RaceBudget::decision();
        state.run_entrant(0, &budget, |_b| quick_result(1));
        state.run_entrant(1, &budget, |_b| quick_result(1));
        assert_eq!(spy.starts.load(Ordering::Relaxed), 2, "every entrant start observed");
        assert_eq!(spy.claims.load(Ordering::Relaxed), 1, "claim fires exactly once");
        assert_eq!(spy.claimed_idx.load(Ordering::Relaxed), 0);
        assert_eq!(state.winner_index(), Some(0));
    }

    #[test]
    fn sequential_runner_runs_everything() {
        let rs = run_sequential(
            vec![
                ("x", (|_b: &SearchBudget| quick_result(1)) as fn(&SearchBudget) -> MatchResult),
                ("y", (|_b: &SearchBudget| quick_result(0)) as fn(&SearchBudget) -> MatchResult),
            ],
            &RaceBudget::matching(),
        );
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.result.stop.is_conclusive()));
    }
}
