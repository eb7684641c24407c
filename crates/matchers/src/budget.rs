//! Search budgets: embedding caps, deadlines and cooperative cancellation.
//!
//! The paper's experimental setup (§3.2) caps every query at 10 minutes and
//! every matching run at 1000 embeddings; the Ψ-framework (§8) additionally
//! kills the losing threads of a race as soon as a winner finishes. All
//! three stop conditions are expressed here as a [`SearchBudget`] that every
//! matcher checks cooperatively inside its search loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The search space was exhausted: the result is exact and complete.
    Complete,
    /// The embedding cap (`max_matches`) was reached.
    MatchLimit,
    /// The deadline passed mid-search (the paper's "killed"/"hard" case).
    TimedOut,
    /// Another racer won and cancelled this search.
    Cancelled,
}

impl StopReason {
    /// Whether the search ran to an answer (either exhausted the space or
    /// found the requested number of matches). Timed-out and cancelled
    /// searches are inconclusive.
    pub fn is_conclusive(self) -> bool {
        matches!(self, StopReason::Complete | StopReason::MatchLimit)
    }
}

/// Shared flag used to cancel in-flight searches across threads (the
/// Ψ-framework's "kill the losing threads", implemented safely as
/// cooperative cancellation).
///
/// A token may be *linked* to a parent token ([`CancelToken::linked`]):
/// the child observes its own flag **or** the parent's, while
/// [`CancelToken::cancel`] on the child sets only its own flag. This is
/// how a slice group stops its own siblings early (cap reached) without
/// cancelling the race-wide token it hangs off.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token linked under `parent`: cancelled when either its own
    /// flag or the parent's is set, so checks stay two loads. Cancelling
    /// the child never touches the parent. Only the parent's own flag is
    /// observed, so links are one level deep.
    pub fn linked(parent: &CancelToken) -> Self {
        debug_assert!(
            parent.parent.is_none(),
            "CancelToken::linked supports one linking level (race token -> group token)"
        );
        Self { flag: Arc::new(AtomicBool::new(false)), parent: Some(Arc::clone(&parent.flag)) }
    }

    /// Signals every search holding a clone of this token to stop. For a
    /// linked token, only this token's own flag is set — the parent is
    /// never cancelled from below.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been signalled — on this token or, for a
    /// linked token, on its parent.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|p| p.load(Ordering::Relaxed))
    }
}

/// Stop conditions for one search: embedding cap, wall-clock deadline,
/// cancellation token.
///
/// The default budget matches the paper's NFV setup: 1000 embeddings, no
/// deadline, no cancellation.
#[derive(Debug, Clone)]
pub struct SearchBudget {
    /// Stop after this many embeddings (§3.2: "capped at 1000").
    pub max_matches: usize,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    /// Cross-thread cancellation, if racing.
    pub cancel: Option<CancelToken>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self { max_matches: 1000, deadline: None, cancel: None }
    }
}

impl SearchBudget {
    /// The paper's default: 1000 embeddings, unbounded time.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// No cap at all (used by correctness tests comparing full embedding
    /// sets against the brute-force oracle).
    pub fn unlimited() -> Self {
        Self { max_matches: usize::MAX, deadline: None, cancel: None }
    }

    /// Decision-problem budget: stop at the first embedding. This is the
    /// change the authors made to Grapes' VF2 ("returns after the first
    /// match", §3.2).
    pub fn first_match() -> Self {
        Self { max_matches: 1, deadline: None, cancel: None }
    }

    /// Budget with an embedding cap only.
    pub fn with_max_matches(max_matches: usize) -> Self {
        Self { max_matches, ..Self::default() }
    }

    /// Returns a copy with the given timeout from now.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Returns a copy with an absolute deadline.
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy wired to a cancellation token.
    pub fn cancellable(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Creates the per-search ticking checker.
    pub fn start(&self) -> BudgetClock<'_> {
        BudgetClock { budget: self, ticks: 0 }
    }
}

/// How many search steps pass between deadline/cancellation checks.
/// `Instant::now()` costs tens of nanoseconds; amortizing it over a power-of-
/// two stride keeps the overhead invisible while bounding the overshoot past
/// a deadline to microseconds.
const CHECK_STRIDE: u32 = 255;

/// Per-search stop-condition checker. Cheap to call on every search step;
/// performs the actual clock/flag reads once every `CHECK_STRIDE + 1` calls.
#[derive(Debug)]
pub struct BudgetClock<'a> {
    budget: &'a SearchBudget,
    ticks: u32,
}

impl BudgetClock<'_> {
    /// Called on every search step; returns `Some(reason)` when the search
    /// must stop for a non-match-count reason.
    #[inline]
    pub fn tick(&mut self) -> Option<StopReason> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & CHECK_STRIDE != 0 {
            return None;
        }
        self.check_now()
    }

    /// `n` calls to [`BudgetClock::tick`] at once, checked after the last.
    #[inline]
    pub fn tick_n(&mut self, n: u32) -> Option<StopReason> {
        let before = self.ticks;
        self.ticks = before.wrapping_add(n);
        let crossed = n > CHECK_STRIDE || (before ^ self.ticks) & !CHECK_STRIDE != 0;
        crossed.then(|| self.check_now()).flatten()
    }

    /// Forces an immediate check (used at search entry and after long
    /// non-tick phases like index probes).
    #[inline]
    pub fn check_now(&self) -> Option<StopReason> {
        if let Some(c) = &self.budget.cancel {
            if c.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(d) = self.budget.deadline {
            if Instant::now() >= d {
                return Some(StopReason::TimedOut);
            }
        }
        None
    }
}

/// Checks a scan that advances `clock` by `len` ticks in batches: on a
/// clock whose token is cancelled, started at each of several counts,
/// `scan` (returning whether it stopped) must stop exactly when `len`
/// single ticks from the same count would have, and otherwise leave the
/// same count behind.
#[cfg(test)]
pub(crate) fn assert_scan_ticks_as_single_ticks(
    len: u32,
    mut scan: impl FnMut(&mut BudgetClock<'_>) -> bool,
) {
    let token = CancelToken::new();
    token.cancel();
    let budget = SearchBudget::default().cancellable(token);
    for start in [0, 1, 200, 254, 255, 256, u32::MAX - 3] {
        let (mut batch, mut single) = (budget.start(), budget.start());
        (batch.ticks, single.ticks) = (start, start);
        let stopped = (0..len).fold(false, |s, _| single.tick().is_some() || s);
        assert_eq!(scan(&mut batch), stopped, "start {start} len {len}");
        if !stopped {
            assert_eq!(batch.ticks, single.ticks, "start {start} len {len}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_paper() {
        let b = SearchBudget::default();
        assert_eq!(b.max_matches, 1000);
        assert!(b.deadline.is_none());
        assert!(b.cancel.is_none());
    }

    #[test]
    fn first_match_budget() {
        let b = SearchBudget::first_match();
        assert_eq!(b.max_matches, 1);
        assert!(b.deadline.is_none() && b.cancel.is_none());
    }

    #[test]
    fn cancel_token_propagates() {
        let t = CancelToken::new();
        let b = SearchBudget::default().cancellable(t.clone());
        let clock = b.start();
        assert_eq!(clock.check_now(), None);
        t.cancel();
        assert_eq!(clock.check_now(), Some(StopReason::Cancelled));
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let t = CancelToken::new();
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn linked_token_observes_parent() {
        let parent = CancelToken::new();
        let child = CancelToken::linked(&parent);
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled(), "child must observe parent cancellation");
    }

    #[test]
    fn linked_token_cancel_stays_local() {
        let parent = CancelToken::new();
        let child = CancelToken::linked(&parent);
        let sibling = child.clone();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(sibling.is_cancelled(), "clones share the child flag");
        assert!(!parent.is_cancelled(), "cancelling a child never cancels the parent");
    }

    #[test]
    fn expired_deadline_detected() {
        let b = SearchBudget::default().deadline_at(Instant::now() - Duration::from_millis(1));
        let clock = b.start();
        assert_eq!(clock.check_now(), Some(StopReason::TimedOut));
    }

    #[test]
    fn future_deadline_not_triggered() {
        let b = SearchBudget::default().timeout(Duration::from_secs(3600));
        let clock = b.start();
        assert_eq!(clock.check_now(), None);
    }

    /// `tick_n(n)` stops exactly when one of `n` single ticks from the
    /// same count would have, and leaves the same count behind.
    #[test]
    fn tick_n_checks_as_n_ticks_would() {
        let t = CancelToken::new();
        t.cancel();
        let b = SearchBudget::default().cancellable(t);
        for start in [0, 1, 200, 254, 255, 256, u32::MAX - 3] {
            for n in [0, 1, 2, 63, 64, 255, 256, 257, 600] {
                let (mut batch, mut single) = (b.start(), b.start());
                (batch.ticks, single.ticks) = (start, start);
                let stopped = (0..n).fold(false, |s, _| single.tick().is_some() || s);
                assert_eq!(batch.tick_n(n).is_some(), stopped, "start {start} n {n}");
                assert_eq!(batch.ticks, single.ticks);
            }
        }
    }

    #[test]
    fn tick_eventually_observes_cancellation() {
        let t = CancelToken::new();
        let b = SearchBudget::default().cancellable(t.clone());
        let mut clock = b.start();
        t.cancel();
        let mut saw = None;
        for _ in 0..=(CHECK_STRIDE as usize + 1) {
            if let Some(r) = clock.tick() {
                saw = Some(r);
                break;
            }
        }
        assert_eq!(saw, Some(StopReason::Cancelled));
    }

    #[test]
    fn cancellation_beats_deadline_in_reporting() {
        let t = CancelToken::new();
        t.cancel();
        let b = SearchBudget::default()
            .deadline_at(Instant::now() - Duration::from_millis(1))
            .cancellable(t);
        assert_eq!(b.start().check_now(), Some(StopReason::Cancelled));
    }

    #[test]
    fn conclusive_reasons() {
        assert!(StopReason::Complete.is_conclusive());
        assert!(StopReason::MatchLimit.is_conclusive());
        assert!(!StopReason::TimedOut.is_conclusive());
        assert!(!StopReason::Cancelled.is_conclusive());
    }
}
