//! The unified submission API: one request builder, one trait, one
//! completion handle.
//!
//! Every submission reaches the engine through three pieces:
//!
//! * [`QueryRequest`] — a builder carrying the query plus its optional
//!   budget, target graph and [`Priority`]; the *only* way options reach
//!   the admission path, so budget defaulting happens in exactly one
//!   place.
//! * [`Submit`] — the trait [`crate::MultiEngine`] implements: the
//!   non-blocking and queued ticket entry points plus the blocking and
//!   completion-queue conveniences built on them, so workload drivers,
//!   benches and the wire server share one frontend.
//! * [`QueryTicket`] — a completion handle returned *immediately* after
//!   admission. The race runs entirely on pooled workers; the ticket
//!   polls, waits (with or without a timeout), or registers with a
//!   [`CompletionQueue`] for epoll-style draining of many tickets from
//!   one thread. Dropping a ticket cancels its race through the shared
//!   `CancelToken`, freeing the pool slots the race occupied.
//!
//! Backpressure is still surfaced at *ticket creation*, but in two
//! stages: over-limit [`Submit::submit_nonblocking`] calls park in the
//! engine's bounded waiting room (the ticket returns immediately and the
//! query launches when the fair gate hands it a slot), and only a full
//! room refuses — with a typed [`crate::AdmissionError`] — so a network
//! layer multiplexing thousands of clients absorbs short bursts and
//! sheds only sustained overload.

use crate::admission::TenantGate;
use crate::engine::{EngineResponse, SubmitError};
use crate::registry::GraphId;
use psi_core::RaceBudget;
use psi_graph::Graph;
use psi_matchers::CancelToken;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Relative urgency of a query in the admission queue. Priorities order
/// *waiting* submissions only — they never preempt a race already on the
/// pool, and the fair cross-graph gate applies them after its max–min
/// fairness rule (so a flood of high-priority traffic from one graph
/// still cannot starve another graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Jump ahead of normal traffic when a slot frees.
    High,
    /// The default.
    #[default]
    Normal,
    /// Yield freed slots to everyone else (batch / backfill traffic).
    Low,
}

impl Priority {
    /// Admission rank: lower is served first.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One query submission, built fluently:
///
/// ```
/// use psi_core::RaceBudget;
/// use psi_engine::{Priority, QueryRequest};
/// use psi_graph::graph::graph_from_parts;
///
/// let query = graph_from_parts(&[0, 1], &[(0, 1)]);
/// let request = QueryRequest::new(query)
///     .budget(RaceBudget::decision())
///     .priority(Priority::High);
/// assert_eq!(request.priority_value(), Priority::High);
/// ```
///
/// A request without a budget races under the target tenant's
/// configured default. A [`crate::MultiEngine`] routes by the target
/// graph; a request without one is refused with
/// [`crate::RouteError::NoGraph`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub(crate) query: Graph,
    pub(crate) budget: Option<RaceBudget>,
    pub(crate) graph: Option<GraphId>,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tag: Option<u64>,
}

impl QueryRequest {
    /// A request for `query` with default budget, no target graph and
    /// [`Priority::Normal`].
    pub fn new(query: Graph) -> Self {
        Self {
            query,
            budget: None,
            graph: None,
            priority: Priority::Normal,
            deadline: None,
            tag: None,
        }
    }

    /// Races under an explicit budget instead of the engine default.
    pub fn budget(mut self, budget: RaceBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Targets a registered graph of a [`crate::MultiEngine`].
    pub fn graph(mut self, graph: GraphId) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Sets the admission priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Caps the query's end-to-end time: the deadline is anchored at
    /// *admission* (the paper's convention — queue wait burns the
    /// caller's budget, not the server's) and folds into the race
    /// budget's wall-clock timeout as the tighter of the two. A query
    /// past its deadline finalizes inconclusive.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Correlation id for [`Submit::submit_into`]: the tag pushed onto
    /// the completion queue when this query finishes (defaults to the
    /// engine-assigned query id). Opaque to the engine.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// The query this request asks about.
    pub fn query(&self) -> &Graph {
        &self.query
    }

    /// The explicit budget, if one was set.
    pub fn budget_value(&self) -> Option<&RaceBudget> {
        self.budget.as_ref()
    }

    /// The target graph, if one was set.
    pub fn graph_value(&self) -> Option<GraphId> {
        self.graph
    }

    /// The admission priority.
    pub fn priority_value(&self) -> Priority {
        self.priority
    }

    /// The admission-anchored deadline, if one was set.
    pub fn deadline_value(&self) -> Option<Duration> {
        self.deadline
    }

    /// The completion-queue correlation tag, if one was set.
    pub fn tag_value(&self) -> Option<u64> {
        self.tag
    }
}

/// The unified submission interface of [`crate::MultiEngine`]. All
/// submissions — blocking or not — flow
/// through the same internal admission path; the blocking methods are
/// `ticket + wait` by construction, so the two surfaces cannot drift.
pub trait Submit {
    /// Admits `request` without blocking and returns a completion
    /// handle. At the concurrent-race limit the query *parks* in the
    /// engine's bounded waiting room (the ticket still returns
    /// immediately); a full room refuses with
    /// [`crate::AdmissionError::QueueFull`] — or
    /// [`crate::AdmissionError::Busy`] when the room is disabled. Cache
    /// hits are always served, even at capacity. The returned ticket
    /// completes when the race (or fast heat) finishes; dropping
    /// it cancels the race (or frees the parked slot).
    fn submit_nonblocking(&self, request: QueryRequest) -> Result<QueryTicket, SubmitError>;

    /// Like [`Submit::submit_nonblocking`], but blocks for an admission
    /// slot instead of parking — the ticket it returns is already
    /// admitted. Errors only on routing problems
    /// ([`crate::RouteError::UnknownGraph`] / [`crate::RouteError::NoGraph`]).
    fn submit_queued(&self, request: QueryRequest) -> Result<QueryTicket, SubmitError>;

    /// Blocking convenience: `submit_queued` + [`QueryTicket::wait`].
    fn submit_request(&self, request: QueryRequest) -> Result<EngineResponse, SubmitError> {
        Ok(self.submit_queued(request)?.wait())
    }

    /// Non-blocking submission pre-registered with a [`CompletionQueue`]:
    /// when the query completes, the request's [`QueryRequest::tag`]
    /// (defaulting to the engine-assigned query id) is pushed onto
    /// `queue`. The registration exists before the race can possibly
    /// finish, in one call. The returned ticket must be kept (dropping
    /// it still cancels the query); index it by the tag in the driver's
    /// pending table.
    fn submit_into(
        &self,
        request: QueryRequest,
        queue: &CompletionQueue,
    ) -> Result<QueryTicket, SubmitError> {
        let tag = request.tag;
        let ticket = self.submit_nonblocking(request)?;
        ticket.register_waiter(queue, tag.unwrap_or_else(|| ticket.query_id()));
        Ok(ticket)
    }

    /// [`Submit::submit_into`]'s blocking sibling: waits for an admission
    /// slot ([`Submit::submit_queued`]) and pre-registers the queue the
    /// same way.
    fn submit_queued_into(
        &self,
        request: QueryRequest,
        queue: &CompletionQueue,
    ) -> Result<QueryTicket, SubmitError> {
        let tag = request.tag;
        let ticket = self.submit_queued(request)?;
        ticket.register_waiter(queue, tag.unwrap_or_else(|| ticket.query_id()));
        Ok(ticket)
    }
}

/// Where a completed response lands and where a waiting ticket blocks.
/// Shared between the ticket (reader) and the in-flight race or fast
/// path (writer); fulfilled exactly once.
pub(crate) struct CompletionSlot {
    inner: Mutex<SlotInner>,
    ready: Condvar,
}

struct SlotInner {
    response: Option<EngineResponse>,
    /// Completion-queue registration: `(queue, tag)` to notify on
    /// fulfillment. Registered after fulfillment, the notification fires
    /// immediately instead.
    waiter: Option<(Arc<QueueInner>, u64)>,
}

impl CompletionSlot {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(SlotInner { response: None, waiter: None }),
            ready: Condvar::new(),
        }
    }

    /// A slot that is already complete (cache hits never race).
    pub(crate) fn completed(response: EngineResponse) -> Self {
        Self {
            inner: Mutex::new(SlotInner { response: Some(response), waiter: None }),
            ready: Condvar::new(),
        }
    }

    /// Delivers the response; wakes waiters and notifies an attached
    /// completion queue. Must be called at most once.
    pub(crate) fn fulfill(&self, response: EngineResponse) {
        let waiter = {
            let mut inner = self.inner.lock().expect("completion slot lock");
            debug_assert!(inner.response.is_none(), "a completion slot is fulfilled once");
            inner.response = Some(response);
            inner.waiter.take()
        };
        self.ready.notify_all();
        if let Some((queue, tag)) = waiter {
            queue.push(tag);
        }
    }
}

/// A completion handle for one submitted query.
///
/// Returned by [`Submit::submit_nonblocking`] / [`Submit::submit_queued`]
/// immediately after admission; the race itself runs on the engine's
/// pooled workers. Consume the result with [`QueryTicket::poll`] (never
/// blocks), [`QueryTicket::wait`] / [`QueryTicket::wait_timeout`], or
/// submit through [`Submit::submit_into`] and drain many tickets from
/// one thread via a [`CompletionQueue`].
///
/// ## Consuming vs. borrowing, cancel vs. detach
///
/// The waiting story is deliberately asymmetric:
///
/// * [`QueryTicket::wait`]`(self)` **consumes** — waiting forever is the
///   last thing a caller does with a ticket, and consuming makes
///   wait-then-cancel unrepresentable.
/// * [`QueryTicket::wait_timeout`]`(&self)` **borrows** — a timeout is a
///   polling step, not a verdict; the ticket stays live (not cancelled,
///   not poisoned) and a later wait still gets the answer.
/// * [`QueryTicket::into_response`]`(self)` consumes *only on success*:
///   the completed response, or the ticket handed back untouched.
///
/// **Dropping a ticket cancels its query**: the shared `CancelToken`
/// unwinds every entrant of the race at its next budget check, the race
/// finalizes as inconclusive, and its admission slot and pool workers
/// free promptly. A ticket still *parked* in the waiting room leaves the
/// room instead (its slot frees without ever racing). When
/// fire-and-forget is intended — submit, warm the cache, never read the
/// answer — [`QueryTicket::detach`] releases the handle without
/// cancelling.
#[must_use = "dropping a QueryTicket cancels its query"]
pub struct QueryTicket {
    slot: Arc<CompletionSlot>,
    cancel: CancelToken,
    query_id: u64,
    /// While parked in the waiting room: the gate and park ticket that
    /// remove the entry on cancel/drop. Taken (at most once) by whoever
    /// cancels first; a launched query's entry is already gone and the
    /// gate call is a cheap no-op.
    park: Mutex<Option<(Arc<TenantGate>, u64)>>,
    /// Set by [`QueryTicket::detach`]: drop without cancelling.
    detached: bool,
}

impl QueryTicket {
    pub(crate) fn pending(slot: Arc<CompletionSlot>, cancel: CancelToken, query_id: u64) -> Self {
        Self { slot, cancel, query_id, park: Mutex::new(None), detached: false }
    }

    /// A ticket whose query is parked in the waiting room: additionally
    /// carries the handle that unparks it on cancel/drop.
    pub(crate) fn parked(
        slot: Arc<CompletionSlot>,
        cancel: CancelToken,
        query_id: u64,
        gate: Arc<TenantGate>,
        park_ticket: u64,
    ) -> Self {
        Self {
            slot,
            cancel,
            query_id,
            park: Mutex::new(Some((gate, park_ticket))),
            detached: false,
        }
    }

    /// A ticket that is already complete (cache hit).
    pub(crate) fn completed(response: EngineResponse, query_id: u64) -> Self {
        Self {
            slot: Arc::new(CompletionSlot::completed(response)),
            cancel: CancelToken::new(),
            query_id,
            park: Mutex::new(None),
            detached: false,
        }
    }

    /// The engine-assigned query id, matching the `query` field of this
    /// submission's [`crate::TraceEvent`]s — the join key between tickets
    /// and the trace stream.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// The response, if the query has completed. Never blocks; may be
    /// called repeatedly (before *and* after completion).
    pub fn poll(&self) -> Option<EngineResponse> {
        self.slot.inner.lock().expect("completion slot lock").response.clone()
    }

    /// Whether the query has completed.
    pub fn is_complete(&self) -> bool {
        self.slot.inner.lock().expect("completion slot lock").response.is_some()
    }

    /// Blocks until the query completes and returns its response,
    /// consuming the ticket (see the type docs for why `wait` consumes
    /// while [`QueryTicket::wait_timeout`] borrows).
    pub fn wait(self) -> EngineResponse {
        let mut inner = self.slot.inner.lock().expect("completion slot lock");
        loop {
            if let Some(response) = inner.response.clone() {
                return response;
            }
            inner = self.slot.ready.wait(inner).expect("completion slot lock");
        }
    }

    /// Blocks up to `timeout` for the response. `None` means the query
    /// is still running — the ticket is untouched (not cancelled, not
    /// poisoned) and any later `wait`/`poll` still completes normally.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<EngineResponse> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.slot.inner.lock().expect("completion slot lock");
        loop {
            if let Some(response) = inner.response.clone() {
                return Some(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, result) =
                self.slot.ready.wait_timeout(inner, left).expect("completion slot lock");
            inner = guard;
            if result.timed_out() && inner.response.is_none() {
                return None;
            }
        }
    }

    /// Cancels the query now (identical to dropping the ticket, but the
    /// handle stays usable — the race finalizes inconclusive and the
    /// ticket completes with that verdict). A query still parked in the
    /// waiting room leaves the room immediately and completes
    /// inconclusive without ever racing.
    pub fn cancel(&self) {
        self.cancel.cancel();
        self.cancel_parking();
    }

    /// Consumes the ticket if its query has completed: the response, or
    /// the ticket handed back untouched so the caller can keep waiting.
    pub fn into_response(self) -> Result<EngineResponse, QueryTicket> {
        match self.poll() {
            Some(response) => Ok(response),
            None => Err(self),
        }
    }

    /// Releases the handle **without** cancelling: the query keeps
    /// running (or stays parked) to completion, its answer feeding the
    /// cache and predictor as usual — fire-and-forget. The response is
    /// unobservable afterwards; use [`Submit::submit_into`] when the
    /// answer matters but the handle should live in a table.
    pub fn detach(mut self) {
        self.detached = true;
    }

    /// Removes this query from the waiting room, if it is still parked.
    fn cancel_parking(&self) {
        let parked = self.park.lock().expect("park handle lock").take();
        if let Some((gate, ticket)) = parked {
            gate.cancel_parked(ticket);
        }
    }

    /// Registers this ticket with `queue`: when the query completes,
    /// `tag` is pushed onto the queue (immediately, if it already has) —
    /// the body behind [`Submit::submit_into`].
    pub(crate) fn register_waiter(&self, queue: &CompletionQueue, tag: u64) {
        let completed = {
            let mut inner = self.slot.inner.lock().expect("completion slot lock");
            if inner.response.is_some() {
                true
            } else {
                inner.waiter = Some((Arc::clone(&queue.inner), tag));
                false
            }
        };
        if completed {
            queue.inner.push(tag);
        }
    }
}

impl fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryTicket")
            .field("query_id", &self.query_id)
            .field("complete", &self.is_complete())
            .finish()
    }
}

impl Drop for QueryTicket {
    fn drop(&mut self) {
        if self.detached {
            return;
        }
        // Cancelling a finished (or cache-served) query is a no-op; an
        // in-flight one unwinds its entrants at their next budget check;
        // a parked one leaves the waiting room.
        self.cancel.cancel();
        self.cancel_parking();
    }
}

struct QueueInner {
    ready: Mutex<VecDeque<u64>>,
    arrived: Condvar,
}

impl QueueInner {
    fn push(&self, tag: u64) {
        self.ready.lock().expect("completion queue lock").push_back(tag);
        self.arrived.notify_one();
    }
}

/// An epoll-style completion queue: register any number of
/// [`QueryTicket`]s with [`Submit::submit_into`] (each with a
/// caller-chosen `u64` tag), then drain
/// completions from one thread as they arrive — the pattern a network
/// frontend uses to multiplex thousands of in-flight queries over a few
/// event-loop threads.
///
/// Clones share the same queue. Tags are opaque to the engine; callers
/// typically use them to index a table of pending tickets.
#[derive(Clone, Default)]
pub struct CompletionQueue {
    inner: Arc<QueueInner>,
}

impl Default for QueueInner {
    fn default() -> Self {
        Self { ready: Mutex::new(VecDeque::new()), arrived: Condvar::new() }
    }
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tag of a completed ticket, if any completion is pending.
    pub fn try_next(&self) -> Option<u64> {
        self.inner.ready.lock().expect("completion queue lock").pop_front()
    }

    /// Blocks until some attached ticket completes; returns its tag.
    pub fn wait(&self) -> u64 {
        let mut ready = self.inner.ready.lock().expect("completion queue lock");
        loop {
            if let Some(tag) = ready.pop_front() {
                return tag;
            }
            ready = self.inner.arrived.wait(ready).expect("completion queue lock");
        }
    }

    /// Blocks up to `timeout` for a completion; `None` if none arrived.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        let mut ready = self.inner.ready.lock().expect("completion queue lock");
        loop {
            if let Some(tag) = ready.pop_front() {
                return Some(tag);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, result) =
                self.inner.arrived.wait_timeout(ready, left).expect("completion queue lock");
            ready = guard;
            if result.timed_out() && ready.is_empty() {
                return None;
            }
        }
    }

    /// Completions delivered but not yet drained.
    pub fn ready_len(&self) -> usize {
        self.inner.ready.lock().expect("completion queue lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedAnswer;
    use crate::engine::ServePath;
    use std::time::Duration;

    fn response() -> EngineResponse {
        EngineResponse {
            answer: Arc::new(CachedAnswer {
                found: true,
                num_matches: 1,
                embeddings: vec![vec![0]],
                winner: None,
                cold_elapsed: Duration::ZERO,
            }),
            path: ServePath::CacheHit,
            elapsed: Duration::ZERO,
            conclusive: true,
        }
    }

    #[test]
    fn request_builder_carries_every_option() {
        let query = psi_graph::graph::graph_from_parts(&[0, 1], &[(0, 1)]);
        let request =
            QueryRequest::new(query.clone()).budget(RaceBudget::decision()).priority(Priority::Low);
        assert_eq!(request.query().node_count(), query.node_count());
        assert_eq!(request.budget_value().map(|b| b.max_matches), Some(1));
        assert_eq!(request.graph_value(), None);
        assert_eq!(request.priority_value(), Priority::Low);
        assert_eq!(QueryRequest::new(query).priority_value(), Priority::Normal);
    }

    #[test]
    fn priority_ranks_order_high_first() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
    }

    #[test]
    fn ticket_poll_wait_and_fulfill() {
        let slot = Arc::new(CompletionSlot::new());
        let ticket = QueryTicket::pending(Arc::clone(&slot), CancelToken::new(), 0);
        assert!(!ticket.is_complete());
        assert!(ticket.poll().is_none());
        assert!(ticket.wait_timeout(Duration::from_millis(5)).is_none());
        slot.fulfill(response());
        assert!(ticket.is_complete());
        assert!(ticket.poll().is_some_and(|r| r.found()));
        assert!(ticket.wait().found());
    }

    #[test]
    fn wait_blocks_until_fulfilled_from_another_thread() {
        let slot = Arc::new(CompletionSlot::new());
        let ticket = QueryTicket::pending(Arc::clone(&slot), CancelToken::new(), 0);
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fulfill(response());
        });
        assert!(ticket.wait().found());
        filler.join().expect("filler thread");
    }

    #[test]
    fn dropping_a_pending_ticket_cancels_its_token() {
        let token = CancelToken::new();
        let ticket = QueryTicket::pending(Arc::new(CompletionSlot::new()), token.clone(), 0);
        assert!(!token.is_cancelled());
        drop(ticket);
        assert!(token.is_cancelled());
    }

    #[test]
    fn completion_queue_delivers_tags_in_completion_order() {
        let queue = CompletionQueue::new();
        let slots: Vec<Arc<CompletionSlot>> =
            (0..3).map(|_| Arc::new(CompletionSlot::new())).collect();
        let tickets: Vec<QueryTicket> = slots
            .iter()
            .enumerate()
            .map(|(tag, s)| QueryTicket::pending(Arc::clone(s), CancelToken::new(), tag as u64))
            .collect();
        for (tag, ticket) in tickets.iter().enumerate() {
            ticket.register_waiter(&queue, tag as u64);
        }
        assert_eq!(queue.try_next(), None);
        slots[2].fulfill(response());
        slots[0].fulfill(response());
        assert_eq!(queue.wait(), 2);
        assert_eq!(queue.wait(), 0);
        assert_eq!(queue.wait_timeout(Duration::from_millis(5)), None);
        slots[1].fulfill(response());
        assert_eq!(queue.wait_timeout(Duration::from_secs(1)), Some(1));
        assert_eq!(queue.ready_len(), 0);
    }

    #[test]
    fn registering_an_already_completed_ticket_fires_immediately() {
        let queue = CompletionQueue::new();
        let ticket = QueryTicket::completed(response(), 7);
        ticket.register_waiter(&queue, 42);
        assert_eq!(queue.try_next(), Some(42));
    }

    #[test]
    fn into_response_consumes_only_on_completion() {
        let slot = Arc::new(CompletionSlot::new());
        let ticket = QueryTicket::pending(Arc::clone(&slot), CancelToken::new(), 3);
        let ticket = ticket.into_response().expect_err("still pending: ticket comes back");
        slot.fulfill(response());
        assert!(ticket.into_response().expect("completed now").found());
    }

    #[test]
    fn detach_releases_without_cancelling() {
        let token = CancelToken::new();
        let ticket = QueryTicket::pending(Arc::new(CompletionSlot::new()), token.clone(), 0);
        ticket.detach();
        assert!(!token.is_cancelled(), "detach must not cancel the query");
    }

    #[test]
    fn request_deadline_and_tag_ride_the_builder() {
        let query = psi_graph::graph::graph_from_parts(&[0, 1], &[(0, 1)]);
        let request = QueryRequest::new(query).deadline(Duration::from_millis(40)).tag(0xBEEF);
        assert_eq!(request.deadline_value(), Some(Duration::from_millis(40)));
        assert_eq!(request.tag_value(), Some(0xBEEF));
    }
}
