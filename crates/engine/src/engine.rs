//! One tenant's serving path: admission control in front of the shared
//! worker pool, a result cache, and a predictor's fast heat — reached
//! through [`crate::MultiEngine`] and the unified ticket submission API
//! ([`crate::QueryRequest`] / [`crate::Submit`] / [`crate::QueryTicket`]).
//!
//! Serving pipeline per query:
//!
//! 1. **Canonicalize + cache probe** — repeated queries return the cached
//!    definitive answer without touching the pool (an already-completed
//!    ticket).
//! 2. **Admission** — at most
//!    [`crate::MultiEngineConfig::max_concurrent_races`] queries may
//!    occupy the pool at once. Over-limit non-blocking submissions
//!    *park* in a bounded waiting room ([`EngineConfig::waiting_room`]): the ticket
//!    returns immediately and the query launches when the fair gate
//!    hands it a slot (FIFO per priority, in the same queue as blocking
//!    waiters; dropping the ticket frees the parked slot). Only when
//!    the room is full does admission refuse, with
//!    [`AdmissionError::QueueFull`] — or [`AdmissionError::Busy`] when
//!    the room is disabled. [`crate::Submit::submit_queued`] blocks
//!    instead, ordered by [`crate::Priority`] and then arrival, until the
//!    thread that frees a slot hands it over.
//!    This bounds in-flight work to `max_concurrent_races × variants`
//!    tasks no matter how many callers pile on.
//! 3. **Predictor fast heat** — once the k-NN predictor has seen enough
//!    races and votes confidently, the race's first heat is the predicted
//!    variant alone, run inline on the setup worker with the rest of the
//!    field in reserve; a heat that drains inconclusive, or whose leader
//!    still runs one stage window after it started, escalates the
//!    reserve.
//! 4. **Pooled race** — every variant is one pool task sharing a
//!    [`psi_core::RaceState`]; the first conclusive finisher cancels the rest
//!    through the shared `CancelToken`, exactly as in
//!    [`psi_core::race()`]. Deadlines are anchored at *admission* time, so
//!    queueing delay counts against the race budget (the paper's cap
//!    convention). Completion is reactive (see the `flight` module): the
//!    last entrant to report finalizes the race and fulfills the ticket,
//!    so no thread belongs to any one in-flight query.
//!
//! Blocking submission is the ticket path too — `submit_request =
//! submit_queued + wait` — so there is exactly one admission code path.

use crate::admission::{Admit, DeferredInner, DeferredLaunch, OwnedPermit, TenantGate};
use crate::cache::{
    embedding_from_canonical, embedding_to_canonical, CachedAnswer, QueryKey, ShardedCache,
};
use crate::flight::StageTimer;
use crate::pool::WorkerPool;
use crate::stats::{EngineStats, StatsCollector};
use crate::submit::{CompletionSlot, Priority, QueryRequest, QueryTicket};
use crate::telemetry::{Telemetry, TelemetryConfig, TraceEvent};
use psi_core::predictor::{EntrantTally, QueryFeatures, VariantPredictor};
use psi_core::{Compaction, GraphUpdate, PsiRunner, RaceBudget};
use psi_matchers::CancelToken;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a cache-missing query without a confident prediction races its
/// entrant field on the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RaceStrategy {
    /// Race every configured variant at once — the paper's §8 setup and
    /// the engine's default.
    Full,
    /// Staged racing under the self-tuning scheduler
    /// ([`crate::scheduler::plan_race`]). Per query it decides how many
    /// predictor-ranked leading entrants launch in the first heat —
    /// holding the rest of the field back as a reserve — and how many
    /// root-candidate **slices** each heat entrant's search is split
    /// into ([`psi_matchers::sliced_search_view`] semantics, run as
    /// cooperating pool tasks with work stealing). The plan weighs the
    /// predictor's vote margin, the observed escalation rate, and live
    /// pool occupancy: a heavy query on an idle pool races few entrants
    /// × many slices; a saturated pool degrades to many queries × one
    /// slice each.
    ///
    /// If the pruned heat has not decided the race by the
    /// `escalate_after` fraction of the race budget — or finishes
    /// earlier without a conclusive result — the reserve launches
    /// (single-slice) on the same pool under the same
    /// [`psi_core::RaceState`], so a late full-field winner still
    /// cancels everyone and deadlines stay anchored at admission. Until
    /// the predictor has seen `predictor_min_observations` races, the
    /// full field races (the training phase), preserving the race's
    /// worst-case insurance.
    Adaptive {
        /// Upper bound on slices per entrant (1 disables slicing and
        /// leaves only the entrant-count tuning; default 4).
        max_slices: usize,
        /// Fraction of the race budget after which an undecided pruned
        /// heat escalates, in `[0, 1]`. Budgets without a wall-clock
        /// timeout measure the fraction against a small fixed window.
        escalate_after: f64,
    },
}

/// Per-tenant tuning knobs — [`crate::MultiEngineConfig::tenant`].
/// Capacity (workers, concurrent races) is shared by every tenant and
/// lives in [`crate::MultiEngineConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded waiting room for over-limit **non-blocking** submissions:
    /// up to this many parked requests queue per graph for a slot
    /// instead of bouncing, so short bursts absorb rather than error.
    /// `0` restores hard rejection ([`AdmissionError::Busy`]); a full
    /// room refuses with [`AdmissionError::QueueFull`]. Default 1024.
    pub waiting_room: usize,
    /// Independently-locked cache shards (default 8).
    pub cache_shards: usize,
    /// Total cached answers across shards (default 4096); 0 disables the
    /// cache.
    pub cache_capacity: usize,
    /// Neighbours consulted by the variant predictor (default 3).
    pub predictor_k: usize,
    /// Race observations required before the fast heat (or Adaptive
    /// staging) may trigger (default 32).
    pub predictor_min_observations: usize,
    /// Most recent race observations the predictor retains (default 4096);
    /// bounds predictor memory and per-miss prediction cost in a
    /// long-lived engine.
    pub predictor_window: usize,
    /// Minimum leader vote share for a fast heat, in `(0, 1]`; set above
    /// 1.0 to disable the fast heat (default 0.8).
    pub predictor_confidence: f64,
    /// How cache-missing queries race their entrant field (default
    /// [`RaceStrategy::Full`]; see [`RaceStrategy::Adaptive`] for staged
    /// racing under the self-tuning entrants×slices scheduler).
    pub race_strategy: RaceStrategy,
    /// Smallest query (in nodes) eligible for intra-query slicing under
    /// [`RaceStrategy::Adaptive`]: tiny queries finish faster than the
    /// slice-coordination overhead costs, so they always run
    /// single-slice. Default 6.
    pub slice_min_query_nodes: usize,
    /// Budget applied to requests that set none
    /// ([`crate::QueryRequest::budget`] overrides per query).
    pub default_budget: RaceBudget,
    /// Pending overlay operations that trigger a background compaction:
    /// after an applied update batch leaves at least this many ops in
    /// the tenant's delta overlay, a compaction task is queued on the
    /// worker pool (single-flight — at most one per tenant at a time)
    /// to fold the overlay into a fresh base graph + index and swap the
    /// epoch. `0` disables automatic compaction; explicit
    /// [`crate::MultiEngine::compact`] still works. Default 512.
    pub compact_threshold: usize,
    /// Ψ-trace knobs: lifecycle event tracing, ring capacity, slow-query
    /// log size (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            waiting_room: 1024,
            cache_shards: 8,
            cache_capacity: 4096,
            predictor_k: 3,
            predictor_min_observations: 32,
            predictor_window: 4096,
            predictor_confidence: 0.8,
            race_strategy: RaceStrategy::Full,
            slice_min_query_nodes: 6,
            default_budget: RaceBudget::matching(),
            compact_threshold: 512,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Why admission refused a query — backpressure, not a caller mistake.
/// Only the non-blocking submission path refuses; blocking submissions
/// queue instead. `#[non_exhaustive]`: future admission policies may add
/// refusal reasons, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The concurrent-race limit is reached and the waiting room is
    /// disabled ([`EngineConfig::waiting_room`] is 0).
    Busy {
        /// Suggested client backoff before resubmitting: the engine's
        /// current median end-to-end latency, clamped to a sane range —
        /// roughly when the next slot is expected to free.
        retry_hint: Duration,
    },
    /// The waiting room is at capacity: the engine is over its
    /// concurrent-race limit *and* [`EngineConfig::waiting_room`]
    /// requests are already parked for this graph. The burst is no
    /// longer short; shed load.
    QueueFull,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Busy { retry_hint } => {
                write!(f, "engine at concurrent-race capacity (retry in ~{retry_hint:?})")
            }
            AdmissionError::QueueFull => f.write_str("waiting room full"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a request could not be routed to a serving engine — a caller
/// mistake (bad target), never backpressure. `#[non_exhaustive]` for the
/// same forward-compatibility reason as [`AdmissionError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The targeted graph is not registered (multi-graph serving only;
    /// see [`crate::MultiEngine`]).
    UnknownGraph,
    /// The request targets no graph but was submitted to a
    /// [`crate::MultiEngine`], which cannot route it (set
    /// [`crate::QueryRequest::graph`]).
    NoGraph,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownGraph => f.write_str("graph not registered with this engine"),
            RouteError::NoGraph => {
                f.write_str("request targets no graph (set QueryRequest::graph)")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Any submission failure: backpressure ([`AdmissionError`]) or a bad
/// target ([`RouteError`]). The split matters to clients — admission
/// errors are retryable, routing errors are not — and to the wire
/// protocol, which maps each variant to a stable status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// Refused at admission; retry after backoff.
    Admission(AdmissionError),
    /// Unroutable; retrying cannot help.
    Route(RouteError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Admission(e) => e.fmt(f),
            SubmitError::Route(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Admission(e) => Some(e),
            SubmitError::Route(e) => Some(e),
        }
    }
}

impl From<AdmissionError> for SubmitError {
    fn from(e: AdmissionError) -> Self {
        SubmitError::Admission(e)
    }
}

impl From<RouteError> for SubmitError {
    fn from(e: RouteError) -> Self {
        SubmitError::Route(e)
    }
}

/// Why a graph mutation could not be applied: routing (the target graph
/// does not exist — [`crate::MultiEngine`] only) or a semantic problem
/// with the batch itself ([`psi_core::UpdateError`]). Mutations are
/// validated atomically — a rejected batch leaves the graph untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApplyError {
    /// Unroutable; retrying cannot help.
    Route(RouteError),
    /// The batch references unknown/removed nodes, duplicates an edge,
    /// or is otherwise invalid against the current live graph.
    Update(psi_core::UpdateError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Route(e) => e.fmt(f),
            ApplyError::Update(e) => write!(f, "invalid graph update: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Route(e) => Some(e),
            ApplyError::Update(e) => Some(e),
        }
    }
}

impl From<RouteError> for ApplyError {
    fn from(e: RouteError) -> Self {
        ApplyError::Route(e)
    }
}

impl From<psi_core::UpdateError> for ApplyError {
    fn from(e: psi_core::UpdateError) -> Self {
        ApplyError::Update(e)
    }
}

/// How a query was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePath {
    /// Answered from the result cache; no search executed.
    CacheHit,
    /// Answered by a fast heat: the predictor's leader alone, with the
    /// rest of the field held in reserve and never launched. A fast heat
    /// that escalates its reserve answers as [`ServePath::Race`].
    FastPath,
    /// Answered by a full (rewriting × algorithm) race on the pool.
    Race,
}

/// One served query's answer and serving metadata.
#[derive(Debug, Clone)]
pub struct EngineResponse {
    /// The definitive (or, on race timeout, best-effort) answer.
    pub answer: Arc<CachedAnswer>,
    /// Which pipeline stage produced the answer.
    pub path: ServePath,
    /// End-to-end latency from admission to answer.
    pub elapsed: Duration,
    /// Whether the answer is definitive (cache hits always are).
    pub conclusive: bool,
}

impl EngineResponse {
    /// Decision-problem convenience: did the query embed?
    pub fn found(&self) -> bool {
        self.answer.found
    }

    /// Number of embeddings in the answer.
    pub fn num_matches(&self) -> usize {
        self.answer.num_matches
    }
}

/// The pool-free serving internals shared by its [`Tenant`] and every
/// in-flight race task: the prepared runner, the result cache, the
/// predictor, and the statistics collectors. Deliberately does **not**
/// own the worker pool or stage timer — race tasks hold this `Arc`
/// strongly, and a structure that joined threads on drop could then be
/// dropped from inside a pooled worker.
pub(crate) struct ServeCore {
    pub(crate) runner: Arc<PsiRunner>,
    pub(crate) cache: ShardedCache,
    pub(crate) predictor: Mutex<VariantPredictor>,
    pub(crate) stats: StatsCollector,
    /// Staged races scheduled so far; every exploration-period-th one
    /// becomes a full-field exploration probe.
    pub(crate) staged_seq: AtomicU64,
    /// Ψ-trace: query-id allocator, trace-event rings, slow-query log.
    pub(crate) telemetry: Telemetry,
    /// The tenant's learned-state WAL. `None` until persistence is
    /// attached by [`crate::MultiEngine::save_graph`] /
    /// [`crate::MultiEngine::load_graph`]; once attached, every race
    /// finalize mirrors its predictor mutations here, and every applied
    /// graph-mutation batch appends an update record. The lock also
    /// orders mutations against save-time compaction cuts: `save_graph`
    /// holds it across compact + snapshot + reset, so no update record
    /// can slip between the state the snapshot captures and the cut
    /// that discards the records it absorbed.
    pub(crate) learned_wal: Mutex<Option<psi_store::Wal>>,
    /// Single-flight latch for background compaction: at most one
    /// compaction task per tenant occupies the pool at a time. (The
    /// runner's own epoch guard makes concurrent compactions *safe*;
    /// this flag just keeps them from wasting workers.)
    pub(crate) compacting: AtomicBool,
    pub(crate) config: EngineConfig,
}

/// Why [`ServeCore::consult_predictor`] gave no ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unranked {
    /// No caller needs one: the fast heat is disabled and races are
    /// unstaged.
    NotAsked,
    /// The predictor is still inside its training phase.
    Untrained,
}

impl ServeCore {
    /// The predictor's ranked entrant field and leader vote share for
    /// this query, or why there is none: no caller needs it (fast heat
    /// disabled *and* races unstaged), or the predictor is still inside
    /// its training phase — pruning or predicting on no evidence would
    /// forfeit the race's worst-case insurance for nothing.
    pub(crate) fn consult_predictor(
        &self,
        features: &QueryFeatures,
        variants: usize,
    ) -> Result<(Vec<usize>, f64), Unranked> {
        let fast_path = self.config.predictor_confidence <= 1.0;
        // Adaptive picks its heat size *from* the ranking, so it always
        // wants one when the predictor is trained.
        let staged =
            matches!(self.config.race_strategy, RaceStrategy::Adaptive { .. }) && variants > 1;
        if !fast_path && !staged {
            return Err(Unranked::NotAsked);
        }
        let predictor = self.predictor.lock().expect("predictor lock");
        if predictor.observations() < self.config.predictor_min_observations {
            return Err(Unranked::Untrained);
        }
        Ok(predictor.rank_with_vote_share(features, variants))
    }

    /// Stores `answer` in the cache (no-op when caching is disabled),
    /// translating embeddings into canonical numbering so any renumbering
    /// of the query can use the entry on a hit.
    pub(crate) fn cache_store(
        &self,
        keyed: Option<&(QueryKey, Vec<u32>)>,
        answer: &Arc<CachedAnswer>,
    ) {
        let Some((key, canon)) = keyed else { return };
        self.cache.insert(
            key.clone(),
            Arc::new(CachedAnswer {
                embeddings: answer
                    .embeddings
                    .iter()
                    .map(|e| embedding_to_canonical(e, canon))
                    .collect(),
                ..(**answer).clone()
            }),
        );
    }

    /// Lifetime win/loss/timeout tallies of each racing entrant, indexed
    /// like the runner's variant list (entrants that never raced read
    /// zero).
    pub(crate) fn entrant_tallies(&self) -> Vec<EntrantTally> {
        let mut tallies = self.predictor.lock().expect("predictor lock").tallies().to_vec();
        let variants = self.runner.config().variants.len();
        if tallies.len() < variants {
            tallies.resize(variants, EntrantTally::default());
        }
        tallies
    }

    /// Mirrors one finalize's predictor mutations into the attached
    /// learned-state WAL (no-op when persistence is not enabled). An I/O
    /// failure detaches the log rather than failing the query: learned
    /// state keeps accruing in memory, and the next `save_graph` folds
    /// it into a fresh snapshot wholesale.
    pub(crate) fn wal_append(&self, records: &[psi_store::WalRecord]) {
        if records.is_empty() {
            return;
        }
        let mut guard = self.learned_wal.lock().expect("wal lock");
        let Some(wal) = guard.as_mut() else { return };
        for record in records {
            if wal.append(record).is_err() {
                *guard = None;
                return;
            }
        }
        self.stats.wal_appended.fetch_add(records.len() as u64, Ordering::Relaxed);
    }

    /// Runs one compaction attempt with full serving bookkeeping: folds
    /// the runner's delta overlay into a fresh base graph + rebuilt
    /// index (a new epoch), then invalidates everything trained or
    /// cached against the old epoch — the tenant's whole cache
    /// partition, and the predictor's version stamp. `None` when there
    /// was nothing to fold, or a concurrent compaction won the install.
    ///
    /// In-flight races are untouched: each holds a pinned view of the
    /// epoch it started under and finishes against it.
    pub(crate) fn compact_with_stats(&self) -> Option<Compaction> {
        let compaction = self.runner.compact()?;
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.compaction_time_us.fetch_add(
            compaction.duration.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        // Cached answers and learned samples reference the pre-swap
        // epoch. Answers must go (a stale hit could be wrong); samples
        // survive with a bumped version stamp (ranking evidence is
        // advisory — a stale rank costs latency, never correctness).
        self.cache.clear();
        self.stats.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        self.predictor.lock().expect("predictor lock").bump_version();
        Some(compaction)
    }

    /// [`ServeCore::compact_with_stats`] behind the single-flight latch:
    /// the entry point for background (pool-queued) and explicit
    /// compaction. Returns `None` without compacting when another
    /// compaction for this tenant is already running.
    pub(crate) fn compact_single_flight(&self) -> Option<Compaction> {
        if self
            .compacting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        let result = self.compact_with_stats();
        self.compacting.store(false, Ordering::Release);
        result
    }

    /// The predictor's full learned state, exported in the store's
    /// serialization types (winner indices narrowed to `u32` — variant
    /// rosters are tiny).
    pub(crate) fn learned_state(&self) -> psi_store::LearnedState {
        let predictor = self.predictor.lock().expect("predictor lock");
        psi_store::LearnedState {
            observed: predictor.observations() as u64,
            samples: predictor.samples().into_iter().map(|(f, w)| (f, w as u32)).collect(),
            tallies: predictor.tallies().to_vec(),
        }
    }
}

/// One registered graph of a [`crate::MultiEngine`]: its name, its
/// serving core (runner, predictor, cache partition, stats) and its slot
/// in the shared fair gate. The registry owns the pool and stage timer
/// every tenant drains into and hands them to the two entry points that
/// need them.
pub(crate) struct Tenant {
    pub(crate) name: String,
    pub(crate) core: Arc<ServeCore>,
    gate: Arc<TenantGate>,
}

impl Tenant {
    /// Wires `runner` to its gate slot. `epoch` anchors trace-event
    /// timestamps: the registry passes its own start so all tenants
    /// stamp against one clock and cross-graph drains interleave
    /// correctly.
    pub(crate) fn new(
        name: String,
        runner: Arc<PsiRunner>,
        config: EngineConfig,
        gate: TenantGate,
        epoch: Instant,
    ) -> Self {
        let core = Arc::new(ServeCore {
            runner,
            cache: ShardedCache::new(config.cache_shards, config.cache_capacity.max(1)),
            predictor: Mutex::new(VariantPredictor::with_window(
                config.predictor_k.max(1),
                config.predictor_window.max(1),
            )),
            stats: StatsCollector::new(),
            staged_seq: AtomicU64::new(0),
            telemetry: Telemetry::new(&config.telemetry, epoch),
            learned_wal: Mutex::new(None),
            compacting: AtomicBool::new(false),
            config,
        });
        Self { name, core, gate: Arc::new(gate) }
    }

    /// This tenant's serving statistics: the collector's counters plus
    /// the live gauges read at snapshot time — the one-time index build
    /// cost, the waiting-room depth (gate state) and the graph epoch
    /// (runner state).
    pub(crate) fn stats(&self) -> EngineStats {
        let runner = &self.core.runner;
        EngineStats {
            index_build_us: runner.target_index().build_micros(),
            waiting_room_depth: self.gate.waiting() as u64,
            epoch: runner.epoch(),
            ..self.core.stats.snapshot()
        }
    }

    /// Applies one validated mutation batch to the live graph, returning
    /// the epoch it landed in. The write goes through the same
    /// admission gate as queries — it occupies one race slot for its
    /// (short) duration, so a stream of writes is arbitrated by the
    /// fair gate like any other tenant traffic and can
    /// neither starve nor be starved by reads. The batch is atomic: on
    /// any [`psi_core::UpdateError`] the live graph is untouched.
    ///
    /// On success the tenant's cache partition is invalidated (cached
    /// answers predate the mutation), the batch is appended to the
    /// learned-state WAL when persistence is attached (replayed on cold
    /// open), and — once the overlay holds at least
    /// [`EngineConfig::compact_threshold`] pending ops — a background
    /// compaction is queued on the worker pool. Queries racing while
    /// the update lands keep their pinned pre-update view; queries
    /// admitted afterwards see the mutated graph.
    pub(crate) fn apply_update(
        &self,
        update: &GraphUpdate,
        pool: &WorkerPool,
    ) -> Result<u64, psi_core::UpdateError> {
        self.gate.acquire(Priority::Normal);
        let _permit = OwnedPermit(Arc::clone(&self.gate));
        let epoch = {
            // Hold the WAL slot across apply + append so a concurrent
            // save_graph cannot cut the log between the two (its
            // snapshot would miss the update *and* the reset would
            // discard the record).
            let mut wal_guard = self.core.learned_wal.lock().expect("wal lock");
            let epoch = self.core.runner.apply_update(update)?;
            if let Some(wal) = wal_guard.as_mut() {
                let record = psi_store::WalRecord::Update { bytes: update.encode() };
                if wal.append(&record).is_err() {
                    // Same policy as race-finalize appends: an I/O
                    // failure detaches the log; the next save_graph
                    // snapshots the live state wholesale.
                    *wal_guard = None;
                } else {
                    self.core.stats.wal_appended.fetch_add(1, Ordering::Relaxed);
                }
            }
            epoch
        };
        self.core.stats.updates_applied.fetch_add(1, Ordering::Relaxed);
        // Every cached answer was computed against the pre-update graph.
        self.core.cache.clear();
        self.core.stats.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        let threshold = self.core.config.compact_threshold;
        if threshold > 0 && self.core.runner.pending_ops() >= threshold {
            let core = Arc::clone(&self.core);
            // The single-flight latch is taken inside the task (not
            // here), so a burst of triggering updates queues at most a
            // few no-op tasks rather than racing on the flag twice.
            pool.submit(move || {
                core.compact_single_flight();
            });
        }
        Ok(epoch)
    }

    /// The backoff reported with [`AdmissionError::Busy`]: the median
    /// end-to-end latency — roughly when the next slot frees — clamped
    /// so a cold engine still hints something useful.
    fn retry_hint(&self) -> Duration {
        self.core
            .stats
            .latency
            .percentile_duration(0.50)
            .clamp(Duration::from_micros(200), Duration::from_millis(100))
    }

    /// The one admission path: every submission — blocking or
    /// non-blocking ticket — lands here after routing.
    pub(crate) fn submit_ticket(
        &self,
        request: QueryRequest,
        block: bool,
        pool: &Arc<WorkerPool>,
        timer: &Arc<StageTimer>,
    ) -> Result<QueryTicket, SubmitError> {
        // Admission time anchors every deadline downstream: a query that
        // waits in line burns its own budget, not the server's.
        let admitted = Instant::now();
        let QueryRequest { query, budget, priority, deadline, graph: _, tag: _ } = request;
        // The one budget-defaulting site.
        let mut budget = budget.unwrap_or_else(|| self.core.config.default_budget.clone());
        // A request deadline folds into the race budget's wall-clock cap:
        // both are anchored at admission, so the effective timeout is
        // simply the tighter of the two.
        if let Some(deadline) = deadline {
            budget.timeout = Some(budget.timeout.map_or(deadline, |t| t.min(deadline)));
        }
        let core = &self.core;
        // Canonicalization is only needed for the cache; skip it (and its
        // sorts/allocations) entirely when caching is disabled.
        let keyed = (core.config.cache_capacity > 0)
            .then(|| QueryKey::canonical_with_map(&query, budget.max_matches));
        let query_id = core.telemetry.next_query_id();

        if let Some((key, canon)) = &keyed {
            if let Some(cached) = core.cache.get(key) {
                core.stats.queries.fetch_add(1, Ordering::Relaxed);
                core.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                // Cached embeddings live in canonical numbering; hand the
                // caller embeddings in *its* numbering (queries sharing a
                // key can be renumberings of each other).
                let answer = Arc::new(CachedAnswer {
                    embeddings: cached
                        .embeddings
                        .iter()
                        .map(|e| embedding_from_canonical(e, canon))
                        .collect(),
                    ..(*cached).clone()
                });
                let elapsed = admitted.elapsed();
                core.stats.record_latency(elapsed);
                core.telemetry.emit(TraceEvent::CacheHit {
                    query: query_id,
                    elapsed_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
                });
                return Ok(QueryTicket::completed(
                    EngineResponse { answer, path: ServePath::CacheHit, elapsed, conclusive: true },
                    query_id,
                ));
            }
        }

        let token = CancelToken::new();
        let slot = Arc::new(CompletionSlot::new());
        // Everything past admission — entrant preparation, the one
        // predictor consultation per miss, the flight's plan, the race
        // itself — happens on pooled workers (see
        // [`crate::flight`]). Ticket creation stays cheap so a few
        // event-loop client threads can keep hundreds of queries in
        // flight.
        let launch = DeferredLaunch::new(DeferredInner {
            core: Arc::clone(core),
            query,
            query_id,
            budget,
            admitted,
            keyed,
            token: token.clone(),
            slot: Arc::clone(&slot),
            permit: None,
            pool: Arc::downgrade(pool),
            timer: Arc::downgrade(timer),
            gate: Arc::downgrade(&self.gate),
        });

        if block {
            self.gate.acquire(priority);
            launch.launch(None);
            return Ok(QueryTicket::pending(slot, token, query_id));
        }
        match self.gate.admit(priority, launch, core.config.waiting_room) {
            Admit::Ready(launch) => {
                launch.launch(None);
                Ok(QueryTicket::pending(slot, token, query_id))
            }
            Admit::Parked { ticket, depth } => {
                core.stats.parked.fetch_add(1, Ordering::Relaxed);
                core.telemetry.emit(TraceEvent::Parked {
                    query: query_id,
                    depth: depth.min(u32::MAX as usize) as u32,
                });
                Ok(QueryTicket::parked(slot, token, query_id, Arc::clone(&self.gate), ticket))
            }
            Admit::Full(launch) => {
                // No ticket was handed out; tear the launch down without
                // the Drop-abandon side effects (stats, trace, fulfill).
                launch.discard();
                if core.config.waiting_room == 0 {
                    core.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    Err(AdmissionError::Busy { retry_hint: self.retry_hint() }.into())
                } else {
                    core.stats.queue_full_rejections.fetch_add(1, Ordering::Relaxed);
                    Err(AdmissionError::QueueFull.into())
                }
            }
        }
    }
}
