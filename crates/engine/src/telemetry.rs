//! Ψ-trace: structured per-query lifecycle events in lock-free bounded
//! ring buffers, plus the slow-query log.
//!
//! Every stage of a query's life emits one [`TraceEvent`] — admitted,
//! cache hit, queue wait measured at setup, heat launch, per-entrant
//! start/finish, win claim, escalation, reserve pruning, finalize — tagged
//! with a per-engine query id and a microsecond timestamp against the
//! engine's epoch. Events land in one of a fixed set of bounded MPMC
//! rings (Vyukov-style sequence-stamped cells), sharded by recording
//! thread so concurrent workers rarely contend on the same head. When a
//! ring is full the event is *dropped and counted*, never blocking the
//! serving path: tracing is an observer, not a participant.
//!
//! Draining merges the shards and sorts by a global sequence number, so
//! consumers see one totally ordered stream.

use psi_core::Variant;
use psi_matchers::StopReason;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::engine::ServePath;

/// Ring shards per engine: enough that a saturated worker pool rarely
/// collides on one enqueue head, small enough to drain cheaply.
const TRACE_SHARDS: usize = 8;

/// Telemetry knobs carried in [`crate::EngineConfig`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Emit lifecycle [`TraceEvent`]s (default on; the overhead contract
    /// is <5% of saturated throughput, enforced by the bench gate).
    pub trace_events: bool,
    /// Total trace-ring capacity in events, split across internal shards
    /// and rounded up per shard to a power of two (default 8192). Events
    /// beyond capacity are dropped and counted, never blocking.
    pub trace_capacity: usize,
    /// Worst-offender queries retained in the slow-query log with
    /// per-entrant timing (default 16; 0 disables the log).
    pub slow_query_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { trace_events: true, trace_capacity: 8192, slow_query_capacity: 16 }
    }
}

/// One structured lifecycle event. All variants are `Copy`: recording
/// moves a few words into a ring cell, no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The query passed admission (or is about to be probed against the
    /// cache) and received its id.
    Admitted {
        /// Engine-assigned query id.
        query: u64,
    },
    /// Terminal: served from the result cache.
    CacheHit {
        /// Engine-assigned query id.
        query: u64,
        /// Probe-to-fulfilled wall time, µs.
        elapsed_us: u64,
    },
    /// The engine was at its concurrent-race limit: the query parked in
    /// the bounded waiting room instead of bouncing. Followed by
    /// [`TraceEvent::Unparked`] when a slot grant launches it, or
    /// directly by a cancelled [`TraceEvent::Finalized`] if its ticket
    /// is dropped while parked.
    Parked {
        /// Engine-assigned query id.
        query: u64,
        /// Waiting-room occupancy for this graph observed just after
        /// parking (counts this entry, so ≥ 1).
        depth: u32,
    },
    /// A parked query received a slot grant and launched.
    Unparked {
        /// Engine-assigned query id.
        query: u64,
        /// Time spent parked (submission → slot grant), µs.
        waited_us: u64,
    },
    /// A worker picked the query up and began race setup; `queue_us` is
    /// the admission→setup queue wait.
    SetupStarted {
        /// Engine-assigned query id.
        query: u64,
        /// Admission-to-setup queue wait, µs.
        queue_us: u64,
    },
    /// The first heat launched: on the pool, or inline on the setup
    /// worker for a fast heat (one entrant, the rest reserved).
    HeatLaunched {
        /// Engine-assigned query id.
        query: u64,
        /// Entrants submitted in the first heat.
        launched: u32,
        /// Entrants held back as the escalation reserve.
        reserved: u32,
    },
    /// An entrant body began executing on a worker (via the
    /// [`psi_core::RaceObserver`] stage hook).
    EntrantStarted {
        /// Engine-assigned query id.
        query: u64,
        /// Entrant index in configuration order.
        entrant: u32,
    },
    /// One slice task of a sliced entrant was submitted to the pool
    /// (adaptive scheduling only; unsliced entrants emit none).
    SliceSpawned {
        /// Engine-assigned query id.
        query: u64,
        /// Entrant index in configuration order.
        entrant: u32,
        /// Slice index within the entrant's group (`0..slices`).
        slice: u32,
    },
    /// A slice task finished its share of the root-candidate domain.
    /// The entrant's own [`TraceEvent::EntrantFinished`] follows once
    /// the last slice merges the group.
    SliceFinished {
        /// Engine-assigned query id.
        query: u64,
        /// Entrant index in configuration order.
        entrant: u32,
        /// Slice index within the entrant's group.
        slice: u32,
        /// Root-candidate chunks this slice claimed and ran.
        chunks: u32,
        /// Task-start-to-finish wall time, µs.
        wall_us: u64,
    },
    /// An entrant reported its result.
    EntrantFinished {
        /// Engine-assigned query id.
        query: u64,
        /// Entrant index in configuration order.
        entrant: u32,
        /// Why the entrant's search stopped.
        stop: StopReason,
        /// Race-anchor-to-report wall time, µs.
        wall_us: u64,
    },
    /// An entrant claimed the race (first conclusive finisher; the
    /// cancellation of the losers starts here).
    WinClaimed {
        /// Engine-assigned query id.
        query: u64,
        /// The winning entrant's index.
        entrant: u32,
        /// Race-anchor-to-claim wall time, µs — the paper's Ψ query time.
        wall_us: u64,
    },
    /// A staged race's deadline passed without a verdict: the reserve
    /// launched.
    Escalated {
        /// Engine-assigned query id.
        query: u64,
        /// Reserve entrants submitted.
        launched: u32,
    },
    /// Reserve entrants were pruned because the heat decided the race
    /// without them.
    ReservePruned {
        /// Engine-assigned query id.
        query: u64,
        /// Entrants that never launched.
        count: u32,
    },
    /// Terminal: the query's response was fulfilled (race finalized, fast
    /// path concluded, or the flight was abandoned/cancelled).
    Finalized {
        /// Engine-assigned query id.
        query: u64,
        /// Whether the answer was definitive.
        conclusive: bool,
        /// Whether the query's token was cancelled (ticket drop or
        /// engine shutdown) — only meaningful when not conclusive.
        cancelled: bool,
        /// The winning variant, if any.
        winner: Option<Variant>,
        /// Admission-to-fulfilled wall time, µs.
        elapsed_us: u64,
    },
}

impl TraceEvent {
    /// The query id this event belongs to.
    pub fn query(&self) -> u64 {
        match *self {
            TraceEvent::Admitted { query }
            | TraceEvent::CacheHit { query, .. }
            | TraceEvent::Parked { query, .. }
            | TraceEvent::Unparked { query, .. }
            | TraceEvent::SetupStarted { query, .. }
            | TraceEvent::HeatLaunched { query, .. }
            | TraceEvent::EntrantStarted { query, .. }
            | TraceEvent::SliceSpawned { query, .. }
            | TraceEvent::SliceFinished { query, .. }
            | TraceEvent::EntrantFinished { query, .. }
            | TraceEvent::WinClaimed { query, .. }
            | TraceEvent::Escalated { query, .. }
            | TraceEvent::ReservePruned { query, .. }
            | TraceEvent::Finalized { query, .. } => query,
        }
    }

    /// Whether this event ends its query's lifecycle ([`TraceEvent::CacheHit`]
    /// or [`TraceEvent::Finalized`]). Every accepted query emits exactly
    /// one terminal event.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TraceEvent::CacheHit { .. } | TraceEvent::Finalized { .. })
    }
}

/// A [`TraceEvent`] stamped with its global order and emission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Global per-engine sequence number (drain order).
    pub seq: u64,
    /// Microseconds since the engine's epoch.
    pub at_us: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// One cell of a Vyukov bounded MPMC ring: the sequence stamp arbitrates
/// producer/consumer ownership without locks.
struct Cell {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<TraceRecord>>,
}

/// A bounded lock-free MPMC ring of [`TraceRecord`]s (power-of-two
/// capacity). Push fails (rather than blocking or overwriting) when the
/// ring is full.
struct TraceRing {
    mask: usize,
    cells: Box<[Cell]>,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: cell payloads are only touched by the producer/consumer that
// won the cell via its sequence stamp (Acquire load / Release store
// pairs order the payload access); `TraceRecord` is `Copy` + `Send`.
unsafe impl Send for TraceRing {}
unsafe impl Sync for TraceRing {}

impl TraceRing {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        let cells = (0..capacity)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            mask: capacity - 1,
            cells,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Enqueues `record`; `false` when the ring is full.
    fn push(&self, record: TraceRecord) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of the cell until the seq store below.
                        unsafe { (*cell.value.get()).write(record) };
                        cell.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(found) => pos = found,
                }
            } else if dif < 0 {
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest record; `None` when the ring is empty.
    fn pop(&self) -> Option<TraceRecord> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of the initialized cell payload.
                        let record = unsafe { (*cell.value.get()).assume_init_read() };
                        cell.seq
                            .store(pos.wrapping_add(self.mask).wrapping_add(1), Ordering::Release);
                        return Some(record);
                    }
                    Err(found) => pos = found,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

/// Picks a stable per-thread shard so workers spread across rings.
fn thread_shard(shards: usize) -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD_SEED: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    SHARD_SEED.with(|s| *s) % shards
}

/// The per-engine trace collector: sharded rings plus the global
/// sequence counter that restores total order on drain.
pub(crate) struct TraceSink {
    shards: Vec<TraceRing>,
    seq: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

impl TraceSink {
    pub(crate) fn new(total_capacity: usize, epoch: Instant) -> Self {
        let per_shard = (total_capacity / TRACE_SHARDS).max(8);
        let shards = (0..TRACE_SHARDS).map(|_| TraceRing::with_capacity(per_shard)).collect();
        Self { shards, seq: AtomicU64::new(0), dropped: AtomicU64::new(0), epoch }
    }

    /// Records one event on the calling thread's shard; drops (and
    /// counts) when that shard is full.
    pub(crate) fn emit(&self, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at_us: self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64,
            event,
        };
        if !self.shards[thread_shard(self.shards.len())].push(record) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains every shard and merges into one sequence-ordered batch.
    pub(crate) fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            while let Some(record) = shard.pop() {
                out.push(record);
            }
        }
        out.sort_unstable_by_key(|r| r.seq);
        out
    }

    /// Events dropped because a shard was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-entrant timing attached to a slow-query record.
#[derive(Debug, Clone)]
pub struct EntrantTiming {
    /// The entrant's (algorithm × rewriting) identity.
    pub variant: Variant,
    /// Why its search stopped.
    pub stop: StopReason,
    /// Race-anchor-to-report wall time, µs (0 for pruned entrants).
    pub wall_us: u64,
    /// Whether the entrant was pruned before launching.
    pub pruned: bool,
}

/// One worst-offender query retained by the slow-query log.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Engine-assigned query id.
    pub query: u64,
    /// Admission-to-fulfilled wall time, µs.
    pub elapsed_us: u64,
    /// How the query was served.
    pub path: ServePath,
    /// Whether the answer was definitive.
    pub conclusive: bool,
    /// The winning variant, if any.
    pub winner: Option<Variant>,
    /// Per-entrant timing, in configuration order.
    pub entrants: Vec<EntrantTiming>,
}

/// A bounded keep-the-worst log of served queries: cheap rejection of
/// fast queries via an atomic floor, a small mutex-held sorted vec for
/// the true offenders.
pub(crate) struct SlowQueryLog {
    capacity: usize,
    floor_us: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryLog {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity, floor_us: AtomicU64::new(0), entries: Mutex::new(Vec::new()) }
    }

    /// Offers one served query; kept only if it ranks among the worst.
    pub(crate) fn record(&self, entry: SlowQuery) {
        if self.capacity == 0 || entry.elapsed_us < self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().expect("slow-query log lock");
        entries.push(entry);
        entries.sort_by_key(|e| std::cmp::Reverse(e.elapsed_us));
        entries.truncate(self.capacity);
        if entries.len() == self.capacity {
            // Full: future queries must beat the current least-worst.
            self.floor_us.store(entries.last().map_or(0, |e| e.elapsed_us), Ordering::Relaxed);
        }
    }

    /// The retained offenders, worst first.
    pub(crate) fn worst(&self) -> Vec<SlowQuery> {
        self.entries.lock().expect("slow-query log lock").clone()
    }
}

/// Everything one engine's serving path needs to observe itself: the
/// query-id allocator, the optional trace sink, and the slow-query log.
pub(crate) struct Telemetry {
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) slow: SlowQueryLog,
    next_query: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(config: &TelemetryConfig, epoch: Instant) -> Self {
        Self {
            trace: config.trace_events.then(|| {
                Arc::new(TraceSink::new(config.trace_capacity.max(TRACE_SHARDS * 8), epoch))
            }),
            slow: SlowQueryLog::new(config.slow_query_capacity),
            next_query: AtomicU64::new(0),
        }
    }

    /// Allocates the next query id (monotonic per engine).
    pub(crate) fn next_query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Emits one trace event if tracing is enabled.
    #[inline]
    pub(crate) fn emit(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.emit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord { seq, at_us: seq * 10, event: TraceEvent::Admitted { query: seq } }
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring = TraceRing::with_capacity(8);
        for i in 0..8 {
            assert!(ring.push(rec(i)));
        }
        assert!(!ring.push(rec(99)), "full ring rejects");
        for i in 0..8 {
            assert_eq!(ring.pop().expect("has records").seq, i);
        }
        assert!(ring.pop().is_none());
        // Wraps cleanly after a full cycle.
        assert!(ring.push(rec(100)));
        assert_eq!(ring.pop().unwrap().seq, 100);
    }

    #[test]
    fn ring_survives_concurrent_producers_and_consumer() {
        let ring = Arc::new(TraceRing::with_capacity(1024));
        let done = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        while !ring.push(rec(p * 1000 + i)) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                loop {
                    match ring.pop() {
                        Some(_) => seen += 1,
                        None if done.load(Ordering::Acquire) && ring.pop().is_none() => break,
                        None => std::thread::yield_now(),
                    }
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Release);
        assert_eq!(consumer.join().unwrap(), 2000, "nothing lost, nothing duplicated");
    }

    #[test]
    fn sink_orders_drain_by_sequence() {
        let sink = TraceSink::new(1024, Instant::now());
        for q in 0..50u64 {
            sink.emit(TraceEvent::Admitted { query: q });
        }
        let drained = sink.drain();
        assert_eq!(drained.len(), 50);
        for (i, r) in drained.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        assert_eq!(sink.dropped(), 0);
        assert!(sink.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn sink_counts_drops_when_saturated() {
        // Tiny capacity, single thread => one shard of >= 8 slots.
        let sink = TraceSink::new(1, Instant::now());
        for q in 0..100u64 {
            sink.emit(TraceEvent::Admitted { query: q });
        }
        let drained = sink.drain();
        assert!(!drained.is_empty());
        assert_eq!(drained.len() as u64 + sink.dropped(), 100);
        assert!(sink.dropped() > 0, "overflow must be visible");
    }

    #[test]
    fn slow_log_keeps_the_worst() {
        let log = SlowQueryLog::new(3);
        for (q, us) in [(0u64, 50u64), (1, 500), (2, 10), (3, 5000), (4, 100), (5, 700)] {
            log.record(SlowQuery {
                query: q,
                elapsed_us: us,
                path: ServePath::Race,
                conclusive: true,
                winner: None,
                entrants: Vec::new(),
            });
        }
        let worst = log.worst();
        let ids: Vec<u64> = worst.iter().map(|e| e.query).collect();
        assert_eq!(ids, vec![3, 5, 1], "worst three, descending");
    }

    #[test]
    fn slow_log_capacity_zero_disables() {
        let log = SlowQueryLog::new(0);
        log.record(SlowQuery {
            query: 0,
            elapsed_us: 1 << 40,
            path: ServePath::Race,
            conclusive: false,
            winner: None,
            entrants: Vec::new(),
        });
        assert!(log.worst().is_empty());
    }

    #[test]
    fn terminal_event_classification() {
        assert!(TraceEvent::CacheHit { query: 1, elapsed_us: 5 }.is_terminal());
        assert!(TraceEvent::Finalized {
            query: 1,
            conclusive: true,
            cancelled: false,
            winner: None,
            elapsed_us: 5
        }
        .is_terminal());
        assert!(!TraceEvent::Admitted { query: 1 }.is_terminal());
        assert!(!TraceEvent::Parked { query: 1, depth: 4 }.is_terminal());
        assert!(!TraceEvent::Unparked { query: 1, waited_us: 250 }.is_terminal());
        assert_eq!(TraceEvent::Parked { query: 9, depth: 1 }.query(), 9);
        assert!(!TraceEvent::HeatLaunched { query: 1, launched: 2, reserved: 1 }.is_terminal());
        assert_eq!(TraceEvent::Escalated { query: 7, launched: 3 }.query(), 7);
        assert!(!TraceEvent::SliceSpawned { query: 2, entrant: 0, slice: 1 }.is_terminal());
        assert_eq!(
            TraceEvent::SliceFinished { query: 8, entrant: 1, slice: 2, chunks: 3, wall_us: 40 }
                .query(),
            8
        );
    }
}
