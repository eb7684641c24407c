//! Engine observability: lock-cheap counters plus log-bucketed latency
//! histograms, with a point-in-time [`EngineStats`] snapshot for
//! dashboards and benches.
//!
//! The histograms are HDR-style: a linear region below 32 µs, then 32
//! sub-buckets per power-of-two octave, which bounds the relative bucket
//! width at 1/32 (~3.1%). Every recorded value lands in a bucket with a
//! single relaxed atomic add, so percentiles are exact-to-bucket over
//! *all* observations — no sampling, no reservoir drift — and two
//! histograms merge by adding bucket counts, which is how the registry
//! builds `MultiEngine` aggregate percentiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `1 << SUB_BITS` linear buckets.
const SUB_BITS: usize = 5;
/// Buckets per octave (and the size of the initial linear region).
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: the linear region `[0, 32)` plus 59 octaves
/// (floor(log2) in `5..=63`) of 32 sub-buckets each, covering the rest of
/// the `u64` range.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS) * SUB_BUCKETS;

/// Bucket index for a microsecond value. Total order is preserved:
/// `a <= b` implies `bucket_index(a) <= bucket_index(b)`.
fn bucket_index(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        us as usize
    } else {
        let top = 63 - us.leading_zeros() as usize; // floor(log2), >= SUB_BITS
        ((top - SUB_BITS) << SUB_BITS) + (us >> (top - SUB_BITS)) as usize
    }
}

/// Largest microsecond value that lands in bucket `index` (the bound the
/// percentile estimator reports, so estimates never undershoot).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let octave = (index >> SUB_BITS) - 1;
        let sub = (index - (octave << SUB_BITS)) as u128;
        // 128-bit shift: the very last bucket's bound is 2^64 - 1.
        (((sub + 1) << octave) - 1).min(u64::MAX as u128) as u64
    }
}

/// A mergeable log-bucketed latency histogram over microsecond values.
///
/// Recording is wait-free (one relaxed `fetch_add`); reading is a scan of
/// ~1.9k buckets. Memory: 15 KiB of `AtomicU64` per histogram.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self { buckets, count: AtomicU64::new(0), sum_us: AtomicU64::new(0) }
    }

    /// Records one microsecond observation.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one duration, saturating to whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded microsecond values.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self`. This is the
    /// `MultiEngine` aggregation primitive: merged percentiles equal
    /// percentiles of the pooled observations, to within bucket error.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_us.fetch_add(other.sum_us(), Ordering::Relaxed);
    }

    /// The `q`-quantile in microseconds (upper bound of the bucket holding
    /// the rank-`ceil(q * (n - 1))` observation, 0-based — so p99 of 100
    /// samples reads rank 99, never rank 98). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).ceil() as u64;
        let mut seen = 0u64;
        let mut last_nonzero = 0usize;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            last_nonzero = i;
            seen += c;
            if seen > rank {
                return bucket_upper(i);
            }
        }
        // `count` can momentarily lead the bucket sums under concurrent
        // recording; fall back to the largest populated bucket.
        bucket_upper(last_nonzero)
    }

    /// [`Self::percentile`] as a `Duration`.
    pub fn percentile_duration(&self, q: f64) -> Duration {
        Duration::from_micros(self.percentile(q))
    }

    /// A point-in-time copy of the populated buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_upper(i), c))
            })
            .collect();
        HistogramSnapshot { buckets, count: self.count(), sum_us: self.sum_us() }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("sum_us", &self.sum_us())
            .field("p50_us", &self.percentile(0.50))
            .field("p99_us", &self.percentile(0.99))
            .finish()
    }
}

/// A frozen copy of a [`LatencyHistogram`]: the populated buckets as
/// `(inclusive upper bound in µs, count)` pairs in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Populated buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed microsecond values.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile in microseconds under the same rank convention as
    /// [`LatencyHistogram::percentile`]. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen > rank {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(bound, _)| bound)
    }

    /// Pools another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u64, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ba, ca)), Some(&&(bb, cb))) => {
                    if ba == bb {
                        merged.push((ba, ca + cb));
                        a.next();
                        b.next();
                    } else if ba < bb {
                        merged.push((ba, ca));
                        a.next();
                    } else {
                        merged.push((bb, cb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Mean observed value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// Per-stage latency percentiles carried in [`EngineStats`]: where a
/// query's wall-clock went, split at the stage boundaries the trace
/// events mark (admission → setup start → finalize start → fulfilled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageLatencies {
    /// Median admission-to-setup queue wait.
    pub queue_p50: Duration,
    /// p99 admission-to-setup queue wait.
    pub queue_p99: Duration,
    /// Median setup-to-finalize race time (includes fast heats).
    pub race_p50: Duration,
    /// p99 setup-to-finalize race time.
    pub race_p99: Duration,
    /// Median finalize cost (result assembly, cache store, fulfillment).
    pub finalize_p50: Duration,
    /// p99 finalize cost.
    pub finalize_p99: Duration,
}

/// Live counters updated by the serving path.
pub(crate) struct StatsCollector {
    started: Instant,
    pub queries: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub races: AtomicU64,
    pub fast_paths: AtomicU64,
    pub fast_path_fallbacks: AtomicU64,
    /// Fast heats whose leader finished inconclusive, launching the reserve.
    pub fallbacks_inconclusive: AtomicU64,
    /// Fast heats whose leader outlived the stage deadline, launching the
    /// reserve.
    pub fallbacks_deadline: AtomicU64,
    /// Misses raced because the ranking's leader share was under
    /// `predictor_confidence`.
    pub races_unconfident: AtomicU64,
    /// Misses raced because the predictor had too few observations.
    pub races_untrained: AtomicU64,
    pub cancelled_variants: AtomicU64,
    pub busy_rejections: AtomicU64,
    pub queue_full_rejections: AtomicU64,
    pub parked: AtomicU64,
    pub inconclusive: AtomicU64,
    pub topk_races: AtomicU64,
    pub pruned_entrants: AtomicU64,
    pub escalations: AtomicU64,
    /// Races whose heat entrants ran sliced (intra-query parallelism).
    pub sliced_races: AtomicU64,
    /// Slice tasks submitted to the pool across all sliced entrants.
    pub slices_spawned: AtomicU64,
    /// Chunk claims beyond each slice task's first — work stolen from
    /// straggling siblings.
    pub slice_steals: AtomicU64,
    pub edge_probes_bitset: AtomicU64,
    pub edge_probes_binary: AtomicU64,
    /// Learned-state WAL records appended while serving (0 until
    /// persistence is attached by save/load).
    pub wal_appended: AtomicU64,
    /// Learned-state WAL records replayed into the predictor at load.
    pub wal_replayed: AtomicU64,
    /// Graph-mutation batches applied while serving.
    pub updates_applied: AtomicU64,
    /// Delta-overlay compactions folded into a new graph epoch.
    pub compactions: AtomicU64,
    /// Total wall-clock spent compacting (materialize + index rebuild +
    /// epoch install), microseconds.
    pub compaction_time_us: AtomicU64,
    /// Times this tenant's cache partition was invalidated wholesale —
    /// once per applied update batch and once per epoch swap.
    pub cache_invalidations: AtomicU64,
    /// End-to-end served latency (admission or cache probe → fulfilled).
    pub latency: LatencyHistogram,
    /// Admission → setup-start queue wait.
    pub queue_wait: LatencyHistogram,
    /// Waiting-room park time: submission → slot hand-off, for queries that
    /// parked (disjoint from `queue_wait`, which starts at admission).
    pub park_wait: LatencyHistogram,
    /// Setup-start → finalize-start race stage.
    pub race_stage: LatencyHistogram,
    /// Finalize body (result assembly through fulfillment).
    pub finalize_stage: LatencyHistogram,
}

impl StatsCollector {
    pub fn new() -> Self {
        Self::since(Instant::now())
    }

    /// A zeroed collector whose uptime (and so throughput) is measured
    /// from `started`.
    pub fn since(started: Instant) -> Self {
        Self {
            started,
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            races: AtomicU64::new(0),
            fast_paths: AtomicU64::new(0),
            fast_path_fallbacks: AtomicU64::new(0),
            fallbacks_inconclusive: AtomicU64::new(0),
            fallbacks_deadline: AtomicU64::new(0),
            races_unconfident: AtomicU64::new(0),
            races_untrained: AtomicU64::new(0),
            cancelled_variants: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            queue_full_rejections: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            inconclusive: AtomicU64::new(0),
            topk_races: AtomicU64::new(0),
            pruned_entrants: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            sliced_races: AtomicU64::new(0),
            slices_spawned: AtomicU64::new(0),
            slice_steals: AtomicU64::new(0),
            edge_probes_bitset: AtomicU64::new(0),
            edge_probes_binary: AtomicU64::new(0),
            wal_appended: AtomicU64::new(0),
            wal_replayed: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_time_us: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            park_wait: LatencyHistogram::new(),
            race_stage: LatencyHistogram::new(),
            finalize_stage: LatencyHistogram::new(),
        }
    }

    /// Folds one search's edge-probe counters into the engine totals.
    /// Matchers count probes in plain `u64`s per search; the two atomic
    /// adds here run once per entrant result, not once per probe.
    pub fn record_probes(&self, stats: &psi_matchers::SearchStats) {
        if stats.edge_probes_bitset > 0 {
            self.edge_probes_bitset.fetch_add(stats.edge_probes_bitset, Ordering::Relaxed);
        }
        if stats.edge_probes_binary > 0 {
            self.edge_probes_binary.fetch_add(stats.edge_probes_binary, Ordering::Relaxed);
        }
    }

    /// Adds every counter and histogram of `other` into `self` — the
    /// `MultiEngine` aggregation primitive: a collector merged from every
    /// tenant snapshots to the pooled statistics (summed counters,
    /// percentiles over the pooled observations).
    pub fn merge_from(&self, other: &StatsCollector) {
        let add = |mine: &AtomicU64, theirs: &AtomicU64| {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        };
        add(&self.queries, &other.queries);
        add(&self.cache_hits, &other.cache_hits);
        add(&self.cache_misses, &other.cache_misses);
        add(&self.races, &other.races);
        add(&self.fast_paths, &other.fast_paths);
        add(&self.fast_path_fallbacks, &other.fast_path_fallbacks);
        add(&self.fallbacks_inconclusive, &other.fallbacks_inconclusive);
        add(&self.fallbacks_deadline, &other.fallbacks_deadline);
        add(&self.races_unconfident, &other.races_unconfident);
        add(&self.races_untrained, &other.races_untrained);
        add(&self.cancelled_variants, &other.cancelled_variants);
        add(&self.busy_rejections, &other.busy_rejections);
        add(&self.queue_full_rejections, &other.queue_full_rejections);
        add(&self.parked, &other.parked);
        add(&self.inconclusive, &other.inconclusive);
        add(&self.topk_races, &other.topk_races);
        add(&self.pruned_entrants, &other.pruned_entrants);
        add(&self.escalations, &other.escalations);
        add(&self.sliced_races, &other.sliced_races);
        add(&self.slices_spawned, &other.slices_spawned);
        add(&self.slice_steals, &other.slice_steals);
        add(&self.edge_probes_bitset, &other.edge_probes_bitset);
        add(&self.edge_probes_binary, &other.edge_probes_binary);
        add(&self.wal_appended, &other.wal_appended);
        add(&self.wal_replayed, &other.wal_replayed);
        add(&self.updates_applied, &other.updates_applied);
        add(&self.compactions, &other.compactions);
        add(&self.compaction_time_us, &other.compaction_time_us);
        add(&self.cache_invalidations, &other.cache_invalidations);
        self.latency.merge_from(&other.latency);
        self.queue_wait.merge_from(&other.queue_wait);
        self.park_wait.merge_from(&other.park_wait);
        self.race_stage.merge_from(&other.race_stage);
        self.finalize_stage.merge_from(&other.finalize_stage);
    }

    /// Records one served query's end-to-end latency.
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record_duration(latency);
    }

    /// Per-stage percentile snapshot.
    pub(crate) fn stage_latencies(&self) -> StageLatencies {
        StageLatencies {
            queue_p50: self.queue_wait.percentile_duration(0.50),
            queue_p99: self.queue_wait.percentile_duration(0.99),
            race_p50: self.race_stage.percentile_duration(0.50),
            race_p99: self.race_stage.percentile_duration(0.99),
            finalize_p50: self.finalize_stage.percentile_duration(0.50),
            finalize_p99: self.finalize_stage.percentile_duration(0.99),
        }
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> EngineStats {
        let queries = self.queries.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        let topk_races = self.topk_races.load(Ordering::Relaxed);
        let escalations = self.escalations.load(Ordering::Relaxed);
        EngineStats {
            uptime,
            queries,
            cache_hits: hits,
            cache_misses: misses,
            hit_rate: EngineStats::rate(hits, hits + misses),
            races: self.races.load(Ordering::Relaxed),
            fast_paths: self.fast_paths.load(Ordering::Relaxed),
            fast_path_fallbacks: self.fast_path_fallbacks.load(Ordering::Relaxed),
            fallbacks_inconclusive: self.fallbacks_inconclusive.load(Ordering::Relaxed),
            fallbacks_deadline: self.fallbacks_deadline.load(Ordering::Relaxed),
            races_unconfident: self.races_unconfident.load(Ordering::Relaxed),
            races_untrained: self.races_untrained.load(Ordering::Relaxed),
            cancelled_variants: self.cancelled_variants.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            queue_full_rejections: self.queue_full_rejections.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            waiting_room_depth: 0,
            park_wait_p50: self.park_wait.percentile_duration(0.50),
            park_wait_p99: self.park_wait.percentile_duration(0.99),
            inconclusive: self.inconclusive.load(Ordering::Relaxed),
            topk_races,
            pruned_entrants: self.pruned_entrants.load(Ordering::Relaxed),
            escalations,
            escalation_rate: EngineStats::rate(escalations, topk_races),
            sliced_races: self.sliced_races.load(Ordering::Relaxed),
            slices_spawned: self.slices_spawned.load(Ordering::Relaxed),
            slice_steals: self.slice_steals.load(Ordering::Relaxed),
            index_build_us: 0,
            edge_probes_bitset: self.edge_probes_bitset.load(Ordering::Relaxed),
            edge_probes_binary: self.edge_probes_binary.load(Ordering::Relaxed),
            wal_appended: self.wal_appended.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_us: self.compaction_time_us.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            epoch: 0,
            throughput_qps: if uptime.as_secs_f64() > 0.0 {
                queries as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            latency_p50: self.latency.percentile_duration(0.50),
            latency_p99: self.latency.percentile_duration(0.99),
            stages: self.stage_latencies(),
        }
    }
}

/// A point-in-time snapshot of the engine's serving statistics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Time since the engine was created.
    pub uptime: Duration,
    /// Queries accepted (admitted or served from cache; rejections not
    /// included).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that missed the cache.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing looked
    /// up yet.
    pub hit_rate: f64,
    /// Races run on the worker pool, escalated fast heats included (a
    /// fast heat that wins alone counts in `fast_paths` instead).
    pub races: u64,
    /// Queries answered by a fast heat alone: the predictor's leader
    /// concluded and the reserve was pruned (not counted in `races`).
    pub fast_paths: u64,
    /// Fast heats that came back inconclusive. One that escalated its
    /// reserve is also counted in `races`.
    pub fast_path_fallbacks: u64,
    /// Fast heats that escalated because their leader finished
    /// inconclusive (part of `fast_path_fallbacks`).
    pub fallbacks_inconclusive: u64,
    /// Fast heats that escalated because their leader was still running
    /// one stage window after it started (part of `fast_path_fallbacks`).
    pub fallbacks_deadline: u64,
    /// Cache misses planned as a race, not a fast heat, because the
    /// predictor's leader had a vote share under
    /// [`crate::EngineConfig::predictor_confidence`].
    pub races_unconfident: u64,
    /// Cache misses planned as a race because the predictor had fewer
    /// than [`crate::EngineConfig::predictor_min_observations`]
    /// observations.
    pub races_untrained: u64,
    /// Losing race entrants observed as cooperatively cancelled — the Ψ
    /// "kill" count.
    pub cancelled_variants: u64,
    /// Non-blocking submissions rejected hard because the engine was at
    /// its concurrent-race limit with the waiting room disabled
    /// ([`crate::EngineConfig::waiting_room`] = 0).
    pub busy_rejections: u64,
    /// Non-blocking submissions rejected because the waiting room itself
    /// was full — the burst outlived the room.
    pub queue_full_rejections: u64,
    /// Non-blocking submissions that parked in the waiting room instead
    /// of bouncing (each later launches, or is cancelled by its ticket).
    pub parked: u64,
    /// Requests parked in the waiting room *right now* (a gauge, read
    /// from the admission gate at snapshot time; for a registry tenant
    /// this is the shared gate's total across graphs).
    pub waiting_room_depth: u64,
    /// Median waiting-room park time (submission → slot hand-off) over all
    /// parked queries.
    pub park_wait_p50: Duration,
    /// 99th-percentile waiting-room park time.
    pub park_wait_p99: Duration,
    /// Served queries whose answer was not definitive (race timed out).
    pub inconclusive: u64,
    /// Staged races: a predictor-ranked first heat with the rest of the
    /// field held back as an escalation reserve
    /// ([`crate::RaceStrategy::Adaptive`]).
    pub topk_races: u64,
    /// Entrants that never launched because their race's pruned heat
    /// decided the answer without them.
    pub pruned_entrants: u64,
    /// Staged races whose pruned heat was inconclusive by the stage
    /// deadline and launched the remaining entrants.
    pub escalations: u64,
    /// `escalations / topk_races`, 0 when no race was staged. Low is the
    /// predictor earning its keep; 1.0 means pruning never helps.
    pub escalation_rate: f64,
    /// Races whose heat entrants ran with intra-query slicing — the
    /// adaptive scheduler split their root-candidate space across
    /// cooperating pool tasks ([`crate::RaceStrategy::Adaptive`]).
    pub sliced_races: u64,
    /// Slice tasks submitted across all sliced races
    /// (`Σ heat entrants × slices`).
    pub slices_spawned: u64,
    /// Root-candidate ranges stolen by slice tasks beyond their first
    /// claim — how much the work-stealing cursor actually rebalanced.
    pub slice_steals: u64,
    /// Wall-clock cost of building this graph's shared `TargetIndex` at
    /// registration, microseconds (summed across graphs in the registry
    /// aggregate).
    pub index_build_us: u64,
    /// Adjacency probes answered by the index's dense bitset fast path.
    pub edge_probes_bitset: u64,
    /// Adjacency probes answered by binary search: CSR adjacency when no
    /// bitset was built for the graph, overlay adjacency for touched
    /// nodes.
    pub edge_probes_binary: u64,
    /// Learned-state WAL records appended while serving. Stays 0 until
    /// persistence is attached ([`crate::MultiEngine::save_graph`] /
    /// [`crate::MultiEngine::load_graph`]).
    pub wal_appended: u64,
    /// Learned-state WAL records replayed into the predictor when this
    /// graph was loaded from disk.
    pub wal_replayed: u64,
    /// Graph-mutation batches applied to the live graph while serving
    /// ([`crate::MultiEngine::apply_update`]).
    pub updates_applied: u64,
    /// Delta-overlay compactions: background or explicit rebuilds that
    /// folded the overlay into a fresh base graph and index, swapping
    /// the tenant to a new epoch.
    pub compactions: u64,
    /// Total wall-clock spent in compaction (off the serving lock:
    /// materialize + index rebuild; only the final swap blocks writers),
    /// microseconds (summed across graphs in the registry aggregate).
    pub compaction_us: u64,
    /// Wholesale cache-partition invalidations — one per applied update
    /// batch and one per epoch swap, since cached answers were computed
    /// against the earlier graph state.
    pub cache_invalidations: u64,
    /// The tenant's current graph epoch: 0 at registration, +1 per
    /// compaction (a gauge, read from the runner at snapshot time; the
    /// registry aggregate reports the **maximum** across graphs).
    pub epoch: u64,
    /// Queries per second since engine start.
    pub throughput_qps: f64,
    /// Median end-to-end latency over *all* served queries (bucketed).
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency over *all* served queries
    /// (bucketed).
    pub latency_p99: Duration,
    /// Per-stage latency breakdown (queue wait vs race vs finalize).
    pub stages: StageLatencies,
}

impl EngineStats {
    /// `part / whole` as a fraction, 0 when `whole` is 0.
    pub(crate) fn rate(part: u64, whole: u64) -> f64 {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact percentile under the histogram's rank convention:
    /// rank `ceil(q * (n - 1))`, 0-based, over the sorted samples.
    fn exact_percentile(samples: &mut [u64], q: f64) -> u64 {
        samples.sort_unstable();
        let rank = (q * (samples.len() - 1) as f64).ceil() as usize;
        samples[rank]
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            for near in [-1i64, 0, 1, 17] {
                let v = (1u128 << shift) as i128 + near as i128;
                if v < 0 || v > u64::MAX as i128 {
                    continue;
                }
                let idx = bucket_index(v as u64);
                assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
                assert!(idx >= prev || (v as u64) < bucket_upper(prev), "monotone");
                prev = prev.max(idx);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_round_trip() {
        // Every value maps into a bucket whose upper bound is >= the value
        // and within 1/32 relative error.
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 3]) {
            let ub = bucket_upper(bucket_index(v));
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert!(ub - v <= v / 32 + 1, "bucket too wide at {v}: upper {ub}");
        }
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.hit_rate, 0.0);
        assert_eq!(s.latency_p50, Duration::ZERO);
        assert_eq!(s.stages, StageLatencies::default());
    }

    #[test]
    fn percentiles_match_exact_sort_within_one_bucket() {
        // The regression the reservoir-based estimator failed: p99 of 100
        // samples must read the rank-99 sample (not rank 98), and the
        // histogram's answer must sit within one bucket width of the
        // exactly sorted value.
        let mut samples: Vec<u64> = (1..=100u64).map(|i| i * 97 + (i * i) % 31).collect();
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let exact = exact_percentile(&mut samples, q);
            let est = h.percentile(q);
            assert!(est >= exact, "q={q}: estimate {est} under exact {exact}");
            assert!(est - exact <= exact / 32 + 1, "q={q}: estimate {est} vs exact {exact}");
        }
    }

    #[test]
    fn p99_of_100_reads_the_tail_sample() {
        // 99 fast samples and one 10× straggler: the old `round()` rank
        // selection returned index 98 (a fast sample); the histogram must
        // report the straggler's bucket.
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1000);
        assert!(h.percentile(0.99) >= 1000);
        assert!(h.percentile(0.50) < 200);
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let (a, b, pooled) =
            (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        for i in 0..500u64 {
            let v = i * 13 % 7919;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            pooled.record(v);
        }
        let merged = LatencyHistogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.count(), pooled.count());
        assert_eq!(merged.sum_us(), pooled.sum_us());
        assert_eq!(merged.snapshot(), pooled.snapshot());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.percentile(q), pooled.percentile(q));
        }
    }

    #[test]
    fn snapshot_merge_matches_live_merge() {
        let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for i in 0..200u64 {
            a.record(i * 3);
            b.record(i * 11 + 5);
        }
        let live = LatencyHistogram::new();
        live.merge_from(&a);
        live.merge_from(&b);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap, live.snapshot());
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert_eq!(snap.percentile(q), live.percentile(q));
        }
    }

    #[test]
    fn escalation_rate_math() {
        let c = StatsCollector::new();
        assert_eq!(c.snapshot().escalation_rate, 0.0, "no staged races, no rate");
        c.topk_races.store(8, Ordering::Relaxed);
        c.escalations.store(2, Ordering::Relaxed);
        c.pruned_entrants.store(18, Ordering::Relaxed);
        let s = c.snapshot();
        assert!((s.escalation_rate - 0.25).abs() < 1e-12);
        assert_eq!(s.pruned_entrants, 18);
    }

    #[test]
    fn hit_rate_math() {
        let c = StatsCollector::new();
        c.cache_hits.store(3, Ordering::Relaxed);
        c.cache_misses.store(1, Ordering::Relaxed);
        assert!((c.snapshot().hit_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_absorbs_sustained_load_without_drift() {
        // The reservoir this replaces forgot old samples after 8192
        // recordings; the histogram keeps exact counts forever.
        let c = StatsCollector::new();
        for _ in 0..10_000 {
            c.record_latency(Duration::from_micros(5));
        }
        assert_eq!(c.latency.count(), 10_000);
        assert_eq!(c.snapshot().latency_p50, Duration::from_micros(5));
    }
}
