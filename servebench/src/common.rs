//! Pieces every workload shares: the run context, failure tallies,
//! answer checks and the engine configuration.

use crate::trace::Tracer;
use psi::core::RaceBudget;
use psi::engine::{EngineResponse, MultiEngineConfig};
use psi::graph::Graph;
use psi::matchers::matcher::is_valid_embedding;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Tracer>,
    /// Where snapshots and traces go, inside the benchmark's
    /// own directory.
    pub out_dir: PathBuf,
    /// Counts recorded at layer boundaries, next to the spans.
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Self {
        let tracer = trace.then(|| Tracer::new(Instant::now()));
        Ctx { seed, seconds, tracer, out_dir, counts: Mutex::new(BTreeMap::new()) }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn count(&self, name: &'static str, v: f64) {
        *self.counts.lock().expect("counts lock").entry(name).or_insert(0.0) += v;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.lock().expect("counts lock").get(name).copied().unwrap_or(0.0)
    }
}

/// The stored graphs are fixed, like the paper's datasets; `--seed`
/// draws the workload over them (queries, request order, update batches).
pub const DATASET_SEED: u64 = 7;

/// Failures of one operation type, against attempts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// The call itself failed (I/O, routing, rejected update).
    pub errors: u64,
    /// Admission refused the request.
    pub refused: u64,
    /// The answer came back inconclusive (the budget timed out).
    pub inconclusive: u64,
    /// A conclusive answer that is wrong.
    pub wrong: u64,
    /// An acknowledged write missing from the graph afterwards.
    pub lost: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.inconclusive + self.wrong + self.lost
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.refused += o.refused;
        self.inconclusive += o.inconclusive;
        self.wrong += o.wrong;
        self.lost += o.lost;
    }

    pub fn line(&self, op: &str) -> String {
        format!(
            "{op}: attempted {} failed {} (errors {}, refused {}, inconclusive {}, wrong {}, lost {})",
            self.attempted,
            self.failed(),
            self.errors,
            self.refused,
            self.inconclusive,
            self.wrong,
            self.lost
        )
    }
}

/// Scores one answer to a query grown from `target`: it must be
/// conclusive, found, and carry a valid embedding.
pub fn score(
    tally: &mut Tally,
    conclusive: bool,
    found: bool,
    emb: Option<&[u32]>,
    q: &Graph,
    target: &Graph,
) {
    if !conclusive {
        tally.inconclusive += 1;
    } else if !found || !emb.is_some_and(|e| is_valid_embedding(q, target, e)) {
        tally.wrong += 1;
    }
}

pub fn score_response(tally: &mut Tally, resp: &EngineResponse, q: &Graph, target: &Graph) {
    let emb = resp.answer.embeddings.first().map(Vec::as_slice);
    score(tally, resp.conclusive, resp.found(), emb, q, target);
}

/// Engine defaults, except the tenant budget: decision queries with a
/// timeout far above any answer this benchmark expects.
pub fn engine_config(timeout: Duration) -> MultiEngineConfig {
    let mut config = MultiEngineConfig::default();
    config.tenant.default_budget = RaceBudget::decision().timeout(timeout);
    config
}

/// Median of a small sample of seconds.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Which serving path answered: 0 cache hit, 1 fast path, 2 race.
pub const PATH_SPANS: [&str; 3] = ["engine.serve.hit", "engine.serve.fast", "engine.serve.race"];

/// The measured phase is cut into this many equal windows, and every
/// reported throughput and latency percentile is the median over the
/// windows: one window hit by a passing stall of the shared machine does
/// not move the result.
pub const BLOCKS: usize = 3;

/// Latencies (ns) in log-linear buckets: exact below 1024 ns, and 512
/// buckets per power of two above, so a percentile is off by at most
/// 0.2%. Memory stays fixed however long the run is.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; Self::bucket(u64::MAX) + 1], n: 0 }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < 1024 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as usize;
        1024 + (e - 10) * 512 + (v >> (e - 9)) as usize - 512
    }

    /// The middle of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < 1024 {
            return i as u64;
        }
        let (e, m) = (10 + (i - 1024) / 512, 512 + (i - 1024) % 512);
        ((m as u64) << (e - 9)) + (1u64 << (e - 9)) / 2
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p`, ns; 0 when empty.
    pub fn pct(&self, p: f64) -> u64 {
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        0
    }
}

/// One window of the measured phase: its latencies and the span from
/// its first request's start to its last answer.
#[derive(Default)]
pub struct Window {
    pub lat: Hist,
    span: Option<(Instant, Instant)>,
}

impl Window {
    pub fn record(&mut self, start: Instant, end: Instant) {
        self.lat.record(ns(end.saturating_duration_since(start)));
        let (first, last) = self.span.get_or_insert((start, end));
        *first = (*first).min(start);
        *last = (*last).max(end);
    }

    pub fn merge(&mut self, other: Window) {
        self.lat.merge(&other.lat);
        if let Some((s, e)) = other.span {
            let (first, last) = self.span.get_or_insert((s, e));
            *first = (*first).min(s);
            *last = (*last).max(e);
        }
    }

    /// Requests answered per second of the window.
    pub fn rate(&self) -> f64 {
        self.span.map_or(0.0, |(s, e)| self.lat.len() as f64 / (e - s).as_secs_f64())
    }
}

pub type Blocks = [Window; BLOCKS];

pub fn merge_blocks(all: &mut Blocks, mine: Blocks) {
    for (a, m) in all.iter_mut().zip(mine) {
        a.merge(m);
    }
}

/// The window that `part` of `whole` falls in.
pub fn block_of(part: f64, whole: f64) -> usize {
    ((part / whole * BLOCKS as f64) as usize).min(BLOCKS - 1)
}

/// Everything a workload's measured phase hands to the report.
#[derive(Default)]
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub reads: Tally,
    pub writes: Tally,
    /// Reads and writes by window of the measured phase.
    pub reads_by_window: Blocks,
    pub writes_by_window: Blocks,
    /// Traced run only: latencies of the traced and untraced halves.
    pub lat_traced: Hist,
    pub lat_untraced: Hist,
    /// Reads per serving path (cache hit, fast path, race).
    pub paths: [u64; 3],
    pub races: u64,
    pub cancelled: u64,
    pub compactions: u64,
}
