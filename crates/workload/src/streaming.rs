//! Streaming ingest: concurrent writers mutate a served graph while a
//! query fleet keeps reading through the delta overlay.
//!
//! The live-graph subsystem promises that writes cannot starve reads
//! (both take slots in the same fair admission gate) and that epoch
//! swaps never pause in-flight races. This module measures that promise
//! as a throughput number: [`run_streaming_ingest`] drives a query
//! fleet and a writer fleet against one registered graph at the same
//! time and reports the query throughput *while ingest is running* —
//! the `ingest_qps` trail of the CI bench artifact.
//!
//! The generated mutations are **strictly additive** (fresh nodes, new
//! edges inside per-writer node territories), so every query grown from
//! the base graph must keep embedding whatever interleaving the
//! scheduler picks: subgraph embeddings are monotone under edge
//! addition. A conclusive "not found" during ingest is therefore a
//! *wrong answer*, and the report counts them — the ingest example and
//! the proptests assert the count stays zero.

use crate::metrics::SummaryStats;
use crate::query_gen::Workloads;
use psi_core::{GraphUpdate, UpdateOp};
use psi_engine::{GraphId, MultiEngine};
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of a generated streaming-ingest workload.
#[derive(Debug, Clone)]
pub struct StreamingSpec {
    /// Nodes in the stored graph (default 80).
    pub nodes: usize,
    /// Edges in the stored graph (default 180).
    pub edges: usize,
    /// Label alphabet of the stored graph (default 3).
    pub labels: u32,
    /// Edges per generated query (default 6).
    pub query_edges: usize,
    /// Distinct queries in the pool; traffic cycles through it
    /// (default 16).
    pub distinct_queries: usize,
    /// Total read requests in the traffic stream (default 240).
    pub total_queries: usize,
    /// Concurrent writer threads, each owning a disjoint node territory
    /// (default 2).
    pub writers: usize,
    /// Mutation batches each writer applies (default 8).
    pub updates_per_writer: usize,
    /// Ops per mutation batch (default 4).
    pub ops_per_update: usize,
}

impl Default for StreamingSpec {
    fn default() -> Self {
        Self {
            nodes: 80,
            edges: 180,
            labels: 3,
            query_edges: 6,
            distinct_queries: 16,
            total_queries: 240,
            writers: 2,
            updates_per_writer: 8,
            ops_per_update: 4,
        }
    }
}

/// A generated streaming workload: the stored graph, the read traffic,
/// and each writer's precomputed mutation batches.
#[derive(Debug)]
pub struct StreamingWorkload {
    /// The base graph to register and then mutate.
    pub stored: Graph,
    /// The read stream, cycled through by the query fleet. Every query
    /// is grown from `stored`, so it embeds before, during and after
    /// ingest (mutations are additive).
    pub traffic: Vec<Graph>,
    /// Per-writer batches. Writer `w` applies `batches[w]` in order;
    /// territories are disjoint, so batches never conflict whatever the
    /// cross-writer interleaving.
    pub batches: Vec<Vec<GraphUpdate>>,
}

impl StreamingWorkload {
    /// Deterministically generates a workload from `spec` and `seed`.
    pub fn generate(spec: &StreamingSpec, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let labels = LabelDist::Uniform { num_labels: spec.labels.max(1) }.sampler();
        let stored = random_connected_graph(spec.nodes.max(8), spec.edges, &labels, &mut rng);

        let pool = Workloads::nfv_workload(
            &stored,
            spec.query_edges,
            spec.distinct_queries.max(1),
            seed ^ 0x9E37_79B9_7F4A_7C15,
        );
        let mut traffic = Vec::with_capacity(spec.total_queries);
        while traffic.len() < spec.total_queries && !pool.is_empty() {
            traffic.push(pool[traffic.len() % pool.len()].clone());
        }

        // Each writer owns a contiguous node territory and only adds
        // edges inside it: additive, conflict-free, deterministic.
        let writers = spec.writers.max(1);
        let n = stored.node_count() as u32;
        let span = (n / writers as u32).max(2);
        let mut batches = Vec::with_capacity(writers);
        for w in 0..writers as u32 {
            let lo = w * span;
            let hi = if w as usize == writers - 1 { n } else { ((w + 1) * span).min(n) };
            let mut candidates: Vec<(u32, u32)> = Vec::new();
            for u in lo..hi {
                for v in (u + 1)..hi {
                    if !stored.has_edge(u, v) {
                        candidates.push((u, v));
                    }
                }
            }
            candidates.shuffle(&mut rng);
            let mut writer_batches = Vec::with_capacity(spec.updates_per_writer);
            let mut at = 0usize;
            for _ in 0..spec.updates_per_writer {
                let mut ops = Vec::with_capacity(spec.ops_per_update.max(1));
                while ops.len() < spec.ops_per_update.max(1) && at < candidates.len() {
                    let (u, v) = candidates[at];
                    at += 1;
                    ops.push(UpdateOp::AddEdge { u, v, label: None });
                }
                if ops.is_empty() {
                    // Territory saturated: fall back to an isolated
                    // fresh-labeled node, still additive and id-safe.
                    ops.push(UpdateOp::AddNode { label: spec.labels });
                }
                writer_batches.push(GraphUpdate::new(ops));
            }
            batches.push(writer_batches);
        }
        Self { stored, traffic, batches }
    }

    /// Total mutation batches across every writer.
    pub fn total_updates(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

/// Outcome of one streaming-ingest run.
#[derive(Debug)]
pub struct StreamingReport {
    /// Wall time of the combined read + write run.
    pub wall: Duration,
    /// Read requests served.
    pub queries: usize,
    /// Read throughput **while ingest was running**: queries per second
    /// over the combined wall time. The bench artifact's `ingest_qps`.
    pub ingest_qps: f64,
    /// Mutation batches applied.
    pub updates_applied: usize,
    /// Mutation batches rejected (always 0 for generated workloads —
    /// territories are disjoint and additive).
    pub update_failures: usize,
    /// Overlay folds installed as new epochs during the run (background
    /// threshold compactions plus the final forced fold).
    pub compactions: u64,
    /// Total time spent folding, microseconds.
    pub compaction_us: u64,
    /// The graph's epoch after the final forced compaction.
    pub final_epoch: u64,
    /// Conclusive "not found" answers — impossible under additive
    /// mutations, so any nonzero count is a serving bug.
    pub wrong_answers: usize,
    /// Reads that came back inconclusive (budget exhausted).
    pub inconclusive: usize,
    /// Distribution of per-read latencies, seconds.
    pub latency: Option<SummaryStats>,
}

/// Drives `workload` against `graph` on `multi`: `clients` reader
/// threads cycle through the traffic while one thread per writer
/// applies its mutation batches, all through the engine's fair
/// admission gate. After the fleets drain, a forced compaction folds
/// whatever overlay remains.
///
/// # Panics
/// Panics if `graph` is not registered with `multi`.
pub fn run_streaming_ingest(
    multi: &MultiEngine,
    graph: GraphId,
    workload: &StreamingWorkload,
    clients: usize,
) -> StreamingReport {
    let clients = clients.clamp(1, workload.traffic.len().max(1));
    let cursor = AtomicUsize::new(0);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(workload.traffic.len()));
    let wrong = AtomicUsize::new(0);
    let inconclusive = AtomicUsize::new(0);
    let applied = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for batches in &workload.batches {
            let (applied, failed) = (&applied, &failed);
            scope.spawn(move || {
                for update in batches {
                    match multi.apply_update(graph, update) {
                        Ok(_) => applied.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        for _ in 0..clients {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= workload.traffic.len() {
                    break;
                }
                let response = multi
                    .submit(graph, &workload.traffic[idx])
                    .expect("traffic targets a registered graph");
                if response.conclusive && !response.found() {
                    wrong.fetch_add(1, Ordering::Relaxed);
                }
                if !response.conclusive {
                    inconclusive.fetch_add(1, Ordering::Relaxed);
                }
                latencies.lock().expect("latency lock").push(response.elapsed.as_secs_f64());
            });
        }
    });
    let wall = start.elapsed();

    // Fold whatever overlay the threshold compactions left behind, so
    // the report's epoch/compaction numbers describe a quiesced graph.
    // A background compaction still holding the single-flight latch
    // makes the explicit fold a no-op, so retry until the overlay is
    // empty — reading the epoch before that fold installs would report
    // a graph that never swapped.
    let runner = multi.runner(graph).expect("graph is registered");
    while multi.compact(graph).expect("graph is registered").is_none() && runner.pending_ops() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = multi.graph_stats(graph).expect("graph is registered");

    let latencies = latencies.into_inner().expect("latency lock");
    StreamingReport {
        wall,
        queries: latencies.len(),
        ingest_qps: if wall.as_secs_f64() > 0.0 {
            latencies.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        updates_applied: applied.load(Ordering::Relaxed),
        update_failures: failed.load(Ordering::Relaxed),
        compactions: stats.compactions,
        compaction_us: stats.compaction_us,
        final_epoch: stats.epoch,
        wrong_answers: wrong.load(Ordering::Relaxed),
        inconclusive: inconclusive.load(Ordering::Relaxed),
        latency: SummaryStats::of(&latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::{PsiRunner, RaceBudget};
    use psi_engine::{EngineConfig, MultiEngineConfig};

    fn live_multi() -> MultiEngine {
        MultiEngine::new(MultiEngineConfig {
            workers: 2,
            max_concurrent_races: 4,
            tenant: EngineConfig {
                default_budget: RaceBudget::decision(),
                ..EngineConfig::default()
            },
        })
    }

    #[test]
    fn generated_batches_are_disjoint_and_additive() {
        let spec = StreamingSpec::default();
        let w = StreamingWorkload::generate(&spec, 7);
        assert_eq!(w.batches.len(), spec.writers);
        assert_eq!(w.total_updates(), spec.writers * spec.updates_per_writer);
        assert_eq!(w.traffic.len(), spec.total_queries);
        // Additive: no Remove* op anywhere; no edge added twice.
        let mut seen = std::collections::HashSet::new();
        for batch in w.batches.iter().flatten() {
            for op in &batch.ops {
                match *op {
                    UpdateOp::AddEdge { u, v, .. } => {
                        assert!(!w.stored.has_edge(u, v), "only new edges");
                        assert!(seen.insert((u.min(v), u.max(v))), "no duplicate adds");
                    }
                    UpdateOp::AddNode { .. } => {}
                    _ => panic!("streaming workloads are strictly additive"),
                }
            }
        }
        // Determinism.
        let w2 = StreamingWorkload::generate(&spec, 7);
        assert_eq!(w2.total_updates(), w.total_updates());
    }

    #[test]
    fn ingest_run_serves_reads_correctly_while_writing() {
        let spec =
            StreamingSpec { total_queries: 80, updates_per_writer: 6, ..StreamingSpec::default() };
        let w = StreamingWorkload::generate(&spec, 13);
        let multi = live_multi();
        let graph = multi.register("live", PsiRunner::nfv_default(&w.stored)).unwrap();

        let report = run_streaming_ingest(&multi, graph, &w, 3);
        assert_eq!(report.queries, 80);
        assert_eq!(report.wrong_answers, 0, "additive ingest cannot lose answers");
        assert_eq!(report.updates_applied, w.total_updates());
        assert_eq!(report.update_failures, 0, "disjoint territories never conflict");
        assert!(report.ingest_qps > 0.0);
        // The forced fold at the end guarantees at least one epoch bump.
        assert!(report.final_epoch >= 1, "final epoch: {}", report.final_epoch);
        assert!(report.compactions >= 1);
        assert_eq!(multi.graph_stats(graph).unwrap().updates_applied, w.total_updates() as u64);
        // The folded graph holds every added edge.
        let live = multi.runner(graph).unwrap().live_graph();
        for batch in w.batches.iter().flatten() {
            for op in &batch.ops {
                if let UpdateOp::AddEdge { u, v, .. } = *op {
                    assert!(live.has_edge(u, v), "compacted graph keeps edge ({u}, {v})");
                }
            }
        }
    }
}
