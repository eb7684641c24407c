//! # psi-engine — concurrent query serving for the Ψ-framework
//!
//! `psi_core::race` answers **one** query by racing its
//! (rewriting × algorithm) variants on freshly spawned scoped threads.
//! That is the paper's experiment setup — and exactly wrong for a server:
//! T concurrent queries × V variants spawn T×V threads, oversubscribe the
//! machine, and collapse latency. This crate is the serving layer that
//! fixes it, shaped like the long-lived engines of production graph
//! stores: one [`MultiEngine`] owns the shared resources, serves one or
//! many registered graphs, and all queries flow through it.
//!
//! * [`pool`] — a bounded [`pool::WorkerPool`] shared by every in-flight
//!   race; variants are tasks, loser cancellation still flows through the
//!   shared `CancelToken`, and total thread count is fixed at
//!   construction.
//! * [`submit`] — the unified submission API: one [`QueryRequest`]
//!   builder, the [`Submit`] trait, and a non-blocking frontend —
//!   `submit_nonblocking` returns a [`QueryTicket`] completion handle
//!   right after admission (poll / wait / [`CompletionQueue`] draining;
//!   dropping the ticket cancels the race). Races complete reactively on
//!   pooled workers, so thousands of queries can be in flight from a few
//!   client threads.
//! * [`engine`] — one tenant's serving path: admission keeping
//!   in-flight work ≤ `max_concurrent_races × variants` — blocking
//!   submissions queue by [`Priority`]; non-blocking submissions over
//!   the limit park in a bounded per-graph **waiting room** (FIFO within
//!   priority, fed by the same fair grant chain) and only bounce — with
//!   a typed [`AdmissionError`] — once the room overflows; the predictor
//!   fast heat (a confident prediction races its leader alone, inline,
//!   with the rest of the field in reserve for an inconclusive heat);
//!   deadlines anchored at admission so queueing delay counts
//!   against the race budget; and staged racing
//!   ([`RaceStrategy::Adaptive`]) — only the scheduler's predictor-ranked
//!   first heat launches, with escalation to the full field if the
//!   pruned heat is inconclusive by a fraction of the race budget.
//! * [`cache`] — query canonicalization ([`cache::QueryKey`]) feeding a
//!   sharded LRU result cache; repeated queries skip the race entirely.
//! * [`stats`] — an [`EngineStats`] snapshot: throughput, cache hit
//!   rate, races vs. fast paths, cancelled variants, and p50/p99
//!   latency from log-bucketed [`LatencyHistogram`]s covering **every**
//!   query (≤ 1/32 relative bucket error), with per-stage breakdowns
//!   (queue wait / race / finalize).
//! * [`registry`] — multi-graph serving: a [`MultiEngine`] registers
//!   named stored graphs (each with its own runner, predictor state and
//!   cache partition) and routes all of their races through **one**
//!   shared pool with fair cross-graph admission. Tenants persist via
//!   `psi_store`: [`MultiEngine::save_graph`] snapshots the graph, its
//!   `TargetIndex` and the learned predictor state (compacting the
//!   learned-state WAL); [`MultiEngine::load_graph`] cold-opens the
//!   snapshot, replays the WAL tail and serves without rebuilding or
//!   retraining.
//! * [`telemetry`] — Ψ-trace: per-query lifecycle events (admitted →
//!   setup → heat launch → per-entrant finish → escalation → finalize)
//!   buffered in lock-free per-shard rings, drained via
//!   [`MultiEngine::drain_trace`]; plus a ring-buffer slow-query log
//!   with per-entrant timing.
//! * [`export`] — a [`MetricsExporter`] rendering counters, histograms
//!   and the slow-query log as Prometheus text or a JSON snapshot.
//!
//! ```
//! use psi_core::{PsiRunner, RaceBudget};
//! use psi_engine::{EngineConfig, MultiEngine, MultiEngineConfig, QueryRequest, Submit};
//! use psi_graph::graph::graph_from_parts;
//!
//! let engine = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//! });
//! let stored = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let id = engine.register("square", PsiRunner::nfv_default(&stored)).unwrap();
//! let query = graph_from_parts(&[0, 1], &[(0, 1)]);
//! // Non-blocking submission: the ticket returns at admission, the race
//! // runs on pooled workers, and `wait` collects the answer.
//! let ticket = engine.submit_nonblocking(QueryRequest::new(query.clone()).graph(id)).unwrap();
//! let first = ticket.wait();
//! assert!(first.found());
//! let again = engine.submit(id, &query).unwrap(); // identical query: cache
//! assert_eq!(again.path, psi_engine::ServePath::CacheHit);
//! assert_eq!(again.num_matches(), first.num_matches());
//! ```
//!
//! ## Multi-graph quickstart
//!
//! One process serving several stored graphs over one shared pool —
//! register each graph, route by [`GraphId`]. Building a `PsiRunner`
//! (and therefore registering a graph) also builds its shared
//! `psi_graph::TargetIndex` once — label candidate lists, neighborhood
//! signatures and the dense adjacency bitset every racing entrant then
//! probes; the one-time cost is reported as `EngineStats::index_build_us`:
//!
//! ```
//! use psi_core::{PsiRunner, RaceBudget};
//! use psi_engine::{EngineConfig, MultiEngine, MultiEngineConfig};
//! use psi_graph::graph::graph_from_parts;
//!
//! let multi = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//! });
//! let square = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let pair = graph_from_parts(&[5, 6], &[(0, 1)]);
//! let sq = multi.register("square", PsiRunner::nfv_default(&square)).unwrap();
//! let pr = multi.register("pair", PsiRunner::nfv_default(&pair)).unwrap();
//!
//! let query = graph_from_parts(&[0, 1], &[(0, 1)]);
//! assert!(multi.submit(sq, &query).unwrap().found());
//! assert!(!multi.submit(pr, &query).unwrap().found()); // per-graph answers
//! assert_eq!(multi.graph_stats(sq).unwrap().queries, 1);
//! assert_eq!(multi.stats().queries, 2); // aggregate across graphs
//! ```

mod admission;
pub mod cache;
pub mod engine;
pub mod export;
mod flight;
pub mod pool;
pub mod registry;
pub mod scheduler;
pub mod stats;
pub mod submit;
pub mod telemetry;

pub use cache::{
    embedding_from_canonical, embedding_to_canonical, CachedAnswer, QueryKey, ShardedCache,
};
pub use engine::{
    AdmissionError, ApplyError, EngineConfig, EngineResponse, RaceStrategy, RouteError, ServePath,
    SubmitError,
};
pub use export::{GraphMetricsSnapshot, HistogramKind, MetricsExporter};
pub use pool::WorkerPool;
pub use registry::{
    GraphId, GraphRegistry, LoadReport, MultiEngine, MultiEngineConfig, PersistError,
    RegistryError, SaveReport,
};
pub use scheduler::{plan_race, RacePlan, SchedulerInputs};
pub use stats::{EngineStats, HistogramSnapshot, LatencyHistogram, StageLatencies};
pub use submit::{CompletionQueue, Priority, QueryRequest, QueryTicket, Submit};
pub use telemetry::{EntrantTiming, SlowQuery, TelemetryConfig, TraceEvent, TraceRecord};
