//! # psi — the Ψ-framework umbrella crate
//!
//! Reproduction of *"Subgraph Querying with Parallel Use of Query Rewritings
//! and Alternative Algorithms"* (Katsarou, Ntarmos, Triantafillou — EDBT
//! 2017). This crate re-exports every sub-crate of the workspace so
//! downstream users need a single dependency:
//!
//! * [`graph`] — labeled CSR graphs, generators, dataset presets;
//! * [`matchers`] — the NFV subgraph-isomorphism algorithms (VF2, Ullmann,
//!   QuickSI, GraphQL, sPath) behind a common [`matchers::Matcher`] trait;
//! * [`ftv`] — the filter-then-verify systems (Grapes, GGSX) over multi-graph
//!   databases;
//! * [`rewrite`] — the isomorphic query rewritings (ILF, IND, DND, ILF+IND,
//!   ILF+DND, random);
//! * [`core`] — the Ψ-framework itself: parallel racing of
//!   (rewriting × algorithm) variants with cooperative cancellation,
//!   plus the live-graph surface (psi-delta): [`core::GraphUpdate`]
//!   mutation batches applied as a delta overlay over the immutable
//!   base CSR, epoch-pinned views for in-flight races, and background
//!   compaction folding the overlay into a fresh graph + index;
//! * [`engine`] — the concurrent query-serving subsystem: a bounded
//!   worker pool shared by all in-flight races, admission control with
//!   backpressure, a sharded result cache over canonicalized queries,
//!   a predictor fast path — with serving statistics — the unified
//!   [`engine::Submit`] frontend (one `QueryRequest` builder; tickets
//!   from `submit_nonblocking` complete reactively, so thousands of
//!   queries can be in flight from a few client threads) and the
//!   multi-graph registry (`MultiEngine`) multiplexing many stored
//!   graphs over one shared pool with fair cross-graph admission;
//! * [`store`] — zero-copy persistence: sectioned, checksummed snapshots
//!   of a stored graph + its [`graph::TargetIndex`] + the learned
//!   predictor state, plus the append-only learned-state WAL —
//!   `MultiEngine::save_graph` / `load_graph` cold-open a tenant in
//!   milliseconds without rebuilding the index or retraining;
//! * [`net`] — the wire frontend: a std-only length-prefixed binary
//!   codec ([`net::QueryFrame`] / [`net::ReplyFrame`]), the
//!   [`net::PsiServer`] event-loop TCP server multiplexing many
//!   connections over a few threads through the non-blocking ticket
//!   frontend (over-limit bursts park in the engine's waiting room
//!   instead of bouncing), and the blocking [`net::PsiClient`];
//! * [`workload`] — query-workload generation and the paper's metric
//!   machinery (easy/2″–600″/hard classes, WLA/QLA, (max/min), speedup★),
//!   plus batch submission of whole workloads through an engine.
//!
//! ## Quickstart: one query
//!
//! ```
//! use psi::prelude::*;
//!
//! // A small stored graph and a triangle query.
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let query = Workloads::single_query(&stored, 8, 7).expect("query");
//!
//! // Race GraphQL and sPath on the original query plus an ILF rewriting.
//! let psi = PsiRunner::nfv_default(&stored);
//! let outcome = psi.race(&query, RaceBudget::with_max_matches(1));
//! assert!(outcome.winner().is_some());
//! ```
//!
//! ## Quickstart: serving concurrent traffic
//!
//! One-shot races spawn threads per query — fine for experiments, wrong
//! for a server. The engine ([`engine::MultiEngine`]) owns a fixed
//! worker pool, admission queue and result cache; submissions go
//! through the [`engine::Submit`] frontend as [`engine::QueryRequest`]s
//! routed to a registered graph, and the non-blocking path hands back a
//! ticket at admission (no thread parks per query):
//!
//! ```
//! use psi::prelude::*;
//!
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let engine = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//!     ..MultiEngineConfig::default()
//! });
//! let yeast = engine.register("yeast", PsiRunner::nfv_default(&stored)).unwrap();
//! let query = Workloads::single_query(&stored, 8, 7).expect("query");
//! // Non-blocking: a ticket at admission, the race on the pool.
//! let ticket = engine.submit_nonblocking(QueryRequest::new(query.clone()).graph(yeast)).unwrap();
//! let cold = ticket.wait();
//! // Blocking convenience (= submit_queued + wait); identical query: cache hit.
//! let warm = engine.submit(yeast, &query).unwrap();
//! assert_eq!(cold.found(), warm.found());
//! assert!(engine.stats().cache_hits >= 1);
//! ```
//!
//! ## Quickstart: many graphs, one process
//!
//! A [`engine::MultiEngine`] registers named stored graphs and serves
//! them all from one shared worker pool — per-graph caches and stats,
//! fair admission across graphs. Registration also builds the graph's
//! shared [`graph::TargetIndex`] (label lists, signatures, adjacency
//! bitset) exactly once — tens of microseconds for graphs this size,
//! reported as `EngineStats::index_build_us` — so no query ever pays
//! that setup again:
//!
//! ```
//! use psi::prelude::*;
//! use psi::engine::{MultiEngine, MultiEngineConfig};
//!
//! let multi = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig {
//!         default_budget: RaceBudget::decision(),
//!         ..EngineConfig::default()
//!     },
//! });
//! let yeast = psi::graph::datasets::yeast_like(0.05, 42);
//! let human = psi::graph::datasets::human_like(0.05, 43);
//! let y = multi.register("yeast", PsiRunner::nfv_default(&yeast)).unwrap();
//! let h = multi.register("human", PsiRunner::nfv_default(&human)).unwrap();
//!
//! let query = Workloads::single_query(&yeast, 6, 7).expect("query");
//! let on_yeast = multi.submit(y, &query).unwrap();
//! let on_human = multi.submit(h, &query).unwrap(); // same query, other graph
//! assert!(on_yeast.found());
//! assert!(on_yeast.conclusive && on_human.conclusive);
//! assert_eq!(multi.stats().queries, 2);
//! ```
//!
//! ## Quickstart: save, restart, cold-open
//!
//! A tenant's whole serving state — graph CSR, `TargetIndex` sections,
//! predictor samples and tallies — snapshots to one file, and the
//! learning that accrues afterwards appends to a sibling WAL. A fresh
//! process `load_graph`s the snapshot, replays the WAL, and answers its
//! first query with the index and training it shut down with:
//!
//! ```
//! use psi::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("psi-doc-persist-{}", std::process::id()));
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let query = Workloads::single_query(&stored, 6, 7).expect("query");
//!
//! // First life: register, serve, save.
//! let warm = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//! });
//! let y = warm.register("yeast", PsiRunner::nfv_default(&stored)).unwrap();
//! let before = warm.submit(y, &query).unwrap();
//! let saved = warm.save_graph(y, &dir).unwrap();
//!
//! // Second life: cold-open from disk — no index rebuild, no retraining.
//! let cold = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//! });
//! let loaded = cold.load_graph(&saved.snapshot_path).unwrap();
//! assert_eq!(loaded.name, "yeast");
//! assert!(!loaded.index_rebuilt);
//! let after = cold.submit(loaded.graph, &query).unwrap();
//! assert_eq!(before.found(), after.found());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Quickstart: mutate while serving
//!
//! Tenants are live: [`engine::MultiEngine::apply_update`] applies an
//! atomic [`core::GraphUpdate`] batch as a delta overlay probed by
//! every matcher — queries keep flowing, the tenant's cache partition
//! invalidates, and the batch lands in the WAL so a cold open replays
//! it. When the overlay grows past `EngineConfig::compact_threshold`
//! pending ops, a background compaction folds it into a fresh CSR +
//! rebuilt index installed as a new epoch; races already in flight
//! stay pinned to the epoch they started under:
//!
//! ```
//! use psi::prelude::*;
//! use psi::core::{GraphUpdate, UpdateOp};
//!
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let multi = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//! });
//! let y = multi.register("yeast", PsiRunner::nfv_default(&stored)).unwrap();
//! let query = Workloads::single_query(&stored, 6, 7).expect("query");
//! let before = multi.submit(y, &query).unwrap();
//!
//! // Wire a fresh node into the graph while the tenant serves.
//! let n = stored.node_count() as u32;
//! let epoch = multi.apply_update(y, &GraphUpdate::new(vec![
//!     UpdateOp::AddNode { label: 0 },
//!     UpdateOp::AddEdge { u: 0, v: n, label: None },
//! ])).unwrap();
//! assert_eq!(epoch, 0); // still epoch 0: serving through the overlay
//!
//! // Additive updates only grow the answer set.
//! let after = multi.submit(y, &query).unwrap();
//! assert_eq!(before.found(), after.found());
//!
//! // Force a compaction: overlay folds into a new epoch's base graph.
//! let folded = multi.compact(y).unwrap().expect("pending ops fold");
//! assert_eq!(folded.folded_ops, 2);
//! assert_eq!(multi.epoch(y), Some(1));
//! assert_eq!(multi.submit(y, &query).unwrap().found(), before.found());
//! ```
//!
//! ## Quickstart: serving over the wire
//!
//! [`net::PsiServer`] is the engine on a TCP port: length-prefixed
//! binary frames in, verdicts out, every connection multiplexed over
//! a few event-loop threads via the same ticket frontend as above —
//! so a burst beyond `max_concurrent_races` parks in the waiting room
//! instead of bouncing with `Busy`. [`net::loopback`] binds an
//! ephemeral port for tests and examples; `examples/net_serving.rs`
//! drives a 256-connection fleet >100x over the race limit through
//! one server with zero refusals:
//!
//! ```
//! use psi::prelude::*;
//! use std::sync::Arc;
//!
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let multi = Arc::new(MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     max_concurrent_races: 2,
//!     tenant: EngineConfig {
//!         default_budget: RaceBudget::decision(),
//!         ..EngineConfig::default()
//!     },
//! }));
//! multi.register("yeast", PsiRunner::nfv_default(&stored)).unwrap();
//!
//! // A real TCP server on an ephemeral loopback port.
//! let server = psi::net::loopback(Arc::clone(&multi), 1).unwrap();
//! let mut client = PsiClient::connect(server.addr()).unwrap();
//!
//! // Requests are QueryFrames: graph index 0, any correlation tag.
//! let query = Workloads::single_query(&stored, 6, 7).expect("query");
//! let mut frame = QueryFrame::new(0, &query);
//! frame.tag = 7;
//! let reply = client.roundtrip(&frame).unwrap();
//! assert_eq!(reply.tag, 7);
//! assert_eq!(reply.status, WireStatus::Ok);
//! assert!(reply.verdict.unwrap().conclusive);
//! assert_eq!(multi.stats().queries, 1);
//! ```
//!
//! ## Quickstart: observability (Ψ-trace)
//!
//! Every engine buffers per-query lifecycle events (admitted → setup →
//! heat launch → per-entrant finish → finalize) in lock-free rings,
//! keeps log-bucketed latency histograms over **all** queries (with
//! queue/race/finalize stage breakdowns), and remembers its worst
//! queries with per-entrant timing. Drain the trace, read the stage
//! percentiles, or render everything for a scraper:
//!
//! ```
//! use psi::prelude::*;
//!
//! let stored = psi::graph::datasets::yeast_like(0.05, 42);
//! let engine = MultiEngine::new(MultiEngineConfig {
//!     workers: 2,
//!     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
//!     ..MultiEngineConfig::default()
//! });
//! let yeast = engine.register("yeast", PsiRunner::nfv_default(&stored)).unwrap();
//! let query = Workloads::single_query(&stored, 8, 7).expect("query");
//! engine.submit(yeast, &query).unwrap();
//!
//! // The trace: one Admitted and one terminal event per accepted query,
//! // tagged with the graph that emitted it.
//! let events = engine.drain_trace();
//! assert!(events.iter().any(|(g, r)| *g == yeast && r.event.is_terminal()));
//! // Stage percentiles from histograms covering every query.
//! assert!(engine.stats().stages.race_p99 >= engine.stats().stages.race_p50);
//! // Slow-query log and exporter (Prometheus text / JSON snapshot).
//! assert!(!engine.slow_queries().is_empty());
//! let scrape = engine.exporter().render_prometheus();
//! assert!(scrape.contains("psi_queries_total{graph=\"yeast\"} 1"));
//! ```

pub use psi_core as core;
pub use psi_engine as engine;
pub use psi_ftv as ftv;
pub use psi_graph as graph;
pub use psi_matchers as matchers;
pub use psi_net as net;
pub use psi_rewrite as rewrite;
pub use psi_store as store;
pub use psi_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use psi_core::{
        Compaction, GraphUpdate, PsiConfig, PsiOutcome, PsiRunner, RaceBudget, UpdateOp, Variant,
    };
    pub use psi_engine::{
        AdmissionError, CompletionQueue, EngineConfig, EngineResponse, EngineStats, EntrantTiming,
        GraphId, LoadReport, MetricsExporter, MultiEngine, MultiEngineConfig, PersistError,
        Priority, QueryRequest, QueryTicket, RaceStrategy, RouteError, SaveReport, ServePath,
        SlowQuery, Submit, SubmitError, TelemetryConfig, TraceEvent, TraceRecord,
    };
    pub use psi_ftv::{GgsxIndex, GrapesIndex, GraphDb};
    pub use psi_graph::{Graph, GraphBuilder, LabelStats, Permutation};
    pub use psi_matchers::{MatchResult, Matcher, SearchBudget, StopReason};
    pub use psi_net::{PsiClient, PsiServer, QueryFrame, ReplyFrame, ServerConfig, WireStatus};
    pub use psi_rewrite::{rewrite_query, Rewriting};
    pub use psi_workload::{
        compare_race_strategies, compare_telemetry_overhead, run_net_fleet, submit_batch_async,
        submit_batch_multi, AsyncBatchReport, MultiBatchReport, MultiWorkload, MultiWorkloadSpec,
        NetFleetReport, NetFleetSpec, OverheadSpec, QueryGen, StrategyComparison, StrategySpec,
        TelemetryOverhead, Workloads,
    };
}
