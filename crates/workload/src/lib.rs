//! # psi-workload — query workloads, caps and straggler-aware metrics
//!
//! Everything the paper's experimental methodology (§3.4–3.5) needs:
//!
//! * [`query_gen`] — the random-walk query generator: "select a graph ...
//!   uniformly and at random, and from that graph ... a node uniformly and
//!   at random. Starting from said node, we generate a query graph by
//!   incrementally adding edges chosen uniformly at random from the set of
//!   all edges adjacent to the resulting query graph, until it reaches the
//!   desired size."
//! * [`classify`] — the easy / 2″–600″ / hard query classes, parameterized
//!   by a scalable cap (the paper's 10-minute limit with its 2-second easy
//!   threshold preserved as a 1:300 ratio).
//! * [`metrics`] — WLA and QLA aggregation, the `(max/min)` isomorphic-
//!   variance metric and `speedup★`, plus summary statistics, including the
//!   paper's conventions (killed queries count at the cap; queries unhelped
//!   by every variant are excluded).
//! * [`runner`] — capped execution helpers producing per-query records.
//! * [`async_batch`] — ticket-driven batch submission through the
//!   [`psi_engine::Submit`] frontend: a few event-loop client
//!   threads keep windows of in-flight [`psi_engine::QueryTicket`]s
//!   open and drain a [`psi_engine::CompletionQueue`], reporting the
//!   in-flight high-water mark.
//! * [`net_fleet`] — loopback TCP client fleets against a
//!   [`psi_net::PsiServer`]: hundreds of pipelined connections from a
//!   few threads, feeding the CI bench artifact's `net_qps` trail.
//! * [`multi`] — multi-graph workloads (mixed graph sizes and label
//!   alphabets, Zipf-skewed per-graph traffic with repeats) and batch
//!   routing through a [`psi_engine::MultiEngine`] with per-graph
//!   breakdowns.
//! * [`streaming`] — streaming ingest: concurrent writer threads apply
//!   additive [`psi_core::GraphUpdate`] batches while a query fleet
//!   keeps reading through the delta overlay, feeding the CI bench
//!   artifact's `ingest_qps` trail.
//! * [`strategy`] — saturated-pool comparison of race strategies
//!   (full-field vs staged racing with escalation), feeding the
//!   CI bench artifact's `topk_qps` trail.
//! * [`slicing`] — idle-biased comparison of intra-query slicing
//!   ([`psi_engine::RaceStrategy::Adaptive`]) against classic one-slice
//!   racing on a heavy-tailed workload, feeding the CI bench artifact's
//!   `sliced_p99_speedup` trail.
//! * [`overhead`] — saturated-pool comparison of tracing-on vs
//!   tracing-off registries (identical otherwise), feeding the CI bench
//!   artifact's `telemetry_overhead` trail.

pub mod async_batch;
pub mod classify;
pub mod metrics;
pub mod multi;
pub mod net_fleet;
pub mod overhead;
pub mod query_gen;
pub mod runner;
pub mod slicing;
pub mod strategy;
pub mod streaming;

pub use async_batch::{submit_batch_async, AsyncBatchReport};
pub use classify::{CapConfig, Class, ClassBreakdown};
pub use metrics::{qla, speedup_star, wla, SummaryStats};
pub use multi::{
    submit_batch_multi, GraphBatchStats, MultiBatchReport, MultiWorkload, MultiWorkloadSpec,
};
pub use net_fleet::{run_net_fleet, NetFleetReport, NetFleetSpec};
pub use overhead::{compare_telemetry_overhead, OverheadSpec, TelemetryOverhead};
pub use query_gen::{QueryGen, Workloads};
pub use runner::{run_with_cap, RunRecord};
pub use slicing::{compare_slicing, SlicingComparison, SlicingSpec};
pub use strategy::{compare_race_strategies, StrategyComparison, StrategySpec};
pub use streaming::{run_streaming_ingest, StreamingReport, StreamingSpec, StreamingWorkload};
