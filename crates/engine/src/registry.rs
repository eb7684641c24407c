//! Multi-graph serving: a registry of named stored graphs multiplexed
//! over **one** shared worker pool.
//!
//! The paper evaluates Ψ across several datasets; a production graph
//! store serves all of them from one process. [`MultiEngine`] is that
//! layer: each registered graph keeps its own [`psi_core::PsiRunner`]
//! (prepared matchers and indexes), its own predictor state, its own
//! result-cache partition and its own [`EngineStats`] — but every race,
//! from every graph, drains into a single [`WorkerPool`], and admission
//! slots are arbitrated *across* graphs by a fair gate.
//!
//! **Cache partitioning.** Logically the result cache is keyed by
//! `(graph_id, QueryKey)`; physically each tenant owns a private
//! [`crate::ShardedCache`] partition, which makes the two multi-tenant
//! guarantees structural: identical queries against different graphs can
//! never collide (distinct partitions), and one graph's eviction churn
//! can never push another graph's hot entries out (distinct capacities).
//!
//! **Fair admission.** Slots are arbitrated across graphs by one
//! max–min fair gate with a bounded waiting room (`admission.rs`), so a
//! tenant flooding the engine cannot starve a light one.

use crate::admission::{FairCore, TenantGate};
use crate::engine::{ApplyError, EngineConfig, EngineResponse, RouteError, SubmitError, Tenant};
use crate::export::{GraphMetricsSnapshot, MetricsExporter};
use crate::flight::StageTimer;
use crate::pool::WorkerPool;
use crate::stats::{EngineStats, StatsCollector};
use crate::submit::{QueryRequest, QueryTicket, Submit};
use crate::telemetry::{SlowQuery, TraceRecord};
use psi_core::{Compaction, GraphUpdate, PsiConfig, PsiRunner};
use psi_graph::Graph;
use psi_store::{read_snapshot, write_snapshot, SnapshotContents, StoreError, Wal, WalRecord};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Identity of a registered graph, returned by [`MultiEngine::register`].
/// Cheap to copy; valid only for the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(usize);

impl GraphId {
    /// The registration index (0 for the first registered graph).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Why a graph could not be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A graph with this name is already registered.
    DuplicateName(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "graph name {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Why a graph could not be saved to or loaded from disk.
#[derive(Debug)]
pub enum PersistError {
    /// The snapshot or WAL could not be read, written or decoded.
    Store(StoreError),
    /// Loading succeeded but registration did not (the snapshot's tenant
    /// name is already registered here).
    Registry(RegistryError),
    /// [`MultiEngine::save_graph`] was handed a [`GraphId`] this registry
    /// never issued.
    UnknownGraph,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "persistence failed: {e}"),
            PersistError::Registry(e) => write!(f, "loaded snapshot cannot register: {e}"),
            PersistError::UnknownGraph => f.write_str("graph not registered with this engine"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            PersistError::Registry(e) => Some(e),
            PersistError::UnknownGraph => None,
        }
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Store(e)
    }
}

/// What [`MultiEngine::save_graph`] wrote.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// The snapshot file (named `<tenant>.psisnap` under the save dir).
    pub snapshot_path: PathBuf,
    /// The learned-state WAL the tenant appends to from now on
    /// (`<tenant>.psiwal`, truncated by this save's compaction).
    pub wal_path: PathBuf,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Predictor samples folded into the snapshot.
    pub saved_samples: u64,
}

/// What [`MultiEngine::load_graph`] registered.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The id the loaded graph serves under.
    pub graph: GraphId,
    /// The tenant name recorded in the snapshot.
    pub name: String,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Whether the `TargetIndex` had to be rebuilt (index sections
    /// absent or written under a different layout version) instead of
    /// loaded from its flat sections.
    pub index_rebuilt: bool,
    /// Predictor samples restored: snapshot samples plus WAL-replayed
    /// wins.
    pub replayed_samples: u64,
    /// WAL records replayed on top of the snapshot's learned state.
    pub replayed_records: u64,
    /// Graph-mutation batches replayed on top of the snapshot's graph
    /// (updates applied after the last save, recovered from the WAL).
    pub replayed_updates: u64,
    /// Wall-clock cost of the restore + WAL replay, microseconds.
    pub wal_replay_us: u64,
}

/// Tuning knobs for a [`MultiEngine`].
#[derive(Debug, Clone)]
pub struct MultiEngineConfig {
    /// Worker threads in the one pool shared by every registered graph
    /// (default: available parallelism).
    pub workers: usize,
    /// Races in flight across **all** graphs; further submissions block
    /// in the fair gate (or, on the non-blocking path, park in the
    /// waiting room). Default: `workers`.
    pub max_concurrent_races: usize,
    /// Per-tenant settings: cache shards/capacity, predictor knobs, race
    /// strategy and default budget, applied to every registered graph.
    pub tenant: EngineConfig,
}

impl Default for MultiEngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { workers, max_concurrent_races: workers, tenant: EngineConfig::default() }
    }
}

struct RegistryInner {
    tenants: Vec<Arc<Tenant>>,
    by_name: HashMap<String, GraphId>,
}

/// The name → graph directory of a [`MultiEngine`].
///
/// Registration goes through [`MultiEngine::register`] (the engine must
/// wire each tenant to its shared pool); the registry exposes lookup and
/// enumeration.
pub struct GraphRegistry {
    inner: RwLock<RegistryInner>,
}

impl GraphRegistry {
    fn new() -> Self {
        Self { inner: RwLock::new(RegistryInner { tenants: Vec::new(), by_name: HashMap::new() }) }
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry lock").tenants.len()
    }

    /// Whether no graph is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a graph name to its id.
    pub fn graph_id(&self, name: &str) -> Option<GraphId> {
        self.inner.read().expect("registry lock").by_name.get(name).copied()
    }

    /// The name a graph was registered under.
    pub fn name(&self, graph: GraphId) -> Option<String> {
        self.tenant(graph).map(|t| t.name.clone())
    }

    /// All registered graphs in registration order.
    pub fn graphs(&self) -> Vec<(GraphId, String)> {
        let inner = self.inner.read().expect("registry lock");
        inner.tenants.iter().enumerate().map(|(i, t)| (GraphId(i), t.name.clone())).collect()
    }

    fn tenant(&self, graph: GraphId) -> Option<Arc<Tenant>> {
        self.inner.read().expect("registry lock").tenants.get(graph.0).cloned()
    }

    fn snapshot(&self) -> Vec<Arc<Tenant>> {
        self.inner.read().expect("registry lock").tenants.clone()
    }
}

/// A multi-graph serving engine: named stored graphs registered at
/// runtime, one shared worker pool, fair cross-graph admission, and
/// per-graph plus aggregate statistics. All methods take `&self`; share
/// it freely across client threads.
///
/// ```
/// use psi_core::{PsiRunner, RaceBudget};
/// use psi_engine::{EngineConfig, MultiEngine, MultiEngineConfig};
/// use psi_graph::graph::graph_from_parts;
///
/// let multi = MultiEngine::new(MultiEngineConfig {
///     workers: 2,
///     max_concurrent_races: 2,
///     tenant: EngineConfig { default_budget: RaceBudget::decision(), ..EngineConfig::default() },
/// });
/// let square = graph_from_parts(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let pair = graph_from_parts(&[7, 7], &[(0, 1)]);
/// let a = multi.register("square", PsiRunner::nfv_default(&square)).unwrap();
/// let b = multi.register("pair", PsiRunner::nfv_default(&pair)).unwrap();
///
/// let query = graph_from_parts(&[0, 1], &[(0, 1)]);
/// assert!(multi.submit(a, &query).unwrap().found());
/// assert!(!multi.submit(b, &query).unwrap().found()); // same query, other graph
/// assert_eq!(multi.stats().queries, 2);
/// ```
pub struct MultiEngine {
    pool: Arc<WorkerPool>,
    admission: Arc<Mutex<FairCore>>,
    /// One stage-deadline timer shared by every tenant's staged races.
    timer: Arc<StageTimer>,
    registry: GraphRegistry,
    config: MultiEngineConfig,
    started: Instant,
}

impl MultiEngine {
    /// Builds an empty multi-graph engine; register graphs before
    /// submitting.
    pub fn new(config: MultiEngineConfig) -> Self {
        Self {
            pool: Arc::new(WorkerPool::new(config.workers)),
            admission: Arc::new(Mutex::new(FairCore::new(config.max_concurrent_races))),
            timer: Arc::new(StageTimer::new()),
            registry: GraphRegistry::new(),
            config,
            started: Instant::now(),
        }
    }

    /// Multi-graph engine with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(MultiEngineConfig::default())
    }

    /// Registers `runner`'s stored graph under `name` using the tenant
    /// template config. Returns the graph's id for routing.
    pub fn register(
        &self,
        name: impl Into<String>,
        runner: PsiRunner,
    ) -> Result<GraphId, RegistryError> {
        self.register_shared(name, Arc::new(runner))
    }

    /// Registers an already-shared runner handle (no copy; the caller may
    /// keep using the same [`PsiRunner`] for offline analysis).
    pub fn register_shared(
        &self,
        name: impl Into<String>,
        runner: Arc<PsiRunner>,
    ) -> Result<GraphId, RegistryError> {
        let name = name.into();
        let mut inner = self.registry.inner.write().expect("registry lock");
        if inner.by_name.contains_key(&name) {
            return Err(RegistryError::DuplicateName(name));
        }
        let gate = TenantGate::new(Arc::clone(&self.admission));
        debug_assert_eq!(gate.graph, inner.tenants.len(), "gate slots track registration order");
        let id = GraphId(gate.graph);
        // All tenants stamp trace timestamps against the registry's
        // clock, so a merged drain is ordered across graphs.
        let tenant =
            Tenant::new(name.clone(), runner, self.config.tenant.clone(), gate, self.started);
        inner.tenants.push(Arc::new(tenant));
        inner.by_name.insert(name, id);
        Ok(id)
    }

    /// Snapshots `graph` to `dir` and switches the tenant to logged
    /// serving: the stored graph, its `TargetIndex` and the predictor's
    /// full learned state are written to `<name>.psisnap` (atomic
    /// temp-file + rename), the sibling `<name>.psiwal` is truncated
    /// (every record it held is now folded into the snapshot), and from
    /// here on each race finalize appends its predictor mutations to the
    /// WAL. Calling it again later compacts: same rewrite, same cut.
    ///
    /// The WAL slot is held across the snapshot write so no concurrent
    /// finalize (or [`MultiEngine::apply_update`]) can append a record
    /// that the compaction cut would then silently discard — those
    /// writers block briefly instead.
    ///
    /// A tenant with a live delta overlay is compacted first (the
    /// overlay folds into a fresh base graph and rebuilt index as a new
    /// epoch), so the snapshot always captures a flat graph and the WAL
    /// cut never loses an already-applied mutation.
    pub fn save_graph(&self, graph: GraphId, dir: &Path) -> Result<SaveReport, PersistError> {
        let tenant = self.registry.tenant(graph).ok_or(PersistError::UnknownGraph)?;
        std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
        let snapshot_path = dir.join(format!("{}.psisnap", tenant.name));
        let wal_path = snapshot_path.with_extension("psiwal");
        let core = &tenant.core;
        let mut wal_guard = core.learned_wal.lock().expect("wal lock");
        // Fold any pending overlay under the WAL lock: apply_update also
        // appends under this lock, so no mutation can land between the
        // fold and the cut below.
        core.compact_with_stats();
        let learned = core.learned_state();
        let saved_samples = learned.samples.len() as u64;
        let contents = SnapshotContents {
            name: tenant.name.clone(),
            variants: core.runner.config().variants.clone(),
            learned,
        };
        let index = core.runner.live_index();
        let snapshot_bytes =
            write_snapshot(&snapshot_path, index.graph(), Some(&index), &contents)?;
        match wal_guard.as_mut() {
            Some(wal) => wal.reset()?,
            None => {
                // First save: any WAL left on disk predates this
                // snapshot's learned state, so open-and-cut, then attach.
                let (mut wal, _stale) = Wal::open(&wal_path)?;
                wal.reset()?;
                *wal_guard = Some(wal);
            }
        }
        Ok(SaveReport { snapshot_path, wal_path, snapshot_bytes, saved_samples })
    }

    /// Registers a tenant from a snapshot written by
    /// [`MultiEngine::save_graph`], under the tenant template config: the
    /// graph and `TargetIndex` load as flat sections (no rebuild unless
    /// the index layout version moved), the predictor restores the
    /// snapshot's learned state, the sibling WAL's records replay on top
    /// (re-executing the training they logged), and the WAL stays
    /// attached so serving keeps appending. The first query after a cold
    /// open races with a fully trained predictor.
    pub fn load_graph(&self, snapshot_path: &Path) -> Result<LoadReport, PersistError> {
        let loaded = read_snapshot(snapshot_path)?;
        let name = loaded.contents.name.clone();
        let runner = PsiRunner::with_prebuilt_index(
            Arc::clone(&loaded.graph),
            PsiConfig::new(loaded.contents.variants.clone()),
            Arc::clone(&loaded.index),
        );
        let id =
            self.register_shared(name.clone(), Arc::new(runner)).map_err(PersistError::Registry)?;
        let tenant = self.registry.tenant(id).expect("tenant was just registered");
        let core = &tenant.core;
        let replay_started = Instant::now();
        let (wal, records) = Wal::open(&snapshot_path.with_extension("psiwal"))?;
        let learned = &loaded.contents.learned;
        let mut replayed_samples = learned.samples.len() as u64;
        {
            let mut predictor = core.predictor.lock().expect("predictor lock");
            predictor.restore(
                learned.samples.iter().map(|&(f, w)| (f, w as usize)).collect(),
                learned.tallies.clone(),
                learned.observed as usize,
            );
            for record in &records {
                match record {
                    WalRecord::Sample { features, winner } => {
                        predictor.observe(*features, *winner as usize);
                        replayed_samples += 1;
                    }
                    WalRecord::Loss { idx } => predictor.record_loss(*idx as usize),
                    WalRecord::Timeout { idx } => predictor.record_timeout(*idx as usize),
                    // Graph mutations replay below, against the runner.
                    WalRecord::Update { .. } => {}
                }
            }
        }
        // Replay graph mutations logged after the snapshot's compaction
        // cut: each record is one applied batch, re-applied in WAL order
        // so the overlay converges to the pre-crash live graph.
        let mut replayed_updates = 0u64;
        {
            let runner = &core.runner;
            for record in &records {
                if let WalRecord::Update { bytes } = record {
                    let update = GraphUpdate::decode(bytes)
                        .map_err(|e| StoreError::Malformed(format!("WAL update record: {e}")))?;
                    runner
                        .apply_update(&update)
                        .map_err(|e| StoreError::Malformed(format!("WAL update replay: {e}")))?;
                    replayed_updates += 1;
                }
            }
        }
        *core.learned_wal.lock().expect("wal lock") = Some(wal);
        core.stats.wal_replayed.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(LoadReport {
            graph: id,
            name,
            snapshot_bytes: loaded.file_bytes,
            index_rebuilt: loaded.index_rebuilt,
            replayed_samples,
            replayed_records: records.len() as u64,
            replayed_updates,
            wal_replay_us: replay_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        })
    }

    /// The name → graph directory.
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MultiEngineConfig {
        &self.config
    }

    /// Worker threads in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The registered runner for `graph` (stored graph, variants,
    /// prepared matchers).
    pub fn runner(&self, graph: GraphId) -> Option<Arc<PsiRunner>> {
        self.registry.tenant(graph).map(|t| Arc::clone(&t.core.runner))
    }

    /// Applies a batch of graph mutations to `graph`'s live view and
    /// returns the epoch the batch landed in. The write takes one
    /// admission slot through the same fair gate as queries — a firehose
    /// of updates to one tenant is arbitrated against every other
    /// tenant's reads, and can no more starve them than a query flood
    /// could. The batch is validated atomically (all ops or none),
    /// logged to the tenant's WAL when one is attached, and visible to
    /// every subsequently-admitted query; races already in flight stay
    /// pinned to the epoch they started under.
    pub fn apply_update(&self, graph: GraphId, update: &GraphUpdate) -> Result<u64, ApplyError> {
        let tenant = self.registry.tenant(graph).ok_or(RouteError::UnknownGraph)?;
        tenant.apply_update(update, &self.pool).map_err(ApplyError::Update)
    }

    /// Folds `graph`'s pending delta overlay into a fresh base graph and
    /// rebuilt index, installed as a new epoch. `Ok(None)` when nothing
    /// was pending or a compaction (background or explicit) is already
    /// running. In-flight races finish against their pinned pre-swap
    /// epoch; the swap never pauses them.
    pub fn compact(&self, graph: GraphId) -> Result<Option<Compaction>, RouteError> {
        let tenant = self.registry.tenant(graph).ok_or(RouteError::UnknownGraph)?;
        Ok(tenant.core.compact_single_flight())
    }

    /// The current epoch of one registered graph (0 until its first
    /// compaction).
    pub fn epoch(&self, graph: GraphId) -> Option<u64> {
        self.registry.tenant(graph).map(|t| t.core.runner.epoch())
    }

    /// Resolves a request's target tenant. This is the *only* routing
    /// site: every submission — blocking or ticket — goes through it,
    /// and budget defaulting then happens in the tenant's single
    /// admission path.
    fn route(&self, request: &QueryRequest) -> Result<Arc<Tenant>, RouteError> {
        let graph = request.graph.ok_or(RouteError::NoGraph)?;
        self.registry.tenant(graph).ok_or(RouteError::UnknownGraph)
    }

    /// Serves `query` against `graph` under the tenant's default budget,
    /// blocking while the shared gate is at capacity. Thin wrapper:
    /// `submit_queued(request)?.wait()`.
    pub fn submit(&self, graph: GraphId, query: &Graph) -> Result<EngineResponse, SubmitError> {
        self.submit_request(QueryRequest::new(query.clone()).graph(graph))
    }

    /// Serving statistics of one registered graph.
    pub fn graph_stats(&self, graph: GraphId) -> Option<EngineStats> {
        self.registry.tenant(graph).map(|t| t.stats())
    }

    /// Per-graph learned entrant statistics: lifetime win/loss/timeout
    /// tallies of each racing variant for `graph`, indexed like its
    /// runner's variant list. This is the evidence staged racing ranks by.
    pub fn entrant_tallies(
        &self,
        graph: GraphId,
    ) -> Option<Vec<psi_core::predictor::EntrantTally>> {
        self.registry.tenant(graph).map(|t| t.core.entrant_tallies())
    }

    /// Aggregate serving statistics across every registered graph.
    /// Counters are summed; percentiles are computed over the *merged*
    /// latency histograms (bucket-wise addition — exactly the pooled
    /// distribution, not averaged per-graph percentiles); throughput is
    /// measured against this engine's uptime.
    pub fn stats(&self) -> EngineStats {
        let merged = StatsCollector::since(self.started);
        let (mut epoch, mut index_build_us, mut waiting_room_depth) = (0, 0, 0);
        for tenant in self.registry.snapshot() {
            merged.merge_from(&tenant.core.stats);
            let gauges = tenant.stats();
            // Epochs are per-graph gauges; the aggregate reports the
            // furthest-advanced tenant. Every tenant reads the shared
            // gate's waiting-room total, so that one is not summed.
            epoch = epoch.max(gauges.epoch);
            index_build_us += gauges.index_build_us;
            waiting_room_depth = waiting_room_depth.max(gauges.waiting_room_depth);
        }
        EngineStats { epoch, index_build_us, waiting_room_depth, ..merged.snapshot() }
    }

    /// Drains buffered trace events from every registered graph, tagged
    /// with the emitting graph's id and merged into one timeline (ordered
    /// by timestamp — all tenants share this registry's epoch clock).
    /// Events read are consumed; call periodically to avoid ring drops.
    pub fn drain_trace(&self) -> Vec<(GraphId, TraceRecord)> {
        let tenants = self.registry.snapshot();
        let mut merged: Vec<(GraphId, TraceRecord)> = Vec::new();
        for (idx, tenant) in tenants.iter().enumerate() {
            let id = GraphId(idx);
            if let Some(trace) = &tenant.core.telemetry.trace {
                merged.extend(trace.drain().into_iter().map(|r| (id, r)));
            }
        }
        merged.sort_by_key(|(_, r)| (r.at_us, r.seq));
        merged
    }

    /// The worst-latency queries across every registered graph, tagged
    /// with their graph id, slowest first.
    pub fn slow_queries(&self) -> Vec<(GraphId, SlowQuery)> {
        let tenants = self.registry.snapshot();
        let mut all: Vec<(GraphId, SlowQuery)> = Vec::new();
        for (idx, tenant) in tenants.iter().enumerate() {
            let id = GraphId(idx);
            all.extend(tenant.core.telemetry.slow.worst().into_iter().map(|q| (id, q)));
        }
        all.sort_by_key(|(_, q)| std::cmp::Reverse(q.elapsed_us));
        all
    }

    /// A metrics exporter over every registered graph: per-graph and
    /// aggregate counters, histograms and slow-query logs, renderable as
    /// Prometheus text or JSON.
    pub fn exporter(&self) -> MetricsExporter {
        let tenants = self.registry.snapshot();
        MetricsExporter::new(tenants.iter().map(|t| GraphMetricsSnapshot::capture(t)).collect())
    }
}

impl Submit for MultiEngine {
    fn submit_nonblocking(&self, request: QueryRequest) -> Result<QueryTicket, SubmitError> {
        self.route(&request)?.submit_ticket(request, false, &self.pool, &self.timer)
    }

    fn submit_queued(&self, request: QueryRequest) -> Result<QueryTicket, SubmitError> {
        self.route(&request)?.submit_ticket(request, true, &self.pool, &self.timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::RaceBudget;

    // ---- Registry bookkeeping (graph-free; serving paths are covered
    // by the integration tests) ----

    #[test]
    fn duplicate_names_are_rejected() {
        use psi_graph::graph::graph_from_parts;
        let multi = MultiEngine::new(MultiEngineConfig {
            workers: 1,
            max_concurrent_races: 1,
            tenant: EngineConfig::default(),
        });
        let g = graph_from_parts(&[0, 1], &[(0, 1)]);
        let id = multi.register("alpha", PsiRunner::nfv_default(&g)).expect("first registration");
        assert_eq!(multi.registry().graph_id("alpha"), Some(id));
        assert_eq!(
            multi.register("alpha", PsiRunner::nfv_default(&g)),
            Err(RegistryError::DuplicateName("alpha".into()))
        );
        assert_eq!(multi.registry().len(), 1);
    }

    #[test]
    fn unknown_graph_is_an_error_not_a_panic() {
        use psi_graph::graph::graph_from_parts;
        let multi = MultiEngine::with_defaults();
        let q = graph_from_parts(&[0], &[]);
        let bogus = GraphId(7);
        assert_eq!(
            multi.submit(bogus, &q).unwrap_err(),
            SubmitError::Route(RouteError::UnknownGraph)
        );
        assert_eq!(
            multi.submit_nonblocking(QueryRequest::new(q).graph(bogus)).unwrap_err(),
            SubmitError::Route(RouteError::UnknownGraph)
        );
        assert!(multi.graph_stats(bogus).is_none());
        assert!(multi.runner(bogus).is_none());
    }

    // ---- Persistence (save_graph / load_graph) ----

    fn persist_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psi-registry-persist-{}", std::process::id()));
        let dir = dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_multi() -> MultiEngine {
        MultiEngine::new(MultiEngineConfig {
            workers: 2,
            max_concurrent_races: 2,
            tenant: EngineConfig {
                default_budget: RaceBudget::matching(),
                // Keep the fast path out of the way so every query races
                // and trains the predictor deterministically.
                predictor_confidence: 1.1,
                ..EngineConfig::default()
            },
        })
    }

    /// A family of distinct path queries so repeated submissions miss
    /// the cache and keep racing.
    fn path_query(len: usize) -> Graph {
        use psi_graph::graph::graph_from_parts;
        let labels: Vec<u32> = (0..len as u32).map(|i| i % 2).collect();
        let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
        graph_from_parts(&labels, &edges)
    }

    fn stored_cycle(n: usize) -> Graph {
        use psi_graph::graph::graph_from_parts;
        let labels: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        graph_from_parts(&labels, &edges)
    }

    #[test]
    fn save_then_cold_load_preserves_answers_and_learned_state() {
        let dir = persist_dir("roundtrip");
        let stored = stored_cycle(8);
        let warm = small_multi();
        let id = warm.register("tenant", PsiRunner::nfv_default(&stored)).unwrap();
        for len in 2..6 {
            warm.submit(id, &path_query(len)).unwrap();
        }
        let report = warm.save_graph(id, &dir).expect("save");
        assert!(report.snapshot_bytes > 0);
        assert!(report.saved_samples > 0, "contested races trained the predictor before save");
        assert!(report.snapshot_path.exists());
        assert!(report.wal_path.exists());
        // Post-save traffic appends to the now-attached WAL.
        for len in 2..6 {
            warm.submit(id, &path_query(len)).unwrap(); // cache hits: no WAL traffic
        }
        for len in 6..9 {
            warm.submit(id, &path_query(len)).unwrap();
        }
        let appended = warm.graph_stats(id).unwrap().wal_appended;
        assert!(appended > 0, "contested post-save races must log WAL records");

        let cold = small_multi();
        let load = cold.load_graph(&report.snapshot_path).expect("load");
        assert_eq!(load.name, "tenant");
        assert!(!load.index_rebuilt, "same layout version loads without a rebuild");
        assert_eq!(load.replayed_records, appended);
        assert!(load.replayed_samples > 0);
        assert_eq!(cold.graph_stats(load.graph).unwrap().wal_replayed, appended);
        // Learned state is byte-identical: snapshot + WAL replay re-runs
        // exactly the training the warm engine performed.
        assert_eq!(cold.entrant_tallies(load.graph), warm.entrant_tallies(id));
        // Same answers after the cold open, first query included.
        for len in 2..9 {
            let q = path_query(len);
            let a = warm.submit(id, &q).unwrap();
            let b = cold.submit(load.graph, &q).unwrap();
            assert_eq!(a.found(), b.found(), "path-{len}");
            assert_eq!(a.num_matches(), b.num_matches(), "path-{len}");
        }
    }

    #[test]
    fn load_twice_is_a_duplicate_name_error() {
        let dir = persist_dir("dup");
        let multi = small_multi();
        let id = multi.register("twice", PsiRunner::nfv_default(&stored_cycle(4))).unwrap();
        let report = multi.save_graph(id, &dir).unwrap();
        let other = small_multi();
        other.load_graph(&report.snapshot_path).unwrap();
        match other.load_graph(&report.snapshot_path) {
            Err(PersistError::Registry(RegistryError::DuplicateName(name))) => {
                assert_eq!(name, "twice");
            }
            other => panic!("expected duplicate-name error, got {other:?}"),
        }
    }

    #[test]
    fn save_unknown_graph_is_typed() {
        let dir = persist_dir("unknown");
        let multi = small_multi();
        assert!(matches!(multi.save_graph(GraphId(3), &dir), Err(PersistError::UnknownGraph)));
    }

    #[test]
    fn load_missing_snapshot_is_typed() {
        let dir = persist_dir("missing");
        let multi = small_multi();
        assert!(matches!(
            multi.load_graph(&dir.join("nope.psisnap")),
            Err(PersistError::Store(StoreError::Io(_)))
        ));
    }

    // ---- Fast-heat insurance ----

    /// A confident prediction runs its leader alone, but a leader still
    /// running one stage window after it started launches the reserve:
    /// here the leader could not finish inside the 10 s budget, and the
    /// reserve answers in milliseconds.
    #[test]
    fn a_stuck_fast_heat_leader_launches_its_reserve() {
        use crate::engine::ServePath;
        use psi_core::predictor::QueryFeatures;
        use psi_core::Variant;
        use psi_graph::graph::graph_from_parts;
        use psi_matchers::Algorithm;
        use psi_rewrite::Rewriting;
        use std::time::Duration;

        // Target: a 2000-node cycle, one label.
        let n = 2000u32;
        let ring: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let stored = graph_from_parts(&vec![0; n as usize], &ring);
        // Query: a 12-node path numbered so that nodes 0..=5 are pairwise
        // non-adjacent. Ullmann binds vertices in ID order, so it places
        // those six anywhere on the ring (~2000^6 ways) before its first
        // edge check; GraphQL follows edges and embeds the path at once.
        let walk = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11];
        let path: Vec<(u32, u32)> = walk.windows(2).map(|w| (w[0], w[1])).collect();
        let query = graph_from_parts(&[0; 12], &path);
        let runner = PsiRunner::new(
            Arc::new(stored),
            PsiConfig::new(vec![
                Variant::new(Algorithm::Ullmann, Rewriting::Orig),
                Variant::new(Algorithm::GraphQl, Rewriting::Orig),
            ]),
        );
        let budget = Duration::from_secs(10);
        let multi = MultiEngine::new(MultiEngineConfig {
            workers: 2,
            max_concurrent_races: 1,
            tenant: EngineConfig {
                cache_capacity: 0,
                predictor_min_observations: 1,
                predictor_confidence: 0.6,
                default_budget: RaceBudget::decision().timeout(budget),
                ..EngineConfig::default()
            },
        });
        let id = multi.register("ring", runner).unwrap();
        // Teach the predictor that Ullmann wins queries like this one.
        {
            let tenant = multi.registry.tenant(id).unwrap();
            let core = &tenant.core;
            let features = QueryFeatures::extract(&query, core.runner.label_stats());
            let mut predictor = core.predictor.lock().unwrap();
            for _ in 0..4 {
                predictor.observe(features, 0);
            }
        }
        let started = Instant::now();
        let r = multi.submit(id, &query).unwrap();
        let elapsed = started.elapsed();
        assert!(r.conclusive && r.found(), "the reserve's GraphQL answers");
        assert_eq!(r.path, ServePath::Race, "an escalated fast heat answers as a race");
        assert!(elapsed < budget / 5, "finished in {elapsed:?}, far below the {budget:?} budget");
        let stats = multi.graph_stats(id).unwrap();
        assert_eq!((stats.fast_paths, stats.fast_path_fallbacks), (0, 1));
        assert_eq!(stats.inconclusive, 0);
        assert_eq!((stats.fallbacks_deadline, stats.fallbacks_inconclusive), (1, 0));
    }

    // ---- Why a miss raced ----

    /// A two-entrant engine over a 2000-node one-label ring whose
    /// predictor has seen `winners` for `query`'s features, with the given
    /// observation floor, confidence and race budget; plus `query`, a
    /// 12-node path that Ullmann (entrant 0) cannot finish in seconds and
    /// GraphQL (entrant 1) embeds at once (see
    /// `a_stuck_fast_heat_leader_launches_its_reserve`).
    fn taught_ring(
        winners: &[usize],
        min_observations: usize,
        confidence: f64,
        budget: RaceBudget,
    ) -> (MultiEngine, GraphId, Graph) {
        use psi_core::predictor::QueryFeatures;
        use psi_core::Variant;
        use psi_graph::graph::graph_from_parts;
        use psi_matchers::Algorithm;
        use psi_rewrite::Rewriting;

        let n = 2000u32;
        let ring: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let stored = graph_from_parts(&vec![0; n as usize], &ring);
        let walk = [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11];
        let path: Vec<(u32, u32)> = walk.windows(2).map(|w| (w[0], w[1])).collect();
        let query = graph_from_parts(&[0; 12], &path);
        let runner = PsiRunner::new(
            Arc::new(stored),
            PsiConfig::new(vec![
                Variant::new(Algorithm::Ullmann, Rewriting::Orig),
                Variant::new(Algorithm::GraphQl, Rewriting::Orig),
            ]),
        );
        let multi = MultiEngine::new(MultiEngineConfig {
            workers: 2,
            max_concurrent_races: 1,
            tenant: EngineConfig {
                cache_capacity: 0,
                predictor_min_observations: min_observations,
                predictor_confidence: confidence,
                default_budget: budget,
                ..EngineConfig::default()
            },
        });
        let id = multi.register("ring", runner).unwrap();
        {
            let tenant = multi.registry.tenant(id).unwrap();
            let features = QueryFeatures::extract(&query, tenant.core.runner.label_stats());
            let mut predictor = tenant.core.predictor.lock().unwrap();
            for &w in winners {
                predictor.observe(features, w);
            }
        }
        (multi, id, query)
    }

    /// A fast heat whose leader times out inside the stage window falls
    /// back as inconclusive, not on the deadline.
    #[test]
    fn an_inconclusive_fast_heat_leader_counts_its_fallback() {
        let budget = RaceBudget::decision().timeout(std::time::Duration::from_millis(2));
        let (multi, id, query) = taught_ring(&[0; 4], 1, 0.6, budget);
        let r = multi.submit(id, &query).unwrap();
        assert!(!r.conclusive, "both entrants outlive a 2 ms budget on this ring");
        let stats = multi.graph_stats(id).unwrap();
        assert_eq!(stats.fast_path_fallbacks, 1);
        assert_eq!((stats.fallbacks_inconclusive, stats.fallbacks_deadline), (1, 0));
        assert_eq!((stats.races_unconfident, stats.races_untrained), (0, 0));
    }

    /// A ranking whose leader holds 2 of the 3 nearest votes, under a
    /// 0.9 confidence, races the full field.
    #[test]
    fn an_unconfident_ranking_counts_its_race() {
        let (multi, id, query) = taught_ring(&[1, 1, 0], 1, 0.9, RaceBudget::decision());
        assert!(multi.submit(id, &query).unwrap().conclusive);
        let stats = multi.graph_stats(id).unwrap();
        assert_eq!((stats.races, stats.fast_paths), (1, 0));
        assert_eq!((stats.races_unconfident, stats.races_untrained), (1, 0));
        assert_eq!((stats.fallbacks_inconclusive, stats.fallbacks_deadline), (0, 0));
    }

    /// A predictor short of its observation floor gives no ranking, so the
    /// miss races and counts as untrained; a trained, confident one does
    /// not race at all.
    #[test]
    fn an_untrained_predictor_counts_its_race() {
        let (multi, id, query) = taught_ring(&[1, 1], 3, 0.6, RaceBudget::decision());
        assert!(multi.submit(id, &query).unwrap().conclusive);
        let stats = multi.graph_stats(id).unwrap();
        assert_eq!((stats.races_untrained, stats.races_unconfident), (1, 0));
        let (multi, id, query) = taught_ring(&[1, 1, 1], 3, 0.6, RaceBudget::decision());
        assert!(multi.submit(id, &query).unwrap().conclusive);
        let stats = multi.graph_stats(id).unwrap();
        assert_eq!((stats.fast_paths, stats.races), (1, 0));
        assert_eq!((stats.races_untrained, stats.races_unconfident), (0, 0));
    }

    #[test]
    fn registry_directory_tracks_registration_order() {
        use psi_graph::graph::graph_from_parts;
        let multi = MultiEngine::with_defaults();
        let g = graph_from_parts(&[0, 1], &[(0, 1)]);
        let a = multi.register("first", PsiRunner::nfv_default(&g)).unwrap();
        let b = multi.register("second", PsiRunner::nfv_default(&g)).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(
            multi.registry().graphs(),
            vec![(a, "first".to_string()), (b, "second".to_string())]
        );
        assert_eq!(multi.registry().name(b).as_deref(), Some("second"));
        assert_eq!(format!("{a}"), "g0");
    }
}
