//! The in-process workloads, `hot_repeat` and `cold_search`: closed
//! loop, two client threads, each calling `submit_nonblocking` + `wait`
//! on one `MultiEngine` and sending its next request only after the
//! previous answer arrived. After the read phase, the first tenant is
//! snapshotted and one thread applies a fixed run of single-edge update
//! batches in-process (`MultiEngine::apply_update`): the in-process
//! write path, logged to the tenant's WAL. A fresh engine then
//! cold-opens snapshot + WAL, and every acknowledged edge must be in it.

use crate::common::{
    block_of, engine_config, merge_blocks, ns, score_response, Blocks, Ctx, Hist, Tally, Timed,
    DATASET_SEED, PATH_SPANS,
};
use crate::inputs::{added_edges, edge_batches, grow_query};
use crate::probes::ProbeInput;
use crate::rng::{Rng, Zipf};
use crate::trace::Tracer;
use psi::core::{GraphUpdate, PsiConfig, PsiRunner};
use psi::engine::{
    EngineStats, GraphId, MultiEngine, QueryRequest, ServePath, Submit, SubmitError,
};
use psi::graph::Graph;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads (the box has two cores).
const CLIENTS: usize = 2;
/// Times set-up runs per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Single-edge batches of the in-process writes, a third per window.
const WRITE_BATCHES: usize = 1000;
/// Race-path answers kept per client thread for the engine-overhead
/// replay.
const RACE_SAMPLES: usize = 200;

struct Tenant {
    name: &'static str,
    graph: Arc<Graph>,
    config: PsiConfig,
    /// The tenant's stored (repeated) queries, by index.
    queries: Vec<Graph>,
}

/// One request: a tenant's stored query, or a freshly generated one.
#[derive(Clone)]
enum Req {
    Stored(usize, usize),
    Fresh(usize, Graph),
}

impl Req {
    fn tenant(&self) -> usize {
        match *self {
            Req::Stored(t, _) | Req::Fresh(t, _) => t,
        }
    }

    fn query<'a>(&'a self, tenants: &'a [Tenant]) -> &'a Graph {
        match self {
            Req::Stored(t, i) => &tenants[*t].queries[*i],
            Req::Fresh(_, q) => q,
        }
    }
}

/// How a client draws its requests.
enum Mix {
    /// A uniformly chosen tenant; a fresh query of 4 to 6 nodes with
    /// probability `fresh`, else a Zipf-chosen stored query.
    Repeats { zipf: Zipf, fresh: f64 },
    /// Always a fresh query on the first tenant, of `7 + sizes` nodes.
    Fresh { sizes: Zipf },
}

pub struct InProc {
    seed: u64,
    tenants: Vec<Tenant>,
    /// Served untimed before the read phase (cache and predictor warm-up).
    warmup: Vec<Req>,
    mix: Mix,
    timeout: Duration,
    /// Batches of the write windows, against tenant 0.
    batches: Vec<GraphUpdate>,
}

impl InProc {
    /// Client `c`'s request stream. Requests are drawn from it one at a
    /// time while the client runs, so a run holds no request sequence in
    /// memory, and the same seed always draws the same requests.
    fn stream(&self, c: usize) -> Rng {
        Rng::new(self.seed, 20 + c as u64)
    }

    fn draw(&self, rng: &mut Rng) -> Req {
        match &self.mix {
            Mix::Repeats { zipf, fresh } => {
                let t = rng.below(self.tenants.len());
                if rng.unit() < *fresh {
                    Req::Fresh(t, grow_query(&self.tenants[t].graph, 4 + rng.below(3), rng))
                } else {
                    Req::Stored(t, zipf.sample(rng))
                }
            }
            Mix::Fresh { sizes } => {
                Req::Fresh(0, grow_query(&self.tenants[0].graph, 7 + sizes.sample(rng), rng))
            }
        }
    }
}

/// What a workload leaves behind for the per-layer replay.
pub struct Served {
    pub timed: Timed,
    /// (tenant, query, engine-reported race latency ns) of race-path answers.
    race_samples: Vec<(usize, Graph, u64)>,
}

/// `hot_repeat`: yeast_like and a scaled-down human_like tenant. Each
/// tenant has 1000 distinct queries of 4 to 10 nodes (well inside the
/// default 4096-entry cache), requested with Zipf skew; 2% of requests
/// are fresh queries, kept small so that no miss weighs much more than
/// another.
pub fn hot_repeat_inputs(seed: u64) -> InProc {
    const DISTINCT: usize = 1000;
    let graphs = [
        ("yeast", psi::graph::datasets::yeast_like(1.0, DATASET_SEED)),
        ("human", psi::graph::datasets::human_like(0.3, DATASET_SEED)),
    ];
    let tenants: Vec<Tenant> = graphs
        .into_iter()
        .enumerate()
        .map(|(t, (name, g))| {
            let mut rng = Rng::new(seed, 10 + t as u64);
            let queries =
                (0..DISTINCT).map(|_| grow_query(&g, 4 + rng.below(7), &mut rng)).collect();
            Tenant { name, graph: Arc::new(g), config: PsiConfig::gql_spa_orig(), queries }
        })
        .collect();
    let warmup = (0..tenants.len()).flat_map(|t| (0..DISTINCT).map(move |i| Req::Stored(t, i)));
    let warmup = warmup.collect();
    let batches = write_batches(&tenants[0].graph, seed);
    let mix = Mix::Repeats { zipf: Zipf::new(DISTINCT, 1.0), fresh: 0.02 };
    InProc { seed, tenants, warmup, mix, timeout: Duration::from_secs(5), batches }
}

/// `cold_search`: one wordnet_like tenant racing the paper's four
/// entrants (GraphQL, sPath × original, DND). Every request is a newly
/// generated query; sizes are heavy-tailed (7 to 24 nodes, Zipf). The
/// warm-up is long enough for the predictor's fast-path share to settle:
/// after 300 queries it still differed by a quarter between seeds.
pub fn cold_search_inputs(seed: u64) -> InProc {
    const WARMUP: usize = 1000;
    let g = psi::graph::datasets::wordnet_like(0.25, DATASET_SEED);
    let tenant = Tenant {
        name: "wordnet",
        graph: Arc::new(g),
        config: PsiConfig::gql_spa_orig_dnd(),
        queries: Vec::new(),
    };
    let batches = write_batches(&tenant.graph, seed);
    let mut input = InProc {
        seed,
        tenants: vec![tenant],
        warmup: Vec::new(),
        mix: Mix::Fresh { sizes: Zipf::new(18, 1.0) },
        timeout: Duration::from_secs(10),
        batches,
    };
    let mut rng = Rng::new(seed, 30);
    input.warmup = (0..WARMUP).map(|_| input.draw(&mut rng)).collect();
    input
}

fn write_batches(g: &Graph, seed: u64) -> Vec<GraphUpdate> {
    edge_batches(g, WRITE_BATCHES, 1, &mut Rng::new(seed, 40), &mut HashSet::new())
}

/// Builds a fresh engine and registers every tenant (index build +
/// matcher prepare), `SETUP_REPS` times; keeps the last engine.
fn setup(
    ctx: &Ctx,
    tenants: &[Tenant],
    timeout: Duration,
) -> (MultiEngine, Vec<GraphId>, Vec<f64>) {
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let mut local = ctx.tracer.as_ref().map(Tracer::local);
        let root = local.as_ref().map_or(0, |l| l.id());
        let t0 = Instant::now();
        let multi = MultiEngine::new(engine_config(timeout));
        let mut ids = Vec::new();
        for t in tenants {
            let r0 = Instant::now();
            let runner = PsiRunner::new(Arc::clone(&t.graph), t.config.clone());
            let r1 = Instant::now();
            ids.push(multi.register(t.name, runner).expect("fresh engine, distinct names"));
            let r2 = Instant::now();
            if let Some(l) = local.as_mut() {
                l.record("core.runner_new", r0, r1, root, rep as u64 + 1);
                l.record("engine.register", r1, r2, root, rep as u64 + 1);
            }
        }
        let t1 = Instant::now();
        if let Some(l) = local.as_mut() {
            l.record_id(root, "bench.setup", t0, t1, 0, rep as u64 + 1);
        }
        secs.push((t1 - t0).as_secs_f64());
        last = Some((multi, ids));
    }
    let (multi, ids) = last.expect("at least one set-up");
    (multi, ids, secs)
}

#[derive(Default)]
struct ThreadOut {
    lat: Blocks,
    lat_traced: Hist,
    lat_untraced: Hist,
    tally: Tally,
    paths: [u64; 3],
    race_samples: Vec<(usize, Graph, u64)>,
}

fn path_index(path: ServePath) -> usize {
    match path {
        ServePath::CacheHit => 0,
        ServePath::FastPath => 1,
        ServePath::Race => 2,
    }
}

/// What every client of a run shares.
#[derive(Clone, Copy)]
struct Serving<'a> {
    multi: &'a MultiEngine,
    ids: &'a [GraphId],
    tenants: &'a [Tenant],
}

/// One closed-loop client: next request only after the previous answer.
/// Sends what `next` draws until the measured `phase` is over, recording
/// each answer in the window of the phase it was sent in (or, without a
/// phase, until `next` runs dry, untimed).
/// In a traced run every other request is traced, and a traced
/// request's latency for `bench.trace_overhead` ends after its spans are
/// recorded, so the ratio of the two halves is the tracing cost.
fn client(
    serving: Serving<'_>,
    mut next: impl FnMut() -> Option<Req>,
    phase: Option<(Instant, Duration)>,
    tracer: Option<&Tracer>,
    thread: u64,
) -> ThreadOut {
    let Serving { multi, ids, tenants } = serving;
    let mut out = ThreadOut::default();
    let mut local = tracer.map(Tracer::local);
    let mut k = 0u64;
    loop {
        if phase.is_some_and(|(start, length)| start.elapsed() >= length) {
            break;
        }
        let Some(req) = next() else { break };
        k += 1;
        let request = (thread << 40) | k;
        let t = req.tenant();
        let tenant = &tenants[t];
        let q = req.query(tenants);
        out.tally.attempted += 1;
        let t0 = Instant::now();
        let submitted = multi.submit_nonblocking(QueryRequest::new(q.clone()).graph(ids[t]));
        let t1 = Instant::now();
        let ticket = match submitted {
            Ok(ticket) => ticket,
            Err(SubmitError::Admission(_)) => {
                out.tally.refused += 1;
                continue;
            }
            Err(_) => {
                out.tally.errors += 1;
                continue;
            }
        };
        let resp = ticket.wait();
        let t2 = Instant::now();
        let window = phase.map_or(0, |(start, length)| {
            block_of((t0 - start).as_secs_f64(), length.as_secs_f64())
        });
        out.lat[window].record(t0, t2);
        let p = path_index(resp.path);
        out.paths[p] += 1;
        if let Some(l) = local.as_mut() {
            if k % 2 == 1 {
                let root = l.id();
                l.record("engine.submit", t0, t1, root, request);
                l.record("engine.wait", t1, t2, root, request);
                l.reported(PATH_SPANS[p], resp.elapsed, t2, root, request);
                l.record_id(root, "bench.read", t0, t2, 0, request);
                out.lat_traced.record(ns(t0.elapsed()));
            } else {
                out.lat_untraced.record(ns(t2 - t0));
            }
            if p == 2 && out.race_samples.len() < RACE_SAMPLES {
                out.race_samples.push((t, q.clone(), ns(resp.elapsed)));
            }
        }
        score_response(&mut out.tally, &resp, q, &tenant.graph);
    }
    out
}

pub fn run(ctx: &Ctx, input: &InProc) -> Served {
    let (multi, ids, setup_s) = setup(ctx, &input.tenants, input.timeout);
    let serving = Serving { multi: &multi, ids: &ids, tenants: &input.tenants };
    let mut timed = Timed { setup_s, ..Timed::default() };

    // Warm-up: every distinct query once, split over the clients.
    let chunk = input.warmup.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .warmup
            .chunks(chunk)
            .map(|reqs| {
                let mut it = reqs.iter().cloned();
                s.spawn(move || client(serving, || it.next(), None, None, 0))
            })
            .collect();
        for h in handles {
            timed.reads.merge(&h.join().expect("warm-up client panicked").tally);
        }
    });

    // The measured read phase.
    let phase = (Instant::now(), Duration::from_secs_f64(ctx.seconds));
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tracer = ctx.tracer.as_ref();
                let mut rng = input.stream(c);
                let next = move || Some(input.draw(&mut rng));
                s.spawn(move || client(serving, next, Some(phase), tracer, c as u64 + 1))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let mut race_samples = Vec::new();
    for o in outs {
        timed.reads.merge(&o.tally);
        merge_blocks(&mut timed.reads_by_window, o.lat);
        timed.lat_traced.merge(&o.lat_traced);
        timed.lat_untraced.merge(&o.lat_untraced);
        for (a, b) in timed.paths.iter_mut().zip(o.paths) {
            *a += b;
        }
        race_samples.extend(o.race_samples);
    }
    let stats = multi.stats();
    timed.races = stats.races;
    timed.cancelled = stats.cancelled_variants;

    write_phase(ctx, &multi, ids[0], input, &mut timed);
    Served { timed, race_samples }
}

/// Snapshots the tenant (untimed), then applies the input's batches
/// in-process, one at a time, each third of them as one window. The
/// batch that brings the overlay to the compaction threshold is followed
/// by a pause until that compaction is done, so exactly one compaction
/// runs, and it never overlaps a write. Then checks that every
/// acknowledged edge is in the live graph, and in a fresh engine that
/// cold-opens the snapshot + WAL.
fn write_phase(ctx: &Ctx, multi: &MultiEngine, id: GraphId, input: &InProc, timed: &mut Timed) {
    let batches = &input.batches;
    let dir = ctx.out_dir.join(format!("store-{}-{}", ctx.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let saved = multi.save_graph(id, &dir).expect("save snapshot");
    ctx.count("store.snapshot_bytes", saved.snapshot_bytes as f64);
    let before = multi.graph_stats(id).expect("tenant registered").compactions;
    let threshold = multi.config().tenant.compact_threshold;
    let mut local = ctx.tracer.as_ref().map(Tracer::local);
    let mut acked = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        if i == threshold {
            settle_compaction(multi, id);
        }
        timed.writes.attempted += 1;
        let t0 = Instant::now();
        let applied = multi.apply_update(id, batch);
        let t1 = Instant::now();
        if let Some(l) = local.as_mut() {
            l.record("engine.write", t0, t1, 0, i as u64 + 1);
        }
        match applied {
            Ok(_) => {
                timed.writes_by_window[block_of(i as f64, batches.len() as f64)].record(t0, t1);
                acked.push(i);
            }
            Err(_) => timed.writes.errors += 1,
        }
    }
    let stats = settle_compaction(multi, id);
    timed.compactions = stats.compactions - before;
    ctx.count("engine.cache_invalidations", stats.cache_invalidations as f64);
    ctx.count("engine.updates_applied", stats.updates_applied as f64);
    ctx.count("engine.compaction_us", stats.compaction_us as f64);
    let live = multi.runner(id).expect("tenant registered").materialized();
    let reopened = MultiEngine::new(engine_config(input.timeout));
    let t0 = Instant::now();
    let loaded = reopened.load_graph(&saved.snapshot_path).expect("cold open");
    if let Some(l) = local.as_mut() {
        l.record("store.load", t0, Instant::now(), 0, 1);
    }
    ctx.count("store.wal_replayed", loaded.replayed_records as f64);
    let restored = reopened.runner(loaded.graph).expect("loaded tenant").materialized();
    for &i in &acked {
        if added_edges(&batches[i]).any(|(u, v)| !live.has_edge(u, v) || !restored.has_edge(u, v)) {
            timed.writes.lost += 1;
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits until no triggered compaction is pending or running (the
/// overlay is below the threshold again and every epoch swap has been
/// counted), then returns the tenant's statistics.
fn settle_compaction(multi: &MultiEngine, id: GraphId) -> EngineStats {
    let threshold = multi.config().tenant.compact_threshold;
    let runner = multi.runner(id).expect("tenant registered");
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = multi.graph_stats(id).expect("tenant registered");
        let settled = runner.pending_ops() < threshold && stats.compactions >= stats.epoch;
        if threshold == 0 || settled || Instant::now() > give_up {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The traced run's replay of this workload: `per_run` distinct queries
/// in the order client 0 first asked them, split evenly over the
/// tenants; the race-path answers; the write batches.
pub fn probe_input<'a>(
    input: &'a InProc,
    served: &Served,
    per_run: usize,
    net_rate: f64,
) -> ProbeInput<'a> {
    let per_tenant = per_run / input.tenants.len();
    let mut taken = vec![0; input.tenants.len()];
    let mut seen = HashSet::new();
    let mut replay = Vec::new();
    let mut rng = input.stream(0);
    while replay.len() < per_tenant * input.tenants.len() {
        let req = input.draw(&mut rng);
        let t = req.tenant();
        let new = match req {
            Req::Stored(_, i) => seen.insert((t, i)),
            Req::Fresh(..) => true,
        };
        if taken[t] < per_tenant && new {
            taken[t] += 1;
            replay.push((t, req.query(&input.tenants).clone()));
        }
    }
    ProbeInput {
        graphs: input.tenants.iter().map(|t| (Arc::clone(&t.graph), t.config.clone())).collect(),
        replay,
        race_samples: served.race_samples.clone(),
        batches: &input.batches,
        net_rate,
    }
}
