//! The traced run's replay: after the measured phase, the workload's own
//! inputs go once more through each layer's public entry point, on
//! separate runners and engines, each call inside a span. Nothing here
//! is timed as part of the end-to-end metrics.

use crate::common::{engine_config, ns, score, Ctx, Tally};
use crate::inputs::{added_edges, edge_batches, with_edges};
use crate::rng::Rng;
use crate::trace::Local;
use crate::wire::{self, Due, Event};
use psi::core::{GraphUpdate, PsiConfig, PsiRunner, RaceBudget, Rewriting};
use psi::engine::{MultiEngine, QueryRequest, Submit};
use psi::graph::{Graph, LabelStats, NodeId, TargetIndex};
use psi::matchers::{Algorithm, Matcher, SearchBudget};
use psi::net::loopback;
use psi::rewrite::rewrite_query;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request ids of replay spans carry this bit; measured-phase ids never do.
pub const PROBE: u64 = 1 << 62;
/// Solo matcher searches get this long before they count as timed out.
const SEARCH_TIMEOUT: Duration = Duration::from_secs(2);

pub struct ProbeInput<'a> {
    /// The workload's stored graphs with their entrant configurations;
    /// writes and the single-tenant probes use the first.
    pub graphs: Vec<(Arc<Graph>, PsiConfig)>,
    /// (tenant, query) replayed through matchers, rewriting and the race.
    pub replay: Vec<(usize, Graph)>,
    /// (tenant, query, engine-reported latency ns) of race-path answers.
    pub race_samples: Vec<(usize, Graph, u64)>,
    /// The workload's own write batches, against the first graph.
    pub batches: &'a [GraphUpdate],
    /// Reads per second of the loopback replay, well below what the
    /// workload's queries saturate.
    pub net_rate: f64,
}

/// Runs every probe; checks every answer, and every acknowledged
/// loopback write, into `reads`. Returns, per replayed race-path query,
/// the engine's race latency minus the race alone (ns).
pub fn run(ctx: &Ctx, input: &ProbeInput<'_>, reads: &mut Tally) -> Vec<i64> {
    let tracer = ctx.tracer.as_ref().expect("probes run in traced runs");
    let mut l = tracer.local();
    let mut req = PROBE;
    let mut next = || {
        req += 1;
        req
    };

    // psi-graph: index build, three times per graph.
    let mut indexes = Vec::new();
    for (g, _) in &input.graphs {
        for _ in 0..3 {
            let t0 = Instant::now();
            let index = Arc::new(TargetIndex::build(Arc::clone(g)));
            l.record("graph.index_build", t0, Instant::now(), 0, next());
            indexes.push(index);
        }
    }
    let indexes: Vec<_> = indexes.into_iter().step_by(3).collect();

    // psi-matchers: preparation per algorithm, over every graph.
    let mut prepared: Vec<[Arc<dyn Matcher>; 2]> = Vec::new();
    for index in &indexes {
        let mut keep = Vec::new();
        for (alg, name) in [
            (Algorithm::GraphQl, "matchers.prepare.graphql"),
            (Algorithm::SPath, "matchers.prepare.spath"),
            (Algorithm::QuickSi, "matchers.prepare.quicksi"),
        ] {
            let t0 = Instant::now();
            let m = alg.prepare_indexed(Arc::clone(index));
            l.record(name, t0, Instant::now(), 0, next());
            keep.push(m);
        }
        keep.truncate(2);
        prepared.push(keep.try_into().unwrap_or_else(|_| unreachable!("two matchers kept")));
    }

    // psi-matchers: each solo search; psi-rewrite: the DND rewriting.
    let stats: Vec<LabelStats> =
        input.graphs.iter().map(|(g, _)| LabelStats::from_graph(g)).collect();
    for (t, q) in &input.replay {
        let t = *t;
        for (i, (name, count, timeouts)) in [
            (
                "matchers.search.graphql",
                "matchers.nodes_expanded.graphql",
                "matchers.timeouts.graphql",
            ),
            ("matchers.search.spath", "matchers.nodes_expanded.spath", "matchers.timeouts.spath"),
        ]
        .into_iter()
        .enumerate()
        {
            let budget = SearchBudget::first_match().timeout(SEARCH_TIMEOUT);
            let t0 = Instant::now();
            let r = prepared[t][i].search(q, &budget);
            l.record(name, t0, Instant::now(), 0, next());
            ctx.count(count, r.stats.nodes_expanded as f64);
            if !r.is_conclusive() {
                ctx.count(timeouts, 1.0);
            } else {
                reads.attempted += 1;
                let emb = r.embeddings.first().map(Vec::as_slice);
                score(reads, true, r.found(), emb, q, &input.graphs[t].0);
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(rewrite_query(q, &stats[t], Rewriting::Dnd));
        l.record("rewrite.dnd", t0, Instant::now(), 0, next());
    }
    drop(prepared);

    // psi-core: the race alone, on separate runners.
    let runners: Vec<Arc<PsiRunner>> = input
        .graphs
        .iter()
        .zip(&indexes)
        .map(|((g, config), index)| {
            Arc::new(PsiRunner::with_prebuilt_index(
                Arc::clone(g),
                config.clone(),
                Arc::clone(index),
            ))
        })
        .collect();
    // psi-engine on a shadow engine over the first graph's runner.
    let g0 = Arc::clone(&input.graphs[0].0);
    let shadow = Arc::clone(&runners[0]);
    let timeout = Duration::from_secs(10);
    let multi = Arc::new(MultiEngine::new(engine_config(timeout)));
    let id = multi.register_shared("shadow", Arc::clone(&shadow)).expect("fresh engine");

    // Bursts wider than the admission limit: the waiting room fills.
    // The replay's last queries come first, so the bursts miss the cache.
    let burst: Vec<&Graph> =
        input.replay.iter().rev().filter(|(t, _)| *t == 0).map(|(_, q)| q).collect();
    let mut check_later: Vec<(&Graph, Vec<NodeId>)> = Vec::new();
    for chunk in burst.chunks(16).take(8) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|q| multi.submit_nonblocking(QueryRequest::new((*q).clone()).graph(id)))
            .collect();
        for (q, ticket) in chunk.iter().zip(tickets) {
            reads.attempted += 1;
            let Ok(ticket) = ticket else {
                reads.refused += 1;
                continue;
            };
            let resp = ticket.wait();
            match resp.answer.embeddings.first() {
                Some(e) if resp.conclusive && resp.found() => check_later.push((q, e.clone())),
                _ => score(reads, resp.conclusive, resp.found(), None, q, q),
            }
        }
    }
    let stats = multi.graph_stats(id).expect("shadow tenant");
    ctx.count("engine.park_wait_ns", ns(stats.park_wait_p99) as f64);
    ctx.count("engine.parked", stats.parked as f64);

    // psi-core: the race alone, on the separate runners.
    let race_budget = RaceBudget::decision().timeout(timeout);
    let race_once = |l: &mut Local<'_>, t: usize, q: &Graph, req: u64, reads: &mut Tally| {
        let t0 = Instant::now();
        let outcome = runners[t].race(q, race_budget.clone());
        let took = ns(t0.elapsed());
        l.record("core.race", t0, Instant::now(), 0, req);
        reads.attempted += 1;
        let winner = outcome.winner();
        let emb = winner.and_then(|w| w.result.embeddings.first()).map(Vec::as_slice);
        score(reads, outcome.is_conclusive(), outcome.found(), emb, q, &input.graphs[t].0);
        if let Some(w) = winner {
            let total: f64 = outcome.per_variant.iter().map(|v| v.wall.as_secs_f64()).sum();
            if total > 0.0 {
                ctx.count("core.useful_sum", w.wall.as_secs_f64() / total);
                ctx.count("core.useful_n", 1.0);
            }
        }
        took
    };
    let mut overheads = Vec::new();
    for (t, q, engine_ns) in &input.race_samples {
        let core_ns = race_once(&mut l, *t, q, next(), reads);
        overheads.push(*engine_ns as i64 - core_ns as i64);
    }
    for (t, q) in &input.replay {
        race_once(&mut l, *t, q, next(), reads);
    }
    drop(runners);

    // psi-delta and the core's compaction, on the first graph's runner:
    // the workload's write batches, compacting at the engine's threshold.
    let threshold = multi.config().tenant.compact_threshold;
    for batch in input.batches {
        let t0 = Instant::now();
        shadow.apply_update(batch).expect("additive batch applies");
        l.record("delta.apply", t0, Instant::now(), 0, next());
        if shadow.pending_ops() >= threshold {
            let t0 = Instant::now();
            shadow.compact();
            l.record("core.compact", t0, Instant::now(), 0, next());
        }
    }
    drop(shadow);
    let mut applied: Vec<(NodeId, NodeId)> = input.batches.iter().flat_map(added_edges).collect();
    let fg = with_edges(&g0, applied.iter().copied());
    for (q, e) in check_later.drain(..) {
        score(reads, true, true, Some(&e), q, &fg);
    }

    // psi-net: the first graph's reads and some writes over loopback,
    // open loop at `net_rate` reads per second.
    let mut taken: HashSet<(NodeId, NodeId)> = applied.iter().copied().collect();
    let writes = edge_batches(&g0, 64, 1, &mut Rng::new(ctx.seed, 60), &mut taken);
    let span_ns = 1.5e9;
    let n = (input.net_rate * span_ns / 1e9) as usize;
    let queries: Vec<Graph> = burst.iter().take(n.max(1)).map(|q| (*q).clone()).collect();
    let mut schedule: Vec<Due> = (0..queries.len())
        .map(|i| Due {
            at_ns: (i as f64 * span_ns / queries.len() as f64) as u64,
            event: Event::Read(i),
        })
        .chain((0..writes.len()).map(|j| Due {
            at_ns: ((j as f64 + 0.5) * span_ns / writes.len() as f64) as u64,
            event: Event::Write(j),
        }))
        .collect();
    schedule.sort_by_key(|d| d.at_ns);
    let mut server = loopback(Arc::clone(&multi), 2).expect("start loopback server");
    let mut out = wire::open_loop(server.addr(), &queries, &writes, &schedule, tracer);
    server.shutdown();
    drop(server);
    let live = multi.runner(id).expect("shadow tenant").materialized();
    for &b in &out.acked {
        if added_edges(&writes[b]).any(|(u, v)| !live.has_edge(u, v)) {
            out.writes.lost += 1;
        }
    }
    drop(multi);
    applied.extend(out.acked.iter().flat_map(|&b| added_edges(&writes[b])));
    wire::check_answers(&mut out, &queries, &with_edges(&g0, applied));
    reads.merge(&out.reads);
    reads.merge(&out.writes);
    codec(&mut l, queries.iter(), &writes, &out, reads, &mut next);
    overheads
}

/// psi-net codec: encode + decode of each frame of a run (up to 2000
/// of each kind). A frame that does not come back equal is a wrong
/// answer.
fn codec<'g>(
    l: &mut Local<'_>,
    queries: impl Iterator<Item = &'g Graph>,
    batches: &[GraphUpdate],
    out: &wire::WireOut,
    reads: &mut Tally,
    next: &mut impl FnMut() -> u64,
) {
    use psi::net::{QueryFrame, ReplyFrame, UpdateFrame, WireVerdict};
    let mut check = |name: &'static str, t0: Instant, same: bool| {
        l.record(name, t0, Instant::now(), 0, next());
        reads.attempted += 1;
        if !same {
            reads.wrong += 1;
        }
    };
    for q in queries.take(2000) {
        let frame = QueryFrame::new(0, q);
        let t0 = Instant::now();
        let back = QueryFrame::decode(&frame.encode());
        check("net.codec.query", t0, back.as_ref() == Ok(&frame));
    }
    for (i, (_, emb)) in out.answers.iter().take(2000).enumerate() {
        let verdict = WireVerdict {
            found: true,
            conclusive: true,
            path: 2,
            elapsed_us: 100,
            num_matches: 1,
            embedding: emb.clone(),
        };
        let frame = ReplyFrame::ok(i as u64, verdict);
        let t0 = Instant::now();
        let back = ReplyFrame::decode(&frame.encode());
        check("net.codec.reply", t0, back.as_ref() == Ok(&frame));
    }
    for b in batches.iter().take(2000) {
        let frame = UpdateFrame::new(0, b.clone());
        let t0 = Instant::now();
        let back = UpdateFrame::decode(&frame.encode());
        check("net.codec.update", t0, back.as_ref() == Ok(&frame));
    }
}
