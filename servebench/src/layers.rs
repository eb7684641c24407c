//! Per-layer metrics, computed from the traced run's spans and the
//! counts recorded next to them.

use crate::common::{Ctx, Timed, PATH_SPANS};
use crate::probes::PROBE;
use crate::report::Report;
use crate::trace::{mean, pct, Span, Trace};
use std::collections::HashMap;

/// Round trip from the actual send to the reply, per wire root span
/// named `root`, minus the server-reported serve time where present.
fn residuals(trace: &Trace, root: &str, subtract_serve: bool) -> Vec<i64> {
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &trace.spans {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push(s);
        }
    }
    let mut out: Vec<i64> = trace
        .spans
        .iter()
        .filter(|s| s.name == root)
        .filter_map(|s| {
            let children = kids.get(&s.id)?;
            let send = children.iter().find(|c| c.name == "net.send")?;
            let serve =
                children.iter().find(|c| PATH_SPANS.contains(&c.name)).map_or(0, |c| c.dur_ns());
            let rt = s.end_ns.saturating_sub(send.start_ns);
            Some(rt as i64 - if subtract_serve { serve as i64 } else { 0 })
        })
        .collect();
    out.sort_unstable();
    out
}

pub fn per_layer(ctx: &Ctx, trace: &Trace, timed: &Timed, overheads: &[i64]) -> Report {
    let mut r = Report::default();
    let d = |name: &str| trace.durations(name);
    let ms = |ns: f64| ns / 1e6;

    // psi-net
    let res = residuals(trace, "wire.read", true);
    r.add("net.residual_us.p50", pct(&res, 0.5) as f64 / 1e3, "us", res.len());
    r.add("net.residual_us.p99", pct(&res, 0.99) as f64 / 1e3, "us", res.len());
    let write_rt = residuals(trace, "wire.write", false);
    let writes = d("engine.write");
    r.add(
        "net.write_residual_us.p50",
        (pct(&write_rt, 0.5) - pct(&writes, 0.5) as i64) as f64 / 1e3,
        "us",
        write_rt.len(),
    );
    for kind in ["query", "reply", "update"] {
        let c = d(&format!("net.codec.{kind}"));
        r.add(format!("net.codec_ns.{kind}"), mean(&c), "ns", c.len());
    }

    // psi-engine, reads
    let total: u64 = timed.paths.iter().sum();
    for (i, name) in ["hit", "fast", "race"].iter().enumerate() {
        let share = timed.paths[i] as f64 / total.max(1) as f64;
        r.add(format!("engine.path_share.{name}"), share, "share", total as usize);
    }
    // Engine-reported serve times of the measured phase; the loopback
    // replay's come over the wire in whole µs and are left out.
    for (span, name) in PATH_SPANS.iter().zip(["hit", "fast", "race"]) {
        let mut v: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name == *span && s.request & PROBE == 0)
            .map(Span::dur_ns)
            .collect();
        v.sort_unstable();
        r.add_pct_us(format!("engine.{name}_us.p50"), &v, 0.5);
        r.add_pct_us(format!("engine.{name}_us.p99"), &v, 0.99);
    }
    r.add_pct_us("engine.submit_us.p50", &d("engine.submit"), 0.5);
    r.add_pct_us("engine.wait_us.p50", &d("engine.wait"), 0.5);
    let mut over = overheads.to_vec();
    over.sort_unstable();
    r.add("engine.overhead_us.p50", pct(&over, 0.5) as f64 / 1e3, "us", over.len());
    r.add("engine.overhead_us.p99", pct(&over, 0.99) as f64 / 1e3, "us", over.len());
    r.add(
        "engine.park_wait_us.p99",
        ctx.counted("engine.park_wait_ns") / 1e3,
        "us",
        ctx.counted("engine.parked") as usize,
    );
    r.add(
        "engine.cancelled_per_race",
        timed.cancelled as f64 / timed.races.max(1) as f64,
        "ratio",
        timed.races as usize,
    );

    // psi-engine, writes
    r.add_pct_us("engine.write_us.p50", &writes, 0.5);
    r.add_pct_us("engine.write_us.p99", &writes, 0.99);
    let applied = ctx.counted("engine.updates_applied");
    r.add(
        "engine.invalidations_per_write",
        ctx.counted("engine.cache_invalidations") / applied.max(1.0),
        "ratio",
        applied as usize,
    );
    r.add("engine.compactions", timed.compactions as f64, "count", 1);
    r.add(
        "engine.compaction_ms.mean",
        ctx.counted("engine.compaction_us") / 1e3 / timed.compactions.max(1) as f64,
        "ms",
        timed.compactions as usize,
    );

    // psi-core
    let race = d("core.race");
    r.add_pct_us("core.race_us.p50", &race, 0.5);
    r.add_pct_us("core.race_us.p99", &race, 0.99);
    let n = ctx.counted("core.useful_n");
    r.add("core.useful_ratio", ctx.counted("core.useful_sum") / n.max(1.0), "ratio", n as usize);
    let compact = d("core.compact");
    r.add("core.compact_ms", ms(pct(&compact, 0.5) as f64), "ms", compact.len());

    // psi-delta
    r.add_pct_us("delta.apply_us.p50", &d("delta.apply"), 0.5);
    r.add_pct_us("delta.apply_us.p99", &d("delta.apply"), 0.99);
    let first_compact =
        trace.spans.iter().find(|s| s.name == "core.compact").map_or(u64::MAX, |s| s.start_ns);
    let cycle: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "delta.apply" && s.start_ns < first_compact)
        .map(Span::dur_ns)
        .collect();
    let tenth = (cycle.len() / 10).max(1);
    let growth = if cycle.len() >= 10 {
        mean(&cycle[cycle.len() - tenth..]) / mean(&cycle[..tenth])
    } else {
        0.0
    };
    r.add("delta.apply_growth", growth, "ratio", cycle.len());

    // psi-matchers
    for alg in ["graphql", "spath"] {
        let s = d(&format!("matchers.search.{alg}"));
        r.add_pct_us(format!("matchers.search_us.{alg}.p50"), &s, 0.5);
        r.add_pct_us(format!("matchers.search_us.{alg}.p99"), &s, 0.99);
    }
    for alg in ["graphql", "spath"] {
        let name = format!("matchers.nodes_expanded.{alg}");
        r.add(
            name.clone(),
            ctx.counted(&name),
            "count",
            d(&format!("matchers.search.{alg}")).len(),
        );
    }
    for alg in ["spath", "graphql", "quicksi"] {
        let p = d(&format!("matchers.prepare.{alg}"));
        r.add(
            format!("matchers.prepare_ms.{alg}"),
            ms(p.iter().sum::<u64>() as f64),
            "ms",
            p.len(),
        );
    }

    // psi-rewrite
    r.add_pct_us("rewrite.rewrite_us.dnd.p50", &d("rewrite.dnd"), 0.5);

    // psi-store
    let load = d("store.load");
    r.add("store.load_ms", ms(pct(&load, 0.5) as f64), "ms", load.len());
    r.add("store.snapshot_mb", ctx.counted("store.snapshot_bytes") / (1u64 << 20) as f64, "MiB", 1);
    r.add("store.wal_replayed", ctx.counted("store.wal_replayed"), "count", 1);

    // psi-graph: per graph, the median of its three builds; summed.
    let builds: Vec<u64> =
        trace.spans.iter().filter(|s| s.name == "graph.index_build").map(Span::dur_ns).collect();
    let index_ns: u64 = builds
        .chunks(3)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c[c.len() / 2]
        })
        .sum();
    r.add("graph.index_build_ms", ms(index_ns as f64), "ms", builds.len());

    // harness
    r.add_pct_us("bench.gen_lag_us.p99", &d("bench.gen_lag"), 0.99);
    let (a, b) = (&timed.lat_traced, &timed.lat_untraced);
    r.add(
        "bench.trace_overhead",
        a.pct(0.5) as f64 / b.pct(0.5).max(1) as f64,
        "ratio",
        a.len() + b.len(),
    );
    r
}

/// Per span name: spans seen and kept, median duration and median self
/// time (duration minus what child spans cover).
pub fn print_self_times(trace: &Trace) {
    let selfs = trace.self_times();
    let mut by_name: std::collections::BTreeMap<&str, (Vec<u64>, Vec<u64>)> = Default::default();
    for s in &trace.spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns());
        e.1.push(selfs[&s.id]);
    }
    println!("  {:<28} {:>9} {:>9} {:>14} {:>14}", "span", "seen", "kept", "p50_us", "self_p50_us");
    for (name, (mut dur, mut own)) in by_name {
        dur.sort_unstable();
        own.sort_unstable();
        println!(
            "  {:<28} {:>9} {:>9} {:>14.3} {:>14.3}",
            name,
            trace.seen.get(name).copied().unwrap_or(0),
            dur.len(),
            pct(&dur, 0.5) as f64 / 1e3,
            pct(&own, 0.5) as f64 / 1e3
        );
    }
}
