//! Metrics export: point-in-time snapshots of engine observability
//! state, renderable as Prometheus text or JSON.
//!
//! A [`MetricsExporter`] is a *snapshot*, not a live view: construct one
//! with [`crate::MultiEngine::exporter`] at scrape time, render it,
//! drop it. Snapshotting decouples rendering from the hot path — the
//! only cost on the serving side is the atomic loads taken while the
//! snapshot is built.
//!
//! The Prometheus rendering follows the text exposition format: one
//! `# TYPE` line per metric family, `psi_`-prefixed names, a `graph`
//! label distinguishing tenants of a [`crate::MultiEngine`], and native
//! histogram families (`_bucket{le=...}` / `_sum` / `_count`) for the
//! log-bucketed latency histograms. Only buckets that hold samples are
//! emitted (plus `+Inf`), so the series count tracks the observed
//! latency spread, not the 1920-bucket histogram resolution.

use crate::engine::Tenant;
use crate::stats::{EngineStats, HistogramSnapshot};
use crate::telemetry::SlowQuery;
use std::fmt::Write as _;
use std::time::Duration;

/// Which latency histogram of a graph to address in
/// [`MetricsExporter::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramKind {
    /// End-to-end query latency (all served queries).
    Latency,
    /// Admission → race setup (queue wait).
    QueueWait,
    /// Time spent parked in the waiting room (submission → slot hand-off).
    ParkWait,
    /// Race setup → finalize start.
    RaceStage,
    /// The finalize body itself.
    FinalizeStage,
}

/// Whether a [`METRICS`] row accumulates or reads a current level.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

/// A [`METRICS`] value, formatted per renderer.
enum Value {
    /// An integer count or level.
    Count(u64),
    /// A real number; JSON prints it with this many decimals.
    Real(f64, usize),
    /// A duration: microseconds in JSON, seconds in Prometheus.
    Elapsed(Duration),
}

use Kind::{Counter, Gauge};
use Value::{Count, Elapsed, Real};

/// One metric as both renderers print it: JSON key, Prometheus series
/// (a family name, plus a label where rows share a family), help text,
/// kind and getter.
type Metric = (&'static str, &'static str, &'static str, Kind, fn(&GraphMetricsSnapshot) -> Value);

/// The one metric table behind [`MetricsExporter::render_json`] and
/// [`MetricsExporter::render_prometheus`], in JSON key order.
const METRICS: [Metric; 37] = [
    ("queries", "psi_queries_total", "Queries accepted", Counter, |g| Count(g.stats.queries)),
    ("cache_hits", "psi_cache_hits_total", "Result-cache hits", Counter, |g| {
        Count(g.stats.cache_hits)
    }),
    ("cache_misses", "psi_cache_misses_total", "Result-cache misses", Counter, |g| {
        Count(g.stats.cache_misses)
    }),
    ("hit_rate", "psi_cache_hit_rate", "Cache hit rate (hits / lookups)", Gauge, |g| {
        Real(g.stats.hit_rate, 6)
    }),
    ("races", "psi_races_total", "Races run, escalated fast heats included", Counter, |g| {
        Count(g.stats.races)
    }),
    ("fast_paths", "psi_fast_paths_total", "Fast heats won alone", Counter, |g| {
        Count(g.stats.fast_paths)
    }),
    (
        "fast_path_fallbacks",
        "psi_fast_path_fallbacks_total",
        "Fast heats that came back inconclusive",
        Counter,
        |g| Count(g.stats.fast_path_fallbacks),
    ),
    (
        "fallbacks_inconclusive",
        "psi_fast_path_fallbacks_by_cause_total{cause=\"inconclusive\"}",
        "Fast heats that launched their reserve, by cause",
        Counter,
        |g| Count(g.stats.fallbacks_inconclusive),
    ),
    (
        "fallbacks_deadline",
        "psi_fast_path_fallbacks_by_cause_total{cause=\"deadline\"}",
        "Fast heats that launched their reserve, by cause",
        Counter,
        |g| Count(g.stats.fallbacks_deadline),
    ),
    (
        "races_unconfident",
        "psi_raced_misses_total{cause=\"unconfident\"}",
        "Cache misses planned as a race rather than a fast heat, by cause",
        Counter,
        |g| Count(g.stats.races_unconfident),
    ),
    (
        "races_untrained",
        "psi_raced_misses_total{cause=\"untrained\"}",
        "Cache misses planned as a race rather than a fast heat, by cause",
        Counter,
        |g| Count(g.stats.races_untrained),
    ),
    (
        "cancelled_variants",
        "psi_cancelled_variants_total",
        "Losing entrants cancelled",
        Counter,
        |g| Count(g.stats.cancelled_variants),
    ),
    (
        "busy_rejections",
        "psi_busy_rejections_total",
        "Submissions bounced at admission (no waiting room)",
        Counter,
        |g| Count(g.stats.busy_rejections),
    ),
    (
        "queue_full_rejections",
        "psi_queue_full_total",
        "Submissions refused because the waiting room overflowed",
        Counter,
        |g| Count(g.stats.queue_full_rejections),
    ),
    ("parked", "psi_parked_total", "Submissions parked in the waiting room", Counter, |g| {
        Count(g.stats.parked)
    }),
    (
        "waiting_room_depth",
        "psi_waiting_room_depth",
        "Requests currently parked in the waiting room",
        Gauge,
        |g| Count(g.stats.waiting_room_depth),
    ),
    ("inconclusive", "psi_inconclusive_total", "Races with no conclusive winner", Counter, |g| {
        Count(g.stats.inconclusive)
    }),
    (
        "topk_races",
        "psi_topk_races_total",
        "Races launched as a pruned staged heat",
        Counter,
        |g| Count(g.stats.topk_races),
    ),
    (
        "pruned_entrants",
        "psi_pruned_entrants_total",
        "Entrants never launched (pruned)",
        Counter,
        |g| Count(g.stats.pruned_entrants),
    ),
    (
        "escalations",
        "psi_escalations_total",
        "Pruned heats escalated to the full field",
        Counter,
        |g| Count(g.stats.escalations),
    ),
    ("escalation_rate", "psi_escalation_rate", "Escalations per staged race", Gauge, |g| {
        Real(g.stats.escalation_rate, 6)
    }),
    ("sliced_races", "psi_sliced_races_total", "Races whose heat ran sliced", Counter, |g| {
        Count(g.stats.sliced_races)
    }),
    (
        "slices_spawned",
        "psi_slices_total",
        "Slice tasks spawned for sliced heat entrants",
        Counter,
        |g| Count(g.stats.slices_spawned),
    ),
    (
        "slice_steals",
        "psi_slice_steals_total",
        "Root-candidate ranges stolen across slices",
        Counter,
        |g| Count(g.stats.slice_steals),
    ),
    ("index_build_us", "psi_index_build_us", "One-time target-index build cost", Gauge, |g| {
        Count(g.stats.index_build_us)
    }),
    (
        "edge_probes_bitset",
        "psi_edge_probes_total{kind=\"bitset\"}",
        "Adjacency probes by index kind",
        Counter,
        |g| Count(g.stats.edge_probes_bitset),
    ),
    (
        "edge_probes_binary",
        "psi_edge_probes_total{kind=\"binary\"}",
        "Adjacency probes by index kind",
        Counter,
        |g| Count(g.stats.edge_probes_binary),
    ),
    (
        "wal_appended",
        "psi_wal_appended_total",
        "Learned-state WAL records appended",
        Counter,
        |g| Count(g.stats.wal_appended),
    ),
    (
        "wal_replayed",
        "psi_wal_replayed_total",
        "Learned-state WAL records replayed at load",
        Counter,
        |g| Count(g.stats.wal_replayed),
    ),
    (
        "updates_applied",
        "psi_updates_applied_total",
        "Graph-mutation batches applied",
        Counter,
        |g| Count(g.stats.updates_applied),
    ),
    (
        "compactions",
        "psi_compactions_total",
        "Delta overlays folded into a new epoch",
        Counter,
        |g| Count(g.stats.compactions),
    ),
    (
        "compaction_us",
        "psi_compaction_us_total",
        "Wall-clock microseconds spent compacting",
        Counter,
        |g| Count(g.stats.compaction_us),
    ),
    (
        "cache_invalidations",
        "psi_cache_invalidations_total",
        "Cache partition wipes (mutations and epoch swaps)",
        Counter,
        |g| Count(g.stats.cache_invalidations),
    ),
    ("epoch", "psi_epoch", "Live-graph epoch (bumped per compaction)", Gauge, |g| {
        Count(g.stats.epoch)
    }),
    ("throughput_qps", "psi_throughput_qps", "Queries per second since engine start", Gauge, |g| {
        Real(g.stats.throughput_qps, 3)
    }),
    ("uptime_us", "psi_uptime_seconds", "Engine uptime", Gauge, |g| Elapsed(g.stats.uptime)),
    (
        "trace_dropped",
        "psi_trace_dropped_total",
        "Trace events dropped (rings full)",
        Counter,
        |g| Count(g.trace_dropped),
    ),
];

/// Point-in-time observability snapshot of one graph's engine.
#[derive(Debug, Clone)]
pub struct GraphMetricsSnapshot {
    /// Registered graph name.
    pub name: String,
    /// Counter / rate snapshot.
    pub stats: EngineStats,
    /// End-to-end latency histogram over every served query.
    pub latency: HistogramSnapshot,
    /// Queue-wait stage histogram (admission → setup).
    pub queue_wait: HistogramSnapshot,
    /// Waiting-room park time histogram (submission → slot hand-off).
    pub park_wait: HistogramSnapshot,
    /// Race stage histogram (setup → finalize start).
    pub race_stage: HistogramSnapshot,
    /// Finalize stage histogram.
    pub finalize_stage: HistogramSnapshot,
    /// Trace events dropped because rings were full.
    pub trace_dropped: u64,
    /// The worst-latency queries, slowest first, with per-entrant timing.
    pub slow: Vec<SlowQuery>,
}

impl GraphMetricsSnapshot {
    pub(crate) fn capture(tenant: &Tenant) -> Self {
        let core = &tenant.core;
        let c = &core.stats;
        Self {
            name: tenant.name.clone(),
            stats: tenant.stats(),
            latency: c.latency.snapshot(),
            queue_wait: c.queue_wait.snapshot(),
            park_wait: c.park_wait.snapshot(),
            race_stage: c.race_stage.snapshot(),
            finalize_stage: c.finalize_stage.snapshot(),
            trace_dropped: core.telemetry.trace.as_ref().map_or(0, |t| t.dropped()),
            slow: core.telemetry.slow.worst(),
        }
    }

    fn histogram(&self, kind: HistogramKind) -> &HistogramSnapshot {
        match kind {
            HistogramKind::Latency => &self.latency,
            HistogramKind::QueueWait => &self.queue_wait,
            HistogramKind::ParkWait => &self.park_wait,
            HistogramKind::RaceStage => &self.race_stage,
            HistogramKind::FinalizeStage => &self.finalize_stage,
        }
    }
}

/// A renderable snapshot of every graph's metrics. See the module docs.
#[derive(Debug, Clone)]
pub struct MetricsExporter {
    graphs: Vec<GraphMetricsSnapshot>,
}

impl MetricsExporter {
    pub(crate) fn new(graphs: Vec<GraphMetricsSnapshot>) -> Self {
        Self { graphs }
    }

    /// The per-graph snapshots, in registration order.
    pub fn graphs(&self) -> &[GraphMetricsSnapshot] {
        &self.graphs
    }

    /// One graph's histogram snapshot by graph index, for programmatic
    /// inspection (tests, dashboards). `graph` indexes [`Self::graphs`].
    pub fn histogram(&self, graph: usize, kind: HistogramKind) -> Option<&HistogramSnapshot> {
        self.graphs.get(graph).map(|g| g.histogram(kind))
    }

    /// The pooled histogram across every graph: bucket-wise merge of the
    /// per-graph snapshots.
    pub fn merged_histogram(&self, kind: HistogramKind) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for g in &self.graphs {
            merged.merge(g.histogram(kind));
        }
        merged
    }

    fn labels(&self, graph: &GraphMetricsSnapshot, extra: &[(&str, &str)]) -> String {
        let mut pairs = vec![format!("graph=\"{}\"", escape_label(&graph.name))];
        for (k, v) in extra {
            pairs.push(format!("{k}=\"{v}\""));
        }
        format!("{{{}}}", pairs.join(","))
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for (_, series, help, kind, get) in METRICS {
            // `psi_edge_probes_total{kind="bitset"}` → family + label.
            let (name, label) = series.split_once('{').map_or((series, None), |(name, label)| {
                let (k, v) = label.trim_end_matches('}').split_once('=').expect("label pair");
                (name, Some((k, v.trim_matches('"'))))
            });
            if name != family {
                family = name;
                let kind = match kind {
                    Counter => "counter",
                    Gauge => "gauge",
                };
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
            let extra: Vec<(&str, &str)> = label.into_iter().collect();
            for g in &self.graphs {
                let labels = self.labels(g, &extra);
                let _ = match get(g) {
                    Count(v) => writeln!(out, "{name}{labels} {v}"),
                    Real(v, _) => writeln!(out, "{name}{labels} {v}"),
                    Elapsed(d) => writeln!(out, "{name}{labels} {}", d.as_secs_f64()),
                };
            }
        }
        // End-to-end latency: its own family.
        let _ = writeln!(out, "# HELP psi_query_latency_us End-to-end query latency");
        let _ = writeln!(out, "# TYPE psi_query_latency_us histogram");
        for g in &self.graphs {
            self.render_histogram(&mut out, "psi_query_latency_us", g, &[], &g.latency);
        }
        // Stage breakdowns share one family, distinguished by a label.
        let _ = writeln!(out, "# HELP psi_stage_latency_us Per-stage query latency");
        let _ = writeln!(out, "# TYPE psi_stage_latency_us histogram");
        for g in &self.graphs {
            for (stage, hist) in [
                ("queue_wait", &g.queue_wait),
                ("race", &g.race_stage),
                ("finalize", &g.finalize_stage),
            ] {
                self.render_histogram(
                    &mut out,
                    "psi_stage_latency_us",
                    g,
                    &[("stage", stage)],
                    hist,
                );
            }
        }
        // Park wait: its own family — it measures time *outside* the
        // query pipeline (before admission), not a pipeline stage.
        let _ = writeln!(out, "# HELP psi_park_wait_us Waiting-room park time");
        let _ = writeln!(out, "# TYPE psi_park_wait_us histogram");
        for g in &self.graphs {
            self.render_histogram(&mut out, "psi_park_wait_us", g, &[], &g.park_wait);
        }
        out
    }

    fn render_histogram(
        &self,
        out: &mut String,
        name: &str,
        graph: &GraphMetricsSnapshot,
        extra: &[(&str, &str)],
        hist: &HistogramSnapshot,
    ) {
        let mut cumulative = 0u64;
        for &(upper, count) in &hist.buckets {
            cumulative += count;
            let upper = upper.to_string();
            let mut labels: Vec<(&str, &str)> = extra.to_vec();
            labels.push(("le", upper.as_str()));
            let _ = writeln!(out, "{name}_bucket{} {cumulative}", self.labels(graph, &labels));
        }
        let mut labels: Vec<(&str, &str)> = extra.to_vec();
        labels.push(("le", "+Inf"));
        let _ = writeln!(out, "{name}_bucket{} {}", self.labels(graph, &labels), hist.count);
        let _ = writeln!(out, "{name}_sum{} {}", self.labels(graph, extra), hist.sum_us);
        let _ = writeln!(out, "{name}_count{} {}", self.labels(graph, extra), hist.count);
    }

    /// Renders the snapshot as a self-contained JSON document: per-graph
    /// counters, latency percentiles, stage breakdowns and the
    /// slow-query log with per-entrant timing.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"graphs\":[");
        for (i, g) in self.graphs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let _ = write!(out, "\"name\":\"{}\"", escape_json(&g.name));
            for (key, _, _, _, get) in METRICS {
                let _ = match get(g) {
                    Count(v) => write!(out, ",\"{key}\":{v}"),
                    Real(v, decimals) => write!(out, ",\"{key}\":{v:.decimals$}"),
                    Elapsed(d) => write!(out, ",\"{key}\":{}", d.as_micros()),
                };
            }
            let _ = write!(
                out,
                ",\"latency_us\":{{\"p50\":{},\"p99\":{},\"mean\":{:.1},\"count\":{}}}",
                g.latency.percentile(0.50),
                g.latency.percentile(0.99),
                g.latency.mean_us(),
                g.latency.count,
            );
            out.push_str(",\"stages\":{");
            for (j, (stage, hist)) in [
                ("queue_wait", &g.queue_wait),
                ("park_wait", &g.park_wait),
                ("race", &g.race_stage),
                ("finalize", &g.finalize_stage),
            ]
            .into_iter()
            .enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{stage}\":{{\"p50\":{},\"p99\":{},\"count\":{}}}",
                    hist.percentile(0.50),
                    hist.percentile(0.99),
                    hist.count,
                );
            }
            out.push('}');
            out.push_str(",\"slow_queries\":[");
            for (j, q) in g.slow.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"query\":{},\"elapsed_us\":{},\"path\":\"{:?}\",\"conclusive\":{},",
                    q.query, q.elapsed_us, q.path, q.conclusive
                );
                match q.winner {
                    Some(w) => {
                        let _ = write!(out, "\"winner\":\"{w}\",");
                    }
                    None => out.push_str("\"winner\":null,"),
                }
                out.push_str("\"entrants\":[");
                for (k, e) in q.entrants.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"variant\":\"{}\",\"stop\":\"{:?}\",\"wall_us\":{},\"pruned\":{}}}",
                        e.variant, e.stop, e.wall_us, e.pruned
                    );
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_handles_quotes_and_backslashes() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\there\n"), "tab\\there\\n");
    }
}
