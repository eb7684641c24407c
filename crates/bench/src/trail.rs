//! Bench-trail tooling: turn a directory of nightly
//! `BENCH_engine-nightly-*` artifacts into a qps-over-time table.
//!
//! The nightly CI job uploads one commit-stamped `BENCH_engine.json`
//! per day (see `.github/workflows/ci.yml`); downloading a span of
//! those artifacts into one directory and running
//!
//! ```text
//! cargo run --release -p psi-bench --bin bench_check -- --trail <dir>
//! ```
//!
//! prints each run's throughput metrics in date order with the relative
//! change versus the previous run — the repo's performance trajectory at
//! a glance, no spreadsheet required.
//!
//! The parsing here is deliberately the same flat-JSON dialect the
//! artifact writes ([`crate::artifact::parse_flat_json`] for the
//! numeric fields, [`parse_string_stamps`] for the provenance stamps);
//! string values must not contain commas, which commit SHAs and ISO
//! dates never do.

use crate::artifact::parse_flat_json;

/// The metrics a trail table tracks, in column order: the qps columns
/// and the `telemetry_overhead` / `cold_start_speedup` /
/// `sliced_p99_speedup` ratios (up is good for all of them), plus the informational columns — index build cost, the
/// adjacency-probe split (v5), snapshot size and WAL replay cost (v7),
/// overlay compaction cost (v8), slicing selectivity and steal activity
/// (v9) — which trend with workload shape rather than gate.
/// Artifacts predating a metric (older schema versions) show `—` in its
/// column instead of failing the whole trail.
pub const TRAIL_METRICS: [&str; 17] = [
    "qps",
    "multi_qps",
    "topk_qps",
    "async_qps",
    "net_qps",
    "ingest_qps",
    "telemetry_overhead",
    "cold_start_speedup",
    "sliced_p99_speedup",
    "index_build_us",
    "edge_probes_bitset",
    "edge_probes_binary",
    "snapshot_bytes",
    "wal_replay_us",
    "compaction_us",
    "slices_per_query",
    "steal_count",
];

/// One parsed artifact in the trail.
#[derive(Debug, Clone)]
pub struct TrailPoint {
    /// Where the artifact came from (file or artifact-directory name).
    pub label: String,
    /// The `date` provenance stamp, if the artifact carries one.
    pub date: Option<String>,
    /// The `commit` provenance stamp, if the artifact carries one.
    pub commit: Option<String>,
    /// Every numeric field of the artifact, in file order.
    pub metrics: Vec<(String, f64)>,
}

impl TrailPoint {
    /// Parses one artifact. `label` is only used for display and
    /// date-less ordering.
    pub fn parse(label: &str, text: &str) -> Result<Self, String> {
        let metrics = parse_flat_json(text)?;
        let stamps = parse_string_stamps(text);
        let stamp = |key: &str| stamps.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        Ok(Self { label: label.to_string(), date: stamp("date"), commit: stamp("commit"), metrics })
    }

    /// The value of one metric, if the artifact has it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// The key this point sorts by in the trail: its ISO date stamp
    /// (lexicographic order is chronological), falling back to the
    /// label.
    fn sort_key(&self) -> &str {
        self.date.as_deref().unwrap_or(&self.label)
    }
}

/// Formats one relative change as `+4.2%` / `-1.0%`, or `—` when either
/// side is missing or the baseline is degenerate.
fn delta(prev: Option<f64>, cur: Option<f64>) -> String {
    match (prev, cur) {
        (Some(p), Some(c)) if p > 0.0 => format!("{:+.1}%", (c - p) / p * 100.0),
        _ => "—".to_string(),
    }
}

/// Formats one metric value for the table: ratios keep two decimals,
/// everything from qps up prints as a whole number (probe counters run
/// into the millions — decimals are noise at that magnitude).
fn format_value(v: f64) -> String {
    if v.abs() < 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.0}")
    }
}

/// Renders the qps-over-time table: one row per artifact in date order,
/// one `value Δ` column pair per [`TRAIL_METRICS`] entry, deltas
/// relative to the previous row. Column widths adapt to the widest
/// value in each column (probe counters are 7+ digits, ratios are 4),
/// so the table stays aligned without padding every column to the worst
/// case.
pub fn trail_table(points: &mut [TrailPoint]) -> String {
    points.sort_by(|a, b| a.sort_key().cmp(b.sort_key()));
    // First pass: render every cell, tracking per-column width.
    let mut widths: Vec<usize> = TRAIL_METRICS.iter().map(|m| m.chars().count()).collect();
    // (date, commit, [(value, delta)] per metric column).
    type Row = (String, String, Vec<(String, String)>);
    let mut rows: Vec<Row> = Vec::new();
    let mut prev: Option<&TrailPoint> = None;
    for point in points.iter() {
        let date = point.date.as_deref().unwrap_or(&point.label).to_string();
        // Truncate on a char boundary: stamps are normally ASCII SHAs,
        // but one hand-edited artifact must not panic the whole trail.
        let commit: String = point.commit.as_deref().unwrap_or("—").chars().take(9).collect();
        let mut cells = Vec::with_capacity(TRAIL_METRICS.len());
        for (col, metric) in TRAIL_METRICS.iter().enumerate() {
            let cur = point.metric(metric);
            let value = match cur {
                Some(v) => format_value(v),
                None => "—".to_string(),
            };
            let change = delta(prev.and_then(|p| p.metric(metric)), cur);
            widths[col] = widths[col].max(value.chars().count());
            cells.push((value, change));
        }
        rows.push((date, commit, cells));
        prev = Some(point);
    }
    // Second pass: emit with the settled widths.
    let mut out = String::new();
    out.push_str(&format!("{:<22} {:<10}", "date", "commit"));
    for (col, metric) in TRAIL_METRICS.iter().enumerate() {
        out.push_str(&format!(" {metric:>width$} {:>8}", "Δ", width = widths[col]));
    }
    out.push('\n');
    for (date, commit, cells) in rows {
        out.push_str(&format!("{date:<22} {commit:<10}"));
        for (col, (value, change)) in cells.into_iter().enumerate() {
            out.push_str(&format!(" {value:>width$} {change:>8}", width = widths[col]));
        }
        out.push('\n');
    }
    out
}

/// Extracts the string-valued fields of a flat-JSON artifact — the
/// provenance stamps ([`crate::artifact::parse_flat_json`] skips them).
pub fn parse_string_stamps(text: &str) -> Vec<(String, String)> {
    let Some(body) = text.trim().strip_prefix('{').and_then(|rest| rest.strip_suffix('}')) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for raw in body.split(',') {
        let Some((key, value)) = raw.trim().split_once(':') else { continue };
        let Some(key) = key.trim().strip_prefix('"').and_then(|k| k.strip_suffix('"')) else {
            continue;
        };
        let Some(value) = value.trim().strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            continue;
        };
        out.push((key.to_string(), value.to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::EngineBenchMetrics;

    fn stamped(qps: f64, commit: &str, date: &str) -> String {
        let metrics = EngineBenchMetrics {
            qps,
            p50_us: 200.0,
            p99_us: 900.0,
            cache_hit_speedup: 40.0,
            multi_qps: qps * 0.8,
            topk_qps: qps * 0.9,
            escalation_rate: 0.1,
            async_qps: qps * 0.85,
            net_qps: qps * 0.7,
            telemetry_overhead: qps / 1000.0 * 0.95,
            index_build_us: 1500.0,
            edge_probes_bitset: qps * 1000.0,
            edge_probes_binary: 0.0,
            cold_start_speedup: qps / 100.0,
            snapshot_bytes: 250_000.0,
            wal_replay_us: 80.0,
            ingest_qps: qps * 0.6,
            compaction_us: 3_000.0,
            sliced_p99_speedup: qps / 1000.0 * 1.8,
            slices_per_query: 2.5,
            steal_count: 400.0,
        };
        metrics.to_json_stamped(&[
            ("commit".to_string(), commit.to_string()),
            ("date".to_string(), date.to_string()),
        ])
    }

    #[test]
    fn stamps_parse_and_numbers_do_not() {
        let text = stamped(1000.0, "abc123", "2026-07-25T02:47:00Z");
        let stamps = parse_string_stamps(&text);
        assert_eq!(
            stamps,
            vec![
                ("commit".to_string(), "abc123".to_string()),
                ("date".to_string(), "2026-07-25T02:47:00Z".to_string()),
            ]
        );
    }

    #[test]
    fn trail_point_reads_metrics_and_provenance() {
        let point = TrailPoint::parse("nightly-1", &stamped(1200.0, "abc123", "2026-07-25"))
            .expect("artifact parses");
        assert_eq!(point.commit.as_deref(), Some("abc123"));
        assert_eq!(point.date.as_deref(), Some("2026-07-25"));
        assert_eq!(point.metric("qps"), Some(1200.0));
        assert_eq!(point.metric("async_qps"), Some(1020.0));
        assert_eq!(point.metric("no_such_metric"), None);
    }

    #[test]
    fn table_sorts_by_date_and_diffs_against_previous_row() {
        // Deliberately out of order: the table must sort by date stamp.
        let mut points = vec![
            TrailPoint::parse("b", &stamped(1100.0, "bbb", "2026-07-26")).unwrap(),
            TrailPoint::parse("a", &stamped(1000.0, "aaa", "2026-07-25")).unwrap(),
        ];
        let table = trail_table(&mut points);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per artifact");
        assert!(lines[1].starts_with("2026-07-25"), "oldest first: {table}");
        assert!(lines[2].starts_with("2026-07-26"));
        assert!(lines[1].contains("aaa"));
        // 1000 → 1100 is +10% on every qps metric.
        assert!(lines[2].contains("+10.0%"), "delta vs previous row: {table}");
        assert!(!lines[1].contains('%'), "first row has no baseline");
    }

    #[test]
    fn older_schemas_show_gaps_not_errors() {
        // A v2-era artifact without async_qps still lands in the table.
        let text = "{\n  \"schema\": 2.0,\n  \"qps\": 900.000,\n  \"multi_qps\": 700.000,\n  \"topk_qps\": 750.000\n}\n";
        let point = TrailPoint::parse("old", text).expect("flat json parses");
        assert_eq!(point.metric("async_qps"), None);
        let mut points = vec![point];
        let table = trail_table(&mut points);
        assert!(table.lines().nth(1).unwrap().contains('—'), "missing metric renders as —");
    }
}
