//! Metric collection and the result line.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// ns durations → µs at nearest-rank `p`.
    pub fn add_pct_us(&mut self, name: impl Into<String>, sorted_ns: &[u64], p: f64) {
        self.add(name, crate::trace::pct(sorted_ns, p) as f64 / 1e3, "us", sorted_ns.len());
    }

    /// Human-readable lines, one per metric, with sample counts.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<40} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
    }

    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
                .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
