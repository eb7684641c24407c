//! The benchmark's span recorder. Spans are recorded around the
//! benchmark's own calls into each layer, kept in memory, and written
//! out when the run ends. Memory is bounded per span name, not
//! globally: each name keeps the spans whose request hash falls under
//! that name's threshold, and halves the threshold whenever its buffer
//! overflows. A rare span name therefore keeps every span, and spans of
//! one request are kept or dropped together across names with equal
//! rates.

use crate::rng::mix;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Spans kept per name before sampling starts.
const PER_NAME_CAP: usize = 50_000;
/// Spans a thread buffers before merging into the shared store.
const LOCAL_FLUSH: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// The request (operation) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct NameBuf {
    threshold: u64,
    seen: u64,
    spans: Vec<Span>,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    store: Mutex<BTreeMap<&'static str, NameBuf>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, next_id: AtomicU64::new(1), store: Mutex::new(BTreeMap::new()) }
    }

    /// A per-thread recording handle; merges into the store on drop.
    pub fn local(&self) -> Local<'_> {
        Local { tracer: self, buf: Vec::with_capacity(LOCAL_FLUSH) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn merge(&self, spans: &mut Vec<Span>) {
        let mut store = self.store.lock().expect("trace store lock");
        for span in spans.drain(..) {
            let buf = store.entry(span.name).or_insert_with(|| NameBuf {
                threshold: u64::MAX,
                seen: 0,
                spans: Vec::new(),
            });
            buf.seen += 1;
            if mix(span.request) > buf.threshold {
                continue;
            }
            buf.spans.push(span);
            while buf.spans.len() > PER_NAME_CAP {
                buf.threshold /= 2;
                let threshold = buf.threshold;
                buf.spans.retain(|s| mix(s.request) <= threshold);
            }
        }
    }

    /// Every kept span, plus how many of each name were recorded before
    /// sampling.
    pub fn finish(self) -> Trace {
        let store = self.store.into_inner().expect("trace store lock");
        let mut spans = Vec::new();
        let mut seen = BTreeMap::new();
        for (name, buf) in store {
            seen.insert(name, buf.seen);
            spans.extend(buf.spans);
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace { spans, seen }
    }
}

pub struct Local<'a> {
    tracer: &'a Tracer,
    buf: Vec<Span>,
}

impl Local<'_> {
    /// A fresh span id (for a parent whose children are recorded first).
    pub fn id(&self) -> u64 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span with a pre-allocated id.
    pub fn record_id(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        let span = Span {
            id,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            parent,
            request,
        };
        self.buf.push(span);
        if self.buf.len() >= LOCAL_FLUSH {
            self.tracer.merge(&mut self.buf);
        }
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.id();
        self.record_id(id, name, start, end, parent, request);
        id
    }

    /// Records a duration some layer reported about itself, placed by
    /// convention so that it ends at `end` (when its answer reached the
    /// caller).
    pub fn reported(
        &mut self,
        name: &'static str,
        elapsed: Duration,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        let start = end.checked_sub(elapsed).unwrap_or(end);
        self.record(name, start, end, parent, request);
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        self.tracer.merge(&mut self.buf);
    }
}

pub struct Trace {
    pub spans: Vec<Span>,
    pub seen: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Sorted durations (ns) of every kept span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> =
            self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect();
        d.sort_unstable();
        d
    }

    /// Per span: its duration minus the part of it that its children
    /// cover (children clipped to the parent, overlaps counted once).
    pub fn self_times(&self) -> HashMap<u64, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children.get_mut(&s.id).map_or(0, |kids| {
                    kids.sort_unstable();
                    let (mut covered, mut reach) = (0, s.start_ns);
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(reach), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                    covered
                });
                (s.id, s.dur_ns().saturating_sub(covered))
            })
            .collect()
    }

    /// One JSON object per line: `{id, name, start_ns, end_ns, parent, request}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        Ok(())
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn pct<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}
