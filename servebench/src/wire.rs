//! The open-loop loopback client of the traced run's `psi-net` replay:
//! reads and additive update batches sent over `PsiClient` connections
//! on a fixed schedule, each when due, whatever is still outstanding.

use crate::common::{score, Tally, PATH_SPANS};
use crate::probes::PROBE;
use crate::trace::Tracer;
use psi::core::GraphUpdate;
use psi::graph::{Graph, NodeId};
use psi::net::{PsiClient, QueryFrame, UpdateFrame, WireStatus};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Event {
    Read(usize),
    Write(usize),
}

/// One scheduled request: when it is due (ns after the start) and what.
#[derive(Clone, Copy)]
pub struct Due {
    pub at_ns: u64,
    pub event: Event,
}

/// What one open-loop run saw.
#[derive(Default)]
pub struct WireOut {
    pub reads: Tally,
    pub writes: Tally,
    /// Indices of acknowledged write batches.
    pub acked: Vec<usize>,
    /// (query, returned embedding) of every found read, checked after
    /// the run against the final graph.
    pub answers: Vec<(usize, Vec<NodeId>)>,
}

impl WireOut {
    fn merge(&mut self, o: WireOut) {
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
        self.acked.extend(o.acked);
        self.answers.extend(o.answers);
    }
}

struct InFlight {
    due: Instant,
    sent: Instant,
    send_done: Instant,
    event: Event,
}

/// Drives `schedule` over two connections, a reader and a writer, each
/// from its own thread that sends every request when due, whatever is
/// still outstanding. The server hands the two connections to its two
/// event loops, so a read never queues behind a write on the same loop.
/// Every request is traced, under a replay request id.
pub fn open_loop(
    addr: std::net::SocketAddr,
    queries: &[Graph],
    batches: &[GraphUpdate],
    schedule: &[Due],
    tracer: &Tracer,
) -> WireOut {
    let clients: Vec<PsiClient> =
        (0..2).map(|_| PsiClient::connect(addr).expect("connect to loopback server")).collect();
    let barrier = Barrier::new(clients.len());
    let start_cell = std::sync::OnceLock::new();
    let mut total = WireOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, start_cell) = (&barrier, &start_cell);
                s.spawn(move || {
                    barrier.wait();
                    let start =
                        *start_cell.get_or_init(|| Instant::now() + Duration::from_millis(20));
                    let mine: Vec<(u64, Due)> = schedule
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| matches!(d.event, Event::Write(_)) == (c == 1))
                        .map(|(i, d)| (i as u64 + 1, *d))
                        .collect();
                    let run = Run { start, queries, batches, tracer };
                    connection(client, &run, &mine)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("wire client panicked"));
        }
    });
    total
}

/// What every connection of one open-loop run shares.
struct Run<'a> {
    start: Instant,
    queries: &'a [Graph],
    batches: &'a [GraphUpdate],
    tracer: &'a Tracer,
}

fn connection(mut client: PsiClient, run: &Run<'_>, mine: &[(u64, Due)]) -> WireOut {
    let Run { start, queries, batches, tracer } = *run;
    let mut out = WireOut::default();
    let mut local = tracer.local();
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut next = 0;
    // Replies can only be lost to a dead server; give up long after any
    // answer this benchmark expects.
    let mut idle_since = Instant::now();
    while next < mine.len() || !pending.is_empty() {
        let now = Instant::now();
        if let Some(&(tag, due)) = mine.get(next) {
            let due_at = start + Duration::from_nanos(due.at_ns);
            if now >= due_at {
                next += 1;
                let sent = Instant::now();
                let result = match due.event {
                    Event::Read(q) => {
                        out.reads.attempted += 1;
                        let mut frame = QueryFrame::new(0, &queries[q]);
                        frame.tag = tag;
                        // 0: the tenant's default budget (decision, with timeout).
                        frame.max_matches = 0;
                        client.send(&frame)
                    }
                    Event::Write(b) => {
                        out.writes.attempted += 1;
                        let mut frame = UpdateFrame::new(0, batches[b].clone());
                        frame.tag = tag;
                        client.send_update(&frame)
                    }
                };
                let send_done = Instant::now();
                if result.is_err() {
                    tally_of(&mut out, due.event).errors += 1;
                    continue;
                }
                pending.insert(tag, InFlight { due: due_at, sent, send_done, event: due.event });
                continue;
            }
        }
        if pending.is_empty() {
            if let Some(&(_, due)) = mine.get(next) {
                std::thread::sleep(
                    (start + Duration::from_nanos(due.at_ns)).saturating_duration_since(now),
                );
            }
            continue;
        }
        let wait = match mine.get(next) {
            Some(&(_, due)) => {
                (start + Duration::from_nanos(due.at_ns)).saturating_duration_since(now)
            }
            None => Duration::from_millis(100),
        };
        client
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
            .expect("set read timeout");
        let reply = match client.recv() {
            Ok(reply) => reply,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if next >= mine.len() && idle_since.elapsed() > Duration::from_secs(60) {
                    for (_, f) in pending.drain() {
                        tally_of(&mut out, f.event).errors += 1;
                    }
                }
                continue;
            }
            Err(_) => {
                for (_, f) in pending.drain() {
                    tally_of(&mut out, f.event).errors += 1;
                }
                while let Some(&(_, due)) = mine.get(next) {
                    tally_of(&mut out, due.event).attempted += 1;
                    tally_of(&mut out, due.event).errors += 1;
                    next += 1;
                }
                break;
            }
        };
        let got = Instant::now();
        idle_since = got;
        let Some(f) = pending.remove(&reply.tag) else { continue };
        let root = local.id();
        let request = PROBE | reply.tag;
        match f.event {
            Event::Read(q) => {
                let Some(v) = reply.verdict.filter(|_| reply.status == WireStatus::Ok) else {
                    match reply.status {
                        WireStatus::Busy | WireStatus::QueueFull => out.reads.refused += 1,
                        _ => out.reads.errors += 1,
                    }
                    continue;
                };
                let p = usize::from(v.path.min(2));
                local.reported(
                    PATH_SPANS[p],
                    Duration::from_micros(v.elapsed_us),
                    got,
                    root,
                    request,
                );
                if !v.conclusive || !v.found {
                    score(&mut out.reads, v.conclusive, v.found, None, &queries[q], &queries[q]);
                } else {
                    out.answers.push((q, v.embedding));
                }
            }
            Event::Write(_) if reply.status != WireStatus::UpdateApplied => {
                out.writes.errors += 1;
            }
            Event::Write(b) => out.acked.push(b),
        }
        let name = match f.event {
            Event::Read(_) => "wire.read",
            Event::Write(_) => "wire.write",
        };
        local.record("bench.gen_lag", f.due, f.sent, root, request);
        local.record("net.send", f.sent, f.send_done, root, request);
        local.record_id(root, name, f.due, got, 0, request);
    }
    out
}

fn tally_of(out: &mut WireOut, event: Event) -> &mut Tally {
    match event {
        Event::Read(_) => &mut out.reads,
        Event::Write(_) => &mut out.writes,
    }
}

/// Checks every returned embedding against the graph the run ended
/// with (the stored graph plus every acknowledged edge — writes only
/// add, so an embedding valid when answered is valid at the end).
pub fn check_answers(out: &mut WireOut, queries: &[Graph], final_graph: &Graph) {
    for (q, emb) in &out.answers {
        score(&mut out.reads, true, true, Some(emb), &queries[*q], final_graph);
    }
}
