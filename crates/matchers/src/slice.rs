//! Intra-query parallelism: work-stealing root-candidate slices.
//!
//! A single matcher search is bounded by one thread walking the whole
//! root-candidate space in ID order. This module partitions that space —
//! the candidate list of the first step of the matcher's search plan —
//! into chunks that
//! cooperating *slice tasks* claim from a shared atomic cursor. A task
//! that drains its natural share keeps claiming: every claim after a
//! task's first counts as a **steal**, so stragglers shed their tail to
//! idle siblings automatically.
//!
//! ## Determinism contract
//!
//! A sliced search must be observably identical to the single-threaded
//! search whenever both are conclusive:
//!
//! * every chunk runs under the *global* embedding cap, so each chunk's
//!   embeddings are a DFS-prefix of that chunk's subtree;
//! * chunks merge in ascending range order, truncated at the cap — which
//!   reproduces exactly the first `cap` embeddings of the canonical
//!   (single-slice) enumeration order;
//! * the commit frontier tracks the *contiguous* completed prefix: only
//!   when the prefix alone holds `cap` embeddings does the group cancel
//!   its remaining siblings early, so early cancellation can never
//!   change the merged answer.
//!
//! Inconclusive outcomes (timeout, race cancellation) keep the merged
//! contiguous prefix found so far and report the interrupting reason,
//! mirroring a single-threaded search interrupted mid-walk.
//!
//! ## Group cancellation
//!
//! Each slice group owns a [`CancelToken::linked`] child of the race
//! token: a slice observes both the race-wide kill (a sibling *entrant*
//! won) and the group-local stop (the committed prefix reached the cap),
//! while the group cancelling itself never touches the race token.

use crate::budget::{CancelToken, SearchBudget, StopReason};
use crate::matcher::{Embedding, MatchResult, Matcher, SearchStats};
use psi_delta::GraphView;
use psi_graph::Graph;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Target number of chunks each task's natural share is divided into.
/// Finer chunks steal better but pay more claim/commit traffic; 4 keeps
/// the steal granularity useful while the cursor stays cold.
const CHUNKS_PER_TASK: usize = 4;

/// Sentinel for "domain not resolved yet" (no task has finished prework).
const DOMAIN_UNRESOLVED: usize = usize::MAX;

/// What preparing a matcher for sliced execution produced.
pub enum SliceSetup<'a> {
    /// Prework already decided the search (empty candidate lists, size
    /// reject, vacuous empty-query match) or was interrupted before any
    /// enumeration could start. The result stands for the whole search.
    Halted(MatchResult),
    /// Prework succeeded: the session enumerates root-candidate ranges.
    Ready(Box<dyn SliceSession + 'a>),
}

/// One task's prepared search state: prework (candidate filtering, plan
/// ordering, matching-sequence construction) ran **once** at
/// construction; [`SliceSession::run_chunk`] then enumerates any range
/// of the root-candidate domain against it. Sessions are created and
/// driven on a single thread; the coordinator is what's shared.
pub trait SliceSession {
    /// Size of the root-candidate domain this session partitions. Every
    /// task of a group computes the same value (prework is
    /// deterministic); the first to finish prework publishes it.
    fn domain(&self) -> usize;

    /// Enumerates root candidates in `range` (indices into the domain),
    /// finding at most `budget.max_matches` embeddings (the *global*
    /// cap — see the determinism contract) and heeding the budget's
    /// deadline and cancellation.
    fn run_chunk(&mut self, range: Range<usize>, budget: &SearchBudget) -> ChunkOutcome;

    /// Cumulative work counters for this task: prework plus every chunk
    /// run so far.
    fn stats(&self) -> SearchStats;
}

/// What one claimed chunk produced.
pub struct ChunkOutcome {
    /// The domain range this chunk covered.
    pub range: Range<usize>,
    /// Embeddings found, in the chunk's canonical DFS order.
    pub embeddings: Vec<Embedding>,
    /// `Some` when the chunk was interrupted (deadline or cancellation)
    /// before exhausting its range; `None` when the range completed or
    /// the per-chunk cap was reached.
    pub halted: Option<StopReason>,
}

/// Per-task summary, for trace events and steal accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceTaskSummary {
    /// Chunks this task ran.
    pub chunks: u32,
    /// Claims after the task's first — ranges stolen from the shared
    /// cursor beyond its natural share.
    pub steals: u32,
}

/// Mutable group state behind the coordinator's lock.
struct SliceState {
    /// Completed chunk outcomes, any order; sorted at merge time.
    chunks: Vec<ChunkOutcome>,
    /// A prework verdict standing for the whole search, if any.
    whole: Option<MatchResult>,
    /// Folded per-task work counters (prework + chunks, every task).
    stats: SearchStats,
    /// First unfinished domain index: everything below completed.
    frontier: usize,
    /// Embeddings in the contiguous completed prefix `[0, frontier)`.
    committed: usize,
    /// Completed (un-halted) chunks waiting above the frontier:
    /// `start → (end, embedding count)`.
    pending: BTreeMap<usize, (usize, usize)>,
}

/// Shared bookkeeping of one sliced search: the steal cursor, the
/// lazily-published domain, the commit frontier, and the merge. Tasks
/// call [`SliceCoordinator::run_task`] then [`SliceCoordinator::finish_task`];
/// exactly one task (the last to finish) receives the merged result.
pub struct SliceCoordinator {
    /// Next unclaimed domain index; grows past `domain` once drained.
    cursor: AtomicUsize,
    /// Root-candidate domain size; [`DOMAIN_UNRESOLVED`] until the first
    /// task finishes prework and publishes it.
    domain: AtomicUsize,
    /// Chunk granularity, fixed when the domain resolves.
    chunk: AtomicUsize,
    steals: AtomicU64,
    /// Tasks that have not called [`SliceCoordinator::finish_task`] yet.
    remaining: AtomicUsize,
    tasks: usize,
    /// The per-chunk budget: global cap + deadline, cancel = the group
    /// token (linked under the outer token, if any).
    budget: SearchBudget,
    group: CancelToken,
    started: Instant,
    inner: Mutex<SliceState>,
}

impl SliceCoordinator {
    /// A coordinator for `tasks` cooperating slice tasks running under
    /// `outer` (the entrant's race-wired budget). The group token is
    /// linked under `outer`'s token, so slices stop on either a race
    /// kill or the group's own cap-reached signal.
    pub fn new(outer: &SearchBudget, tasks: usize) -> Self {
        let tasks = tasks.max(1);
        let group = match &outer.cancel {
            Some(token) => CancelToken::linked(token),
            None => CancelToken::new(),
        };
        let budget = SearchBudget {
            max_matches: outer.max_matches,
            deadline: outer.deadline,
            cancel: Some(group.clone()),
        };
        Self {
            cursor: AtomicUsize::new(0),
            domain: AtomicUsize::new(DOMAIN_UNRESOLVED),
            chunk: AtomicUsize::new(1),
            steals: AtomicU64::new(0),
            remaining: AtomicUsize::new(tasks),
            tasks,
            budget,
            group,
            started: Instant::now(),
            inner: Mutex::new(SliceState {
                chunks: Vec::new(),
                whole: None,
                stats: SearchStats::default(),
                frontier: 0,
                committed: 0,
                pending: BTreeMap::new(),
            }),
        }
    }

    /// Total ranges stolen so far (claims beyond each task's first).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// The group-local cancellation token (linked under the race token).
    pub fn group_token(&self) -> &CancelToken {
        &self.group
    }

    /// Publishes the domain size (first prework to finish wins; every
    /// task computes the same value) and fixes the chunk granularity.
    fn resolve_domain(&self, domain: usize) {
        let chunk = (domain / (self.tasks * CHUNKS_PER_TASK)).max(1);
        self.chunk.store(chunk, Ordering::Release);
        let _ = self.domain.compare_exchange(
            DOMAIN_UNRESOLVED,
            domain,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Claims the next unclaimed chunk, or `None` when the domain is
    /// drained.
    fn claim(&self) -> Option<Range<usize>> {
        let domain = self.domain.load(Ordering::Acquire);
        debug_assert_ne!(domain, DOMAIN_UNRESOLVED, "claim before prework resolved the domain");
        let chunk = self.chunk.load(Ordering::Acquire).max(1);
        let start = self.cursor.fetch_add(chunk, Ordering::AcqRel);
        (start < domain).then(|| start..(start + chunk).min(domain))
    }

    /// Records a finished chunk and advances the commit frontier. When
    /// the contiguous completed prefix alone holds `cap` embeddings the
    /// merged answer is already determined — cancel the group so sibling
    /// slices stop burning workers on ranges the merge will truncate.
    fn commit(&self, outcome: ChunkOutcome) {
        let mut inner = self.inner.lock().expect("slice group lock");
        if outcome.halted.is_none() {
            inner
                .pending
                .insert(outcome.range.start, (outcome.range.end, outcome.embeddings.len()));
            while let Some((&start, &(end, count))) = inner.pending.first_key_value() {
                if start != inner.frontier {
                    break;
                }
                inner.pending.remove(&start);
                inner.frontier = end;
                inner.committed += count;
            }
            if self.budget.max_matches != usize::MAX && inner.committed >= self.budget.max_matches {
                self.group.cancel();
            }
        }
        inner.chunks.push(outcome);
    }

    fn fold_stats(&self, stats: SearchStats) {
        let mut inner = self.inner.lock().expect("slice group lock");
        let s = &mut inner.stats;
        s.nodes_expanded += stats.nodes_expanded;
        s.candidates_pruned += stats.candidates_pruned;
        s.backtracks += stats.backtracks;
        s.edge_probes_bitset += stats.edge_probes_bitset;
        s.edge_probes_binary += stats.edge_probes_binary;
    }

    /// One task's whole body: prework via [`Matcher::slice_session`],
    /// then claim-and-run chunks until the domain drains or the budget
    /// trips.
    pub fn run_task(
        &self,
        matcher: &dyn Matcher,
        query: &Graph,
        view: GraphView<'_>,
    ) -> SliceTaskSummary {
        let mut summary = SliceTaskSummary::default();
        // A helper arriving after the group stopped (race decided,
        // domain drained) skips prework entirely — its prework would be
        // pure overhead with no chunk left to run.
        if self.budget.start().check_now().is_some() {
            return summary;
        }
        let domain = self.domain.load(Ordering::Acquire);
        if domain != DOMAIN_UNRESOLVED && self.cursor.load(Ordering::Acquire) >= domain {
            return summary;
        }
        match matcher.slice_session(query, view, &self.budget) {
            SliceSetup::Halted(result) => {
                self.fold_stats(result.stats);
                let mut inner = self.inner.lock().expect("slice group lock");
                // Conclusive prework verdicts are deterministic across
                // tasks; prefer one over any interrupted task's reason.
                let replace = match &inner.whole {
                    None => true,
                    Some(w) => !w.stop.is_conclusive() && result.stop.is_conclusive(),
                };
                if replace {
                    inner.whole = Some(result);
                }
            }
            SliceSetup::Ready(mut session) => {
                self.resolve_domain(session.domain());
                let mut first = true;
                while let Some(range) = self.claim() {
                    if first {
                        first = false;
                    } else {
                        summary.steals += 1;
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    summary.chunks += 1;
                    let outcome = session.run_chunk(range, &self.budget);
                    let halted = outcome.halted.is_some();
                    self.commit(outcome);
                    if halted {
                        break;
                    }
                }
                self.fold_stats(session.stats());
            }
        }
        summary
    }

    /// Marks this task done. The **last** task to finish merges the
    /// group's chunks and returns the final result; everyone else gets
    /// `None`.
    pub fn finish_task(&self) -> Option<MatchResult> {
        (self.remaining.fetch_sub(1, Ordering::AcqRel) == 1).then(|| self.conclude())
    }

    /// Deterministic merge: ascending range order, truncated at the cap.
    fn conclude(&self) -> MatchResult {
        let (chunks, whole, stats) = {
            let mut inner = self.inner.lock().expect("slice group lock");
            (std::mem::take(&mut inner.chunks), inner.whole.take(), inner.stats)
        };
        let mut result = match whole {
            Some(w) if w.stop.is_conclusive() || chunks.is_empty() => w,
            _ => {
                // A claimed-but-never-run range (task panicked, or the
                // group stopped before claims drained) reads as this
                // interruption reason.
                let gap = self.budget.start().check_now().unwrap_or(StopReason::Cancelled);
                merge_chunks(
                    chunks,
                    self.domain.load(Ordering::Acquire),
                    self.budget.max_matches,
                    gap,
                )
            }
        };
        result.num_matches = result.embeddings.len();
        result.stats = stats;
        result.elapsed = self.started.elapsed();
        result
    }
}

/// Merges chunk outcomes into one [`MatchResult`]. See the module docs
/// for the determinism argument.
fn merge_chunks(
    mut chunks: Vec<ChunkOutcome>,
    domain: usize,
    cap: usize,
    gap_reason: StopReason,
) -> MatchResult {
    chunks.sort_by_key(|c| c.range.start);
    let mut embeddings: Vec<Embedding> = Vec::new();
    let mut expected = 0usize;
    let mut stop: Option<StopReason> = None;
    for chunk in chunks {
        if chunk.range.start != expected {
            stop = Some(gap_reason);
            break;
        }
        for e in chunk.embeddings {
            if cap != usize::MAX && embeddings.len() >= cap {
                break;
            }
            embeddings.push(e);
        }
        if cap != usize::MAX && embeddings.len() >= cap {
            stop = Some(StopReason::MatchLimit);
            break;
        }
        if let Some(r) = chunk.halted {
            stop = Some(r);
            break;
        }
        expected = chunk.range.end;
    }
    let stop = stop.unwrap_or(if domain != DOMAIN_UNRESOLVED && expected >= domain {
        StopReason::Complete
    } else {
        gap_reason
    });
    let mut out = MatchResult::empty(stop);
    out.num_matches = embeddings.len();
    out.embeddings = embeddings;
    out
}

/// Runs `matcher` on `query` split into `slices` cooperating tasks on
/// scoped threads — the library-level entry point used by tests and the
/// comparison harness. The engine drives the same coordinator from its
/// shared worker pool instead. `slices <= 1` runs the ordinary search.
pub fn sliced_search_view(
    matcher: &dyn Matcher,
    query: &Graph,
    view: GraphView<'_>,
    budget: &SearchBudget,
    slices: usize,
) -> MatchResult {
    if slices <= 1 {
        return matcher.search_view(query, view, budget);
    }
    let coord = SliceCoordinator::new(budget, slices);
    std::thread::scope(|scope| {
        let coord = &coord;
        let handles: Vec<_> = (1..slices)
            .map(|_| {
                scope.spawn(move || {
                    coord.run_task(matcher, query, view);
                    coord.finish_task()
                })
            })
            .collect();
        coord.run_task(matcher, query, view);
        let mut out = coord.finish_task();
        for handle in handles {
            if let Some(result) = handle.join().expect("slice task must not panic") {
                out = Some(result);
            }
        }
        out.expect("exactly one slice task concludes the group")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(start: usize, end: usize, n: usize, halted: Option<StopReason>) -> ChunkOutcome {
        ChunkOutcome {
            range: start..end,
            embeddings: (0..n).map(|i| vec![(start * 100 + i) as u32]).collect(),
            halted,
        }
    }

    #[test]
    fn merge_complete_tiling() {
        let r = merge_chunks(
            vec![chunk(4, 8, 1, None), chunk(0, 4, 2, None)],
            8,
            usize::MAX,
            StopReason::Cancelled,
        );
        assert_eq!(r.stop, StopReason::Complete);
        assert_eq!(r.embeddings.len(), 3);
        // Ascending range order regardless of completion order.
        assert_eq!(r.embeddings[0], vec![0]);
        assert_eq!(r.embeddings[2], vec![400]);
    }

    #[test]
    fn merge_truncates_at_cap() {
        let r = merge_chunks(
            vec![chunk(0, 4, 3, None), chunk(4, 8, 3, None)],
            8,
            4,
            StopReason::Cancelled,
        );
        assert_eq!(r.stop, StopReason::MatchLimit);
        assert_eq!(r.embeddings.len(), 4);
        assert_eq!(r.embeddings[3], vec![400], "cap cuts inside the second chunk");
    }

    #[test]
    fn merge_exact_cap_is_match_limit() {
        let r = merge_chunks(vec![chunk(0, 8, 4, None)], 8, 4, StopReason::Cancelled);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn merge_reports_first_interruption() {
        let r = merge_chunks(
            vec![chunk(0, 4, 1, Some(StopReason::TimedOut)), chunk(4, 8, 2, None)],
            8,
            usize::MAX,
            StopReason::Cancelled,
        );
        assert_eq!(r.stop, StopReason::TimedOut);
        assert_eq!(r.embeddings.len(), 1, "only the contiguous prefix survives");
    }

    #[test]
    fn merge_gap_is_inconclusive() {
        let r = merge_chunks(
            vec![chunk(0, 4, 1, None), chunk(6, 8, 1, None)],
            8,
            usize::MAX,
            StopReason::Cancelled,
        );
        assert_eq!(r.stop, StopReason::Cancelled);
        assert_eq!(r.embeddings.len(), 1);
    }

    #[test]
    fn merge_cap_beats_interruption_in_same_chunk() {
        // The cap is reached by embeddings found *before* the chunk was
        // interrupted: the merged prefix equals the capped single-slice
        // answer, so the verdict must be conclusive.
        let r = merge_chunks(
            vec![chunk(0, 4, 3, Some(StopReason::TimedOut))],
            8,
            2,
            StopReason::Cancelled,
        );
        assert_eq!(r.stop, StopReason::MatchLimit);
        assert_eq!(r.embeddings.len(), 2);
    }

    #[test]
    fn empty_domain_is_complete() {
        let r = merge_chunks(Vec::new(), 0, usize::MAX, StopReason::Cancelled);
        assert_eq!(r.stop, StopReason::Complete);
        assert_eq!(r.num_matches, 0);
    }

    #[test]
    fn coordinator_chunks_cover_domain_exactly_once() {
        let budget = SearchBudget::unlimited();
        let coord = SliceCoordinator::new(&budget, 3);
        coord.resolve_domain(100);
        let mut seen = [false; 100];
        while let Some(range) = coord.claim() {
            for i in range {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
    }

    #[test]
    fn commit_frontier_cancels_group_at_cap() {
        let budget = SearchBudget::with_max_matches(3);
        let coord = SliceCoordinator::new(&budget, 2);
        coord.resolve_domain(10);
        // Out-of-order completion: the later range first.
        coord.commit(chunk(5, 10, 5, None));
        assert!(!coord.group_token().is_cancelled(), "prefix [0,5) still missing");
        coord.commit(chunk(0, 5, 3, None));
        assert!(coord.group_token().is_cancelled(), "contiguous prefix holds the cap");
    }
}
