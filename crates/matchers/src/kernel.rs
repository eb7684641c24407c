//! The one backtracking search under all five matchers.
//!
//! The paper's algorithms (§3.1) differ in *vertex ordering* and
//! *candidate filtering*; the search itself is the same depth-first
//! extension of a partial embedding. Each matcher therefore only runs its
//! own prework and hands the kernel a [`Plan`]: one [`Step`] per query
//! vertex, in the matcher's order, each naming
//!
//! * the query vertex bound at that depth;
//! * its candidate [`Source`] — the step's own domain list, or the
//!   neighbourhood of an already-matched neighbour's image;
//! * the cheap filters applied before a candidate counts as expanded:
//!   vertex label, minimum degree, membership in the domain.
//!
//! The kernel owns everything else: the entry guard (budget, empty query,
//! size reject), the pooled scratch buffers, the DFS with its edge and
//! edge-label checks against matched neighbours, the mapping of the stop
//! reason, and the one [`SliceSession`] implementation, whose slice domain
//! is step 0's candidate list. A matcher that needs more than the edge
//! checks (VF2's terminal-set lookahead) plugs in through a [`Hook`]; the
//! others use the zero-sized `()` hook, so the per-candidate loop has no
//! dynamic dispatch.
//!
//! Candidates are visited in source order and steps in plan order, so the
//! embedding sequence — and every [`SearchStats`] counter — is a function
//! of the plan alone. That keeps each algorithm's dependence on query-node
//! IDs (the paper's Observation 2) exactly where its prework put it.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::matcher::{Embedding, MatchResult, SearchStats};
use crate::scratch;
use crate::slice::{ChunkOutcome, SliceSession, SliceSetup};
use psi_delta::GraphView;
use psi_graph::{Graph, Label, NodeId};
use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

/// Assignment entry of a query vertex not bound yet.
const UNMAPPED: NodeId = NodeId::MAX;

/// Where a step draws its candidate target vertices from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// The step's own domain list.
    Domain,
    /// The neighbourhood of the image of this query vertex, which an
    /// earlier step binds.
    Neighbor(NodeId),
    /// The neighbourhood of the matched neighbour's image with the
    /// smallest degree (the first such neighbour in adjacency order).
    SmallestNeighbor,
}

/// One depth of the search. See the module docs.
pub(crate) struct Step<'a> {
    /// The query vertex this step binds.
    pub vertex: NodeId,
    /// Where candidates come from.
    pub source: Source,
    /// The vertex's candidate list in ascending ID order: the source of a
    /// [`Source::Domain`] step, the filter of an `in_domain` one.
    pub domain: Cow<'a, [NodeId]>,
    /// Reject candidates whose label differs.
    pub label: Option<Label>,
    /// Reject candidates of smaller degree.
    pub min_degree: usize,
    /// Reject candidates outside `domain`.
    pub in_domain: bool,
    /// This step's back edges: a range of the plan's back-edge list, set
    /// by [`Plan::new`].
    pub back: Range<usize>,
}

impl<'a> Step<'a> {
    /// A step with no filters.
    pub fn new(vertex: NodeId, source: Source, domain: Cow<'a, [NodeId]>) -> Self {
        Self { vertex, source, domain, label: None, min_degree: 0, in_domain: false, back: 0..0 }
    }

    #[inline]
    fn admits(&self, view: &GraphView<'_>, tv: NodeId) -> bool {
        self.label.is_none_or(|l| view.label(tv) == l)
            && (self.min_degree == 0 || view.degree(tv) >= self.min_degree)
            && (!self.in_domain || self.domain.binary_search(&tv).is_ok())
    }
}

/// Extra feasibility rules run after a candidate passed the edge checks,
/// with notifications as candidates are bound and released.
pub(crate) trait Hook {
    /// Whether `tv` may be bound at `depth`; `used` marks bound targets.
    fn feasible(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>, used: &[bool]) -> bool;
    /// `tv` was bound at `depth`.
    fn bind(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>);
    /// `tv`, bound at `depth`, was released.
    fn release(&mut self, depth: usize, tv: NodeId, view: &GraphView<'_>);
}

/// No extra rules.
impl Hook for () {
    #[inline(always)]
    fn feasible(&mut self, _: usize, _: NodeId, _: &GraphView<'_>, _: &[bool]) -> bool {
        true
    }
    #[inline(always)]
    fn bind(&mut self, _: usize, _: NodeId, _: &GraphView<'_>) {}
    #[inline(always)]
    fn release(&mut self, _: usize, _: NodeId, _: &GraphView<'_>) {}
}

/// A matcher's prework output: the steps and its hook.
pub(crate) struct Plan<'a, H> {
    steps: Vec<Step<'a>>,
    /// Every step's back edges, step after step: the query neighbours
    /// bound at earlier steps, in adjacency order, each with the query
    /// edge label to compare.
    back: Vec<(NodeId, Option<Label>)>,
    edge_labeled: bool,
    hook: H,
}

impl<'a, H: Hook> Plan<'a, H> {
    /// Wires `steps` (one per query vertex, step 0 drawing from its
    /// domain) to `query`'s edges.
    pub fn new(query: &Graph, mut steps: Vec<Step<'a>>, hook: H) -> Self {
        debug_assert_eq!(steps.len(), query.node_count());
        debug_assert!(matches!(steps[0].source, Source::Domain), "step 0 has no matched neighbour");
        let mut depth = scratch::u32_buf(query.node_count(), u32::MAX);
        for (i, s) in steps.iter().enumerate() {
            depth[s.vertex as usize] = i as u32;
        }
        let mut back = Vec::with_capacity(query.edge_count());
        for (i, s) in steps.iter_mut().enumerate() {
            let start = back.len();
            back.extend(
                query
                    .neighbors(s.vertex)
                    .iter()
                    .filter(|&&qn| (depth[qn as usize] as usize) < i)
                    .map(|&qn| (qn, query.edge_label(s.vertex, qn))),
            );
            s.back = start..back.len();
        }
        Self { steps, back, edge_labeled: query.has_edge_labels(), hook }
    }
}

/// A matcher's prework: everything before the search.
pub(crate) trait Planner {
    /// The feasibility hook this matcher's plans carry.
    type Hook: Hook + 'static;

    /// Builds the plan for a non-empty `query` that fits the view. An
    /// `Err` ends the search with that reason — `Complete` when prework
    /// proved there is no embedding. `stats` collects prework pruning.
    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        clock: &mut BudgetClock<'_>,
        stats: &mut SearchStats,
    ) -> Result<Plan<'a, Self::Hook>, StopReason>;
}

/// The view's vertices carrying `label`, ascending: the index's list, or
/// one label scan for a view without an index.
pub(crate) fn label_domain<'a>(view: GraphView<'a>, label: Label) -> Cow<'a, [NodeId]> {
    if view.has_index() {
        Cow::Borrowed(view.candidates(label))
    } else {
        Cow::Owned((0..view.node_count() as NodeId).filter(|&v| view.label(v) == label).collect())
    }
}

/// Runs a prepared search unsliced — one chunk over the whole root
/// domain — stamping the time elapsed since `start`.
pub(crate) fn run_whole(
    setup: SliceSetup<'_>,
    budget: &SearchBudget,
    start: Instant,
) -> MatchResult {
    let mut out = match setup {
        SliceSetup::Halted(out) => out,
        SliceSetup::Ready(mut session) => {
            let chunk = session.run_chunk(0..usize::MAX, budget);
            let found = chunk.embeddings.len();
            let mut out = MatchResult::empty(match chunk.halted {
                Some(r) => r,
                None if found >= budget.max_matches => StopReason::MatchLimit,
                None => StopReason::Complete,
            });
            out.embeddings = chunk.embeddings;
            out.num_matches = found;
            out.stats = session.stats();
            out
        }
    };
    out.elapsed = start.elapsed();
    out
}

/// Prepares `planner`'s search of `query` over `view` for slicing.
pub(crate) fn slice_session<'a, P: Planner>(
    planner: &P,
    query: &Graph,
    view: GraphView<'a>,
    budget: &SearchBudget,
) -> SliceSetup<'a> {
    match prepare(planner, query, view, budget) {
        Ok(session) => SliceSetup::Ready(Box::new(session)),
        Err(out) => SliceSetup::Halted(out),
    }
}

/// The entry guard plus prework; `Err` is a result that stands for the
/// whole search.
fn prepare<'a, P: Planner>(
    planner: &P,
    query: &Graph,
    view: GraphView<'a>,
    budget: &SearchBudget,
) -> Result<Session<'a, P::Hook>, MatchResult> {
    let mut clock = budget.start();
    if let Some(r) = clock.check_now() {
        return Err(MatchResult::empty(r));
    }
    if query.node_count() == 0 {
        let mut out = MatchResult::empty(StopReason::Complete);
        out.embeddings.push(Vec::new());
        out.num_matches = 1;
        return Err(out);
    }
    if query.node_count() > view.node_count() || query.edge_count() > view.edge_count() {
        return Err(MatchResult::empty(StopReason::Complete));
    }
    let mut stats = SearchStats::default();
    match planner.plan(query, view, &mut clock, &mut stats) {
        Ok(plan) => Ok(Session {
            plan,
            view,
            assignment: scratch::u32_buf(query.node_count(), UNMAPPED),
            used: scratch::bool_buf(view.node_count()),
            stats,
        }),
        Err(r) => {
            let mut out = MatchResult::empty(r);
            out.stats = stats;
            Err(out)
        }
    }
}

/// A prepared search: the plan plus scratch buffers, reusable across
/// chunks because the DFS unwinds every binding, even when halted.
struct Session<'a, H> {
    plan: Plan<'a, H>,
    view: GraphView<'a>,
    assignment: scratch::U32Buf,
    used: scratch::BoolBuf,
    stats: SearchStats,
}

impl<H: Hook> SliceSession for Session<'_, H> {
    fn domain(&self) -> usize {
        self.plan.steps[0].domain.len()
    }

    fn run_chunk(&mut self, range: Range<usize>, budget: &SearchBudget) -> ChunkOutcome {
        let mut dfs = Dfs {
            steps: &self.plan.steps,
            back: &self.plan.back,
            edge_labeled: self.plan.edge_labeled,
            hook: &mut self.plan.hook,
            view: self.view,
            assignment: &mut self.assignment,
            used: &mut self.used,
            stats: &mut self.stats,
            clock: budget.start(),
            found: Vec::new(),
            max_matches: budget.max_matches,
            root: range.clone(),
        };
        let halted = dfs.extend(0);
        ChunkOutcome { range, embeddings: dfs.found, halted }
    }

    fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// One run of the search over a root-candidate range.
struct Dfs<'s, 'a, H> {
    steps: &'s [Step<'a>],
    back: &'s [(NodeId, Option<Label>)],
    edge_labeled: bool,
    hook: &'s mut H,
    view: GraphView<'a>,
    assignment: &'s mut [NodeId],
    used: &'s mut [bool],
    stats: &'s mut SearchStats,
    clock: BudgetClock<'s>,
    found: Vec<Embedding>,
    max_matches: usize,
    /// The slice of step 0's domain this run enumerates. Later steps
    /// drawing from their own domain (roots of further query components)
    /// stay unrestricted.
    root: Range<usize>,
}

impl<H: Hook> Dfs<'_, '_, H> {
    fn extend(&mut self, depth: usize) -> Option<StopReason> {
        let steps = self.steps;
        let Some(step) = steps.get(depth) else {
            self.found.push(self.assignment.to_vec());
            return None;
        };
        let view = self.view;
        let back = &self.back[step.back.clone()];
        let candidates: &[NodeId] = match step.source {
            Source::Domain if depth == 0 => {
                let d = &step.domain[..];
                &d[self.root.start.min(d.len())..self.root.end.min(d.len())]
            }
            Source::Domain => &step.domain,
            Source::Neighbor(qn) => view.neighbors(self.assignment[qn as usize]),
            Source::SmallestNeighbor => {
                let anchor = back
                    .iter()
                    .map(|&(qn, _)| self.assignment[qn as usize])
                    .min_by_key(|&img| view.degree(img))
                    .expect("an anchored step has a matched neighbour");
                view.neighbors(anchor)
            }
        };
        let qv = step.vertex as usize;
        for &tv in candidates {
            if let Some(r) = self.clock.tick() {
                return Some(r);
            }
            if self.used[tv as usize] || !step.admits(&view, tv) {
                continue;
            }
            self.stats.nodes_expanded += 1;
            if !self.edges_match(back, tv) || !self.hook.feasible(depth, tv, &view, self.used) {
                self.stats.candidates_pruned += 1;
                continue;
            }
            self.assignment[qv] = tv;
            self.used[tv as usize] = true;
            self.hook.bind(depth, tv, &view);
            let r = self.extend(depth + 1);
            self.hook.release(depth, tv, &view);
            self.assignment[qv] = UNMAPPED;
            self.used[tv as usize] = false;
            if r.is_some() {
                return r;
            }
            if self.found.len() >= self.max_matches {
                return None;
            }
            self.stats.backtracks += 1;
        }
        None
    }

    /// Every matched query neighbour's image is adjacent to `tv`, with the
    /// same edge label when the query is edge-labelled.
    #[inline]
    fn edges_match(&mut self, back: &[(NodeId, Option<Label>)], tv: NodeId) -> bool {
        back.iter().all(|&(qn, label)| {
            let tn = self.assignment[qn as usize];
            let stats = &mut *self.stats;
            self.view.has_edge_counted(
                tn,
                tv,
                &mut stats.edge_probes_bitset,
                &mut stats.edge_probes_binary,
            ) && (!self.edge_labeled || label == self.view.edge_label(tv, tn))
        })
    }
}
