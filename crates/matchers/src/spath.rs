//! sPath (Zhao & Han — PVLDB 2010), "SPA" in the paper.
//!
//! §3.1.2: "sPath ... maintains a neighbourhood signature comprised of
//! shortest paths organized in a compact indexing structure. Specifically,
//! in order to reduce the storing space, shortest paths are not really
//! maintained, but they are decomposed in a distance-wise structure. In the
//! query processing, the query is initially decomposed in shortest paths
//! that are then matched to the candidate shortest paths from the stored
//! graph. From all possible candidate shortest paths, those that (i) can
//! cover the query and (ii) provide good selectivity ... are selected as
//! candidates. For each one of the selected paths, an edge-by-edge
//! verification is then used to perform the sub-iso test."
//!
//! Concretely:
//! * **Index**: for every stored node, the count of each label at every BFS
//!   distance `1..=radius` (the "distance-wise decomposition" of shortest
//!   paths; paper default radius 4).
//! * **Layout**: every (node, distance) layer from distance 2 on is one
//!   `u64` *lane word* plus an *overflow run*; distance 1 is rule 1's
//!   (below), which the filter never reads, so it is not stored. The
//!   lane word holds eight 7-bit saturating counts, one per *slot*: the
//!   target's eight most frequent labels, ties broken by label value. A
//!   lane at 127 means "127 or more". The overflow run holds the exact
//!   `(label, cumulative count)` pairs, sorted by label, of every label
//!   that is not a slot and of every slot whose count reached 127. Lane
//!   words are position-major: one *plane* per distance, indexed by the
//!   node's *row*, its global position in the index's label lists
//!   (`TargetIndex` list order), with every lane's top bit stored set.
//!   Overflow runs live in one flat array with one offset per (row,
//!   distance). The build runs one BFS per node in row order, marking
//!   visits in one stamp array shared by every source and counting
//!   labels in a dense array indexed by label rank (labels are arbitrary
//!   `u32`s, up to the overlay's tombstone `u32::MAX`), so it allocates
//!   nothing per node. The query side uses the same builder against the
//!   target's slots, its rows being its node IDs.
//! * **Fit**: a query layer fits a target layer iff every lane fits —
//!   one subtraction over the word, the target's stored top bits
//!   catching each lane's borrow ("SIMD within a register") — and the
//!   query overflow run fits the target's by a merge walk. Exact for any
//!   alphabet and any count: a query count up to 126 fits its lane iff
//!   it fits the target's exact count; a query count of 127 or more also
//!   sits in the query's overflow run, and only a target count at least
//!   as large fits it, which then sits in the target's overflow run too.
//! * **Candidates**: query node `u` can map to stored node `v` only if
//!   labels match and, for every distance `d`, the query's *cumulative*
//!   label counts within `d` hops of `u` fit under the target's (sound for
//!   non-induced sub-iso because embeddings can only shorten distances).
//!   Distance 1 plus the degree test is GraphQL's rule 1, so the filter
//!   starts from the index's memoized rule-1 bitset over the label list
//!   and writes a filtered bitset of the same shape, testing distances
//!   `2..=radius` only. A word's 64 list positions are 64 consecutive
//!   rows, so each nonzero word is tested densely: per plane, one
//!   straight pass of guard-bit subtractions against the query's lane
//!   word (read once per query vertex), then a pack of the surviving
//!   guards to one `u64` that is ANDed with the word. The overflow walk
//!   runs only over lane survivors, and only if the query's runs are not
//!   all empty. On `cold_search`-shaped queries over its wordnet graph
//!   (warm memo, 2-core box) the whole prework, this filter plus the path
//!   order, takes 136–179 µs per query, against 290–397 µs when each
//!   candidate was tested on its own.
//! * **Domains**: a bitset's popcount is its vertex's size in the path
//!   order. A path start decodes its bitset to a list; an anchored vertex
//!   keeps it, with its label, as the kernel's one-bit membership test.
//!   Over a delta overlay (no list positions) it filters by label and
//!   degree, the overlay's filter.
//! * **Query decomposition**: greedy cover of the query's edges by paths of
//!   length ≤ `max_path_len`, each path starting at the most selective
//!   available vertex (fewest candidates, ties by node ID — the ID
//!   tie-break is what the paper's rewritings exploit).
//! * **Matching**: vertices are bound in path order with edge-by-edge
//!   verification against previously bound neighbors.

use crate::budget::{BudgetClock, SearchBudget, StopReason};
use crate::kernel::{self, Members, Plan, Planner, Source, Step};
use crate::matcher::{Algorithm, Matcher, SearchStats};
use crate::slice::SliceSetup;
use psi_delta::GraphView;
use psi_graph::index::decode_positions;
use psi_graph::{Graph, Label, NodeId, TargetIndex};
use std::borrow::Cow;
use std::sync::Arc;

/// Paper defaults (§3.2): "neighbourhood radius of 4 and maximum path
/// length 4".
pub const DEFAULT_RADIUS: usize = 4;
/// Paper default maximum decomposition path length.
pub const DEFAULT_MAX_PATH_LEN: usize = 4;

/// sPath prepared over a stored graph: the distance-wise signatures are
/// sPath's own (radius-parameterized) index; label lists, degrees and
/// adjacency probes come from the shared [`TargetIndex`].
#[derive(Debug)]
pub struct SPath {
    index: Arc<TargetIndex>,
    /// Per-node cumulative distance-wise signatures of the stored graph.
    signatures: Signatures,
    max_path_len: usize,
}

impl SPath {
    /// Indexing phase with paper-default radius (4) and path length (4),
    /// building a private [`TargetIndex`]. Prefer [`SPath::with_index`]
    /// when matchers share one stored graph.
    pub fn prepare(target: Arc<Graph>) -> Self {
        Self::with_params(target, DEFAULT_RADIUS, DEFAULT_MAX_PATH_LEN)
    }

    /// Indexing phase with explicit neighborhood radius and maximum
    /// decomposition path length.
    pub fn with_params(target: Arc<Graph>, radius: usize, max_path_len: usize) -> Self {
        Self::build(Arc::new(TargetIndex::build(target)), radius, max_path_len)
    }

    /// Indexed constructor path with paper-default parameters: only the
    /// distance-wise signatures (sPath's own structure) are computed
    /// here; label lists and adjacency come from the shared index.
    pub fn with_index(index: Arc<TargetIndex>) -> Self {
        Self::build(index, DEFAULT_RADIUS, DEFAULT_MAX_PATH_LEN)
    }

    fn build(index: Arc<TargetIndex>, radius: usize, max_path_len: usize) -> Self {
        assert!(radius >= 1, "radius must be at least 1");
        assert!(max_path_len >= 1, "path length must be at least 1");
        let signatures = Signatures::of_target(&index, radius);
        Self { index, signatures, max_path_len }
    }

    /// The configured neighborhood radius.
    pub fn radius(&self) -> usize {
        self.signatures.radius
    }

    /// Candidates per query node via label + cumulative distance-wise
    /// signature containment, as bitsets over `view.candidates(label)`.
    /// Ticks the budget clock once per tested vertex so racing
    /// cancellation reaches the pre-search phase promptly.
    ///
    /// On a simple graph the degree test plus the distance-1 layer is
    /// exactly GraphQL's rule 1 (layer 1 counts the neighbours' labels),
    /// so each bitset starts from the index's memoized rule-1 bitset
    /// ([`TargetIndex::rule_one_bits`]) and is filtered with layers
    /// `2..=radius` only.
    ///
    /// The distance signatures were computed over the *base* graph at
    /// preparation time; a delta overlay can shorten or lengthen BFS
    /// distances arbitrarily, so on overlay views the signature filter is
    /// skipped entirely (applying a stale signature could wrongly reject a
    /// valid candidate — label and degree checks remain sound).
    fn candidates(
        &self,
        query: &Graph,
        view: GraphView<'_>,
        clock: &mut BudgetClock<'_>,
    ) -> Result<Vec<Vec<u64>>, StopReason> {
        let Some(index) = view.base_index() else {
            return query
                .nodes()
                .map(|u| {
                    let list = view.candidates(query.label(u));
                    let mut bits = vec![0u64; list.len().div_ceil(64)];
                    for (chunk, word) in list.chunks(64).zip(&mut bits) {
                        clock.tick_n(chunk.len() as u32).map_or(Ok(()), Err)?;
                        for (b, &v) in chunk.iter().enumerate() {
                            *word |= u64::from(query.degree(u) <= view.degree(v)) << b;
                        }
                    }
                    Ok(bits)
                })
                .collect();
        };
        let (t, radius) = (&self.signatures, self.radius());
        let qsigs = Signatures::build(query, radius, t.slots.clone(), query.nodes());
        query
            .nodes()
            .map(|u| {
                let rule_one =
                    index.rule_one_bits(query, u, |n| clock.tick_n(n).map_or(Ok(()), Err))?;
                let q = qsigs.lanes_of(u as usize);
                let walk = !qsigs.runs_empty(u as usize);
                let first = t.first_row(query.label(u));
                let mut bits = vec![0u64; rule_one.len()];
                for (w, (&word, out)) in rule_one.iter().zip(&mut bits).enumerate() {
                    clock.tick_n(word.count_ones()).map_or(Ok(()), Err)?;
                    if word == 0 {
                        continue;
                    }
                    let row = first + 64 * w;
                    let mut kept = word & t.lanes_fit(&q, row);
                    // Branching on `walk` (fixed per vertex) rather than
                    // per survivor keeps the lane-only sweep branch-free.
                    if walk {
                        let mut rest = kept;
                        while rest != 0 {
                            let b = rest.trailing_zeros() as usize;
                            let fits = (2..=radius).all(|d| {
                                layer_fits(qsigs.overflow(u as usize, d), t.overflow(row + b, d))
                            });
                            kept &= !(u64::from(!fits) << b);
                            rest &= rest - 1;
                        }
                    }
                    *out = kept;
                }
                Ok(bits)
            })
            .collect()
    }

    /// Decomposes the query into a selectivity-ordered edge cover by paths
    /// of length ≤ `max_path_len`, returning the vertex matching order (each
    /// vertex once, in first-traversal order).
    ///
    /// The first path starts at the vertex with the fewest candidates
    /// (`sizes`); subsequent paths prefer starting at an already-covered
    /// vertex with remaining edges (keeping the join connected), again
    /// most-selective first with node-ID tie-breaks.
    fn path_order(&self, query: &Graph, sizes: &[usize]) -> Vec<NodeId> {
        let nq = query.node_count();
        let mut remaining: std::collections::HashSet<(NodeId, NodeId)> = query.edges().collect();
        let mut order: Vec<NodeId> = Vec::with_capacity(nq);
        let mut in_order = vec![false; nq];
        let push = |v: NodeId, order: &mut Vec<NodeId>, in_order: &mut Vec<bool>| {
            if !in_order[v as usize] {
                in_order[v as usize] = true;
                order.push(v);
            }
        };

        let selectivity = |v: NodeId| (sizes[v as usize], v);
        let has_remaining = |v: NodeId, remaining: &std::collections::HashSet<(NodeId, NodeId)>| {
            query.neighbors(v).iter().any(|&n| remaining.contains(&key(v, n)))
        };

        while !remaining.is_empty() {
            // Choose path start.
            let covered_start = order
                .iter()
                .copied()
                .filter(|&v| has_remaining(v, &remaining))
                .min_by_key(|&v| selectivity(v));
            let start = covered_start.unwrap_or_else(|| {
                (0..nq as NodeId)
                    .filter(|&v| has_remaining(v, &remaining))
                    .min_by_key(|&v| selectivity(v))
                    .expect("remaining non-empty implies an incident vertex")
            });
            push(start, &mut order, &mut in_order);
            // Greedy walk.
            let mut cur = start;
            for _ in 0..self.max_path_len {
                let next = query
                    .neighbors(cur)
                    .iter()
                    .copied()
                    .filter(|&n| remaining.contains(&key(cur, n)))
                    .min_by_key(|&n| selectivity(n));
                match next {
                    Some(n) => {
                        remaining.remove(&key(cur, n));
                        push(n, &mut order, &mut in_order);
                        cur = n;
                    }
                    None => break,
                }
            }
        }
        // Isolated query vertices (no edges) go last, most selective first.
        let mut rest: Vec<NodeId> = (0..nq as NodeId).filter(|&v| !in_order[v as usize]).collect();
        rest.sort_unstable_by_key(|&v| selectivity(v));
        for v in rest {
            push(v, &mut order, &mut in_order);
        }
        order
    }
}

#[inline]
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Lanes in a signature lane word, so slot labels per signature.
const SLOTS: usize = 8;
/// The largest count a lane holds; a lane at this value means "this many
/// or more", and the exact count is in the overflow run.
const SATURATED: u32 = 127;
/// Every lane's top bit: the guard that catches one lane's borrow.
const GUARDS: u64 = 0x8080_8080_8080_8080;

/// Empty lane words past the last plane, so a 64-row sweep that starts
/// at any row stays in bounds.
const PAD: usize = 63;

/// Cumulative distance-wise label counts of every node of one graph, for
/// the layers the filter reads: layer `d` (`2..=radius`) of a node counts,
/// per label, the nodes with that label within `d` hops of it. Distance 1
/// is rule 1's, which the filter starts from, so layer 1 is not kept.
/// Nodes sit in *rows*, in the order the build visited them: a target's
/// in label-list order (row `first_row(label(v)) + position(v)`), a
/// query's in ID order. Layer `d` of row `r` is the lane word
/// `lanes[(d - 2) * rows + r]` (one saturating count per slot label,
/// stored with every guard bit set), so each layer is one
/// position-major *plane*, plus the label-sorted
/// overflow run `overflow[offsets[k]..offsets[k + 1]]`,
/// `k = r * (radius - 1) + d - 2` (exact counts of non-slot labels and of
/// saturated slots). Every node has all layers; past its eccentricity a
/// layer repeats the one before it.
#[derive(Debug)]
struct Signatures {
    radius: usize,
    /// The slot labels, lane `i` counting `slots[i]`.
    slots: Vec<Label>,
    rows: usize,
    /// The planes, then [`PAD`] words with no counts.
    lanes: Vec<u64>,
    offsets: Vec<u32>,
    overflow: Vec<(Label, u32)>,
    /// A target's labels, ascending, each with the row of its list's
    /// first vertex; empty for a query.
    lists: Vec<(Label, usize)>,
}

impl Signatures {
    /// A target's signatures in label-list order, its slots being its
    /// [`SLOTS`] most frequent labels (ties to the smaller label).
    fn of_target(index: &TargetIndex, radius: usize) -> Self {
        let mut labels = index.graph().labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        let mut freq: Vec<(Label, usize)> =
            labels.iter().map(|&l| (l, index.candidates(l).len())).collect();
        let mut row = 0;
        let lists = freq
            .iter()
            .map(|&(l, n)| {
                row += n;
                (l, row - n)
            })
            .collect();
        freq.sort_by_key(|&(l, n)| (std::cmp::Reverse(n), l));
        let slots = freq.iter().take(SLOTS).map(|&(l, _)| l).collect();
        let order = labels.iter().flat_map(|&l| index.candidates(l)).copied();
        Self { lists, ..Self::build(index.graph(), radius, slots, order) }
    }

    /// One BFS per node out to `radius`, visiting sources in `order` (a
    /// permutation of the nodes; the `i`-th is row `i`), its lanes
    /// counting `slots`. The BFS marks visits with the source's ID in one
    /// stamp array shared by all sources and counts labels in a dense
    /// array indexed by label rank (labels are arbitrary `u32`s, up to
    /// the overlay's tombstone `u32::MAX`), so the build allocates
    /// nothing per node. A visit only counts; each layer from 2 on is
    /// packed when the BFS closes it.
    fn build(
        g: &Graph,
        radius: usize,
        slots: Vec<Label>,
        order: impl Iterator<Item = NodeId>,
    ) -> Self {
        let (rows, layers) = (g.node_count(), radius - 1);
        let mut by_rank: Vec<Label> = g.labels().to_vec();
        by_rank.sort_unstable();
        by_rank.dedup();
        let rank: Vec<u32> = g
            .labels()
            .iter()
            .map(|l| by_rank.binary_search(l).expect("a label of the graph") as u32)
            .collect();
        // Per rank, its lane's unit (`1 << 8 * slot`), or 0 for a label
        // that is not a slot.
        let unit: Vec<u64> = by_rank
            .iter()
            .map(|l| slots.iter().position(|s| s == l).map_or(0, |i| 1 << (8 * i)))
            .collect();
        let mut counts = vec![0u32; by_rank.len()];
        // Ranks with a nonzero count in the current BFS.
        let mut touched: Vec<u32> = Vec::new();
        let mut stamp = vec![NodeId::MAX; rows];
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        let mut lanes = vec![GUARDS; rows * layers + PAD];
        let mut offsets = Vec::with_capacity(rows * layers + 1);
        offsets.push(0);
        let mut overflow = Vec::new();
        for (row, v) in order.enumerate() {
            stamp[v as usize] = v;
            frontier.clear();
            frontier.push(v);
            for d in 1..=radius {
                next.clear();
                for &u in &frontier {
                    for &x in g.neighbors(u) {
                        if stamp[x as usize] != v {
                            stamp[x as usize] = v;
                            let r = rank[x as usize];
                            if counts[r as usize] == 0 {
                                touched.push(r);
                            }
                            counts[r as usize] += 1;
                            next.push(x);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                if d == 1 {
                    continue;
                }
                // Rank order is label order.
                touched.sort_unstable();
                let mut lane = 0;
                for &r in &touched {
                    let (c, unit) = (counts[r as usize], unit[r as usize]);
                    lane += unit * u64::from(c.min(SATURATED));
                    if unit == 0 || c >= SATURATED {
                        overflow.push((by_rank[r as usize], c));
                    }
                }
                lanes[(d - 2) * rows + row] = lane | GUARDS;
                offsets.push(u32::try_from(overflow.len()).expect("overflow pairs fit in u32"));
            }
            for &r in &touched {
                counts[r as usize] = 0;
            }
            touched.clear();
        }
        Self { radius, slots, rows, lanes, offsets, overflow, lists: Vec::new() }
    }

    /// The row of the first vertex of `label`'s list (0 for a label the
    /// target lacks, whose list is empty).
    fn first_row(&self, label: Label) -> usize {
        self.lists.binary_search_by_key(&label, |&(l, _)| l).map_or(0, |i| self.lists[i].1)
    }

    /// Row `r`'s lane words without their guard bits, layer 2 first.
    fn lanes_of(&self, r: usize) -> Vec<u64> {
        (0..self.radius - 1).map(|i| self.lanes[i * self.rows + r] & !GUARDS).collect()
    }

    /// Whether every overflow run of row `r` is empty.
    fn runs_empty(&self, r: usize) -> bool {
        let k = r * (self.radius - 1);
        self.offsets[k] == self.offsets[k + self.radius - 1]
    }

    /// The overflow run of layer `d` (`2..=radius`) of row `r`.
    #[inline]
    fn overflow(&self, r: usize, d: usize) -> &[(Label, u32)] {
        let k = r * (self.radius - 1) + d - 2;
        &self.overflow[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Bit `b` is set iff every lane of row `row + b` (`b < 64`) fits
    /// under query lanes `q` (layer 2 first, no guard bits): per plane,
    /// one straight pass of guard-bit subtractions over the 64 rows (the
    /// stored guards absorb each lane's borrow, so a guard survives iff
    /// its lane fits), then the survivors are packed eight rows to a
    /// byte. Rows past the end of `row`'s list read the next list's (or
    /// the padding), so the caller masks them off.
    #[inline]
    fn lanes_fit(&self, q: &[u64], row: usize) -> u64 {
        let mut acc = [GUARDS; 64];
        for (i, &q) in q.iter().enumerate() {
            let plane = &self.lanes[i * self.rows + row..][..64];
            for (a, &t) in acc.iter_mut().zip(plane) {
                *a &= t - q;
            }
        }
        // Per eight rows, row `g`'s guard bits go to bit `g` of each
        // lane's byte; ANDing the eight bytes leaves bit `g` set iff every
        // lane of row `g` fits.
        acc.chunks_exact(8).enumerate().fold(0, |fit, (block, acc)| {
            let mut z = acc.iter().enumerate().fold(0, |z, (g, &a)| z | (a >> 7) << g);
            z &= z >> 32;
            z &= z >> 16;
            z &= z >> 8;
            fit | (z & 0xff) << (8 * block)
        })
    }
}

/// Merge walk of two label-sorted runs: every query label must appear in
/// the target run with at least the query's count.
fn layer_fits(query: &[(Label, u32)], target: &[(Label, u32)]) -> bool {
    if query.len() > target.len() {
        return false;
    }
    let mut target = target.iter();
    query.iter().all(|&(l, qc)| {
        target.by_ref().find(|&&(tl, _)| tl >= l).is_some_and(|&(tl, tc)| tl == l && qc <= tc)
    })
}

impl Matcher for SPath {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SPath
    }

    fn index(&self) -> &Arc<TargetIndex> {
        &self.index
    }

    fn slice_session<'a>(
        &'a self,
        query: &'a Graph,
        view: GraphView<'a>,
        budget: &SearchBudget,
    ) -> SliceSetup<'a> {
        kernel::slice_session(self, query, view.with_default_index(&self.index), budget)
    }
}

/// The path order as a plan with edge-by-edge verification: a vertex
/// with an earlier-bound neighbour (the first in adjacency order) extends
/// through that neighbour's image and keeps only its own candidates; a
/// path start draws from its candidate list.
impl Planner for SPath {
    type Hook = ();

    fn plan<'a>(
        &self,
        query: &Graph,
        view: GraphView<'a>,
        clock: &mut BudgetClock<'_>,
        _: &mut SearchStats,
    ) -> Result<Plan<'a, ()>, StopReason> {
        let mut cands = self.candidates(query, view, clock)?;
        let sizes: Vec<usize> =
            cands.iter().map(|b| b.iter().map(|w| w.count_ones() as usize).sum()).collect();
        if sizes.contains(&0) {
            return Err(StopReason::Complete);
        }
        let order = self.path_order(query, &sizes);
        let index = view.base_index();
        let mut bound = vec![false; query.node_count()];
        let steps = order
            .into_iter()
            .map(|qv| {
                let anchor = query.neighbors(qv).iter().copied().find(|&qn| bound[qn as usize]);
                bound[qv as usize] = true;
                let (label, bits) = (query.label(qv), std::mem::take(&mut cands[qv as usize]));
                let Some(qn) = anchor else {
                    let domain = decode_positions(&bits, view.candidates(label));
                    return Step::new(qv, Source::Domain(Cow::Owned(domain)));
                };
                let step = Step { label: Some(label), ..Step::new(qv, Source::Neighbor(qn)) };
                match index {
                    Some(index) => Step { members: Some(Members { bits, index }), ..step },
                    None => Step { min_degree: query.degree(qv), ..step },
                }
            })
            .collect();
        Ok(Plan::new(query, steps, ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::budget::assert_scan_ticks_as_single_ticks;
    use crate::graphql::GraphQl;
    use crate::matcher::{is_valid_embedding, Embedding};
    use proptest::prelude::*;
    use psi_delta::{DeltaOverlay, UpdateOp, TOMBSTONE_LABEL};
    use psi_graph::generate::{random_connected_graph, LabelDist};
    use psi_graph::graph::graph_from_parts;
    use psi_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::hash_map::{Entry, HashMap};

    fn spa(t: Graph) -> SPath {
        SPath::prepare(Arc::new(t))
    }

    fn sorted(mut v: Vec<Embedding>) -> Vec<Embedding> {
        v.sort();
        v
    }

    /// Reference signature: cumulative label counts per BFS distance,
    /// `sig[d-1]` holding sorted `(label, count-of-nodes-within-distance-d)`
    /// pairs, built with hash maps.
    type DistanceSignature = Vec<Vec<(Label, u32)>>;

    /// Reference BFS out to `radius`, one hash map per distance.
    fn distance_signature(g: &Graph, v: NodeId, radius: usize) -> DistanceSignature {
        let mut counts: Vec<HashMap<Label, u32>> = vec![HashMap::new(); radius];
        let mut dist: HashMap<NodeId, usize> = HashMap::new();
        dist.insert(v, 0);
        let mut frontier = vec![v];
        for d in 1..=radius {
            let mut next = Vec::new();
            for &u in &frontier {
                for &nb in g.neighbors(u) {
                    if let Entry::Vacant(e) = dist.entry(nb) {
                        e.insert(d);
                        *counts[d - 1].entry(g.label(nb)).or_insert(0) += 1;
                        next.push(nb);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        // Cumulate: distance ≤ d.
        let mut out: DistanceSignature = Vec::with_capacity(radius);
        let mut acc: HashMap<Label, u32> = HashMap::new();
        for layer in counts {
            for (l, c) in layer {
                *acc.entry(l).or_insert(0) += c;
            }
            let mut flat: Vec<(Label, u32)> = acc.iter().map(|(&l, &c)| (l, c)).collect();
            flat.sort_unstable();
            out.push(flat);
        }
        out
    }

    /// Reference fit: per label binary search at every distance.
    fn signature_fits(qsig: &DistanceSignature, tsig: &DistanceSignature) -> bool {
        qsig.iter().zip(tsig).all(|(qlayer, tlayer)| {
            qlayer.iter().all(|&(l, qc)| {
                let tc = tlayer
                    .binary_search_by_key(&l, |&(tl, _)| tl)
                    .map(|i| tlayer[i].1)
                    .unwrap_or(0);
                qc <= tc
            })
        })
    }

    /// Layer `d` (`2..=radius`) of row `r` as exact label-sorted pairs,
    /// rebuilt from its lane word and overflow run; checks that a lane
    /// holds its exact count below [`SATURATED`] and that a saturated
    /// lane's exact count is in the overflow run.
    fn layer(sigs: &Signatures, r: usize, d: usize) -> Vec<(Label, u32)> {
        let lane = sigs.lanes[(d - 2) * sigs.rows + r];
        let overflow = sigs.overflow(r, d);
        assert_eq!(lane & GUARDS, GUARDS, "every guard bit is stored set");
        let lane = lane & !GUARDS;
        let unused = lane.checked_shr(8 * sigs.slots.len() as u32).unwrap_or(0);
        assert_eq!(unused, 0, "only slot lanes count");
        let mut out = overflow.to_vec();
        for (i, &l) in sigs.slots.iter().enumerate() {
            let exact = overflow.iter().find(|&&(ol, _)| ol == l).map(|&(_, c)| c);
            match (lane >> (8 * i)) as u32 & 0x7f {
                SATURATED => assert!(exact >= Some(SATURATED), "{l} saturated: {exact:?}"),
                c => {
                    assert_eq!(exact, None, "slot {l} below saturation overflows");
                    if c > 0 {
                        out.push((l, c));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Target node `v`'s row: its position in its label's list, past the
    /// lists of smaller labels.
    fn row(sigs: &Signatures, index: &TargetIndex, v: NodeId) -> usize {
        sigs.first_row(index.graph().label(v)) + index.position(v)
    }

    /// The target signatures of `g` at `radius`, with `g`'s index.
    fn target_signatures(g: &Graph, radius: usize) -> (Signatures, TargetIndex) {
        let index = TargetIndex::build(Arc::new(g.clone()));
        (Signatures::of_target(&index, radius), index)
    }

    /// A seeded random graph of two components with no edge between them
    /// plus two isolated nodes, labelled from a skewed pool of ten labels
    /// (weights tie in pairs, so label frequencies often tie too) that
    /// includes values near `u32::MAX` and the overlay's tombstone; with
    /// more than eight labels some layers name labels outside the lanes.
    fn split_graph(rng: &mut ChaCha8Rng) -> Graph {
        const LABELS: [(Label, u32); 10] = [
            (u32::MAX - 1, 6),
            (7, 6),
            (TOMBSTONE_LABEL, 4),
            (0, 4),
            (u32::MAX - 2, 2),
            (3, 2),
            (12, 1),
            (9, 1),
            (20, 1),
            (11, 1),
        ];
        let total: u32 = LABELS.iter().map(|&(_, w)| w).sum();
        let pick = |rng: &mut ChaCha8Rng| {
            let mut draw = rng.random_range(0..total);
            LABELS
                .iter()
                .find(|&&(_, w)| {
                    let hit = draw < w;
                    draw = draw.wrapping_sub(w);
                    hit
                })
                .expect("a draw below the total")
                .0
        };
        let half = rng.random_range(1..20usize);
        let n = 2 * half + 2;
        let labels: Vec<Label> = (0..n).map(|_| pick(rng)).collect();
        let mut b = GraphBuilder::new();
        b.add_nodes(&labels);
        for _ in 0..rng.random_range(0..=3 * half) {
            let base = if rng.random_bool(0.5) { 0 } else { half };
            let u = (base + rng.random_range(0..half)) as NodeId;
            let v = (base + rng.random_range(0..half)) as NodeId;
            if u != v {
                b.add_edge(u, v).expect("distinct endpoints");
            }
        }
        b.build().expect("endpoints in range")
    }

    /// Adds a label-1 hub with `leaves` label-2 leaves; returns the hub.
    fn add_star(b: &mut GraphBuilder, leaves: usize) -> NodeId {
        let hub = b.add_node(1);
        for _ in 0..leaves {
            let leaf = b.add_node(2);
            b.add_edge(hub, leaf).expect("distinct endpoints");
        }
        hub
    }

    /// Adds two joined label-1 hubs with `a` and `b` label-2 leaves: a
    /// leaf counts `a - 1 + b` label-2 nodes within three hops.
    fn add_double_star(g: &mut GraphBuilder, a: usize, b: usize) {
        let (x, y) = (add_star(g, a), add_star(g, b));
        g.add_edge(x, y).expect("distinct endpoints");
    }

    /// Label 2's cumulative counts across the lane cap on both sides. The
    /// target chains label-1 hubs with 126 to 129 label-2 leaves (a leaf
    /// of hub `k` counts `k - 1` label-2 nodes within two hops), holds
    /// double stars whose leaves count 126 to 128 within three hops, and
    /// hangs a path of labels 3 to 12 off the 128-leaf hub (labels 9 to
    /// 12 tie 3 to 8 in frequency and lose the slots to them). The queries
    /// are stars of 126 to 129 leaves, a double star whose leaves count
    /// 127 within three hops, and a 128-leaf star with the path.
    fn saturation_input() -> (Graph, Vec<Graph>) {
        let tail = |g: &mut GraphBuilder, hub: NodeId| {
            let mut prev = hub;
            for l in 3..=12 {
                let x = g.add_node(l);
                g.add_edge(prev, x).expect("distinct endpoints");
                prev = x;
            }
        };
        let mut t = GraphBuilder::new();
        let mut prev = None;
        for k in 126..=129 {
            let hub = add_star(&mut t, k);
            if let Some(p) = prev {
                t.add_edge(p, hub).expect("distinct endpoints");
            }
            if k == 128 {
                tail(&mut t, hub);
            }
            prev = Some(hub);
        }
        for (a, b) in [(63, 64), (64, 64), (64, 65)] {
            add_double_star(&mut t, a, b);
        }
        let mut queries = Vec::new();
        for m in 126..=129 {
            let mut q = GraphBuilder::new();
            add_star(&mut q, m);
            queries.push(q.build().expect("a star"));
        }
        let mut q = GraphBuilder::new();
        add_double_star(&mut q, 64, 64);
        queries.push(q.build().expect("a double star"));
        let mut q = GraphBuilder::new();
        let hub = add_star(&mut q, 128);
        tail(&mut q, hub);
        queries.push(q.build().expect("a star with a tail"));
        (t.build().expect("a saturated target"), queries)
    }

    #[test]
    fn distance_signature_of_path() {
        // 0 -1- 2 -3 chain labels a,b,c,d
        let g = graph_from_parts(&[10, 11, 12, 13], &[(0, 1), (1, 2), (2, 3)]);
        let (sigs, index) = target_signatures(&g, 4);
        assert_eq!(sigs.slots, [10, 11, 12, 13], "frequency ties go to the smaller label");
        assert_eq!(sigs.lists, [(10, 0), (11, 1), (12, 2), (13, 3)]);
        let r = |v| row(&sigs, &index, v);
        assert_eq!(layer(&sigs, r(0), 2), [(11, 1), (12, 1)]); // within 2
        assert_eq!(layer(&sigs, r(0), 3), [(11, 1), (12, 1), (13, 1)]);
        // Radius 4 exceeds eccentricity; the cumulative layer just repeats.
        assert_eq!(layer(&sigs, r(0), 4), layer(&sigs, r(0), 3));
        assert_eq!(layer(&sigs, r(3), 2), [(11, 1), (12, 1)]);
        let lane = sigs.lanes[0] & !GUARDS;
        assert_eq!(lane, 0x0001_0100, "row 0, layer 2: lanes 1 and 2 count one each");
        assert_eq!(sigs.lanes.len(), 4 * 3 + PAD, "three planes of four rows, no layer 1");
        assert_eq!(sigs.offsets.len(), 4 * 3 + 1);
        assert!(sigs.overflow.is_empty(), "four labels all have lanes");
    }

    #[test]
    fn rows_follow_the_label_lists() {
        // Label 5 holds nodes 1 and 3, label 2 nodes 0 and 4, label 9
        // node 2: rows 0-1 are label 2's list, 2-3 label 5's, 4 label 9's.
        let g = graph_from_parts(&[2, 5, 9, 5, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (sigs, index) = target_signatures(&g, 3);
        assert_eq!(sigs.lists, [(2, 0), (5, 2), (9, 4)]);
        assert_eq!((sigs.first_row(5), sigs.first_row(7)), (2, 0));
        let rows: Vec<usize> = g.nodes().map(|v| row(&sigs, &index, v)).collect();
        assert_eq!(rows, [0, 2, 4, 3, 1]);
        for v in g.nodes() {
            let want = distance_signature(&g, v, 3);
            for d in 2..=3 {
                assert_eq!(layer(&sigs, rows[v as usize], d), want[d - 1], "v {v} d {d}");
            }
        }
    }

    #[test]
    fn slots_are_the_most_frequent_labels() {
        // Label 5 three times, 9 and 2 twice, then seven single labels.
        let labels = [5, 9, 5, 2, 9, 5, 2, 40, 30, 31, 32, 33, 34, 35];
        let g = graph_from_parts(&labels, &[]);
        assert_eq!(target_signatures(&g, 1).0.slots, [5, 2, 9, 30, 31, 32, 33, 34]);
    }

    #[test]
    fn signature_fits_cumulative_rule() {
        // Needs two label-1 within the distance.
        assert!(layer_fits(&[(1, 2)], &[(1, 2), (2, 1)]));
        assert!(!layer_fits(&[(1, 2)], &[(1, 1), (2, 5)]));
        // A query label the target lacks fails, before or after its labels.
        assert!(!layer_fits(&[(0, 1)], &[(1, 1), (2, 1)]));
        assert!(!layer_fits(&[(1, 1), (3, 1)], &[(1, 1), (2, 1)]));
        assert!(!layer_fits(&[(1, 1), (2, 1)], &[(1, 1)]));
        // A query with no demands at a distance fits anything there.
        assert!(layer_fits(&[], &[]));
        assert!(layer_fits(&[], &[(1, 1)]));
        assert!(layer_fits(
            &[(2, 1), (TOMBSTONE_LABEL, 3)],
            &[(1, 1), (2, 4), (TOMBSTONE_LABEL, 3)]
        ));
    }

    #[test]
    fn flat_signatures_match_the_hash_map_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        let (sat, sat_queries) = saturation_input();
        let graphs = (0..60).map(|_| split_graph(&mut rng)).chain([sat]).chain(sat_queries);
        for (case, g) in graphs.enumerate() {
            let radii = if g.node_count() > 100 { 4..=4 } else { 1..=6 };
            for radius in radii {
                let (sigs, index) = target_signatures(&g, radius);
                assert_eq!(sigs.lanes.len(), g.node_count() * (radius - 1) + PAD);
                assert_eq!(sigs.offsets.len(), g.node_count() * (radius - 1) + 1);
                for v in g.nodes() {
                    let want = distance_signature(&g, v, radius);
                    for d in 2..=radius {
                        let got = layer(&sigs, row(&sigs, &index, v), d);
                        assert_eq!(got, want[d - 1], "case {case} r {radius} v {v}");
                    }
                }
            }
        }
    }

    /// The reference filter: label, degree and [`signature_fits`] over
    /// hash-map signatures, `tsigs` holding every target node's. Query
    /// nodes alike in all three share one scan.
    fn reference_candidates(t: &Graph, tsigs: &[DistanceSignature], q: &Graph) -> Vec<Vec<NodeId>> {
        let radius = tsigs.first().map_or(0, Vec::len);
        let mut seen = HashMap::new();
        q.nodes()
            .map(|u| {
                let (label, degree) = (q.label(u), q.degree(u));
                let qsig = distance_signature(q, u, radius);
                let scan = || {
                    t.nodes()
                        .filter(|&v| {
                            t.label(v) == label
                                && degree <= t.degree(v)
                                && signature_fits(&qsig, &tsigs[v as usize])
                        })
                        .collect::<Vec<_>>()
                };
                seen.entry((label, degree, qsig.clone())).or_insert_with(scan).clone()
            })
            .collect()
    }

    /// `m`'s candidates for `q` over `view` — the bitsets `plan` reads —
    /// each decoded against its label's list as `plan` decodes a path
    /// start's.
    fn decoded(m: &SPath, q: &Graph, view: GraphView<'_>) -> Vec<Vec<NodeId>> {
        let budget = SearchBudget::unlimited();
        let bits = m.candidates(q, view, &mut budget.start()).unwrap();
        q.nodes()
            .zip(bits)
            .map(|(u, b)| decode_positions(&b, view.candidates(q.label(u))))
            .collect()
    }

    /// Targets, each with its queries and the radii to filter them at.
    type Cases = Vec<(Arc<Graph>, Vec<Graph>, &'static [usize])>;

    /// `count` seeded split-graph targets with `queries` queries each,
    /// filtered at `radii`, then the saturation input at the paper's
    /// radius.
    fn cases(seed: u64, count: usize, queries: usize, radii: &'static [usize]) -> Cases {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out: Cases = (0..count)
            .map(|_| {
                let t = Arc::new(split_graph(&mut rng));
                (t, (0..queries).map(|_| split_graph(&mut rng)).collect(), radii)
            })
            .collect();
        let (t, queries) = saturation_input();
        out.push((Arc::new(t), queries, &[DEFAULT_RADIUS]));
        out
    }

    #[test]
    fn candidates_match_the_reference_signature_filter() {
        for (case, (t, queries, radii)) in cases(977, 40, 1, &[1, 2, 4, 6]).iter().enumerate() {
            for &radius in *radii {
                let m = SPath::with_params(Arc::clone(t), radius, DEFAULT_MAX_PATH_LEN);
                let tsigs: Vec<_> = t.nodes().map(|v| distance_signature(t, v, radius)).collect();
                for (i, q) in queries.iter().enumerate() {
                    let got = decoded(&m, q, GraphView::of_index(&m.index));
                    let want = reference_candidates(t, &tsigs, q);
                    assert_eq!(got, want, "case {case} radius {radius} query {i}");
                }
            }
        }
    }

    /// Exact label-sorted counts of `labels`.
    fn counted(mut labels: Vec<Label>) -> Vec<(Label, u32)> {
        labels.sort_unstable();
        let mut out: Vec<(Label, u32)> = Vec::new();
        for l in labels {
            match out.last_mut() {
                Some((last, c)) if *last == l => *c += 1,
                _ => out.push((l, 1)),
            }
        }
        out
    }

    /// The filter before the rule-1 memo and the lanes: scan the label
    /// list with the degree test and a merge walk of every exact layer
    /// `1..=radius` (layer 1 counted from the neighbours' labels).
    /// `SPath::candidates` is held to it. Query nodes alike in label,
    /// degree and layers share one scan.
    fn label_scan_candidates(m: &SPath, q: &Graph) -> Vec<Vec<NodeId>> {
        let qsigs = Signatures::build(q, m.radius(), m.signatures.slots.clone(), q.nodes());
        let layers = |g: &Graph, sigs: &Signatures, v: NodeId, r: usize| {
            let one = counted(g.neighbors(v).iter().map(|&n| g.label(n)).collect());
            std::iter::once(one).chain((2..=m.radius()).map(|d| layer(sigs, r, d))).collect()
        };
        let t = m.index.graph();
        let target: Vec<Vec<_>> = t
            .nodes()
            .map(|v| layers(t, &m.signatures, v, row(&m.signatures, &m.index, v)))
            .collect();
        let mut seen = HashMap::new();
        q.nodes()
            .map(|u| {
                let (label, degree) = (q.label(u), q.degree(u));
                let query: Vec<_> = layers(q, &qsigs, u, u as usize);
                let scan = || {
                    m.index
                        .candidates(label)
                        .iter()
                        .copied()
                        .filter(|&v| {
                            degree <= m.index.degree(v)
                                && query
                                    .iter()
                                    .zip(&target[v as usize])
                                    .all(|(q, t)| layer_fits(q, t))
                        })
                        .collect::<Vec<_>>()
                };
                seen.entry((label, degree, query.clone())).or_insert_with(scan).clone()
            })
            .collect()
    }

    #[test]
    fn candidates_match_the_label_scan_cold_and_warm() {
        for (case, (t, queries, radii)) in cases(5150, 30, 4, &[1, 2, 4]).iter().enumerate() {
            for &radius in *radii {
                // One index per radius, so each starts cold; the second
                // pass over the queries reads a warm memo.
                let m = SPath::with_params(Arc::clone(t), radius, DEFAULT_MAX_PATH_LEN);
                for pass in 0..2 {
                    for (i, q) in queries.iter().enumerate() {
                        let got = decoded(&m, q, GraphView::of_index(&m.index));
                        assert_eq!(
                            got,
                            label_scan_candidates(&m, q),
                            "case {case} radius {radius} pass {pass} query {i}"
                        );
                    }
                }
                let stats = m.index.candidate_memo_stats();
                assert!(stats.hits >= stats.misses, "the warm pass hits: {stats:?}");
            }
        }
    }

    /// A seeded target whose label lists span several words and end
    /// mid-word, with its queries. Nodes `0..64` carry label 0 and no
    /// edges, so the first word of label 0's rule-1 bitset is all zero
    /// for a query vertex with a neighbour and all ones for one without.
    /// Then come up to 200 nodes labelled from twelve labels (more than
    /// the eight lanes), mostly 0 and 1, with random edges, and a label-1
    /// hub with 126 to 130 label-0 leaves (counts across the lane cap).
    /// The queries: an isolated label-0 vertex, a label-1 star of 128
    /// label-0 leaves (each leaf counts 127 label-0 nodes within two
    /// hops, so its overflow runs are not empty), a path through all
    /// twelve labels, and three queries grown from the target.
    fn wide_input(seed: u64) -> (Graph, Vec<Graph>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        b.add_nodes(&[0; 64]);
        let extra = rng.random_range(1..200usize);
        let labels: Vec<Label> = (0..extra)
            .map(|_| match rng.random_range(0..4) {
                0 | 1 => 0,
                2 => 1,
                _ => rng.random_range(2..12),
            })
            .collect();
        b.add_nodes(&labels);
        let pick = |rng: &mut ChaCha8Rng| rng.random_range(64..64 + extra) as NodeId;
        for _ in 0..rng.random_range(0..3 * extra) {
            let (u, v) = (pick(&mut rng), pick(&mut rng));
            if u != v {
                b.add_edge(u, v).expect("distinct endpoints");
            }
        }
        let hub = b.add_node(1);
        b.add_edge(hub, pick(&mut rng)).expect("distinct endpoints");
        for _ in 0..rng.random_range(126..=130) {
            let leaf = b.add_node(0);
            b.add_edge(hub, leaf).expect("distinct endpoints");
        }
        let t = b.build().expect("endpoints in range");
        let mut star = GraphBuilder::new();
        let centre = star.add_node(1);
        for _ in 0..128 {
            let leaf = star.add_node(0);
            star.add_edge(centre, leaf).expect("distinct endpoints");
        }
        let path: Vec<(NodeId, NodeId)> = (0..11).map(|i| (i, i + 1)).collect();
        let mut queries = vec![
            graph_from_parts(&[0], &[]),
            star.build().expect("a star"),
            graph_from_parts(&(0..12).collect::<Vec<_>>(), &path),
        ];
        for _ in 0..3 {
            let size = rng.random_range(2..8);
            queries.push(grown(&t, size, &mut rng));
        }
        (t, queries)
    }

    /// A connected query of up to `size` nodes grown from a random node of
    /// `g`, keeping every edge among the chosen nodes.
    fn grown(g: &Graph, size: usize, rng: &mut ChaCha8Rng) -> Graph {
        let mut nodes = vec![rng.random_range(0..g.node_count()) as NodeId];
        for _ in 0..4 * size {
            let from = nodes[rng.random_range(0..nodes.len())];
            let next = match g.neighbors(from) {
                [] => continue,
                ns => ns[rng.random_range(0..ns.len())],
            };
            if nodes.len() < size && !nodes.contains(&next) {
                nodes.push(next);
            }
        }
        let labels: Vec<Label> = nodes.iter().map(|&v| g.label(v)).collect();
        let mut edges = Vec::new();
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
                if g.has_edge(u, v) {
                    edges.push((i as NodeId, j as NodeId));
                }
            }
        }
        graph_from_parts(&labels, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The swept bitsets, decoded, equal the reference filter, cold
        /// (every rule-1 lookup a miss) and warm (every one a hit), at
        /// radius 1 (no planes), 2, 3 and 4, over lists that end mid-word,
        /// all-zero and all-ones rule-1 words, more than eight labels and
        /// counts past the lane cap.
        #[test]
        fn swept_candidates_match_the_reference(seed in any::<u64>(), radius in 1usize..=4) {
            let (t, queries) = wide_input(seed);
            let t = Arc::new(t);
            let m = SPath::with_params(Arc::clone(&t), radius, DEFAULT_MAX_PATH_LEN);
            let tsigs: Vec<_> = t.nodes().map(|v| distance_signature(&t, v, radius)).collect();
            let view = GraphView::of_index(&m.index);
            for pass in 0..2 {
                for (i, q) in queries.iter().enumerate() {
                    let want = reference_candidates(&t, &tsigs, q);
                    prop_assert_eq!(decoded(&m, q, view), want, "pass {} query {}", pass, i);
                }
            }
            let stats = m.index.candidate_memo_stats();
            prop_assert!(stats.hits >= stats.misses, "the warm pass hits: {:?}", stats);
            let budget = SearchBudget::unlimited();
            let words = |q: &Graph| m.candidates(q, view, &mut budget.start()).unwrap();
            prop_assert_eq!(words(&queries[0])[0][0], u64::MAX, "an isolated vertex fits all");
            prop_assert_eq!(words(&queries[1])[1][0], 0, "a leaf fits no isolated node");
        }
    }

    /// The overlay scan advances the clock 64 vertices at a time and
    /// stops exactly when one tick per scanned vertex would have.
    #[test]
    fn overlay_scan_ticks_as_one_tick_per_vertex_would() {
        let q = graph_from_parts(&[0], &[]);
        for len in [1, 63, 64, 65, 200, 256, 300] {
            let t = graph_from_parts(&vec![0; len], &[]);
            let m = spa(t.clone());
            let ops = [UpdateOp::AddNode { label: 1 }];
            let overlay = DeltaOverlay::build(&t, Some(&m.index), &ops).unwrap();
            let view = GraphView::of_index(&m.index).with_overlay(Some(&overlay));
            assert_scan_ticks_as_single_ticks(len as u32, |clock| {
                m.candidates(&q, view, clock).is_err()
            });
        }
    }

    #[test]
    fn star_leaves_fit_across_the_lane_cap() {
        let (t, queries) = saturation_input();
        let m = SPath::prepare(Arc::new(t));
        assert_eq!(m.signatures.slots, [2, 1, 3, 4, 5, 6, 7, 8]);
        // A leaf of an `s`-leaf star counts `s - 1` label-2 nodes within
        // two hops, as a leaf of target hub `k` counts `k - 1`: it fits
        // exactly the hubs with `k >= s`.
        for (q, s) in queries.iter().zip(126..=129) {
            let got = decoded(&m, q, GraphView::of_index(&m.index));
            assert_eq!(got[1].len(), (s..=129).sum::<usize>(), "star of {s}");
        }
    }

    #[test]
    fn overlay_views_bypass_the_candidate_memo() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(20, 40, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let index = Arc::new(TargetIndex::build(Arc::new(t.clone())));
        let ops = [UpdateOp::AddNode { label: 0 }, UpdateOp::AddEdge { u: 20, v: 3, label: None }];
        let overlay = DeltaOverlay::build(&t, Some(&index), &ops).unwrap();
        let view = GraphView::of_index(&index).with_overlay(Some(&overlay));
        assert!(view.base_index().is_none());
        let matchers: [Box<dyn Matcher>; 2] = [
            Box::new(GraphQl::with_index(Arc::clone(&index))),
            Box::new(SPath::with_index(Arc::clone(&index))),
        ];
        let live = overlay.materialize(&t);
        for m in &matchers {
            let got = m.search_view(&q, view, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &live, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "{:?}", m.algorithm());
        }
        assert_eq!(index.candidate_memo_stats(), Default::default(), "no read, no write");
        // The same matchers over the bare index do use it.
        for m in &matchers {
            m.search(&q, &SearchBudget::unlimited());
        }
        assert!(index.candidate_memo_stats().misses > 0);
    }

    /// An anchored step keeps its candidates by label and members over an
    /// index view. Over an overlay view, which has no list positions, it
    /// keeps them by label and the query vertex's degree: exactly the
    /// overlay's label-and-degree candidates.
    #[test]
    fn anchored_steps_filter_by_members_or_by_label_and_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(20, 40, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let index = Arc::new(TargetIndex::build(Arc::new(t.clone())));
        let ops = [UpdateOp::AddNode { label: 0 }, UpdateOp::AddEdge { u: 20, v: 3, label: None }];
        let overlay = DeltaOverlay::build(&t, Some(&index), &ops).unwrap();
        let m = SPath::with_index(Arc::clone(&index));
        let budget = SearchBudget::unlimited();
        let base = GraphView::of_index(&index);
        for view in [base, base.with_overlay(Some(&overlay))] {
            let mut stats = SearchStats::default();
            let Ok(plan) = m.plan(&q, view, &mut budget.start(), &mut stats) else {
                panic!("the query has candidates everywhere");
            };
            let anchored: Vec<_> =
                plan.steps().iter().filter(|s| !matches!(s.source, Source::Domain(_))).collect();
            assert_eq!(anchored.len(), q.node_count() - 1, "a connected query has one start");
            for (i, s) in anchored.into_iter().enumerate() {
                let overlaid = view.has_overlay();
                assert_eq!(s.label, Some(q.label(s.vertex)), "step {i}");
                assert_eq!(s.members.is_some(), !overlaid, "step {i}");
                assert_eq!(s.min_degree, if overlaid { q.degree(s.vertex) } else { 0 }, "step {i}");
            }
        }
    }

    /// Label-2 vertex 1 and label-3 vertex 2 both sit first in their
    /// label's list and both neighbour the hub. Query vertex 1 (label 2)
    /// is anchored on the hub's image with bit 0 set in its members; the
    /// step's label must keep vertex 2 out.
    #[test]
    fn members_admit_only_their_own_label() {
        let t = graph_from_parts(&[1, 2, 3], &[(0, 1), (0, 2)]);
        let q = graph_from_parts(&[1, 2], &[(0, 1)]);
        let m = spa(t.clone());
        assert_eq!((m.index.position(1), m.index.position(2)), (0, 0));
        let got = m.search(&q, &SearchBudget::unlimited());
        let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
        assert_eq!(sorted(got.embeddings), sorted(want.embeddings));
        assert_eq!(got.stats.nodes_expanded, 2, "the hub, then vertex 1 only");
    }

    #[test]
    fn triangle_vs_path_distance_pruning() {
        // Distance signatures let sPath reject mapping a node that needs
        // 2 label-2 nodes within distance 1 onto one that has them at
        // distance 2.
        let t = graph_from_parts(&[1, 2, 2], &[(0, 1), (1, 2)]); // path: 2 at dist 2
        let m = spa(t);
        let q = graph_from_parts(&[1, 2, 2], &[(0, 1), (0, 2)]); // star
        let r = m.search(&q, &SearchBudget::unlimited());
        assert_eq!(r.num_matches, 0);
        assert_eq!(r.stats.nodes_expanded, 0, "signature filter should preempt search");
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(606);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        for i in 0..40 {
            let t = random_connected_graph(12, 20, &labels, &mut rng);
            let q = random_connected_graph(5, 6, &labels, &mut rng);
            let m = spa(t.clone());
            let got = m.search(&q, &SearchBudget::unlimited());
            let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
            assert_eq!(sorted(got.embeddings), sorted(want.embeddings), "case {i}");
        }
    }

    #[test]
    fn path_order_covers_all_vertices_once() {
        let t = graph_from_parts(&[0; 2], &[(0, 1)]);
        let m = spa(t);
        let q =
            graph_from_parts(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let order = m.path_order(&q, &[2; 6]);
        let mut sorted_order = order.clone();
        sorted_order.sort_unstable();
        assert_eq!(sorted_order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn path_order_handles_isolated_vertices() {
        let t = graph_from_parts(&[0], &[]);
        let m = spa(t);
        let q = graph_from_parts(&[0, 0, 0], &[(0, 1)]); // 2 isolated
        let order = m.path_order(&q, &[1; 3]);
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], 2, "isolated vertex should come last");
    }

    #[test]
    fn embeddings_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(25, 50, &labels, &mut rng);
        let q = random_connected_graph(5, 5, &labels, &mut rng);
        let m = spa(t.clone());
        let r = m.search(&q, &SearchBudget::paper_default());
        for e in &r.embeddings {
            assert!(is_valid_embedding(&q, &t, e));
        }
    }

    #[test]
    fn match_cap() {
        let t = graph_from_parts(&[0; 10], &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let m = spa(t);
        let q = graph_from_parts(&[0, 0], &[(0, 1)]);
        let r = m.search(&q, &SearchBudget::with_max_matches(7));
        assert_eq!(r.num_matches, 7);
        assert_eq!(r.stop, StopReason::MatchLimit);
    }

    #[test]
    fn matcher_trait_and_params() {
        let t = Arc::new(graph_from_parts(&[0, 1], &[(0, 1)]));
        let m = SPath::prepare(Arc::clone(&t));
        assert_eq!(m.algorithm(), Algorithm::SPath);
        assert_eq!(m.radius(), DEFAULT_RADIUS);
        let m2 = SPath::with_params(t, 2, 3);
        assert_eq!(m2.radius(), 2);
        assert!(m2.contains(&graph_from_parts(&[0, 1], &[(0, 1)])));
    }

    #[test]
    fn radius_one_still_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
        let t = random_connected_graph(10, 14, &labels, &mut rng);
        let q = random_connected_graph(4, 4, &labels, &mut rng);
        let m = SPath::with_params(Arc::new(t.clone()), 1, 2);
        let got = m.search(&q, &SearchBudget::unlimited());
        let want = bruteforce::enumerate(&q, &t, &SearchBudget::unlimited());
        assert_eq!(sorted(got.embeddings), sorted(want.embeddings));
    }

    #[test]
    fn empty_query() {
        let t = graph_from_parts(&[0], &[]);
        assert_eq!(
            spa(t).search(&graph_from_parts(&[], &[]), &SearchBudget::unlimited()).num_matches,
            1
        );
    }
}
