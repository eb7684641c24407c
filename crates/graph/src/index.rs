//! The shared per-graph [`TargetIndex`]: label, degree, signature and
//! adjacency structures computed **once** per stored graph.
//!
//! Stored graphs are immutable and registered exactly once, but every
//! matcher historically paid its own per-preparation (or worse,
//! per-query) cost against the same graph: label → vertex lists were
//! rebuilt by three matchers independently, GraphQL's neighborhood
//! signatures were duplicated per matcher, Ullmann seeded its candidate
//! matrix from raw label scans, and every adjacency probe was a binary
//! search. The `TargetIndex` hoists all of that derived state into one
//! structure built at registration time and shared (via `Arc`) by every
//! entrant of every race over the graph:
//!
//! * **`candidates(label)`** — sorted vertex list per label (the seed of
//!   every matcher's candidate sets);
//! * **`degree(v)`** / **`degree_descending()`** — a dense degree array
//!   and the hub-first vertex order (the hub degree also drives the
//!   bitset heuristic below);
//! * **`signature(v)`** / **`label_mask(v)`** — the sorted
//!   neighbor-label multiset GraphQL indexes, promoted and shared, plus
//!   a 64-bit label-presence mask for an O(1) containment pre-filter;
//! * **`has_edge(u, v)`** — a dense adjacency **bitset** fast path for
//!   small or hub-heavy graphs (`O(1)` per probe), falling back to the
//!   CSR binary search when the bitset would be too large.
//!
//! The index is pure derived state: it holds an `Arc<Graph>` and can be
//! rebuilt from it at any time, which is exactly what makes it the
//! natural unit to persist alongside learned predictor state. Every
//! structure is stored as **flat arrays** (offset/value pairs instead of
//! nested `Vec`s or hash maps), so a snapshot of the index is a handful
//! of contiguous sections and loading one is [`TargetIndex::from_parts`]
//! — validate + move, no rebuild.

use crate::graph::{Graph, Label, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// Memory cap for the dense adjacency bitset: `n² / 8` bytes must fit
/// under this for the bitset to be built (4 MiB ⇒ n ≤ 5792).
pub const DENSE_BITSET_MAX_BYTES: usize = 4 << 20;

/// Hub-heavy override: graphs whose maximum degree reaches this many
/// vertices get a bitset up to twice the byte cap — binary searches over
/// hub adjacency lists are exactly the probes the bitset eliminates.
pub const HUB_DEGREE_THRESHOLD: usize = 64;

/// Layout version of the flat structures in [`IndexParts`]. Bumped
/// whenever the derived-state layout changes meaning (new section
/// semantics, different ordering contract); a persisted index section
/// carrying an older version is ignored and the index rebuilt from the
/// graph instead.
pub const INDEX_LAYOUT_VERSION: u32 = 1;

/// Dense row-major adjacency bits: bit `u * n + v` is set iff `(u, v)`
/// is an edge. Symmetric (undirected graphs), so either orientation of a
/// probe reads the same answer.
#[derive(Debug, Clone)]
struct DenseBits {
    n: usize,
    words: Vec<u64>,
}

impl DenseBits {
    fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let mut words = vec![0u64; (n * n).div_ceil(64)];
        for u in g.nodes() {
            let row = u as usize * n;
            for &v in g.neighbors(u) {
                let bit = row + v as usize;
                words[bit / 64] |= 1 << (bit % 64);
            }
        }
        Self { n, words }
    }

    #[inline]
    fn get(&self, u: NodeId, v: NodeId) -> bool {
        let bit = u as usize * self.n + v as usize;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// The flat sections of a [`TargetIndex`], decoupled from the index for
/// serialization: everything here is a contiguous `Vec` of a primitive,
/// so a persistence layer can write each field as one binary section and
/// reassemble the index with [`TargetIndex::from_parts`] — validation
/// plus moves, no per-node rebuild work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexParts {
    /// Distinct node labels present in the graph, sorted ascending.
    pub label_keys: Vec<Label>,
    /// `label_keys.len() + 1` offsets into [`IndexParts::label_nodes`].
    pub label_offsets: Vec<u32>,
    /// Concatenated per-label vertex lists, each sorted ascending.
    pub label_nodes: Vec<NodeId>,
    /// Degree per node, dense.
    pub degrees: Vec<u32>,
    /// Node IDs sorted by degree descending (ties by ID ascending).
    pub degree_desc: Vec<NodeId>,
    /// `n + 1` offsets into [`IndexParts::sig_labels`].
    pub sig_offsets: Vec<u32>,
    /// Concatenated per-node sorted neighbor-label multisets.
    pub sig_labels: Vec<Label>,
    /// 64-bit label-presence mask per node.
    pub label_masks: Vec<u64>,
    /// Dense adjacency bitset words (`(n*n).div_ceil(64)` of them), or
    /// `None` when the bitset was not built.
    pub bitset_words: Option<Vec<u64>>,
}

/// Shared, immutable derived state of one stored graph. Build once at
/// registration ([`TargetIndex::build`]), share via `Arc` across every
/// matcher, race and query.
#[derive(Debug)]
pub struct TargetIndex {
    graph: Arc<Graph>,
    /// Distinct labels sorted ascending; `candidates` binary-searches
    /// here, then reads the matching slice of `label_nodes`.
    label_keys: Vec<Label>,
    /// `label_keys.len() + 1` offsets into `label_nodes`.
    label_offsets: Vec<u32>,
    /// Concatenated per-label vertex lists, sorted ascending by node ID
    /// (the order the matchers' seed implementations enumerated
    /// candidates in, so indexed searches visit candidates identically).
    label_nodes: Vec<NodeId>,
    /// Degree per node, dense.
    degrees: Vec<u32>,
    /// Node IDs sorted by degree descending (ties by ID ascending).
    degree_desc: Vec<NodeId>,
    /// `n + 1` offsets into `sig_labels`: node `v`'s signature is
    /// `sig_labels[sig_offsets[v]..sig_offsets[v + 1]]`.
    sig_offsets: Vec<u32>,
    /// Concatenated sorted neighbor-label multisets (GraphQL's
    /// signatures), flattened.
    sig_labels: Vec<Label>,
    /// 64-bit label-presence mask per node: bit `l % 64` is set iff some
    /// neighbor carries label `l`. A query signature can only be
    /// contained if its mask is a subset of the target's.
    label_masks: Vec<u64>,
    /// Dense adjacency bits for small/hub-heavy graphs.
    bits: Option<DenseBits>,
    /// Wall-clock cost of building this index, microseconds.
    build_micros: u64,
}

impl TargetIndex {
    /// Builds the full index over `graph`, including the dense adjacency
    /// bitset when the graph qualifies (see [`TargetIndex::has_bitset`]).
    pub fn build(graph: Arc<Graph>) -> Self {
        Self::build_inner(graph, true)
    }

    /// Builds the index **without** the dense bitset: every `has_edge`
    /// probe takes the CSR binary search, the path graphs too large for
    /// a bitset always use.
    pub fn build_without_bitset(graph: Arc<Graph>) -> Self {
        Self::build_inner(graph, false)
    }

    fn build_inner(graph: Arc<Graph>, want_bitset: bool) -> Self {
        let t0 = Instant::now();
        let n = graph.node_count();
        let mut degrees = Vec::with_capacity(n);
        let mut sig_offsets = Vec::with_capacity(n + 1);
        let mut sig_labels = Vec::new();
        let mut label_masks = Vec::with_capacity(n);
        sig_offsets.push(0u32);
        for v in graph.nodes() {
            degrees.push(graph.degree(v) as u32);
            let start = sig_labels.len();
            sig_labels.extend(graph.neighbors(v).iter().map(|&u| graph.label(u)));
            sig_labels[start..].sort_unstable();
            sig_offsets.push(sig_labels.len() as u32);
            let mut mask = 0u64;
            for &l in &sig_labels[start..] {
                mask |= 1 << (l % 64);
            }
            label_masks.push(mask);
        }
        // Label → vertex lists, flattened: a counting sort over the
        // distinct sorted labels. Nodes are visited in ID order, so each
        // per-label list comes out sorted ascending for free.
        let mut label_keys: Vec<Label> = graph.labels().to_vec();
        label_keys.sort_unstable();
        label_keys.dedup();
        let mut label_offsets = vec![0u32; label_keys.len() + 1];
        for &l in graph.labels() {
            let k = label_keys.binary_search(&l).expect("label key present");
            label_offsets[k + 1] += 1;
        }
        for k in 0..label_keys.len() {
            label_offsets[k + 1] += label_offsets[k];
        }
        let mut cursor = label_offsets[..label_keys.len()].to_vec();
        let mut label_nodes = vec![0 as NodeId; n];
        for v in graph.nodes() {
            let k = label_keys.binary_search(&graph.label(v)).expect("label key present");
            label_nodes[cursor[k] as usize] = v;
            cursor[k] += 1;
        }
        let mut degree_desc: Vec<NodeId> = (0..n as NodeId).collect();
        degree_desc.sort_unstable_by_key(|&v| (u32::MAX - degrees[v as usize], v));
        let max_degree = degree_desc.first().map_or(0, |&v| degrees[v as usize] as usize);
        let cap = if max_degree >= HUB_DEGREE_THRESHOLD {
            2 * DENSE_BITSET_MAX_BYTES
        } else {
            DENSE_BITSET_MAX_BYTES
        };
        let bits = (want_bitset && n > 0 && n.saturating_mul(n).div_ceil(8) <= cap)
            .then(|| DenseBits::build(&graph));
        Self {
            graph,
            label_keys,
            label_offsets,
            label_nodes,
            degrees,
            degree_desc,
            sig_offsets,
            sig_labels,
            label_masks,
            bits,
            build_micros: t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
        }
    }

    /// Decomposes the index into its flat sections (cloned) for
    /// serialization. The graph itself is not part of the parts — it is
    /// serialized separately (its CSR arrays are already flat).
    pub fn to_parts(&self) -> IndexParts {
        IndexParts {
            label_keys: self.label_keys.clone(),
            label_offsets: self.label_offsets.clone(),
            label_nodes: self.label_nodes.clone(),
            degrees: self.degrees.clone(),
            degree_desc: self.degree_desc.clone(),
            sig_offsets: self.sig_offsets.clone(),
            sig_labels: self.sig_labels.clone(),
            label_masks: self.label_masks.clone(),
            bitset_words: self.bits.as_ref().map(|b| b.words.clone()),
        }
    }

    /// Reassembles an index from flat sections — the load path of the
    /// persistence layer. Validation is `O(n + total section length)`:
    /// shapes, offset monotonicity, IDs in range, and `degree_desc`
    /// being a permutation of `0..n`. Contents that pass these checks
    /// but were maliciously permuted cannot cause memory unsafety — at
    /// worst wrong answers, which the snapshot checksum already guards.
    ///
    /// Returns `Err` with a description when any section is malformed;
    /// callers fall back to [`TargetIndex::build`].
    pub fn from_parts(graph: Arc<Graph>, parts: IndexParts) -> Result<Self, String> {
        let n = graph.node_count();
        let IndexParts {
            label_keys,
            label_offsets,
            label_nodes,
            degrees,
            degree_desc,
            sig_offsets,
            sig_labels,
            label_masks,
            bitset_words,
        } = parts;
        if degrees.len() != n {
            return Err(format!("degrees.len() = {}, expected {n}", degrees.len()));
        }
        if label_masks.len() != n {
            return Err(format!("label_masks.len() = {}, expected {n}", label_masks.len()));
        }
        if degree_desc.len() != n {
            return Err(format!("degree_desc.len() = {}, expected {n}", degree_desc.len()));
        }
        let mut seen = vec![false; n];
        for &v in &degree_desc {
            if v as usize >= n || seen[v as usize] {
                return Err(format!("degree_desc is not a permutation (node {v})"));
            }
            seen[v as usize] = true;
        }
        let check_offsets = |name: &str, offsets: &[u32], rows: usize, total: usize| {
            if offsets.len() != rows + 1 {
                return Err(format!("{name}.len() = {}, expected {}", offsets.len(), rows + 1));
            }
            if offsets[0] != 0 {
                return Err(format!("{name}[0] != 0"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{name} not monotone"));
            }
            if *offsets.last().unwrap() as usize != total {
                return Err(format!("{name} tail != {total}"));
            }
            Ok(())
        };
        check_offsets("sig_offsets", &sig_offsets, n, sig_labels.len())?;
        check_offsets("label_offsets", &label_offsets, label_keys.len(), label_nodes.len())?;
        if label_keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("label_keys not strictly sorted".into());
        }
        if label_nodes.len() != n {
            return Err(format!("label_nodes.len() = {}, expected {n}", label_nodes.len()));
        }
        if label_nodes.iter().any(|&v| v as usize >= n) {
            return Err("label_nodes entry out of range".into());
        }
        let bits = match bitset_words {
            Some(words) => {
                if words.len() != n.saturating_mul(n).div_ceil(64) {
                    return Err(format!("bitset has {} words, expected {}", words.len(), {
                        n.saturating_mul(n).div_ceil(64)
                    }));
                }
                Some(DenseBits { n, words })
            }
            None => None,
        };
        Ok(Self {
            graph,
            label_keys,
            label_offsets,
            label_nodes,
            degrees,
            degree_desc,
            sig_offsets,
            sig_labels,
            label_masks,
            bits,
            build_micros: 0,
        })
    }

    /// The indexed stored graph.
    #[inline]
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Number of nodes in the stored graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.degrees.len()
    }

    /// All vertices carrying `label`, sorted ascending by node ID.
    /// Returns an empty slice for labels absent from the graph.
    #[inline]
    pub fn candidates(&self, label: Label) -> &[NodeId] {
        match self.label_keys.binary_search(&label) {
            Ok(k) => {
                let lo = self.label_offsets[k] as usize;
                let hi = self.label_offsets[k + 1] as usize;
                &self.label_nodes[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Degree of `v` (array read; no CSR offset arithmetic).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Node IDs sorted by degree descending, ties by ID — hubs first.
    #[inline]
    pub fn degree_descending(&self) -> &[NodeId] {
        &self.degree_desc
    }

    /// Maximum degree in the graph (0 for the empty graph).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.degree_desc.first().map_or(0, |&v| self.degree(v))
    }

    /// Sorted neighbor-label multiset of `v` (GraphQL's signature).
    #[inline]
    pub fn signature(&self, v: NodeId) -> &[Label] {
        let lo = self.sig_offsets[v as usize] as usize;
        let hi = self.sig_offsets[v as usize + 1] as usize;
        &self.sig_labels[lo..hi]
    }

    /// 64-bit label-presence mask over `v`'s neighbor labels. A sorted
    /// multiset `q` can only be contained in `signature(v)` if
    /// `mask(q) & !label_mask(v) == 0`.
    #[inline]
    pub fn label_mask(&self, v: NodeId) -> u64 {
        self.label_masks[v as usize]
    }

    /// The mask a query-side signature needs for the
    /// [`TargetIndex::label_mask`] pre-filter.
    #[inline]
    pub fn mask_of(signature: &[Label]) -> u64 {
        signature.iter().fold(0u64, |m, &l| m | 1 << (l % 64))
    }

    /// Whether the dense adjacency bitset was built for this graph.
    #[inline]
    pub fn has_bitset(&self) -> bool {
        self.bits.is_some()
    }

    /// Whether the undirected edge `(u, v)` exists: `O(1)` through the
    /// dense bitset when present, `O(log deg)` binary search otherwise.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match &self.bits {
            Some(bits) => bits.get(u, v),
            None => self.graph.has_edge(u, v),
        }
    }

    /// [`TargetIndex::has_edge`] with probe accounting: `*bitset` or
    /// `*binary` is incremented according to which path answered. The
    /// counters are plain `u64`s (matchers keep them in their
    /// `SearchStats`), so the hot path pays no atomic traffic.
    #[inline]
    pub fn has_edge_counted(
        &self,
        u: NodeId,
        v: NodeId,
        bitset: &mut u64,
        binary: &mut u64,
    ) -> bool {
        match &self.bits {
            Some(bits) => {
                *bitset += 1;
                bits.get(u, v)
            }
            None => {
                *binary += 1;
                self.graph.has_edge(u, v)
            }
        }
    }

    /// Wall-clock cost of building this index, in microseconds. Zero for
    /// an index loaded from a snapshot ([`TargetIndex::from_parts`]) —
    /// nothing was built.
    #[inline]
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// Approximate resident size of the index in bytes (excluding the
    /// graph itself): degrees + orders + signatures + masks + label
    /// lists + bitset words. Documented in `docs/architecture.md` as the
    /// per-graph memory cost of registration.
    pub fn memory_bytes(&self) -> usize {
        self.degrees.len() * size_of::<u32>()
            + self.degree_desc.len() * size_of::<NodeId>()
            + self.label_masks.len() * size_of::<u64>()
            + self.sig_offsets.len() * size_of::<u32>()
            + self.sig_labels.len() * size_of::<Label>()
            + self.label_keys.len() * size_of::<Label>()
            + self.label_offsets.len() * size_of::<u32>()
            + self.label_nodes.len() * size_of::<NodeId>()
            + self.bits.as_ref().map_or(0, |b| b.words.len() * size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_connected_graph, LabelDist};
    use crate::graph::graph_from_parts;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn index(g: Graph) -> TargetIndex {
        TargetIndex::build(Arc::new(g))
    }

    #[test]
    fn candidates_are_sorted_per_label() {
        let g = graph_from_parts(&[1, 0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let ix = index(g);
        assert_eq!(ix.candidates(1), &[0, 2, 4]);
        assert_eq!(ix.candidates(0), &[1, 3]);
        assert!(ix.candidates(9).is_empty());
    }

    #[test]
    fn degrees_and_hub_order() {
        let g = graph_from_parts(&[0; 5], &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let ix = index(g);
        assert_eq!(ix.degree(0), 3);
        assert_eq!(ix.degree(4), 1);
        assert_eq!(ix.max_degree(), 3);
        assert_eq!(ix.degree_descending()[0], 0, "hub first");
        assert_eq!(ix.degree_descending()[1], 3, "ties by id after degree");
        assert_eq!(ix.degree_descending().len(), 5);
    }

    #[test]
    fn signatures_match_neighbor_labels() {
        let g = graph_from_parts(&[1, 2, 3, 2], &[(0, 1), (0, 2), (0, 3)]);
        let ix = index(g);
        assert_eq!(ix.signature(0), &[2, 2, 3]);
        assert_eq!(ix.signature(1), &[1]);
        assert_eq!(ix.label_mask(0), (1 << 2) | (1 << 3));
        assert_eq!(TargetIndex::mask_of(&[2, 3]), ix.label_mask(0));
        // The mask pre-filter is sound: containment implies mask subset.
        assert_eq!(TargetIndex::mask_of(&[2]) & !ix.label_mask(0), 0);
        assert_ne!(TargetIndex::mask_of(&[7]) & !ix.label_mask(0), 0);
    }

    #[test]
    fn bitset_agrees_with_binary_search() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let labels = LabelDist::Uniform { num_labels: 4 }.sampler();
        let g = random_connected_graph(60, 140, &labels, &mut rng);
        let ix = index(g.clone());
        assert!(ix.has_bitset(), "60 nodes is far under the byte cap");
        let no_bits = TargetIndex::build_without_bitset(Arc::new(g.clone()));
        assert!(!no_bits.has_bitset());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(ix.has_edge(u, v), g.has_edge(u, v), "({u},{v})");
                assert_eq!(no_bits.has_edge(u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn probe_counters_track_the_answering_path() {
        let g = graph_from_parts(&[0, 0], &[(0, 1)]);
        let ix = index(g.clone());
        let (mut bs, mut bin) = (0u64, 0u64);
        assert!(ix.has_edge_counted(0, 1, &mut bs, &mut bin));
        assert_eq!((bs, bin), (1, 0));
        let no_bits = TargetIndex::build_without_bitset(Arc::new(g));
        assert!(no_bits.has_edge_counted(1, 0, &mut bs, &mut bin));
        assert_eq!((bs, bin), (1, 1));
    }

    #[test]
    fn oversized_graphs_skip_the_bitset() {
        // 8000 nodes ⇒ 8 MB of bits: over the 4 MiB cap, and the path
        // graph has no hub to trigger the override.
        let labels: Vec<u32> = vec![0; 8000];
        let edges: Vec<(NodeId, NodeId)> = (0..7999).map(|i| (i, i + 1)).collect();
        let g = graph_from_parts(&labels, &edges);
        let ix = index(g);
        assert!(!ix.has_bitset());
        assert!(ix.has_edge(0, 1), "binary-search fallback still answers");
        assert!(!ix.has_edge(0, 2));
    }

    #[test]
    fn empty_graph_index() {
        let ix = index(graph_from_parts(&[], &[]));
        assert_eq!(ix.node_count(), 0);
        assert_eq!(ix.max_degree(), 0);
        assert!(ix.candidates(0).is_empty());
        assert!(!ix.has_bitset());
    }

    #[test]
    fn build_time_and_memory_are_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
        let ix = index(random_connected_graph(50, 100, &labels, &mut rng));
        assert!(ix.memory_bytes() > 0);
        // build_micros is best-effort wall clock; it must at least exist.
        let _ = ix.build_micros();
    }

    /// Every public accessor answers identically after a
    /// `to_parts` → `from_parts` round trip.
    #[test]
    fn parts_roundtrip_preserves_all_accessors() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let labels = LabelDist::Uniform { num_labels: 5 }.sampler();
        let g = Arc::new(random_connected_graph(50, 120, &labels, &mut rng));
        for built in
            [TargetIndex::build(Arc::clone(&g)), TargetIndex::build_without_bitset(Arc::clone(&g))]
        {
            let loaded = TargetIndex::from_parts(Arc::clone(&g), built.to_parts()).unwrap();
            assert_eq!(loaded.has_bitset(), built.has_bitset());
            assert_eq!(loaded.degree_descending(), built.degree_descending());
            assert_eq!(loaded.memory_bytes(), built.memory_bytes());
            for l in 0..6 {
                assert_eq!(loaded.candidates(l), built.candidates(l));
            }
            for v in g.nodes() {
                assert_eq!(loaded.degree(v), built.degree(v));
                assert_eq!(loaded.signature(v), built.signature(v));
                assert_eq!(loaded.label_mask(v), built.label_mask(v));
                for u in g.nodes() {
                    assert_eq!(loaded.has_edge(u, v), built.has_edge(u, v));
                }
            }
            assert_eq!(loaded.build_micros(), 0, "loaded indexes built nothing");
        }
    }

    #[test]
    fn from_parts_rejects_malformed_sections() {
        let g = Arc::new(graph_from_parts(&[1, 0, 1], &[(0, 1), (1, 2)]));
        let good = TargetIndex::build(Arc::clone(&g)).to_parts();
        let reject = |mutate: &dyn Fn(&mut IndexParts)| {
            let mut p = good.clone();
            mutate(&mut p);
            assert!(TargetIndex::from_parts(Arc::clone(&g), p).is_err());
        };
        reject(&|p| p.degrees.pop().map(|_| ()).unwrap());
        reject(&|p| p.label_masks.push(0));
        reject(&|p| p.degree_desc[0] = p.degree_desc[1]); // not a permutation
        reject(&|p| p.degree_desc[0] = 99); // out of range
        reject(&|p| p.sig_offsets[1] = 1000); // non-monotone / tail break
        reject(&|p| p.sig_offsets[0] = 1);
        reject(&|p| p.label_keys.reverse()); // unsorted keys
        reject(&|p| p.label_nodes[0] = 99);
        reject(&|p| p.label_nodes.pop().map(|_| ()).unwrap());
        reject(&|p| {
            if let Some(w) = p.bitset_words.as_mut() {
                w.pop();
            }
        });
        // The untouched parts still load.
        assert!(TargetIndex::from_parts(Arc::clone(&g), good).is_ok());
    }
}
