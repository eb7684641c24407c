//! Golden search traces: every matcher's exact search behaviour, pinned.
//!
//! Each case runs all five prepared matchers (plus the index-free
//! `vf2_search`) on one seeded (query, target) pair and condenses the
//! result into one line: stop reason, match count, a digest of the
//! embedding *sequence* (order included), and every [`SearchStats`]
//! counter except `edge_probes_binary` (which depends only on how a probe
//! is routed, not on what the search visits). The expected lines were
//! recorded from the matchers as they stand; a change to any algorithm's
//! vertex order, candidate order, filtering or tie-breaking shows up here
//! as a diff. The paper's Observation 2 (isomorphic queries can take very
//! different times because each algorithm breaks ties by query-node ID)
//! rests on exactly these traces staying put.
//!
//! Every case runs twice through the same prepared matchers and must
//! print the same lines both times: the second pass reads candidate
//! lists from the index's warm rule-1 memo instead of scanning.
//!
//! Wall-clock budgets are left out on purpose: they cut searches at
//! machine-dependent points.

use psi::graph::generate::{random_connected_graph, LabelDist};
use psi::graph::graph::graph_from_parts;
use psi::graph::{Graph, GraphBuilder, NodeId, TargetIndex};
use psi::matchers::vf2::vf2_search;
use psi::matchers::{Algorithm, MatchResult, SearchBudget, StopReason};
use psi_delta::{DeltaOverlay, GraphView, UpdateOp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 5] =
    [Algorithm::Vf2, Algorithm::Ullmann, Algorithm::QuickSi, Algorithm::GraphQl, Algorithm::SPath];

/// How a case's target is viewed by the matchers.
enum Shape {
    /// The prepared index, no overlay.
    Plain,
    /// The prepared index plus a small delta overlay.
    Overlay,
}

struct Case {
    name: &'static str,
    query: Graph,
    target: Graph,
    cap: Option<usize>,
    shape: Shape,
}

fn pair(seed: u64, labels: u32, nt: usize, mt: usize, nq: usize, mq: usize) -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sampler = LabelDist::Uniform { num_labels: labels }.sampler();
    let target = random_connected_graph(nt, mt, &sampler, &mut rng);
    let query = random_connected_graph(nq, mq, &sampler, &mut rng);
    (query, target)
}

/// Rebuilds `g` with every edge carrying a random label from `0..2`.
fn with_edge_labels(g: &Graph, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for (u, v) in g.edges() {
        b.add_labeled_edge(u, v, rng.random_range(0..2u32)).unwrap();
    }
    b.build().unwrap()
}

/// The subgraph of `g` induced by the first `k` nodes of a BFS from
/// `root`, renumbered in BFS order: a connected query with at least one
/// embedding.
fn bfs_subgraph(g: &Graph, root: NodeId, k: usize) -> Graph {
    let mut order = vec![root];
    let mut i = 0;
    while order.len() < k && i < order.len() {
        for &x in g.neighbors(order[i]) {
            if order.len() < k && !order.contains(&x) {
                order.push(x);
            }
        }
        i += 1;
    }
    let mut b = GraphBuilder::new();
    for &v in &order {
        b.add_node(g.label(v));
    }
    for (a, &u) in order.iter().enumerate() {
        for (c, &v) in order.iter().enumerate().skip(a + 1) {
            if g.has_edge(u, v) {
                b.add_edge(a as NodeId, c as NodeId).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// Two label-0 hubs with `big` and `small` label-1 leaves, joined
/// through a label-2 node, and a label-0 star query with `leaves`
/// label-1 leaves. Leaf counts past 126 put label 1's cumulative counts
/// at the saturation edge of sPath's signature lanes on both sides.
fn hubs_and_star(big: usize, small: usize, leaves: usize) -> (Graph, Graph) {
    let mut t = GraphBuilder::new();
    let (a, m, b) = (t.add_node(0), t.add_node(2), t.add_node(0));
    t.add_edge(a, m).unwrap();
    t.add_edge(m, b).unwrap();
    for (hub, n) in [(a, big), (b, small)] {
        for _ in 0..n {
            let leaf = t.add_node(1);
            t.add_edge(hub, leaf).unwrap();
        }
    }
    let star: Vec<(NodeId, NodeId)> = (1..=leaves as NodeId).map(|l| (0, l)).collect();
    let mut labels = vec![1; leaves + 1];
    labels[0] = 0;
    (graph_from_parts(&labels, &star), t.build().unwrap())
}

/// The disjoint union of `a` and `b` (b's IDs shifted past a's).
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let mut g = GraphBuilder::new();
    for v in a.nodes() {
        g.add_node(a.label(v));
    }
    let shift = a.node_count() as NodeId;
    for v in b.nodes() {
        g.add_node(b.label(v));
    }
    for (u, v) in a.edges() {
        g.add_edge(u, v).unwrap();
    }
    for (u, v) in b.edges() {
        g.add_edge(u + shift, v + shift).unwrap();
    }
    g.build().unwrap()
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |name, (query, target): (Graph, Graph), cap, shape| {
        out.push(Case { name, query, target, cap, shape });
    };
    push("rand-a", pair(1, 3, 24, 46, 5, 6), None, Shape::Plain);
    push("rand-b", pair(2, 2, 24, 46, 4, 4), None, Shape::Plain);
    push("rand-c", pair(3, 2, 30, 70, 4, 5), None, Shape::Plain);
    push("rand-d", pair(4, 3, 20, 34, 6, 7), None, Shape::Plain);
    push("rand-e", pair(5, 2, 18, 30, 3, 3), None, Shape::Plain);
    push("rand-f", pair(6, 2, 28, 60, 4, 3), None, Shape::Plain);
    push("rand-g", pair(7, 1, 16, 40, 4, 4), None, Shape::Plain);
    push("cap-b", pair(2, 2, 24, 46, 4, 4), Some(3), Shape::Plain);
    push("cap-c", pair(8, 2, 26, 52, 4, 4), Some(3), Shape::Plain);
    push("cap-f", pair(6, 2, 28, 60, 4, 3), Some(3), Shape::Plain);
    push("cap-g", pair(7, 1, 16, 40, 4, 4), Some(3), Shape::Plain);

    let (q, t) = pair(9, 1, 22, 44, 4, 3);
    let labelled = (with_edge_labels(&q, 90), with_edge_labels(&t, 91));
    push("elab", labelled.clone(), None, Shape::Plain);
    push("elab-cap", labelled, Some(3), Shape::Plain);

    let (q1, t) = pair(10, 2, 22, 40, 3, 2);
    let (q2, _) = pair(11, 2, 4, 4, 2, 1);
    let disconnected = (disjoint_union(&q1, &q2), t);
    push("disc", disconnected.clone(), None, Shape::Plain);
    push("disc-cap", disconnected, Some(3), Shape::Plain);

    let (_, t) = pair(12, 2, 10, 14, 2, 1);
    push("empty-query", (graph_from_parts(&[], &[]), t), None, Shape::Plain);
    let (q, _) = pair(13, 2, 2, 1, 12, 14);
    let (_, t) = pair(13, 2, 6, 6, 2, 1);
    push("size-reject", (q, t), None, Shape::Plain);
    let (_, t) = pair(14, 2, 16, 24, 3, 2);
    push("no-label", (graph_from_parts(&[0, 7], &[(0, 1)]), t), None, Shape::Plain);

    // Twelve labels: sPath's signature keeps eight of them in lanes, so
    // the query's outer layers name labels that live outside the lanes.
    let (_, t) = pair(16, 12, 60, 120, 2, 1);
    push("many-labels", (bfs_subgraph(&t, 5, 7), t), None, Shape::Plain);
    push("hub-star-cap", hubs_and_star(140, 128, 129), Some(3), Shape::Plain);

    push("overlay", pair(15, 2, 24, 46, 4, 3), None, Shape::Overlay);
    push("overlay-cap", pair(15, 2, 24, 46, 4, 3), Some(3), Shape::Overlay);
    out
}

/// A fixed mutation batch: remove node 0's first edge, connect the first
/// non-adjacent pair, append a node wired to nodes 1 and 2, tombstone the
/// last base node.
fn overlay_ops(g: &Graph) -> Vec<UpdateOp> {
    let first = g.neighbors(0)[0];
    let (u, v) = (0..g.node_count() as NodeId)
        .flat_map(|u| (u + 1..g.node_count() as NodeId).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v) && (u, v) != (0, first))
        .expect("a sparse target has a non-adjacent pair");
    let added = g.node_count() as NodeId;
    vec![
        UpdateOp::RemoveEdge { u: 0, v: first },
        UpdateOp::AddEdge { u, v, label: None },
        UpdateOp::AddNode { label: g.label(1) },
        UpdateOp::AddEdge { u: added, v: 1, label: None },
        UpdateOp::AddEdge { u: added, v: 2, label: None },
        UpdateOp::RemoveNode { node: added - 1 },
    ]
}

/// FNV-1a over the embedding sequence, each embedding length-prefixed.
fn digest(r: &MatchResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in &r.embeddings {
        eat(e.len() as u32);
        for &v in e {
            eat(v);
        }
    }
    h
}

fn line(case: &str, who: &str, r: &MatchResult) -> String {
    let stop = match r.stop {
        StopReason::Complete => "complete",
        StopReason::MatchLimit => "limit",
        StopReason::TimedOut => "timeout",
        StopReason::Cancelled => "cancelled",
    };
    assert_eq!(r.num_matches, r.embeddings.len(), "{case} {who}");
    format!(
        "{case} {who} {stop} n={} digest={:016x} expanded={} pruned={} backtracks={} bitset={}",
        r.num_matches,
        digest(r),
        r.stats.nodes_expanded,
        r.stats.candidates_pruned,
        r.stats.backtracks,
        r.stats.edge_probes_bitset,
    )
}

/// Every case's lines, twice: each case's matchers are prepared once and
/// run the case two times, so the second pass reads the index's warm
/// rule-1 candidate memo. Returns the cold and the warm pass.
fn traces() -> (Vec<String>, Vec<String>) {
    let mut passes = [Vec::new(), Vec::new()];
    for case in cases() {
        let budget = match case.cap {
            Some(cap) => SearchBudget::with_max_matches(cap),
            None => SearchBudget::unlimited(),
        };
        let index = Arc::new(TargetIndex::build(Arc::new(case.target.clone())));
        let ops = match case.shape {
            Shape::Plain => Vec::new(),
            Shape::Overlay => overlay_ops(&case.target),
        };
        let overlay = (!ops.is_empty())
            .then(|| DeltaOverlay::build(&case.target, Some(&index), &ops).expect("valid ops"));
        let matchers = ALGORITHMS.map(|alg| (alg, alg.prepare_indexed(Arc::clone(&index))));
        for out in &mut passes {
            for (alg, m) in &matchers {
                let view = GraphView::of_index(&index).with_overlay(overlay.as_ref());
                let r = m.search_view(&case.query, view, &budget);
                out.push(line(case.name, alg.short_name(), &r));
            }
            if overlay.is_none() {
                let r = vf2_search(&case.query, &case.target, &budget);
                out.push(line(case.name, "VF2-free", &r));
            }
        }
    }
    let [cold, warm] = passes;
    (cold, warm)
}

const GOLDEN: &str = "\
rand-a VF2 complete n=0 digest=cbf29ce484222325 expanded=58 pruned=31 backtracks=27 bitset=50
rand-a ULL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=10 backtracks=0 bitset=0
rand-a QSI complete n=0 digest=cbf29ce484222325 expanded=48 pruned=10 backtracks=38 bitset=61
rand-a GQL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=16 backtracks=0 bitset=0
rand-a SPA complete n=0 digest=cbf29ce484222325 expanded=2 pruned=0 backtracks=2 bitset=1
rand-a VF2-free complete n=0 digest=cbf29ce484222325 expanded=58 pruned=31 backtracks=27 bitset=0
rand-b VF2 complete n=8 digest=e35514f437ebafca expanded=90 pruned=30 backtracks=60 bitset=93
rand-b ULL complete n=8 digest=e35514f437ebafca expanded=1695 pruned=1505 backtracks=191 bitset=1813
rand-b QSI complete n=8 digest=b8782dea99e556fa expanded=106 pruned=40 backtracks=66 bitset=143
rand-b GQL complete n=8 digest=452f9ca1fb5c0e5a expanded=64 pruned=57 backtracks=20 bitset=68
rand-b SPA complete n=8 digest=452f9ca1fb5c0e5a expanded=34 pruned=9 backtracks=25 bitset=42
rand-b VF2-free complete n=8 digest=e35514f437ebafca expanded=90 pruned=30 backtracks=60 bitset=0
rand-c VF2 complete n=3 digest=0a9f9123de2f0f69 expanded=56 pruned=32 backtracks=24 bitset=47
rand-c ULL complete n=3 digest=0a9f9123de2f0f69 expanded=346 pruned=314 backtracks=40 bitset=371
rand-c QSI complete n=3 digest=0a9f9123de2f0f69 expanded=89 pruned=55 backtracks=34 bitset=136
rand-c GQL complete n=3 digest=0a9f9123de2f0f69 expanded=158 pruned=146 backtracks=25 bitset=183
rand-c SPA complete n=3 digest=0a9f9123de2f0f69 expanded=61 pruned=31 backtracks=30 bitset=91
rand-c VF2-free complete n=3 digest=0a9f9123de2f0f69 expanded=56 pruned=32 backtracks=24 bitset=0
rand-d VF2 complete n=0 digest=cbf29ce484222325 expanded=28 pruned=13 backtracks=15 bitset=31
rand-d ULL complete n=0 digest=cbf29ce484222325 expanded=52 pruned=45 backtracks=24 bitset=69
rand-d QSI complete n=0 digest=cbf29ce484222325 expanded=24 pruned=7 backtracks=17 bitset=28
rand-d GQL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=25 backtracks=0 bitset=0
rand-d SPA complete n=0 digest=cbf29ce484222325 expanded=7 pruned=2 backtracks=5 bitset=10
rand-d VF2-free complete n=0 digest=cbf29ce484222325 expanded=28 pruned=13 backtracks=15 bitset=0
rand-e VF2 complete n=6 digest=72488dcec2352025 expanded=38 pruned=15 backtracks=23 bitset=43
rand-e ULL complete n=6 digest=72488dcec2352025 expanded=140 pruned=120 backtracks=27 bitset=153
rand-e QSI complete n=6 digest=72488dcec2352025 expanded=53 pruned=22 backtracks=31 bitset=51
rand-e GQL complete n=6 digest=72488dcec2352025 expanded=112 pruned=89 backtracks=23 bitset=127
rand-e SPA complete n=6 digest=72488dcec2352025 expanded=37 pruned=14 backtracks=23 bitset=52
rand-e VF2-free complete n=6 digest=72488dcec2352025 expanded=38 pruned=15 backtracks=23 bitset=0
rand-f VF2 complete n=106 digest=2235c63649323455 expanded=209 pruned=0 backtracks=209 bitset=196
rand-f ULL complete n=106 digest=fe53688b95e3bfa5 expanded=1630 pruned=1359 backtracks=283 bitset=1668
rand-f QSI complete n=106 digest=2235c63649323455 expanded=209 pruned=0 backtracks=209 bitset=196
rand-f GQL complete n=106 digest=eac27793653cf955 expanded=905 pruned=725 backtracks=182 bitset=896
rand-f SPA complete n=106 digest=eac27793653cf955 expanded=183 pruned=0 backtracks=183 bitset=173
rand-f VF2-free complete n=106 digest=2235c63649323455 expanded=209 pruned=0 backtracks=209 bitset=0
rand-g VF2 complete n=418 digest=216dd9d6b2e6d905 expanded=1538 pruned=686 backtracks=852 bitset=2392
rand-g ULL complete n=418 digest=3e1b82b600aa1265 expanded=8060 pruned=7028 backtracks=1032 bitset=10355
rand-g QSI complete n=418 digest=216dd9d6b2e6d905 expanded=1904 pruned=1034 backtracks=870 bitset=2306
rand-g GQL complete n=418 digest=cbbeb9660791d305 expanded=5986 pruned=5117 backtracks=869 bitset=7430
rand-g SPA complete n=418 digest=cbbeb9660791d305 expanded=1910 pruned=1041 backtracks=869 bitset=3354
rand-g VF2-free complete n=418 digest=216dd9d6b2e6d905 expanded=1538 pruned=686 backtracks=852 bitset=0
cap-b VF2 limit n=3 digest=d4d1c8e778dd4ce4 expanded=47 pruned=12 backtracks=31 bitset=47
cap-b ULL limit n=3 digest=d4d1c8e778dd4ce4 expanded=996 pruned=886 backtracks=107 bitset=1035
cap-b QSI limit n=3 digest=63bee09082ec27f1 expanded=48 pruned=19 backtracks=25 bitset=65
cap-b GQL limit n=3 digest=cc2c47df36ac3ca1 expanded=18 pruned=23 backtracks=4 bitset=19
cap-b SPA limit n=3 digest=cc2c47df36ac3ca1 expanded=18 pruned=5 backtracks=9 bitset=22
cap-b VF2-free limit n=3 digest=d4d1c8e778dd4ce4 expanded=47 pruned=12 backtracks=31 bitset=0
cap-c VF2 limit n=3 digest=13b4d861a9dfdef8 expanded=21 pruned=8 backtracks=9 bitset=24
cap-c ULL limit n=3 digest=13b4d861a9dfdef8 expanded=127 pruned=113 backtracks=11 bitset=135
cap-c QSI limit n=3 digest=13b4d861a9dfdef8 expanded=43 pruned=22 backtracks=17 bitset=65
cap-c GQL limit n=3 digest=dd9bd0366694e73d expanded=52 pruned=43 backtracks=6 bitset=54
cap-c SPA limit n=3 digest=dd9bd0366694e73d expanded=12 pruned=2 backtracks=6 bitset=14
cap-c VF2-free limit n=3 digest=13b4d861a9dfdef8 expanded=21 pruned=8 backtracks=9 bitset=0
cap-f VF2 limit n=3 digest=2c0266dd89d97f83 expanded=8 pruned=0 backtracks=4 bitset=7
cap-f ULL limit n=3 digest=a234180597ebea80 expanded=34 pruned=38 backtracks=4 bitset=35
cap-f QSI limit n=3 digest=2c0266dd89d97f83 expanded=8 pruned=0 backtracks=4 bitset=7
cap-f GQL limit n=3 digest=880508965bdc3318 expanded=55 pruned=47 backtracks=6 bitset=53
cap-f SPA limit n=3 digest=880508965bdc3318 expanded=10 pruned=0 backtracks=6 bitset=8
cap-f VF2-free limit n=3 digest=2c0266dd89d97f83 expanded=8 pruned=0 backtracks=4 bitset=0
cap-g VF2 limit n=3 digest=f5363539d6aab858 expanded=13 pruned=6 backtracks=3 bitset=20
cap-g ULL limit n=3 digest=189ed9a5224a1419 expanded=59 pruned=50 backtracks=5 bitset=76
cap-g QSI limit n=3 digest=f5363539d6aab858 expanded=20 pruned=12 backtracks=4 bitset=22
cap-g GQL limit n=3 digest=31ef1f28f6e5e26e expanded=121 pruned=107 backtracks=10 bitset=148
cap-g SPA limit n=3 digest=31ef1f28f6e5e26e expanded=39 pruned=25 backtracks=10 bitset=66
cap-g VF2-free limit n=3 digest=f5363539d6aab858 expanded=13 pruned=6 backtracks=3 bitset=0
elab VF2 complete n=130 digest=1ceb1de5e0690675 expanded=510 pruned=240 backtracks=270 bitset=488
elab ULL complete n=130 digest=b0b95c13cdb0a745 expanded=161344 pruned=151490 backtracks=9854 bitset=168302
elab QSI complete n=130 digest=1ceb1de5e0690675 expanded=505 pruned=235 backtracks=270 bitset=483
elab GQL complete n=130 digest=0ef3b3d5d9ade355 expanded=2700 pruned=2433 backtracks=267 bitset=2681
elab SPA complete n=130 digest=0ef3b3d5d9ade355 expanded=502 pruned=235 backtracks=267 bitset=483
elab VF2-free complete n=130 digest=1ceb1de5e0690675 expanded=510 pruned=240 backtracks=270 bitset=0
elab-cap VF2 limit n=3 digest=d73c8481c34d9e59 expanded=7 pruned=1 backtracks=2 bitset=6
elab-cap ULL limit n=3 digest=d73c8481c34d9e59 expanded=951 pruned=888 backtracks=59 bitset=993
elab-cap QSI limit n=3 digest=d73c8481c34d9e59 expanded=7 pruned=1 backtracks=2 bitset=6
elab-cap GQL limit n=3 digest=b684b778f9e8cbab expanded=129 pruned=118 backtracks=7 bitset=127
elab-cap SPA limit n=3 digest=b684b778f9e8cbab expanded=15 pruned=4 backtracks=7 bitset=13
elab-cap VF2-free limit n=3 digest=d73c8481c34d9e59 expanded=7 pruned=1 backtracks=2 bitset=0
disc VF2 complete n=12 digest=612a7f4a03d849a5 expanded=57 pruned=0 backtracks=57 bitset=26
disc ULL complete n=12 digest=612a7f4a03d849a5 expanded=210 pruned=143 backtracks=72 bitset=188
disc QSI complete n=12 digest=612a7f4a03d849a5 expanded=57 pruned=0 backtracks=57 bitset=26
disc GQL complete n=12 digest=612a7f4a03d849a5 expanded=64 pruned=30 backtracks=40 bitset=45
disc SPA complete n=12 digest=612a7f4a03d849a5 expanded=40 pruned=0 backtracks=40 bitset=21
disc VF2-free complete n=12 digest=612a7f4a03d849a5 expanded=57 pruned=0 backtracks=57 bitset=0
disc-cap VF2 limit n=3 digest=984c9a3c79b841ad expanded=16 pruned=0 backtracks=11 bitset=7
disc-cap ULL limit n=3 digest=984c9a3c79b841ad expanded=61 pruned=45 backtracks=16 bitset=53
disc-cap QSI limit n=3 digest=984c9a3c79b841ad expanded=16 pruned=0 backtracks=11 bitset=7
disc-cap GQL limit n=3 digest=984c9a3c79b841ad expanded=15 pruned=10 backtracks=6 bitset=10
disc-cap SPA limit n=3 digest=984c9a3c79b841ad expanded=11 pruned=0 backtracks=6 bitset=6
disc-cap VF2-free limit n=3 digest=984c9a3c79b841ad expanded=16 pruned=0 backtracks=11 bitset=0
empty-query VF2 complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
empty-query ULL complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
empty-query QSI complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
empty-query GQL complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
empty-query SPA complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
empty-query VF2-free complete n=1 digest=4d25767f9dce13f5 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject VF2 complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject ULL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject QSI complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject GQL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject SPA complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
size-reject VF2-free complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
no-label VF2 complete n=0 digest=cbf29ce484222325 expanded=10 pruned=0 backtracks=10 bitset=0
no-label ULL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=10 backtracks=0 bitset=0
no-label QSI complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
no-label GQL complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
no-label SPA complete n=0 digest=cbf29ce484222325 expanded=0 pruned=0 backtracks=0 bitset=0
no-label VF2-free complete n=0 digest=cbf29ce484222325 expanded=10 pruned=0 backtracks=10 bitset=0
many-labels VF2 complete n=2 digest=4c07c47d6bc322b1 expanded=17 pruned=1 backtracks=16 bitset=11
many-labels ULL complete n=2 digest=4c07c47d6bc322b1 expanded=8 pruned=28 backtracks=8 bitset=7
many-labels QSI complete n=2 digest=4c07c47d6bc322b1 expanded=10 pruned=0 backtracks=10 bitset=7
many-labels GQL complete n=2 digest=4c07c47d6bc322b1 expanded=8 pruned=5 backtracks=8 bitset=7
many-labels SPA complete n=2 digest=4c07c47d6bc322b1 expanded=8 pruned=0 backtracks=8 bitset=7
many-labels VF2-free complete n=2 digest=4c07c47d6bc322b1 expanded=17 pruned=1 backtracks=16 bitset=0
hub-star-cap VF2 limit n=3 digest=8f947e471ad77375 expanded=132 pruned=0 backtracks=2 bitset=131
hub-star-cap ULL limit n=3 digest=8f947e471ad77375 expanded=132 pruned=0 backtracks=2 bitset=131
hub-star-cap QSI limit n=3 digest=8f947e471ad77375 expanded=132 pruned=0 backtracks=2 bitset=131
hub-star-cap GQL limit n=3 digest=8f947e471ad77375 expanded=132 pruned=16512 backtracks=2 bitset=131
hub-star-cap SPA limit n=3 digest=8f947e471ad77375 expanded=132 pruned=0 backtracks=2 bitset=131
hub-star-cap VF2-free limit n=3 digest=8f947e471ad77375 expanded=132 pruned=0 backtracks=2 bitset=0
overlay VF2 complete n=68 digest=b0a83d46692c80f5 expanded=128 pruned=1 backtracks=127 bitset=16
overlay ULL complete n=68 digest=4de6b26b2799ddb5 expanded=3969 pruned=3255 backtracks=725 bitset=1053
overlay QSI complete n=68 digest=b0a83d46692c80f5 expanded=127 pruned=0 backtracks=127 bitset=15
overlay GQL complete n=68 digest=9e83b60ed3cb0bc5 expanded=303 pruned=204 backtracks=110 bitset=29
overlay SPA complete n=68 digest=3917f80be0532605 expanded=123 pruned=0 backtracks=123 bitset=13
overlay-cap VF2 limit n=3 digest=755d926e063a48cc expanded=8 pruned=0 backtracks=4 bitset=2
overlay-cap ULL limit n=3 digest=755d926e063a48cc expanded=270 pruned=233 backtracks=44 bitset=99
overlay-cap QSI limit n=3 digest=755d926e063a48cc expanded=8 pruned=0 backtracks=4 bitset=2
overlay-cap GQL limit n=3 digest=453f5b0d1d76643e expanded=14 pruned=18 backtracks=3 bitset=0
overlay-cap SPA limit n=3 digest=ad4fdab64ae52561 expanded=6 pruned=0 backtracks=2 bitset=0
";

#[test]
fn every_matcher_reproduces_its_recorded_search_trace() {
    let (cold, warm) = traces();
    if std::env::var_os("PSI_PRINT_TRACES").is_some() {
        for l in &cold {
            println!("{l}");
        }
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    for (pass, got) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(got.len(), want.len(), "number of {pass} trace lines");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{pass} search trace diverged");
        }
    }
}
