//! Input generation: queries grown from a stored graph and additive
//! update batches. Every query is a connected subgraph read off the
//! stored graph itself, and every batch only adds edges, so every query
//! must be found at every point of a run.

use crate::rng::Rng;
use psi::core::{GraphUpdate, UpdateOp};
use psi::graph::graph::graph_from_parts;
use psi::graph::{Graph, NodeId};
use std::collections::HashSet;

/// A connected query of `size` nodes grown from a random start node of
/// `g` by random tree expansion; each further stored edge among the
/// chosen nodes is kept with probability 1/2. The identity map onto the
/// chosen nodes is an embedding, so the query is always contained in `g`.
pub fn grow_query(g: &Graph, size: usize, rng: &mut Rng) -> Graph {
    loop {
        let start = rng.below(g.node_count()) as NodeId;
        let mut nodes = vec![start];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut tries = 0;
        while nodes.len() < size && tries < size * 32 {
            tries += 1;
            let from = rng.below(nodes.len());
            let neighbors = g.neighbors(nodes[from]);
            if neighbors.is_empty() {
                break;
            }
            let next = neighbors[rng.below(neighbors.len())];
            if nodes.contains(&next) {
                continue;
            }
            nodes.push(next);
            edges.push((from as NodeId, (nodes.len() - 1) as NodeId));
        }
        if nodes.len() < size {
            continue;
        }
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                let pair = (i as NodeId, j as NodeId);
                if g.has_edge(nodes[i], nodes[j]) && !edges.contains(&pair) && rng.below(2) == 0 {
                    edges.push(pair);
                }
            }
        }
        let labels: Vec<_> = nodes.iter().map(|&v| g.label(v)).collect();
        return graph_from_parts(&labels, &edges);
    }
}

/// `count` additive batches of `edges` edges each, between random
/// non-adjacent nodes of `g`, none repeating an edge already in `taken`
/// (which is extended, so successive calls never collide).
pub fn edge_batches(
    g: &Graph,
    count: usize,
    edges: usize,
    rng: &mut Rng,
    taken: &mut HashSet<(NodeId, NodeId)>,
) -> Vec<GraphUpdate> {
    let n = g.node_count();
    let mut out = Vec::with_capacity(count);
    let mut ops = Vec::with_capacity(edges);
    while out.len() < count {
        let (a, b) = (rng.below(n) as NodeId, rng.below(n) as NodeId);
        let edge = (a.min(b), a.max(b));
        if a == b || g.has_edge(a, b) || !taken.insert(edge) {
            continue;
        }
        ops.push(UpdateOp::AddEdge { u: edge.0, v: edge.1, label: None });
        if ops.len() == edges {
            out.push(GraphUpdate::new(std::mem::take(&mut ops)));
        }
    }
    out
}

/// The edges a batch from [`edge_batches`] adds.
pub fn added_edges(update: &GraphUpdate) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    update.ops.iter().filter_map(|op| match *op {
        UpdateOp::AddEdge { u, v, .. } => Some((u, v)),
        _ => None,
    })
}

/// `g` plus `extra` edges, rebuilt as a standalone graph: the benchmark's
/// own oracle for the live graph after additive writes.
pub fn with_edges(g: &Graph, extra: impl IntoIterator<Item = (NodeId, NodeId)>) -> Graph {
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.extend(extra);
    graph_from_parts(g.labels(), &edges)
}
