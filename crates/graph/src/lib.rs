//! # psi-graph — labeled-graph core for the Ψ-framework
//!
//! This crate provides the graph substrate shared by every other crate in the
//! Ψ-framework reproduction of *"Subgraph Querying with Parallel Use of Query
//! Rewritings and Alternative Algorithms"* (Katsarou, Ntarmos, Triantafillou —
//! EDBT 2017):
//!
//! * [`Graph`] — an immutable, undirected, vertex-labeled (optionally
//!   edge-labeled) graph in CSR (compressed sparse row) form, the common
//!   representation consumed by all matchers and indexes.
//! * [`GraphBuilder`] — the only way to construct a [`Graph`]; validates and
//!   normalizes input (deduplicates edges, sorts adjacency lists).
//! * [`TargetIndex`] — the shared per-graph index (label → vertex lists,
//!   degrees, neighbor-label signatures, dense adjacency bitset), built once
//!   per stored graph and shared by every matcher racing over it.
//! * [`Permutation`] — node-ID permutations, the mechanism behind the paper's
//!   isomorphic query rewritings (Def. 2: permuting node IDs yields an
//!   isomorphic graph).
//! * [`stats`] — per-graph and per-database statistics (degree, density,
//!   label frequencies) used both to report Tables 1–2 of the paper and to
//!   drive the frequency-based rewritings (ILF).
//! * [`generate`] — random-graph generators, including a GraphGen-style
//!   generator matching the paper's synthetic FTV dataset.
//! * [`datasets`] — presets reproducing the statistical profile of every
//!   dataset in the paper (PPI, synthetic, yeast, human, wordnet).
//! * [`io`] — plain-text serialization in the `t/v/e` transactional format
//!   used by Grapes/GGSX-era tools.
//!
//! ## Quick example
//!
//! ```
//! use psi_graph::{Graph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(0); // label 0
//! let c = b.add_node(1); // label 1
//! let d = b.add_node(1);
//! b.add_edge(a, c).unwrap();
//! b.add_edge(c, d).unwrap();
//! let g: Graph = b.build().unwrap();
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 2);
//! assert!(g.has_edge(a, c));
//! assert!(!g.has_edge(a, d));
//! ```

pub mod components;
pub mod datasets;
pub mod generate;
pub mod graph;
pub mod index;
pub mod io;
pub mod permute;
pub mod stats;

pub use graph::{Graph, GraphBuilder, GraphError, Label, NodeId};
pub use index::{
    CandidateMemoStats, IndexParts, TargetIndex, CANDIDATE_MEMO_MAX_BYTES, INDEX_LAYOUT_VERSION,
};
pub use permute::Permutation;
pub use stats::{DbStats, GraphStats, LabelStats};
