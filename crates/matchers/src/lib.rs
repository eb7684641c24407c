//! # psi-matchers — subgraph-isomorphism algorithms
//!
//! Rust reimplementations of the five sub-iso engines used by the paper
//! (§3.1), all behind the common [`Matcher`] trait:
//!
//! * [`vf2`] — VF2 (Cordella et al., TPAMI 2004): the verification engine of
//!   the FTV systems (Grapes/GGSX). No preprocessing; order-free heuristic
//!   with node-ID tie-breaking.
//! * [`ullmann`] — Ullmann (JACM 1976): the classic candidate-matrix
//!   refinement algorithm, matching strictly in query node-ID order.
//! * [`quicksi`] — QuickSI (Shang et al., PVLDB 2008): infrequent-label
//!   first, rooted-MST search order weighted by "average inner support".
//! * [`graphql`] — GraphQL (He & Singh, SIGMOD 2008): neighborhood
//!   signatures, iterated pseudo sub-iso refinement, left-deep join-order
//!   optimization.
//! * [`spath`] — sPath (Zhao & Han, PVLDB 2010): distance-wise neighborhood
//!   signatures, shortest-path decomposition of the query, path-at-a-time
//!   matching with edge-by-edge verification.
//!
//! Each algorithm module holds only its prework: the vertex order and the
//! candidate filtering that tell the algorithms apart. The prework yields
//! a plan (one step per query vertex: its candidate source and filters)
//! that a single backtracking kernel runs — the budget checks, the DFS,
//! the edge checks against matched neighbours and the slice sessions of
//! [`slice`](mod@slice) are written once, for all five.
//!
//! A brute-force enumerator ([`bruteforce`]) serves as the correctness
//! oracle for tests.
//!
//! ## Semantics
//!
//! All matchers solve **non-induced subgraph isomorphism** (Def. 3 of the
//! paper): an injective, label- and edge-preserving map from the query into
//! the stored graph. Matching stops at the configured embedding cap
//! (default 1000, per the paper's setup §3.2), at a deadline, or on
//! cooperative cancellation — see [`SearchBudget`].
//!
//! ## Order sensitivity (load-bearing!)
//!
//! Every matcher breaks heuristic ties by **query node ID**, exactly like
//! the reference implementations. This is the property the paper's
//! Observation 2 rests on: isomorphic queries (same structure, permuted
//! IDs) can take wildly different times, and the ILF/IND/DND rewritings
//! work by permuting IDs so that the tie-breaking favours selective
//! vertices.
//!
//! ```
//! use psi_graph::graph::graph_from_parts;
//! use psi_matchers::{vf2::Vf2, Matcher, SearchBudget};
//!
//! let target = graph_from_parts(&[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let query = graph_from_parts(&[0, 1], &[(0, 1)]);
//! let m = Vf2::prepare(target.into());
//! let res = m.search(&query, &SearchBudget::unlimited());
//! assert_eq!(res.num_matches, 2); // node 0→(0,1) and node 3→(3,2)
//! ```

pub mod bruteforce;
pub mod budget;
pub mod graphql;
mod kernel;
pub mod matcher;
pub mod quicksi;
pub mod scratch;
pub mod slice;
pub mod spath;
pub mod ullmann;
pub mod vf2;

pub use budget::{CancelToken, SearchBudget, StopReason};
pub use matcher::{Algorithm, Embedding, MatchResult, Matcher, SearchStats};
pub use slice::{
    sliced_search_view, ChunkOutcome, SliceCoordinator, SliceSession, SliceSetup, SliceTaskSummary,
};
