//! Every matcher against the brute-force oracle: for random graph/query
//! pairs, each of the five matchers prepared over one shared
//! [`TargetIndex`] must return exactly the oracle's embedding set (all
//! valid, no duplicates) and its verdict — and under budgets that cap
//! the match count or time out mid-search, a valid subset of that set
//! with a stop reason that tells the truth about it.
//!
//! Wall-clock timeouts cut searches at machine-dependent points, so the
//! timeout property checks only what holds at any cut: every reported
//! embedding is an oracle embedding, and a conclusive result carries the
//! oracle's verdict.

use proptest::prelude::*;
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::{Graph, TargetIndex};
use psi_matchers::matcher::is_valid_embedding;
use psi_matchers::{bruteforce, Algorithm, Embedding, MatchResult, SearchBudget, StopReason};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const ALGORITHMS: [Algorithm; 5] =
    [Algorithm::Vf2, Algorithm::Ullmann, Algorithm::QuickSi, Algorithm::GraphQl, Algorithm::SPath];

fn pair(seed: u64) -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 3 }.sampler();
    let target = random_connected_graph(18, 34, &labels, &mut rng);
    let query = random_connected_graph(5, 6, &labels, &mut rng);
    (query, target)
}

/// The oracle's full embedding set.
fn oracle(query: &Graph, target: &Graph) -> BTreeSet<Embedding> {
    bruteforce::enumerate(query, target, &SearchBudget::unlimited())
        .embeddings
        .into_iter()
        .collect()
}

/// Every embedding of `r` is valid, distinct and in the oracle's set;
/// returns them as a set.
fn checked_subset(
    r: &MatchResult,
    query: &Graph,
    target: &Graph,
    truth: &BTreeSet<Embedding>,
    alg: Algorithm,
) -> Result<BTreeSet<Embedding>, TestCaseError> {
    prop_assert_eq!(r.num_matches, r.embeddings.len(), "{} match count", alg);
    let got: BTreeSet<Embedding> = r.embeddings.iter().cloned().collect();
    prop_assert_eq!(got.len(), r.embeddings.len(), "{} reported a duplicate embedding", alg);
    for e in &r.embeddings {
        prop_assert!(is_valid_embedding(query, target, e), "{} invalid embedding {:?}", alg, e);
        prop_assert!(truth.contains(e), "{} embedding {:?} unknown to the oracle", alg, e);
    }
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unlimited budget: the oracle's exact set and verdict, `Complete`.
    /// One shared index serves all five matchers.
    #[test]
    fn prop_every_matcher_equals_the_oracle(seed in 0u64..100_000) {
        let (query, target) = pair(seed);
        let index = Arc::new(TargetIndex::build(Arc::new(target.clone())));
        let truth = oracle(&query, &target);
        for alg in ALGORITHMS {
            let r = alg.prepare_indexed(Arc::clone(&index)).search(&query, &SearchBudget::unlimited());
            prop_assert_eq!(r.stop, StopReason::Complete, "{} stop reason", alg);
            let got = checked_subset(&r, &query, &target, &truth, alg)?;
            prop_assert_eq!(&got, &truth, "{} embedding set", alg);
            prop_assert_eq!(r.found(), bruteforce::contains(&query, &target), "{} verdict", alg);
        }
    }

    /// Match caps: `min(cap, |oracle|)` distinct oracle embeddings, and
    /// `MatchLimit` exactly when the cap was reached.
    #[test]
    fn prop_capped_matchers_return_an_oracle_prefix(seed in 0u64..100_000, cap in 1usize..6) {
        let (query, target) = pair(seed);
        let index = Arc::new(TargetIndex::build(Arc::new(target.clone())));
        let truth = oracle(&query, &target);
        for alg in ALGORITHMS {
            let budget = SearchBudget::with_max_matches(cap);
            let r = alg.prepare_indexed(Arc::clone(&index)).search(&query, &budget);
            checked_subset(&r, &query, &target, &truth, alg)?;
            prop_assert_eq!(r.num_matches, cap.min(truth.len()), "{} count under cap {}", alg, cap);
            let want = if truth.len() >= cap { StopReason::MatchLimit } else { StopReason::Complete };
            prop_assert_eq!(r.stop, want, "{} stop under cap {}", alg, cap);
        }
    }

    /// Budgets that time out mid-search: whatever was found is a valid
    /// oracle subset; a `Complete` result is the whole set; a conclusive
    /// result carries the oracle's verdict.
    #[test]
    fn prop_timed_out_matchers_stay_inside_the_oracle(seed in 0u64..100_000, micros in 0u64..300) {
        let (query, target) = pair(seed);
        let index = Arc::new(TargetIndex::build(Arc::new(target.clone())));
        let truth = oracle(&query, &target);
        for alg in ALGORITHMS {
            let budget = SearchBudget::unlimited().timeout(Duration::from_micros(micros));
            let r = alg.prepare_indexed(Arc::clone(&index)).search(&query, &budget);
            prop_assert!(
                r.stop == StopReason::TimedOut || r.stop == StopReason::Complete,
                "{} unexpected stop {:?}", alg, r.stop
            );
            let got = checked_subset(&r, &query, &target, &truth, alg)?;
            if r.stop == StopReason::Complete {
                prop_assert_eq!(&got, &truth, "{} complete set", alg);
            }
            if r.is_conclusive() {
                prop_assert_eq!(r.found(), !truth.is_empty(), "{} conclusive verdict", alg);
            }
        }
    }
}

/// An already-expired deadline stops every matcher before any search work.
#[test]
fn expired_deadline_stops_every_matcher() {
    let (query, target) = pair(7);
    let index = Arc::new(TargetIndex::build(Arc::new(target)));
    let budget =
        SearchBudget::unlimited().deadline_at(std::time::Instant::now() - Duration::from_millis(1));
    for alg in ALGORITHMS {
        let r = alg.prepare_indexed(Arc::clone(&index)).search(&query, &budget);
        assert_eq!(r.stop, StopReason::TimedOut, "{alg}");
        assert_eq!(r.num_matches, 0, "{alg}");
        assert_eq!(r.stats.nodes_expanded, 0, "{alg}");
    }
}
