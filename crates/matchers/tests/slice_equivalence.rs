//! Sliced-vs-single-slice equivalence: partitioning a matcher's root-
//! candidate space across cooperating slice tasks is an *execution*
//! strategy, not a semantic one — for random graph/query pairs the merged
//! sliced result must carry the same verdict and the same embedding
//! sequence as the ordinary single-threaded search, under unlimited,
//! match-capped, and mid-search-timeout budgets, for all five matchers.
//!
//! The deterministic merge (ascending range order, truncated at the
//! global cap) makes capped results byte-identical, not merely
//! equivalent as sets; only wall-clock timeouts, which cut searches at
//! machine-dependent points, are compared verdict-only (and only when
//! both sides are conclusive).

use proptest::prelude::*;
use psi_delta::GraphView;
use psi_graph::generate::{random_connected_graph, LabelDist};
use psi_graph::{Graph, TargetIndex};
use psi_matchers::matcher::is_valid_embedding;
use psi_matchers::{
    bruteforce, sliced_search_view, Algorithm, Matcher, SearchBudget, SliceCoordinator, StopReason,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// Every matcher slices: the shared search kernel partitions the first
/// step's candidate list whatever the algorithm's order.
const ALGORITHMS: [Algorithm; 5] =
    [Algorithm::Vf2, Algorithm::QuickSi, Algorithm::GraphQl, Algorithm::Ullmann, Algorithm::SPath];

fn pair(seed: u64) -> (Graph, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let labels = LabelDist::Uniform { num_labels: 2 }.sampler();
    let target = random_connected_graph(24, 46, &labels, &mut rng);
    let query = random_connected_graph(5, 6, &labels, &mut rng);
    (query, target)
}

fn matcher(alg: Algorithm, stored: &Arc<Graph>) -> Arc<dyn Matcher> {
    alg.prepare_indexed(Arc::new(TargetIndex::build(Arc::clone(stored))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Unlimited budget: identical embedding sequences (not just sets).
    #[test]
    fn prop_sliced_equals_single_slice(seed in 0u64..100_000, slices in 2usize..6) {
        let (query, target) = pair(seed);
        let stored = Arc::new(target.clone());
        for alg in ALGORITHMS {
            let m = matcher(alg, &stored);
            let budget = SearchBudget::unlimited();
            let view = GraphView::of_index(m.index());
            let single = m.search_view(&query, view, &budget);
            let sliced = sliced_search_view(m.as_ref(), &query, view, &budget, slices);
            prop_assert_eq!(sliced.stop, single.stop, "{} stop", alg);
            prop_assert_eq!(&sliced.embeddings, &single.embeddings, "{} slices={}", alg, slices);
            prop_assert_eq!(sliced.num_matches, sliced.embeddings.len());
            for e in &sliced.embeddings {
                prop_assert!(is_valid_embedding(&query, &target, e), "{}", alg);
            }
        }
    }

    /// Match caps: every chunk runs under the global cap and the merge
    /// truncates in canonical order, so capped sliced output equals the
    /// capped single-slice prefix exactly.
    #[test]
    fn prop_sliced_equivalence_under_match_caps(
        seed in 0u64..100_000,
        cap in 1usize..6,
        slices in 2usize..6,
    ) {
        let (query, target) = pair(seed);
        let stored = Arc::new(target.clone());
        for alg in ALGORITHMS {
            let m = matcher(alg, &stored);
            let budget = SearchBudget::with_max_matches(cap);
            let view = GraphView::of_index(m.index());
            let single = m.search_view(&query, view, &budget);
            let sliced = sliced_search_view(m.as_ref(), &query, view, &budget, slices);
            prop_assert_eq!(sliced.stop, single.stop, "{} cap={}", alg, cap);
            prop_assert_eq!(&sliced.embeddings, &single.embeddings, "{} cap={}", alg, cap);
            for e in &sliced.embeddings {
                prop_assert!(is_valid_embedding(&query, &target, e), "{}", alg);
            }
        }
    }

    /// Mid-search timeouts cut both executions at machine-dependent
    /// points: compare verdicts only when both sides are conclusive, and
    /// require every reported embedding (from either side) to be valid.
    #[test]
    fn prop_sliced_equivalence_under_timeouts(
        seed in 0u64..100_000,
        micros in 0u64..300,
        slices in 2usize..5,
    ) {
        let (query, target) = pair(seed);
        let stored = Arc::new(target.clone());
        for alg in ALGORITHMS {
            let m = matcher(alg, &stored);
            let budget = SearchBudget::unlimited().timeout(Duration::from_micros(micros));
            let view = GraphView::of_index(m.index());
            let single = m.search_view(&query, view, &budget);
            let sliced = sliced_search_view(m.as_ref(), &query, view, &budget, slices);
            for (label, r) in [("single", &single), ("sliced", &sliced)] {
                prop_assert!(
                    r.stop == StopReason::TimedOut || r.stop == StopReason::Complete,
                    "{} {} unexpected stop {:?}", alg, label, r.stop
                );
                for e in &r.embeddings {
                    prop_assert!(is_valid_embedding(&query, &target, e), "{} {}", alg, label);
                }
            }
            if sliced.is_conclusive() && single.is_conclusive() {
                prop_assert_eq!(sliced.found(), single.found(), "{} verdicts", alg);
            }
        }
    }
}

/// A race-cancelled slice group reports `Cancelled` without inventing a
/// verdict, exactly like a cancelled single-slice search.
#[test]
fn cancelled_group_is_inconclusive() {
    let (query, target) = pair(3);
    let stored = Arc::new(target);
    let token = psi_matchers::CancelToken::new();
    token.cancel();
    let budget = SearchBudget::unlimited().cancellable(token);
    for alg in ALGORITHMS {
        let m = matcher(alg, &stored);
        let view = GraphView::of_index(m.index());
        let sliced = sliced_search_view(m.as_ref(), &query, view, &budget, 4);
        assert_eq!(sliced.stop, StopReason::Cancelled, "{alg}");
        assert_eq!(sliced.num_matches, 0);
    }
}

/// More slices than root candidates: surplus tasks find the cursor
/// drained and exit; the merge still tiles the whole domain.
#[test]
fn oversliced_group_still_complete() {
    let (query, target) = pair(11);
    let stored = Arc::new(target.clone());
    for alg in ALGORITHMS {
        let m = matcher(alg, &stored);
        let budget = SearchBudget::unlimited();
        let view = GraphView::of_index(m.index());
        let single = m.search_view(&query, view, &budget);
        let sliced = sliced_search_view(m.as_ref(), &query, view, &budget, 32);
        assert_eq!(sliced.stop, single.stop, "{alg}");
        assert_eq!(sliced.embeddings, single.embeddings, "{alg}");
    }
}

/// Every matcher really partitions its search: on a query that embeds,
/// a slice task runs chunks (no algorithm falls back to one unsliced
/// search), and the merged result is the single-slice answer.
#[test]
fn every_matcher_runs_chunks() {
    let (query, target) =
        (0..).map(pair).find(|(q, t)| bruteforce::contains(q, t)).expect("some seeded pair embeds");
    let stored = Arc::new(target);
    for alg in ALGORITHMS {
        let m = matcher(alg, &stored);
        let budget = SearchBudget::unlimited();
        let view = GraphView::of_index(m.index());
        let coord = SliceCoordinator::new(&budget, 2);
        let first = coord.run_task(m.as_ref(), &query, view);
        assert!(coord.finish_task().is_none(), "{alg}: one task is still running");
        coord.run_task(m.as_ref(), &query, view);
        let merged = coord.finish_task().expect("the last task merges");
        assert!(first.chunks > 0, "{alg} ran no chunks");
        let single = m.search_view(&query, view, &budget);
        assert_eq!(merged.stop, single.stop, "{alg}");
        assert_eq!(merged.embeddings, single.embeddings, "{alg}");
    }
}
