//! Per-query variant prediction — the paper's stated future work (§9):
//!
//! > "Undoubtedly, it would be preferable to choose the right isomorphic
//! > query instance and/or algorithm to use to minimize the query execution
//! > time. ... Using machine learning models to predict which version of our
//! > framework (algorithms, rewritings) to employ per query is of high
//! > interest."
//!
//! This module implements the simplest useful such model: a k-nearest-
//! neighbour classifier over cheap structural query features. Train it
//! online by feeding each race's winner; once it has seen enough queries it
//! can run a *single* variant instead of a whole race, trading the race's
//! worst-case insurance for an `n×` reduction in CPU work. The
//! `predictor_ablation` bench quantifies that trade-off.

use psi_graph::{Graph, LabelStats};

/// Cheap structural features of a query, normalized to comparable scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFeatures {
    /// Number of query edges (the paper's query "size").
    pub edges: f64,
    /// Number of query nodes.
    pub nodes: f64,
    /// Distinct labels / nodes — label diversity in [0, 1].
    pub label_diversity: f64,
    /// Stddev of query node degrees (path-like queries ≈ 0).
    pub degree_spread: f64,
    /// Rarity of the query's rarest label in the stored graph, as
    /// `1 / (1 + min frequency)` in [0, 1].
    pub rarest_label: f64,
    /// Query density `2m / n(n-1)`.
    pub density: f64,
}

impl QueryFeatures {
    /// Extracts features for `query` against the stored graph's label
    /// statistics.
    pub fn extract(query: &Graph, stats: &LabelStats) -> Self {
        let n = query.node_count() as f64;
        let m = query.edge_count() as f64;
        let mut labels: Vec<u32> = query.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        let degrees: Vec<f64> = query.nodes().map(|v| query.degree(v) as f64).collect();
        let mean_deg = if n > 0.0 { degrees.iter().sum::<f64>() / n } else { 0.0 };
        let degree_spread = if n > 0.0 {
            (degrees.iter().map(|d| (d - mean_deg).powi(2)).sum::<f64>() / n).sqrt()
        } else {
            0.0
        };
        let min_freq = labels.iter().map(|&l| stats.frequency(l)).min().unwrap_or(0) as f64;
        Self {
            edges: m,
            nodes: n,
            label_diversity: if n > 0.0 { labels.len() as f64 / n } else { 0.0 },
            degree_spread,
            rarest_label: 1.0 / (1.0 + min_freq),
            density: query.density(),
        }
    }

    fn as_array(&self) -> [f64; 6] {
        self.to_array()
    }

    /// The features as a fixed-order array — the persistence layer's
    /// serialized form. Order: edges, nodes, label_diversity,
    /// degree_spread, rarest_label, density.
    pub fn to_array(&self) -> [f64; 6] {
        [
            self.edges,
            self.nodes,
            self.label_diversity,
            self.degree_spread,
            self.rarest_label,
            self.density,
        ]
    }

    /// Inverse of [`QueryFeatures::to_array`].
    pub fn from_array(a: [f64; 6]) -> Self {
        Self {
            edges: a[0],
            nodes: a[1],
            label_diversity: a[2],
            degree_spread: a[3],
            rarest_label: a[4],
            density: a[5],
        }
    }

    /// Euclidean distance in (crudely) normalized feature space: counts are
    /// log-scaled so a 32-edge query isn't infinitely far from a 24-edge one.
    pub fn distance(&self, other: &Self) -> f64 {
        squared_distance(&self.point(), &other.point()).sqrt()
    }

    /// The features as a point of the distance space: the two counts
    /// log-scaled, the rest as they are.
    fn point(&self) -> [f64; 6] {
        let mut p = self.as_array();
        for x in &mut p[..2] {
            *x = (*x + 1.0).ln();
        }
        p
    }
}

/// Squared Euclidean distance between two points of the distance space.
fn squared_distance(a: &[f64; 6], b: &[f64; 6]) -> f64 {
    let mut d2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        d2 += (x - y) * (x - y);
    }
    d2
}

/// Lifetime win/loss/timeout record of one racing entrant, accumulated
/// across every observed race. Unlike the feature samples, tallies are
/// never windowed: they summarize an entrant's whole history and break
/// ranking ties where the feature neighbourhood is silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntrantTally {
    /// Races this entrant won (first conclusive finisher).
    pub wins: u64,
    /// Races another entrant concluded first (including cooperative
    /// cancellation after the winner claimed).
    pub losses: u64,
    /// Races this entrant timed out of without a conclusive result.
    pub timeouts: u64,
}

impl EntrantTally {
    /// Races this entrant participated in.
    pub fn races(&self) -> u64 {
        self.wins + self.losses + self.timeouts
    }

    /// Win fraction in `[0, 1]`; 0 when the entrant never raced.
    pub fn win_rate(&self) -> f64 {
        let races = self.races();
        if races == 0 {
            0.0
        } else {
            self.wins as f64 / races as f64
        }
    }
}

/// A k-NN predictor from query features to a variant index (the index into
/// the [`crate::PsiConfig`]'s variant list used at training time).
///
/// The training set can be bounded ([`VariantPredictor::with_window`]): a
/// long-lived serving engine observes every race, and an unbounded sample
/// set would grow forever while making each prediction's nearest-neighbour
/// scan slower. The window keeps the most recent `window` observations
/// (ring overwrite), which also lets the predictor track workload drift.
///
/// Besides the single-winner vote
/// ([`predict_with_confidence`](Self::predict_with_confidence)), the
/// predictor can [`rank`](Self::rank) the *full* entrant field for a
/// query — the input to staged racing, where only the leading entrants
/// launch and the rest are held back as an escalation reserve.
#[derive(Debug, Clone)]
pub struct VariantPredictor {
    samples: Vec<(QueryFeatures, usize)>,
    /// Each sample's [`QueryFeatures::point`], slot for slot with
    /// `samples`: taken once per observation, so a prediction's scan
    /// does no logarithms.
    points: Vec<[f64; 6]>,
    /// Next ring slot to overwrite once `samples` reaches `window`.
    next: usize,
    /// Total observations ever recorded (can exceed `samples.len()`).
    observed: usize,
    /// Per-entrant lifetime tallies, indexed by variant index.
    tallies: Vec<EntrantTally>,
    /// Graph-epoch stamp of the learned state: bumped when the stored
    /// graph the samples were observed against is compacted into a new
    /// epoch. Ranking quality degrades gracefully across epochs (the
    /// evidence is advisory, never a soundness input), so the samples
    /// are kept — the stamp lets observers tell how stale they are.
    version: u64,
    k: usize,
    window: usize,
}

impl VariantPredictor {
    /// Creates an empty predictor voting over `k` nearest neighbours, with
    /// an unbounded training set.
    pub fn new(k: usize) -> Self {
        Self::with_window(k, usize::MAX)
    }

    /// Creates an empty predictor voting over `k` nearest neighbours,
    /// retaining only the most recent `window` observations.
    pub fn with_window(k: usize, window: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(window >= 1, "window must be positive");
        Self {
            samples: Vec::new(),
            points: Vec::new(),
            next: 0,
            observed: 0,
            tallies: Vec::new(),
            version: 0,
            k,
            window,
        }
    }

    /// The learned state's graph-epoch stamp: how many times the stored
    /// graph has been compacted under this predictor. 0 for a predictor
    /// that has only ever seen one graph epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamps the learned state as belonging to a newer graph epoch —
    /// called when a compaction swaps the stored graph out from under
    /// the training set. Samples and tallies survive (their evidence is
    /// advisory, not answer-bearing: a stale ranking costs latency,
    /// never correctness), but the stamp records that they were trained
    /// against earlier epochs.
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Records that `winner` (a variant index) won the race for a query
    /// with these features. Also credits the winner's lifetime tally.
    pub fn observe(&mut self, features: QueryFeatures, winner: usize) {
        self.observed += 1;
        self.tally_mut(winner).wins += 1;
        if self.samples.len() < self.window {
            self.samples.push((features, winner));
            self.points.push(features.point());
        } else {
            self.samples[self.next] = (features, winner);
            self.points[self.next] = features.point();
            self.next = (self.next + 1) % self.window;
        }
    }

    /// Records that entrant `idx` raced and lost (another entrant
    /// concluded first, or this one was cancelled).
    pub fn record_loss(&mut self, idx: usize) {
        self.tally_mut(idx).losses += 1;
    }

    /// Records that entrant `idx` timed out without a conclusive result.
    pub fn record_timeout(&mut self, idx: usize) {
        self.tally_mut(idx).timeouts += 1;
    }

    /// The lifetime tally of entrant `idx` (zeroed if it never raced).
    pub fn tally(&self, idx: usize) -> EntrantTally {
        self.tallies.get(idx).copied().unwrap_or_default()
    }

    /// Lifetime tallies of every entrant observed so far, by variant index.
    pub fn tallies(&self) -> &[EntrantTally] {
        &self.tallies
    }

    fn tally_mut(&mut self, idx: usize) -> &mut EntrantTally {
        if self.tallies.len() <= idx {
            self.tallies.resize(idx + 1, EntrantTally::default());
        }
        &mut self.tallies[idx]
    }

    /// Total observations recorded so far (including any that have been
    /// displaced from a bounded window).
    pub fn observations(&self) -> usize {
        self.observed
    }

    /// The retained training samples in observation order, **oldest
    /// first** — the order the persistence layer serializes them in, so
    /// that [`restore`](Self::restore) followed by further `observe`
    /// calls displaces the same samples the original predictor would
    /// have displaced.
    pub fn samples(&self) -> Vec<(QueryFeatures, usize)> {
        if self.samples.len() < self.window {
            self.samples.clone()
        } else {
            // Ring full: `next` is the oldest slot.
            let mut out = Vec::with_capacity(self.samples.len());
            out.extend_from_slice(&self.samples[self.next..]);
            out.extend_from_slice(&self.samples[..self.next]);
            out
        }
    }

    /// Restores persisted learned state into this predictor (built fresh
    /// with the serving `k`/`window`): training samples oldest-first (as
    /// exported by [`samples`](Self::samples) or replayed from a WAL),
    /// lifetime tallies by variant index, and the total observation
    /// count. Samples beyond the configured window keep only the most
    /// recent `window` of them, matching what live observation would
    /// have retained. Tallies are installed verbatim — `observed` is an
    /// independent counter, so it is restored explicitly rather than
    /// re-derived.
    pub fn restore(
        &mut self,
        samples: Vec<(QueryFeatures, usize)>,
        tallies: Vec<EntrantTally>,
        observed: usize,
    ) {
        let skip = samples.len().saturating_sub(self.window);
        self.samples = samples[skip..].to_vec();
        self.points = self.samples.iter().map(|(f, _)| f.point()).collect();
        self.next =
            if self.samples.len() < self.window { 0 } else { self.samples.len() % self.window };
        self.tallies = tallies;
        self.observed = observed;
    }

    /// Predicts the variant index for a new query: majority vote of the k
    /// nearest training samples (ties broken toward the nearer sample).
    /// Returns `None` until at least one observation exists.
    pub fn predict(&self, features: &QueryFeatures) -> Option<usize> {
        self.predict_with_confidence(features).map(|(v, _)| v)
    }

    /// Like [`predict`](Self::predict), but also reports the vote share of
    /// the winning variant among the consulted neighbours, in `(0, 1]`. An
    /// engine can use this to decide between a single-variant fast path
    /// (confident prediction) and a full race (inconclusive vote).
    pub fn predict_with_confidence(&self, features: &QueryFeatures) -> Option<(usize, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let by_dist = self.nearest(features);
        // Majority vote; first (nearest) occurrence wins ties.
        let mut counts: Vec<(usize, usize, usize)> = Vec::new(); // (variant, votes, first_pos)
        for (pos, &(_, w)) in by_dist.iter().enumerate() {
            match counts.iter_mut().find(|(v, _, _)| *v == w) {
                Some(c) => c.1 += 1,
                None => counts.push((w, 1, pos)),
            }
        }
        counts.sort_by_key(|&(_, votes, first)| (std::cmp::Reverse(votes), first));
        let consulted = by_dist.len();
        counts.first().map(|&(v, votes, _)| (v, votes as f64 / consulted as f64))
    }

    /// Ranks the full entrant field `0..variants` for a query, best first.
    ///
    /// Variants are ordered by their vote count among the k nearest
    /// training samples (descending), then by lifetime win rate from the
    /// per-entrant tallies, then by fewest timeouts, then by variant
    /// index. The ranking degrades gracefully: an untrained predictor
    /// falls through to tallies and finally configuration order, so
    /// callers may consume it unconditionally.
    pub fn rank(&self, features: &QueryFeatures, variants: usize) -> Vec<usize> {
        self.rank_with_vote_share(features, variants).0
    }

    /// [`rank`](Self::rank) plus the leader's vote share among the
    /// consulted neighbours, in `[0, 1]` (0 when untrained). One
    /// nearest-neighbour scan serves both decisions an engine makes per
    /// query — whether the top choice is confident enough for the
    /// single-variant fast path, and which entrants form a staged heat.
    pub fn rank_with_vote_share(
        &self,
        features: &QueryFeatures,
        variants: usize,
    ) -> (Vec<usize>, f64) {
        let mut votes = vec![0usize; variants];
        let mut consulted = 0usize;
        if !self.samples.is_empty() {
            for &(_, w) in &self.nearest(features) {
                consulted += 1;
                if w < variants {
                    votes[w] += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..variants).collect();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (self.tally(a), self.tally(b));
            votes[b]
                .cmp(&votes[a])
                .then_with(|| tb.win_rate().partial_cmp(&ta.win_rate()).expect("rates are finite"))
                .then_with(|| ta.timeouts.cmp(&tb.timeouts))
                .then_with(|| a.cmp(&b))
        });
        let share = match order.first() {
            Some(&leader) if consulted > 0 => votes[leader] as f64 / consulted as f64,
            _ => 0.0,
        };
        (order, share)
    }

    /// The k nearest training samples to `features`, as
    /// `(distance, winner)` pairs ordered nearest first.
    ///
    /// One pass over the samples keeps the k best in a short sorted list,
    /// so a prediction costs one squared distance per sample, not a sort
    /// of the whole window. A sample is inserted after every kept one at
    /// the same distance, so ties keep storage order, as a stable sort by
    /// distance would.
    fn nearest(&self, features: &QueryFeatures) -> Vec<(f64, usize)> {
        let at = features.point();
        // (distance, squared distance, winner), nearest first.
        let mut best: Vec<(f64, f64, usize)> = Vec::with_capacity(self.k + 1);
        for (p, &(_, w)) in self.points.iter().zip(&self.samples) {
            let d2 = squared_distance(&at, p);
            // Farther than the k-th kept sample: its distance is no less.
            if best.len() == self.k && d2 > best[self.k - 1].1 {
                continue;
            }
            let d = d2.sqrt();
            debug_assert!(d.is_finite(), "distances are finite");
            let pos = best.partition_point(|&(e, _, _)| e <= d);
            if pos < self.k {
                best.insert(pos, (d, d2, w));
                best.truncate(self.k);
            }
        }
        best.into_iter().map(|(d, _, w)| (d, w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::graph::graph_from_parts;

    fn stats() -> LabelStats {
        LabelStats::from_graph(&graph_from_parts(&[0, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]))
    }

    fn path_query() -> QueryFeatures {
        QueryFeatures::extract(&graph_from_parts(&[0, 0, 0], &[(0, 1), (1, 2)]), &stats())
    }

    fn star_query() -> QueryFeatures {
        QueryFeatures::extract(
            &graph_from_parts(&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
            &stats(),
        )
    }

    #[test]
    fn features_reflect_shape() {
        let p = path_query();
        let s = star_query();
        assert!(p.degree_spread < s.degree_spread, "stars spread degrees more than paths");
        assert!(s.rarest_label > 0.0);
        assert_eq!(p.edges, 2.0);
        assert_eq!(s.edges, 3.0);
    }

    #[test]
    fn rare_label_feature() {
        let st = stats();
        let common = QueryFeatures::extract(&graph_from_parts(&[0], &[]), &st);
        let rare = QueryFeatures::extract(&graph_from_parts(&[1], &[]), &st);
        assert!(rare.rarest_label > common.rarest_label);
    }

    #[test]
    fn predictor_returns_none_untrained() {
        let p = VariantPredictor::new(3);
        assert_eq!(p.predict(&path_query()), None);
        assert_eq!(p.observations(), 0);
    }

    #[test]
    fn predictor_learns_shape_separation() {
        let mut p = VariantPredictor::new(1);
        // Paths win with variant 0, stars with variant 1.
        for _ in 0..3 {
            p.observe(path_query(), 0);
            p.observe(star_query(), 1);
        }
        assert_eq!(p.predict(&path_query()), Some(0));
        assert_eq!(p.predict(&star_query()), Some(1));
    }

    #[test]
    fn bounded_window_overwrites_oldest() {
        let mut p = VariantPredictor::with_window(1, 4);
        for _ in 0..4 {
            p.observe(path_query(), 0);
        }
        // Ring full of variant 0; six more star observations displace them.
        for _ in 0..6 {
            p.observe(star_query(), 1);
        }
        assert_eq!(p.observations(), 10, "total observation count keeps growing");
        assert_eq!(p.predict(&path_query()), Some(1), "old samples displaced from the window");
        assert_eq!(p.predict(&star_query()), Some(1));
    }

    #[test]
    fn majority_vote_with_k3() {
        let mut p = VariantPredictor::new(3);
        p.observe(path_query(), 0);
        p.observe(path_query(), 0);
        p.observe(path_query(), 1);
        assert_eq!(p.predict(&path_query()), Some(0));
    }

    #[test]
    fn observe_credits_winner_tally() {
        let mut p = VariantPredictor::new(3);
        p.observe(path_query(), 2);
        p.observe(path_query(), 2);
        p.record_loss(0);
        p.record_timeout(1);
        assert_eq!(p.tally(2), EntrantTally { wins: 2, losses: 0, timeouts: 0 });
        assert_eq!(p.tally(0).losses, 1);
        assert_eq!(p.tally(1).timeouts, 1);
        assert_eq!(p.tally(9), EntrantTally::default(), "unseen entrants read as zero");
        assert!((p.tally(2).win_rate() - 1.0).abs() < 1e-12);
        assert_eq!(p.tally(1).win_rate(), 0.0);
        assert_eq!(p.tally(1).races(), 1);
    }

    #[test]
    fn rank_puts_neighbourhood_winner_first() {
        let mut p = VariantPredictor::new(3);
        for _ in 0..3 {
            p.observe(path_query(), 0);
            p.observe(star_query(), 1);
        }
        assert_eq!(p.rank(&path_query(), 3)[0], 0);
        assert_eq!(p.rank(&star_query(), 3)[0], 1);
        // Every rank is a permutation of the full field.
        let mut r = p.rank(&path_query(), 3);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn rank_untrained_is_configuration_order() {
        let p = VariantPredictor::new(3);
        assert_eq!(p.rank(&path_query(), 4), vec![0, 1, 2, 3]);
        assert_eq!(p.rank_with_vote_share(&path_query(), 4).1, 0.0, "no samples, no confidence");
    }

    #[test]
    fn vote_share_matches_neighbourhood_majority() {
        let mut p = VariantPredictor::new(3);
        p.observe(path_query(), 0);
        p.observe(path_query(), 0);
        p.observe(path_query(), 1);
        let (order, share) = p.rank_with_vote_share(&path_query(), 2);
        assert_eq!(order[0], 0);
        assert!((share - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rank_ties_break_on_tallies() {
        let mut p = VariantPredictor::new(1);
        // The neighbourhood only knows variant 0; among the silent rest,
        // the tallies decide: variant 3 has a better lifetime record than
        // 1 (which only times out) and 2 (which only loses).
        p.observe(path_query(), 0);
        p.record_timeout(1);
        p.record_loss(2);
        p.observe(star_query(), 3);
        let r = p.rank(&path_query(), 4);
        assert_eq!(r[0], 0, "neighbourhood vote leads");
        assert_eq!(r[1], 3, "lifetime win rate breaks the tie");
        assert_eq!(r[2], 2, "fewer timeouts rank above more");
        assert_eq!(r[3], 1);
    }

    #[test]
    fn features_array_roundtrip() {
        let f = star_query();
        assert_eq!(QueryFeatures::from_array(f.to_array()), f);
    }

    #[test]
    fn samples_export_is_oldest_first() {
        let mut p = VariantPredictor::with_window(1, 3);
        // Unfilled ring: insertion order.
        p.observe(path_query(), 0);
        p.observe(star_query(), 1);
        assert_eq!(p.samples().iter().map(|&(_, w)| w).collect::<Vec<_>>(), vec![0, 1]);
        // Overflowing ring: winner 0 is displaced, oldest survivor first.
        p.observe(path_query(), 2);
        p.observe(star_query(), 3);
        assert_eq!(p.samples().iter().map(|&(_, w)| w).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn restore_reproduces_live_predictor() {
        let mut live = VariantPredictor::with_window(3, 4);
        for _ in 0..3 {
            live.observe(path_query(), 0);
            live.observe(star_query(), 1);
        }
        live.record_loss(1);
        live.record_timeout(2);

        let mut restored = VariantPredictor::with_window(3, 4);
        restored.restore(live.samples(), live.tallies().to_vec(), live.observations());
        assert_eq!(restored.observations(), live.observations());
        assert_eq!(restored.tallies(), live.tallies());
        assert_eq!(restored.predict(&path_query()), live.predict(&path_query()));
        assert_eq!(restored.predict(&star_query()), live.predict(&star_query()));

        // Future observations displace the same slots in both.
        live.observe(path_query(), 2);
        restored.observe(path_query(), 2);
        assert_eq!(restored.samples(), live.samples());
    }

    #[test]
    fn restore_truncates_to_window() {
        let mut big = VariantPredictor::with_window(1, 100);
        for i in 0..6 {
            big.observe(path_query(), i);
        }
        let mut small = VariantPredictor::with_window(1, 4);
        small.restore(big.samples(), big.tallies().to_vec(), big.observations());
        assert_eq!(
            small.samples().iter().map(|&(_, w)| w).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "only the most recent `window` samples are kept"
        );
        assert_eq!(small.observations(), 6);
    }

    #[test]
    fn version_bump_keeps_samples_and_stamps_epoch() {
        let mut p = VariantPredictor::new(1);
        assert_eq!(p.version(), 0);
        p.observe(path_query(), 0);
        p.bump_version();
        p.bump_version();
        assert_eq!(p.version(), 2);
        assert_eq!(p.predict(&path_query()), Some(0), "samples survive the bump");
    }

    /// The scan before the bounded selection: every sample's distance,
    /// stably sorted, cut to k.
    fn nearest_by_sort(p: &VariantPredictor, features: &QueryFeatures) -> Vec<(f64, usize)> {
        let mut by_dist: Vec<(f64, usize)> =
            p.samples.iter().map(|(f, w)| (features.distance(f), *w)).collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are finite"));
        by_dist.truncate(p.k);
        by_dist
    }

    /// Features on a coarse grid (two bits of `cells` per feature), so
    /// that many samples lie at exactly the same distance from a probe
    /// and tie order is exercised.
    fn grid_features(cells: u64) -> QueryFeatures {
        let c = |i: u32| ((cells >> (2 * i)) & 3) as f64;
        QueryFeatures::from_array([
            c(0) * 3.0,
            c(1) * 2.0,
            c(2) / 4.0,
            c(3),
            c(4) / 8.0,
            c(5) / 3.0,
        ])
    }

    proptest::proptest! {
        /// The bounded scan keeps the same k samples, in the same order,
        /// as a stable sort of the whole window, ring wrap and restore
        /// included.
        #[test]
        fn nearest_matches_a_stable_sort(
            k in 1usize..6,
            window in 1usize..40,
            observed in proptest::collection::vec((proptest::prelude::any::<u64>(), 0usize..3), 0..80),
            probes in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..8),
        ) {
            let mut p = VariantPredictor::with_window(k, window);
            for &(cells, w) in &observed {
                p.observe(grid_features(cells), w);
            }
            let mut restored = VariantPredictor::with_window(k, window);
            restored.restore(p.samples(), p.tallies().to_vec(), p.observations());
            for &cells in &probes {
                let f = grid_features(cells);
                proptest::prop_assert_eq!(p.nearest(&f), nearest_by_sort(&p, &f));
                proptest::prop_assert_eq!(restored.nearest(&f), nearest_by_sort(&restored, &f));
            }
        }
    }

    #[test]
    fn empty_query_features_are_finite() {
        let f = QueryFeatures::extract(&graph_from_parts(&[], &[]), &stats());
        assert!(f.distance(&f) == 0.0);
        assert!(f.as_array().iter().all(|x| x.is_finite()));
    }
}
