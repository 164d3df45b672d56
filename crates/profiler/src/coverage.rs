//! Coverage metrics: scoring a profiling campaign against the exact ground
//! truth of which bits are at risk.
//!
//! The paper's evaluation uses three per-word metrics, all reproduced here:
//!
//! * **direct-error coverage** (Fig. 6) — the fraction of bits at risk of
//!   direct error identified so far;
//! * **bootstrapping rounds** (Fig. 7) — the number of rounds until the
//!   profiler identifies its first direct-error bit;
//! * **missed indirect errors** (Fig. 8) and the **maximum number of
//!   simultaneous post-correction errors** still possible given the current
//!   profile (Fig. 9) — what reactive profiling / the secondary ECC must
//!   still handle.
//!
//! A word's scores change in only a few of its rounds, so a
//! [`CoverageSeries`] holds its round count and the **change points**: the
//! rounds whose [`RoundScore`] differs from the round before, each with that
//! score. Every per-round value is read back from them, direct coverage as
//! `hits / truth` at read time, so a series costs a few points whatever its
//! length.
//!
//! A round's score is a pure function of the profiler's identified and
//! predicted sets, so the sweeps score only the rounds that change a
//! profile ([`CoverageSeries::push_round`]), and the first round; every
//! other round extends the last change point
//! ([`CoverageSeries::push_unchanged`]) without being scored. A series
//! built that way equals one that scores every round, which is what
//! [`CoverageSeries::from_campaign`] does for the scalar oracle.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use harp_ecc::analysis::RoundScore;
use harp_ecc::ErrorSpace;

use crate::campaign::CampaignResult;

/// Per-round coverage metrics for one (word, profiler) pair, held as the
/// rounds where they change.
///
/// The points always have the shape [`CoverageSeries::push_round`] gives
/// them: the first at round 0 (none only while no round has run), strictly
/// increasing rounds below [`CoverageSeries::rounds`], each score different
/// from the one before, direct hits within the direct truth and missed bits
/// within the indirect truth. So two series are equal exactly when their
/// per-round values are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageSeries {
    /// The profiler's display name.
    pub profiler: String,
    /// Number of ground-truth direct at-risk bits for this word.
    pub direct_truth_len: usize,
    /// Number of ground-truth indirect at-risk bits for this word.
    pub indirect_truth_len: usize,
    rounds: usize,
    points: Vec<(usize, RoundScore)>,
}

impl CoverageSeries {
    /// An empty series for one word's `profiler`, before any round, scored
    /// against the word's ground truth `space`.
    pub fn new(profiler: &str, space: &ErrorSpace) -> Self {
        Self {
            profiler: profiler.to_owned(),
            direct_truth_len: space.direct_at_risk().len(),
            indirect_truth_len: space.indirect_at_risk().len(),
            rounds: 0,
            points: Vec::new(),
        }
    }

    /// Rebuilds a series from its stored parts: `rounds` rounds whose scores
    /// change at `points`, each a `(round, score)` pair.
    ///
    /// # Errors
    ///
    /// Returns a description of the first point that
    /// [`CoverageSeries::push_round`] could not have produced (see the type's
    /// documentation for their shape).
    pub fn from_points(
        profiler: String,
        direct_truth_len: usize,
        indirect_truth_len: usize,
        rounds: usize,
        points: Vec<(usize, RoundScore)>,
    ) -> Result<Self, String> {
        if points.is_empty() && rounds > 0 {
            return Err(format!("no change point in {rounds} rounds"));
        }
        let mut before: Option<(usize, RoundScore)> = None;
        for (index, &(round, score)) in points.iter().enumerate() {
            let problem = match before {
                None if round != 0 => Some("is not at round 0".to_owned()),
                Some((last, _)) if round <= last => Some(format!("does not follow round {last}")),
                Some((_, last)) if score == last => Some("repeats the scores before it".to_owned()),
                _ if round >= rounds => Some(format!("is past the last of {rounds} rounds")),
                _ if score.direct_hits > direct_truth_len => Some(format!(
                    "has {} direct hits of {direct_truth_len} direct truth bits",
                    score.direct_hits
                )),
                _ if score.missed_indirect > indirect_truth_len => Some(format!(
                    "misses {} of {indirect_truth_len} indirect truth bits",
                    score.missed_indirect
                )),
                _ => None,
            };
            if let Some(problem) = problem {
                return Err(format!("change point {index} at round {round} {problem}"));
            }
            before = Some((round, score));
        }
        Ok(Self {
            profiler,
            direct_truth_len,
            indirect_truth_len,
            rounds,
            points,
        })
    }

    /// Scores the next round: what the profiler had `identified` and
    /// `predicted` after it, against the word's ground truth `space` (the
    /// one the series was created with). This is the one scoring step;
    /// every sweep calls it for each word's first round and for every round
    /// that changes its profile, and it reads all three numbers from one
    /// [`ErrorSpace::score`] pass over dataword masks.
    pub fn push_round(
        &mut self,
        space: &ErrorSpace,
        identified: &BTreeSet<usize>,
        predicted: &BTreeSet<usize>,
    ) {
        self.push_score(space.score(identified, predicted));
    }

    /// Appends the next round's score, adding a change point only when it
    /// differs from the last one.
    pub fn push_score(&mut self, score: RoundScore) {
        if self.points.last().map(|&(_, last)| last) != Some(score) {
            // Exactly sized: a series keeps its few points for the whole
            // sweep, and finishing the sweep moves them into its result, so
            // spare capacity would be held by every series to the end.
            self.points.reserve_exact(1);
            self.points.push((self.rounds, score));
        }
        self.rounds += 1;
    }

    /// Adds one round whose profile, and so whose score, is the previous
    /// round's, without scoring it: the step for a round after which
    /// [`Profiler::observe_round`](crate::Profiler::observe_round) reported
    /// no change.
    ///
    /// # Panics
    ///
    /// Panics if the series holds no round yet (the first round is always
    /// scored).
    pub fn push_unchanged(&mut self) {
        assert!(
            !self.points.is_empty(),
            "the first round of a series must be scored"
        );
        self.rounds += 1;
    }

    /// Scores a whole campaign result against the ground-truth error space:
    /// [`CoverageSeries::push_round`] folded over its snapshots.
    pub fn from_campaign(result: &CampaignResult, space: &ErrorSpace) -> Self {
        let mut series = Self::new(&result.profiler, space);
        for snapshot in &result.snapshots {
            series.push_round(space, &snapshot.identified, &snapshot.predicted);
        }
        series
    }

    /// Number of rounds in the series.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the series holds no rounds at all. An empty series carries no
    /// coverage information — distinguish it from a genuine zero-coverage
    /// run with [`CoverageSeries::checked_final_direct_coverage`].
    pub fn is_empty(&self) -> bool {
        self.rounds == 0
    }

    /// The change points: each round whose score differs from the round
    /// before (round 0 always does), with that score.
    pub fn points(&self) -> &[(usize, RoundScore)] {
        &self.points
    }

    /// The scores after round `round` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not below [`CoverageSeries::rounds`].
    pub fn score_at(&self, round: usize) -> RoundScore {
        assert!(
            round < self.rounds,
            "round {round} of a {}-round series",
            self.rounds
        );
        let index = self.points.partition_point(|&(start, _)| start <= round);
        self.points[index - 1].1
    }

    /// The scores after the final round, or `None` if no rounds ran.
    pub fn final_score(&self) -> Option<RoundScore> {
        self.points.last().map(|&(_, score)| score)
    }

    /// Direct coverage (Fig. 6) of `direct_hits` identified direct bits: the
    /// fraction of the word's direct truth, or 1.0 when it has none.
    fn direct_coverage(&self, direct_hits: usize) -> f64 {
        if self.direct_truth_len == 0 {
            1.0
        } else {
            direct_hits as f64 / self.direct_truth_len as f64
        }
    }

    /// Direct coverage after round `round` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not below [`CoverageSeries::rounds`].
    pub fn direct_coverage_at(&self, round: usize) -> f64 {
        self.direct_coverage(self.score_at(round).direct_hits)
    }

    /// The first round (0-based) whose scores meet `bound`, or `None` if no
    /// round does.
    fn first_round_where(&self, bound: impl Fn(&RoundScore) -> bool) -> Option<usize> {
        self.points
            .iter()
            .find(|(_, score)| bound(score))
            .map(|&(round, _)| round)
    }

    /// Round in which the first direct-error bit was identified (Fig. 7).
    /// With no direct-error bits to find, the profiler is bootstrapped from
    /// the start: `Some(0)`.
    pub fn bootstrap_round(&self) -> Option<usize> {
        if self.direct_truth_len == 0 {
            Some(0)
        } else {
            self.first_round_where(|score| score.direct_hits > 0)
        }
    }

    /// The first round (0-based) after which direct coverage reached 1.0, or
    /// `None` if it never did.
    pub fn rounds_to_full_direct_coverage(&self) -> Option<usize> {
        self.first_round_where(|score| score.direct_hits == self.direct_truth_len)
    }

    /// The first round (0-based) after which no more than `limit`
    /// simultaneous post-correction errors remain possible, or `None`.
    pub fn rounds_until_max_simultaneous_at_most(&self, limit: usize) -> Option<usize> {
        self.first_round_where(|score| score.max_simultaneous <= limit)
    }

    /// Direct coverage after the final round.
    ///
    /// **Caveat:** returns 0.0 when no rounds ran, which is indistinguishable
    /// from a genuine zero-coverage run. Aggregators that must tell the two
    /// apart (e.g. a merge coordinator validating shard completeness) should
    /// use [`CoverageSeries::checked_final_direct_coverage`] instead.
    pub fn final_direct_coverage(&self) -> f64 {
        self.checked_final_direct_coverage().unwrap_or(0.0)
    }

    /// Direct coverage after the final round, or `None` if no rounds ran —
    /// the unambiguous accessor behind
    /// [`CoverageSeries::final_direct_coverage`].
    pub fn checked_final_direct_coverage(&self) -> Option<f64> {
        self.final_score()
            .map(|score| self.direct_coverage(score.direct_hits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ProfilingCampaign;
    use crate::traits::ProfilerKind;
    use harp_ecc::HammingCode;
    use harp_memsim::pattern::DataPattern;
    use harp_memsim::FaultModel;

    fn series_for(
        kind: ProfilerKind,
        at_risk: &[usize],
        probability: f64,
        rounds: usize,
        seed: u64,
    ) -> CoverageSeries {
        let code = HammingCode::random(64, seed).unwrap();
        let campaign = ProfilingCampaign::new(
            code,
            FaultModel::uniform(at_risk, probability),
            DataPattern::Random,
            seed,
        );
        let space = campaign.error_space();
        let result = campaign.run(kind, rounds);
        CoverageSeries::from_campaign(&result, &space)
    }

    /// Direct coverage after every round, as the dense vector it replaced.
    fn dense_coverage(series: &CoverageSeries) -> Vec<f64> {
        (0..series.rounds())
            .map(|round| series.direct_coverage_at(round))
            .collect()
    }

    /// An unscored round extends the last change point, exactly as scoring
    /// the same profile again does.
    #[test]
    fn push_unchanged_extends_the_last_point() {
        let code = HammingCode::random(64, 4).unwrap();
        let space = ErrorSpace::enumerate(
            &code,
            &[5, 9],
            harp_ecc::analysis::FailureDependence::TrueCell,
        );
        let found: BTreeSet<usize> = [5].into();
        let (mut scored, mut skipped) = (
            CoverageSeries::new("HARP-U", &space),
            CoverageSeries::new("HARP-U", &space),
        );
        for series in [&mut scored, &mut skipped] {
            series.push_round(&space, &BTreeSet::new(), &BTreeSet::new());
            series.push_round(&space, &found, &BTreeSet::new());
        }
        for _ in 0..5 {
            scored.push_round(&space, &found, &BTreeSet::new());
            skipped.push_unchanged();
        }
        assert_eq!(skipped, scored);
        assert_eq!((skipped.rounds(), skipped.points().len()), (7, 2));
    }

    #[test]
    #[should_panic(expected = "must be scored")]
    fn the_first_round_cannot_go_unscored() {
        let code = HammingCode::random(64, 4).unwrap();
        let space =
            ErrorSpace::enumerate(&code, &[5], harp_ecc::analysis::FailureDependence::TrueCell);
        CoverageSeries::new("HARP-U", &space).push_unchanged();
    }

    /// `push_round` on dataword masks equals the set formulas it replaced,
    /// kept here as its oracle, for random identified and predicted sets
    /// that include bits at and past the dataword length.
    #[test]
    fn push_round_matches_the_set_formulas() {
        use harp_ecc::analysis::FailureDependence;
        use harp_ecc::{ExtendedHammingCode, LinearBlockCode};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        fn oracle(
            series: &mut CoverageSeries,
            space: &ErrorSpace,
            identified: &BTreeSet<usize>,
            predicted: &BTreeSet<usize>,
        ) {
            let known: BTreeSet<usize> = identified.union(predicted).copied().collect();
            series.push_score(RoundScore {
                direct_hits: identified.intersection(space.direct_at_risk()).count(),
                missed_indirect: space.indirect_at_risk().difference(&known).count(),
                max_simultaneous: space.max_simultaneous_errors_outside(&known),
            });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(0x5C0E);
        for case in 0..64u64 {
            let codes: [Box<dyn LinearBlockCode>; 2] = [
                Box::new(HammingCode::random(64, case).unwrap()),
                Box::new(ExtendedHammingCode::random(60, case).unwrap()),
            ];
            for code in codes {
                let n = code.codeword_len();
                let at_risk: Vec<usize> = (0..rng.gen_range(0..7))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                let space =
                    ErrorSpace::enumerate(code.as_ref(), &at_risk, FailureDependence::TrueCell);
                let (mut fast, mut slow) = (
                    CoverageSeries::new("P", &space),
                    CoverageSeries::new("P", &space),
                );
                // Draw from the truth sets and from the whole codeword, so
                // hits, misses and out-of-range bits all occur.
                let pool: Vec<usize> = space
                    .post_correction_at_risk()
                    .iter()
                    .chain(space.direct_at_risk())
                    .copied()
                    .chain(0..n + 8)
                    .collect();
                let (mut identified, mut predicted) = (BTreeSet::new(), BTreeSet::new());
                for _ in 0..8 {
                    for set in [&mut identified, &mut predicted] {
                        if rng.gen_bool(0.3) {
                            set.clear();
                        }
                        for _ in 0..rng.gen_range(0..4) {
                            set.insert(pool[rng.gen_range(0..pool.len())]);
                        }
                    }
                    fast.push_round(&space, &identified, &predicted);
                    oracle(&mut slow, &space, &identified, &predicted);
                }
                assert_eq!(fast, slow, "{} at risk {at_risk:?}", code.description());
            }
        }
    }

    /// Random per-round score sequences pushed into a series — long runs,
    /// repeats of earlier scores, empty direct truths and zero rounds among
    /// them — read back exactly as the dense per-round vectors the series
    /// replaced, kept here as the oracle.
    #[test]
    fn change_points_read_back_as_the_dense_vectors() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x00C4_A96E);
        for case in 0..512 {
            let direct_truth_len = if case % 4 == 0 {
                0
            } else {
                rng.gen_range(1..9)
            };
            let indirect_truth_len = rng.gen_range(0..5);
            let rounds = if case % 16 == 1 {
                0
            } else {
                rng.gen_range(1..160)
            };
            let mut series = CoverageSeries::from_points(
                "P".into(),
                direct_truth_len,
                indirect_truth_len,
                0,
                vec![],
            )
            .unwrap();
            let mut dense: Vec<RoundScore> = Vec::with_capacity(rounds);
            let mut score = RoundScore {
                direct_hits: 0,
                missed_indirect: indirect_truth_len,
                max_simultaneous: 2,
            };
            for _ in 0..rounds {
                // Mostly hold the scores, so runs are long; a change may
                // draw the value it replaces, or one held earlier.
                if rng.gen_bool(0.1) {
                    match rng.gen_range(0..3) {
                        0 => score.direct_hits = rng.gen_range(0..=direct_truth_len),
                        1 => score.missed_indirect = rng.gen_range(0..=indirect_truth_len),
                        _ => score.max_simultaneous = rng.gen_range(0..4),
                    }
                }
                series.push_score(score);
                dense.push(score);
            }
            let coverage: Vec<f64> = dense
                .iter()
                .map(|score| match direct_truth_len {
                    0 => 1.0,
                    truth => score.direct_hits as f64 / truth as f64,
                })
                .collect();

            assert_eq!((series.rounds(), series.is_empty()), (rounds, rounds == 0));
            for (round, (score, &direct)) in dense.iter().zip(&coverage).enumerate() {
                assert_eq!(series.score_at(round), *score, "case {case} round {round}");
                assert_eq!(series.direct_coverage_at(round).to_bits(), direct.to_bits());
            }
            assert_eq!(series.final_score(), dense.last().copied());
            assert_eq!(
                series.checked_final_direct_coverage().map(f64::to_bits),
                coverage.last().map(|c| c.to_bits())
            );
            assert_eq!(
                series.rounds_to_full_direct_coverage(),
                coverage
                    .iter()
                    .position(|&c| (c - 1.0).abs() < f64::EPSILON)
            );
            for limit in 0..5 {
                assert_eq!(
                    series.rounds_until_max_simultaneous_at_most(limit),
                    dense.iter().position(|s| s.max_simultaneous <= limit)
                );
            }
            let bootstrap = match direct_truth_len {
                0 => Some(0),
                _ => dense.iter().position(|s| s.direct_hits > 0),
            };
            assert_eq!(series.bootstrap_round(), bootstrap);

            // One point per round whose scores differ from the round before,
            // and the points are in the shape `from_points` accepts.
            let changes = dense.windows(2).filter(|pair| pair[0] != pair[1]).count();
            assert_eq!(series.points().len(), changes + usize::from(rounds > 0));
            let rebuilt = CoverageSeries::from_points(
                series.profiler.clone(),
                direct_truth_len,
                indirect_truth_len,
                rounds,
                series.points().to_vec(),
            );
            assert_eq!(rebuilt, Ok(series));
        }
    }

    #[test]
    fn direct_coverage_edge_cases() {
        use harp_ecc::analysis::FailureDependence;

        let code = HammingCode::paper_example();
        let empty = BTreeSet::new();

        // No direct at-risk bits: coverage is 1.0 whatever was identified.
        let none = ErrorSpace::enumerate(&code, &[], FailureDependence::TrueCell);
        let mut series = CoverageSeries::new("P", &none);
        // With nothing to find, the profiler is bootstrapped from the start.
        assert_eq!(series.bootstrap_round(), Some(0));
        series.push_round(&none, &empty, &empty);
        series.push_round(&none, &[0, 2].into_iter().collect(), &empty);
        assert_eq!(dense_coverage(&series), [1.0, 1.0]);
        assert_eq!(series.bootstrap_round(), Some(0));

        let space = ErrorSpace::enumerate(&code, &[0, 1], FailureDependence::TrueCell);
        let truth = space.direct_at_risk().clone();
        assert_eq!(truth, [0, 1].into_iter().collect());
        let half: BTreeSet<usize> = [1, 3].into_iter().collect();
        let mut series = CoverageSeries::new("P", &space);
        series.push_round(&space, &empty, &empty);
        // Predicted bits never count as direct coverage.
        series.push_round(&space, &empty, &truth);
        series.push_round(&space, &half, &empty);
        series.push_round(&space, &truth, &empty);
        assert_eq!(dense_coverage(&series), [0.0, 0.0, 0.5, 1.0]);
        assert_eq!(series.bootstrap_round(), Some(2));
    }

    #[test]
    fn missed_indirect_counts_difference() {
        // The first code whose word has at least two indirect bits.
        let space = (0..64)
            .map(|seed| {
                let code = HammingCode::random(64, seed).unwrap();
                ErrorSpace::enumerate(
                    &code,
                    &[2, 11, 37, 58, 63],
                    harp_ecc::analysis::FailureDependence::TrueCell,
                )
            })
            .find(|space| space.indirect_at_risk().len() >= 2)
            .expect("some word has indirect bits");
        let truth = space.indirect_at_risk().clone();
        let empty = BTreeSet::new();
        let first: BTreeSet<usize> = truth.iter().take(1).copied().collect();
        // A bit outside the indirect truth (and one past the dataword)
        // removes nothing from the count.
        let outside = (0..)
            .find(|bit| !truth.contains(bit))
            .expect("some bit is not indirect");
        let with_outside: BTreeSet<usize> =
            first.iter().copied().chain([outside, 1 << 20]).collect();

        let mut series = CoverageSeries::new("P", &space);
        series.push_round(&space, &empty, &empty);
        series.push_round(&space, &first, &empty);
        series.push_round(&space, &empty, &with_outside);
        series.push_round(&space, &first, &truth);
        series.push_round(&space, &truth, &empty);
        let missed: Vec<usize> = (0..series.rounds())
            .map(|round| series.score_at(round).missed_indirect)
            .collect();
        assert_eq!(
            missed,
            [truth.len(), truth.len() - 1, truth.len() - 1, 0, 0]
        );
    }

    #[test]
    fn harp_series_reaches_full_coverage_and_bounds_simultaneous_errors() {
        let series = series_for(ProfilerKind::HarpU, &[3, 19, 42, 61], 0.5, 32, 7);
        assert_eq!(series.direct_truth_len, 4);
        assert_eq!(series.final_direct_coverage(), 1.0);
        let full_round = series.rounds_to_full_direct_coverage().unwrap();
        // Once every direct bit is known, at most one simultaneous error
        // (an indirect one) remains possible.
        assert!(series.score_at(full_round).max_simultaneous <= 1);
        assert!(series.rounds_until_max_simultaneous_at_most(1).unwrap() <= full_round);
        assert!(series.bootstrap_round().is_some());
        assert_eq!(series.rounds(), 32);
    }

    #[test]
    fn harp_bootstraps_faster_than_naive() {
        // With always-failing bits HARP identifies them in round 0; Naive
        // needs an uncorrectable pattern, which also happens immediately here,
        // so use p=0.5 where HARP still sees any failing bit raw while Naive
        // must wait for a *combination*.
        let harp = series_for(ProfilerKind::HarpU, &[3, 19, 42], 0.5, 64, 21);
        let naive = series_for(ProfilerKind::Naive, &[3, 19, 42], 0.5, 64, 21);
        let harp_boot = harp.bootstrap_round().expect("HARP must bootstrap");
        // When Naive never saw a direct error, HARP is trivially faster.
        if let Some(naive_boot) = naive.bootstrap_round() {
            assert!(harp_boot <= naive_boot);
        }
    }

    #[test]
    fn naive_direct_coverage_is_monotonic_and_bounded() {
        let series = series_for(ProfilerKind::Naive, &[5, 23, 48, 60, 63], 0.5, 96, 9);
        let coverage = dense_coverage(&series);
        for window in coverage.windows(2) {
            assert!(window[1] >= window[0]);
        }
        for &c in &coverage {
            assert!((0.0..=1.0).contains(&c));
        }
        for window in series.points().windows(2) {
            assert!(window[1].1.missed_indirect <= window[0].1.missed_indirect);
        }
    }

    #[test]
    fn harp_a_leaves_fewer_missed_indirect_bits_than_harp_u() {
        let harp_u = series_for(ProfilerKind::HarpU, &[2, 11, 37, 58], 1.0, 16, 15);
        let harp_a = series_for(ProfilerKind::HarpA, &[2, 11, 37, 58], 1.0, 16, 15);
        let missed = |series: &CoverageSeries| series.final_score().unwrap().missed_indirect;
        assert!(
            missed(&harp_a) <= missed(&harp_u),
            "HARP-A ({}) should miss no more indirect bits than HARP-U ({})",
            missed(&harp_a),
            missed(&harp_u)
        );
    }

    #[test]
    fn bootstrap_round_none_when_nothing_found() {
        let code = HammingCode::random(64, 33).unwrap();
        let campaign = ProfilingCampaign::new(
            code,
            // Single at-risk bit: on-die ECC always corrects it, so Naive
            // never observes anything.
            FaultModel::uniform(&[7], 1.0),
            DataPattern::Charged,
            33,
        );
        let space = campaign.error_space();
        let result = campaign.run(ProfilerKind::Naive, 16);
        let series = CoverageSeries::from_campaign(&result, &space);
        assert_eq!(series.bootstrap_round(), None);
        assert_eq!(series.final_direct_coverage(), 0.0);
    }

    #[test]
    fn empty_series_is_detectable_unlike_the_silent_zero() {
        let code = HammingCode::random(64, 35).unwrap();
        let campaign = ProfilingCampaign::new(
            code,
            FaultModel::uniform(&[3], 1.0),
            DataPattern::Random,
            35,
        );
        let space = campaign.error_space();
        let empty = CoverageSeries::from_campaign(&campaign.run(ProfilerKind::Naive, 0), &space);
        assert!(empty.is_empty());
        assert_eq!(empty.checked_final_direct_coverage(), None);
        // The legacy accessor still collapses to 0.0 — the documented trap.
        assert_eq!(empty.final_direct_coverage(), 0.0);

        let real = CoverageSeries::from_campaign(&campaign.run(ProfilerKind::Naive, 4), &space);
        assert!(!real.is_empty());
        assert_eq!(
            real.checked_final_direct_coverage(),
            Some(real.final_direct_coverage())
        );
    }
}
