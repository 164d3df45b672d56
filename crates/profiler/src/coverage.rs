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

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use harp_ecc::ErrorSpace;

use crate::campaign::CampaignResult;

/// Per-round coverage metrics for one (word, profiler) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageSeries {
    /// The profiler's display name.
    pub profiler: String,
    /// Direct-error coverage after each round (Fig. 6).
    pub direct_coverage: Vec<f64>,
    /// Missed indirect-error bits after each round (Fig. 8).
    pub missed_indirect: Vec<usize>,
    /// Maximum number of simultaneous post-correction errors still possible
    /// after each round, given that every *known* bit is repaired (Fig. 9).
    pub max_simultaneous: Vec<usize>,
    /// Round in which the first direct-error bit was identified (Fig. 7).
    pub bootstrap_round: Option<usize>,
    /// Number of ground-truth direct at-risk bits for this word.
    pub direct_truth_len: usize,
    /// Number of ground-truth indirect at-risk bits for this word.
    pub indirect_truth_len: usize,
}

impl CoverageSeries {
    /// An empty series for one word's `profiler`, before any round, scored
    /// against the word's ground truth `space`.
    pub fn new(profiler: &str, space: &ErrorSpace) -> Self {
        let direct_truth_len = space.direct_at_risk().len();
        Self {
            profiler: profiler.to_owned(),
            direct_coverage: Vec::new(),
            missed_indirect: Vec::new(),
            max_simultaneous: Vec::new(),
            // With no direct-error bits to find, the profiler is
            // bootstrapped from the start.
            bootstrap_round: (direct_truth_len == 0).then_some(0),
            direct_truth_len,
            indirect_truth_len: space.indirect_at_risk().len(),
        }
    }

    /// Scores the next round: what the profiler had `identified` and
    /// `predicted` after it, against the word's ground truth `space` (the
    /// one the series was created with). This is the one scoring step;
    /// every sweep calls it as each round is produced, and it reads all
    /// three numbers from one [`ErrorSpace::score`] pass over dataword
    /// masks.
    pub fn push_round(
        &mut self,
        space: &ErrorSpace,
        identified: &BTreeSet<usize>,
        predicted: &BTreeSet<usize>,
    ) {
        let score = space.score(identified, predicted);
        if self.bootstrap_round.is_none() && score.direct_hits > 0 {
            self.bootstrap_round = Some(self.rounds());
        }
        let direct_truth = space.direct_at_risk().len();
        self.direct_coverage.push(if direct_truth == 0 {
            1.0
        } else {
            score.direct_hits as f64 / direct_truth as f64
        });
        self.missed_indirect.push(score.missed_indirect);
        self.max_simultaneous.push(score.max_simultaneous);
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
        self.direct_coverage.len()
    }

    /// The first round (0-based) after which direct coverage reached 1.0, or
    /// `None` if it never did.
    pub fn rounds_to_full_direct_coverage(&self) -> Option<usize> {
        self.direct_coverage
            .iter()
            .position(|&c| (c - 1.0).abs() < f64::EPSILON)
    }

    /// The first round (0-based) after which no more than `limit`
    /// simultaneous post-correction errors remain possible, or `None`.
    pub fn rounds_until_max_simultaneous_at_most(&self, limit: usize) -> Option<usize> {
        self.max_simultaneous.iter().position(|&m| m <= limit)
    }

    /// Whether the series holds no rounds at all. An empty series carries no
    /// coverage information — distinguish it from a genuine zero-coverage
    /// run with [`CoverageSeries::checked_final_direct_coverage`].
    pub fn is_empty(&self) -> bool {
        self.direct_coverage.is_empty()
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
        self.direct_coverage.last().copied()
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
            let direct_truth = space.direct_at_risk();
            if series.bootstrap_round.is_none()
                && identified.intersection(direct_truth).next().is_some()
            {
                series.bootstrap_round = Some(series.rounds());
            }
            let known: BTreeSet<usize> = identified.union(predicted).copied().collect();
            series.direct_coverage.push(if direct_truth.is_empty() {
                1.0
            } else {
                identified.intersection(direct_truth).count() as f64 / direct_truth.len() as f64
            });
            series
                .missed_indirect
                .push(space.indirect_at_risk().difference(&known).count());
            series
                .max_simultaneous
                .push(space.max_simultaneous_errors_outside(&known));
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

    #[test]
    fn direct_coverage_edge_cases() {
        use harp_ecc::analysis::FailureDependence;

        let code = HammingCode::paper_example();
        let empty = BTreeSet::new();

        // No direct at-risk bits: coverage is 1.0 whatever was identified.
        let none = ErrorSpace::enumerate(&code, &[], FailureDependence::TrueCell);
        let mut series = CoverageSeries::new("P", &none);
        series.push_round(&none, &empty, &empty);
        series.push_round(&none, &[0, 2].into_iter().collect(), &empty);
        assert_eq!(series.direct_coverage, [1.0, 1.0]);
        // With nothing to find, the profiler is bootstrapped from the start.
        assert_eq!(series.bootstrap_round, Some(0));

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
        assert_eq!(series.direct_coverage, [0.0, 0.0, 0.5, 1.0]);
        assert_eq!(series.bootstrap_round, Some(2));
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
        assert_eq!(
            series.missed_indirect,
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
        assert!(series.max_simultaneous[full_round] <= 1);
        assert!(series.rounds_until_max_simultaneous_at_most(1).unwrap() <= full_round);
        assert!(series.bootstrap_round.is_some());
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
        let harp_boot = harp.bootstrap_round.expect("HARP must bootstrap");
        // When Naive never saw a direct error, HARP is trivially faster.
        if let Some(naive_boot) = naive.bootstrap_round {
            assert!(harp_boot <= naive_boot);
        }
    }

    #[test]
    fn naive_direct_coverage_is_monotonic_and_bounded() {
        let series = series_for(ProfilerKind::Naive, &[5, 23, 48, 60, 63], 0.5, 96, 9);
        for window in series.direct_coverage.windows(2) {
            assert!(window[1] >= window[0]);
        }
        for &c in &series.direct_coverage {
            assert!((0.0..=1.0).contains(&c));
        }
        for window in series.missed_indirect.windows(2) {
            assert!(window[1] <= window[0]);
        }
    }

    #[test]
    fn harp_a_leaves_fewer_missed_indirect_bits_than_harp_u() {
        let harp_u = series_for(ProfilerKind::HarpU, &[2, 11, 37, 58], 1.0, 16, 15);
        let harp_a = series_for(ProfilerKind::HarpA, &[2, 11, 37, 58], 1.0, 16, 15);
        let last = harp_u.rounds() - 1;
        assert!(
            harp_a.missed_indirect[last] <= harp_u.missed_indirect[last],
            "HARP-A ({}) should miss no more indirect bits than HARP-U ({})",
            harp_a.missed_indirect[last],
            harp_u.missed_indirect[last]
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
        assert_eq!(series.bootstrap_round, None);
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
