//! The per-word profiling campaign driver.
//!
//! The paper's Monte-Carlo evaluation treats each ECC word independently: a
//! word has a code, a fault model (its at-risk bits), and each profiler is
//! run against it for a fixed number of rounds. [`ProfilingCampaign`] owns
//! that per-word configuration and produces a [`CampaignResult`] containing a
//! per-round snapshot of what the profiler knew, which the evaluation crates
//! score against the exact [`ErrorSpace`] ground truth.

use std::collections::BTreeSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::analysis::FailureDependence;
use harp_ecc::{ErrorSpace, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_memsim::{BurstScratch, FaultModel, MemoryChip};

use crate::traits::{Profiler, ProfilerKind};

/// Salt folded into a word's campaign seed to derive its fault-injection RNG
/// stream. Shared by the scalar [`ProfilingCampaign::run_profiler`] reference
/// path and the cell-batched [`crate::batch::CampaignBatch`], so both derive
/// the *same* per-word stream — the invariant the differential equivalence
/// suite locks down.
pub(crate) const CAMPAIGN_RNG_SALT: u64 = 0x5EED_CAFE_F00D;

/// What a profiler knew at the end of one profiling round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundSnapshot {
    /// The 0-based round index.
    pub round: usize,
    /// Bits identified (observed to fail, or read raw as failing) so far.
    pub identified: BTreeSet<usize>,
    /// Bits additionally predicted to be at risk (HARP-A only).
    pub predicted: BTreeSet<usize>,
}

impl RoundSnapshot {
    /// Union of identified and predicted bits.
    pub fn known(&self) -> BTreeSet<usize> {
        self.identified.union(&self.predicted).copied().collect()
    }
}

/// The result of running one profiler against one ECC word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The profiler's display name.
    pub profiler: String,
    /// One snapshot per completed round, in order.
    pub snapshots: Vec<RoundSnapshot>,
}

impl CampaignResult {
    /// Number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.snapshots.len()
    }

    /// The identified set after the final round (empty set if no rounds ran).
    pub fn final_identified(&self) -> BTreeSet<usize> {
        self.snapshots
            .last()
            .map(|s| s.identified.clone())
            .unwrap_or_default()
    }

    /// The union of identified and predicted bits after the final round.
    pub fn final_known(&self) -> BTreeSet<usize> {
        self.snapshots
            .last()
            .map(RoundSnapshot::known)
            .unwrap_or_default()
    }
}

/// The per-word profiling configuration: a code, a fault model, and the data
/// pattern family / seed shared by every profiler evaluated on this word.
#[derive(Debug, Clone)]
pub struct ProfilingCampaign<C: LinearBlockCode = harp_ecc::HammingCode> {
    code: C,
    faults: FaultModel,
    pattern: DataPattern,
    seed: u64,
}

impl<C: LinearBlockCode + Clone + Send + 'static> ProfilingCampaign<C> {
    /// Creates a campaign for one ECC word.
    pub fn new(code: C, faults: FaultModel, pattern: DataPattern, seed: u64) -> Self {
        Self {
            code,
            faults,
            pattern,
            seed,
        }
    }

    /// The on-die ECC code of this word.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// The fault model of this word.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// The data-pattern family used for standard testing rounds.
    pub fn pattern(&self) -> DataPattern {
        self.pattern
    }

    /// The campaign seed all per-word random streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The exact ground truth for this word: every bit at risk of
    /// post-correction error, split into direct and indirect sets.
    pub fn error_space(&self) -> ErrorSpace {
        ErrorSpace::enumerate(
            &self.code,
            &self.faults.at_risk_positions(),
            self.faults.dependence(),
        )
    }

    /// Runs a freshly instantiated profiler of the given kind for `rounds`
    /// rounds.
    pub fn run(&self, kind: ProfilerKind, rounds: usize) -> CampaignResult {
        let mut profiler = kind.instantiate(&self.code, self.pattern, self.seed);
        self.run_profiler(profiler.as_mut(), rounds)
    }

    /// Runs an existing profiler for `rounds` rounds.
    ///
    /// All profilers run against the same word see the same per-round random
    /// draws (the RNG is re-seeded from the campaign seed), preserving the
    /// paper's fairness requirement (§7.1.2) as closely as data-dependent
    /// errors allow.
    ///
    /// Each round's access goes through the chip's bit-sliced burst read
    /// path (a one-word scrub pass whose [`BurstScratch`] persists across
    /// rounds), so the whole campaign reuses one set of decode buffers
    /// instead of allocating a fresh observation per round, and clean rounds
    /// short-circuit through the kernel's nonzero-syndrome mask. The RNG
    /// stream — and therefore every snapshot — is identical to the scalar
    /// `MemoryChip::read` loop this replaces.
    ///
    /// This per-word path is the **scalar reference implementation** for the
    /// cell-batched [`crate::batch::CampaignBatch`]: the differential suite
    /// in `tests/campaign_equivalence.rs` asserts that batching a word with
    /// the rest of its sweep cell never changes a single snapshot.
    pub fn run_profiler(&self, profiler: &mut dyn Profiler, rounds: usize) -> CampaignResult {
        let mut chip = MemoryChip::new(self.code.clone(), 1);
        chip.set_fault_model(0, self.faults.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ CAMPAIGN_RNG_SALT);
        let mut scratch = BurstScratch::new();
        let mut snapshots = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let data = profiler.dataword_for_round(round);
            chip.write(0, &data);
            let observation = &chip.read_burst(0..1, &mut rng, &mut scratch)[0];
            profiler.observe_round(round, observation);
            snapshots.push(RoundSnapshot {
                round,
                identified: profiler.identified().clone(),
                predicted: profiler.predicted(),
            });
        }
        CampaignResult {
            profiler: profiler.name().to_owned(),
            snapshots,
        }
    }

    /// Convenience: the dependence model of this word's cells.
    pub fn dependence(&self) -> FailureDependence {
        self.faults.dependence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;

    fn campaign(at_risk: &[usize], probability: f64, seed: u64) -> ProfilingCampaign {
        let code = HammingCode::random(64, seed).unwrap();
        ProfilingCampaign::new(
            code,
            FaultModel::uniform(at_risk, probability),
            DataPattern::Random,
            seed,
        )
    }

    #[test]
    fn snapshots_are_monotonic_and_one_per_round() {
        let campaign = campaign(&[2, 9, 44], 0.5, 3);
        let result = campaign.run(ProfilerKind::HarpU, 16);
        assert_eq!(result.rounds(), 16);
        assert_eq!(result.profiler, "HARP-U");
        for window in result.snapshots.windows(2) {
            assert!(window[0].identified.is_subset(&window[1].identified));
            assert_eq!(window[1].round, window[0].round + 1);
        }
        assert_eq!(result.snapshots[15].identified, result.final_identified());
    }

    #[test]
    fn harp_u_reaches_full_direct_coverage_and_naive_lags() {
        let campaign = campaign(&[2, 9, 44], 0.5, 5);
        let truth = campaign.error_space();
        let harp = campaign.run(ProfilerKind::HarpU, 8);
        let naive = campaign.run(ProfilerKind::Naive, 8);
        let direct = truth.direct_at_risk();
        let harp_hits = harp.final_identified().intersection(direct).count();
        let naive_hits = naive.final_identified().intersection(direct).count();
        assert_eq!(harp_hits, direct.len(), "HARP-U must find all direct bits");
        assert!(naive_hits <= harp_hits);
    }

    #[test]
    fn campaign_runs_are_deterministic() {
        let campaign = campaign(&[1, 7, 33, 60], 0.25, 11);
        let a = campaign.run(ProfilerKind::Naive, 32);
        let b = campaign.run(ProfilerKind::Naive, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn identified_bits_are_always_genuinely_at_risk() {
        let campaign = campaign(&[4, 18, 52, 63], 0.75, 13);
        let truth = campaign.error_space();
        for kind in ProfilerKind::ALL {
            let result = campaign.run(kind, 48);
            for bit in result.final_identified() {
                assert!(
                    truth.post_correction_at_risk().contains(&bit)
                        || truth.direct_at_risk().contains(&bit),
                    "{kind}: bit {bit} is not at risk"
                );
            }
        }
    }

    #[test]
    fn error_space_and_accessors_expose_configuration() {
        let campaign = campaign(&[3, 70], 1.0, 17);
        assert_eq!(campaign.pattern(), DataPattern::Random);
        assert_eq!(campaign.dependence(), FailureDependence::TrueCell);
        assert_eq!(campaign.faults().at_risk_positions(), vec![3, 70]);
        let space = campaign.error_space();
        assert!(space.direct_at_risk().contains(&3));
        assert_eq!(campaign.code().data_len(), 64);
    }

    #[test]
    fn empty_campaign_result_behaves() {
        let campaign = campaign(&[1], 1.0, 19);
        let result = campaign.run(ProfilerKind::Naive, 0);
        assert_eq!(result.rounds(), 0);
        assert!(result.final_identified().is_empty());
        assert!(result.final_known().is_empty());
    }
}
