//! The BEER test campaign: recovering the miscorrection profile from a
//! black-box memory chip.
//!
//! BEER exploits the data-dependence of DRAM data-retention errors: a true
//! cell can only fail while it stores a '1'. By programming a data pattern
//! that charges exactly two data bits and testing beyond the refresh margin
//! (so that the charged cells fail), the experimenter induces a *known*
//! pair of raw errors inside the ECC word without any visibility into the
//! chip. The on-die ECC decoder then either miscorrects a third data bit
//! (observable), miscorrects a parity bit (invisible and harmless), or
//! detects the error without locating it. Collecting the observation for
//! every pair yields the [`MiscorrectionProfile`].
//!
//! The campaign drives an actual [`harp_memsim::MemoryChip`] through its
//! normal (non-bypass) read path, exactly as an experimenter without HARP's
//! chip modification would. All trials of a round are read as one burst, so
//! the campaign rides the chip's bit-sliced syndrome pass and clean-word
//! mask fast path for free.
//!
//! **Modelling note.** The campaign assumes a test condition under which the
//! two targeted (charged) data cells fail during the test window while the
//! chip's parity cells survive it. The original BEER methodology does not
//! need this assumption — it feeds the resulting ambiguity about charged
//! parity-cell failures to a SAT solver — but the artefact it recovers is the
//! same miscorrection profile.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;
use harp_memsim::{BurstScratch, FaultModel, MemoryChip, ReadObservation};

use crate::profile::{DecodeFlag, MiscorrectionProfile, PatternResponse, VisibleErrorProfile};
use crate::reconstruct::{reconstruct_code, CodeFamily, ReconstructError, ReconstructedCode};

/// A pair-charged reverse-engineering campaign over a chip with `data_bits`
/// visible data bits per ECC word.
///
/// # Example
///
/// ```
/// use harp_beer::BeerCampaign;
/// use harp_ecc::HammingCode;
///
/// let secret = HammingCode::random(16, 4)?;
/// let profile = BeerCampaign::new(16).extract_profile(&secret);
/// assert!(profile.is_consistent_with(&secret));
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BeerCampaign {
    data_bits: usize,
    /// Number of read trials per pattern. The pair-charged procedure is
    /// deterministic when the test condition guarantees charged-cell
    /// failure, so a single trial suffices; more trials model a cautious
    /// experimenter re-reading each pattern.
    trials_per_pattern: usize,
}

impl BeerCampaign {
    /// Creates a campaign for ECC words with `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero.
    pub fn new(data_bits: usize) -> Self {
        assert!(data_bits > 0, "data_bits must be nonzero");
        Self {
            data_bits,
            trials_per_pattern: 1,
        }
    }

    /// Sets the number of read trials per pattern (defaults to 1).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn with_trials_per_pattern(mut self, trials: usize) -> Self {
        assert!(trials > 0, "at least one trial per pattern is required");
        self.trials_per_pattern = trials;
        self
    }

    /// The dataword length this campaign targets.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// The number of test patterns the campaign programs (one per unordered
    /// pair of data bits).
    pub fn pattern_count(&self) -> usize {
        self.data_bits * (self.data_bits - 1) / 2
    }

    /// Runs the campaign against a chip that uses the given (secret) code,
    /// constructing the black-box chip internally.
    ///
    /// The internally built chip holds one ECC word per unordered data-bit
    /// pair, all programmed up front, so the whole campaign executes as
    /// [`MemoryChip::read_burst`] scrub passes (one per trial) through the
    /// batched syndrome kernel instead of `pattern_count()` scalar reads.
    /// The recovered profile is identical to the word-at-a-time reference
    /// path ([`BeerCampaign::extract_profile_from_chip`]): the pair-charged
    /// procedure is deterministic under the test condition.
    ///
    /// # Panics
    ///
    /// Panics if the code's dataword length does not match the campaign.
    pub fn extract_profile<C: LinearBlockCode + Clone>(&self, code: &C) -> MiscorrectionProfile {
        let patterns: Vec<Vec<usize>> = (0..self.data_bits)
            .flat_map(|i| ((i + 1)..self.data_bits).map(move |j| vec![i, j]))
            .collect();
        let mut pairs = BTreeMap::new();
        self.run_pattern_campaign(code, &patterns, 0xBEE2, |charged, observation| {
            let (i, j) = (charged[0], charged[1]);
            // A data-visible miscorrection shows up as a third
            // post-correction error position beyond the pair itself.
            let mut post = observation.post_correction_errors();
            if let Some(extra) = post.find(|&p| p != i && p != j) {
                pairs.insert((i, j), Some(extra));
            } else {
                pairs.entry((i, j)).or_insert(None);
            }
        });
        MiscorrectionProfile::new(self.data_bits, pairs)
    }

    /// The shared engine of both campaign variants: programs one ECC word
    /// per charged pattern (the charged cells — true cells storing '1'
    /// tested beyond the refresh margin — fail during the test window,
    /// everything else stores '0' and cannot fail), then executes one
    /// [`MemoryChip::read_burst`] scrub pass per trial and feeds every
    /// observation to `record`.
    ///
    /// # Panics
    ///
    /// Panics if the code's dataword length does not match the campaign.
    fn run_pattern_campaign<C, F>(
        &self,
        code: &C,
        patterns: &[Vec<usize>],
        seed: u64,
        mut record: F,
    ) where
        C: LinearBlockCode + Clone,
        F: FnMut(&[usize], &ReadObservation),
    {
        assert_eq!(
            code.data_len(),
            self.data_bits,
            "campaign sized for {} data bits, code has {}",
            self.data_bits,
            code.data_len()
        );
        if patterns.is_empty() {
            return;
        }
        let mut chip = MemoryChip::new(code.clone(), patterns.len());
        for (word, charged) in patterns.iter().enumerate() {
            chip.set_fault_model(word, FaultModel::uniform(charged, 1.0));
            chip.write(
                word,
                &BitVec::from_indices(self.data_bits, charged.iter().copied()),
            );
        }
        // lint:allow(rng-salt) the seed is this campaign's API parameter; callers choose the stream
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = BurstScratch::new();
        for _ in 0..self.trials_per_pattern {
            let observations = chip.read_burst(0..chip.num_words(), &mut rng, &mut scratch);
            for (charged, observation) in patterns.iter().zip(observations) {
                record(charged, observation);
            }
        }
    }

    /// The number of test patterns the extended (cross-family) campaign
    /// programs: one per unordered pair *and* one per unordered triple of
    /// data bits. Triples are the lowest-weight patterns that expose a
    /// SEC-DED code's columns, so the extended campaign always includes
    /// them.
    pub fn visible_pattern_count(&self) -> usize {
        let k = self.data_bits;
        // `saturating_sub` keeps the triple term at zero for k < 3 (the
        // (k - 1) factor already zeroes it for k = 2).
        k * (k - 1) / 2 + k * (k - 1) * k.saturating_sub(2) / 6
    }

    /// Runs the extended campaign against a chip that uses the given
    /// (secret) code, recording the full [`VisibleErrorProfile`]: the
    /// post-correction error positions *and* the decoder's status flag for
    /// every weight-2 and weight-3 charged data pattern.
    ///
    /// Like [`BeerCampaign::extract_profile`], the internally built chip
    /// holds one ECC word per pattern, all programmed up front, and the
    /// whole campaign executes as [`MemoryChip::read_burst`] scrub passes
    /// (one per trial) through the batched syndrome kernel.
    ///
    /// # Panics
    ///
    /// Panics if the code's dataword length does not match the campaign.
    pub fn extract_visible_profile<C: LinearBlockCode + Clone>(
        &self,
        code: &C,
    ) -> VisibleErrorProfile {
        let k = self.data_bits;
        let mut patterns: Vec<Vec<usize>> = Vec::with_capacity(self.visible_pattern_count());
        for i in 0..k {
            for j in (i + 1)..k {
                patterns.push(vec![i, j]);
                for l in (j + 1)..k {
                    patterns.push(vec![i, j, l]);
                }
            }
        }
        let mut pairs = BTreeMap::new();
        let mut triples = BTreeMap::new();
        self.run_pattern_campaign(code, &patterns, 0xBEE3, |charged, observation| {
            let response = PatternResponse {
                post_errors: observation.post_correction_errors().collect(),
                flag: DecodeFlag::from_outcome(&observation.decode_result().outcome),
            };
            // Mirror `extract_profile`'s cautious-experimenter semantics
            // across trials: a miscorrection observed in ANY trial is
            // kept; otherwise the first trial's response stands.
            let informative = response.miscorrection(charged).is_some();
            match *charged {
                [i, j] => {
                    if informative {
                        pairs.insert((i, j), response);
                    } else {
                        pairs.entry((i, j)).or_insert(response);
                    }
                }
                [i, j, l] => {
                    if informative {
                        triples.insert((i, j, l), response);
                    } else {
                        triples.entry((i, j, l)).or_insert(response);
                    }
                }
                _ => unreachable!("patterns are pairs or triples"),
            }
        });
        VisibleErrorProfile::new(k, pairs, triples)
    }

    /// Drives the full reverse-engineering pipeline end to end for the given
    /// target family: extended pattern campaign → [`VisibleErrorProfile`] →
    /// family-dispatched [`reconstruct_code`] at the family's minimal parity
    /// width.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconstructError`] from the reconstruction search; in
    /// particular, asking for a family the observations contradict (e.g.
    /// SEC-DED for a chip whose pairs visibly miscorrect) returns
    /// [`ReconstructError::InconsistentProfile`].
    ///
    /// # Panics
    ///
    /// Panics if the code's dataword length does not match the campaign.
    pub fn reverse_engineer<C: LinearBlockCode + Clone>(
        &self,
        code: &C,
        family: CodeFamily,
        seed: u64,
        max_attempts: usize,
    ) -> Result<ReconstructedCode, ReconstructError> {
        let profile = self.extract_visible_profile(code);
        reconstruct_code(
            &profile,
            family,
            family.min_parity_bits(self.data_bits),
            seed,
            max_attempts,
        )
    }

    /// Runs the campaign against an existing chip through its normal read
    /// path (no ECC bypass, no knowledge of the stored code). This is the
    /// word-at-a-time reference implementation of the campaign; the
    /// chip-constructing [`BeerCampaign::extract_profile`] batches the same
    /// procedure through the burst read path.
    ///
    /// The chip's word 0 is used as the test location; its fault model is
    /// overwritten to emulate testing beyond the refresh margin, where every
    /// charged cell in the targeted pair fails.
    ///
    /// # Panics
    ///
    /// Panics if the chip's dataword length does not match the campaign.
    pub fn extract_profile_from_chip<C: LinearBlockCode>(
        &self,
        chip: &mut MemoryChip<C>,
        seed: u64,
    ) -> MiscorrectionProfile {
        assert_eq!(
            chip.code().data_len(),
            self.data_bits,
            "campaign sized for {} data bits, chip has {}",
            self.data_bits,
            chip.code().data_len()
        );
        // lint:allow(rng-salt) the seed is this campaign's API parameter; callers choose the stream
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pairs = BTreeMap::new();
        for i in 0..self.data_bits {
            for j in (i + 1)..self.data_bits {
                // Test beyond the refresh margin: the two charged data cells
                // are guaranteed to fail; every other cell stores '0' and,
                // being a true cell, cannot fail.
                chip.set_fault_model(0, FaultModel::uniform(&[i, j], 1.0));
                let pattern = BitVec::from_indices(self.data_bits, [i, j]);
                chip.write(0, &pattern);

                let mut target = None;
                for _ in 0..self.trials_per_pattern {
                    let observation = chip.read(0, &mut rng);
                    // A data-visible miscorrection shows up as a third
                    // post-correction error position beyond the pair itself.
                    let mut post = observation.post_correction_errors();
                    if let Some(extra) = post.find(|&p| p != i && p != j) {
                        target = Some(extra);
                    }
                }
                pairs.insert((i, j), target);
            }
        }
        MiscorrectionProfile::new(self.data_bits, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;

    #[test]
    fn recovered_profile_matches_ground_truth_for_random_codes() {
        for seed in 0..8u64 {
            let code = HammingCode::random(16, seed).unwrap();
            let profile = BeerCampaign::new(16).extract_profile(&code);
            assert_eq!(
                profile,
                MiscorrectionProfile::from_code(&code),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn recovered_profile_matches_ground_truth_for_a_71_64_code() {
        let code = HammingCode::random(64, 0xA11CE).unwrap();
        let profile = BeerCampaign::new(64).extract_profile(&code);
        assert_eq!(profile, MiscorrectionProfile::from_code(&code));
    }

    #[test]
    fn batched_campaign_matches_the_scalar_reference_path() {
        for seed in [3u64, 0xBEEF] {
            let code = HammingCode::random(16, seed).unwrap();
            let batched = BeerCampaign::new(16).extract_profile(&code);
            let mut chip = MemoryChip::new(code.clone(), 1);
            let scalar = BeerCampaign::new(16).extract_profile_from_chip(&mut chip, 0xBEE2);
            assert_eq!(batched, scalar, "seed {seed}");
        }
    }

    #[test]
    fn campaign_works_against_an_externally_supplied_chip() {
        let code = HammingCode::random(16, 77).unwrap();
        let mut chip = MemoryChip::new(code.clone(), 4);
        let profile = BeerCampaign::new(16)
            .with_trials_per_pattern(3)
            .extract_profile_from_chip(&mut chip, 1);
        assert!(profile.is_consistent_with(&code));
    }

    #[test]
    fn pattern_count_is_quadratic_in_data_bits() {
        assert_eq!(BeerCampaign::new(4).pattern_count(), 6);
        assert_eq!(BeerCampaign::new(16).pattern_count(), 120);
        assert_eq!(BeerCampaign::new(64).pattern_count(), 2016);
        assert_eq!(BeerCampaign::new(64).data_bits(), 64);
        // The extended campaign adds the triples.
        assert_eq!(BeerCampaign::new(4).visible_pattern_count(), 6 + 4);
        assert_eq!(BeerCampaign::new(16).visible_pattern_count(), 120 + 560);
        // Degenerate datawords have no pairs or triples (and no underflow).
        assert_eq!(BeerCampaign::new(1).visible_pattern_count(), 0);
        assert_eq!(BeerCampaign::new(2).visible_pattern_count(), 1);
    }

    #[test]
    fn visible_profile_campaign_matches_ground_truth_across_families() {
        use crate::profile::VisibleErrorProfile;
        use harp_ecc::ExtendedHammingCode;

        let campaign = BeerCampaign::new(8).with_trials_per_pattern(2);
        let hamming = HammingCode::random(8, 5).unwrap();
        assert_eq!(
            campaign.extract_visible_profile(&hamming),
            VisibleErrorProfile::from_code(&hamming)
        );
        let secded = ExtendedHammingCode::random(8, 5).unwrap();
        assert_eq!(
            campaign.extract_visible_profile(&secded),
            VisibleErrorProfile::from_code(&secded)
        );
    }

    #[test]
    fn reverse_engineering_round_trips_both_families() {
        use crate::reconstruct::{data_visible_equivalent, CodeFamily};
        use harp_ecc::ExtendedHammingCode;

        let campaign = BeerCampaign::new(8);
        let hamming = HammingCode::random(8, 21).unwrap();
        let recovered = campaign
            .reverse_engineer(&hamming, CodeFamily::Hamming, 1, 50_000)
            .expect("Hamming reconstruction converges");
        assert!(data_visible_equivalent(&hamming, &recovered, 3));

        let secded = ExtendedHammingCode::random(8, 21).unwrap();
        let recovered = campaign
            .reverse_engineer(&secded, CodeFamily::ExtendedHamming, 1, 50_000)
            .expect("SEC-DED reconstruction converges");
        assert!(data_visible_equivalent(&secded, &recovered, 3));
    }

    #[test]
    #[should_panic(expected = "campaign sized for")]
    fn mismatched_code_size_is_rejected() {
        let code = HammingCode::random(32, 0).unwrap();
        BeerCampaign::new(16).extract_profile(&code);
    }

    #[test]
    #[should_panic(expected = "data_bits must be nonzero")]
    fn zero_sized_campaign_is_rejected() {
        BeerCampaign::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_are_rejected() {
        BeerCampaign::new(8).with_trials_per_pattern(0);
    }
}
