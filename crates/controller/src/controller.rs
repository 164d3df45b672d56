//! The end-to-end memory controller read/write path.
//!
//! [`MemoryController`] composes the pieces of the paper's HARP-enabled
//! system (Fig. 5): the memory chip with on-die ECC — any
//! [`LinearBlockCode`], so the same controller model runs SEC Hamming,
//! SEC-DED, and DEC BCH words — the bit-repair mechanism with its error
//! profile, and the secondary ECC used for reactive profiling.
//!
//! On every read the controller:
//!
//! 1. receives the post-correction dataword from the chip (on-die ECC has
//!    already corrected what it can — or miscorrected);
//! 2. repairs every profiled bit;
//! 3. hands the remaining word to the secondary ECC, which — during reactive
//!    profiling — corrects and *identifies* at most `t` new at-risk bits,
//!    recording them in the profile;
//! 4. reports any error that exceeded the secondary ECC's capability as an
//!    escaped error (a system-visible failure, the quantity plotted in the
//!    paper's Fig. 10 "after reactive profiling" panel).
//!
//! Scrub-style multi-word accesses go through
//! [`MemoryController::read_range`], which performs the chip phase of the
//! whole range as **one** [`MemoryChip::read_burst`] (single batched syndrome
//! pass, buffers persisted in the controller across calls) and then applies
//! steps 2–4 per word. The scalar [`MemoryController::read`] stays as the
//! byte-identical reference implementation; the controller/module
//! differential suite enforces the equivalence for every code family.

use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::{HammingCode, LinearBlockCode, SecondaryEcc, SecondaryObservation};
use harp_gf2::BitVec;
use harp_memsim::{BurstScratch, MemoryChip, ReadObservation};

use crate::profile::ErrorProfile;
use crate::repair::BitRepairMechanism;

/// The outcome of one controller read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerReadOutcome {
    /// The dataword delivered to the CPU after repair and secondary ECC.
    pub data: BitVec,
    /// Dataword positions newly identified as at risk by reactive profiling
    /// during this read (already recorded into the profile).
    pub newly_identified: Vec<usize>,
    /// Dataword positions whose errors escaped both repair and the secondary
    /// ECC (delivered corrupted to the CPU).
    pub escaped_errors: Vec<usize>,
}

impl ControllerReadOutcome {
    /// Returns `true` if the read delivered correct data.
    pub fn is_correct(&self) -> bool {
        self.escaped_errors.is_empty()
    }
}

/// A memory controller with a bit-repair mechanism and a secondary ECC,
/// generic over the chip's on-die ECC code (default: the paper's SEC
/// Hamming configuration).
#[derive(Debug)]
pub struct MemoryController<C: LinearBlockCode = HammingCode> {
    chip: MemoryChip<C>,
    repair: BitRepairMechanism,
    secondary: SecondaryEcc,
    reactive_profiling_enabled: bool,
    /// Reusable burst buffers for [`MemoryController::read_range`],
    /// persisted so steady-state scrub passes allocate nothing chip-side.
    scratch: BurstScratch,
}

impl<C: LinearBlockCode + Clone> Clone for MemoryController<C> {
    fn clone(&self) -> Self {
        // The scratch is a pure buffer cache, so a clone starts with fresh
        // (lazily sized) buffers; read outcomes are unaffected.
        Self {
            chip: self.chip.clone(),
            repair: self.repair.clone(),
            secondary: self.secondary.clone(),
            reactive_profiling_enabled: self.reactive_profiling_enabled,
            scratch: BurstScratch::new(),
        }
    }
}

impl<C: LinearBlockCode> MemoryController<C> {
    /// Creates a controller around `chip` with an empty error profile.
    pub fn new(chip: MemoryChip<C>, secondary: SecondaryEcc) -> Self {
        Self {
            chip,
            repair: BitRepairMechanism::empty(),
            secondary,
            reactive_profiling_enabled: true,
            scratch: BurstScratch::new(),
        }
    }

    /// Enables or disables reactive profiling (identification of new at-risk
    /// bits by the secondary ECC). Correction still happens either way.
    pub fn set_reactive_profiling(&mut self, enabled: bool) {
        self.reactive_profiling_enabled = enabled;
    }

    /// The underlying memory chip.
    pub fn chip(&self) -> &MemoryChip<C> {
        &self.chip
    }

    /// Mutable access to the underlying memory chip (e.g. to install fault
    /// models in a simulation).
    pub fn chip_mut(&mut self) -> &mut MemoryChip<C> {
        &mut self.chip
    }

    /// The current error profile.
    pub fn profile(&self) -> &ErrorProfile {
        self.repair.profile()
    }

    /// Mutable access to the error profile (used by active profilers).
    pub fn profile_mut(&mut self) -> &mut ErrorProfile {
        self.repair.profile_mut()
    }

    /// The secondary ECC configuration.
    pub fn secondary(&self) -> &SecondaryEcc {
        &self.secondary
    }

    /// Applies a deferred repair-table update: marks `bits` of `word` as
    /// at risk, as an out-of-band profiler would after observing a read
    /// outcome. Returns how many of the bits were newly marked.
    ///
    /// This is the seam the live-traffic co-scheduler uses when reactive
    /// profiling runs *outside* the read path (the read itself has
    /// [`MemoryController::set_reactive_profiling`] disabled, and
    /// identifications land here after a configurable update latency).
    pub fn apply_repair_update<I: IntoIterator<Item = usize>>(
        &mut self,
        word: usize,
        bits: I,
    ) -> usize {
        bits.into_iter()
            .filter(|&bit| self.repair.profile_mut().mark(word, bit))
            .count()
    }

    /// Writes a dataword to ECC word `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or the dataword length is wrong.
    pub fn write(&mut self, word: usize, data: &BitVec) {
        self.chip.write(word, data);
    }

    /// Reads ECC word `word` through the full path: on-die ECC → bit repair →
    /// secondary ECC (reactive profiling).
    ///
    /// This is the scalar reference implementation;
    /// [`MemoryController::read_range`] is its batched, byte-identical twin.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn read<R: Rng + ?Sized>(&mut self, word: usize, rng: &mut R) -> ControllerReadOutcome {
        let observation = self.chip.read(word, rng);
        finish_read(
            &mut self.repair,
            &self.secondary,
            self.reactive_profiling_enabled,
            word,
            &observation,
        )
    }

    /// Reads every ECC word in `words` through the full path as one scrub
    /// burst: the chip phase runs as a single [`MemoryChip::read_burst`]
    /// (fault sampling in word order on the same RNG stream a scalar `read`
    /// loop would consume, then **one** batched bit-sliced syndrome-kernel
    /// pass whose clean-word masks let all clean words skip the syndrome
    /// resolve), and repair + secondary ECC are applied per word in word
    /// order.
    ///
    /// Outcomes — including profile updates made by reactive profiling — are
    /// byte-identical to calling [`MemoryController::read`] on each word in
    /// order with the same RNG, which stays the reference implementation.
    /// The burst buffers persist inside the controller, so steady-state
    /// scrub passes perform no chip-side heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, reversed, or extends past the chip's word
    /// count.
    pub fn read_range<R: Rng + ?Sized>(
        &mut self,
        words: Range<usize>,
        rng: &mut R,
    ) -> Vec<ControllerReadOutcome> {
        let Self {
            chip,
            repair,
            secondary,
            reactive_profiling_enabled,
            scratch,
        } = self;
        let observations = chip.read_burst(words.clone(), rng, scratch);
        observations
            .iter()
            .zip(words)
            .map(|(observation, word)| {
                finish_read(
                    repair,
                    secondary,
                    *reactive_profiling_enabled,
                    word,
                    observation,
                )
            })
            .collect()
    }
}

/// Steps 2–4 of the read path (bit repair → secondary ECC → escape
/// reporting) for one chip observation. Shared verbatim by the scalar
/// [`MemoryController::read`] and the burst [`MemoryController::read_range`],
/// so the two paths cannot drift apart.
fn finish_read(
    repair: &mut BitRepairMechanism,
    secondary: &SecondaryEcc,
    reactive_profiling_enabled: bool,
    word: usize,
    observation: &ReadObservation,
) -> ControllerReadOutcome {
    let written = observation.written_data().clone();
    let repaired = repair.repair_read(word, observation.post_correction_data(), &written);

    match secondary.observe(&written, &repaired) {
        SecondaryObservation::Clean => ControllerReadOutcome {
            data: repaired,
            newly_identified: Vec::new(),
            escaped_errors: Vec::new(),
        },
        SecondaryObservation::Identified { positions } => {
            if reactive_profiling_enabled {
                repair.profile_mut().mark_all(word, positions.clone());
            }
            // The secondary ECC corrected the error(s) before delivery.
            ControllerReadOutcome {
                data: written,
                newly_identified: positions,
                escaped_errors: Vec::new(),
            }
        }
        SecondaryObservation::Unsafe { residual_errors } => ControllerReadOutcome {
            data: repaired,
            newly_identified: Vec::new(),
            escaped_errors: residual_errors,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;
    use harp_memsim::FaultModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn controller_with_faults(at_risk: &[usize], probability: f64) -> MemoryController {
        let code = HammingCode::random(64, 31).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(at_risk, probability));
        MemoryController::new(chip, SecondaryEcc::ideal_sec())
    }

    #[test]
    fn clean_word_reads_correctly() {
        let mut controller = controller_with_faults(&[], 0.0);
        let data = BitVec::from_u64(64, 0x0123_4567_89AB_CDEF);
        controller.write(0, &data);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let outcome = controller.read(0, &mut rng);
        assert!(outcome.is_correct());
        assert_eq!(outcome.data, data);
        assert!(outcome.newly_identified.is_empty());
    }

    #[test]
    fn single_at_risk_bit_never_escapes() {
        // One raw error: on-die ECC corrects it; nothing reaches the
        // secondary ECC.
        let mut controller = controller_with_faults(&[12], 1.0);
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = controller.read(0, &mut rng);
        assert!(outcome.is_correct());
        assert!(outcome.newly_identified.is_empty());
    }

    #[test]
    fn reactive_profiling_identifies_single_post_correction_errors() {
        // Two at-risk data bits that always fail: on-die ECC cannot correct
        // the pair, but after repairing one via the profile only one error at
        // a time reaches the secondary ECC.
        let mut controller = controller_with_faults(&[3, 40], 1.0);
        // Pre-profile one of the two bits (as HARP's active phase would).
        controller.profile_mut().mark(0, 3);
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let outcome = controller.read(0, &mut rng);
        assert!(
            outcome.is_correct(),
            "escaped: {:?}",
            outcome.escaped_errors
        );
        // The remaining at-risk bit (40) — or a miscorrection position — is
        // identified and recorded.
        assert!(!outcome.newly_identified.is_empty());
        for &bit in &outcome.newly_identified {
            assert!(controller.profile().contains(0, bit));
        }
    }

    #[test]
    fn unprofiled_multi_bit_errors_escape() {
        let mut controller = controller_with_faults(&[3, 40, 55], 1.0);
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let outcome = controller.read(0, &mut rng);
        assert!(!outcome.is_correct());
        assert!(outcome.escaped_errors.len() >= 2);
        // Nothing was identified because the secondary ECC was overwhelmed.
        assert!(outcome.newly_identified.is_empty());
    }

    #[test]
    fn fully_profiled_word_always_reads_correctly() {
        let mut controller = controller_with_faults(&[3, 40, 55], 1.0);
        controller.profile_mut().mark_all(0, [3, 40, 55]);
        // Also profile any possible miscorrection targets by brute force:
        // with all direct bits repaired, at most one indirect error remains,
        // which the SEC secondary ECC handles.
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let outcome = controller.read(0, &mut rng);
            assert!(outcome.is_correct());
        }
    }

    #[test]
    fn disabling_reactive_profiling_still_corrects_but_does_not_record() {
        let mut controller = controller_with_faults(&[3, 40], 1.0);
        controller.profile_mut().mark(0, 3);
        controller.set_reactive_profiling(false);
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let outcome = controller.read(0, &mut rng);
        assert!(outcome.is_correct());
        assert!(!outcome.newly_identified.is_empty());
        // The identified bit was NOT recorded.
        for &bit in &outcome.newly_identified {
            assert!(!controller.profile().contains(0, bit));
        }
    }

    #[test]
    fn read_range_matches_the_scalar_read_loop() {
        let build = || {
            let code = HammingCode::random(64, 41).unwrap();
            let mut chip = MemoryChip::new(code, 5);
            chip.set_fault_model(0, FaultModel::uniform(&[3, 40], 1.0));
            chip.set_fault_model(2, FaultModel::uniform(&[7], 0.5));
            chip.set_fault_model(3, FaultModel::uniform(&[3, 40, 55], 1.0));
            let mut controller = MemoryController::new(chip, SecondaryEcc::ideal_sec());
            controller.profile_mut().mark(0, 3);
            for word in 0..5 {
                controller.write(word, &BitVec::ones(64));
            }
            controller
        };

        let mut scalar = build();
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(77);
        let mut scalar_outcomes = Vec::new();
        for _round in 0..3 {
            for word in 0..5 {
                scalar_outcomes.push(scalar.read(word, &mut scalar_rng));
            }
        }

        let mut burst = build();
        let mut burst_rng = ChaCha8Rng::seed_from_u64(77);
        let mut burst_outcomes = Vec::new();
        for _round in 0..3 {
            burst_outcomes.extend(burst.read_range(0..5, &mut burst_rng));
        }

        assert_eq!(burst_outcomes, scalar_outcomes);
        // Reactive profiling must have recorded the same bits on both paths.
        assert_eq!(burst.profile(), scalar.profile());
    }

    #[test]
    fn controller_is_generic_over_the_code() {
        // A SEC-DED chip behind the same controller: the double error is
        // detected (not miscorrected), reaches the secondary ECC as two
        // errors, and escapes its single-error capability.
        let code = harp_ecc::ExtendedHammingCode::random(64, 19).unwrap();
        let mut chip = MemoryChip::new(code, 2);
        chip.set_fault_model(0, FaultModel::uniform(&[3, 9], 1.0));
        let mut controller = MemoryController::new(chip, SecondaryEcc::ideal_sec());
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let outcomes = controller.read_range(0..2, &mut rng);
        assert_eq!(outcomes[0].escaped_errors, vec![3, 9]);
        assert!(outcomes[1].is_correct());
    }

    #[test]
    fn cloned_controllers_read_identically() {
        let mut controller = controller_with_faults(&[5, 9], 0.5);
        controller.write(0, &BitVec::ones(64));
        let mut clone = controller.clone();
        let mut rng_a = ChaCha8Rng::seed_from_u64(12);
        let mut rng_b = ChaCha8Rng::seed_from_u64(12);
        assert_eq!(
            controller.read_range(0..1, &mut rng_a),
            clone.read_range(0..1, &mut rng_b)
        );
    }

    #[test]
    #[should_panic(expected = "empty or reversed")]
    fn read_range_rejects_empty_ranges() {
        let mut controller = controller_with_faults(&[], 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        controller.read_range(0..0, &mut rng);
    }

    #[test]
    fn apply_repair_update_marks_only_new_bits() {
        let mut controller = controller_with_faults(&[3, 40], 1.0);
        assert_eq!(controller.apply_repair_update(0, [3, 40]), 2);
        // Re-applying the same update is idempotent.
        assert_eq!(controller.apply_repair_update(0, [3, 40, 55]), 1);
        for bit in [3, 40, 55] {
            assert!(controller.profile().contains(0, bit));
        }
        // A deferred update has the same effect as inline reactive
        // profiling: the fully profiled word now reads correctly.
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert!(controller.read(0, &mut rng).is_correct());
    }
}
