//! The HARP profilers (the paper's contribution, §6).
//!
//! HARP's key idea is to split post-correction errors into *direct* errors
//! (raw errors in the systematically encoded data bits) and *indirect* errors
//! (miscorrections), and to identify the two classes separately:
//!
//! * the **active phase** uses the on-die-ECC decode-bypass read path to see
//!   raw data-bit values, so identifying direct-error at-risk bits is exactly
//!   as easy as profiling a chip without on-die ECC;
//! * the **reactive phase** (see [`crate::reactive`]) safely identifies
//!   indirect errors at runtime, because once all direct bits are repaired at
//!   most one indirect error can occur at a time.
//!
//! [`HarpUProfiler`] implements the unaware variant; [`HarpAProfiler`] also
//! knows the parity-check matrix and precomputes indirect-error at-risk bits
//! from the direct bits found so far; [`HarpABeepProfiler`] additionally
//! crafts BEEP-style data patterns to actively expose the indirect errors
//! that HARP-A cannot predict (those provoked by at-risk parity bits).

use std::collections::BTreeSet;

use harp_ecc::analysis::IndirectPredictor;
use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;
use harp_memsim::pattern::{DataPattern, PatternSchedule};
use harp_memsim::ReadObservation;

use crate::beep::craft_beep_pattern;
use crate::checkpoint::ProfilerState;
use crate::traits::{insert_all, Profiler};

/// HARP-Unaware: active profiling through the decode-bypass read path,
/// without knowledge of the on-die ECC parity-check matrix.
///
/// # Example
///
/// ```
/// use harp_profiler::{HarpUProfiler, Profiler};
/// use harp_memsim::pattern::DataPattern;
///
/// let profiler = HarpUProfiler::new(64, DataPattern::Random, 1);
/// assert!(profiler.uses_bypass_read());
/// ```
#[derive(Debug, Clone)]
pub struct HarpUProfiler {
    schedule: PatternSchedule,
    identified: BTreeSet<usize>,
}

impl HarpUProfiler {
    /// Creates a HARP-U profiler for a `data_bits`-bit dataword.
    pub fn new(data_bits: usize, pattern: DataPattern, seed: u64) -> Self {
        Self {
            schedule: PatternSchedule::new(pattern, data_bits, seed),
            identified: BTreeSet::new(),
        }
    }
}

impl Profiler for HarpUProfiler {
    fn name(&self) -> &'static str {
        "HARP-U"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        self.schedule.dataword_into(round, data);
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        // Raw data bits are read through the bypass path: every raw error in
        // the data region is visible directly, independent of what on-die ECC
        // would have done with it.
        insert_all(&mut self.identified, observation.direct_errors())
    }

    fn identified(&self) -> &BTreeSet<usize> {
        &self.identified
    }

    fn uses_bypass_read(&self) -> bool {
        true
    }

    fn state(&self) -> ProfilerState {
        ProfilerState::with_identified(self.identified.clone())
    }

    fn restore(&mut self, state: &ProfilerState) {
        self.identified = state.identified.clone();
    }
}

/// HARP-Aware: HARP-U plus knowledge of the parity-check matrix, used to
/// precompute bits at risk of indirect error from the direct-error bits
/// identified so far (§6.3.1). Predictions grow incrementally: each newly
/// identified bit decodes only the patterns it adds
/// ([`IndirectPredictor`]).
#[derive(Debug, Clone)]
pub struct HarpAProfiler<C: LinearBlockCode = harp_ecc::HammingCode> {
    code: C,
    inner: HarpUProfiler,
    predictor: IndirectPredictor,
}

impl<C: LinearBlockCode> HarpAProfiler<C> {
    /// Creates a HARP-A profiler for the given on-die ECC code.
    pub fn new(code: C, pattern: DataPattern, seed: u64) -> Self {
        let inner = HarpUProfiler::new(code.data_len(), pattern, seed);
        Self {
            code,
            inner,
            predictor: IndirectPredictor::default(),
        }
    }

    /// Records one direct-error bit. Returns whether it was new, and
    /// whether the predictions moved with it.
    fn identify(&mut self, bit: usize) -> (bool, bool) {
        if !self.inner.identified.insert(bit) {
            return (false, false);
        }
        let predicted = self.predictor.predicted();
        let (held, before) = (predicted.contains(&bit), predicted.len());
        self.predictor.add_direct(&self.code, bit);
        // A new direct bit leaves the predictions, and every other change
        // adds to them.
        (true, held || self.predictor.predicted().len() != before)
    }

    /// Replaces the identified set and rebuilds the predictions from it,
    /// one bit at a time.
    fn restore_identified(&mut self, identified: &BTreeSet<usize>) {
        self.inner.identified = identified.clone();
        self.predictor.reset();
        for &bit in identified {
            self.predictor.add_direct(&self.code, bit);
        }
    }
}

impl<C: LinearBlockCode + Send> Profiler for HarpAProfiler<C> {
    fn name(&self) -> &'static str {
        "HARP-A"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        self.inner.dataword_into(round, data);
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        // Predictions are a function of the direct set, so they change
        // only with it.
        observation
            .direct_errors()
            .fold(false, |changed, bit| self.identify(bit).0 | changed)
    }

    fn identified(&self) -> &BTreeSet<usize> {
        self.inner.identified()
    }

    fn predicted(&self) -> BTreeSet<usize> {
        self.predictor.predicted().clone()
    }

    fn uses_bypass_read(&self) -> bool {
        true
    }

    fn state(&self) -> ProfilerState {
        ProfilerState::with_identified(self.inner.identified.clone())
    }

    fn restore(&mut self, state: &ProfilerState) {
        // Predictions are derived from the direct set; recompute rather than
        // store them so the checkpoint stays minimal and cannot go stale.
        self.restore_identified(&state.identified);
    }
}

/// HARP-A combined with BEEP (§7.3.1): once HARP-A has identified the direct
/// at-risk bits, BEEP-style data patterns are crafted to provoke the
/// remaining indirect errors (including those caused by at-risk parity bits,
/// which HARP-A cannot predict). Observed post-correction errors are added to
/// the identified set alongside the bypass observations. Both sets only
/// grow, so the published union grows with them, bit by bit.
#[derive(Debug, Clone)]
pub struct HarpABeepProfiler<C: LinearBlockCode = harp_ecc::HammingCode> {
    harp_a: HarpAProfiler<C>,
    observed_indirect: BTreeSet<usize>,
    union: BTreeSet<usize>,
    crafted_rounds: usize,
}

impl<C: LinearBlockCode> HarpABeepProfiler<C> {
    /// Creates a HARP-A+BEEP profiler for the given on-die ECC code.
    pub fn new(code: C, pattern: DataPattern, seed: u64) -> Self {
        Self {
            harp_a: HarpAProfiler::new(code, pattern, seed),
            observed_indirect: BTreeSet::new(),
            union: BTreeSet::new(),
            crafted_rounds: 0,
        }
    }
}

impl<C: LinearBlockCode + Send> Profiler for HarpABeepProfiler<C> {
    fn name(&self) -> &'static str {
        "HARP-A+BEEP"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        // Alternate between BEEP-crafted patterns (to provoke indirect
        // errors from known direct bits) and standard patterns (to keep
        // finding direct bits that have not failed yet).
        let direct = self.harp_a.identified();
        if direct.len() >= 2 && round.is_multiple_of(2) {
            self.crafted_rounds += 1;
            let data_bits = self.harp_a.code.data_len();
            craft_beep_pattern(data_bits, direct, self.crafted_rounds, data);
        } else {
            self.harp_a.dataword_into(round, data);
        }
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        let mut changed = false;
        for bit in observation.direct_errors() {
            let (new, moved) = self.harp_a.identify(bit);
            if new {
                // The union may already hold the bit as an observed
                // indirect one; the change is then in HARP-A's predictions,
                // if they moved.
                changed |= self.union.insert(bit) | moved;
            }
        }
        // Unlike plain HARP, also watch the post-correction data so that
        // miscorrections provoked by the crafted patterns are recorded.
        for bit in observation.post_correction_errors() {
            if !observation.is_direct_error(bit) && self.observed_indirect.insert(bit) {
                changed |= self.union.insert(bit);
            }
        }
        changed
    }

    fn identified(&self) -> &BTreeSet<usize> {
        &self.union
    }

    fn predicted(&self) -> BTreeSet<usize> {
        self.harp_a.predicted()
    }

    fn uses_bypass_read(&self) -> bool {
        true
    }

    fn state(&self) -> ProfilerState {
        ProfilerState {
            // The *direct* (bypass-observed) set, not the published union —
            // the union is derived state, rebuilt on restore.
            identified: self.harp_a.inner.identified.clone(),
            observed_indirect: self.observed_indirect.clone(),
            crafted_rounds: self.crafted_rounds,
        }
    }

    fn restore(&mut self, state: &ProfilerState) {
        self.harp_a.restore_identified(&state.identified);
        self.observed_indirect = state.observed_indirect.clone();
        self.crafted_rounds = state.crafted_rounds;
        self.union = state
            .identified
            .union(&state.observed_indirect)
            .copied()
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::analysis::FailureDependence;
    use harp_ecc::{ErrorSpace, HammingCode};
    use harp_memsim::{FaultModel, MemoryChip};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_rounds(profiler: &mut dyn Profiler, chip: &mut MemoryChip, rounds: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for round in 0..rounds {
            let data = profiler.dataword_for_round(round);
            chip.write(0, &data);
            let obs = chip.read(0, &mut rng);
            profiler.observe_round(round, &obs);
        }
    }

    #[test]
    fn harp_u_identifies_single_corrected_errors_immediately() {
        let code = HammingCode::random(64, 8).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[7], 1.0));
        let mut profiler = HarpUProfiler::new(64, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 1, 1);
        // The error is corrected by on-die ECC, but the bypass path sees it.
        assert!(profiler.identified().contains(&7));
    }

    #[test]
    fn harp_u_achieves_full_direct_coverage_quickly() {
        let code = HammingCode::random(64, 9).unwrap();
        let at_risk = [2usize, 19, 44, 63];
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 0.5));
        let mut profiler = HarpUProfiler::new(64, DataPattern::Random, 3);
        run_rounds(&mut profiler, &mut chip, 32, 2);
        for bit in at_risk {
            assert!(profiler.identified().contains(&bit), "missed {bit}");
        }
    }

    #[test]
    fn harp_u_does_not_identify_indirect_errors() {
        // HARP-U bypasses the correction process, so miscorrection positions
        // never appear in its identified set (paper §7.3.1).
        let code = HammingCode::random(64, 10).unwrap();
        let at_risk = [1usize, 30];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 1.0));
        let mut profiler = HarpUProfiler::new(64, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 16, 3);
        for bit in space.indirect_at_risk() {
            assert!(!profiler.identified().contains(bit));
        }
        assert_eq!(
            profiler.identified().iter().copied().collect::<Vec<_>>(),
            vec![1, 30]
        );
    }

    #[test]
    fn harp_a_predicts_indirect_errors_from_direct_bits() {
        let code = HammingCode::random(64, 11).unwrap();
        let at_risk = [4usize, 17, 52];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code.clone(), 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 1.0));
        let mut profiler = HarpAProfiler::new(code, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 4, 4);
        // All direct bits identified -> the prediction equals the ground
        // truth indirect set (all at-risk bits are data bits here).
        assert_eq!(&profiler.predicted(), space.indirect_at_risk());
        // Known-at-risk covers everything.
        let known = profiler.known_at_risk();
        assert!(space.post_correction_at_risk().is_subset(&known));
    }

    #[test]
    fn harp_a_cannot_predict_parity_driven_indirect_errors() {
        let code = HammingCode::random(64, 12).unwrap();
        // One data bit and one parity bit at risk.
        let at_risk = [5usize, 66];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code.clone(), 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 1.0));
        let mut profiler = HarpAProfiler::new(code, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 8, 5);
        // The single direct bit is found...
        assert!(profiler.identified().contains(&5));
        // ...but any indirect error provoked by the parity bit is not
        // predictable from the direct set alone.
        for bit in &profiler.predicted() {
            assert!(space.indirect_at_risk().contains(bit));
        }
    }

    #[test]
    fn harp_a_identified_matches_harp_u() {
        // The paper notes HARP-A and HARP-U have identical coverage of bits
        // at risk of direct error.
        let code = HammingCode::random(64, 13).unwrap();
        let at_risk = [3usize, 9, 27, 55];
        let mut chip_u = MemoryChip::new(code.clone(), 1);
        chip_u.set_fault_model(0, FaultModel::uniform(&at_risk, 0.75));
        let mut chip_a = chip_u.clone();
        let mut harp_u = HarpUProfiler::new(64, DataPattern::Random, 17);
        let mut harp_a = HarpAProfiler::new(code, DataPattern::Random, 17);
        run_rounds(&mut harp_u, &mut chip_u, 32, 6);
        run_rounds(&mut harp_a, &mut chip_a, 32, 6);
        assert_eq!(harp_u.identified(), harp_a.identified());
    }

    #[test]
    fn harp_a_beep_observes_indirect_errors_it_provokes() {
        let code = HammingCode::random(64, 14).unwrap();
        let at_risk = [6usize, 21, 47];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code.clone(), 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 1.0));
        let mut profiler = HarpABeepProfiler::new(code, DataPattern::Random, 23);
        run_rounds(&mut profiler, &mut chip, 64, 7);
        // Direct bits are all found (bypass path).
        for bit in at_risk {
            assert!(profiler.identified().contains(&bit), "missed direct {bit}");
        }
        // Anything else it reports must be genuinely at risk.
        for bit in profiler.identified() {
            assert!(
                space.post_correction_at_risk().contains(bit) || at_risk.contains(bit),
                "spurious identification of bit {bit}"
            );
        }
        assert_eq!(profiler.name(), "HARP-A+BEEP");
    }
}
