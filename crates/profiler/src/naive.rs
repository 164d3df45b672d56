//! The Naive baseline profiler.
//!
//! Naive profiling represents the vast majority of previously proposed
//! profilers (§7.1.1): multiple rounds of testing with standard worst-case
//! data patterns, identifying a bit as at-risk when (and only when) it is
//! observed to fail in the post-correction data. Naive profiling has no
//! knowledge of the on-die ECC function and no access to raw data bits, so it
//! suffers from all three profiling challenges of §4.

use std::collections::BTreeSet;

use harp_gf2::BitVec;
use harp_memsim::pattern::{DataPattern, PatternSchedule};
use harp_memsim::ReadObservation;

use crate::checkpoint::ProfilerState;
use crate::traits::{insert_all, Profiler};

/// Round-based profiling from post-correction errors only.
///
/// # Example
///
/// ```
/// use harp_profiler::{NaiveProfiler, Profiler};
/// use harp_memsim::pattern::DataPattern;
///
/// let mut profiler = NaiveProfiler::new(64, DataPattern::Charged, 0);
/// assert_eq!(profiler.name(), "Naive");
/// assert_eq!(profiler.dataword_for_round(0).count_ones(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct NaiveProfiler {
    schedule: PatternSchedule,
    identified: BTreeSet<usize>,
}

impl NaiveProfiler {
    /// Creates a Naive profiler for a `data_bits`-bit dataword using the
    /// given data-pattern family.
    pub fn new(data_bits: usize, pattern: DataPattern, seed: u64) -> Self {
        Self {
            schedule: PatternSchedule::new(pattern, data_bits, seed),
            identified: BTreeSet::new(),
        }
    }

    /// The data-pattern family in use.
    pub fn pattern(&self) -> DataPattern {
        self.schedule.pattern()
    }
}

impl Profiler for NaiveProfiler {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        self.schedule.dataword_into(round, data);
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        // The only signal available is a mismatch between what was written
        // and what the (decoded) read returned.
        insert_all(&mut self.identified, observation.post_correction_errors())
    }

    fn identified(&self) -> &BTreeSet<usize> {
        &self.identified
    }

    fn uses_bypass_read(&self) -> bool {
        false
    }

    fn state(&self) -> ProfilerState {
        ProfilerState::with_identified(self.identified.clone())
    }

    fn restore(&mut self, state: &ProfilerState) {
        self.identified = state.identified.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;
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
    fn naive_cannot_see_corrected_single_bit_errors() {
        let code = HammingCode::random(64, 5).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[7], 1.0));
        let mut profiler = NaiveProfiler::new(64, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 16, 1);
        // On-die ECC always corrects the lone error, so Naive never sees it.
        assert!(profiler.identified().is_empty());
        assert!(profiler.predicted().is_empty());
        assert!(!profiler.uses_bypass_read());
    }

    #[test]
    fn naive_identifies_direct_errors_from_uncorrectable_patterns() {
        let code = HammingCode::random(64, 6).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        // Two always-failing data bits form an uncorrectable pattern every
        // round they are both charged.
        chip.set_fault_model(0, FaultModel::uniform(&[3, 11], 1.0));
        let mut profiler = NaiveProfiler::new(64, DataPattern::Charged, 0);
        run_rounds(&mut profiler, &mut chip, 8, 2);
        assert!(profiler.identified().contains(&3));
        assert!(profiler.identified().contains(&11));
    }

    #[test]
    fn naive_with_random_pattern_eventually_finds_probabilistic_errors() {
        let code = HammingCode::random(64, 7).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[3, 11, 40], 0.5));
        let mut profiler = NaiveProfiler::new(64, DataPattern::Random, 13);
        run_rounds(&mut profiler, &mut chip, 128, 3);
        // With three at-risk bits at p=0.5 over 128 rounds, uncorrectable
        // patterns occur many times; the direct bits should all be seen.
        for bit in [3usize, 11, 40] {
            assert!(
                profiler.identified().contains(&bit),
                "bit {bit} not identified: {:?}",
                profiler.identified()
            );
        }
    }

    #[test]
    fn known_at_risk_equals_identified_for_naive() {
        let mut profiler = NaiveProfiler::new(8, DataPattern::Checkered, 0);
        assert_eq!(profiler.known_at_risk(), BTreeSet::new());
        assert_eq!(profiler.pattern(), DataPattern::Checkered);
        let _ = profiler.dataword_for_round(0);
    }
}
