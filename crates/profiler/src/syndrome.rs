//! HARP-S: active profiling via the *syndrome on correction* transparency
//! option.
//!
//! §5.2 of the paper considers two ways of exposing pre-correction errors in
//! the data bits to the profiler:
//!
//! 1. **Syndrome on correction** — the on-die ECC reports the error syndrome
//!    (equivalently, the position it corrected) on every correction event;
//! 2. **Decode bypass** — a read path that returns raw data bits
//!    (implemented by [`crate::HarpUProfiler`]).
//!
//! The paper builds HARP on option 2; this module implements option 1 as an
//! ablation. Because the data bits are systematically encoded, the raw data
//! values can be reconstructed exactly from the post-correction data plus the
//! reported correction position: undo the decoder's flip if it landed in the
//! data region. Consequently HARP-S achieves *identical* direct-error
//! coverage to HARP-U, demonstrating that either chip modification suffices.

use std::collections::BTreeSet;

use harp_gf2::BitVec;
use harp_memsim::pattern::{DataPattern, PatternSchedule};
use harp_memsim::ReadObservation;

use crate::checkpoint::ProfilerState;
use crate::traits::{insert_all, Profiler};

/// HARP with the syndrome-on-correction interface instead of a bypass read.
///
/// # Example
///
/// ```
/// use harp_profiler::{syndrome::HarpSProfiler, Profiler};
/// use harp_memsim::pattern::DataPattern;
///
/// let profiler = HarpSProfiler::new(64, DataPattern::Random, 3);
/// assert_eq!(profiler.name(), "HARP-S");
/// assert!(!profiler.uses_bypass_read());
/// ```
#[derive(Debug, Clone)]
pub struct HarpSProfiler {
    schedule: PatternSchedule,
    identified: BTreeSet<usize>,
}

impl HarpSProfiler {
    /// Creates a HARP-S profiler for a `data_bits`-bit dataword.
    pub fn new(data_bits: usize, pattern: DataPattern, seed: u64) -> Self {
        Self {
            schedule: PatternSchedule::new(pattern, data_bits, seed),
            identified: BTreeSet::new(),
        }
    }

    /// Reconstructs the raw (pre-correction) data-bit error positions from a
    /// normal read plus the reported correction positions, without
    /// allocating: the raw data is the post-correction data with each
    /// corrected data bit flipped back, so its errors are the
    /// post-correction errors with the corrected data positions toggled.
    /// Corrections in the parity region do not affect the data bits.
    fn reconstruct_direct_errors(
        observation: &ReadObservation,
    ) -> impl Iterator<Item = usize> + '_ {
        let written = observation.written_data();
        let post = observation.post_correction_data();
        let corrected = observation.decode_result().outcome.corrected_positions();
        let uncorrected = observation
            .post_correction_errors()
            .filter(move |position| !corrected.contains(position));
        // A corrected data bit that now matches the written one was stored
        // flipped; one that now differs was miscorrected, so stored right.
        let fixed = corrected.iter().copied().filter(move |&position| {
            position < written.len() && post.get(position) == written.get(position)
        });
        uncorrected.chain(fixed)
    }
}

impl Profiler for HarpSProfiler {
    fn name(&self) -> &'static str {
        "HARP-S"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        self.schedule.dataword_into(round, data);
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        insert_all(
            &mut self.identified,
            Self::reconstruct_direct_errors(observation),
        )
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
    use crate::harp::HarpUProfiler;
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
    fn reconstruction_matches_the_bypass_path_for_single_errors() {
        let code = HammingCode::random(64, 51).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[9], 1.0));
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let obs = chip.read(0, &mut rng);
        assert!(HarpSProfiler::reconstruct_direct_errors(&obs).eq(obs.direct_errors()));
    }

    #[test]
    fn reconstruction_matches_the_bypass_path_under_multi_bit_errors() {
        let code = HammingCode::random(64, 52).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[3, 27, 44, 68], 0.5));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for round in 0..64usize {
            let data = if round % 2 == 0 {
                BitVec::ones(64)
            } else {
                BitVec::from_u64(64, 0xAAAA_5555_F0F0_0F0F ^ round as u64)
            };
            chip.write(0, &data);
            let obs = chip.read(0, &mut rng);
            let mut reconstructed: Vec<usize> =
                HarpSProfiler::reconstruct_direct_errors(&obs).collect();
            reconstructed.sort_unstable();
            assert_eq!(
                reconstructed,
                obs.direct_errors().collect::<Vec<_>>(),
                "round {round}"
            );
        }
    }

    #[test]
    fn harp_s_and_harp_u_achieve_identical_coverage() {
        let code = HammingCode::random(64, 53).unwrap();
        let at_risk = [2usize, 18, 41, 63];
        let mut chip_s = MemoryChip::new(code, 1);
        chip_s.set_fault_model(0, FaultModel::uniform(&at_risk, 0.5));
        let mut chip_u = chip_s.clone();
        let mut harp_s = HarpSProfiler::new(64, DataPattern::Random, 9);
        let mut harp_u = HarpUProfiler::new(64, DataPattern::Random, 9);
        run_rounds(&mut harp_s, &mut chip_s, 48, 3);
        run_rounds(&mut harp_u, &mut chip_u, 48, 3);
        assert_eq!(harp_s.identified(), harp_u.identified());
        assert!(harp_s.identified().contains(&2));
    }

    #[test]
    fn harp_s_requires_no_bypass_read() {
        let profiler = HarpSProfiler::new(64, DataPattern::Charged, 0);
        assert!(!profiler.uses_bypass_read());
        assert!(profiler.predicted().is_empty());
    }
}
