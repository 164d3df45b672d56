//! The BEEP baseline profiler.
//!
//! BEEP is the profiling algorithm supported by the BEER reverse-engineering
//! methodology (Patel et al., MICRO 2020): it crafts data patterns intended
//! to systematically provoke post-correction errors. Following the paper's
//! description (§7.1.1), our implementation:
//!
//! * uses a standard random data pattern until the first post-correction
//!   error is confirmed (the *bootstrapping* phase);
//! * afterwards, treats the observed post-correction error positions as
//!   suspected at-risk bits and crafts patterns that *charge* a targeted
//!   combination of them while discharging all other data bits, so that if
//!   the targeted combination fails the decoder is forced into a
//!   miscorrection that exposes a new at-risk bit.
//!
//! The paper's BEEP builds its patterns with a SAT solver over the
//! parity-check matrix; this implementation targets the combinations
//! directly, so crafting needs only the dataword length and the suspected
//! bits, never the code itself. Crafted patterns deliberately discharge
//! untargeted cells, which is exactly why BEEP is slow at (and sometimes
//! incapable of) achieving full coverage of direct errors — the behaviour
//! the paper reports in §7.2.1.

use std::collections::BTreeSet;

use harp_gf2::BitVec;
use harp_memsim::pattern::{DataPattern, PatternSchedule};
use harp_memsim::ReadObservation;

use crate::checkpoint::ProfilerState;
use crate::traits::{insert_all, Profiler};

/// Crafts a `data_len`-bit BEEP test pattern into `out`, reusing its
/// buffer: charge a targeted combination of the known at-risk dataword
/// positions and discharge every other data bit.
///
/// `iteration` selects which combination (pairs first, then triples) is
/// targeted, cycling deterministically so repeated calls explore different
/// combinations.
///
/// # Panics
///
/// Panics if any known position is not below `data_len`.
pub fn craft_beep_pattern(
    data_len: usize,
    known_at_risk: &BTreeSet<usize>,
    iteration: usize,
    out: &mut BitVec,
) {
    if let Some(&last) = known_at_risk.last() {
        assert!(
            last < data_len,
            "known at-risk position {last} is not a data bit"
        );
    }
    out.reset(data_len);
    match known_at_risk.len() {
        // Nothing to target yet: a discharged word (the caller normally
        // uses the random schedule in this situation).
        0 => {}
        1 => {
            // A single suspected bit cannot form an uncorrectable
            // combination by itself; charge it and vary the remaining bits
            // deterministically so different parity-bit values are explored
            // across iterations.
            let only = *known_at_risk.first().expect("one known bit");
            for bit in 0..data_len {
                if bit == only || (bit.wrapping_mul(31) ^ iteration).is_multiple_of(3) {
                    out.set(bit, true);
                }
            }
        }
        m => {
            // The targeted indices ascend, so one pass over the set finds
            // their bits.
            let (target, len) = target_combination(m, iteration);
            let mut targets = target[..len].iter().peekable();
            for (index, &bit) in known_at_risk.iter().enumerate() {
                if targets.next_if_eq(&&index).is_some() {
                    out.set(bit, true);
                }
            }
        }
    }
}

/// The combination of `m ≥ 2` suspected bits that BEEP targets on crafted
/// iteration `iteration`, as up to three indices into the sorted bits: the
/// `iteration % (C(m, 2) + C(m, 3))`-th of all pairs in lexicographic
/// order followed by all triples in lexicographic order. Computed directly,
/// without listing the combinations.
fn target_combination(m: usize, iteration: usize) -> ([usize; 3], usize) {
    let pairs = m * (m - 1) / 2;
    let triples = pairs * (m - 2) / 3;
    let index = iteration % (pairs + triples);
    if index < pairs {
        // `m - 1 - i` pairs start at bit i.
        let (i, rest) = locate(index, |i| m - 1 - i);
        return ([i, i + 1 + rest, 0], 2);
    }
    // `C(m - 1 - i, 2)` triples start at bit i, and `m - 1 - j` of those
    // continue with bit j.
    let (i, rest) = locate(index - pairs, |i| (m - 1 - i) * (m - 2 - i) / 2);
    let (step, rest) = locate(rest, |step| m - 2 - i - step);
    let j = i + 1 + step;
    ([i, j, j + 1 + rest], 3)
}

/// Splits `index` over consecutive blocks of `block(0)`, `block(1)`, …
/// items: the block it falls in and its offset there.
fn locate(mut index: usize, block: impl Fn(usize) -> usize) -> (usize, usize) {
    let mut i = 0;
    while index >= block(i) {
        index -= block(i);
        i += 1;
    }
    (i, index)
}

/// The BEEP profiler: post-correction observation plus pattern crafting
/// that targets combinations of the bits observed so far.
///
/// # Example
///
/// ```
/// use harp_memsim::pattern::DataPattern;
/// use harp_profiler::{BeepProfiler, Profiler};
///
/// let mut profiler = BeepProfiler::new(64, DataPattern::Random, 9);
/// assert_eq!(profiler.name(), "BEEP");
/// // Before any error is confirmed, BEEP falls back to the random pattern.
/// let word = profiler.dataword_for_round(0);
/// assert_eq!(word.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct BeepProfiler {
    schedule: PatternSchedule,
    identified: BTreeSet<usize>,
    crafted_iterations: usize,
}

impl BeepProfiler {
    /// Creates a BEEP profiler for a `data_bits`-bit dataword.
    pub fn new(data_bits: usize, fallback_pattern: DataPattern, seed: u64) -> Self {
        Self {
            schedule: PatternSchedule::new(fallback_pattern, data_bits, seed),
            identified: BTreeSet::new(),
            crafted_iterations: 0,
        }
    }

    /// Whether BEEP is still bootstrapping (no post-correction error
    /// confirmed yet).
    pub fn is_bootstrapping(&self) -> bool {
        self.identified.is_empty()
    }
}

impl Profiler for BeepProfiler {
    fn name(&self) -> &'static str {
        "BEEP"
    }

    fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        if self.identified.is_empty() {
            // Bootstrapping: standard random pattern until the first
            // post-correction error is confirmed.
            self.schedule.dataword_into(round, data);
        } else {
            self.crafted_iterations += 1;
            let data_bits = self.schedule.data_bits();
            craft_beep_pattern(data_bits, &self.identified, self.crafted_iterations, data);
        }
    }

    fn observe_round(&mut self, _round: usize, observation: &ReadObservation) -> bool {
        insert_all(&mut self.identified, observation.post_correction_errors())
    }

    fn identified(&self) -> &BTreeSet<usize> {
        &self.identified
    }

    fn uses_bypass_read(&self) -> bool {
        false
    }

    fn state(&self) -> ProfilerState {
        ProfilerState {
            identified: self.identified.clone(),
            observed_indirect: BTreeSet::new(),
            crafted_rounds: self.crafted_iterations,
        }
    }

    fn restore(&mut self, state: &ProfilerState) {
        self.identified = state.identified.clone();
        self.crafted_iterations = state.crafted_rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::analysis::FailureDependence;
    use harp_ecc::ErrorSpace;
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

    /// Crafts into a fresh buffer.
    fn crafted(data_len: usize, known: &[usize], iteration: usize) -> BitVec {
        let mut out = BitVec::default();
        craft_beep_pattern(
            data_len,
            &known.iter().copied().collect(),
            iteration,
            &mut out,
        );
        out
    }

    #[test]
    fn crafted_pattern_charges_only_the_target_combination() {
        let known = [4usize, 10, 50];
        let pattern = crafted(64, &known, 0);
        let ones: Vec<usize> = pattern.iter_ones().collect();
        assert_eq!(ones.len(), 2);
        for bit in ones {
            assert!(known.contains(&bit));
        }
    }

    #[test]
    fn crafted_patterns_cycle_through_combinations() {
        let known = [1usize, 2, 3];
        let patterns: BTreeSet<String> =
            (0..6).map(|i| crafted(64, &known, i).to_string()).collect();
        // 3 pairs + 1 triple = 4 distinct combinations.
        assert_eq!(patterns.len(), 4);
    }

    /// Every pair of `known`, then (for three or more) every triple, in
    /// lexicographic order: the list `craft_beep_pattern` used to build on
    /// each call and index with `iteration % len`. Kept as the oracle of the
    /// direct computation.
    fn enumerated_combinations(known: &[usize]) -> Vec<Vec<usize>> {
        let mut combinations: Vec<Vec<usize>> = Vec::new();
        for i in 0..known.len() {
            for j in (i + 1)..known.len() {
                combinations.push(vec![known[i], known[j]]);
            }
        }
        if known.len() >= 3 {
            for i in 0..known.len() {
                for j in (i + 1)..known.len() {
                    for l in (j + 1)..known.len() {
                        combinations.push(vec![known[i], known[j], known[l]]);
                    }
                }
            }
        }
        combinations
    }

    /// The directly computed target equals the enumerated one for every
    /// count of suspected bits from 2 to 19, over thousands of iterations
    /// (several full cycles even at 19 bits), for random known sets, crafted
    /// into one reused buffer that the previous pattern left dirty.
    #[test]
    fn crafted_targets_match_the_enumerated_combinations() {
        use rand::seq::SliceRandom;
        use rand::Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0xBEE9);
        let mut out = BitVec::ones(64);
        for m in 2..=19usize {
            let mut positions: Vec<usize> = (0..64).collect();
            positions.shuffle(&mut rng);
            let known: BTreeSet<usize> = positions[..m].iter().copied().collect();
            let sorted: Vec<usize> = known.iter().copied().collect();
            let combinations = enumerated_combinations(&sorted);
            let start = rng.gen_range(0..1_000_000);
            for iteration in (0..4096).chain(start..start + 512) {
                let expected = BitVec::from_indices(
                    64,
                    combinations[iteration % combinations.len()].iter().copied(),
                );
                craft_beep_pattern(64, &known, iteration, &mut out);
                assert_eq!(out, expected);
            }
        }
    }

    #[test]
    fn single_known_bit_is_always_charged() {
        for iteration in 0..5 {
            let pattern = crafted(64, &[13], iteration);
            assert!(pattern.get(13));
        }
    }

    #[test]
    fn empty_known_set_yields_discharged_word() {
        assert!(crafted(64, &[], 3).is_zero());
    }

    #[test]
    #[should_panic(expected = "not a data bit")]
    fn crafting_rejects_parity_positions() {
        crafted(64, &[70], 0);
    }

    #[test]
    fn beep_bootstraps_with_the_fallback_pattern() {
        let mut profiler = BeepProfiler::new(64, DataPattern::Random, 5);
        assert!(profiler.is_bootstrapping());
        let w0 = profiler.dataword_for_round(0);
        let w1 = profiler.dataword_for_round(1);
        assert_eq!(w0.not(), w1, "random schedule inverts within a pair");
    }

    #[test]
    fn beep_identifies_direct_errors_from_always_failing_pairs() {
        let code = HammingCode::random(64, 21).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[8, 30], 1.0));
        let mut profiler = BeepProfiler::new(64, DataPattern::Random, 7);
        run_rounds(&mut profiler, &mut chip, 32, 8);
        assert!(!profiler.is_bootstrapping());
        assert!(profiler.identified().contains(&8));
        assert!(profiler.identified().contains(&30));
    }

    #[test]
    fn beep_only_reports_genuinely_at_risk_bits() {
        let code = HammingCode::random(64, 22).unwrap();
        let at_risk = [3usize, 12, 48];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 0.75));
        let mut profiler = BeepProfiler::new(64, DataPattern::Random, 11);
        run_rounds(&mut profiler, &mut chip, 128, 9);
        for bit in profiler.identified() {
            assert!(
                space.post_correction_at_risk().contains(bit),
                "BEEP reported bit {bit} which is not at risk"
            );
        }
    }

    #[test]
    fn beep_can_miss_direct_bits_that_its_patterns_never_charge() {
        // Three at-risk bits with moderate error probability: once BEEP locks
        // onto the first observed pair it stops charging the rest of the
        // word, so a bit that has not failed yet may never be exposed.
        // (This is a behavioural regression test for the paper's §7.2.1
        // observation, not a universal guarantee, hence the fixed seed.)
        let code = HammingCode::random(64, 23).unwrap();
        let at_risk = [5usize, 23, 59];
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 0.25));
        let mut profiler = BeepProfiler::new(64, DataPattern::Random, 13);
        run_rounds(&mut profiler, &mut chip, 64, 10);
        let covered = at_risk
            .iter()
            .filter(|b| profiler.identified().contains(b))
            .count();
        assert!(
            covered < at_risk.len(),
            "expected incomplete direct coverage for this configuration"
        );
    }
}
