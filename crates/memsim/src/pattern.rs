//! Memory data patterns used during active profiling.
//!
//! Active profilers program the memory with data patterns designed to
//! maximize the chance of observing errors (§6.2 of the paper). The paper
//! evaluates three patterns (§7.1.2):
//!
//! * **charged** — all cells store '1' (0xFF), the worst case for true-cell
//!   data-retention errors;
//! * **checkered** — alternating '0'/'1', inverted every round;
//! * **random** — a fresh uniform-random word every two rounds, inverted on
//!   the second of the two rounds.

use std::iter;

use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_gf2::BitVec;

/// Salt mixing the pair index into the schedule seed for
/// [`DataPattern::Random`] words (the 64-bit golden-ratio multiplier, so
/// consecutive pairs land on well-separated streams).
const RANDOM_PAIR_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A packed word of the [`DataPattern::Checkered`] even-round pattern: bit
/// `i` is charged when `i` is even.
const CHECKERED_EVEN: u64 = 0x5555_5555_5555_5555;

/// A memory data-pattern family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPattern {
    /// All cells charged ('1' everywhere, i.e. 0xFF bytes).
    Charged,
    /// All cells discharged ('0' everywhere).
    Discharged,
    /// Alternating '0101…', inverted every profiling round.
    Checkered,
    /// Uniform-random data, changed every two rounds and inverted on the
    /// second round of each pair (the paper's best-performing pattern).
    Random,
}

impl DataPattern {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DataPattern::Charged => "charged",
            DataPattern::Discharged => "discharged",
            DataPattern::Checkered => "checkered",
            DataPattern::Random => "random",
        }
    }

    /// All patterns evaluated in the paper.
    pub fn evaluated() -> [DataPattern; 3] {
        [
            DataPattern::Random,
            DataPattern::Charged,
            DataPattern::Checkered,
        ]
    }
}

impl std::fmt::Display for DataPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the per-round dataword for a given pattern family, following the
/// paper's inversion schedule.
///
/// # Example
///
/// ```
/// use harp_memsim::pattern::{DataPattern, PatternSchedule};
///
/// let mut schedule = PatternSchedule::new(DataPattern::Checkered, 8, 42);
/// let round0 = schedule.dataword_for_round(0);
/// let round1 = schedule.dataword_for_round(1);
/// assert_eq!(round0.not(), round1); // inverted every round
/// ```
#[derive(Debug, Clone)]
pub struct PatternSchedule {
    pattern: DataPattern,
    data_bits: usize,
    seed: u64,
    /// The pair whose base word `base` holds, for [`DataPattern::Random`]:
    /// campaigns query rounds in order, so each pair's base is derived once
    /// and its second (inverted) round reuses it instead of re-keying the
    /// RNG.
    cached_pair: Option<usize>,
    /// The memoized base word, overwritten in place for each new pair.
    base: BitVec,
}

impl PatternSchedule {
    /// Creates a schedule producing `data_bits`-bit datawords. The `seed`
    /// only matters for [`DataPattern::Random`].
    pub fn new(pattern: DataPattern, data_bits: usize, seed: u64) -> Self {
        Self {
            pattern,
            data_bits,
            seed,
            cached_pair: None,
            base: BitVec::default(),
        }
    }

    /// The pattern family this schedule draws from.
    pub fn pattern(&self) -> DataPattern {
        self.pattern
    }

    /// Number of data bits per word.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// The dataword programmed in profiling round `round` (0-based).
    ///
    /// The schedule is deterministic and order-independent: calling this
    /// twice with the same round returns the same word (whatever was queried
    /// in between), so independent profilers can be evaluated against
    /// identical inputs (a fairness requirement from §7.1.2). The `&mut`
    /// receiver only updates the internal memo for [`DataPattern::Random`]
    /// pairs.
    pub fn dataword_for_round(&mut self, round: usize) -> BitVec {
        let mut data = BitVec::default();
        self.dataword_into(round, &mut data);
        data
    }

    /// Writes the dataword of round `round` into `data`, reusing its buffer:
    /// the allocation-free form of [`PatternSchedule::dataword_for_round`],
    /// which campaigns call once per word per round.
    pub fn dataword_into(&mut self, round: usize, data: &mut BitVec) {
        let even = round.is_multiple_of(2);
        match self.pattern {
            DataPattern::Charged => data.assign_words(self.data_bits, iter::repeat(u64::MAX)),
            DataPattern::Discharged => data.reset(self.data_bits),
            DataPattern::Checkered => {
                // Even rounds charge the even bits ('1010…'), odd rounds the
                // odd ones.
                let word = if even {
                    CHECKERED_EVEN
                } else {
                    !CHECKERED_EVEN
                };
                data.assign_words(self.data_bits, iter::repeat(word));
            }
            DataPattern::Random => {
                self.refresh_random_base(round / 2);
                data.copy_from(&self.base);
                if !even {
                    data.invert();
                }
            }
        }
    }

    /// Derives the base word of one [`DataPattern::Random`] pair into the
    /// memo, unless it already holds that pair: the second round of a pair
    /// (and any repeated query) reuses it instead of re-keying the RNG.
    fn refresh_random_base(&mut self, pair: usize) {
        if self.cached_pair == Some(pair) {
            return;
        }
        // Derive the word for this pair deterministically from the schedule
        // seed so rounds can be queried in any order, drawing 64 uniform
        // bits per RNG word.
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ (pair as u64).wrapping_mul(RANDOM_PAIR_SALT));
        self.base
            .assign_words(self.data_bits, iter::repeat_with(|| rng.next_u64()));
        self.cached_pair = Some(pair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charged_pattern_is_all_ones_every_round() {
        let mut schedule = PatternSchedule::new(DataPattern::Charged, 64, 0);
        for round in 0..8 {
            assert_eq!(schedule.dataword_for_round(round), BitVec::ones(64));
        }
    }

    #[test]
    fn discharged_pattern_is_all_zeros() {
        let mut schedule = PatternSchedule::new(DataPattern::Discharged, 16, 0);
        assert!(schedule.dataword_for_round(3).is_zero());
    }

    #[test]
    fn checkered_pattern_alternates_and_inverts() {
        let mut schedule = PatternSchedule::new(DataPattern::Checkered, 8, 0);
        let even = schedule.dataword_for_round(0);
        let odd = schedule.dataword_for_round(1);
        assert_eq!(even.to_string(), "10101010");
        assert_eq!(odd.to_string(), "01010101");
        assert_eq!(schedule.dataword_for_round(2), even);
        assert_eq!(even.not(), odd);
    }

    #[test]
    fn random_pattern_changes_every_two_rounds_and_inverts_within_a_pair() {
        let mut schedule = PatternSchedule::new(DataPattern::Random, 64, 123);
        let r0 = schedule.dataword_for_round(0);
        let r1 = schedule.dataword_for_round(1);
        let r2 = schedule.dataword_for_round(2);
        assert_eq!(r0.not(), r1, "round 1 must be the inverse of round 0");
        assert_ne!(r0, r2, "a fresh random word must be drawn for round 2");
        // Together a pair covers every cell with a charged value.
        assert_eq!((&r0 | &r1).count_ones(), 64);
    }

    #[test]
    fn random_pattern_is_deterministic_per_seed() {
        let mut a = PatternSchedule::new(DataPattern::Random, 32, 7);
        let mut b = PatternSchedule::new(DataPattern::Random, 32, 7);
        let mut c = PatternSchedule::new(DataPattern::Random, 32, 8);
        for round in 0..10 {
            assert_eq!(a.dataword_for_round(round), b.dataword_for_round(round));
        }
        assert_ne!(a.dataword_for_round(0), c.dataword_for_round(0));
    }

    #[test]
    fn random_pattern_queries_are_order_independent() {
        let mut schedule = PatternSchedule::new(DataPattern::Random, 32, 99);
        let r5_first = schedule.dataword_for_round(5);
        let _ = schedule.dataword_for_round(0);
        assert_eq!(schedule.dataword_for_round(5), r5_first);
    }

    /// `dataword_into` overwrites whatever the buffer held with the round's
    /// word, as the patterns define it: all ones, all zeros, the
    /// even-then-odd checkerboard, and random words of 64 bits per RNG draw
    /// inverted on the second round of a pair, at lengths on and off the
    /// word boundaries.
    #[test]
    fn dataword_into_writes_each_patterns_definition_over_a_reused_buffer() {
        let mut data = BitVec::ones(300);
        for bits in [5usize, 64, 70, 128] {
            for round in 0..6usize {
                let even = round % 2 == 0;
                let expected = [
                    BitVec::ones(bits),
                    BitVec::zeros(bits),
                    BitVec::from_indices(bits, (0..bits).filter(|i| (i % 2 == 0) == even)),
                ];
                let patterns = [
                    DataPattern::Charged,
                    DataPattern::Discharged,
                    DataPattern::Checkered,
                ];
                for (pattern, expected) in patterns.into_iter().zip(expected) {
                    PatternSchedule::new(pattern, bits, 1).dataword_into(round, &mut data);
                    assert_eq!(data, expected, "{pattern} round {round}, {bits} bits");
                }
                let mut rng = ChaCha8Rng::seed_from_u64(
                    31 ^ ((round / 2) as u64).wrapping_mul(RANDOM_PAIR_SALT),
                );
                let mut drawn = 0;
                let base: BitVec = (0..bits)
                    .map(|bit| {
                        if bit % 64 == 0 {
                            drawn = rng.next_u64();
                        }
                        (drawn >> (bit % 64)) & 1 == 1
                    })
                    .collect();
                let expected = if even { base } else { base.not() };
                let mut schedule = PatternSchedule::new(DataPattern::Random, bits, 31);
                schedule.dataword_into(round, &mut data);
                assert_eq!(data, expected, "random round {round}, {bits} bits");
            }
        }
    }

    #[test]
    fn pattern_names_and_display() {
        assert_eq!(DataPattern::Random.name(), "random");
        assert_eq!(DataPattern::Charged.to_string(), "charged");
        assert_eq!(DataPattern::evaluated().len(), 3);
    }

    #[test]
    fn accessors_report_configuration() {
        let mut schedule = PatternSchedule::new(DataPattern::Checkered, 128, 5);
        assert_eq!(schedule.pattern(), DataPattern::Checkered);
        assert_eq!(schedule.data_bits(), 128);
        assert_eq!(schedule.dataword_for_round(0).len(), 128);
    }
}
