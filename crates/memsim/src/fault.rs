//! The paper's error model (§2.4): independent, data-dependent Bernoulli
//! errors in individual memory cells.
//!
//! Each *at-risk* cell has its own per-access error probability. A true-cell
//! can only fail when it stores a '1' (charged); this data dependence is what
//! ties pre-correction error patterns to the data pattern written during a
//! profiling round and makes worst-case pattern design hard under on-die ECC
//! (challenge 3, §4.3).

use rand::Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::analysis::FailureDependence;
use harp_gf2::BitVec;

/// A single at-risk cell within an ECC word.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AtRiskBit {
    /// Codeword position of the cell (data or parity bit).
    pub position: usize,
    /// Per-access probability that the cell fails when its data-dependence
    /// condition is met.
    pub probability: f64,
}

impl AtRiskBit {
    /// Creates an at-risk bit.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not within `[0, 1]`.
    pub fn new(position: usize, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability {probability} outside [0, 1]"
        );
        Self {
            position,
            probability,
        }
    }
}

/// The fault model of one ECC word: which cells are at risk, how likely they
/// are to fail, and how their failure depends on the stored data.
///
/// # Example
///
/// ```
/// use harp_memsim::fault::FaultModel;
/// use harp_gf2::BitVec;
/// use rand::SeedableRng;
///
/// // Two at-risk cells that always fail when charged.
/// let model = FaultModel::uniform(&[0, 5], 1.0);
/// let stored = BitVec::from_indices(8, [0, 1, 2]); // bit 5 stores '0'
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let errors = model.sample_errors(&stored, &mut rng);
/// assert_eq!(errors.iter_ones().collect::<Vec<_>>(), vec![0]); // only the charged cell fails
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    at_risk: Vec<AtRiskBit>,
    dependence: FailureDependence,
}

impl FaultModel {
    /// A fault model with no at-risk bits (an error-free word).
    pub fn none() -> Self {
        Self {
            at_risk: Vec::new(),
            dependence: FailureDependence::TrueCell,
        }
    }

    /// Creates a true-cell fault model where every listed position fails with
    /// the same probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn uniform(positions: &[usize], probability: f64) -> Self {
        Self::new(
            positions
                .iter()
                .map(|&p| AtRiskBit::new(p, probability))
                .collect(),
            FailureDependence::TrueCell,
        )
    }

    /// Creates a fault model from explicit at-risk bits and a data-dependence
    /// behaviour.
    pub fn new(at_risk: Vec<AtRiskBit>, dependence: FailureDependence) -> Self {
        Self {
            at_risk,
            dependence,
        }
    }

    /// The at-risk bits of this word.
    pub fn at_risk_bits(&self) -> &[AtRiskBit] {
        &self.at_risk
    }

    /// The at-risk codeword positions of this word.
    pub fn at_risk_positions(&self) -> Vec<usize> {
        self.at_risk.iter().map(|b| b.position).collect()
    }

    /// The data-dependence behaviour of the at-risk cells.
    pub fn dependence(&self) -> FailureDependence {
        self.dependence
    }

    /// Samples a raw (pre-correction) error pattern for one access, given the
    /// codeword value currently stored in the cells.
    ///
    /// A cell can only fail if its stored value satisfies the data-dependence
    /// condition (e.g. a true-cell must store '1'); if it does, it fails with
    /// its configured Bernoulli probability, independently of all other cells.
    ///
    /// # Panics
    ///
    /// Panics if an at-risk position lies outside the stored codeword.
    pub fn sample_errors<R: Rng + ?Sized>(&self, stored: &BitVec, rng: &mut R) -> BitVec {
        let mut errors = BitVec::zeros(stored.len());
        self.sample_errors_into(stored, rng, &mut errors);
        errors
    }

    /// Samples a raw error pattern as [`FaultModel::sample_errors`] does, but
    /// writes it into `out` (reusing its buffer) instead of allocating a new
    /// `BitVec`. Consumes exactly the same RNG draws as `sample_errors`, so
    /// the two paths stay stream-for-stream interchangeable — the burst read
    /// path relies on this.
    ///
    /// # Panics
    ///
    /// Panics if an at-risk position lies outside the stored codeword.
    pub fn sample_errors_into<R: Rng + ?Sized>(
        &self,
        stored: &BitVec,
        rng: &mut R,
        out: &mut BitVec,
    ) {
        out.reset(stored.len());
        for bit in &self.at_risk {
            assert!(
                bit.position < stored.len(),
                "at-risk position {} outside codeword of {} bits",
                bit.position,
                stored.len()
            );
            let eligible = match self.dependence.required_value() {
                Some(required) => stored.get(bit.position) == required,
                None => true,
            };
            if eligible && rng.gen_bool(bit.probability) {
                out.set(bit.position, true);
            }
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Samples data-retention fault models for the Fig. 10 case study: every cell
/// of a codeword is independently at risk with probability `rber` (the raw
/// bit error rate set by the chosen refresh interval), and at-risk cells fail
/// with a fixed per-access probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionSampler {
    /// Probability that any given cell is at risk of data-retention error.
    pub rber: f64,
    /// Per-access failure probability of an at-risk cell (when charged).
    pub per_bit_probability: f64,
}

impl RetentionSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(rber: f64, per_bit_probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&rber), "rber {rber} outside [0, 1]");
        assert!(
            (0.0..=1.0).contains(&per_bit_probability),
            "per-bit probability {per_bit_probability} outside [0, 1]"
        );
        Self {
            rber,
            per_bit_probability,
        }
    }

    /// Samples the fault model of one `codeword_bits`-long ECC word.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_memsim::fault::RetentionSampler;
    /// use rand::SeedableRng;
    ///
    /// let sampler = RetentionSampler::new(0.5, 1.0);
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    /// let model = sampler.sample_word(71, &mut rng);
    /// // Roughly half the cells should be at risk.
    /// assert!(model.at_risk_bits().len() > 20 && model.at_risk_bits().len() < 50);
    /// ```
    pub fn sample_word<R: Rng + ?Sized>(&self, codeword_bits: usize, rng: &mut R) -> FaultModel {
        let at_risk = (0..codeword_bits)
            .filter(|_| rng.gen_bool(self.rber))
            .map(|p| AtRiskBit::new(p, self.per_bit_probability))
            .collect();
        FaultModel::new(at_risk, FailureDependence::TrueCell)
    }

    /// Samples exactly `count` distinct at-risk positions in a word (used by
    /// the coverage evaluations, which sweep the number of pre-correction
    /// errors per ECC word rather than an RBER).
    ///
    /// # Panics
    ///
    /// Panics if `count > codeword_bits`.
    pub fn sample_word_with_count<R: Rng + ?Sized>(
        &self,
        codeword_bits: usize,
        count: usize,
        rng: &mut R,
    ) -> FaultModel {
        assert!(
            count <= codeword_bits,
            "cannot place {count} at-risk bits in {codeword_bits} cells"
        );
        let mut positions: Vec<usize> = (0..codeword_bits).collect();
        // Partial Fisher-Yates shuffle: pick `count` distinct positions.
        for i in 0..count {
            let j = rng.gen_range(i..codeword_bits);
            positions.swap(i, j);
        }
        positions.truncate(count);
        positions.sort_unstable();
        let at_risk = positions
            .into_iter()
            .map(|p| AtRiskBit::new(p, self.per_bit_probability))
            .collect();
        FaultModel::new(at_risk, FailureDependence::TrueCell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn at_risk_bit_validates_probability() {
        let bit = AtRiskBit::new(4, 0.5);
        assert_eq!(bit.position, 4);
        assert_eq!(bit.probability, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn at_risk_bit_rejects_invalid_probability() {
        AtRiskBit::new(0, 1.5);
    }

    #[test]
    fn none_model_is_error_free() {
        let model = FaultModel::none();
        assert!(model.at_risk_positions().is_empty());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(model.sample_errors(&BitVec::ones(71), &mut rng).is_zero());
        assert_eq!(FaultModel::default(), model);
    }

    #[test]
    fn certain_errors_fire_only_when_charged() {
        let model = FaultModel::uniform(&[2, 6], 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Bit 2 charged, bit 6 not.
        let stored = BitVec::from_indices(8, [2]);
        let errors = model.sample_errors(&stored, &mut rng);
        assert_eq!(errors.iter_ones().collect::<Vec<_>>(), vec![2]);
        // Nothing charged: nothing fails.
        assert!(model.sample_errors(&BitVec::zeros(8), &mut rng).is_zero());
        // Everything charged: both fail.
        let errors = model.sample_errors(&BitVec::ones(8), &mut rng);
        assert_eq!(errors.iter_ones().collect::<Vec<_>>(), vec![2, 6]);
    }

    #[test]
    fn anti_cells_fail_when_discharged() {
        let model = FaultModel::new(vec![AtRiskBit::new(1, 1.0)], FailureDependence::AntiCell);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(model.sample_errors(&BitVec::ones(4), &mut rng).is_zero());
        let errors = model.sample_errors(&BitVec::zeros(4), &mut rng);
        assert_eq!(errors.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn data_independent_cells_fail_regardless_of_value() {
        let model = FaultModel::new(
            vec![AtRiskBit::new(0, 1.0)],
            FailureDependence::DataIndependent,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(!model.sample_errors(&BitVec::zeros(4), &mut rng).is_zero());
        assert!(!model.sample_errors(&BitVec::ones(4), &mut rng).is_zero());
    }

    #[test]
    fn bernoulli_probability_is_respected_statistically() {
        let model = FaultModel::uniform(&[0], 0.25);
        let stored = BitVec::ones(4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let trials = 20_000;
        let failures = (0..trials)
            .filter(|_| !model.sample_errors(&stored, &mut rng).is_zero())
            .count();
        let rate = failures as f64 / trials as f64;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "empirical rate {rate} too far from 0.25"
        );
    }

    #[test]
    fn probability_zero_never_fails_and_one_always_fails() {
        let never = FaultModel::uniform(&[0], 0.0);
        let always = FaultModel::uniform(&[0], 1.0);
        let stored = BitVec::ones(2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(never.sample_errors(&stored, &mut rng).is_zero());
            assert!(!always.sample_errors(&stored, &mut rng).is_zero());
        }
    }

    #[test]
    #[should_panic(expected = "outside codeword")]
    fn sample_errors_rejects_out_of_range_positions() {
        let model = FaultModel::uniform(&[10], 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        model.sample_errors(&BitVec::ones(8), &mut rng);
    }

    #[test]
    fn retention_sampler_density_tracks_rber() {
        let sampler = RetentionSampler::new(0.1, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let words = 2000;
        let total_at_risk: usize = (0..words)
            .map(|_| sampler.sample_word(71, &mut rng).at_risk_bits().len())
            .sum();
        let density = total_at_risk as f64 / (words * 71) as f64;
        assert!(
            (density - 0.1).abs() < 0.01,
            "empirical at-risk density {density} too far from 0.1"
        );
    }

    #[test]
    fn retention_sampler_with_count_places_exactly_count_bits() {
        let sampler = RetentionSampler::new(0.0, 0.75);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for count in [0usize, 1, 2, 5, 8] {
            let model = sampler.sample_word_with_count(71, count, &mut rng);
            let positions = model.at_risk_positions();
            assert_eq!(positions.len(), count);
            // Positions are distinct and sorted.
            let mut sorted = positions.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), count);
            for &p in &positions {
                assert!(p < 71);
            }
            for bit in model.at_risk_bits() {
                assert_eq!(bit.probability, 0.75);
            }
        }
    }

    #[test]
    fn sample_word_with_count_covers_all_positions_eventually() {
        let sampler = RetentionSampler::new(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut seen = [false; 16];
        for _ in 0..500 {
            for p in sampler
                .sample_word_with_count(16, 3, &mut rng)
                .at_risk_positions()
            {
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some positions never sampled");
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn sample_word_with_count_rejects_impossible_counts() {
        let sampler = RetentionSampler::new(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        sampler.sample_word_with_count(4, 5, &mut rng);
    }
}
