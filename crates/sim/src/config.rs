//! Evaluation configuration: how many codes, words, rounds, and which error
//! parameters to sweep.
//!
//! The paper's full configuration (§A.8) simulates ~2,769 random parity-check
//! matrices and over a million ECC words, consuming ~14 CPU-years. Its
//! appendix explicitly notes that the conclusions are already apparent with
//! far fewer samples; the [`EvaluationConfig::quick`] preset is tuned to run
//! the whole suite in seconds while preserving every qualitative trend, and
//! [`EvaluationConfig::paper_scale`] scales the sample counts up for longer
//! runs.

use serde::{Deserialize, Serialize};

use harp_memsim::pattern::DataPattern;

/// Parameters shared by the Monte-Carlo experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationConfig {
    /// Dataword length of the on-die ECC code (64 → a (71, 64) code).
    pub data_bits: usize,
    /// Number of randomly generated ECC codes (parity-check matrices).
    pub num_codes: usize,
    /// Number of ECC words simulated per code.
    pub words_per_code: usize,
    /// Number of active-profiling rounds per word (the paper uses 128).
    pub rounds: usize,
    /// Numbers of pre-correction errors injected per ECC word (Fig. 6-9 sweep
    /// 2–5; Fig. 4 sweeps 2–8).
    pub error_counts: Vec<usize>,
    /// Per-bit pre-correction error probabilities (the paper sweeps 25%, 50%,
    /// 75%, 100%).
    pub probabilities: Vec<f64>,
    /// Data-pattern family used for standard profiling rounds.
    pub pattern: DataPattern,
    /// Base random seed; every code/word/probability combination derives its
    /// own deterministic stream from it.
    pub base_seed: u64,
    /// Number of worker threads for the parallel runner (0 = one per CPU).
    pub threads: usize,
}

impl EvaluationConfig {
    /// A laptop-friendly configuration that runs every experiment in seconds
    /// while preserving the paper's qualitative trends.
    pub fn quick() -> Self {
        Self {
            data_bits: 64,
            num_codes: 4,
            words_per_code: 12,
            rounds: 128,
            error_counts: vec![2, 3, 4, 5],
            probabilities: vec![0.25, 0.5, 0.75, 1.0],
            pattern: DataPattern::Random,
            base_seed: 0x11A2_2021,
            threads: 0,
        }
    }

    /// A smaller configuration used by unit/integration tests and benches.
    pub fn smoke() -> Self {
        Self {
            num_codes: 2,
            words_per_code: 4,
            rounds: 64,
            error_counts: vec![2, 4],
            probabilities: vec![0.5, 1.0],
            ..Self::quick()
        }
    }

    /// A configuration approaching the paper's sample counts (the CLI's
    /// `--full`). The nightly `paper-scale-summary` CI job runs `harp
    /// summary --full` at this scale and records its wall time and peak RSS
    /// in its log.
    pub fn paper_scale() -> Self {
        Self {
            num_codes: 64,
            words_per_code: 128,
            ..Self::quick()
        }
    }

    /// Returns a copy configured for a (136, 128) on-die ECC code — the
    /// longer code the paper uses to verify that its observations hold
    /// (§7.1.2).
    pub fn with_long_code(mut self) -> Self {
        self.data_bits = 128;
        self
    }

    /// Total number of ECC words simulated per (error count, probability)
    /// configuration.
    pub fn words_total(&self) -> usize {
        self.num_codes * self.words_per_code
    }

    /// Checks internal consistency, returning a description of the first
    /// problem found. Use this on configurations from untrusted sources
    /// (checkpoint archives, wire payloads) where a bad value must surface
    /// as an error, not a panic.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is unusable (zero samples,
    /// probabilities outside `[0, 1]`, or error counts that exceed the
    /// exhaustive-analysis limit or the dataword length). No code family
    /// has fewer cells than data bits, so an error count up to `data_bits`
    /// always fits the word.
    pub fn check(&self) -> Result<(), String> {
        if self.data_bits == 0 {
            return Err("data_bits must be nonzero".to_owned());
        }
        if self.num_codes == 0 {
            return Err("num_codes must be nonzero".to_owned());
        }
        if self.words_per_code == 0 {
            return Err("words_per_code must be nonzero".to_owned());
        }
        if self.rounds == 0 {
            return Err("rounds must be nonzero".to_owned());
        }
        if self.error_counts.is_empty() {
            return Err("error_counts must not be empty".to_owned());
        }
        if self.probabilities.is_empty() {
            return Err("probabilities must not be empty".to_owned());
        }
        for &p in &self.probabilities {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0, 1]"));
            }
        }
        for &n in &self.error_counts {
            if n > self.data_bits {
                return Err(format!(
                    "error count {n} exceeds data_bits {}",
                    self.data_bits
                ));
            }
            if n > harp_ecc::ErrorSpace::MAX_AT_RISK_BITS {
                return Err(format!(
                    "error count {n} exceeds the exhaustive-analysis limit"
                ));
            }
        }
        Ok(())
    }

    /// Validates internal consistency for locally constructed configurations.
    ///
    /// # Panics
    ///
    /// Panics with the message [`check`](Self::check) would return.
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }

    /// Derives a deterministic seed for a (code, word, configuration) tuple.
    pub fn seed_for(&self, code_index: usize, word_index: usize, salt: u64) -> u64 {
        self.base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((code_index as u64) << 32)
            .wrapping_add((word_index as u64) << 8)
            .wrapping_add(salt)
    }
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        EvaluationConfig::quick().validate();
        EvaluationConfig::smoke().validate();
        EvaluationConfig::paper_scale().validate();
        EvaluationConfig::default().validate();
        EvaluationConfig::quick().with_long_code().validate();
    }

    #[test]
    fn quick_matches_paper_sweeps() {
        let config = EvaluationConfig::quick();
        assert_eq!(config.data_bits, 64);
        assert_eq!(config.rounds, 128);
        assert_eq!(config.error_counts, vec![2, 3, 4, 5]);
        assert_eq!(config.probabilities, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn paper_scale_is_larger_than_quick() {
        let quick = EvaluationConfig::quick();
        let full = EvaluationConfig::paper_scale();
        assert!(full.words_total() > quick.words_total());
    }

    #[test]
    fn with_long_code_switches_to_136_128() {
        let config = EvaluationConfig::quick().with_long_code();
        assert_eq!(config.data_bits, 128);
    }

    #[test]
    fn seeds_differ_across_samples() {
        let config = EvaluationConfig::quick();
        let a = config.seed_for(0, 0, 0);
        let b = config.seed_for(0, 1, 0);
        let c = config.seed_for(1, 0, 0);
        let d = config.seed_for(0, 0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Deterministic.
        assert_eq!(a, config.seed_for(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn validate_rejects_bad_probability() {
        let mut config = EvaluationConfig::quick();
        config.probabilities = vec![1.5];
        config.validate();
    }

    /// The non-panicking twin of `validate`, for configurations decoded from
    /// archives or wire payloads.
    #[test]
    fn check_reports_instead_of_panicking() {
        assert_eq!(EvaluationConfig::quick().check(), Ok(()));
        let mut config = EvaluationConfig::quick();
        config.data_bits = 0;
        assert_eq!(config.check(), Err("data_bits must be nonzero".to_owned()));
        let mut config = EvaluationConfig::quick();
        config.rounds = 0;
        assert!(config.check().is_err());
        let mut config = EvaluationConfig::quick();
        config.probabilities = vec![-0.5];
        assert!(config.check().unwrap_err().contains("outside [0, 1]"));
    }

    /// An error count must fit the word: sampling 8 at-risk cells in a
    /// (7, 4) codeword used to panic the sweep (and `harpd`'s handler).
    /// Archive manifests and wire payloads decode through the same check.
    #[test]
    fn check_rejects_error_counts_above_data_bits() {
        use crate::minijson::JsonCodec;

        let tiny = EvaluationConfig {
            data_bits: 4,
            error_counts: vec![8],
            ..EvaluationConfig::smoke()
        };
        assert_eq!(
            tiny.check(),
            Err("error count 8 exceeds data_bits 4".to_owned())
        );
        let decoded = EvaluationConfig::from_json(&tiny.to_json().expect("finite"));
        assert!(decoded.is_err_and(|e| e.to_string().contains("exceeds data_bits")));
        let fits = EvaluationConfig {
            error_counts: vec![4],
            ..tiny
        };
        assert_eq!(fits.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "exceeds the exhaustive-analysis limit")]
    fn validate_rejects_huge_error_counts() {
        let mut config = EvaluationConfig::quick();
        config.error_counts = vec![30];
        config.validate();
    }
}
