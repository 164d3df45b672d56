//! Fig. 4: distribution of each at-risk bit's probability of post-correction
//! error as a function of the number of pre-correction errors per ECC word.
//!
//! The paper injects a fixed number of at-risk bits per word, each failing
//! with probability 0.5 under the 0xFF (all-charged) data pattern, and plots
//! the distribution of per-bit post-correction error probabilities across
//! many randomly generated codes. The key observations this experiment must
//! reproduce: pre-correction probabilities stay at 0.5 by construction, while
//! post-correction probabilities are spread wide and shift towards zero as
//! the number of pre-correction errors grows (making at-risk bits harder to
//! identify — challenge 2 of §4).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;

use crate::config::EvaluationConfig;
use crate::report::{fixed, TextTable};
use crate::runner::parallel_map;
use crate::sample::sample_words;
use crate::stats::Summary;

/// Number of Monte-Carlo accesses simulated per ECC word.
pub const TRIALS_PER_WORD: usize = 256;

/// The per-bit post-correction error-probability distribution for one
/// pre-correction error count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Number of pre-correction errors injected per ECC word.
    pub error_count: usize,
    /// Summary of the observed per-bit *pre*-correction error probabilities
    /// (should concentrate at the configured per-bit probability).
    pub pre_correction: Summary,
    /// Summary of the observed per-bit *post*-correction error probabilities
    /// across all at-risk bits of all simulated words.
    pub post_correction: Summary,
}

/// The Fig. 4 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Per-bit probability used for the injected pre-correction errors.
    pub per_bit_probability: f64,
    /// One point per evaluated pre-correction error count.
    pub points: Vec<Fig4Point>,
}

/// The pre-correction error counts swept in the paper's Fig. 4.
pub const ERROR_COUNTS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// Salt separating the Monte-Carlo error-space draw from the campaign's
/// own stream for the same word.
const FIG4_SPACE_SALT: u64 = 0xF164;

/// Runs the Fig. 4 experiment with the paper's parameters (p = 0.5, charged
/// data pattern).
pub fn run(config: &EvaluationConfig) -> Fig4Result {
    run_with(config, &ERROR_COUNTS, 0.5)
}

/// Runs the experiment for custom error counts / per-bit probability.
pub fn run_with(
    config: &EvaluationConfig,
    error_counts: &[usize],
    per_bit_probability: f64,
) -> Fig4Result {
    config.validate();
    let mut points = Vec::with_capacity(error_counts.len());
    for &error_count in error_counts {
        let samples = sample_words(config, error_count, per_bit_probability);
        let per_word: Vec<(Vec<f64>, Vec<f64>)> =
            parallel_map(&samples, config.threads, |sample| {
                // Each word is programmed with the charged (0xFF) pattern.
                let data = BitVec::ones(sample.code.data_len());
                let encoded = sample.code.encode(&data);
                let mut rng = ChaCha8Rng::seed_from_u64(sample.campaign_seed ^ FIG4_SPACE_SALT);
                let at_risk = sample.faults.at_risk_positions();
                let space = harp_ecc::ErrorSpace::enumerate(
                    &sample.code,
                    &at_risk,
                    sample.faults.dependence(),
                );
                let post_risk: Vec<usize> =
                    space.post_correction_at_risk().iter().copied().collect();
                let mut pre_failures = vec![0usize; at_risk.len()];
                let mut post_failures = vec![0usize; post_risk.len()];
                for _ in 0..TRIALS_PER_WORD {
                    let raw = sample.faults.sample_errors(&encoded, &mut rng);
                    for (i, &pos) in at_risk.iter().enumerate() {
                        if raw.get(pos) {
                            pre_failures[i] += 1;
                        }
                    }
                    let stored = &encoded ^ &raw;
                    let decoded = sample.code.decode(&stored);
                    let errors: Vec<usize> = decoded.post_correction_errors(&data).collect();
                    for (i, &pos) in post_risk.iter().enumerate() {
                        if errors.contains(&pos) {
                            post_failures[i] += 1;
                        }
                    }
                }
                let pre: Vec<f64> = pre_failures
                    .iter()
                    .map(|&f| f as f64 / TRIALS_PER_WORD as f64)
                    .collect();
                let post: Vec<f64> = post_failures
                    .iter()
                    .map(|&f| f as f64 / TRIALS_PER_WORD as f64)
                    .collect();
                (pre, post)
            });
        let mut all_pre = Vec::new();
        let mut all_post = Vec::new();
        for (pre, post) in per_word {
            all_pre.extend(pre);
            all_post.extend(post);
        }
        points.push(Fig4Point {
            error_count,
            pre_correction: Summary::of(&all_pre),
            post_correction: Summary::of(&all_post),
        });
    }
    Fig4Result {
        per_bit_probability,
        points,
    }
}

impl Fig4Result {
    /// Renders the distribution summaries as a table (one row per error
    /// count).
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "pre-corr errors",
            "pre p (median)",
            "post p (p25)",
            "post p (median)",
            "post p (p75)",
            "post p (max)",
            "at-risk samples",
        ]);
        for point in &self.points {
            table.push_row([
                point.error_count.to_string(),
                fixed(point.pre_correction.median, 3),
                fixed(point.post_correction.p25, 3),
                fixed(point.post_correction.median, 3),
                fixed(point.post_correction.p75, 3),
                fixed(point.post_correction.max, 3),
                point.post_correction.count.to_string(),
            ]);
        }
        format!(
            "Fig. 4: per-bit probability of post-correction error (per-bit pre-correction probability {:.2}, charged pattern)\n{}",
            self.per_bit_probability,
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 4,
            ..EvaluationConfig::smoke()
        }
    }

    #[test]
    fn pre_correction_probability_stays_at_the_configured_value() {
        let result = run_with(&tiny_config(), &[2, 4], 0.5);
        for point in &result.points {
            assert!(
                (point.pre_correction.median - 0.5).abs() < 0.15,
                "pre-correction median {} too far from 0.5",
                point.pre_correction.median
            );
        }
    }

    #[test]
    fn post_correction_probabilities_shift_towards_zero_with_more_errors() {
        let result = run_with(&tiny_config(), &[2, 6], 0.5);
        let few = &result.points[0].post_correction;
        let many = &result.points[1].post_correction;
        // The paper's observation: with more pre-correction errors, each
        // individual at-risk bit fails less often.
        assert!(many.median <= few.median + 0.05);
        assert!(many.mean < few.mean);
    }

    #[test]
    fn post_correction_probabilities_are_valid_and_spread() {
        let result = run_with(&tiny_config(), &[3], 0.5);
        let post = &result.points[0].post_correction;
        assert!(post.min >= 0.0 && post.max <= 1.0);
        // The distribution is wide (not concentrated at 0.5 like the
        // pre-correction one).
        assert!(post.max - post.min > 0.2);
        assert!(post.count > 0);
    }

    #[test]
    fn render_mentions_every_error_count() {
        let result = run_with(&tiny_config(), &[2, 3], 0.5);
        let rendered = result.render();
        assert!(rendered.contains("Fig. 4"));
        assert!(rendered.lines().count() >= 5);
    }
}
