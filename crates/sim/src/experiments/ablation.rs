//! Ablation studies for four design choices of the reproduction:
//!
//! 1. **Data pattern** — random vs. charged vs. checkered patterns during
//!    active profiling (§7.1.2 notes random performs on par or better);
//! 2. **Transparency option** — HARP-U (decode bypass) vs. HARP-S (syndrome
//!    on correction), which must achieve identical direct-error coverage
//!    (§5.2);
//! 3. **Secondary-ECC strength** — correction capability 1 vs. 2 vs. 3
//!    (§6.3.2): how many words remain unsafe after a given number of active
//!    profiling rounds for each strength;
//! 4. **Code length** — (71, 64) vs. (136, 128) on-die ECC (§7.1.2).

use serde::{Deserialize, Serialize};

use harp_memsim::pattern::DataPattern;
use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::run_coverage_sweep;
use crate::report::{fixed, percent, TextTable};
use crate::stats::mean;

/// Aggregate final direct-error coverage for one ablation arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationArm {
    /// Human-readable arm label (e.g. `"pattern=random"`).
    pub label: String,
    /// Mean final direct-error coverage across all words and configurations.
    pub final_direct_coverage: f64,
    /// Mean rounds to full direct coverage (censored at the round budget).
    pub mean_rounds_to_full_coverage: f64,
    /// Fraction of words whose worst case still exceeds one simultaneous
    /// post-correction error at the end of profiling.
    pub unsafe_word_fraction: f64,
}

/// Results of all four ablation studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Data-pattern ablation (HARP-U and Naive under each pattern).
    pub patterns: Vec<AblationArm>,
    /// Transparency ablation (HARP-U vs. HARP-S).
    pub transparency: Vec<AblationArm>,
    /// Secondary-ECC strength ablation (required capability vs. rounds).
    pub secondary_strength: Vec<AblationArm>,
    /// Code-length ablation ((71, 64) vs. (136, 128)).
    pub code_length: Vec<AblationArm>,
}

fn arm_from_sweep(
    label: String,
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
    unsafe_limit: usize,
) -> Vec<AblationArm> {
    let sweep = run_coverage_sweep(config, profilers);
    profilers
        .iter()
        .map(|&profiler| {
            let mut final_cov = Vec::new();
            let mut rounds_full = Vec::new();
            let mut unsafe_words = 0usize;
            let mut total_words = 0usize;
            for e in sweep.evaluations.iter().filter(|e| e.profiler == profiler) {
                total_words += 1;
                final_cov.push(e.series.final_direct_coverage());
                rounds_full.push(
                    e.series
                        .rounds_to_full_direct_coverage()
                        .map(|r| (r + 1) as f64)
                        .unwrap_or((sweep.rounds + 1) as f64),
                );
                if e.series.final_score().map_or(0, |s| s.max_simultaneous) > unsafe_limit {
                    unsafe_words += 1;
                }
            }
            AblationArm {
                label: format!("{label} / {profiler}"),
                final_direct_coverage: mean(&final_cov),
                mean_rounds_to_full_coverage: mean(&rounds_full),
                unsafe_word_fraction: if total_words == 0 {
                    0.0
                } else {
                    unsafe_words as f64 / total_words as f64
                },
            }
        })
        .collect()
}

/// Runs all four ablation studies at the given configuration scale.
pub fn run(config: &EvaluationConfig) -> AblationResult {
    config.validate();

    // 1. Data-pattern ablation.
    let mut patterns = Vec::new();
    for pattern in DataPattern::evaluated() {
        let arm_config = EvaluationConfig {
            pattern,
            ..config.clone()
        };
        patterns.extend(arm_from_sweep(
            format!("pattern={pattern}"),
            &arm_config,
            &[ProfilerKind::HarpU, ProfilerKind::Naive],
            1,
        ));
    }

    // 2. Transparency ablation: bypass read vs. syndrome on correction.
    let transparency = arm_from_sweep(
        "transparency".to_owned(),
        config,
        &[ProfilerKind::HarpU, ProfilerKind::HarpS],
        1,
    );

    // 3. Secondary-ECC strength ablation: how many words still exceed the
    //    secondary ECC's capability at the end of active profiling, for
    //    capabilities 1..=3, using the Naive profiler (the interesting case —
    //    HARP always reaches the <=1 state).
    let mut secondary_strength = Vec::new();
    for capability in 1..=3usize {
        let arms = arm_from_sweep(
            format!("secondary capability={capability}"),
            config,
            &[ProfilerKind::Naive],
            capability,
        );
        secondary_strength.extend(arms);
    }

    // 4. Code-length ablation.
    let mut code_length = Vec::new();
    for (label, arm_config) in [
        ("(71,64)".to_owned(), config.clone()),
        ("(136,128)".to_owned(), config.clone().with_long_code()),
    ] {
        code_length.extend(arm_from_sweep(
            format!("code={label}"),
            &arm_config,
            &[ProfilerKind::HarpU, ProfilerKind::Naive],
            1,
        ));
    }

    AblationResult {
        patterns,
        transparency,
        secondary_strength,
        code_length,
    }
}

impl AblationResult {
    fn render_arms(title: &str, arms: &[AblationArm]) -> String {
        let mut table = TextTable::new([
            "arm",
            "final direct coverage",
            "mean rounds to full",
            "unsafe words",
        ]);
        for arm in arms {
            table.push_row([
                arm.label.clone(),
                fixed(arm.final_direct_coverage, 3),
                fixed(arm.mean_rounds_to_full_coverage, 1),
                percent(arm.unsafe_word_fraction),
            ]);
        }
        format!("{title}\n{}", table.render())
    }

    /// Renders all four ablation tables.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}",
            Self::render_arms("Ablation 1: active-profiling data pattern", &self.patterns),
            Self::render_arms(
                "Ablation 2: transparency option (bypass read vs. syndrome on correction)",
                &self.transparency
            ),
            Self::render_arms(
                "Ablation 3: secondary-ECC correction capability (Naive active phase)",
                &self.secondary_strength
            ),
            Self::render_arms("Ablation 4: on-die ECC code length", &self.code_length),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 3,
            rounds: 48,
            error_counts: vec![3],
            probabilities: vec![0.5],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn transparency_options_achieve_identical_coverage() {
        let result = run(&tiny_config());
        assert_eq!(result.transparency.len(), 2);
        let harp_u = &result.transparency[0];
        let harp_s = &result.transparency[1];
        assert!((harp_u.final_direct_coverage - harp_s.final_direct_coverage).abs() < 1e-12);
        assert!(
            (harp_u.mean_rounds_to_full_coverage - harp_s.mean_rounds_to_full_coverage).abs()
                < 1e-12
        );
    }

    #[test]
    fn harp_reaches_full_coverage_under_every_pattern() {
        let result = run(&tiny_config());
        for arm in result
            .patterns
            .iter()
            .filter(|a| a.label.contains("HARP-U"))
        {
            assert!(
                (arm.final_direct_coverage - 1.0).abs() < 1e-9,
                "{}: coverage {}",
                arm.label,
                arm.final_direct_coverage
            );
            assert_eq!(arm.unsafe_word_fraction, 0.0);
        }
    }

    #[test]
    fn stronger_secondary_ecc_reduces_unsafe_words() {
        let result = run(&tiny_config());
        let fractions: Vec<f64> = result
            .secondary_strength
            .iter()
            .map(|a| a.unsafe_word_fraction)
            .collect();
        assert_eq!(fractions.len(), 3);
        assert!(fractions[1] <= fractions[0] + 1e-12);
        assert!(fractions[2] <= fractions[1] + 1e-12);
    }

    #[test]
    fn long_code_arm_preserves_harp_full_coverage() {
        let result = run(&tiny_config());
        for arm in result
            .code_length
            .iter()
            .filter(|a| a.label.contains("HARP-U"))
        {
            assert!(
                (arm.final_direct_coverage - 1.0).abs() < 1e-9,
                "{}",
                arm.label
            );
        }
        let rendered = result.render();
        assert!(rendered.contains("Ablation 1"));
        assert!(rendered.contains("Ablation 4"));
        assert!(rendered.contains("(136,128)"));
    }
}
