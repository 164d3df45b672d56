//! Extension 6: one generic HARP campaign path, three on-die ECC codes.
//!
//! This experiment is the end-to-end proof of the code-abstraction layer: the
//! *same* generic coverage sweep behind Figs. 6–9
//! ([`sweep::run_coverage_sweep_with`] → [`harp_profiler::ProfilingCampaign`]
//! → generic [`harp_memsim::MemoryChip`] → [`harp_ecc::ErrorSpace`] scoring)
//! runs unchanged against three [`LinearBlockCode`] implementations:
//!
//! * the paper's SEC Hamming code (`t = 1`);
//! * the SEC-DED extended Hamming code (`t = 1`, detects double errors —
//!   eliminating pair-induced miscorrections, the dominant indirect-error
//!   source);
//! * the DEC BCH code (`t = 2`, the paper's future-work scenario).
//!
//! The comparison quantifies how the profiling challenges shift with the
//! code: bypass-based HARP-U is unaffected (direct errors are visible raw),
//! while Naive profiling *degrades* as the code gets stronger (more error
//! combinations are absorbed before it can observe them), and the
//! ground-truth indirect-error space shrinks from Hamming → SEC-DED → BCH.

use serde::{Deserialize, Serialize};

use harp_bch::BchCode;
use harp_ecc::{ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{run_coverage_sweep_with, CoverageSweep};
use crate::report::{fixed, TextTable};
use crate::stats::mean;

/// The profilers compared across code families.
pub const PROFILERS: [ProfilerKind; 3] = [
    ProfilerKind::HarpU,
    ProfilerKind::HarpA,
    ProfilerKind::Naive,
];

/// Aggregated campaign metrics for one code family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodeFamilyResult {
    /// Human-readable code description (e.g. `"SEC Hamming (71, 64)"`).
    pub family: String,
    /// Codeword length `n`.
    pub codeword_bits: usize,
    /// The code's correction capability `t`.
    pub correction_capability: usize,
    /// Mean ground-truth count of indirect-error at-risk bits per word.
    pub mean_indirect_truth: f64,
    /// Mean final direct-error coverage of HARP-U (bypass reads).
    pub harpu_direct_coverage: f64,
    /// Mean final direct-error coverage of Naive (post-correction reads).
    pub naive_direct_coverage: f64,
    /// Mean number of indirect-error bits still missed by HARP-A after the
    /// active phase (what reactive profiling must pick up).
    pub harpa_missed_indirect: f64,
    /// Worst-case simultaneous post-correction errors outside HARP-A's known
    /// set after the active phase, across all simulated words.
    pub harpa_max_simultaneous: usize,
}

/// The full cross-code comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtCodesResult {
    /// Profiling rounds per campaign.
    pub rounds: usize,
    /// One aggregate per code family (Hamming, SEC-DED, BCH).
    pub families: Vec<CodeFamilyResult>,
}

/// Runs the generic campaign path for one code family and aggregates it.
///
/// This function is deliberately generic over [`LinearBlockCode`]: it is the
/// single implementation all three families go through.
pub fn run_family<C, F>(config: &EvaluationConfig, make_code: F) -> CodeFamilyResult
where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C,
{
    let reference = make_code(config.seed_for(0, 0, 0xC0DE));
    let sweep = run_coverage_sweep_with(config, &PROFILERS, make_code);
    summarize(&sweep, &reference)
}

fn summarize<C: LinearBlockCode + ?Sized>(
    sweep: &CoverageSweep,
    reference: &C,
) -> CodeFamilyResult {
    let final_coverages = |kind: ProfilerKind| -> Vec<f64> {
        sweep
            .evaluations
            .iter()
            .filter(|e| e.profiler == kind)
            .map(|e| e.series.final_direct_coverage())
            .collect()
    };
    let harpa: Vec<_> = sweep
        .evaluations
        .iter()
        .filter(|e| e.profiler == ProfilerKind::HarpA)
        .collect();
    let missed: Vec<f64> = harpa
        .iter()
        .map(|e| e.series.final_score().map_or(0, |s| s.missed_indirect) as f64)
        .collect();
    let indirect_truth: Vec<f64> = harpa
        .iter()
        .map(|e| e.series.indirect_truth_len as f64)
        .collect();
    let max_simultaneous = harpa
        .iter()
        .filter_map(|e| e.series.final_score().map(|s| s.max_simultaneous))
        .max()
        .unwrap_or(0);
    CodeFamilyResult {
        family: reference.description(),
        codeword_bits: reference.codeword_len(),
        correction_capability: reference.correction_capability(),
        mean_indirect_truth: mean(&indirect_truth),
        harpu_direct_coverage: mean(&final_coverages(ProfilerKind::HarpU)),
        naive_direct_coverage: mean(&final_coverages(ProfilerKind::Naive)),
        harpa_missed_indirect: mean(&missed),
        harpa_max_simultaneous: max_simultaneous,
    }
}

/// Runs the cross-code comparison: Hamming, SEC-DED, and BCH words through
/// the identical generic campaign path.
///
/// # Panics
///
/// Panics if the configuration is invalid or a code cannot be constructed
/// for the configured dataword length.
pub fn run(config: &EvaluationConfig) -> ExtCodesResult {
    config.validate();
    let data_bits = config.data_bits;
    let hamming = run_family(config, |seed| {
        HammingCode::random(data_bits, seed).expect("valid SEC Hamming code")
    });
    let secded = run_family(config, |seed| {
        ExtendedHammingCode::random(data_bits, seed).expect("valid SEC-DED code")
    });
    // The BCH construction is deterministic (no free column arrangement), so
    // every code index shares one code; the word populations still differ.
    let bch_code = BchCode::dec(data_bits).expect("valid DEC BCH code");
    let bch = run_family(config, |_seed| bch_code.clone());
    ExtCodesResult {
        rounds: config.rounds,
        families: vec![hamming, secded, bch],
    }
}

impl ExtCodesResult {
    /// Renders the comparison as plain text.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "on-die ECC",
            "n",
            "t",
            "mean indirect at-risk (truth)",
            "HARP-U direct coverage",
            "Naive direct coverage",
            "HARP-A missed indirect",
            "max errors outside known set",
        ]);
        for family in &self.families {
            table.push_row([
                family.family.clone(),
                family.codeword_bits.to_string(),
                family.correction_capability.to_string(),
                fixed(family.mean_indirect_truth, 2),
                fixed(family.harpu_direct_coverage, 3),
                fixed(family.naive_direct_coverage, 3),
                fixed(family.harpa_missed_indirect, 2),
                family.harpa_max_simultaneous.to_string(),
            ]);
        }
        format!(
            "Extension 6: the generic HARP campaign across code families \
             ({} rounds per word)\n{}",
            self.rounds,
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 3,
            rounds: 64,
            error_counts: vec![2, 4],
            probabilities: vec![0.5],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn all_three_families_run_through_the_same_campaign_path() {
        let result = run(&smoke_config());
        assert_eq!(result.families.len(), 3);
        assert!(result.families[0].family.contains("SEC Hamming"));
        assert!(result.families[1].family.contains("SEC-DED"));
        assert!(result.families[2].family.contains("DEC BCH"));
        assert_eq!(result.families[0].correction_capability, 1);
        assert_eq!(result.families[1].correction_capability, 1);
        assert_eq!(result.families[2].correction_capability, 2);
    }

    #[test]
    fn bypass_profiling_is_code_agnostic_and_dominates_naive() {
        // HARP-U reads raw data bits, so its coverage is high for every code
        // family; Naive can only do as well or worse.
        let result = run(&smoke_config());
        for family in &result.families {
            assert!(
                family.harpu_direct_coverage > 0.9,
                "{}: HARP-U coverage {}",
                family.family,
                family.harpu_direct_coverage
            );
            assert!(
                family.harpu_direct_coverage >= family.naive_direct_coverage - 1e-12,
                "{}: Naive should not beat HARP-U",
                family.family
            );
        }
    }

    #[test]
    fn stronger_codes_shrink_the_indirect_error_space() {
        let result = run(&smoke_config());
        let hamming = &result.families[0];
        let secded = &result.families[1];
        let bch = &result.families[2];
        // SEC-DED detects pairs instead of miscorrecting; BCH corrects them.
        // Both strictly reduce the ground-truth indirect space relative to
        // plain SEC Hamming on average.
        assert!(secded.mean_indirect_truth <= hamming.mean_indirect_truth + 1e-12);
        assert!(bch.mean_indirect_truth <= hamming.mean_indirect_truth + 1e-12);
    }

    #[test]
    fn residual_simultaneous_errors_stay_within_each_capability_bound() {
        // After HARP-A's active phase every direct bit is identified (the
        // campaign uses p = 0.5 over 64 rounds), so at most t simultaneous
        // errors can remain outside the known set (paper insight 2,
        // generalized).
        let result = run(&smoke_config());
        for family in &result.families {
            assert!(
                family.harpa_max_simultaneous <= family.correction_capability,
                "{}: {} residual errors exceeds t = {}",
                family.family,
                family.harpa_max_simultaneous,
                family.correction_capability
            );
        }
    }

    #[test]
    fn render_lists_every_family() {
        let rendered = run(&smoke_config()).render();
        assert!(rendered.contains("Extension 6"));
        assert!(rendered.contains("SEC Hamming"));
        assert!(rendered.contains("SEC-DED"));
        assert!(rendered.contains("DEC BCH"));
    }
}
