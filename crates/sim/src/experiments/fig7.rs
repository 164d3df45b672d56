//! Fig. 7: the bootstrapping problem — how many profiling rounds each
//! profiler needs before it identifies its *first* direct error.
//!
//! Profilers that only observe post-correction errors (Naive, BEEP) must wait
//! until a specific uncorrectable combination of pre-correction errors
//! occurs; HARP observes raw errors directly and bootstraps almost
//! immediately. Words in which a profiler never identifies a direct error
//! within the simulated rounds are counted at the maximum round count,
//! mirroring the paper's conservative plotting convention.

use serde::{Deserialize, Serialize};

use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::fig6::PROFILERS;
use crate::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use crate::report::{fixed, percent, TextTable};
use crate::stats::Summary;

/// Bootstrapping statistics for one (profiler, error count, probability)
/// cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Cell {
    /// Profiler evaluated.
    pub profiler: ProfilerKind,
    /// Number of pre-correction errors per ECC word.
    pub error_count: usize,
    /// Per-bit pre-correction error probability.
    pub probability: f64,
    /// Distribution of rounds-to-first-direct-error (1-based; words that
    /// never bootstrap count as the maximum simulated rounds).
    pub rounds_to_first_error: Summary,
    /// Fraction of words in which the profiler never identified a direct
    /// error within the simulated rounds.
    pub never_bootstrapped: f64,
}

/// The Fig. 7 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Maximum number of simulated rounds (the censoring value).
    pub max_rounds: usize,
    /// One cell per (profiler, error count, probability).
    pub cells: Vec<Fig7Cell>,
}

/// Runs the experiment (including the underlying coverage sweep).
pub fn run(config: &EvaluationConfig) -> Fig7Result {
    from_sweep(&run_coverage_sweep(config, &PROFILERS))
}

/// Aggregates an existing coverage sweep into the Fig. 7 cells.
pub fn from_sweep(sweep: &CoverageSweep) -> Fig7Result {
    let mut cells = Vec::new();
    for &profiler in &sweep.profilers {
        for &error_count in &sweep.error_counts {
            for &probability in &sweep.probabilities {
                let mut rounds = Vec::new();
                let mut never = 0usize;
                let mut total = 0usize;
                for e in sweep.cell(profiler, error_count, probability) {
                    total += 1;
                    match e.series.bootstrap_round() {
                        Some(r) => rounds.push((r + 1) as f64),
                        None => {
                            never += 1;
                            rounds.push(sweep.rounds as f64);
                        }
                    }
                }
                cells.push(Fig7Cell {
                    profiler,
                    error_count,
                    probability,
                    rounds_to_first_error: Summary::of(&rounds),
                    never_bootstrapped: if total == 0 {
                        0.0
                    } else {
                        never as f64 / total as f64
                    },
                });
            }
        }
    }
    Fig7Result {
        max_rounds: sweep.rounds,
        cells,
    }
}

impl Fig7Result {
    /// Looks up one cell.
    pub fn cell(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> Option<&Fig7Cell> {
        self.cells.iter().find(|c| {
            c.profiler == profiler
                && c.error_count == error_count
                && (c.probability - probability).abs() < 1e-9
        })
    }

    /// Renders the distribution table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "profiler",
            "pre-corr errors",
            "per-bit p",
            "median rounds",
            "p99 rounds",
            "max rounds",
            "never (%)",
        ]);
        for c in &self.cells {
            table.push_row([
                c.profiler.to_string(),
                c.error_count.to_string(),
                percent(c.probability),
                fixed(c.rounds_to_first_error.median, 1),
                fixed(c.rounds_to_first_error.p99, 1),
                fixed(c.rounds_to_first_error.max, 1),
                percent(c.never_bootstrapped),
            ]);
        }
        format!(
            "Fig. 7: profiling rounds required to identify the first direct error (max {} rounds)\n{}",
            self.max_rounds,
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
            words_per_code: 3,
            rounds: 64,
            error_counts: vec![2, 4],
            probabilities: vec![0.5],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn harp_bootstraps_at_least_as_fast_as_baselines() {
        let result = run(&tiny_config());
        for &count in &[2usize, 4] {
            let harp = result.cell(ProfilerKind::HarpU, count, 0.5).unwrap();
            let naive = result.cell(ProfilerKind::Naive, count, 0.5).unwrap();
            let beep = result.cell(ProfilerKind::Beep, count, 0.5).unwrap();
            assert!(harp.rounds_to_first_error.median <= naive.rounds_to_first_error.median);
            assert!(harp.rounds_to_first_error.median <= beep.rounds_to_first_error.median);
            // HARP never fails to bootstrap (every word has >= 2 at-risk bits,
            // at least one of which is a data bit with overwhelming
            // probability; equality handles the rare all-parity word).
            assert!(harp.never_bootstrapped <= naive.never_bootstrapped + 1e-9);
        }
    }

    #[test]
    fn bootstrap_rounds_are_within_bounds() {
        let result = run(&tiny_config());
        for c in &result.cells {
            assert!(c.rounds_to_first_error.min >= 1.0);
            assert!(c.rounds_to_first_error.max <= result.max_rounds as f64);
            assert!((0.0..=1.0).contains(&c.never_bootstrapped));
        }
    }

    #[test]
    fn render_has_one_row_per_cell() {
        let result = run(&tiny_config());
        let rendered = result.render();
        // 3 profilers x 2 counts x 1 probability = 6 data rows (+2 header).
        assert_eq!(rendered.lines().count(), 2 + 1 + 6);
        assert!(rendered.contains("Fig. 7"));
    }
}
