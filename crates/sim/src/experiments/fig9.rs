//! Fig. 9: the correction capability the secondary ECC needs in order to
//! safely perform reactive profiling after a given amount of active
//! profiling.
//!
//! * **Fig. 9a** — normalized histogram of the *maximum number of
//!   simultaneous post-correction errors* still possible per ECC word after
//!   the full active-profiling budget (given that every bit the profiler
//!   knows about is repaired).
//! * **Fig. 9b** — how many active-profiling rounds are needed until, for the
//!   99th-percentile ECC word, no more than `x` simultaneous post-correction
//!   errors remain possible.
//!
//! The paper's headline comparison (HARP reaches the ≤1-error state in
//! 20.6–62.1% of the rounds Naive needs, for 2–5 pre-correction errors at
//! p = 0.5) is derived from the Fig. 9b data; see
//! [`crate::experiments::headline`].

use serde::{Deserialize, Serialize};

use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use crate::report::{fixed, percent, TextTable};
use crate::stats::{percentile, Histogram};

/// Profilers compared in Fig. 9.
pub const PROFILERS: [ProfilerKind; 4] = [
    ProfilerKind::Naive,
    ProfilerKind::Beep,
    ProfilerKind::HarpU,
    ProfilerKind::HarpA,
];

/// Largest simultaneous-error count tracked in the histogram (the paper's
/// x-axes run to 6).
pub const MAX_SIMULTANEOUS_TRACKED: usize = 6;

/// One cell of the Fig. 9 evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Cell {
    /// Profiler evaluated.
    pub profiler: ProfilerKind,
    /// Number of pre-correction errors per ECC word.
    pub error_count: usize,
    /// Per-bit pre-correction error probability.
    pub probability: f64,
    /// Fig. 9a: histogram (over ECC words) of the maximum number of
    /// simultaneous post-correction errors possible after all profiling
    /// rounds.
    pub final_histogram: Histogram,
    /// Fig. 9b: for each target `x` (index 1..=MAX_SIMULTANEOUS_TRACKED), the
    /// number of rounds after which the 99th-percentile word has at most `x`
    /// simultaneous errors possible. `None` means the target was not reached
    /// within the simulated rounds.
    pub rounds_to_limit_p99: Vec<Option<usize>>,
}

/// The Fig. 9 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Maximum number of simulated rounds.
    pub max_rounds: usize,
    /// One cell per (profiler, error count, probability).
    pub cells: Vec<Fig9Cell>,
}

/// Runs the experiment (including the underlying coverage sweep).
pub fn run(config: &EvaluationConfig) -> Fig9Result {
    from_sweep(&run_coverage_sweep(config, &PROFILERS))
}

/// Aggregates an existing coverage sweep into the Fig. 9 cells.
pub fn from_sweep(sweep: &CoverageSweep) -> Fig9Result {
    let mut cells = Vec::new();
    for &profiler in &sweep.profilers {
        for &error_count in &sweep.error_counts {
            for &probability in &sweep.probabilities {
                let evaluations: Vec<_> = sweep.cell(profiler, error_count, probability).collect();
                let finals: Vec<usize> = evaluations
                    .iter()
                    .map(|e| e.series.final_score().map_or(0, |s| s.max_simultaneous))
                    .collect();
                let final_histogram = Histogram::of(&finals, MAX_SIMULTANEOUS_TRACKED);

                let mut rounds_to_limit = Vec::new();
                for limit in 1..=MAX_SIMULTANEOUS_TRACKED {
                    // Per word: first round (1-based) at which at most `limit`
                    // simultaneous errors remain possible; censored at
                    // rounds + 1 when never reached.
                    let per_word: Vec<f64> = evaluations
                        .iter()
                        .map(|e| {
                            e.series
                                .rounds_until_max_simultaneous_at_most(limit)
                                .map(|r| (r + 1) as f64)
                                .unwrap_or((sweep.rounds + 1) as f64)
                        })
                        .collect();
                    // An empty evaluation set has no 99th-percentile word
                    // (and never reaches the limit), matching the None arm.
                    rounds_to_limit.push(match percentile(&per_word, 99.0) {
                        Some(p99) if p99 <= sweep.rounds as f64 => Some(p99.ceil() as usize),
                        _ => None,
                    });
                }
                cells.push(Fig9Cell {
                    profiler,
                    error_count,
                    probability,
                    final_histogram,
                    rounds_to_limit_p99: rounds_to_limit,
                });
            }
        }
    }
    Fig9Result {
        max_rounds: sweep.rounds,
        cells,
    }
}

impl Fig9Result {
    /// Looks up one cell.
    pub fn cell(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> Option<&Fig9Cell> {
        self.cells.iter().find(|c| {
            c.profiler == profiler
                && c.error_count == error_count
                && (c.probability - probability).abs() < 1e-9
        })
    }

    /// Convenience accessor for the paper's headline metric: the number of
    /// rounds until at most one simultaneous error remains possible for the
    /// 99th-percentile word.
    pub fn rounds_to_single_error_p99(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> Option<usize> {
        self.cell(profiler, error_count, probability)
            .and_then(|c| c.rounds_to_limit_p99.first().copied().flatten())
    }

    /// Renders the Fig. 9a histogram table.
    pub fn render_histogram(&self) -> String {
        let mut header = vec![
            "profiler".to_owned(),
            "pre-corr errors".to_owned(),
            "per-bit p".to_owned(),
        ];
        header.extend((0..=MAX_SIMULTANEOUS_TRACKED).map(|x| format!("={x}")));
        let mut table = TextTable::new(header);
        for c in &self.cells {
            let mut row = vec![
                c.profiler.to_string(),
                c.error_count.to_string(),
                percent(c.probability),
            ];
            row.extend(c.final_histogram.fractions.iter().map(|f| fixed(*f, 3)));
            table.push_row(row);
        }
        format!(
            "Fig. 9a: fraction of ECC words whose worst case is exactly x simultaneous post-correction errors after {} rounds\n{}",
            self.max_rounds,
            table.render()
        )
    }

    /// Renders the Fig. 9b rounds-to-limit table.
    pub fn render_rounds(&self) -> String {
        let mut header = vec![
            "profiler".to_owned(),
            "pre-corr errors".to_owned(),
            "per-bit p".to_owned(),
        ];
        header.extend((1..=MAX_SIMULTANEOUS_TRACKED).map(|x| format!("<={x}")));
        let mut table = TextTable::new(header);
        for c in &self.cells {
            let mut row = vec![
                c.profiler.to_string(),
                c.error_count.to_string(),
                percent(c.probability),
            ];
            row.extend(c.rounds_to_limit_p99.iter().map(|r| match r {
                Some(rounds) => rounds.to_string(),
                None => format!(">{}", self.max_rounds),
            }));
            table.push_row(row);
        }
        format!(
            "Fig. 9b: profiling rounds until the 99th-percentile ECC word can exhibit at most x simultaneous post-correction errors\n{}",
            table.render()
        )
    }

    /// Renders both panels.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.render_histogram(), self.render_rounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 4,
            rounds: 64,
            error_counts: vec![3],
            probabilities: vec![0.5],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn harp_needs_only_single_error_correction_after_profiling() {
        let result = run(&tiny_config());
        for kind in [ProfilerKind::HarpU, ProfilerKind::HarpA] {
            let cell = result.cell(kind, 3, 0.5).unwrap();
            // After the full active phase HARP has found all direct bits, so
            // no word can exhibit more than one simultaneous error.
            let beyond_one: f64 = cell.final_histogram.fractions[2..].iter().sum();
            assert!(
                beyond_one < 1e-9,
                "{kind}: {beyond_one} of words still allow multi-bit errors"
            );
        }
    }

    #[test]
    fn harp_reaches_the_single_error_state_at_least_as_fast_as_naive() {
        let result = run(&tiny_config());
        let harp = result
            .rounds_to_single_error_p99(ProfilerKind::HarpU, 3, 0.5)
            .expect("HARP reaches the single-error state");
        // When Naive never got there, HARP is trivially faster.
        if let Some(naive) = result.rounds_to_single_error_p99(ProfilerKind::Naive, 3, 0.5) {
            assert!(harp <= naive, "HARP {harp} vs Naive {naive}");
        }
    }

    #[test]
    fn histograms_are_normalized() {
        let result = run(&tiny_config());
        for c in &result.cells {
            let total: f64 = c.final_histogram.fractions.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert_eq!(c.rounds_to_limit_p99.len(), MAX_SIMULTANEOUS_TRACKED);
        }
    }

    #[test]
    fn rounds_to_limit_is_monotone_in_the_limit() {
        // Allowing more simultaneous errors can only be reached earlier.
        let result = run(&tiny_config());
        for c in &result.cells {
            // rounds_to_limit_p99[0] targets <=1 error (hardest); later
            // entries allow more simultaneous errors and can only be reached
            // earlier or at the same round.
            let mut last = usize::MAX;
            for r in &c.rounds_to_limit_p99 {
                let value = r.unwrap_or(result.max_rounds + 1);
                assert!(value <= last);
                last = value;
            }
        }
    }

    #[test]
    fn render_produces_both_panels() {
        let rendered = run(&tiny_config()).render();
        assert!(rendered.contains("Fig. 9a"));
        assert!(rendered.contains("Fig. 9b"));
    }
}
