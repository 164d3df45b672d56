//! Fig. 6: coverage of bits at risk of direct error vs. number of profiling
//! rounds, for HARP-U, Naive, and BEEP across the (pre-correction error
//! count × per-bit probability) sweep.
//!
//! The qualitative shape to reproduce: HARP reaches full coverage almost
//! immediately regardless of the configuration, Naive improves steadily but
//! needs many more rounds (and depends strongly on the error count /
//! probability), and BEEP can plateau below full coverage.

use serde::{Deserialize, Serialize};

use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use crate::report::{fixed, percent, TextTable};
use crate::stats::round_checkpoints;

/// Aggregate direct-error coverage at each checkpoint round for one
/// (profiler, error count, probability) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Series {
    /// Profiler evaluated.
    pub profiler: ProfilerKind,
    /// Number of pre-correction errors per ECC word.
    pub error_count: usize,
    /// Per-bit pre-correction error probability.
    pub probability: f64,
    /// `(round, aggregate coverage)` points; coverage is computed as the
    /// fraction of all at-risk direct-error bits identified across all
    /// simulated ECC words (matching §7.2.1).
    pub points: Vec<(usize, f64)>,
}

/// The Fig. 6 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// All series (profiler × error count × probability).
    pub series: Vec<Fig6Series>,
}

/// Profilers compared in Fig. 6 (and Fig. 7).
pub const PROFILERS: [ProfilerKind; 3] = ProfilerKind::ACTIVE_BASELINES;

/// Runs the experiment (including the underlying coverage sweep).
pub fn run(config: &EvaluationConfig) -> Fig6Result {
    from_sweep(&run_coverage_sweep(config, &PROFILERS))
}

/// Aggregates an existing coverage sweep into the Fig. 6 series.
pub fn from_sweep(sweep: &CoverageSweep) -> Fig6Result {
    let checkpoints = round_checkpoints(sweep.rounds);
    let mut series = Vec::new();
    for &profiler in &sweep.profilers {
        for &error_count in &sweep.error_counts {
            for &probability in &sweep.probabilities {
                let evaluations: Vec<_> = sweep.cell(profiler, error_count, probability).collect();
                let points = checkpoints
                    .iter()
                    .map(|&round| {
                        let mut identified = 0.0;
                        let mut total = 0.0;
                        for e in &evaluations {
                            let truth = e.series.direct_truth_len as f64;
                            identified += e.series.direct_coverage_at(round - 1) * truth;
                            total += truth;
                        }
                        let coverage = if total == 0.0 {
                            1.0
                        } else {
                            identified / total
                        };
                        (round, coverage)
                    })
                    .collect();
                series.push(Fig6Series {
                    profiler,
                    error_count,
                    probability,
                    points,
                });
            }
        }
    }
    Fig6Result { series }
}

impl Fig6Result {
    /// Looks up one series.
    pub fn series_for(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> Option<&Fig6Series> {
        self.series.iter().find(|s| {
            s.profiler == profiler
                && s.error_count == error_count
                && (s.probability - probability).abs() < 1e-9
        })
    }

    /// Renders one table row per series, with coverage at each checkpoint.
    pub fn render(&self) -> String {
        let checkpoints: Vec<usize> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(r, _)| *r).collect())
            .unwrap_or_default();
        let mut header = vec![
            "profiler".to_owned(),
            "pre-corr errors".to_owned(),
            "per-bit p".to_owned(),
        ];
        header.extend(checkpoints.iter().map(|r| format!("r{r}")));
        let mut table = TextTable::new(header);
        for s in &self.series {
            let mut row = vec![
                s.profiler.to_string(),
                s.error_count.to_string(),
                percent(s.probability),
            ];
            row.extend(s.points.iter().map(|(_, c)| fixed(*c, 3)));
            table.push_row(row);
        }
        format!(
            "Fig. 6: coverage of bits at risk of direct errors vs. profiling rounds\n{}",
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
    fn harp_reaches_full_coverage_and_beats_baselines() {
        let result = run(&tiny_config());
        for &count in &[2usize, 4] {
            let harp = result.series_for(ProfilerKind::HarpU, count, 0.5).unwrap();
            let naive = result.series_for(ProfilerKind::Naive, count, 0.5).unwrap();
            let final_harp = harp.points.last().unwrap().1;
            let final_naive = naive.points.last().unwrap().1;
            assert!(
                (final_harp - 1.0).abs() < 1e-9,
                "HARP final coverage {final_harp}"
            );
            assert!(final_harp >= final_naive);
            // HARP is also at least as good at every checkpoint.
            for ((_, h), (_, n)) in harp.points.iter().zip(&naive.points) {
                assert!(h + 1e-9 >= *n);
            }
        }
    }

    #[test]
    fn coverage_is_monotonic_in_rounds() {
        let result = run(&tiny_config());
        for s in &result.series {
            for window in s.points.windows(2) {
                assert!(window[1].1 + 1e-12 >= window[0].1);
            }
        }
    }

    #[test]
    fn render_lists_every_profiler() {
        let rendered = run(&tiny_config()).render();
        assert!(rendered.contains("HARP-U"));
        assert!(rendered.contains("Naive"));
        assert!(rendered.contains("BEEP"));
    }
}
