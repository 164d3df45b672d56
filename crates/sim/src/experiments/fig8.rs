//! Fig. 8: bits at risk of indirect error that each profiler has *missed*
//! (i.e. that reactive profiling still has to identify), per ECC word, as a
//! function of profiling rounds.
//!
//! The expected shape: HARP-U misses essentially all indirect bits (it never
//! observes the correction process), HARP-A immediately predicts the subset
//! implied by the identified direct bits, Naive and BEEP grind down the count
//! slowly by exploring uncorrectable patterns, and HARP-A+BEEP combines the
//! head start with active exploration.

use serde::{Deserialize, Serialize};

use harp_profiler::ProfilerKind;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use crate::report::{fixed, percent, TextTable};
use crate::stats::{mean, round_checkpoints};

/// Profilers compared in Fig. 8.
pub const PROFILERS: [ProfilerKind; 5] = [
    ProfilerKind::HarpA,
    ProfilerKind::HarpU,
    ProfilerKind::Naive,
    ProfilerKind::Beep,
    ProfilerKind::HarpABeep,
];

/// Missed-indirect-error counts at each checkpoint for one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Profiler evaluated.
    pub profiler: ProfilerKind,
    /// Number of pre-correction errors per ECC word.
    pub error_count: usize,
    /// Per-bit pre-correction error probability.
    pub probability: f64,
    /// `(round, mean missed indirect at-risk bits per ECC word)`.
    pub points: Vec<(usize, f64)>,
}

/// The Fig. 8 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// All series.
    pub series: Vec<Fig8Series>,
}

/// Runs the experiment (including the underlying coverage sweep over all
/// five profilers).
pub fn run(config: &EvaluationConfig) -> Fig8Result {
    from_sweep(&run_coverage_sweep(config, &PROFILERS))
}

/// Aggregates an existing coverage sweep into the Fig. 8 series.
pub fn from_sweep(sweep: &CoverageSweep) -> Fig8Result {
    let checkpoints = round_checkpoints(sweep.rounds);
    let mut series = Vec::new();
    for &profiler in &sweep.profilers {
        for &error_count in &sweep.error_counts {
            for &probability in &sweep.probabilities {
                let evaluations: Vec<_> = sweep.cell(profiler, error_count, probability).collect();
                let points = checkpoints
                    .iter()
                    .map(|&round| {
                        let missed: Vec<f64> = evaluations
                            .iter()
                            .map(|e| e.series.score_at(round - 1).missed_indirect as f64)
                            .collect();
                        (round, mean(&missed))
                    })
                    .collect();
                series.push(Fig8Series {
                    profiler,
                    error_count,
                    probability,
                    points,
                });
            }
        }
    }
    Fig8Result { series }
}

impl Fig8Result {
    /// Looks up one series.
    pub fn series_for(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> Option<&Fig8Series> {
        self.series.iter().find(|s| {
            s.profiler == profiler
                && s.error_count == error_count
                && (s.probability - probability).abs() < 1e-9
        })
    }

    /// Renders one row per series with the mean missed count per checkpoint.
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
            row.extend(s.points.iter().map(|(_, m)| fixed(*m, 2)));
            table.push_row(row);
        }
        format!(
            "Fig. 8: bits at risk of indirect error missed per ECC word vs. profiling rounds\n{}",
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
            error_counts: vec![3],
            probabilities: vec![1.0],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn harp_a_misses_fewer_indirect_bits_than_harp_u() {
        let result = run(&tiny_config());
        let harp_a = result.series_for(ProfilerKind::HarpA, 3, 1.0).unwrap();
        let harp_u = result.series_for(ProfilerKind::HarpU, 3, 1.0).unwrap();
        let last_a = harp_a.points.last().unwrap().1;
        let last_u = harp_u.points.last().unwrap().1;
        assert!(
            last_a <= last_u,
            "HARP-A ({last_a}) should miss no more than HARP-U ({last_u})"
        );
    }

    #[test]
    fn missed_counts_are_non_negative_and_non_increasing() {
        let result = run(&tiny_config());
        for s in &result.series {
            for window in s.points.windows(2) {
                assert!(window[1].1 <= window[0].1 + 1e-9);
            }
            for (_, m) in &s.points {
                assert!(*m >= 0.0);
            }
        }
    }

    #[test]
    fn harp_a_beep_does_at_least_as_well_as_harp_a() {
        let result = run(&tiny_config());
        let harp_a = result.series_for(ProfilerKind::HarpA, 3, 1.0).unwrap();
        let combined = result.series_for(ProfilerKind::HarpABeep, 3, 1.0).unwrap();
        assert!(combined.points.last().unwrap().1 <= harp_a.points.last().unwrap().1 + 1e-9);
    }

    #[test]
    fn render_lists_all_five_profilers() {
        let rendered = run(&tiny_config()).render();
        for p in PROFILERS {
            assert!(rendered.contains(p.name()));
        }
    }
}
