//! Fig. 10: end-to-end case study — the data-retention bit error rate of a
//! system with an ideal bit-repair mechanism, before and after reactive
//! profiling, as a function of active profiling rounds.
//!
//! For every (RBER, per-bit probability) configuration the experiment samples
//! a population of ECC words whose cells are at risk with probability RBER,
//! runs each profiler's active phase, and reports:
//!
//! * **BER before reactive profiling** — the fraction of data bits still at
//!   risk of post-correction error given everything the profiler knows;
//! * **BER after reactive profiling** — the fraction still at risk after the
//!   single-error-correcting secondary ECC is allowed to identify (and the
//!   repair mechanism to repair) bits that fail one at a time. A word only
//!   contributes here if more than one simultaneous post-correction error
//!   remains possible, i.e. the secondary ECC can be overwhelmed.
//!
//! The shapes to reproduce: HARP reaches zero post-reactive BER within a few
//! rounds, Naive eventually reaches zero but needs several times more rounds
//! (3.7× at p = 0.75 in the paper), and BEEP never reaches zero.

use serde::{Deserialize, Serialize};

use harp_ecc::HammingCode;
use harp_profiler::{CoverageSeries, ProfilerKind};

use crate::config::EvaluationConfig;
use crate::experiments::sweep::GroupUnit;
use crate::report::{percent, scientific, TextTable};
use crate::runner::parallel_map;
use crate::sample::{Cell, SweepPlan};
use crate::stats::round_checkpoints;

/// Profilers compared in the case study.
pub const PROFILERS: [ProfilerKind; 4] = [
    ProfilerKind::Beep,
    ProfilerKind::HarpA,
    ProfilerKind::HarpU,
    ProfilerKind::Naive,
];

/// Default RBER sweep for the quick configuration.
///
/// The paper sweeps 1e-4 … 1e-8 over more than a million simulated words; a
/// laptop-scale population needs proportionally higher RBERs for any word to
/// contain at-risk bits at all. The values below keep the expected number of
/// at-risk bits per word in the same regime as the paper's evaluation while
/// remaining runnable in seconds (see EXPERIMENTS.md).
pub const DEFAULT_RBERS: [f64; 3] = [0.05, 0.02, 0.01];

/// BER series for one (profiler, RBER, probability) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Series {
    /// Profiler evaluated.
    pub profiler: ProfilerKind,
    /// Raw bit error rate (probability that a cell is at risk).
    pub rber: f64,
    /// Per-bit pre-correction error probability of at-risk cells.
    pub probability: f64,
    /// `(round, BER before reactive profiling)`.
    pub ber_before: Vec<(usize, f64)>,
    /// `(round, BER after reactive profiling)`.
    pub ber_after: Vec<(usize, f64)>,
}

impl Fig10Series {
    /// First checkpoint round at which the post-reactive BER reaches zero.
    pub fn rounds_to_zero_after(&self) -> Option<usize> {
        self.ber_after
            .iter()
            .find(|(_, ber)| *ber == 0.0)
            .map(|(round, _)| *round)
    }
}

/// The Fig. 10 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Result {
    /// All series.
    pub series: Vec<Fig10Series>,
    /// Number of data bits simulated per configuration (the BER denominator).
    pub total_data_bits: usize,
}

/// Runs the case study with the default RBER sweep.
pub fn run(config: &EvaluationConfig) -> Fig10Result {
    run_with_rbers(config, &DEFAULT_RBERS)
}

/// Runs the case study for specific RBERs.
pub fn run_with_rbers(config: &EvaluationConfig, rbers: &[f64]) -> Fig10Result {
    let checkpoints = round_checkpoints(config.rounds);
    let total_data_bits = config.words_total() * config.data_bits;
    let cell = |rber, probability| Cell {
        error_count: None,
        rber,
        probability,
    };
    let cells: Vec<Cell> = rbers
        .iter()
        .flat_map(|&rber| config.probabilities.iter().map(move |&p| cell(rber, p)))
        .collect();
    let plan = SweepPlan::new(config, cells.clone(), |seed| {
        HammingCode::random(config.data_bits, seed)
            .expect("valid configuration always yields a valid code")
    });
    // Per group, profiler and checkpoint: the bits missed before and after
    // reactive profiling. Each group runs as one cell-batched campaign per
    // profiler, in one region over every cell's groups.
    let per_group: Vec<Vec<Vec<(usize, usize)>>> =
        parallel_map(&plan.groups(), config.threads, |&group| {
            let mut unit = GroupUnit::new(&plan, group, &PROFILERS);
            unit.advance(config.rounds);
            let missed = |words: &[_]| checkpoints.iter().map(|&r| missed_bits(words, r)).collect();
            unit.series.iter().map(|words| missed(words)).collect()
        });

    let mut series = Vec::new();
    for (cell, groups) in cells.iter().zip(per_group.chunks(config.num_codes)) {
        for (profiler_index, &profiler) in PROFILERS.iter().enumerate() {
            let (mut ber_before, mut ber_after) = (Vec::new(), Vec::new());
            for (point, &round) in checkpoints.iter().enumerate() {
                let (before, after) = groups
                    .iter()
                    .map(|group| group[profiler_index][point])
                    .fold((0, 0), |(b, a), (before, after)| (b + before, a + after));
                ber_before.push((round, before as f64 / total_data_bits as f64));
                ber_after.push((round, after as f64 / total_data_bits as f64));
            }
            series.push(Fig10Series {
                profiler,
                rber: cell.rber,
                probability: cell.probability,
                ber_before,
                ber_after,
            });
        }
    }
    Fig10Result {
        series,
        total_data_bits,
    }
}

/// The bits of `words` the profiler has not found by `round`, and those of
/// them still at risk after reactive profiling: the secondary ECC handles
/// the words where at most one simultaneous error remains possible.
fn missed_bits(words: &[CoverageSeries], round: usize) -> (usize, usize) {
    words.iter().fold((0, 0), |(before, after), s| {
        let score = s.score_at(round - 1);
        let missing = s.direct_truth_len - score.direct_hits + score.missed_indirect;
        let overwhelmed = score.max_simultaneous > 1;
        (
            before + missing,
            after + if overwhelmed { missing } else { 0 },
        )
    })
}

impl Fig10Result {
    /// Looks up one series.
    pub fn series_for(
        &self,
        profiler: ProfilerKind,
        rber: f64,
        probability: f64,
    ) -> Option<&Fig10Series> {
        self.series.iter().find(|s| {
            s.profiler == profiler
                && (s.rber - rber).abs() < 1e-12
                && (s.probability - probability).abs() < 1e-9
        })
    }

    /// Renders both panels (before / after reactive profiling).
    pub fn render(&self) -> String {
        let checkpoints: Vec<usize> = self
            .series
            .first()
            .map(|s| s.ber_before.iter().map(|(r, _)| *r).collect())
            .unwrap_or_default();
        let render_panel = |title: &str, select_after: bool| {
            let mut header = vec![
                "profiler".to_owned(),
                "RBER".to_owned(),
                "per-bit p".to_owned(),
            ];
            header.extend(checkpoints.iter().map(|r| format!("r{r}")));
            let mut table = TextTable::new(header);
            for s in &self.series {
                let points = if select_after {
                    &s.ber_after
                } else {
                    &s.ber_before
                };
                let mut row = vec![
                    s.profiler.to_string(),
                    scientific(s.rber),
                    percent(s.probability),
                ];
                row.extend(points.iter().map(|(_, ber)| scientific(*ber)));
                table.push_row(row);
            }
            format!("{title}\n{}", table.render())
        };
        format!(
            "{}\n{}",
            render_panel(
                "Fig. 10 (left): data-retention BER before reactive profiling",
                false
            ),
            render_panel(
                "Fig. 10 (right): data-retention BER after reactive profiling",
                true
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 8,
            rounds: 64,
            probabilities: vec![0.75],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn harp_reaches_zero_ber_after_reactive_profiling() {
        let result = run_with_rbers(&tiny_config(), &[0.05]);
        let harp = result.series_for(ProfilerKind::HarpU, 0.05, 0.75).unwrap();
        assert_eq!(
            harp.ber_after.last().unwrap().1,
            0.0,
            "HARP must end with zero post-reactive BER"
        );
        assert!(harp.rounds_to_zero_after().is_some());
    }

    #[test]
    fn harp_is_at_least_as_fast_as_naive_to_zero_ber() {
        let result = run_with_rbers(&tiny_config(), &[0.05]);
        let harp = result
            .series_for(ProfilerKind::HarpU, 0.05, 0.75)
            .unwrap()
            .rounds_to_zero_after()
            .expect("HARP reaches zero");
        let naive = result
            .series_for(ProfilerKind::Naive, 0.05, 0.75)
            .unwrap()
            .rounds_to_zero_after();
        // When Naive never reached zero within the budget, HARP is
        // trivially faster.
        if let Some(naive_rounds) = naive {
            assert!(harp <= naive_rounds);
        }
    }

    #[test]
    fn ber_values_are_valid_rates_and_non_increasing() {
        let result = run_with_rbers(&tiny_config(), &[0.05]);
        assert!(result.total_data_bits > 0);
        for s in &result.series {
            for window in s.ber_before.windows(2) {
                assert!(window[1].1 <= window[0].1 + 1e-12);
            }
            for (_, ber) in s.ber_before.iter().chain(&s.ber_after) {
                assert!((0.0..=1.0).contains(ber));
            }
        }
    }

    #[test]
    fn harp_a_before_reactive_ber_is_no_worse_than_harp_u() {
        let result = run_with_rbers(&tiny_config(), &[0.05]);
        let harp_a = result.series_for(ProfilerKind::HarpA, 0.05, 0.75).unwrap();
        let harp_u = result.series_for(ProfilerKind::HarpU, 0.05, 0.75).unwrap();
        let last = harp_a.ber_before.len() - 1;
        assert!(harp_a.ber_before[last].1 <= harp_u.ber_before[last].1 + 1e-12);
    }

    #[test]
    fn render_contains_both_panels() {
        let rendered = run_with_rbers(&tiny_config(), &[0.05]).render();
        assert!(rendered.contains("before reactive profiling"));
        assert!(rendered.contains("after reactive profiling"));
    }
}
