//! The shared coverage sweep behind Figs. 6–9.
//!
//! The paper's active- and reactive-phase evaluations all derive from the
//! same Monte-Carlo experiment: for every combination of (number of
//! pre-correction errors per ECC word, per-bit error probability), simulate a
//! population of ECC words and run each profiler for 128 rounds, scoring each
//! round against the exact ground truth. [`run_coverage_sweep`] performs that
//! experiment once; the per-figure modules aggregate different views of it.
//!
//! Execution is **cell-batched**: one `SweepPlan` builds each code once and
//! lists the sweep's code groups (a cell's words that share a code), and
//! one [`parallel_map_mut`] region runs them all. The worker that takes a
//! group draws its words, runs them as one [`CampaignBatch`] scrubbed with
//! a single multi-word burst per round, labels the series and drops the
//! group. Batched rounds are bit-identical to the per-word
//! [`harp_profiler::ProfilingCampaign`] reference path (enforced by
//! `tests/campaign_equivalence.rs`), so this is purely an execution-plan
//! change.
//!
//! Each round is scored where it runs: a code group is one `GroupUnit`,
//! which pushes every word's round into its [`CoverageSeries`] as the
//! campaign produces it, so no sweep keeps a snapshot history. Only the
//! rounds that change a profile (and each word's first) are scored; the
//! others extend the last change point. The plan and the unit are shared
//! with the fig10 active phase and with
//! [`ResumableSweep`](crate::checkpoint::ResumableSweep), so every sweep
//! builds, scores and labels a code group the same way.

use serde::{Deserialize, Serialize};

use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_profiler::{BatchRun, CampaignBatch, CoverageSeries, ProfilerKind};

use crate::config::EvaluationConfig;
use crate::runner::parallel_map_mut;
use crate::sample::{coverage_cell, Cell, SweepPlan};

/// The coverage series of one (word, profiler) pair within the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WordEvaluation {
    /// Number of pre-correction errors injected into this word.
    pub error_count: usize,
    /// Per-bit pre-correction error probability.
    pub probability: f64,
    /// Which profiler produced this series.
    pub profiler: ProfilerKind,
    /// Per-round coverage metrics scored against the word's ground truth.
    pub series: CoverageSeries,
}

/// The full sweep: one [`WordEvaluation`] per (configuration, word,
/// profiler).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageSweep {
    /// Number of profiling rounds each campaign ran.
    pub rounds: usize,
    /// Error counts swept.
    pub error_counts: Vec<usize>,
    /// Probabilities swept.
    pub probabilities: Vec<f64>,
    /// Profilers evaluated.
    pub profilers: Vec<ProfilerKind>,
    /// All per-word results.
    pub evaluations: Vec<WordEvaluation>,
}

impl CoverageSweep {
    /// The sweep of `config` over `profilers` with these evaluations.
    pub(crate) fn of(
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
        evaluations: Vec<WordEvaluation>,
    ) -> Self {
        Self {
            rounds: config.rounds,
            error_counts: config.error_counts.clone(),
            probabilities: config.probabilities.clone(),
            profilers: profilers.to_vec(),
            evaluations,
        }
    }

    /// Iterates over the evaluations matching a (profiler, error count,
    /// probability) cell of the sweep.
    pub fn cell(
        &self,
        profiler: ProfilerKind,
        error_count: usize,
        probability: f64,
    ) -> impl Iterator<Item = &WordEvaluation> {
        self.evaluations.iter().filter(move |e| {
            e.profiler == profiler
                && e.error_count == error_count
                && (e.probability - probability).abs() < 1e-9
        })
    }

    /// Number of simulated words per sweep cell.
    pub fn words_per_cell(&self) -> usize {
        let Some(first) = self.evaluations.first() else {
            return 0;
        };
        self.cell(first.profiler, first.error_count, first.probability)
            .count()
    }
}

/// One code group of a sweep, scored as it runs: its global group index,
/// its [`CampaignBatch`], each word's [`ErrorSpace`] (enumerated once), one
/// [`BatchRun`] per profiler, and the running `series[profiler][word]`.
/// The one-shot sweep and the fig10 active phase drop each one once its
/// series are read; [`ResumableSweep`](crate::checkpoint::ResumableSweep)
/// keeps one per owned group between checkpoints.
#[derive(Debug)]
pub(crate) struct GroupUnit<C: LinearBlockCode> {
    pub(crate) index: usize,
    pub(crate) batch: CampaignBatch<C>,
    pub(crate) spaces: Vec<ErrorSpace>,
    pub(crate) runs: Vec<BatchRun<C>>,
    pub(crate) series: Vec<Vec<CoverageSeries>>,
}

impl<C: LinearBlockCode + Clone + Send + 'static> GroupUnit<C> {
    /// Draws group `index` of the plan and batches it for every profiler,
    /// at round 0.
    pub(crate) fn new(plan: &SweepPlan<C>, index: usize, profilers: &[ProfilerKind]) -> Self {
        let batch = plan.batch(index);
        let spaces: Vec<ErrorSpace> = (0..batch.len())
            .map(|word| batch.error_space(word))
            .collect();
        let runs = profilers
            .iter()
            .map(|&kind| BatchRun::new(&batch, kind))
            .collect();
        let series = profilers
            .iter()
            .map(|kind| {
                spaces
                    .iter()
                    .map(|space| CoverageSeries::new(kind.name(), space))
                    .collect()
            })
            .collect();
        Self {
            index,
            batch,
            spaces,
            runs,
            series,
        }
    }

    /// Advances every profiler's campaign by `rounds` rounds, one after
    /// another, adding each word's round to its series as it is produced:
    /// scored when the round changed the word's profile or is its first,
    /// and otherwise added unscored, since the score of an unchanged profile
    /// is the last one.
    pub(crate) fn advance(&mut self, rounds: usize) {
        for (run, series) in self.runs.iter_mut().zip(&mut self.series) {
            run.advance(rounds, |word, profiler, changed| {
                let series = &mut series[word];
                if changed || series.is_empty() {
                    series.push_round(
                        &self.spaces[word],
                        profiler.identified(),
                        &profiler.predicted(),
                    );
                } else {
                    series.push_unchanged();
                }
            });
        }
    }

    /// Labels the series as [`WordEvaluation`]s of the coverage-sweep cell
    /// the group belongs to under `config`, moving each one, in word-major
    /// order (word, then profiler) — the order the historical per-word loop
    /// produced.
    pub(crate) fn label(self, config: &EvaluationConfig) -> Vec<WordEvaluation> {
        let (error_count, probability) = coverage_cell(config, self.index / config.num_codes);
        let kinds: Vec<ProfilerKind> = self.runs.iter().map(BatchRun::kind).collect();
        let mut columns: Vec<_> = self.series.into_iter().map(Vec::into_iter).collect();
        let mut evaluations = Vec::with_capacity(kinds.len() * self.batch.len());
        for _ in 0..self.batch.len() {
            let word = columns.iter_mut().filter_map(Iterator::next);
            evaluations.extend(
                kinds
                    .iter()
                    .zip(word)
                    .map(|(&profiler, series)| WordEvaluation {
                        error_count,
                        probability,
                        profiler,
                        series,
                    }),
            );
        }
        evaluations
    }
}

/// Runs the full coverage sweep for the given profilers over any code
/// family: `make_code` builds the per-code-index on-die ECC code from a
/// deterministic seed. This is the single generic HARP campaign path behind
/// Figs. 6–9 *and* the cross-code comparison experiment.
pub fn run_coverage_sweep_with<C, F>(
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
    make_code: F,
) -> CoverageSweep
where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C,
{
    let plan = SweepPlan::new(config, Cell::coverage(config), make_code);
    // Each group labels straight into its slots of the one result vector.
    // Per-group vectors kept to the end of the region would each stay
    // allocated among the series, and concatenating them would then hold
    // every evaluation twice.
    let group_len = config.words_per_code * profilers.len();
    let mut slots: Vec<Option<WordEvaluation>> = vec![None; plan.groups().len() * group_len];
    let mut groups: Vec<_> = slots.chunks_mut(group_len).enumerate().collect();
    parallel_map_mut(&mut groups, config.threads, |(group, slots)| {
        let mut unit = GroupUnit::new(&plan, *group, profilers);
        unit.advance(config.rounds);
        for (slot, evaluation) in slots.iter_mut().zip(unit.label(config)) {
            *slot = Some(evaluation);
        }
    });
    let evaluations = slots
        .into_iter()
        .map(|slot| slot.expect("every group fills its slots"))
        .collect();
    CoverageSweep::of(config, profilers, evaluations)
}

/// Runs the full coverage sweep with randomly generated SEC Hamming codes
/// (the paper's evaluated on-die ECC).
pub fn run_coverage_sweep(config: &EvaluationConfig, profilers: &[ProfilerKind]) -> CoverageSweep {
    run_coverage_sweep_with(config, profilers, |seed| {
        HammingCode::random(config.data_bits, seed)
            .expect("valid configuration always yields a valid code")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 2,
            rounds: 32,
            error_counts: vec![2, 4],
            probabilities: vec![0.5, 1.0],
            ..EvaluationConfig::quick()
        }
    }

    #[test]
    fn sweep_has_one_evaluation_per_cell_word_and_profiler() {
        let config = tiny_config();
        let profilers = [ProfilerKind::HarpU, ProfilerKind::Naive];
        let sweep = run_coverage_sweep(&config, &profilers);
        let expected =
            config.error_counts.len() * config.probabilities.len() * config.words_total() * 2;
        assert_eq!(sweep.evaluations.len(), expected);
        assert_eq!(sweep.words_per_cell(), config.words_total());
        assert_eq!(sweep.rounds, 32);
        for e in &sweep.evaluations {
            assert_eq!(e.series.rounds(), 32);
        }
    }

    #[test]
    fn harp_dominates_naive_in_every_cell() {
        let config = tiny_config();
        let sweep = run_coverage_sweep(&config, &[ProfilerKind::HarpU, ProfilerKind::Naive]);
        for &count in &config.error_counts {
            for &prob in &config.probabilities {
                let harp_cov: f64 = sweep
                    .cell(ProfilerKind::HarpU, count, prob)
                    .map(|e| e.series.final_direct_coverage())
                    .sum();
                let naive_cov: f64 = sweep
                    .cell(ProfilerKind::Naive, count, prob)
                    .map(|e| e.series.final_direct_coverage())
                    .sum();
                assert!(
                    harp_cov >= naive_cov,
                    "HARP should never trail Naive (count {count}, prob {prob})"
                );
            }
        }
    }

    #[test]
    fn each_code_is_built_once_per_sweep() {
        let config = tiny_config();
        let builds = std::cell::Cell::new(0);
        let make_code = |seed| {
            builds.set(builds.get() + 1);
            HammingCode::random(config.data_bits, seed).unwrap()
        };
        run_coverage_sweep_with(&config, &[ProfilerKind::HarpU], make_code);
        assert_eq!(builds.replace(0), config.num_codes);
        crate::checkpoint::ResumableSweep::new(&config, &[ProfilerKind::HarpU], make_code);
        assert_eq!(builds.get(), config.num_codes);
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = tiny_config();
        let a = run_coverage_sweep(&config, &[ProfilerKind::Beep]);
        let b = run_coverage_sweep(&config, &[ProfilerKind::Beep]);
        assert_eq!(a, b);
    }
}
