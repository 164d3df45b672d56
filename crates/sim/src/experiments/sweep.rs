//! The shared coverage sweep behind Figs. 6–9.
//!
//! The paper's active- and reactive-phase evaluations all derive from the
//! same Monte-Carlo experiment: for every combination of (number of
//! pre-correction errors per ECC word, per-bit error probability), simulate a
//! population of ECC words and run each profiler for 128 rounds, scoring each
//! round against the exact ground truth. [`run_coverage_sweep`] performs that
//! experiment once; the per-figure modules aggregate different views of it.
//!
//! Execution is **cell-batched**: the population of each sweep cell is
//! grouped by code index ([`crate::sample::group_by_code`]), every group runs
//! as one [`CampaignBatch`] whose words are scrubbed with a single multi-word
//! burst per round, and [`parallel_map`] shards across the groups — batching
//! inside a shard, threading across shards. Batched rounds are
//! bit-identical to the per-word [`harp_profiler::ProfilingCampaign`]
//! reference path (enforced by `tests/campaign_equivalence.rs`), so this is
//! purely an execution-plan change.
//!
//! Each round is scored where it runs: a code group is one `GroupUnit`,
//! which pushes every word's round into its [`CoverageSeries`] as the
//! campaign produces it, so no sweep keeps a snapshot history. Only the
//! rounds that change a profile (and each word's first) are scored; the
//! others extend the last change point. The unit is
//! shared with the fig10 active phase and with
//! [`ResumableSweep`](crate::checkpoint::ResumableSweep), so every sweep
//! builds, scores and labels a code group the same way.

use serde::{Deserialize, Serialize};

use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_profiler::{BatchRun, BatchWord, CampaignBatch, CoverageSeries, ProfilerKind};

use crate::config::EvaluationConfig;
use crate::runner::parallel_map;
use crate::sample::{group_by_code, sample_words_with, shard_groups, WordSample};

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

/// One code group of one sweep cell, scored as it runs: the group's
/// [`CampaignBatch`], each word's [`ErrorSpace`] (enumerated once), one
/// [`BatchRun`] per profiler, and the running `series[profiler][word]`.
/// The one-shot sweep and the fig10 active phase build one per group and
/// drop it after labelling; [`ResumableSweep`](crate::checkpoint::ResumableSweep)
/// keeps one per owned group between checkpoints.
#[derive(Debug)]
pub(crate) struct GroupUnit<C: LinearBlockCode> {
    pub(crate) batch: CampaignBatch<C>,
    pub(crate) spaces: Vec<ErrorSpace>,
    pub(crate) runs: Vec<BatchRun<C>>,
    pub(crate) series: Vec<Vec<CoverageSeries>>,
}

impl<C: LinearBlockCode + Clone + Send + 'static> GroupUnit<C> {
    /// Batches a code group (all words of a sweep cell sharing a code) for
    /// every profiler, at round 0.
    pub(crate) fn new(
        group: &[WordSample<C>],
        profilers: &[ProfilerKind],
        pattern: DataPattern,
    ) -> Self {
        let batch = CampaignBatch::new(
            group[0].code.clone(),
            group
                .iter()
                .map(|sample| BatchWord::new(sample.faults.clone(), pattern, sample.campaign_seed))
                .collect(),
        );
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

    /// Labels the series as [`WordEvaluation`]s of one sweep cell, moving
    /// each one, in word-major order (word, then profiler) — the order the
    /// historical per-word loop produced.
    pub(crate) fn label(self, error_count: usize, probability: f64) -> Vec<WordEvaluation> {
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
    config.validate();
    let mut evaluations = Vec::new();
    for &error_count in &config.error_counts {
        for &probability in &config.probabilities {
            let samples = sample_words_with(config, error_count, probability, &make_code);
            let groups = shard_groups(
                group_by_code(&samples),
                crate::runner::effective_threads(config.threads),
            );
            let per_group = parallel_map(&groups, config.threads, |group| {
                let mut unit = GroupUnit::new(group, profilers, config.pattern);
                unit.advance(config.rounds);
                unit.label(error_count, probability)
            });
            evaluations.extend(per_group.into_iter().flatten());
        }
    }
    CoverageSweep {
        rounds: config.rounds,
        error_counts: config.error_counts.clone(),
        probabilities: config.probabilities.clone(),
        profilers: profilers.to_vec(),
        evaluations,
    }
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
    fn sweep_is_deterministic() {
        let config = tiny_config();
        let a = run_coverage_sweep(&config, &[ProfilerKind::Beep]);
        let b = run_coverage_sweep(&config, &[ProfilerKind::Beep]);
        assert_eq!(a, b);
    }
}
