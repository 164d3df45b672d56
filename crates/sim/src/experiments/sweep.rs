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
//! inside a shard, threading across shards. Batched snapshots are
//! bit-identical to the per-word [`harp_profiler::ProfilingCampaign`]
//! reference path (enforced by `tests/campaign_equivalence.rs`), so this is
//! purely an execution-plan change.
//!
//! The group pipeline here — `group_batch`, `score_group` and
//! `label_series` — is shared with the fig10 active phase and with
//! [`ResumableSweep`](crate::checkpoint::ResumableSweep), so every sweep
//! builds, scores and labels a code group the same way.

use serde::{Deserialize, Serialize};

use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_profiler::{BatchWord, CampaignBatch, CampaignResult, CoverageSeries, ProfilerKind};

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

/// Builds the cell-batched campaign of one code group (all words of a sweep
/// cell sharing a code). The one-shot sweep, the fig10 active phase and
/// [`ResumableSweep`](crate::checkpoint::ResumableSweep) all batch a group
/// through this function.
pub(crate) fn group_batch<C: LinearBlockCode + Clone + Send + 'static>(
    group: &[WordSample<C>],
    pattern: DataPattern,
) -> CampaignBatch<C> {
    CampaignBatch::new(
        group[0].code.clone(),
        group
            .iter()
            .map(|sample| BatchWord::new(sample.faults.clone(), pattern, sample.campaign_seed))
            .collect(),
    )
}

/// Scores each profiler's per-word results against the group's ground
/// truth, returning `series[profiler][word]`.
///
/// Every word's [`ErrorSpace`] is enumerated once, before the first result
/// is pulled, and shared across profilers. `per_profiler` is consumed one
/// profiler at a time, so a lazy iterator that runs each campaign on demand
/// keeps only one profiler's snapshots alive: they are reduced to compact
/// series and dropped before the next profiler runs.
pub(crate) fn score_group<C, I>(
    batch: &CampaignBatch<C>,
    per_profiler: I,
) -> Vec<Vec<CoverageSeries>>
where
    C: LinearBlockCode + Clone + Send + 'static,
    I: IntoIterator<Item = Vec<CampaignResult>>,
{
    let spaces: Vec<ErrorSpace> = (0..batch.len())
        .map(|word| batch.error_space(word))
        .collect();
    per_profiler
        .into_iter()
        .map(|results| {
            results
                .iter()
                .zip(&spaces)
                .map(|(result, space)| CoverageSeries::from_campaign(result, space))
                .collect()
        })
        .collect()
}

/// Runs every requested profiler to completion on one code group, one
/// [`CampaignBatch::run`] (one burst per round) after another, and scores
/// each as soon as it finishes: `series[profiler][word]`. This is the
/// one-shot group pipeline behind the coverage sweep *and* the fig10 case
/// study.
pub(crate) fn code_group_series<C: LinearBlockCode + Clone + Send + 'static>(
    group: &[WordSample<C>],
    profilers: &[ProfilerKind],
    pattern: DataPattern,
    rounds: usize,
) -> Vec<Vec<CoverageSeries>> {
    let batch = group_batch(group, pattern);
    score_group(
        &batch,
        profilers.iter().map(|&kind| batch.run(kind, rounds)),
    )
}

/// Labels a group's `series[profiler][word]` as [`WordEvaluation`]s of one
/// sweep cell, in word-major order (word, then profiler) — the order the
/// historical per-word loop produced.
pub(crate) fn label_series(
    series: Vec<Vec<CoverageSeries>>,
    profilers: &[ProfilerKind],
    error_count: usize,
    probability: f64,
) -> Vec<WordEvaluation> {
    let words = series.first().map_or(0, Vec::len);
    let mut columns: Vec<_> = series.into_iter().map(Vec::into_iter).collect();
    let mut evaluations = Vec::with_capacity(words * profilers.len());
    for _ in 0..words {
        for (&profiler, column) in profilers.iter().zip(&mut columns) {
            evaluations.extend(column.next().map(|series| WordEvaluation {
                error_count,
                probability,
                profiler,
                series,
            }));
        }
    }
    evaluations
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
                let series = code_group_series(group, profilers, config.pattern, config.rounds);
                label_series(series, profilers, error_count, probability)
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
