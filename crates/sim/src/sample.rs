//! Monte-Carlo sampling of ECC words.
//!
//! Each sample is one simulated ECC word: a randomly generated code (shared
//! by all words of the same code index) plus a set of at-risk pre-correction
//! bits with a per-bit error probability. The sampling is fully
//! deterministic given the [`EvaluationConfig`] base seed, so all profilers
//! are evaluated against the exact same population of words — the fairness
//! requirement of §7.1.2.
//!
//! Every sweep takes its population from one `SweepPlan`, which builds each
//! code once and lists the code groups in global group order,
//! `g = cell_index · num_codes + code_index`; the worker that runs a group
//! draws its words. [`sample_words_with`] lists one cell's words, for any
//! seeded code factory, exactly as the plan draws them.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_memsim::fault::RetentionSampler;
use harp_memsim::FaultModel;
use harp_profiler::{BatchWord, CampaignBatch};

use crate::config::EvaluationConfig;

/// One simulated ECC word, generic over the protecting code.
#[derive(Debug, Clone)]
pub struct WordSample<C: LinearBlockCode = HammingCode> {
    /// Index of the randomly generated code this word belongs to.
    pub code_index: usize,
    /// Index of the word within its code.
    pub word_index: usize,
    /// The on-die ECC code protecting this word.
    pub code: C,
    /// The word's at-risk bits and their failure probability.
    pub faults: FaultModel,
    /// Deterministic seed for the profiling campaign on this word.
    pub campaign_seed: u64,
}

/// One sweep cell: how its words' at-risk bits are drawn. A coverage cell
/// (Figs. 6–9) gives each word exactly `error_count` at-risk bits; a
/// retention cell (Fig. 10, no error count) puts each bit at risk with
/// probability `rber`. Each at-risk bit fails with `probability`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub(crate) error_count: Option<usize>,
    pub(crate) rber: f64,
    pub(crate) probability: f64,
}

impl Cell {
    /// The coverage sweep's cells, in cell order (see [`coverage_cell`]).
    pub(crate) fn coverage(config: &EvaluationConfig) -> Vec<Self> {
        let cells = 0..config.error_counts.len() * config.probabilities.len();
        let labels = cells.map(|cell| coverage_cell(config, cell));
        labels
            .map(|(count, probability)| Cell {
                error_count: Some(count),
                rber: 0.0,
                probability,
            })
            .collect()
    }
}

/// The error count and probability of coverage-sweep cell `cell` (error
/// count major, probability minor): the labels of its evaluations.
pub(crate) fn coverage_cell(config: &EvaluationConfig, cell: usize) -> (usize, f64) {
    let probabilities = config.probabilities.len();
    (
        config.error_counts[cell / probabilities],
        config.probabilities[cell % probabilities],
    )
}

/// The code groups of one sweep, in global group order: group
/// `g = cell_index · num_codes + code_index` holds the `words_per_code`
/// words of code `code_index` in cell `cell_index`. Each code is built once,
/// with the plan; a group's words are drawn when it is batched.
pub(crate) struct SweepPlan<'a, C> {
    config: &'a EvaluationConfig,
    cells: Vec<Cell>,
    codes: Vec<C>,
}

impl<'a, C: LinearBlockCode + Clone> SweepPlan<'a, C> {
    /// Plans `cells`, building code `i` with `make_code` from its seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EvaluationConfig::validate`]).
    pub(crate) fn new(
        config: &'a EvaluationConfig,
        cells: Vec<Cell>,
        make_code: impl Fn(u64) -> C,
    ) -> Self {
        config.validate();
        let codes = (0..config.num_codes)
            .map(|code| make_code(config.seed_for(code, 0, 0xC0DE)))
            .collect();
        Self {
            config,
            cells,
            codes,
        }
    }

    /// Every group index, in global group order.
    pub(crate) fn groups(&self) -> Vec<usize> {
        (0..self.cells.len() * self.codes.len()).collect()
    }

    /// Group `group`'s code and, in word order, each word's faults, drawn
    /// from the word's own seeded RNG, and campaign seed.
    fn words(&self, group: usize) -> (&C, impl Iterator<Item = (FaultModel, u64)> + '_) {
        let (cell, code) = (
            self.cells[group / self.codes.len()],
            group % self.codes.len(),
        );
        let len = self.codes[code].codeword_len();
        let word_salt = cell
            .error_count
            .map_or((cell.rber * 1e12) as u64, |n| n as u64);
        let sampler = RetentionSampler::new(cell.rber, cell.probability);
        let words = (0..self.config.words_per_code).map(move |word| {
            let word_seed = self.config.seed_for(code, word, word_salt);
            let mut rng = ChaCha8Rng::seed_from_u64(word_seed);
            let faults = match cell.error_count {
                Some(count) => sampler.sample_word_with_count(len, count, &mut rng),
                None => {
                    let faults = sampler.sample_word(len, &mut rng);
                    // Exhaustive ground truth is exponential in the at-risk
                    // count; clamp pathological samples (essentially
                    // impossible at the RBERs the paper sweeps, but cheap
                    // insurance).
                    let mut at_risk = faults.at_risk_bits().to_vec();
                    at_risk.truncate(ErrorSpace::MAX_AT_RISK_BITS);
                    FaultModel::new(at_risk, faults.dependence())
                }
            };
            (faults, word_seed ^ 0xA11C_E5ED)
        });
        (&self.codes[code], words)
    }

    /// Group `group`'s words, drawn now, batched under its code.
    pub(crate) fn batch(&self, group: usize) -> CampaignBatch<C>
    where
        C: Send + 'static,
    {
        let (code, words) = self.words(group);
        let pattern = self.config.pattern;
        let words = words.map(|(faults, seed)| BatchWord::new(faults, pattern, seed));
        CampaignBatch::new(code.clone(), words.collect())
    }
}

/// Generates the word population of one coverage cell (error count,
/// probability), code-major, building each code with `make_code` from its
/// deterministic seed: the words a sweep's plan draws for the cell.
///
/// The at-risk *positions* are sampled over each code's own codeword length,
/// so populations generated for different code families share the sampling
/// methodology (and campaign seeds) even when their codeword geometries
/// differ.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`EvaluationConfig::validate`]).
pub fn sample_words_with<C, F>(
    config: &EvaluationConfig,
    error_count: usize,
    probability: f64,
    make_code: F,
) -> Vec<WordSample<C>>
where
    C: LinearBlockCode + Clone,
    F: Fn(u64) -> C,
{
    let cells = vec![Cell {
        error_count: Some(error_count),
        rber: 0.0,
        probability,
    }];
    let plan = SweepPlan::new(config, cells, make_code);
    // One cell, so group `g` is code `g`.
    let per_code = plan.groups().into_iter().map(|code_index| {
        let (code, words) = plan.words(code_index);
        words
            .enumerate()
            .map(move |(word_index, (faults, campaign_seed))| WordSample {
                code_index,
                word_index,
                code: code.clone(),
                faults,
                campaign_seed,
            })
    });
    per_code.flatten().collect()
}

/// Generates the word population for one (error count, probability)
/// configuration with randomly generated SEC Hamming codes (the paper's
/// evaluated configuration).
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`EvaluationConfig::validate`]) or code generation fails.
pub fn sample_words(
    config: &EvaluationConfig,
    error_count: usize,
    probability: f64,
) -> Vec<WordSample> {
    sample_words_with(config, error_count, probability, |seed| {
        HammingCode::random(config.data_bits, seed)
            .expect("valid configuration always yields a valid code")
    })
}

/// Groups a population into its **code groups**: contiguous runs of words
/// sharing a `code_index` (and therefore a parity-check matrix). The
/// samplers above emit words in code-major order, so each returned slice is
/// one complete code group, in code-index order: the words a sweep's plan
/// batches as one group. No sweep calls it (sweeps draw their groups from
/// the plan); perfbench's traced replay of the coverage sweep does.
pub fn group_by_code<C: LinearBlockCode>(samples: &[WordSample<C>]) -> Vec<&[WordSample<C>]> {
    let mut groups = Vec::new();
    let mut start = 0;
    for end in 1..=samples.len() {
        if end == samples.len() || samples[end].code_index != samples[start].code_index {
            groups.push(&samples[start..end]);
            start = end;
        }
    }
    groups
}

/// Splits code groups into sub-shards when there are fewer groups than
/// worker threads, so cell-batched work never caps parallelism at the number
/// of codes (e.g. `num_codes = 2`, `threads = 16`). Word order within and
/// across groups is preserved, and each sub-shard still holds words of a
/// single code. No sweep calls it; perfbench's traced replay does.
///
/// Safe by construction: a word's campaign snapshots do not depend on its
/// cell membership (each word keeps its own RNG streams — the invariant the
/// `campaign_equivalence` differential suite enforces), so any partition of
/// a group produces identical results.
pub fn shard_groups<C: LinearBlockCode>(
    groups: Vec<&[WordSample<C>]>,
    threads: usize,
) -> Vec<&[WordSample<C>]> {
    let total: usize = groups.iter().map(|group| group.len()).sum();
    if threads <= groups.len() || total == 0 {
        return groups;
    }
    // Aim for ~2 shards per thread so uneven cells still load-balance.
    let target_shards = (threads * 2).min(total);
    let shard_size = total.div_ceil(target_shards).max(1);
    groups
        .into_iter()
        .flat_map(|group| group.chunks(shard_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let config = EvaluationConfig::smoke();
        let a = sample_words(&config, 3, 0.5);
        let b = sample_words(&config, 3, 0.5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.code, y.code);
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.campaign_seed, y.campaign_seed);
        }
    }

    #[test]
    fn sample_count_matches_config() {
        let config = EvaluationConfig::smoke();
        let samples = sample_words(&config, 2, 1.0);
        assert_eq!(samples.len(), config.words_total());
        for s in &samples {
            assert_eq!(s.faults.at_risk_positions().len(), 2);
            assert_eq!(s.code.data_len(), config.data_bits);
            for bit in s.faults.at_risk_bits() {
                assert_eq!(bit.probability, 1.0);
            }
        }
    }

    #[test]
    fn words_of_the_same_code_share_the_parity_check_matrix() {
        let config = EvaluationConfig::smoke();
        let samples = sample_words(&config, 2, 0.5);
        let first_code = &samples[0].code;
        for s in samples.iter().filter(|s| s.code_index == 0) {
            assert_eq!(&s.code, first_code);
        }
        // Different code indices produce different matrices.
        let other = samples.iter().find(|s| s.code_index == 1).unwrap();
        assert_ne!(&other.code, first_code);
    }

    #[test]
    fn different_error_counts_produce_different_at_risk_sets() {
        let config = EvaluationConfig::smoke();
        let two = sample_words(&config, 2, 0.5);
        let four = sample_words(&config, 4, 0.5);
        assert!(two.iter().all(|s| s.faults.at_risk_positions().len() == 2));
        assert!(four.iter().all(|s| s.faults.at_risk_positions().len() == 4));
    }

    #[test]
    fn group_by_code_yields_one_complete_group_per_code() {
        let config = EvaluationConfig::smoke();
        let samples = sample_words(&config, 2, 0.5);
        let groups = group_by_code(&samples);
        assert_eq!(groups.len(), config.num_codes);
        for (code_index, group) in groups.iter().enumerate() {
            assert_eq!(group.len(), config.words_per_code);
            for (word_index, sample) in group.iter().enumerate() {
                assert_eq!(sample.code_index, code_index);
                assert_eq!(sample.word_index, word_index);
                assert_eq!(&sample.code, &group[0].code);
            }
        }
        // The grouping is a pure view: concatenating the groups reproduces
        // the population in order.
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, samples.len());
    }

    #[test]
    fn group_by_code_handles_empty_and_single_word_populations() {
        let empty: Vec<WordSample> = Vec::new();
        assert!(group_by_code(&empty).is_empty());

        let config = EvaluationConfig {
            num_codes: 3,
            words_per_code: 1,
            ..EvaluationConfig::smoke()
        };
        let samples = sample_words(&config, 2, 1.0);
        let groups = group_by_code(&samples);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn shard_groups_is_a_no_op_when_groups_cover_the_threads() {
        let config = EvaluationConfig::smoke();
        let samples = sample_words(&config, 2, 0.5);
        let groups = group_by_code(&samples);
        for threads in [1, groups.len()] {
            let sharded = shard_groups(groups.clone(), threads);
            assert_eq!(sharded.len(), groups.len());
            for (shard, group) in sharded.iter().zip(&groups) {
                assert!(std::ptr::eq(*shard, *group));
            }
        }
    }

    #[test]
    fn shard_groups_splits_big_groups_and_preserves_word_order() {
        let config = EvaluationConfig {
            num_codes: 2,
            words_per_code: 16,
            ..EvaluationConfig::smoke()
        };
        let samples = sample_words(&config, 2, 0.5);
        let groups = group_by_code(&samples);
        let threads = 8;
        let sharded = shard_groups(groups, threads);
        // Enough shards for every thread, each holding one code only.
        assert!(sharded.len() >= threads);
        for shard in &sharded {
            assert!(!shard.is_empty());
            assert!(shard.iter().all(|s| s.code_index == shard[0].code_index));
        }
        // Concatenating the shards reproduces the population in order.
        let flattened: Vec<(usize, usize)> = sharded
            .iter()
            .flat_map(|shard| shard.iter().map(|s| (s.code_index, s.word_index)))
            .collect();
        let expected: Vec<(usize, usize)> = samples
            .iter()
            .map(|s| (s.code_index, s.word_index))
            .collect();
        assert_eq!(flattened, expected);
    }

    #[test]
    fn retention_sampling_tracks_rber() {
        let mut config = EvaluationConfig::smoke();
        config.words_per_code = 64;
        let cells = vec![Cell {
            error_count: None,
            rber: 0.05,
            probability: 0.75,
        }];
        let plan = SweepPlan::new(&config, cells, |seed| {
            HammingCode::random(config.data_bits, seed).unwrap()
        });
        let batches: Vec<_> = plan.groups().into_iter().map(|g| plan.batch(g)).collect();
        let words: Vec<&BatchWord> = batches.iter().flat_map(|b| b.words()).collect();
        assert_eq!(words.len(), config.words_total());
        let total_at_risk: usize = words
            .iter()
            .map(|w| w.faults.at_risk_positions().len())
            .sum();
        let density = total_at_risk as f64 / (words.len() * 71) as f64;
        assert!(
            (density - 0.05).abs() < 0.02,
            "empirical density {density} too far from 0.05"
        );
        for w in &words {
            assert!(w.faults.at_risk_positions().len() <= ErrorSpace::MAX_AT_RISK_BITS);
        }
    }

    #[test]
    fn plan_groups_hold_the_cells_flat_samples_in_group_order() {
        let config = EvaluationConfig::smoke();
        let plan = SweepPlan::new(&config, Cell::coverage(&config), |seed| {
            HammingCode::random(config.data_bits, seed).unwrap()
        });
        assert_eq!(
            plan.groups().len(),
            Cell::coverage(&config).len() * config.num_codes
        );
        for group in plan.groups() {
            let (error_count, probability) = coverage_cell(&config, group / config.num_codes);
            let samples = sample_words(&config, error_count, probability);
            let expected = group_by_code(&samples)[group % config.num_codes];
            let batch = plan.batch(group);
            assert_eq!(batch.code(), &expected[0].code);
            assert_eq!(batch.len(), expected.len());
            for (word, sample) in batch.words().iter().zip(expected) {
                assert_eq!(word.faults, sample.faults);
                assert_eq!(word.seed, sample.campaign_seed);
                assert_eq!(word.pattern, config.pattern);
            }
        }
    }
}
