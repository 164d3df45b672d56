//! Cell-batched profiling campaigns: every word of one Monte-Carlo sweep
//! cell scrubbed in a single burst per round.
//!
//! The paper's evaluation (§7.1.2, §A.7) runs thousands of *independent* ECC
//! words per sweep cell; all words sharing a code index use the same
//! parity-check matrix, differing only in their fault models and seeds.
//! [`ProfilingCampaign::run_profiler`] simulates one such word per
//! [`MemoryChip`](harp_memsim::MemoryChip) and therefore issues one-word
//! bursts — the batched syndrome kernel never sees more than a single word
//! per call. [`CampaignBatch`] describes a whole cell's words; its
//! [`BatchRun`] engine loads them into one multi-word chip and scrubs them
//! with **one
//! [`MemoryChip::read_burst_with_rngs`](harp_memsim::MemoryChip::read_burst_with_rngs)
//! per round**, turning the kernel's batched bit-sliced evaluation — 64
//! words per transposed block, clean words short-circuited by the block's
//! nonzero-syndrome mask — into the default data flow of every sweep.
//! [`CampaignBatch::run`] is that engine advanced once and never
//! checkpointed; [`BatchRun::advance`] is the only batched round loop.
//!
//! The batching is an execution-plan change only. Each word keeps its own
//! ChaCha8 fault-injection stream (derived from its campaign seed exactly as
//! the scalar path derives it) and its own profiler instance, so every
//! per-round snapshot is **bit-identical** to running that word alone through
//! [`ProfilingCampaign::run_profiler`] — the scalar path stays as the
//! reference implementation, and the differential suite in
//! `tests/campaign_equivalence.rs` asserts the equivalence across all
//! profiler kinds and code families.
//!
//! # Example
//!
//! ```
//! use harp_ecc::HammingCode;
//! use harp_memsim::{pattern::DataPattern, FaultModel};
//! use harp_profiler::{BatchWord, CampaignBatch, ProfilerKind};
//!
//! let code = HammingCode::random(64, 3)?;
//! // Two independent words of the same sweep cell (same code, different
//! // fault models and seeds).
//! let batch = CampaignBatch::new(
//!     code,
//!     vec![
//!         BatchWord::new(FaultModel::uniform(&[5, 9], 0.5), DataPattern::Random, 0xFEED),
//!         BatchWord::new(FaultModel::uniform(&[40], 1.0), DataPattern::Random, 0xBEE5),
//!     ],
//! );
//! let results = batch.run(ProfilerKind::HarpU, 32);
//! assert_eq!(results.len(), 2);
//! // Snapshot-for-snapshot identical to running each word alone:
//! assert_eq!(results[0], batch.scalar_campaign(0).run(ProfilerKind::HarpU, 32));
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

use harp_ecc::{ErrorSpace, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_memsim::FaultModel;

use crate::campaign::{CampaignResult, ProfilingCampaign, RoundSnapshot};
use crate::checkpoint::BatchRun;
use crate::traits::ProfilerKind;

/// The per-word configuration of one batched campaign slot: everything a
/// [`ProfilingCampaign`] holds except the (shared) code.
#[derive(Debug, Clone)]
pub struct BatchWord {
    /// The word's at-risk bits and their failure probabilities.
    pub faults: FaultModel,
    /// Data-pattern family for this word's standard testing rounds.
    pub pattern: DataPattern,
    /// Deterministic campaign seed; the fault-injection stream and the
    /// profiler's pattern stream both derive from it.
    pub seed: u64,
}

impl BatchWord {
    /// Creates a batch slot.
    pub fn new(faults: FaultModel, pattern: DataPattern, seed: u64) -> Self {
        Self {
            faults,
            pattern,
            seed,
        }
    }
}

/// A cell-batched campaign: all words of one sweep cell that share an on-die
/// ECC code, scrubbed per round in a single burst.
#[derive(Debug, Clone)]
pub struct CampaignBatch<C: LinearBlockCode = harp_ecc::HammingCode> {
    code: C,
    words: Vec<BatchWord>,
}

impl<C: LinearBlockCode + Clone + Send + 'static> CampaignBatch<C> {
    /// Creates a batch for one cell of `words` independent ECC words, all
    /// protected by `code`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty (a burst needs at least one word).
    pub fn new(code: C, words: Vec<BatchWord>) -> Self {
        assert!(
            !words.is_empty(),
            "a campaign batch needs at least one word"
        );
        Self { code, words }
    }

    /// The shared on-die ECC code of this cell.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// The per-word configurations, in word order.
    pub fn words(&self) -> &[BatchWord] {
        &self.words
    }

    /// Number of words in the cell.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Always `false` (construction rejects empty batches); provided for
    /// collection-like completeness.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The scalar-reference view of word `index`: a [`ProfilingCampaign`]
    /// that runs this word alone, producing bit-identical snapshots through
    /// [`ProfilingCampaign::run_profiler`]. The differential test layer
    /// compares batched output against exactly this campaign.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn scalar_campaign(&self, index: usize) -> ProfilingCampaign<C> {
        let word = &self.words[index];
        ProfilingCampaign::new(
            self.code.clone(),
            word.faults.clone(),
            word.pattern,
            word.seed,
        )
    }

    /// The exact ground truth for word `index` (see
    /// [`ProfilingCampaign::error_space`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn error_space(&self, index: usize) -> ErrorSpace {
        let word = &self.words[index];
        ErrorSpace::enumerate(
            &self.code,
            &word.faults.at_risk_positions(),
            word.faults.dependence(),
        )
    }

    /// Runs a freshly instantiated profiler of the given kind on every word
    /// of the cell for `rounds` rounds, returning one [`CampaignResult`] per
    /// word in word order: a [`BatchRun`] advanced once and never
    /// checkpointed, recording each word's [`RoundSnapshot`] after every
    /// round.
    pub fn run(&self, kind: ProfilerKind, rounds: usize) -> Vec<CampaignResult> {
        let mut results: Vec<CampaignResult> = (0..self.len())
            .map(|_| CampaignResult {
                profiler: kind.name().to_owned(),
                snapshots: Vec::with_capacity(rounds),
            })
            .collect();
        BatchRun::new(self, kind).advance(rounds, |word, profiler, _| {
            let snapshots = &mut results[word].snapshots;
            snapshots.push(RoundSnapshot {
                round: snapshots.len(),
                identified: profiler.identified().clone(),
                predicted: profiler.predicted(),
            });
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;

    fn cell(seed: u64) -> CampaignBatch {
        let code = HammingCode::random(64, seed).unwrap();
        CampaignBatch::new(
            code,
            vec![
                BatchWord::new(
                    FaultModel::uniform(&[2, 9, 44], 0.5),
                    DataPattern::Random,
                    3,
                ),
                BatchWord::new(FaultModel::uniform(&[7], 1.0), DataPattern::Random, 11),
                BatchWord::new(
                    FaultModel::uniform(&[1, 33, 60], 0.25),
                    DataPattern::Random,
                    19,
                ),
            ],
        )
    }

    #[test]
    fn batched_snapshots_match_the_scalar_reference_path() {
        let batch = cell(5);
        for kind in [ProfilerKind::HarpU, ProfilerKind::Naive] {
            let batched = batch.run(kind, 24);
            assert_eq!(batched.len(), batch.len());
            for (index, result) in batched.iter().enumerate() {
                let scalar = batch.scalar_campaign(index).run(kind, 24);
                assert_eq!(result, &scalar, "{kind} word {index}");
            }
        }
    }

    #[test]
    fn single_word_batch_degenerates_to_the_scalar_campaign() {
        let code = HammingCode::random(64, 7).unwrap();
        let batch = CampaignBatch::new(
            code,
            vec![BatchWord::new(
                FaultModel::uniform(&[4, 18], 0.75),
                DataPattern::Random,
                13,
            )],
        );
        let batched = batch.run(ProfilerKind::HarpA, 16);
        assert_eq!(batched.len(), 1);
        assert_eq!(
            batched[0],
            batch.scalar_campaign(0).run(ProfilerKind::HarpA, 16)
        );
    }

    #[test]
    fn batch_runs_are_deterministic() {
        let batch = cell(9);
        let a = batch.run(ProfilerKind::Beep, 32);
        let b = batch.run(ProfilerKind::Beep, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rounds_produce_empty_results_per_word() {
        let batch = cell(11);
        let results = batch.run(ProfilerKind::Naive, 0);
        assert_eq!(results.len(), 3);
        for result in results {
            assert_eq!(result.rounds(), 0);
        }
    }

    #[test]
    fn error_space_matches_the_scalar_campaign() {
        let batch = cell(13);
        for index in 0..batch.len() {
            assert_eq!(
                batch.error_space(index).post_correction_at_risk(),
                batch
                    .scalar_campaign(index)
                    .error_space()
                    .post_correction_at_risk()
            );
        }
    }

    #[test]
    fn accessors_expose_configuration() {
        let batch = cell(15);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.words()[1].seed, 11);
        assert_eq!(batch.code().data_len(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_batches_are_rejected() {
        let code = HammingCode::random(8, 1).unwrap();
        CampaignBatch::new(code, Vec::new());
    }
}
