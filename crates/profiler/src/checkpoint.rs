//! Campaign checkpointing: snapshot a running campaign after any round and
//! resume it — in the same or a different process — byte-identically.
//!
//! The paper parallelizes its Monte-Carlo evaluation across compute-cluster
//! jobs (§A.7); long sweeps therefore need to survive interruption. A
//! campaign's mutable state is small and fully enumerable:
//!
//! * the per-word fault-injection RNG position ([`RngPosition`] — the key
//!   is a pure function of the word's seed, and the keystream block of key
//!   and counter, so only the counter and cursor are stored);
//! * the profiler's accumulators ([`ProfilerState`] — identified bits plus,
//!   for the BEEP-flavoured kinds, observed indirect bits and the crafted
//!   pattern counter; HARP-A's predictions are recomputed on restore).
//!
//! Chip contents need no checkpointing: every round rewrites each slot before
//! the burst read, and the pattern schedule is a pure function of the round
//! index. Nor is there a history to store: after each round,
//! [`BatchRun::advance`] hands every word's profiler to the caller, which
//! records what it needs. [`BatchRun`] is the one batched campaign engine:
//! [`CampaignBatch::run`] is a `BatchRun` advanced once, and a scalar
//! campaign is a one-word `BatchRun`. Checkpoint-at-round-k-then-resume
//! continues exactly as an uninterrupted run, and both match the scalar
//! oracle
//! [`ProfilingCampaign::run_profiler`](crate::campaign::ProfilingCampaign::run_profiler)
//! word for word — the invariants `tests/checkpoint_resume.rs` and
//! `tests/campaign_equivalence.rs` lock down across all profiler kinds and
//! code families.

use std::collections::BTreeSet;

use rand::SeedableRng;
use rand_chacha::{ChaCha8Rng, ChaCha8RngState};

use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;
use harp_memsim::{BurstScratch, MemoryChip};

use crate::batch::CampaignBatch;
use crate::campaign::CAMPAIGN_RNG_SALT;
use crate::traits::{Profiler, ProfilerKind};

/// The mutable accumulators of any [`Profiler`] implementation, in one
/// concrete shape shared by every kind.
///
/// Kinds that do not use a field leave it at its default: only the
/// BEEP-flavoured kinds craft patterns (`crafted_rounds`), and only
/// HARP-A+BEEP tracks observed indirect errors separately from its direct
/// set. Derived state (HARP-A's predictions, HARP-A+BEEP's union) is
/// recomputed by [`Profiler::restore`], never stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfilerState {
    /// Directly accumulated at-risk bits. For HARP-A+BEEP this is the
    /// *direct* (bypass-observed) set, not the published union.
    pub identified: BTreeSet<usize>,
    /// Post-correction error positions observed outside the direct set
    /// (HARP-A+BEEP only).
    pub observed_indirect: BTreeSet<usize>,
    /// Number of crafted BEEP patterns issued so far (BEEP and HARP-A+BEEP).
    pub crafted_rounds: usize,
}

impl ProfilerState {
    /// State holding only an identified set — what the non-crafting kinds
    /// (Naive, HARP-U, HARP-S) capture.
    pub fn with_identified(identified: BTreeSet<usize>) -> Self {
        Self {
            identified,
            ..Self::default()
        }
    }
}

/// A word's position in its fault-injection RNG stream. The stream's key
/// comes from the word's seed, which [`BatchRun::new`] seeds every stream
/// from, so a checkpoint stores only the position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngPosition {
    /// Block counter after the current keystream block was generated
    /// ([`ChaCha8RngState::counter`]).
    pub counter: u64,
    /// Next unread word within the current block (16 = exhausted).
    pub cursor: usize,
}

/// Everything needed to resume one word of a campaign: RNG position and
/// profiler accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordCheckpoint {
    /// The word's fault-injection RNG position.
    pub rng: RngPosition,
    /// The word's profiler accumulators.
    pub profiler: ProfilerState,
}

/// A whole campaign frozen after `round` completed rounds: one
/// [`WordCheckpoint`] per word of the batch (a scalar campaign is the
/// one-word special case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Which profiler kind the campaign runs.
    pub kind: ProfilerKind,
    /// Number of completed rounds.
    pub round: usize,
    /// Per-word state, in batch word order.
    pub words: Vec<WordCheckpoint>,
}

/// The cell-batched campaign engine, advanced in increments and
/// checkpointable between them. [`CampaignBatch::run`] is this engine run to
/// completion in one [`advance`](BatchRun::advance).
///
/// # Example
///
/// ```
/// use harp_ecc::HammingCode;
/// use harp_memsim::{pattern::DataPattern, FaultModel};
/// use harp_profiler::{BatchRun, BatchWord, CampaignBatch, ProfilerKind};
///
/// let code = HammingCode::random(64, 3)?;
/// let batch = CampaignBatch::new(
///     code,
///     vec![BatchWord::new(FaultModel::uniform(&[5, 9], 0.5), DataPattern::Random, 0xFEED)],
/// );
/// let mut run = BatchRun::new(&batch, ProfilerKind::HarpU);
/// run.advance(10, |_, _, _| {});
/// let frozen = run.checkpoint();
/// let mut resumed = BatchRun::resume(&batch, &frozen);
/// // Both continue identically: word 0 knows the same bits after each round.
/// let (mut direct, mut thawed) = (Vec::new(), Vec::new());
/// run.advance(22, |_, profiler, _| direct.push(profiler.identified().clone()));
/// resumed.advance(22, |_, profiler, _| thawed.push(profiler.identified().clone()));
/// assert_eq!(direct, thawed);
/// // And match the scalar oracle running the word alone:
/// let oracle = batch.scalar_campaign(0).run(ProfilerKind::HarpU, 32);
/// assert_eq!(direct[21], oracle.final_identified());
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
#[derive(Debug)]
pub struct BatchRun<C: LinearBlockCode = harp_ecc::HammingCode> {
    kind: ProfilerKind,
    chip: MemoryChip<C>,
    rngs: Vec<ChaCha8Rng>,
    scratch: BurstScratch,
    profilers: Vec<Box<dyn Profiler>>,
    /// The one dataword buffer every word's pattern is built in.
    data: BitVec,
    round: usize,
}

impl<C: LinearBlockCode + Clone + Send + 'static> BatchRun<C> {
    /// Starts a resumable campaign of `kind` over the batch, at round 0.
    pub fn new(batch: &CampaignBatch<C>, kind: ProfilerKind) -> Self {
        let count = batch.len();
        let mut chip = MemoryChip::new(batch.code().clone(), count);
        for (slot, word) in batch.words().iter().enumerate() {
            chip.set_fault_model(slot, word.faults.clone());
        }
        Self {
            kind,
            chip,
            rngs: batch
                .words()
                .iter()
                .map(|word| ChaCha8Rng::seed_from_u64(word.seed ^ CAMPAIGN_RNG_SALT))
                .collect(),
            scratch: BurstScratch::with_capacity(count),
            profilers: batch
                .words()
                .iter()
                .map(|word| kind.instantiate(batch.code(), word.pattern, word.seed))
                .collect(),
            data: BitVec::zeros(batch.code().data_len()),
            round: 0,
        }
    }

    /// Reconstructs a run at exactly the checkpointed position. The batch
    /// must be the one the checkpoint was taken from (the checkpoint stores
    /// only mutable state; the word configuration is regenerated by the
    /// caller, deterministically).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's word count does not match the batch.
    pub fn resume(batch: &CampaignBatch<C>, checkpoint: &CampaignCheckpoint) -> Self {
        let mut run = Self::new(batch, checkpoint.kind);
        run.restore(checkpoint);
        run
    }

    /// Moves this run, in place, to exactly the checkpointed position (the
    /// chip needs none: every round rewrites each slot). Each word's stream
    /// keeps the key [`BatchRun::new`] seeded it with and moves to the
    /// stored position.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is of another profiler kind or word count.
    pub fn restore(&mut self, checkpoint: &CampaignCheckpoint) {
        let fits = (checkpoint.kind, checkpoint.words.len()) == (self.kind, self.rngs.len());
        assert!(fits, "a checkpoint of another shape cannot resume this run");
        self.round = checkpoint.round;
        for (slot, word) in checkpoint.words.iter().enumerate() {
            let RngPosition { counter, cursor } = word.rng;
            let state = ChaCha8RngState {
                counter,
                cursor,
                ..self.rngs[slot].state()
            };
            self.rngs[slot] = ChaCha8Rng::from_state(state);
            self.profilers[slot].restore(&word.profiler);
        }
    }

    /// Number of completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The profiler kind this run evaluates.
    pub fn kind(&self) -> ProfilerKind {
        self.kind
    }

    /// Word `word`'s profiler, as the last completed round left it.
    ///
    /// # Panics
    ///
    /// Panics if `word` is not a word of the batch.
    pub fn profiler(&self, word: usize) -> &dyn Profiler {
        self.profilers[word].as_ref()
    }

    /// Runs `rounds` further rounds. This is the only batched round loop:
    /// each round builds every slot's dataword in the run's one buffer and
    /// writes it in place, scrubs the whole cell with **one**
    /// [`MemoryChip::read_burst_with_rngs`] (slot `i` draws its raw errors
    /// from word `i`'s own RNG stream only), lets each profiler observe its
    /// own slot, and then calls `on_round(word, profiler, changed)` for
    /// every word in word order, where `changed` is what
    /// [`Profiler::observe_round`] returned: `false` promises that the
    /// word's identified and predicted sets, and so its score, are the
    /// previous round's. The engine keeps no per-round history: what a
    /// round produced is whatever the caller records from the profilers.
    /// The dataword buffer and the `BurstScratch` persist across rounds, so
    /// a steady-state round in which no profiler changes performs no heap
    /// allocation (debug builds still check each in-place write against a
    /// full encode, which allocates).
    pub fn advance(&mut self, rounds: usize, mut on_round: impl FnMut(usize, &dyn Profiler, bool)) {
        let count = self.profilers.len();
        for _ in 0..rounds {
            let round = self.round;
            for (slot, profiler) in self.profilers.iter_mut().enumerate() {
                profiler.dataword_into(round, &mut self.data);
                self.chip.write_in_place(slot, &self.data);
            }
            let observations =
                self.chip
                    .read_burst_with_rngs(0..count, &mut self.rngs, &mut self.scratch);
            for (slot, (profiler, observation)) in
                self.profilers.iter_mut().zip(observations).enumerate()
            {
                let changed = profiler.observe_round(round, observation);
                on_round(slot, profiler.as_ref(), changed);
            }
            self.round += 1;
        }
    }

    /// Freezes the run after the current round.
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            kind: self.kind,
            round: self.round,
            words: self
                .rngs
                .iter()
                .zip(&self.profilers)
                .map(|(rng, profiler)| {
                    let ChaCha8RngState {
                        counter, cursor, ..
                    } = rng.state();
                    WordCheckpoint {
                        rng: RngPosition { counter, cursor },
                        profiler: profiler.state(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;
    use harp_memsim::pattern::DataPattern;
    use harp_memsim::FaultModel;

    use crate::batch::BatchWord;
    use crate::campaign::{CampaignResult, RoundSnapshot};

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

    /// Every word of the batch run alone through the scalar oracle,
    /// [`ProfilingCampaign::run_profiler`](crate::ProfilingCampaign::run_profiler).
    fn scalar_reference(
        batch: &CampaignBatch,
        kind: ProfilerKind,
        rounds: usize,
    ) -> Vec<CampaignResult> {
        (0..batch.len())
            .map(|index| batch.scalar_campaign(index).run(kind, rounds))
            .collect()
    }

    /// Advances `run`, appending each word's snapshot of every round to
    /// `results` (one entry per word, named after the run's kind).
    fn advance_recording(run: &mut BatchRun, rounds: usize, results: &mut Vec<CampaignResult>) {
        results.resize_with(run.profilers.len(), || CampaignResult {
            profiler: run.kind().name().to_owned(),
            snapshots: Vec::new(),
        });
        run.advance(rounds, |word, profiler, _| {
            let snapshots = &mut results[word].snapshots;
            snapshots.push(RoundSnapshot {
                round: snapshots.len(),
                identified: profiler.identified().clone(),
                predicted: profiler.predicted(),
            });
        });
    }

    #[test]
    fn uninterrupted_batch_run_matches_the_batch_reference() {
        let batch = cell(5);
        for kind in ProfilerKind::ALL {
            let mut run = BatchRun::new(&batch, kind);
            let mut results = Vec::new();
            advance_recording(&mut run, 24, &mut results);
            assert_eq!(results, scalar_reference(&batch, kind, 24), "{kind}");
            assert_eq!(run.round(), 24);
            assert_eq!(run.kind(), kind);
        }
    }

    #[test]
    fn resume_at_every_round_matches_uninterrupted() {
        let batch = cell(7);
        let rounds = 16;
        for kind in ProfilerKind::ALL {
            let reference = scalar_reference(&batch, kind, rounds);
            for k in 0..=rounds {
                let mut results = Vec::new();
                let mut first = BatchRun::new(&batch, kind);
                advance_recording(&mut first, k, &mut results);
                let frozen = first.checkpoint();
                let mut resumed = BatchRun::resume(&batch, &frozen);
                assert_eq!(resumed.round(), k);
                advance_recording(&mut resumed, rounds - k, &mut results);
                assert_eq!(results, reference, "{kind} at round {k}");
            }
        }
    }

    #[test]
    fn profiler_state_round_trips_through_restore() {
        let batch = cell(13);
        let code = batch.code().clone();
        for kind in ProfilerKind::ALL {
            let mut original = kind.instantiate(&code, DataPattern::Random, 3);
            let mut run = BatchRun::new(&batch, kind);
            run.advance(12, |_, _, _| {});
            let state = run.profilers[0].state();
            original.restore(&state);
            assert_eq!(original.state(), state, "{kind}");
            assert_eq!(original.identified(), run.profilers[0].identified());
            assert_eq!(original.predicted(), run.profilers[0].predicted());
        }
    }

    /// `restore` in place over a HARP-A or HARP-A+BEEP run that has already
    /// gone further keeps no stale prediction state: the identified and
    /// predicted sets, and every later round, equal those of a fresh run
    /// restored to the same checkpoint.
    #[test]
    fn restoring_over_a_run_that_went_further_matches_a_fresh_restore() {
        let code = HammingCode::random(64, 21).unwrap();
        let batch = CampaignBatch::new(
            code,
            [[3, 17, 29, 40, 58], [1, 8, 33, 47, 63], [5, 12, 26, 51, 66]]
                .iter()
                .enumerate()
                .map(|(i, at_risk)| {
                    BatchWord::new(
                        FaultModel::uniform(at_risk, 0.3),
                        DataPattern::Random,
                        31 + i as u64,
                    )
                })
                .collect(),
        );
        for kind in [ProfilerKind::HarpA, ProfilerKind::HarpABeep] {
            let mut early = BatchRun::new(&batch, kind);
            early.advance(2, |_, _, _| {});
            let frozen = early.checkpoint();
            let mut used = BatchRun::new(&batch, kind);
            used.advance(24, |_, _, _| {});
            let went_further = used
                .profilers
                .iter()
                .zip(&early.profilers)
                .any(|(later, earlier)| later.predicted() != earlier.predicted());
            assert!(went_further, "{kind}: the longer run must predict more");
            used.restore(&frozen);
            let mut fresh = BatchRun::resume(&batch, &frozen);
            for (restored, resumed) in used.profilers.iter().zip(&fresh.profilers) {
                assert_eq!(restored.identified(), resumed.identified(), "{kind}");
                assert_eq!(restored.predicted(), resumed.predicted(), "{kind}");
            }
            let (mut after_restore, mut after_resume) = (Vec::new(), Vec::new());
            advance_recording(&mut used, 16, &mut after_restore);
            advance_recording(&mut fresh, 16, &mut after_resume);
            assert_eq!(after_restore, after_resume, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot resume")]
    fn word_count_mismatch_is_rejected() {
        let batch = cell(15);
        let mut run = BatchRun::new(&batch, ProfilerKind::Naive);
        run.advance(2, |_, _, _| {});
        let mut frozen = run.checkpoint();
        frozen.words.pop();
        let _ = BatchRun::resume(&batch, &frozen);
    }
}
