//! Differential suite for campaign checkpoint/resume.
//!
//! A checkpoint is only trustworthy if resuming from it is *invisible*: a
//! campaign stopped after round `k` and restarted must finish byte-identical
//! to one that never stopped. The properties here prove that guarantee at
//! every layer of the stack:
//!
//! * **Campaign layer** — for **every profiler kind** and **every code
//!   family** (SEC Hamming, SEC-DED extended Hamming, DEC BCH), a
//!   [`BatchRun`] frozen at a random round, pushed through the full JSON
//!   encode → render → parse → decode round trip, and thawed produces
//!   snapshots byte-identical (serialized form included) to the
//!   uninterrupted run — even when interrupted twice.
//! * **Sweep layer** — a [`ResumableSweep`] driven through on-disk archives
//!   (`write_archive` → `resume`, twice) reconstructs exactly the
//!   [`CoverageSweep`] the one-shot [`run_coverage_sweep`] path computes,
//!   for all three code families.
//! * **Distribution layer** — two shard workers (`--shard 0/2` + `1/2`)
//!   plus [`merge_shards`] reproduce the single-process sweep exactly, and
//!   a merge with a missing shard fails loudly instead of returning a
//!   partial result.
//!
//! The nightly CI job runs this suite at elevated `PROPTEST_CASES`, next to
//! the campaign and kernel differential suites.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use harp_bch::BchCode;
use harp_ecc::{ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_memsim::FaultModel;
use harp_profiler::{
    BatchRun, BatchWord, CampaignBatch, CampaignCheckpoint, CampaignResult, ProfilerKind,
};
use harp_sim::checkpoint::{merge_shards, shard_file_name, ResumableSweep, ShardSpec};
use harp_sim::experiments::sweep::{run_coverage_sweep, run_coverage_sweep_with, CoverageSweep};
use harp_sim::minijson::{Json, JsonCodec};
use harp_sim::EvaluationConfig;

/// Dataword length shared by all three families in this suite.
const DATA_BITS: usize = 32;

/// Profiling rounds per campaign (enough for every profiler to act on
/// multi-round state: inversion schedules, bootstrapping, predictions).
const ROUNDS: usize = 10;

/// One generated word of a cell: raw at-risk positions (reduced modulo the
/// code's length), a shared per-bit probability, and an RNG seed.
type WordSpec = (Vec<usize>, f64, u64);

/// Builds one batch word for a specific code, folding the raw positions
/// into the code's own codeword length.
fn batch_word_for(code: &dyn LinearBlockCode, spec: &WordSpec) -> BatchWord {
    let (positions, probability, seed) = spec;
    let n = code.codeword_len();
    let mut folded: Vec<usize> = positions.iter().map(|&p| p % n).collect();
    folded.sort_unstable();
    folded.dedup();
    BatchWord::new(
        FaultModel::uniform(&folded, *probability),
        DataPattern::Random,
        *seed,
    )
}

/// The uninterrupted reference: every word run alone through the scalar
/// oracle, `ProfilingCampaign::run_profiler` (`CampaignBatch::run` is itself
/// a `BatchRun`, so it cannot serve as an independent reference).
fn uninterrupted<C: LinearBlockCode + Clone + Send + 'static>(
    batch: &CampaignBatch<C>,
    kind: ProfilerKind,
) -> Vec<CampaignResult> {
    (0..batch.len())
        .map(|index| batch.scalar_campaign(index).run(kind, ROUNDS))
        .collect()
}

/// Runs the same campaign but frozen (and JSON round-tripped) at each round
/// in `freeze_at`, resuming from the decoded checkpoint every time.
fn interrupted<C: LinearBlockCode + Clone + Send + 'static>(
    batch: &CampaignBatch<C>,
    kind: ProfilerKind,
    freeze_at: &[usize],
) -> Vec<CampaignResult> {
    let mut run = BatchRun::new(batch, kind);
    for &round in freeze_at {
        run.advance(round - run.round());
        let frozen = run.checkpoint();
        // Full persistence round trip: encode → render → parse → decode.
        let rendered = frozen
            .to_json()
            .expect("checkpoints hold no floats")
            .render();
        let parsed = Json::parse(&rendered).expect("rendered checkpoint parses");
        let thawed = CampaignCheckpoint::from_json(&parsed).expect("rendered checkpoint decodes");
        assert_eq!(
            thawed, frozen,
            "{kind}: checkpoint changed across the JSON round trip"
        );
        run = BatchRun::resume(batch, &thawed);
        assert_eq!(run.round(), round);
    }
    run.advance(ROUNDS - run.round());
    run.results()
}

/// Asserts resumed == uninterrupted for one (code, kind) pair, comparing
/// both the structures and their serialized bytes.
fn assert_resume_is_invisible<C: LinearBlockCode + Clone + Send + 'static>(
    code: &C,
    specs: &[WordSpec],
    kind: ProfilerKind,
    freeze_at: &[usize],
) {
    let words: Vec<BatchWord> = specs
        .iter()
        .map(|spec| batch_word_for(code, spec))
        .collect();
    let batch = CampaignBatch::new(code.clone(), words);
    let reference = uninterrupted(&batch, kind);
    let resumed = interrupted(&batch, kind, freeze_at);
    assert_eq!(
        resumed,
        reference,
        "{} resumed at rounds {:?} diverged from the uninterrupted run ({})",
        kind,
        freeze_at,
        code.description()
    );
    // Byte-identical, not merely equal: the serialized archives match.
    assert_eq!(
        serde_json::to_string(&resumed).expect("serializable"),
        serde_json::to_string(&reference).expect("serializable")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline differential property: for random cells and two random
    /// interruption points (including round 0 and the final round as edge
    /// cases of the draw), every profiler kind finishes byte-identically
    /// after resume, for all three code families.
    #[test]
    fn resume_equals_uninterrupted_for_all_kinds_and_codes(
        seed in 0u64..200,
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..4),
                proptest::sample::select(vec![0.5f64, 0.75, 1.0]),
                any::<u64>(),
            ),
            1..4,
        ),
        first_freeze in 0usize..=ROUNDS,
        second_freeze in 0usize..=ROUNDS,
    ) {
        let mut freeze_at = [first_freeze, second_freeze];
        freeze_at.sort_unstable();
        let hamming = HammingCode::random(DATA_BITS, seed).expect("valid Hamming code");
        let secded = ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code");
        let bch = BchCode::dec(DATA_BITS).expect("valid BCH code");
        for kind in ProfilerKind::ALL {
            assert_resume_is_invisible(&hamming, &specs, kind, &freeze_at);
            assert_resume_is_invisible(&secded, &specs, kind, &freeze_at);
            assert_resume_is_invisible(&bch, &specs, kind, &freeze_at);
        }
    }
}

/// A sweep configuration small enough to run the full distributed pipeline
/// in-process, but with multiple codes, cells, and words so the grouping
/// and ordering logic is actually exercised.
fn tiny_config() -> EvaluationConfig {
    EvaluationConfig {
        data_bits: DATA_BITS,
        num_codes: 2,
        words_per_code: 3,
        rounds: 12,
        error_counts: vec![2, 3],
        probabilities: vec![0.5],
        pattern: DataPattern::Random,
        base_seed: 0xC4EC_1D0F,
        threads: 2,
    }
}

/// Profilers used by the sweep-level tests (kept below the full set so the
/// in-process sweeps stay fast; the campaign-level property above already
/// covers every kind).
const SWEEP_PROFILERS: [ProfilerKind; 3] =
    [ProfilerKind::HarpU, ProfilerKind::Naive, ProfilerKind::Beep];

/// A unique scratch directory per test, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "harp_checkpoint_resume_{}_{}",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creatable");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts two sweeps are byte-identical, serialized form included.
fn assert_sweeps_identical(resumed: &CoverageSweep, reference: &CoverageSweep) {
    assert_eq!(resumed, reference);
    assert_eq!(
        serde_json::to_string(resumed).expect("serializable"),
        serde_json::to_string(reference).expect("serializable")
    );
}

/// Drives a sweep through two on-disk interruptions for an arbitrary code
/// family and asserts the result matches the given one-shot reference.
fn assert_archived_sweep_matches<C, F>(name: &str, make_code: F, reference: &CoverageSweep)
where
    C: LinearBlockCode + Clone + Send + 'static,
    F: Fn(u64) -> C + Copy,
{
    let scratch = ScratchDir::new(name);
    let config = tiny_config();

    // Run 4 rounds, archive, and forget the in-memory state.
    let mut first = ResumableSweep::new(&config, &SWEEP_PROFILERS, make_code);
    first.advance(4);
    first
        .write_archive(scratch.path())
        .expect("archive writable");
    drop(first);

    // Resume from disk, run 5 more rounds, archive again.
    let mut second = ResumableSweep::resume(scratch.path(), make_code).expect("archive readable");
    assert_eq!(second.round(), 4);
    second.advance(5);
    second
        .write_archive(scratch.path())
        .expect("archive writable");
    drop(second);

    // Resume once more and finish.
    let mut third = ResumableSweep::resume(scratch.path(), make_code).expect("archive readable");
    assert_eq!(third.round(), 9);
    third.advance(config.rounds - 9);
    assert!(third.is_complete());
    assert_sweeps_identical(&third.into_sweep(), reference);
}

/// The sweep-layer guarantee: stop/archive/resume twice, finish, and the
/// result is byte-identical to the uninterrupted one-shot sweep — for the
/// paper's SEC Hamming path and for the SEC-DED and BCH families.
#[test]
fn archived_sweeps_resume_byte_identically_for_all_code_families() {
    let config = tiny_config();

    let hamming_reference = run_coverage_sweep(&config, &SWEEP_PROFILERS);
    assert_archived_sweep_matches(
        "hamming",
        |seed| HammingCode::random(DATA_BITS, seed).expect("valid Hamming code"),
        &hamming_reference,
    );

    let secded_reference = run_coverage_sweep_with(&config, &SWEEP_PROFILERS, |seed| {
        ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code")
    });
    assert_archived_sweep_matches(
        "secded",
        |seed| ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code"),
        &secded_reference,
    );

    let bch_reference = run_coverage_sweep_with(&config, &SWEEP_PROFILERS, |_seed| {
        BchCode::dec(DATA_BITS).expect("valid BCH code")
    });
    assert_archived_sweep_matches(
        "bch",
        |_seed| BchCode::dec(DATA_BITS).expect("valid BCH code"),
        &bch_reference,
    );
}

/// The distribution-layer guarantee: two shard workers, each owning half
/// the code groups, plus the merge coordinator reproduce the one-shot
/// single-process sweep exactly — and the workers themselves survive an
/// on-disk interruption without perturbing the merged result.
#[test]
fn two_shard_workers_plus_merge_reproduce_the_single_process_sweep() {
    let scratch = ScratchDir::new("shards");
    let config = tiny_config();
    let make_code = |seed| HammingCode::random(DATA_BITS, seed).expect("valid Hamming code");
    let reference = run_coverage_sweep(&config, &SWEEP_PROFILERS);

    let mut shard_outputs = Vec::new();
    for index in 0..2 {
        let shard = ShardSpec::parse(&format!("{index}/2")).expect("valid shard spec");
        let dir = scratch.path().join(format!("worker{index}"));
        std::fs::create_dir_all(&dir).expect("worker dir creatable");

        // Each worker is itself interrupted mid-run and resumed from disk.
        let mut worker = ResumableSweep::sharded(&config, &SWEEP_PROFILERS, shard, make_code);
        assert!(worker.num_groups() < worker.total_groups());
        worker.advance(7);
        worker.write_archive(&dir).expect("archive writable");
        drop(worker);

        let mut worker = ResumableSweep::resume(&dir, make_code).expect("archive readable");
        assert_eq!(worker.shard(), shard);
        worker.advance(config.rounds - 7);
        assert!(worker.is_complete());

        let output = scratch.path().join(shard_file_name(shard));
        worker
            .write_shard_output(&output)
            .expect("shard output writable");
        shard_outputs.push(output);
    }

    let merged = merge_shards(&shard_outputs).expect("complete shard set merges");
    assert_sweeps_identical(&merged, &reference);

    // A merge missing one shard must fail loudly, never return a partial
    // sweep that looks complete.
    let error = merge_shards(&shard_outputs[..1]).expect_err("half a sweep must not merge");
    assert!(
        error.to_string().contains("missing"),
        "unexpected merge error: {error}"
    );
}
