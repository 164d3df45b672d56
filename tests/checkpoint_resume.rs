//! Differential suite for campaign checkpoint/resume.
//!
//! A checkpoint is only trustworthy if resuming from it is *invisible*: a
//! campaign stopped after round `k` and restarted must finish byte-identical
//! to one that never stopped. The properties here prove that guarantee at
//! every layer of the stack:
//!
//! * **Campaign layer** — for **every profiler kind** and **every code
//!   family** (SEC Hamming, SEC-DED extended Hamming, DEC BCH), a sweep
//!   frozen at a random round into its archive's group records on disk
//!   (each word's RNG position and profiler state, plus the coverage series
//!   scored so far), thawed from them, and frozen and thawed once more,
//!   finishes
//!   byte-identical (serialized form included) to the uninterrupted run.
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
use harp_profiler::ProfilerKind;
use harp_sim::checkpoint::{merge_shards, shard_file_name, ResumableSweep, ShardSpec};
use harp_sim::experiments::sweep::{run_coverage_sweep, run_coverage_sweep_with, CoverageSweep};
use harp_sim::EvaluationConfig;

/// Dataword length shared by all three families in this suite.
const DATA_BITS: usize = 32;

/// Profiling rounds per campaign (enough for every profiler to act on
/// multi-round state: inversion schedules, bootstrapping, predictions).
const ROUNDS: usize = 10;

/// Runs `config` for `profilers` as a [`ResumableSweep`] that is archived
/// to `dir`, dropped and resumed from disk after each round in `freeze_at`
/// (ascending), then finished.
fn archived_sweep<C, F>(
    dir: &Path,
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
    make_code: F,
    freeze_at: &[usize],
) -> CoverageSweep
where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C + Copy,
{
    let mut sweep = ResumableSweep::new(config, profilers, make_code);
    for &round in freeze_at {
        sweep.advance(round - sweep.round());
        sweep.write_archive(dir).expect("archive writable");
        drop(sweep);
        sweep = ResumableSweep::resume(dir, make_code).expect("archive readable");
        assert_eq!(sweep.round(), round);
    }
    sweep.advance(config.rounds - sweep.round());
    assert!(sweep.is_complete());
    sweep.into_sweep()
}

/// Asserts resumed == uninterrupted for every profiler kind over one code
/// family, comparing both the structures and their serialized bytes.
fn assert_resume_is_invisible<C, F>(
    name: &str,
    config: &EvaluationConfig,
    make_code: F,
    freeze_at: &[usize],
) where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C + Copy,
{
    let scratch = ScratchDir::new(name);
    let reference = run_coverage_sweep_with(config, &ProfilerKind::ALL, make_code);
    let resumed = archived_sweep(
        scratch.path(),
        config,
        &ProfilerKind::ALL,
        make_code,
        freeze_at,
    );
    assert_sweeps_identical(&resumed, &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline differential property: for random word populations and
    /// two random interruption points (including round 0 and the final
    /// round as edge cases of the draw), every profiler kind finishes
    /// byte-identically after resuming from group records, for all three code
    /// families.
    #[test]
    fn resume_equals_uninterrupted_for_all_kinds_and_codes(
        base_seed in any::<u64>(),
        error_count in 1usize..4,
        probability in proptest::sample::select(vec![0.5f64, 0.75, 1.0]),
        first_freeze in 0usize..=ROUNDS,
        second_freeze in 0usize..=ROUNDS,
    ) {
        let mut freeze_at = [first_freeze, second_freeze];
        freeze_at.sort_unstable();
        let config = EvaluationConfig {
            num_codes: 1,
            rounds: ROUNDS,
            error_counts: vec![error_count],
            probabilities: vec![probability],
            base_seed,
            ..tiny_config()
        };
        assert_resume_is_invisible(
            "campaign_hamming",
            &config,
            |seed| HammingCode::random(DATA_BITS, seed).expect("valid Hamming code"),
            &freeze_at,
        );
        assert_resume_is_invisible(
            "campaign_secded",
            &config,
            |seed| ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code"),
            &freeze_at,
        );
        assert_resume_is_invisible(
            "campaign_bch",
            &config,
            |_seed| BchCode::dec(DATA_BITS).expect("valid BCH code"),
            &freeze_at,
        );
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

/// Drives a sweep through two on-disk interruptions (after rounds 4 and 9)
/// for an arbitrary code family and asserts the result matches the given
/// one-shot reference.
fn assert_archived_sweep_matches<C, F>(name: &str, make_code: F, reference: &CoverageSweep)
where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C + Copy,
{
    let scratch = ScratchDir::new(name);
    let resumed = archived_sweep(
        scratch.path(),
        &tiny_config(),
        &SWEEP_PROFILERS,
        make_code,
        &[4, 9],
    );
    assert_sweeps_identical(&resumed, reference);
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
