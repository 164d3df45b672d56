//! Torn-archive fuzzing: resuming from a damaged checkpoint archive must
//! either succeed or fail cleanly — it must **never panic**.
//!
//! A checkpoint archive is exactly the thing that exists *because* the
//! process hosting it can die mid-write: a torn rename, a half-synced page,
//! a bit flip on a bad disk. The resume path therefore treats the archive
//! as untrusted input. This suite property-tests that contract directly:
//! take a pristine mid-sweep archive, damage its one file at a
//! property-chosen offset or line (truncate, byte flip, file deletion, line
//! deletion, or line duplication), and resume.
//!
//! Two outcomes are acceptable:
//!
//! * `Err` with a non-empty description (the damage was detected), or
//! * `Ok` — in which case the resumed sweep must advance to completion and
//!   assemble its result without panicking (e.g. a flipped byte inside a
//!   JSON string that still parses).
//!
//! Any panic — the pre-fix failure mode for short word lists, corrupt RNG
//! cursors, oversized identified sets, and zeroed configuration fields —
//! fails the property. The nightly CI job runs this suite at elevated
//! `PROPTEST_CASES`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use harp_ecc::HammingCode;
use harp_profiler::ProfilerKind;
use harp_sim::checkpoint::{ResumableSweep, ARCHIVE_FILE};
use harp_sim::EvaluationConfig;

/// Small enough that each accepted-then-completed case costs milliseconds.
fn tiny_config() -> EvaluationConfig {
    EvaluationConfig {
        data_bits: 16,
        num_codes: 2,
        words_per_code: 2,
        rounds: 6,
        error_counts: vec![2],
        probabilities: vec![0.5],
        threads: 1,
        ..EvaluationConfig::quick()
    }
}

fn make_code(seed: u64) -> HammingCode {
    HammingCode::random(16, seed).expect("16 data bits always yields a code")
}

/// Writes a pristine archive checkpointed mid-sweep (round 3 of 6) and
/// returns the path of its one file: the manifest and two group records.
fn build_pristine(dir: &Path) -> PathBuf {
    let config = tiny_config();
    let kinds = vec![
        ProfilerKind::HarpA,
        ProfilerKind::HarpU,
        ProfilerKind::Naive,
    ];
    let mut sweep = ResumableSweep::new(&config, &kinds, make_code);
    sweep.advance(3);
    sweep.write_archive(dir).expect("pristine archive");
    dir.join(ARCHIVE_FILE)
}

/// One way to damage the archive file.
#[derive(Debug, Clone)]
enum Tear {
    /// Cut the file off at a fraction of its length (0 ⇒ empty file).
    Truncate(f64),
    /// XOR one byte at a fraction of the length with a nonzero mask.
    Flip(f64, u8),
    /// Remove the file entirely.
    Delete,
    /// Remove the line at a fraction of the line count.
    DeleteLine(f64),
    /// Repeat the line at a fraction of the line count.
    DuplicateLine(f64),
}

fn apply_tear(path: &Path, tear: &Tear) {
    match tear {
        Tear::Truncate(fraction) => {
            let bytes = std::fs::read(path).expect("readable archive file");
            let keep = ((bytes.len() as f64) * fraction) as usize;
            std::fs::write(path, &bytes[..keep.min(bytes.len())]).expect("truncate");
        }
        Tear::Flip(fraction, mask) => {
            let mut bytes = std::fs::read(path).expect("readable archive file");
            if bytes.is_empty() {
                return;
            }
            let index = (((bytes.len() - 1) as f64) * fraction) as usize;
            bytes[index] ^= if *mask == 0 { 1 } else { *mask };
            std::fs::write(path, bytes).expect("flip");
        }
        Tear::Delete => {
            std::fs::remove_file(path).expect("delete");
        }
        Tear::DeleteLine(fraction) | Tear::DuplicateLine(fraction) => {
            let text = std::fs::read_to_string(path).expect("readable archive file");
            let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
            let index = (((lines.len() - 1) as f64) * fraction) as usize;
            if matches!(tear, Tear::DeleteLine(_)) {
                lines.remove(index);
            } else {
                lines.insert(index, lines[index]);
            }
            std::fs::write(path, lines.concat()).expect("rewrite lines");
        }
    }
}

fn tear_strategy() -> impl Strategy<Value = Tear> {
    // Offsets as permille of the file length (the vendored proptest has no
    // float range strategy).
    (0u8..5, 0u32..1000, any::<u8>()).prop_map(|(kind, permille, mask)| {
        let at = f64::from(permille) / 1000.0;
        match kind {
            0 => Tear::Truncate(at),
            1 => Tear::Flip(at, mask),
            2 => Tear::DeleteLine(at),
            3 => Tear::DuplicateLine(at),
            _ => Tear::Delete,
        }
    })
}

/// Unique scratch directory per case (proptest re-runs the closure).
fn case_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("harp_archive_torn_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("case dir");
    dir
}

proptest! {
    /// Damage the archive file anywhere: resume detects it (`Err` with a
    /// message) or absorbs it (`Ok` that runs to completion). Never a
    /// panic.
    #[test]
    fn resume_from_a_torn_archive_never_panics(tear in tear_strategy()) {
        let dir = case_dir();
        apply_tear(&build_pristine(&dir), &tear);

        match ResumableSweep::resume(&dir, make_code) {
            Err(err) => {
                prop_assert!(
                    !err.to_string().trim().is_empty(),
                    "rejection must explain itself"
                );
            }
            Ok(mut sweep) => {
                let rounds = sweep.config().rounds;
                sweep.advance(rounds);
                prop_assert!(sweep.is_complete());
                let result = sweep.into_sweep();
                prop_assert_eq!(result.rounds, rounds);
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The pristine archive itself always resumes — the detector has no
    /// false positives on undamaged input, whatever the fuzzer explores.
    #[test]
    fn pristine_archives_always_resume(_nonce in 0u8..8) {
        let dir = case_dir();
        build_pristine(&dir);
        let mut sweep = ResumableSweep::resume(&dir, make_code).expect("pristine resume");
        let rounds = sweep.config().rounds;
        sweep.advance(rounds);
        prop_assert!(sweep.is_complete());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
