//! Golden-output suite: rendered experiment text stays byte-identical.
//!
//! Each file under `tests/golden/` holds the rendered output of one
//! experiment at [`EvaluationConfig::smoke`]:
//!
//! * `fig6.txt`–`fig9.txt` — the four coverage figures, all rendered from
//!   one `run_coverage_sweep` over the five Fig. 8 profilers;
//! * `fig10.txt` — the data-retention case study;
//! * `ext_codes.txt` — `run_coverage_sweep_with` over all three code
//!   families;
//! * `sweep_summary.txt` — `render_sweep_summary` of a [`ResumableSweep`]
//!   that was archived to disk mid-run and resumed.
//!
//! The differential suites compare two code paths with each other. The
//! one-shot and resumable sweeps share their batching, scoring and
//! labelling code, so only a fixed artifact can catch a bug in it. A
//! mismatch names the golden file and the first line that differs. The
//! files are regenerated by hand, never by this suite.

use std::path::{Path, PathBuf};

use harp_ecc::HammingCode;
use harp_sim::checkpoint::{render_sweep_summary, ResumableSweep};
use harp_sim::experiments::sweep::run_coverage_sweep;
use harp_sim::experiments::{ext_codes, fig10, fig6, fig7, fig8, fig9};
use harp_sim::EvaluationConfig;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Asserts `actual` equals the golden file byte for byte, reporting the
/// first differing line on a mismatch.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: cannot read golden file: {e}", path.display()));
    if actual == expected {
        return;
    }
    let mut expected_lines = expected.split('\n');
    let mut actual_lines = actual.split('\n');
    for line in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (Some(want), Some(got)) if want == got => continue,
            (want, got) => panic!(
                "{} differs at line {line}:\n  golden: {want:?}\n  actual: {got:?}",
                path.display()
            ),
        }
    }
}

#[test]
fn coverage_figures_match_goldens() {
    let sweep = run_coverage_sweep(&EvaluationConfig::smoke(), &fig8::PROFILERS);
    assert_matches_golden("fig6.txt", &fig6::from_sweep(&sweep).render());
    assert_matches_golden("fig7.txt", &fig7::from_sweep(&sweep).render());
    assert_matches_golden("fig8.txt", &fig8::from_sweep(&sweep).render());
    assert_matches_golden("fig9.txt", &fig9::from_sweep(&sweep).render());
}

#[test]
fn fig10_matches_golden() {
    assert_matches_golden(
        "fig10.txt",
        &fig10::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_codes_matches_golden() {
    assert_matches_golden(
        "ext_codes.txt",
        &ext_codes::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn archived_and_resumed_sweep_summary_matches_golden() {
    let config = EvaluationConfig::smoke();
    let make_code = |seed| HammingCode::random(config.data_bits, seed).expect("valid Hamming code");
    let dir = std::env::temp_dir().join(format!("harp_golden_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut first = ResumableSweep::new(&config, &fig6::PROFILERS, make_code);
    first.advance(config.rounds / 2 + 1);
    first.write_archive(&dir).expect("archive writable");
    drop(first);

    let mut resumed = ResumableSweep::resume(&dir, make_code).expect("archive readable");
    resumed.advance(config.rounds);
    assert!(resumed.is_complete());
    let summary = render_sweep_summary(&resumed.into_sweep());
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("sweep_summary.txt", &summary);
}
