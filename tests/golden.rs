//! Golden-output suite: rendered experiment text, checkpoint archives and
//! `harpd` wire frames stay byte-identical.
//!
//! Each file under `tests/golden/` holds the output of one run at
//! [`EvaluationConfig::smoke`] or a cut-down copy of it:
//!
//! * `fig6.txt`–`fig9.txt` — the four coverage figures, all rendered from
//!   one `run_coverage_sweep` over the five Fig. 8 profilers;
//! * `fig10.txt` — the data-retention case study;
//! * `ext_codes.txt` — `run_coverage_sweep_with` over all three code
//!   families;
//! * `fig2.txt`, `table2.txt`, `fig4.txt`, `summary.txt`, `ablation.txt`
//!   and `ext_bch.txt`, `ext_beer.txt`, `ext_module.txt`, `ext_repair.txt`,
//!   `ext_vrt.txt`, `ext_traffic.txt` — the rendered output of every other
//!   experiment command (fig2 and table2 take no configuration);
//! * `sweep_summary.txt` — `render_sweep_summary` of a [`ResumableSweep`]
//!   that was archived to disk mid-run and resumed;
//! * `sweep_archive.txt` — every file of a `harp sweep --checkpoint-dir`
//!   archive frozen mid-run, plus a completed `--shard 0/2` output file;
//! * `harpd_frames.txt` — every frame a client and the daemon exchange for
//!   one job (submit, watch, status, list, cancel, an unknown job,
//!   shutdown), then the job's `JOB.json` and `RESULT.json`.
//!
//! One file is not checked here: `summary_full.txt` is the stdout of `harp
//! summary --full` at [`EvaluationConfig::paper_scale`], too slow for this
//! suite. The nightly `paper-scale-summary` CI job checks it byte for byte
//! and records the run's wall time and peak RSS in its log.
//!
//! The differential suites compare two code paths with each other. The
//! one-shot and resumable sweeps share their batching, scoring and
//! labelling code, and a codec round trip reads back whatever key order or
//! number format it writes, so only a fixed artifact can catch a change in
//! either. A mismatch names the golden file and the first line that
//! differs. The files are regenerated by hand, never by this suite.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use harp_ecc::HammingCode;
use harp_server::client::Client;
use harp_server::daemon::{Daemon, DaemonConfig, JOB_FILE, RESULT_FILE};
use harp_server::transport::{duplex, FrameTransport, PairTransport};
use harp_sim::checkpoint::{render_sweep_summary, shard_file_name, ResumableSweep, ShardSpec};
use harp_sim::experiments::sweep::run_coverage_sweep;
use harp_sim::experiments::{
    ablation, ext_bch, ext_beer, ext_codes, ext_module, ext_repair, ext_traffic, ext_vrt, fig10,
    fig2, fig4, fig6, fig7, fig8, fig9, headline, table2,
};
use harp_sim::minijson::Json;
use harp_sim::EvaluationConfig;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Asserts `actual` equals the golden file byte for byte, reporting the
/// first differing line on a mismatch, cut to the neighbourhood of its first
/// differing character (archive and frame lines run to kilobytes).
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
            (want, got) => {
                let (want, got) = (want.unwrap_or_default(), got.unwrap_or_default());
                let column = want
                    .chars()
                    .zip(got.chars())
                    .take_while(|(a, b)| a == b)
                    .count();
                let window = |text: &str| -> String {
                    text.chars()
                        .skip(column.saturating_sub(40))
                        .take(80)
                        .collect()
                };
                panic!(
                    "{} differs at line {line}, column {}:\n  golden: {:?}\n  actual: {:?}",
                    path.display(),
                    column + 1,
                    window(want),
                    window(got)
                )
            }
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
fn fig2_matches_golden() {
    assert_matches_golden("fig2.txt", &fig2::run().render());
}

#[test]
fn table2_matches_golden() {
    assert_matches_golden("table2.txt", &table2::run().render());
}

#[test]
fn fig4_matches_golden() {
    assert_matches_golden("fig4.txt", &fig4::run(&EvaluationConfig::smoke()).render());
}

#[test]
fn summary_matches_golden() {
    assert_matches_golden(
        "summary.txt",
        &headline::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ablation_matches_golden() {
    assert_matches_golden(
        "ablation.txt",
        &ablation::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_bch_matches_golden() {
    assert_matches_golden(
        "ext_bch.txt",
        &ext_bch::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_beer_matches_golden() {
    assert_matches_golden(
        "ext_beer.txt",
        &ext_beer::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_module_matches_golden() {
    assert_matches_golden(
        "ext_module.txt",
        &ext_module::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_repair_matches_golden() {
    assert_matches_golden(
        "ext_repair.txt",
        &ext_repair::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_vrt_matches_golden() {
    assert_matches_golden(
        "ext_vrt.txt",
        &ext_vrt::run(&EvaluationConfig::smoke()).render(),
    );
}

#[test]
fn ext_traffic_matches_golden() {
    assert_matches_golden(
        "ext_traffic.txt",
        &ext_traffic::run(&EvaluationConfig::smoke()).render(),
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

/// A fresh per-process scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harp_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir`, sorted by name, as `== NAME ==` followed by its
/// contents on the next line.
fn dump_files(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("scratch dir readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name)).expect("archive file readable");
            format!("== {name} ==\n{text}\n")
        })
        .collect()
}

#[test]
fn sweep_archive_matches_golden() {
    // Smoke scale cut to 2 words per code and 8 rounds, so the files stay
    // small; the Fig. 8 lineup exercises every per-kind accumulator of the
    // archive format.
    let config = EvaluationConfig {
        words_per_code: 2,
        rounds: 8,
        ..EvaluationConfig::smoke()
    };
    let make_code = |seed| HammingCode::random(config.data_bits, seed).expect("valid Hamming code");
    let dir = scratch_dir("archive");

    let mut sweep = ResumableSweep::new(&config, &fig8::PROFILERS, make_code);
    sweep.advance(3);
    sweep.write_archive(&dir).expect("archive writable");

    let shard = ShardSpec { index: 0, count: 2 };
    let mut worker = ResumableSweep::sharded(&config, &fig8::PROFILERS, shard, make_code);
    worker.advance(config.rounds);
    worker
        .write_shard_output(&dir.join(shard_file_name(shard)))
        .expect("shard output writable");

    let files = dump_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("sweep_archive.txt", &files);
}

/// A transport that appends every frame it carries to a shared log:
/// `>` for frames the client sends, `<` for frames it receives.
struct RecordingTransport {
    inner: PairTransport,
    log: Arc<Mutex<String>>,
}

impl RecordingTransport {
    fn record(&self, direction: char, frame: &Json) {
        let mut log = self.log.lock().expect("no log holder panics");
        log.push(direction);
        log.push(' ');
        log.push_str(&frame.render());
        log.push('\n');
    }
}

impl FrameTransport for RecordingTransport {
    fn send(&mut self, frame: &Json) -> io::Result<()> {
        self.record('>', frame);
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Option<Json>> {
        let frame = self.inner.recv()?;
        if let Some(frame) = &frame {
            self.record('<', frame);
        }
        Ok(frame)
    }
}

#[test]
fn harpd_frames_match_golden() {
    let config = EvaluationConfig {
        num_codes: 1,
        words_per_code: 2,
        rounds: 6,
        error_counts: vec![2, 3],
        probabilities: vec![0.5],
        threads: 1,
        ..EvaluationConfig::smoke()
    };
    let dir = scratch_dir("harpd");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon starts");
    let (client_end, server_end) = duplex();
    let handler = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.handle(server_end))
    };
    let log = Arc::new(Mutex::new(String::new()));
    let mut client = Client::new(RecordingTransport {
        inner: client_end,
        log: Arc::clone(&log),
    });

    let job = client.submit(&config, &fig6::PROFILERS).expect("submit");
    client.watch(job, |_| {}).expect("watch to the result");
    client.status(job).expect("status");
    client.jobs().expect("list");
    client.cancel(job).expect("cancel a finished job");
    assert!(client.status(job + 1).is_err(), "unknown jobs are errors");
    client.shutdown().expect("shutdown");
    drop(client);
    handler.join().expect("handler thread");
    daemon.join();

    let mut transcript = log.lock().expect("no log holder panics").clone();
    let job_dir = dir.join(format!("JOB_{job}"));
    for name in [JOB_FILE, RESULT_FILE] {
        let text = std::fs::read_to_string(job_dir.join(name)).expect("job file readable");
        transcript.push_str(&format!("== {name} ==\n{text}\n"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("harpd_frames.txt", &transcript);
}
