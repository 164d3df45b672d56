//! `sweep_archived`: the quick-scale sweep `harp sweep --checkpoint-dir`
//! runs, with its default checkpoint interval. Halfway through, the sweep
//! is dropped and reopened from disk with `ResumableSweep::resume`, then
//! finished with `into_sweep`. Durable archive writes (encode, fsync,
//! rename) dominate, and the mid-run resume reads the archive back, so a
//! change that speeds freezing by slowing thawing shows.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use harp_profiler::ProfilerKind;
use harp_sim::checkpoint::{render_sweep_summary, ResumableSweep};
use harp_sim::experiments::fig6;
use harp_sim::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use harp_sim::EvaluationConfig;

use crate::coverage::warm_up;
use crate::stats::{describe, dir_bytes, dir_files, median, peak_rss_mb};
use crate::trace::{self, Recorder, OP};
use crate::{make_code, measure_setup, nproc, steps, timed_loop, Args, Outcome, WorkDir, MIN_OPS};

/// `harp sweep`'s default `--checkpoint-interval`.
const CHECKPOINT_INTERVAL: usize = 32;

const PROFILERS: [ProfilerKind; 3] = fig6::PROFILERS;

fn config(seed: u64, threads: usize) -> EvaluationConfig {
    EvaluationConfig {
        base_seed: seed,
        threads,
        ..EvaluationConfig::quick()
    }
}

/// Exact per-sweep archive counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    bytes_written: u64,
    files_written: u64,
    final_bytes: u64,
    bytes_read: u64,
}

/// One archived sweep into the empty directory `dir`, with an optional
/// recorder. Returns the finished sweep and its summary.
fn archived_sweep(
    config: &EvaluationConfig,
    dir: &Path,
    mut rec: Option<&mut Recorder>,
    counts: &mut Counts,
) -> (CoverageSweep, String) {
    let span = |rec: &mut Option<&mut Recorder>, name: &'static str| {
        rec.as_deref_mut().map(|rec| rec.enter(name))
    };
    let close = |rec: &mut Option<&mut Recorder>, id: Option<usize>| {
        if let (Some(rec), Some(id)) = (rec.as_deref_mut(), id) {
            rec.exit(id);
        }
    };
    let op = span(&mut rec, OP);
    let id = span(&mut rec, "sim.checkpoint.new");
    let mut sweep = ResumableSweep::new(config, &PROFILERS, make_code(config.data_bits));
    close(&mut rec, id);
    let halfway = config.rounds / 2;
    let mut resumed = false;
    while !sweep.is_complete() {
        let id = span(&mut rec, "sim.checkpoint.advance");
        sweep.advance(CHECKPOINT_INTERVAL);
        close(&mut rec, id);
        let id = span(&mut rec, "sim.checkpoint.write_archive");
        sweep
            .write_archive(dir)
            .expect("the checkout's work directory is writable");
        close(&mut rec, id);
        counts.bytes_written += dir_bytes(dir);
        counts.files_written += dir_files(dir);
        if !resumed && sweep.round() >= halfway {
            resumed = true;
            drop(sweep);
            counts.bytes_read += dir_bytes(dir);
            let id = span(&mut rec, "sim.checkpoint.resume");
            sweep = ResumableSweep::resume(dir, make_code(config.data_bits))
                .expect("the archive just written resumes");
            close(&mut rec, id);
        }
    }
    counts.final_bytes = dir_bytes(dir);
    let id = span(&mut rec, "sim.checkpoint.into_sweep");
    let finished = sweep.into_sweep();
    close(&mut rec, id);
    let id = span(&mut rec, "sim.checkpoint.render_summary");
    let summary = render_sweep_summary(&finished);
    close(&mut rec, id);
    close(&mut rec, op);
    (finished, summary)
}

/// Runs the workload and returns its metrics.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let (setup_s, config) = measure_setup(|| {
        let config = config(args.seed, nproc());
        let warm = warm_up(&config);
        let mut sweep = ResumableSweep::new(&warm, &PROFILERS, make_code(warm.data_bits));
        sweep.advance(warm.rounds);
        black_box(render_sweep_summary(&sweep.into_sweep()));
        config
    });
    let work = WorkDir::new("sweep_archived");
    let reference_start = Instant::now();
    let reference = run_coverage_sweep(&config, &PROFILERS);
    eprintln!(
        "one-shot reference sweep: {:.3} s (untimed)",
        reference_start.elapsed().as_secs_f64()
    );
    eprintln!(
        "process start to first timed operation: {:.4} s",
        started.elapsed().as_secs_f64()
    );

    // One archived sweep into a fresh directory; returns its timed wall.
    let mut expected = None;
    let mut sweeps = 0;
    let mut op = |config: &EvaluationConfig, rec: Option<&mut Recorder>, outcome: &mut Outcome| {
        let dir = work.path().join(format!("sweep-{sweeps}"));
        sweeps += 1;
        let mut counts = Counts::default();
        let start = Instant::now();
        let (sweep, summary) = archived_sweep(config, &dir, rec, &mut counts);
        let wall = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            *expected.get_or_insert(counts),
            counts,
            "archive counts differ between repeated sweeps"
        );
        outcome.record(sweep == reference && !summary.is_empty());
        wall
    };

    if !args.trace {
        let walls = timed_loop(args.seconds, MIN_OPS, |_| op(&config, None, &mut outcome));
        let peak = peak_rss_mb();
        eprintln!("{}", describe("wall_s", "s", &walls));
        outcome.set("setup_s", setup_s);
        outcome.set("wall_s", median(&walls));
        outcome.set(
            "steps_per_s",
            steps(&config, PROFILERS.len()) as f64 * walls.len() as f64 / walls.iter().sum::<f64>(),
        );
        outcome.set("peak_rss_mb", peak);
        return outcome;
    }

    // Untraced and traced sweeps alternate, so drift in the host's speed
    // cancels out of the tracing overhead.
    let mut rec = Recorder::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    timed_loop(args.seconds, 2 * MIN_OPS, |index| {
        if index % 2 == 0 {
            let wall = op(&config, None, &mut outcome);
            untraced.push(wall);
            wall
        } else {
            let wall = op(&config, Some(&mut rec), &mut outcome);
            traced.push(wall);
            wall
        }
    });
    // Archive bytes must not depend on the thread count.
    let single = EvaluationConfig {
        threads: 1,
        ..config.clone()
    };
    op(&single, None, &mut outcome);

    let (rows, total_s) = trace::rows(&rec, traced.len());
    let accounted = trace::print_table("sweep_archived: self time per sweep", &rows, total_s);
    let self_s = |name: &str| {
        rows.iter()
            .find(|row| row.layer == name)
            .map_or(0.0, |row| row.per_op_s)
    };
    let c = expected.expect("at least one sweep ran");
    outcome.set("sim.checkpoint.new_s", self_s("sim.checkpoint.new"));
    outcome.set("sim.checkpoint.advance_s", self_s("sim.checkpoint.advance"));
    outcome.set(
        "sim.checkpoint.into_sweep_s",
        self_s("sim.checkpoint.into_sweep"),
    );
    outcome.set(
        "sim.checkpoint.write_archive_s",
        self_s("sim.checkpoint.write_archive"),
    );
    outcome.set("sim.checkpoint.bytes_written", c.bytes_written as f64);
    outcome.set("sim.checkpoint.files_written", c.files_written as f64);
    outcome.set(
        "sim.checkpoint.rewrite_ratio",
        c.bytes_written as f64 / c.final_bytes as f64,
    );
    outcome.set("sim.checkpoint.resume_s", self_s("sim.checkpoint.resume"));
    outcome.set("sim.checkpoint.bytes_read", c.bytes_read as f64);
    outcome.set("steps", steps(&config, PROFILERS.len()) as f64);
    outcome.set("trace.overhead_s", median(&traced) - median(&untraced));
    outcome.set("trace.accounted_share", accounted);
    outcome.set("trace.unaccounted_s", self_s("unaccounted"));
    eprintln!("{}", describe("untraced wall_s", "s", &untraced));
    eprintln!("{}", describe("traced wall_s", "s", &traced));
    outcome
}
