//! The repository benchmark: three workloads, each timed end to end with
//! tracing off, or traced per layer with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload coverage_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything before it,
//! and everything on standard error, is for people. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod archived;
mod coverage;
mod harpd;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use harp_ecc::HammingCode;
use harp_sim::EvaluationConfig;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 51;

/// A run always times at least this many operations, however long they take.
pub const MIN_OPS: usize = 3;

/// Every end-to-end metric, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed with `--trace 1` on every workload. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("sim.sample.population_s", "s"),
    ("ecc.error_space.enumerate_s", "s"),
    ("ecc.error_space.calls", "count"),
    ("ecc.error_space.calls_per_word", "ratio"),
    ("profiler.batch.run_s.harp_a", "s"),
    ("profiler.batch.run_s.harp_u", "s"),
    ("profiler.batch.run_s.naive", "s"),
    ("profiler.batch.run_s.beep", "s"),
    ("profiler.batch.run_s.harp_a_beep", "s"),
    ("profiler.dataword_s", "s"),
    ("memsim.chip.write_s", "s"),
    ("memsim.chip.read_burst_s", "s"),
    ("profiler.observe_s", "s"),
    ("profiler.snapshot_s", "s"),
    ("memsim.chip.words_per_burst", "count"),
    ("profiler.coverage.score_s", "s"),
    ("profiler.coverage.snapshots_scored", "count"),
    ("profiler.coverage.scored_per_produced", "ratio"),
    ("sim.experiments.render_s", "s"),
    ("sim.runner.straggler_ratio", "ratio"),
    ("sim.checkpoint.new_s", "s"),
    ("sim.checkpoint.advance_s", "s"),
    ("sim.checkpoint.into_sweep_s", "s"),
    ("sim.checkpoint.write_archive_s", "s"),
    ("sim.checkpoint.bytes_written", "bytes"),
    ("sim.checkpoint.files_written", "count"),
    ("sim.checkpoint.rewrite_ratio", "ratio"),
    ("sim.checkpoint.resume_s", "s"),
    ("sim.checkpoint.bytes_read", "bytes"),
    ("sim.checkpoint.progress_s", "s"),
    ("server.submit_ack_ms", "ms"),
    ("server.first_snapshot_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.snapshot_interval_ms", "ms"),
    ("server.frames", "count"),
    ("server.frame_bytes", "bytes"),
    ("server.jobs_per_s", "1/s"),
    ("sim.minijson.render_s", "s"),
    ("sim.minijson.parse_s", "s"),
    ("steps", "count"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.unaccounted_s", "s"),
];

/// The benchmark's command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed work per run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed '{value}' is not a whole number"))?,
                );
            }
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds '{value}' is not a number"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(format!("--seconds {parsed} outside (0, 600]"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace '{value}' is not 0 or 1")),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweeps or jobs), timed or checked.
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation and whether its output check passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates a fresh, empty `.bench_work/<name>-<pid>-<n>` under the
    /// current directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(name: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = PathBuf::from(".bench_work").join(format!(
            "{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the checkout is writable");
        Self { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Median of `SETUP_REPS` runs of `setup`, in seconds; the last result is
/// kept for the run and the others are dropped.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (stats::median(&times), kept.expect("SETUP_REPS is nonzero"))
}

/// Runs `op` back to back until `seconds` of its own timed wall have
/// accumulated, and at least `min_ops` times. `op` returns the wall time of
/// its timed part; output checks run outside it.
pub fn timed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut walls = Vec::new();
    while walls.len() < min_ops || walls.iter().sum::<f64>() < seconds {
        walls.push(op(walls.len()));
    }
    walls
}

/// The on-die codes `run_coverage_sweep` builds: a random SEC Hamming code
/// per code index.
pub fn make_code(data_bits: usize) -> impl Fn(u64) -> HammingCode {
    move |seed| HammingCode::random(data_bits, seed).expect("64-bit datawords yield a code")
}

/// Campaign steps (word × round × profiler) in one sweep of `config`.
pub fn steps(config: &EvaluationConfig, profilers: usize) -> u64 {
    (config.error_counts.len()
        * config.probabilities.len()
        * config.words_total()
        * config.rounds
        * profilers) as u64
}

/// Threads a workload may use: every compute thread stays within `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// `--workload all`: every workload in turn, each in a child process of
/// its own so that each reads its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate this executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    for workload in ["coverage_sweep", "sweep_archived", "harpd_jobs"] {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|status| status.success()) {
            eprintln!("perfbench: workload {workload} failed");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload coverage_sweep|sweep_archived|harpd_jobs|all \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match args.workload.as_str() {
        "coverage_sweep" => coverage::run(&args, started),
        "sweep_archived" => archived::run(&args, started),
        "harpd_jobs" => harpd::run(&args, started),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(known, _)| known == name),
            "metric {name} is not declared for this mode"
        );
    }
    println!("{} metrics:", args.workload);
    let mut entries = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<40} {value:>16.6} {unit}");
        entries.push(metric_json(name, value, unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        entries.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "harpd_jobs",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "harpd_jobs");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(parse_args(&strings(&["--seed", "x", "--workload", "a"])).is_err());
        assert!(parse_args(&strings(&[
            "--trace",
            "2",
            "--workload",
            "a",
            "--seed",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
