//! `harpd_jobs`: an in-process `Daemon` with its default configuration,
//! driven over in-memory duplex transports by a closed loop of two client
//! connections. Each client submits a job, watches it to its result frame,
//! then submits the next. This is the serving path: the per-round
//! `ResumableSweep::progress()` re-scores every snapshot so far, so job time
//! is mostly snapshot scoring, with durable archives and wire frames
//! alongside.
//!
//! The daemon's worker is opaque from outside, so the traced run measures
//! what the client can see (submit acknowledgement, snapshot arrivals,
//! result), times the JSON codec at both ends of instrumented transports,
//! and replays the worker loop of the run's first jobs outside the daemon,
//! step by step.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use harp_profiler::ProfilerKind;
use harp_server::client::{Client, WatchOutcome};
use harp_server::daemon::{Daemon, DaemonConfig, JOB_FILE, RESULT_FILE};
use harp_server::transport::{duplex, FrameTransport, PairTransport, MAX_FRAME_BYTES};
use harp_sim::checkpoint::{
    read_manifest, try_encode_sweep, write_json_atomically, ResumableSweep,
};
use harp_sim::experiments::fig6;
use harp_sim::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use harp_sim::minijson::Json;
use harp_sim::EvaluationConfig;

use crate::stats::{describe, dir_bytes, dir_files, median, peak_rss_mb};
use crate::trace::{self, Recorder, Row, OP};
use crate::{make_code, measure_setup, nproc, steps, Args, Outcome, WorkDir};

/// Client connections in the closed loop.
const CLIENTS: usize = 2;

/// Code groups per job's sweep cell.
const CODES: usize = 1;

/// Words per code group.
const WORDS: usize = 2;

/// The daemon's default checkpoint cadence (`DaemonConfig::new`).
const CHECKPOINT_INTERVAL: usize = 8;

/// Closed-loop windows of a traced run, alternately untraced and traced.
const TRACE_WINDOWS: usize = 4;

/// Job configurations the traced run replays outside the daemon.
const REPLAYED_JOBS: usize = 4;

/// A run always completes at least this many jobs.
const MIN_JOBS: usize = 4;

const PROFILERS: [ProfilerKind; 3] = fig6::PROFILERS;

/// The daemon keeps every job's frames and result in memory, so its RSS
/// grows with the number of jobs a run completes. Peak RSS is read once
/// this many jobs have finished, so a faster daemon does not read as a
/// bigger one.
const RSS_AFTER_JOBS: usize = 16;

/// `harp submit`'s default shape (quick grid, 128 rounds, Fig. 6
/// profilers) at `CODES × WORDS` words, one thread per job. Job `index` of
/// a run gets its own inputs, so a run's median spans many of them.
fn job_config(seed: u64, index: usize) -> EvaluationConfig {
    EvaluationConfig {
        num_codes: CODES,
        words_per_code: WORDS,
        base_seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64),
        threads: 1,
        ..EvaluationConfig::quick()
    }
}

/// Frames and codec time seen by one end of a traced connection.
#[derive(Debug, Default)]
struct WireLog {
    frames: u64,
    bytes: u64,
    render_s: f64,
    parse_s: f64,
}

/// The duplex transport's framing (render, 4-byte length, parse) with the
/// codec timed and every frame counted.
struct TracedTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    log: Arc<Mutex<WireLog>>,
}

fn traced_duplex() -> (TracedTransport, TracedTransport) {
    let (tx_a, rx_b) = mpsc::channel();
    let (tx_b, rx_a) = mpsc::channel();
    let end = |tx, rx| TracedTransport {
        tx,
        rx,
        log: Arc::new(Mutex::new(WireLog::default())),
    };
    (end(tx_a, rx_a), end(tx_b, rx_b))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl FrameTransport for TracedTransport {
    fn send(&mut self, frame: &Json) -> io::Result<()> {
        let start = Instant::now();
        let payload = frame.render().into_bytes();
        let render_s = start.elapsed().as_secs_f64();
        if payload.len() > MAX_FRAME_BYTES {
            return Err(invalid(format!("frame of {} bytes", payload.len())));
        }
        {
            let mut log = self.log.lock().expect("no wire log holder panics");
            log.frames += 1;
            log.bytes += payload.len() as u64;
            log.render_s += render_s;
        }
        let mut bytes = Vec::with_capacity(4 + payload.len());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
        self.tx
            .send(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer transport dropped"))
    }

    fn recv(&mut self) -> io::Result<Option<Json>> {
        let Ok(bytes) = self.rx.recv() else {
            return Ok(None);
        };
        let start = Instant::now();
        let text = std::str::from_utf8(&bytes[4..]).map_err(|e| invalid(e.to_string()))?;
        let json = Json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let parse_s = start.elapsed().as_secs_f64();
        self.log.lock().expect("no wire log holder panics").parse_s += parse_s;
        Ok(Some(json))
    }
}

/// The client-visible timeline of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    ack_s: f64,
    first_snapshot_s: f64,
    wall_s: f64,
    snapshot_gaps_s: Vec<f64>,
    frames: u64,
    bytes: u64,
    render_s: f64,
    parse_s: f64,
    ok: bool,
}

/// One client connection: the client end and the wire logs of both ends.
struct Connection<T: FrameTransport> {
    client: Client<T>,
    logs: Option<[Arc<Mutex<WireLog>>; 2]>,
}

/// A daemon, its connection handler threads and its clients.
struct Server<T: FrameTransport + Send + 'static> {
    daemon: Daemon,
    handlers: Vec<JoinHandle<()>>,
    connections: Vec<Connection<T>>,
    _work: WorkDir,
}

impl<T: FrameTransport + Send + 'static> Server<T> {
    /// Starts a daemon on a fresh state directory (running its recovery
    /// scan) and connects `CLIENTS` clients through `pair`.
    fn start(
        workers: usize,
        mut pair: impl FnMut() -> (T, T, Option<[Arc<Mutex<WireLog>>; 2]>),
    ) -> Self {
        let work = WorkDir::new("harpd_jobs");
        let mut config = DaemonConfig::new(work.path().join("state"));
        config.workers = workers;
        let daemon = Daemon::start(config).expect("the checkout's work directory is writable");
        let mut handlers = Vec::with_capacity(CLIENTS);
        let mut connections = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let (client_end, server_end, logs) = pair();
            let handler = daemon.clone();
            handlers.push(std::thread::spawn(move || handler.handle(server_end)));
            connections.push(Connection {
                client: Client::new(client_end),
                logs,
            });
        }
        Self {
            daemon,
            handlers,
            connections,
            _work: work,
        }
    }
}

impl<T: FrameTransport + Send + 'static> Drop for Server<T> {
    fn drop(&mut self) {
        // Dropping a client end reads as a clean close to its handler.
        self.connections.clear();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        self.daemon.join();
    }
}

fn wire_totals(logs: &Option<[Arc<Mutex<WireLog>>; 2]>) -> (u64, u64, f64, f64) {
    logs.as_ref().map_or((0, 0, 0.0, 0.0), |logs| {
        logs.iter().fold((0, 0, 0.0, 0.0), |acc, log| {
            let log = log.lock().expect("no wire log holder panics");
            (
                acc.0 + log.frames,
                acc.1 + log.bytes,
                acc.2 + log.render_s,
                acc.3 + log.parse_s,
            )
        })
    })
}

/// Submits one job and watches it to its end. Returns the client-visible
/// timeline and, for a job that completed with every snapshot in order,
/// its sweep.
fn run_job<T: FrameTransport>(
    connection: &mut Connection<T>,
    config: &EvaluationConfig,
) -> (JobRecord, Option<CoverageSweep>) {
    let before = wire_totals(&connection.logs);
    let start = Instant::now();
    let submitted = connection.client.submit(config, &PROFILERS);
    let ack_s = start.elapsed().as_secs_f64();
    let mut arrivals = Vec::with_capacity(config.rounds + 1);
    let mut in_order = true;
    let outcome = submitted.and_then(|job| {
        connection
            .client
            .watch(job, |snapshot| {
                in_order &= snapshot.round == arrivals.len();
                arrivals.push(start.elapsed().as_secs_f64());
            })
            .map(|outcome| (job, outcome))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = wire_totals(&connection.logs);
    let sweep = match outcome {
        Ok((_, WatchOutcome::Completed(sweep))) => {
            Some(sweep).filter(|_| in_order && arrivals.len() == config.rounds + 1)
        }
        Ok((job, WatchOutcome::Ended(status))) => {
            eprintln!("job {job} ended without a result: {status:?}");
            None
        }
        Err(message) => {
            eprintln!("job failed: {message}");
            None
        }
    };
    let record = JobRecord {
        ack_s,
        first_snapshot_s: arrivals.first().copied().unwrap_or(wall_s),
        wall_s,
        snapshot_gaps_s: arrivals.windows(2).map(|w| w[1] - w[0]).collect(),
        frames: after.0 - before.0,
        bytes: after.1 - before.1,
        render_s: after.2 - before.2,
        parse_s: after.3 - before.3,
        ok: sweep.is_some(),
    };
    (record, sweep)
}

/// What one pass of the closed loop measured.
struct LoopResult {
    /// Every job, each client's in submission order, client 0 first.
    jobs: Vec<JobRecord>,
    /// Campaign steps per second of client-visible job time, summed over
    /// clients.
    steps_per_s: f64,
    /// Peak RSS once `RSS_AFTER_JOBS` jobs had finished (or at the end).
    peak_rss_mb: f64,
}

impl LoopResult {
    /// Folds several passes into one: every job, the mean rate, the
    /// highest peak.
    fn merge(passes: Vec<LoopResult>) -> LoopResult {
        let count = passes.len() as f64;
        let steps_per_s = passes.iter().map(|pass| pass.steps_per_s).sum::<f64>() / count;
        let peak_rss_mb = passes
            .iter()
            .map(|pass| pass.peak_rss_mb)
            .fold(0.0, f64::max);
        LoopResult {
            jobs: passes.into_iter().flat_map(|pass| pass.jobs).collect(),
            steps_per_s,
            peak_rss_mb,
        }
    }
}

/// The closed loop: client `c` submits job configurations `c`, `c +
/// CLIENTS`, ... back to back until `seconds` have passed (and `MIN_JOBS`
/// jobs have finished). Once the loop ends, each result is checked against
/// a one-shot sweep of its configuration.
fn closed_loop<T: FrameTransport + Send + 'static>(
    server: &mut Server<T>,
    seed: u64,
    seconds: f64,
) -> LoopResult {
    let start = Instant::now();
    let per_client = MIN_JOBS.div_ceil(CLIENTS);
    let finished = AtomicUsize::new(0);
    let peak = Mutex::new(None);
    let per_client_jobs: Vec<(Vec<JobRecord>, f64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = server
            .connections
            .iter_mut()
            .enumerate()
            .map(|(client, connection)| {
                let (finished, peak) = (&finished, &peak);
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    let mut sweeps = Vec::new();
                    while jobs.len() < per_client || start.elapsed().as_secs_f64() < seconds {
                        let config = job_config(seed, jobs.len() * CLIENTS + client);
                        let (record, sweep) = run_job(connection, &config);
                        jobs.push(record);
                        sweeps.push((config, sweep));
                        if finished.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER_JOBS {
                            *peak.lock().expect("no peak reader panics") = Some(peak_rss_mb());
                        }
                    }
                    let busy: f64 = jobs.iter().map(|job: &JobRecord| job.wall_s).sum();
                    let mut steps_done = 0;
                    for (job, (config, sweep)) in jobs.iter_mut().zip(sweeps) {
                        job.ok = sweep
                            .is_some_and(|sweep| sweep == run_coverage_sweep(&config, &PROFILERS));
                        if job.ok {
                            steps_done += steps(&config, PROFILERS.len());
                        }
                    }
                    (jobs, steps_done as f64 / busy)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("client threads do not panic"))
            .collect()
    });
    let peak_rss_mb = peak
        .into_inner()
        .expect("no peak reader panics")
        .unwrap_or_else(peak_rss_mb);
    LoopResult {
        steps_per_s: per_client_jobs.iter().map(|(_, rate)| rate).sum(),
        jobs: per_client_jobs
            .into_iter()
            .flat_map(|(jobs, _)| jobs)
            .collect(),
        peak_rss_mb,
    }
}

/// Exact per-job archive counts from the replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ReplayCounts {
    bytes_written: u64,
    files_written: u64,
    final_bytes: u64,
    bytes_read: u64,
    progress_calls: u64,
}

fn record_json(state: &str) -> Json {
    Json::Object(vec![
        ("schema".to_owned(), Json::from_u64(1)),
        ("id".to_owned(), Json::from_u64(0)),
        ("state".to_owned(), Json::Str(state.to_owned())),
    ])
}

/// One job replayed outside the daemon through the public steps its submit
/// handler and worker take, with a span around each.
fn replay_job(
    config: &EvaluationConfig,
    dir: &Path,
    rec: &mut Recorder,
    counts: &mut ReplayCounts,
) -> CoverageSweep {
    std::fs::create_dir_all(dir).expect("the checkout's work directory is writable");
    let written = |counts: &mut ReplayCounts| {
        counts.bytes_written += dir_bytes(dir);
        counts.files_written += dir_files(dir);
    };
    let op = rec.enter(OP);
    // Submit: the round-0 archive and the job record, before the ack.
    let sweep = rec.span("sim.checkpoint.new", |_| {
        ResumableSweep::new(config, &PROFILERS, make_code(config.data_bits))
    });
    rec.span("sim.checkpoint.write_archive", |_| sweep.write_archive(dir))
        .expect("the checkout's work directory is writable");
    rec.span("sim.checkpoint.write_record", |_| {
        write_json_atomically(&dir.join(JOB_FILE), &record_json("pending"))
    })
    .expect("the checkout's work directory is writable");
    written(counts);
    drop(sweep);

    // The worker: resume, then advance round by round, scoring progress
    // after every round and checkpointing every eighth.
    rec.span("sim.checkpoint.write_record", |_| {
        write_json_atomically(&dir.join(JOB_FILE), &record_json("running"))
    })
    .expect("the checkout's work directory is writable");
    counts.bytes_read += dir_bytes(dir);
    let mut sweep = rec
        .span("sim.checkpoint.resume", |_| {
            read_manifest(dir)
                .and_then(|_| ResumableSweep::resume(dir, make_code(config.data_bits)))
        })
        .expect("the archive just written resumes");
    rec.span("sim.checkpoint.progress", |_| sweep.progress());
    counts.progress_calls += 1;
    while !sweep.is_complete() {
        rec.span("sim.checkpoint.advance", |_| sweep.advance(1));
        rec.span("sim.checkpoint.progress", |_| sweep.progress());
        counts.progress_calls += 1;
        if sweep.round().is_multiple_of(CHECKPOINT_INTERVAL) && !sweep.is_complete() {
            rec.span("sim.checkpoint.write_archive", |_| sweep.write_archive(dir))
                .expect("the checkout's work directory is writable");
            written(counts);
        }
    }
    counts.final_bytes = dir_bytes(dir);
    let finished = rec.span("sim.checkpoint.into_sweep", |_| sweep.into_sweep());
    let result = rec.span("sim.checkpoint.encode_sweep", |_| {
        let encoded = try_encode_sweep(&finished).expect("coverage values are finite");
        Json::Object(vec![
            ("type".to_owned(), Json::Str("result".to_owned())),
            ("job".to_owned(), Json::from_u64(0)),
            ("sweep".to_owned(), encoded),
        ])
    });
    rec.span("sim.checkpoint.write_record", |_| {
        write_json_atomically(&dir.join(RESULT_FILE), &result)?;
        write_json_atomically(&dir.join(JOB_FILE), &record_json("done"))
    })
    .expect("the checkout's work directory is writable");
    rec.exit(op);
    finished
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn duplex_pair() -> (
    PairTransport,
    PairTransport,
    Option<[Arc<Mutex<WireLog>>; 2]>,
) {
    let (client, server) = duplex();
    (client, server, None)
}

fn traced_pair() -> (
    TracedTransport,
    TracedTransport,
    Option<[Arc<Mutex<WireLog>>; 2]>,
) {
    let (client, server) = traced_duplex();
    let logs = [Arc::clone(&client.log), Arc::clone(&server.log)];
    (client, server, Some(logs))
}

/// Runs the workload and returns its metrics.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let default_workers = DaemonConfig::new(".").workers;
    let (setup_s, mut server) = measure_setup(|| Server::start(default_workers, duplex_pair));
    eprintln!(
        "process start to first timed operation: {:.4} s",
        started.elapsed().as_secs_f64()
    );
    // A traced run alternates untraced windows with windows over the traced
    // transports, so drift in the host's speed cancels out of the tracing
    // overhead.
    let (untraced, traced) = if args.trace {
        let mut traced_server = Server::start(default_workers, traced_pair);
        let window = args.seconds / TRACE_WINDOWS as f64;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for index in 0..TRACE_WINDOWS {
            if index % 2 == 0 {
                untraced.push(closed_loop(&mut server, args.seed, window));
            } else {
                traced.push(closed_loop(&mut traced_server, args.seed, window));
            }
        }
        (LoopResult::merge(untraced), Some(LoopResult::merge(traced)))
    } else {
        (closed_loop(&mut server, args.seed, args.seconds), None)
    };
    drop(server);
    let jobs = &untraced.jobs;
    for job in jobs {
        outcome.record(job.ok);
    }
    let walls: Vec<f64> = jobs.iter().map(|job| job.wall_s).collect();
    let acks_ms: Vec<f64> = jobs.iter().map(|job| job.ack_s * 1e3).collect();
    let firsts_ms: Vec<f64> = jobs.iter().map(|job| job.first_snapshot_s * 1e3).collect();
    let gaps_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|job| job.snapshot_gaps_s.iter().map(|gap| gap * 1e3))
        .collect();
    let jobs_per_s =
        untraced.steps_per_s / steps(&job_config(args.seed, 0), PROFILERS.len()) as f64;
    eprintln!("{}", describe("job_s (submit to result)", "s", &walls));
    eprintln!("{}", describe("submit_ack_ms", "ms", &acks_ms));
    eprintln!("{}", describe("first_snapshot_ms", "ms", &firsts_ms));
    eprintln!("{}", describe("snapshot_interval_ms", "ms", &gaps_ms));
    eprintln!(
        "jobs_per_s: {jobs_per_s:.4} ({} jobs, {CLIENTS} clients)",
        jobs.len()
    );

    let Some(traced) = traced else {
        outcome.set("setup_s", setup_s);
        outcome.set("wall_s", median(&walls));
        outcome.set("steps_per_s", untraced.steps_per_s);
        outcome.set("peak_rss_mb", untraced.peak_rss_mb);
        return outcome;
    };
    let traced_jobs = &traced.jobs;
    for job in traced_jobs {
        outcome.record(job.ok);
    }
    let frames = traced_jobs[0].frames;
    assert!(
        traced_jobs.iter().all(|job| job.frames == frames),
        "frames per job differ between jobs"
    );
    // Client 0's first job has id 0 or 1, so its frames spell the same
    // bytes on every run.
    let first_job_bytes = traced_jobs[0].bytes;

    // The worker loop replayed outside the daemon for the run's first job
    // configurations, and once more with more threads: archive counts must
    // not depend on the thread count.
    let work = WorkDir::new("harpd_replay");
    let mut rec = Recorder::new();
    let mut counts = None;
    for index in 0..REPLAYED_JOBS {
        let config = job_config(args.seed, index);
        let mut job_counts = ReplayCounts::default();
        let dir = work.path().join(format!("job-{index}"));
        let replayed = replay_job(&config, &dir, &mut rec, &mut job_counts);
        outcome.record(replayed == run_coverage_sweep(&config, &PROFILERS));
        counts.get_or_insert(job_counts);
    }
    let counts = counts.expect("REPLAYED_JOBS is nonzero");
    let config = job_config(args.seed, 0);
    let wide = EvaluationConfig {
        threads: nproc(),
        ..config.clone()
    };
    let mut wide_counts = ReplayCounts::default();
    let replayed = replay_job(
        &wide,
        &work.path().join("wide"),
        &mut Recorder::new(),
        &mut wide_counts,
    );
    outcome.record(replayed == run_coverage_sweep(&config, &PROFILERS));
    assert_eq!(
        counts, wide_counts,
        "archive counts differ across thread counts"
    );

    let (replay_rows, replay_total) = trace::rows(&rec, REPLAYED_JOBS);
    trace::print_table(
        "harpd_jobs: mean worker loop of the jobs replayed outside the daemon",
        &replay_rows,
        replay_total,
    );
    let replay_s = |name: &str| {
        replay_rows
            .iter()
            .find(|row| row.layer == name)
            .map_or(0.0, |row| row.per_op_s)
    };
    // Each replay's first archive write is the submit side's round-0 archive.
    let writes_per_job = rec.durations("sim.checkpoint.write_archive").len() / REPLAYED_JOBS;
    let initial_write_s = rec
        .durations("sim.checkpoint.write_archive")
        .iter()
        .step_by(writes_per_job)
        .sum::<f64>()
        / REPLAYED_JOBS as f64;
    let submit_side = replay_s("sim.checkpoint.new") + initial_write_s;

    // The job's client-visible wall, attributed to what the client sees and
    // what the replay shows; the rest stays unaccounted.
    let job_wall = mean(walls.iter().copied());
    let mut rows = vec![Row {
        layer: "server.submit_ack".to_owned(),
        per_op_s: mean(jobs.iter().map(|job| job.ack_s)),
    }];
    for name in [
        "sim.checkpoint.resume",
        "sim.checkpoint.advance",
        "sim.checkpoint.progress",
        "sim.checkpoint.into_sweep",
        "sim.checkpoint.encode_sweep",
    ] {
        rows.push(Row {
            layer: name.to_owned(),
            per_op_s: replay_s(name),
        });
    }
    rows.push(Row {
        layer: "sim.checkpoint.write_archive".to_owned(),
        per_op_s: replay_s("sim.checkpoint.write_archive") - initial_write_s,
    });
    let attributed: f64 = rows.iter().map(|row| row.per_op_s).sum();
    rows.push(Row {
        layer: "unaccounted".to_owned(),
        per_op_s: job_wall - attributed,
    });
    let accounted = trace::print_table(
        "harpd_jobs: mean job wall, submit to result",
        &rows,
        job_wall,
    );

    let words =
        (config.error_counts.len() * config.probabilities.len() * config.words_total()) as f64;
    let produced = words * (config.rounds * PROFILERS.len()) as f64;
    // `progress()` enumerates every word's error space and scores every
    // snapshot so far; `into_sweep` does both once more at the end.
    let progress_calls = counts.progress_calls as f64;
    let scored: f64 = words
        * PROFILERS.len() as f64
        * ((0..=config.rounds).sum::<usize>() as f64 + config.rounds as f64);
    outcome.set("ecc.error_space.calls", words * (progress_calls + 1.0));
    outcome.set("ecc.error_space.calls_per_word", progress_calls + 1.0);
    outcome.set("profiler.coverage.snapshots_scored", scored);
    outcome.set("profiler.coverage.scored_per_produced", scored / produced);
    outcome.set("sim.checkpoint.new_s", replay_s("sim.checkpoint.new"));
    outcome.set(
        "sim.checkpoint.advance_s",
        replay_s("sim.checkpoint.advance"),
    );
    outcome.set(
        "sim.checkpoint.into_sweep_s",
        replay_s("sim.checkpoint.into_sweep"),
    );
    outcome.set(
        "sim.checkpoint.write_archive_s",
        replay_s("sim.checkpoint.write_archive"),
    );
    outcome.set("sim.checkpoint.bytes_written", counts.bytes_written as f64);
    outcome.set("sim.checkpoint.files_written", counts.files_written as f64);
    outcome.set(
        "sim.checkpoint.rewrite_ratio",
        counts.bytes_written as f64 / counts.final_bytes as f64,
    );
    outcome.set("sim.checkpoint.resume_s", replay_s("sim.checkpoint.resume"));
    outcome.set("sim.checkpoint.bytes_read", counts.bytes_read as f64);
    outcome.set(
        "sim.checkpoint.progress_s",
        replay_s("sim.checkpoint.progress"),
    );
    outcome.set("server.submit_ack_ms", median(&acks_ms));
    outcome.set("server.first_snapshot_ms", median(&firsts_ms));
    // First snapshot minus the worker's own steps before it (record,
    // resume, first progress) is the time the job waited for a worker.
    let records = rec.durations("sim.checkpoint.write_record");
    let progress = rec.durations("sim.checkpoint.progress");
    let before_first_s = (records
        .iter()
        .skip(1)
        .step_by(records.len() / REPLAYED_JOBS)
        .sum::<f64>()
        + progress
            .iter()
            .step_by(progress.len() / REPLAYED_JOBS)
            .sum::<f64>())
        / REPLAYED_JOBS as f64
        + replay_s("sim.checkpoint.resume");
    outcome.set(
        "server.queue_wait_ms",
        (median(&firsts_ms) - median(&acks_ms) - before_first_s * 1e3).max(0.0),
    );
    outcome.set("server.snapshot_interval_ms", median(&gaps_ms));
    outcome.set("server.frames", frames as f64);
    outcome.set("server.frame_bytes", first_job_bytes as f64);
    outcome.set("server.jobs_per_s", jobs_per_s);
    outcome.set(
        "sim.minijson.render_s",
        mean(traced_jobs.iter().map(|job| job.render_s)),
    );
    outcome.set(
        "sim.minijson.parse_s",
        mean(traced_jobs.iter().map(|job| job.parse_s)),
    );
    outcome.set("steps", steps(&config, PROFILERS.len()) as f64);
    let traced_walls: Vec<f64> = traced_jobs.iter().map(|job| job.wall_s).collect();
    outcome.set("trace.overhead_s", median(&traced_walls) - median(&walls));
    outcome.set("trace.accounted_share", accounted);
    outcome.set("trace.unaccounted_s", job_wall - attributed);
    eprintln!(
        "submit side of the replay (new + round-0 archive): {submit_side:.4} s; \
         traced {}",
        describe("job_s", "s", &traced_walls)
    );
    outcome
}
