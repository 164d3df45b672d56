//! The `harpd` daemon: a worker pool serving concurrent, durable,
//! resumable sweep jobs.
//!
//! Every job is backed by its own directory (`<state_dir>/JOB_<id>/`)
//! holding the one-file checkpoint archive `harp sweep --checkpoint-dir`
//! writes (`ARCHIVE.jsonl`), a small `JOB.json` state record and, once
//! complete, a `RESULT.json` result frame. All three go through
//! [`write_json_atomically`]'s durable write sequence, and a job is
//! acknowledged to the submitter only after its archive and record are on
//! disk — so a `kill -9` at any point leaves a state directory from which
//! the next daemon start resumes every unfinished job.
//!
//! Job lifecycle: `pending` → `running` → `done` | `cancelled` | `failed`,
//! with `running` falling back to `pending` on daemon shutdown (after a
//! checkpoint) and on crash-restart. The full lifecycle and wire protocol
//! are documented in ROADMAP.md.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use harp_profiler::ProfilerKind;
use harp_sim::checkpoint::{
    hamming_factory, read_manifest, read_record, write_json_atomically, write_record,
    ResumableSweep,
};
use harp_sim::json_record;
use harp_sim::minijson::{named, DecodeError, Json, JsonCodec, NonFiniteFloat};
use harp_sim::EvaluationConfig;

use crate::proto::{JobStatus, ProfilerCoverage, Request, Response, Snapshot};
use crate::transport::{FrameTransport, TcpTransport, MAX_FRAME_BYTES};

/// Name of the per-job state record inside the job's directory.
pub const JOB_FILE: &str = "JOB.json";

/// Name of the per-job result frame written on completion.
pub const RESULT_FILE: &str = "RESULT.json";

/// Default client/daemon rendezvous address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:8471";

/// How the daemon runs: where job state lives and how eagerly it
/// checkpoints.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory holding one `JOB_<id>/` checkpoint archive per job.
    pub state_dir: PathBuf,
    /// Number of sweep worker threads.
    pub workers: usize,
    /// Rounds between checkpoint archive writes while a job runs.
    pub checkpoint_interval: usize,
}

impl DaemonConfig {
    /// A configuration with the default worker pool (2) and checkpoint
    /// cadence (every 8 rounds).
    pub fn new<P: Into<PathBuf>>(state_dir: P) -> Self {
        Self {
            state_dir: state_dir.into(),
            workers: 2,
            checkpoint_interval: 8,
        }
    }
}

/// Version of the `JOB.json` record layout.
const JOB_RECORD_SCHEMA: u64 = 1;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobPhase {
    const ALL: [JobPhase; 5] = [
        JobPhase::Queued,
        JobPhase::Running,
        JobPhase::Done,
        JobPhase::Cancelled,
        JobPhase::Failed,
    ];

    fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "pending",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Cancelled | JobPhase::Failed
        )
    }
}

impl JsonCodec for JobPhase {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(Json::from(self.name()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        named(json, "job state", |name| {
            JobPhase::ALL.into_iter().find(|phase| phase.name() == name)
        })
    }
}

/// The durable `JOB.json` record: the job's lifecycle state, and why it
/// failed.
struct JobRecord {
    id: u64,
    state: JobPhase,
    message: Option<String>,
}

json_record!(JobRecord as "schema": JOB_RECORD_SCHEMA { id, state } optional { message });

/// Mutable job state shared between the worker advancing the sweep and the
/// connection threads streaming it to watchers.
#[derive(Debug)]
struct JobProgress {
    phase: JobPhase,
    round: usize,
    rounds: usize,
    /// Snapshot frames in publication order; watchers replay from index 0.
    /// A completed job's `result` frame is not held here: watchers read it
    /// from the job's `RESULT.json`, so finished jobs do not keep their
    /// whole sweep in daemon memory.
    frames: Vec<Json>,
    message: Option<String>,
    cancel_requested: bool,
}

struct JobCell {
    id: u64,
    dir: PathBuf,
    state: Mutex<JobProgress>,
    cv: Condvar,
}

struct Shared {
    config: DaemonConfig,
    jobs: Mutex<BTreeMap<u64, Arc<JobCell>>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    serve_addr: Mutex<Option<SocketAddr>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running daemon instance. Cheap to clone; all clones share one worker
/// pool and job store.
#[derive(Clone)]
pub struct Daemon {
    shared: Arc<Shared>,
}

/// Locks a mutex, recovering the data even when a previous holder
/// panicked. Worker panics are already converted into failed jobs by the
/// `catch_unwind` net in [`run_job`], so the protected state is consistent
/// at unlock; propagating poisoning here would instead let one bad job
/// panic every thread that later touches shared state.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Daemon {
    /// Starts the worker pool, after re-enqueueing every unfinished job
    /// found in the state directory — this is the crash-recovery path: jobs
    /// recorded `pending` or `running` resume from their last checkpoint
    /// archive.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the state directory.
    pub fn start(config: DaemonConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&config.state_dir)?;
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            serve_addr: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
        });
        recover_jobs(&shared)?;
        let mut workers = lock_unpoisoned(&shared.workers);
        for index in 0..worker_count {
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("harpd-worker-{index}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        drop(workers);
        Ok(Self { shared })
    }

    /// Serves connections on the listener until a `shutdown` request
    /// arrives, then joins the worker pool. Each connection gets its own
    /// thread; the in-process twin for tests is [`Daemon::handle`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the listener itself.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        *lock_unpoisoned(&self.shared.serve_addr) = Some(listener.local_addr()?);
        for stream in listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                if let Ok(mut transport) = TcpTransport::new(stream) {
                    handle_transport(&shared, &mut transport);
                }
            });
        }
        self.join();
        Ok(())
    }

    /// Handles one client connection over any transport — the deterministic
    /// in-process entry point the protocol suite uses via
    /// [`crate::transport::duplex`].
    pub fn handle<T: FrameTransport>(&self, mut transport: T) {
        handle_transport(&self.shared, &mut transport);
    }

    /// Requests shutdown: running jobs checkpoint and fall back to
    /// `pending`, workers drain, the accept loop unblocks.
    pub fn begin_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Joins the worker pool (idempotent; implies [`Daemon::begin_shutdown`]).
    pub fn join(&self) {
        begin_shutdown(&self.shared);
        let handles: Vec<JoinHandle<()>> =
            lock_unpoisoned(&self.shared.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue_cv.notify_all();
    for cell in lock_unpoisoned(&shared.jobs).values() {
        cell.cv.notify_all();
    }
    // Unblock the accept loop with a throwaway connection.
    if let Some(addr) = *lock_unpoisoned(&shared.serve_addr) {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

/// Rebuilds the job table from the state directory. Unreadable job records
/// are skipped with a warning (a crash between directory creation and the
/// first durable write leaves an empty shell); unfinished jobs re-enter the
/// queue. Every `JOB_<n>` directory, skipped or not, keeps its id: new
/// jobs are numbered past all of them, so none is written into an old
/// job's directory.
fn recover_jobs(shared: &Arc<Shared>) -> io::Result<()> {
    let mut max_id = 0u64;
    for entry in std::fs::read_dir(&shared.config.state_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("JOB_"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        max_id = max_id.max(id.saturating_add(1));
        let dir = entry.path();
        let record: JobRecord = match read_record(&dir.join(JOB_FILE)) {
            Ok(record) => record,
            Err(err) => {
                eprintln!(
                    "harpd: skipping {}: unreadable {JOB_FILE}: {err}",
                    dir.display()
                );
                continue;
            }
        };
        let (round, rounds) = match read_manifest(&dir) {
            Ok(manifest) => (manifest.round, manifest.config.rounds),
            Err(_) => (0, 0),
        };
        let phase = match record.state {
            JobPhase::Done => match read_record::<Json>(&dir.join(RESULT_FILE)) {
                Ok(_) => JobPhase::Done,
                // A `done` record without a readable result cannot happen
                // under the durable write order; treat it as corruption.
                Err(_) => JobPhase::Failed,
            },
            // `pending` and `running` (the kill -9 case) both restart from
            // the last checkpoint archive.
            JobPhase::Queued | JobPhase::Running => JobPhase::Queued,
            terminal => terminal,
        };
        let cell = Arc::new(JobCell {
            id,
            dir,
            state: Mutex::new(JobProgress {
                phase,
                round,
                rounds,
                frames: Vec::new(),
                message: record.message,
                cancel_requested: false,
            }),
            cv: Condvar::new(),
        });
        lock_unpoisoned(&shared.jobs).insert(id, cell);
        if phase == JobPhase::Queued {
            lock_unpoisoned(&shared.queue).push_back(id);
        }
    }
    shared.next_id.store(max_id, Ordering::SeqCst);
    Ok(())
}

fn persist_job_record(
    cell: &JobCell,
    state: JobPhase,
    message: Option<&str>,
) -> Result<(), String> {
    let record = JobRecord {
        id: cell.id,
        state,
        message: message.map(str::to_owned),
    };
    write_record(&cell.dir.join(JOB_FILE), &record)
        .map_err(|e| format!("could not persist job record: {e}"))
}

fn submit_job(
    shared: &Arc<Shared>,
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
) -> Result<u64, String> {
    let make_code = hamming_factory(config.data_bits)?;
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = shared.config.state_dir.join(format!("JOB_{id}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    // The round-0 archive plus the job record make the job durable *before*
    // the acknowledgement: once the submitter sees an id, a killed daemon
    // will finish the job after restart.
    let sweep = ResumableSweep::new(config, profilers, make_code);
    sweep
        .write_archive(&dir)
        .map_err(|e| format!("could not write job archive: {e}"))?;
    let cell = Arc::new(JobCell {
        id,
        dir,
        state: Mutex::new(JobProgress {
            phase: JobPhase::Queued,
            round: 0,
            rounds: config.rounds,
            frames: Vec::new(),
            message: None,
            cancel_requested: false,
        }),
        cv: Condvar::new(),
    });
    persist_job_record(&cell, JobPhase::Queued, None)?;
    lock_unpoisoned(&shared.jobs).insert(id, cell);
    lock_unpoisoned(&shared.queue).push_back(id);
    shared.queue_cv.notify_one();
    Ok(id)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job_id = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = guard;
            }
        };
        let cell = lock_unpoisoned(&shared.jobs).get(&job_id).cloned();
        if let Some(cell) = cell {
            run_job(shared, &cell);
        }
    }
}

fn run_job(shared: &Shared, cell: &JobCell) {
    {
        let mut state = lock_unpoisoned(&cell.state);
        if state.phase != JobPhase::Queued {
            // Cancelled while still in the queue.
            return;
        }
        state.phase = JobPhase::Running;
        cell.cv.notify_all();
    }
    let _ = persist_job_record(cell, JobPhase::Running, None);
    // A panic anywhere in the drive loop must fail the *job*, never the
    // worker: a job stuck in `running` with its worker thread dead would
    // never reach a terminal phase, and every watcher would poll its
    // condvar until daemon shutdown. (The known panic source — non-finite
    // floats in the render path — is handled as a typed error below, but
    // the unwind guard keeps the terminal-frame guarantee even for panics
    // this code has not anticipated.)
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive_job(shared, cell)))
            .unwrap_or_else(|panic| Err(panic_message(&panic)));
    if let Err(message) = outcome {
        let _ = persist_job_record(cell, JobPhase::Failed, Some(&message));
        let mut state = lock_unpoisoned(&cell.state);
        state.phase = JobPhase::Failed;
        state.message = Some(message);
        cell.cv.notify_all();
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    let detail = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic");
    format!("worker panicked: {detail}")
}

/// Advances one job to a terminal state (or to a checkpointed `pending` on
/// daemon shutdown). Every failure path is a returned `Err` — a corrupt
/// archive must fail the job, never the daemon.
fn drive_job(shared: &Shared, cell: &JobCell) -> Result<(), String> {
    let manifest = read_manifest(&cell.dir).map_err(|e| e.to_string())?;
    let make_code =
        hamming_factory(manifest.config.data_bits).map_err(|e| format!("archived {e}"))?;
    let mut sweep = ResumableSweep::resume(&cell.dir, make_code).map_err(|e| e.to_string())?;
    push_snapshot(cell, &sweep)?;
    let interval = shared.config.checkpoint_interval.max(1);
    while !sweep.is_complete() {
        let cancelled = lock_unpoisoned(&cell.state).cancel_requested;
        if cancelled {
            sweep
                .write_archive(&cell.dir)
                .map_err(|e| format!("could not checkpoint cancelled job: {e}"))?;
            persist_job_record(cell, JobPhase::Cancelled, None)?;
            let mut state = lock_unpoisoned(&cell.state);
            state.phase = JobPhase::Cancelled;
            cell.cv.notify_all();
            return Ok(());
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Checkpoint and fall back to `pending`: the next daemon start
            // (or a later worker, if shutdown is aborted) picks it up.
            sweep
                .write_archive(&cell.dir)
                .map_err(|e| format!("could not checkpoint for shutdown: {e}"))?;
            persist_job_record(cell, JobPhase::Queued, None)?;
            let mut state = lock_unpoisoned(&cell.state);
            state.phase = JobPhase::Queued;
            cell.cv.notify_all();
            return Ok(());
        }
        sweep.advance(1);
        push_snapshot(cell, &sweep)?;
        if sweep.round() % interval == 0 && !sweep.is_complete() {
            sweep
                .write_archive(&cell.dir)
                .map_err(|e| format!("could not write checkpoint: {e}"))?;
        }
    }
    let result = Response::Result {
        job: cell.id,
        sweep: sweep.into_sweep(),
    }
    .to_json()
    .map_err(|e| format!("could not render result: {e}"))?;
    write_json_atomically(&cell.dir.join(RESULT_FILE), &result)
        .map_err(|e| format!("could not write result: {e}"))?;
    persist_job_record(cell, JobPhase::Done, None)?;
    let mut state = lock_unpoisoned(&cell.state);
    state.phase = JobPhase::Done;
    cell.cv.notify_all();
    Ok(())
}

/// Builds one watcher snapshot frame. Fallible because the coverage means
/// pass through JSON: a non-finite value used to panic the worker thread
/// here, which left the job `running` forever with no thread advancing it.
fn snapshot_frame(
    id: u64,
    round: usize,
    rounds: usize,
    progress: &[(ProfilerKind, f64)],
) -> Result<Json, NonFiniteFloat> {
    Response::Snapshot(Snapshot {
        job: id,
        round,
        rounds,
        coverage: progress
            .iter()
            .map(|&(profiler, mean_direct_coverage)| ProfilerCoverage {
                profiler,
                mean_direct_coverage,
            })
            .collect(),
    })
    .to_json()
}

fn push_snapshot(cell: &JobCell, sweep: &ResumableSweep) -> Result<(), String> {
    let frame = snapshot_frame(
        cell.id,
        sweep.round(),
        sweep.config().rounds,
        &sweep.progress(),
    )
    .map_err(|e| format!("could not render snapshot: {e}"))?;
    let mut state = lock_unpoisoned(&cell.state);
    state.round = sweep.round();
    state.rounds = sweep.config().rounds;
    state.frames.push(frame);
    cell.cv.notify_all();
    Ok(())
}

fn job_status_locked(id: u64, state: &JobProgress) -> JobStatus {
    JobStatus {
        job: id,
        state: state.phase.name().to_owned(),
        round: state.round,
        rounds: state.rounds,
        message: state.message.clone(),
    }
}

fn job_status(cell: &JobCell) -> JobStatus {
    job_status_locked(cell.id, &lock_unpoisoned(&cell.state))
}

fn jobs_frame(shared: &Shared) -> Response {
    let jobs = lock_unpoisoned(&shared.jobs)
        .values()
        .map(|cell| job_status(cell))
        .collect();
    Response::Jobs { jobs }
}

fn invalid_frame(err: NonFiniteFloat) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// Encodes and sends one daemon frame.
fn send<T: FrameTransport>(transport: &mut T, response: &Response) -> io::Result<()> {
    transport.send(&response.to_json().map_err(invalid_frame)?)
}

fn send_error<T: FrameTransport>(transport: &mut T, message: String) -> io::Result<()> {
    send(transport, &Response::Error { message })
}

fn get_job(shared: &Shared, id: u64) -> Option<Arc<JobCell>> {
    lock_unpoisoned(&shared.jobs).get(&id).cloned()
}

fn request_cancel(cell: &JobCell) {
    let mut state = lock_unpoisoned(&cell.state);
    state.cancel_requested = true;
    if state.phase == JobPhase::Queued {
        // Never started: transition here; a worker that later pops the id
        // sees the terminal phase and skips it.
        state.phase = JobPhase::Cancelled;
        drop(state);
        let _ = persist_job_record(cell, JobPhase::Cancelled, None);
    }
    cell.cv.notify_all();
}

/// Streams the job's snapshot frames from round 0, then exactly one
/// terminal frame: the `result` stored in `RESULT.json` for completed jobs,
/// a `job` status frame for cancelled/failed ones.
fn watch_job<T: FrameTransport>(
    shared: &Shared,
    cell: &JobCell,
    transport: &mut T,
) -> io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (pending, done, status) = {
            let mut state = lock_unpoisoned(&cell.state);
            loop {
                if cursor < state.frames.len() || state.phase.is_terminal() {
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(state);
                    return send_error(transport, "daemon is shutting down".to_owned());
                }
                let (guard, _) = cell
                    .cv
                    .wait_timeout(state, Duration::from_millis(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = guard;
            }
            let pending: Vec<Json> = state.frames[cursor..].to_vec();
            cursor = state.frames.len();
            let done = state.phase == JobPhase::Done;
            let status = (state.phase.is_terminal() && !done)
                .then(|| Response::Job(job_status_locked(cell.id, &state)));
            (pending, done, status)
        };
        for frame in &pending {
            transport.send(frame)?;
        }
        if done {
            // The file holds the result frame's rendered payload, so one
            // over the cap is refused here: the transport would refuse it by
            // dropping the connection.
            let path = cell.dir.join(RESULT_FILE);
            let bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
            if bytes > MAX_FRAME_BYTES as u64 {
                let (file, cap) = (path.display(), MAX_FRAME_BYTES);
                let message =
                    format!("result of {bytes} bytes in {file} is over the {cap}-byte frame cap");
                return send_error(transport, message);
            }
            return match read_record::<Json>(&path) {
                Ok(result) => transport.send(&result),
                Err(err) => send_error(transport, format!("unreadable job result: {err}")),
            };
        }
        if let Some(status) = status {
            return send(transport, &status);
        }
    }
}

fn handle_transport<T: FrameTransport>(shared: &Arc<Shared>, transport: &mut T) {
    loop {
        let frame = match transport.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(err) => {
                // Tell the peer what was wrong with its bytes, then drop
                // the connection: framing is unrecoverable after a bad
                // frame.
                let _ = send_error(transport, err.to_string());
                return;
            }
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(err) => {
                if send_error(transport, err.to_string()).is_err() {
                    return;
                }
                continue;
            }
        };
        let with_job =
            |id: u64, transport: &mut T, f: &dyn Fn(&Arc<JobCell>, &mut T) -> io::Result<()>| {
                match get_job(shared, id) {
                    Some(cell) => f(&cell, transport),
                    None => send_error(transport, format!("no job {id}")),
                }
            };
        let outcome = match &request {
            Request::Submit { config, profilers } => match submit_job(shared, config, profilers) {
                Ok(job) => send(transport, &Response::Submitted { job }),
                Err(message) => send_error(transport, message),
            },
            Request::Status { job } => with_job(*job, transport, &|cell, transport| {
                send(transport, &Response::Job(job_status(cell)))
            }),
            Request::List => send(transport, &jobs_frame(shared)),
            Request::Watch { job } => with_job(*job, transport, &|cell, transport| {
                watch_job(shared, cell, transport)
            }),
            Request::Cancel { job } => with_job(*job, transport, &|cell, transport| {
                request_cancel(cell);
                send(transport, &Response::Job(job_status(cell)))
            }),
            Request::Shutdown => {
                let acked = send(transport, &Response::Ok);
                begin_shutdown(shared);
                acked
            }
        };
        if outcome.is_err() || matches!(request, Request::Shutdown) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, WatchOutcome};
    use crate::transport::duplex;

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 1,
            words_per_code: 2,
            rounds: 6,
            error_counts: vec![2],
            probabilities: vec![0.5],
            threads: 1,
            ..EvaluationConfig::quick()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harpd_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn connect(daemon: &Daemon) -> Client<crate::transport::PairTransport> {
        let (client_end, server_end) = duplex();
        let handler = daemon.clone();
        std::thread::spawn(move || handler.handle(server_end));
        Client::new(client_end)
    }

    #[test]
    fn submit_watch_and_status_complete_a_job() {
        let dir = temp_dir("basic");
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        let kinds = vec![ProfilerKind::HarpU, ProfilerKind::Naive];
        let job = client.submit(&tiny_config(), &kinds).unwrap();

        let mut rounds_seen = Vec::new();
        let outcome = client
            .watch(job, |snapshot| rounds_seen.push(snapshot.round))
            .unwrap();
        let WatchOutcome::Completed(sweep) = outcome else {
            panic!("job did not complete: {outcome:?}");
        };
        assert_eq!(sweep.rounds, 6);
        assert_eq!(sweep.profilers, kinds);
        assert_eq!(*rounds_seen.last().unwrap(), 6);
        // Snapshots arrive in round order, starting from the resume point.
        assert!(rounds_seen.windows(2).all(|w| w[0] < w[1]));

        let status = client.status(job).unwrap();
        assert_eq!(status.state, "done");
        assert_eq!(status.round, 6);
        assert!(client.jobs().unwrap().iter().any(|j| j.job == job));
        // The durable records exist on disk.
        assert!(dir.join(format!("JOB_{job}")).join(RESULT_FILE).exists());

        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_result_over_the_frame_cap_is_an_error_frame() {
        let dir = temp_dir("oversize");
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        let job = client
            .submit(&tiny_config(), &[ProfilerKind::HarpU])
            .unwrap();
        let outcome = client.watch(job, |_| {}).unwrap();
        assert!(matches!(outcome, WatchOutcome::Completed(_)), "{outcome:?}");
        // Extending the file leaves a hole, so almost nothing is written.
        let path = dir.join(format!("JOB_{job}")).join(RESULT_FILE);
        let bytes = MAX_FRAME_BYTES as u64 + 1;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(bytes).unwrap();
        let err = client.watch(job, |_| {}).unwrap_err();
        let expected = format!("{bytes} bytes in {}", path.display());
        assert!(err.contains(&expected), "{err}");
        // The connection stays usable.
        assert!(client.jobs().unwrap().iter().any(|j| j.job == job));
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_jobs_and_bad_requests_answer_with_errors() {
        let dir = temp_dir("errors");
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        assert!(client.status(999).unwrap_err().contains("no job 999"));
        // The connection survives a protocol-level error.
        assert!(client.jobs().unwrap().is_empty());
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queued_jobs_cancel_without_running() {
        let dir = temp_dir("cancel");
        // Zero-worker pools never pick jobs up, keeping the job queued.
        let mut config = DaemonConfig::new(&dir);
        config.workers = 1;
        let daemon = Daemon::start(config).unwrap();
        // Occupy the single worker with a longer job, then cancel a queued
        // one behind it.
        let mut client = connect(&daemon);
        let kinds = vec![ProfilerKind::HarpU];
        let long = client
            .submit(
                &EvaluationConfig {
                    rounds: 64,
                    ..tiny_config()
                },
                &kinds,
            )
            .unwrap();
        let queued = client.submit(&tiny_config(), &kinds).unwrap();
        let status = client.cancel(queued).unwrap();
        assert_eq!(status.state, "cancelled");
        let outcome = client.watch(queued, |_| {}).unwrap();
        assert!(matches!(outcome, WatchOutcome::Ended(s) if s.state == "cancelled"));
        // The long job still finishes (or checkpoints at shutdown).
        let _ = client.cancel(long);
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression for the render-path panic: a non-finite coverage mean used
    /// to abort the worker thread inside the snapshot encoder, leaving the
    /// job `running` forever with no thread left to advance it (and every
    /// watcher polling until shutdown). It must be a typed error instead.
    #[test]
    fn snapshot_frames_reject_non_finite_coverage_instead_of_panicking() {
        let err = snapshot_frame(7, 1, 6, &[(ProfilerKind::HarpU, f64::NAN)]).unwrap_err();
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("cannot represent"));

        let frame = snapshot_frame(7, 1, 6, &[(ProfilerKind::HarpU, 0.5)]).unwrap();
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("snapshot"));
        assert_eq!(
            frame
                .get("coverage")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    /// A watcher already streaming snapshots when the job is cancelled must
    /// receive exactly one terminal frame (the `cancelled` status) rather
    /// than stalling on a stream that will never produce another snapshot.
    #[test]
    fn watchers_of_a_job_cancelled_mid_stream_get_a_terminal_frame() {
        let dir = temp_dir("cancel_mid_stream");
        let mut config = DaemonConfig::new(&dir);
        config.workers = 1;
        let daemon = Daemon::start(config).unwrap();
        let mut client = connect(&daemon);
        let kinds = vec![ProfilerKind::HarpU];
        // Long enough that the cancel below always lands mid-run.
        let job = client
            .submit(
                &EvaluationConfig {
                    rounds: 65_536,
                    ..tiny_config()
                },
                &kinds,
            )
            .unwrap();

        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let watcher_daemon = daemon.clone();
        let watcher = std::thread::spawn(move || {
            let mut watch_client = connect(&watcher_daemon);
            let mut snapshots = 0usize;
            let outcome = watch_client
                .watch(job, |_| {
                    snapshots += 1;
                    if snapshots == 1 {
                        let _ = started_tx.send(());
                    }
                })
                .unwrap();
            (snapshots, outcome)
        });

        // Cancel only once the job is demonstrably running and streaming.
        started_rx.recv().unwrap();
        client.cancel(job).unwrap();

        let (snapshots, outcome) = watcher.join().unwrap();
        assert!(snapshots >= 1);
        assert!(matches!(outcome, WatchOutcome::Ended(s) if s.state == "cancelled"));
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `JOB.json` that does not decode — here an unknown state — is
    /// skipped at recovery like an unparseable one, not guessed to be
    /// `pending` and re-run.
    #[test]
    fn undecodable_job_records_are_skipped_at_recovery() {
        let dir = temp_dir("bad_record");
        let job_dir = dir.join("JOB_0");
        std::fs::create_dir_all(&job_dir).unwrap();
        std::fs::write(
            job_dir.join(JOB_FILE),
            r#"{"schema":1,"id":0,"state":"paused"}"#,
        )
        .unwrap();
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        assert!(client.jobs().unwrap().is_empty());
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a skipped directory used to leave its id free, so the
    /// next submit was numbered into it and wrote its own `JOB.json` and
    /// archive next to the old job's files.
    #[test]
    fn skipped_job_directories_keep_their_ids() {
        let dir = temp_dir("skipped_id");
        let job_dir = dir.join("JOB_3");
        std::fs::create_dir_all(&job_dir).unwrap();
        let unreadable = r#"{"schema":1,"id":3,"state":"paused"}"#;
        std::fs::write(job_dir.join(JOB_FILE), unreadable).unwrap();
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        let job = client
            .submit(&tiny_config(), &[ProfilerKind::HarpU])
            .unwrap();
        assert_eq!(job, 4);
        let _ = client.watch(job, |_| {}).unwrap();
        client.shutdown().unwrap();
        daemon.join();
        let skipped: Vec<_> = std::fs::read_dir(&job_dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(skipped, [JOB_FILE]);
        assert_eq!(
            std::fs::read_to_string(job_dir.join(JOB_FILE)).unwrap(),
            unreadable
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A finished job whose `RESULT.json` is of schema 1, which stored each
    /// coverage series dense, ends its watcher with the typed schema error
    /// instead of a misread sweep, and the connection stays usable.
    #[test]
    fn schema_1_results_end_watchers_with_a_schema_error() {
        let dir = temp_dir("schema_1_result");
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = connect(&daemon);
        let job = client
            .submit(&tiny_config(), &[ProfilerKind::HarpU])
            .unwrap();
        let outcome = client.watch(job, |_| {}).unwrap();
        assert!(matches!(outcome, WatchOutcome::Completed(_)), "{outcome:?}");
        let legacy = concat!(
            r#"{"type":"result","job":0,"sweep":{"schema":1,"rounds":2,"#,
            r#""error_counts":[2],"probabilities":[0.5],"profilers":["HARP-U"],"#,
            r#""evaluations":[{"error_count":2,"probability":0.5,"profiler":"HARP-U","#,
            r#""series":{"profiler":"HARP-U","direct_coverage":[0.5,1],"#,
            r#""missed_indirect":[0,0],"max_simultaneous":[1,0],"bootstrap_round":0,"#,
            r#""direct_truth_len":2,"indirect_truth_len":0}}]}}"#
        );
        let path = dir.join(format!("JOB_{job}")).join(RESULT_FILE);
        std::fs::write(&path, legacy).unwrap();
        let err = client.watch(job, |_| {}).unwrap_err();
        assert!(err.contains("sweep.schema: expected 3, found 1"), "{err}");
        assert_eq!(client.status(job).unwrap().state, "done");
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every drive-loop failure must end as a `failed` job whose watchers
    /// get a terminal frame — here via a checkpoint archive corrupted while
    /// the job waits in the queue.
    #[test]
    fn corrupt_archives_fail_the_job_and_end_its_watchers() {
        let dir = temp_dir("corrupt_archive");
        let mut config = DaemonConfig::new(&dir);
        config.workers = 1;
        let daemon = Daemon::start(config).unwrap();
        let mut client = connect(&daemon);
        let kinds = vec![ProfilerKind::HarpU];
        // Occupy the single worker so the second job stays queued while we
        // corrupt its archive.
        let long = client
            .submit(
                &EvaluationConfig {
                    rounds: 65_536,
                    ..tiny_config()
                },
                &kinds,
            )
            .unwrap();
        let doomed = client.submit(&tiny_config(), &kinds).unwrap();
        // The submit acknowledgement means the archive is already durable.
        std::fs::write(
            dir.join(format!("JOB_{doomed}"))
                .join(harp_sim::checkpoint::ARCHIVE_FILE),
            b"not json",
        )
        .unwrap();
        let _ = client.cancel(long);

        let outcome = client.watch(doomed, |_| {}).unwrap();
        let WatchOutcome::Ended(status) = outcome else {
            panic!("expected a terminal job frame, got {outcome:?}");
        };
        assert_eq!(status.state, "failed");
        assert!(status.message.is_some(), "failed jobs carry a reason");
        client.shutdown().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
