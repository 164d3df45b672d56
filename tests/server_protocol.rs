//! Protocol suite for the `harpd` daemon.
//!
//! Runs entirely over the deterministic in-process transport twin
//! ([`harp_server::transport::duplex`]) — the frames traverse the exact
//! render → bytes → parse path of the TCP transport, minus only the socket —
//! and locks down the daemon's two core guarantees:
//!
//! * **Differential** — two concurrent jobs served from the worker pool
//!   return sweeps *byte-identical* (via their deterministic
//!   [`JsonCodec`] rendering) to single-process
//!   [`run_coverage_sweep`] runs of the same configurations.
//! * **Crash durability** — a state directory left behind by a `kill -9`'d
//!   daemon (job record still `running`, archive at its last checkpoint) is
//!   picked up by the next daemon start, resumed from the checkpoint — not
//!   from round 0 — and completed byte-identical to the uninterrupted run.
//!   The same holds across a clean shutdown → restart handoff.
//!
//! Protocol-level misuse (unknown jobs, malformed frames, unusable submit
//! configurations) must answer with `error` frames on a connection that
//! stays usable, never with a dropped daemon; and no frame, however
//! mangled, makes either side's decoder panic.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use harp_ecc::HammingCode;
use harp_profiler::ProfilerKind;
use harp_server::client::{Client, WatchOutcome};
use harp_server::daemon::{Daemon, DaemonConfig, JOB_FILE};
use harp_server::proto::{JobStatus, Request, Response};
use harp_server::transport::{duplex, FrameTransport, PairTransport};
use harp_sim::checkpoint::{write_json_atomically, ResumableSweep};
use harp_sim::experiments::sweep::{run_coverage_sweep, CoverageSweep};
use harp_sim::minijson::{Json, JsonCodec};
use harp_sim::EvaluationConfig;

/// A quick-scale sweep: small enough to finish in well under a second per
/// job, large enough to exercise multiple cells, codes, and checkpoints.
fn quick_scale(base_seed: u64) -> EvaluationConfig {
    EvaluationConfig {
        num_codes: 2,
        words_per_code: 3,
        rounds: 10,
        error_counts: vec![2, 3],
        probabilities: vec![0.5, 1.0],
        threads: 1,
        base_seed,
        ..EvaluationConfig::quick()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harp_server_protocol_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens an in-process client connection to the daemon.
fn connect(daemon: &Daemon) -> Client<PairTransport> {
    let (client_end, server_end) = duplex();
    let handler = daemon.clone();
    std::thread::spawn(move || handler.handle(server_end));
    Client::new(client_end)
}

/// The deterministic byte rendering both sides are compared by.
fn sweep_bytes(sweep: &CoverageSweep) -> String {
    sweep
        .to_json()
        .expect("coverage values are finite")
        .render()
}

fn reference_bytes(config: &EvaluationConfig, profilers: &[ProfilerKind]) -> String {
    sweep_bytes(&run_coverage_sweep(config, profilers))
}

fn watch_to_bytes(mut client: Client<PairTransport>, job: u64) -> (String, Vec<usize>) {
    let mut rounds_seen = Vec::new();
    let outcome = client
        .watch(job, |snapshot| rounds_seen.push(snapshot.round))
        .expect("watch succeeds");
    let WatchOutcome::Completed(sweep) = outcome else {
        panic!("job {job} did not complete: {outcome:?}");
    };
    (sweep_bytes(&sweep), rounds_seen)
}

#[test]
fn concurrent_jobs_match_single_process_sweeps_byte_for_byte() {
    let dir = temp_dir("differential");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon starts");

    // Two different configurations and lineups, submitted from two
    // connections and watched concurrently: the worker pool interleaves
    // them without the results contaminating each other.
    let config_a = quick_scale(0xA11CE);
    let kinds_a = ProfilerKind::ACTIVE_BASELINES.to_vec();
    let config_b = quick_scale(0xB0B);
    let kinds_b = vec![ProfilerKind::HarpA, ProfilerKind::HarpU];

    let mut submitter = connect(&daemon);
    let job_a = submitter.submit(&config_a, &kinds_a).expect("submit A");
    let job_b = submitter.submit(&config_b, &kinds_b).expect("submit B");
    assert_ne!(job_a, job_b);

    let watcher_a = connect(&daemon);
    let watcher_b = connect(&daemon);
    let thread_a = std::thread::spawn(move || watch_to_bytes(watcher_a, job_a));
    let thread_b = std::thread::spawn(move || watch_to_bytes(watcher_b, job_b));
    let (bytes_a, rounds_a) = thread_a.join().expect("watcher A");
    let (bytes_b, rounds_b) = thread_b.join().expect("watcher B");

    assert_eq!(
        bytes_a,
        reference_bytes(&config_a, &kinds_a),
        "job A diverged from the single-process sweep"
    );
    assert_eq!(
        bytes_b,
        reference_bytes(&config_b, &kinds_b),
        "job B diverged from the single-process sweep"
    );
    // Snapshot streams cover every round from 0 to completion, in order.
    assert_eq!(rounds_a, (0..=config_a.rounds).collect::<Vec<_>>());
    assert_eq!(rounds_b, (0..=config_b.rounds).collect::<Vec<_>>());

    connect(&daemon).shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_killed_daemons_jobs_resume_from_their_checkpoints() {
    let dir = temp_dir("kill9");
    let config = quick_scale(0xDEAD);
    let kinds = vec![ProfilerKind::HarpU, ProfilerKind::Naive];
    let resume_round = 4;

    // Fabricate exactly what `kill -9` leaves behind: a checkpoint archive
    // frozen mid-sweep and a job record still claiming `running` (the
    // daemon never got to update it). No daemon wrote this state, so
    // recovery cannot be relying on any in-memory handoff.
    let job_dir = dir.join("JOB_0");
    std::fs::create_dir_all(&job_dir).expect("job dir");
    let data_bits = config.data_bits;
    let make_code = |seed| HammingCode::random(data_bits, seed).expect("valid code");
    let mut sweep = ResumableSweep::new(&config, &kinds, make_code);
    sweep.advance(resume_round);
    sweep.write_archive(&job_dir).expect("mid-sweep archive");
    write_json_atomically(
        &job_dir.join(JOB_FILE),
        &Json::parse(r#"{"schema":1,"id":0,"state":"running"}"#).expect("record"),
    )
    .expect("job record");

    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("restart scans the state dir");
    let (bytes, rounds_seen) = watch_to_bytes(connect(&daemon), 0);
    assert_eq!(
        bytes,
        reference_bytes(&config, &kinds),
        "resumed job diverged from the uninterrupted sweep"
    );
    // The first snapshot is at the checkpointed round: the daemon resumed,
    // it did not restart from round 0.
    assert_eq!(rounds_seen.first(), Some(&resume_round));
    assert_eq!(rounds_seen.last(), Some(&config.rounds));

    // A fresh submission on the recovered daemon picks the next free id.
    let job = connect(&daemon)
        .submit(&quick_scale(1), &kinds)
        .expect("post-recovery submit");
    assert_eq!(job, 1);

    connect(&daemon).shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_clean_shutdown_hands_running_jobs_to_the_next_daemon() {
    let dir = temp_dir("handoff");
    let config = EvaluationConfig {
        rounds: 40,
        ..quick_scale(0x5EED)
    };
    let kinds = vec![ProfilerKind::HarpU];

    let first = Daemon::start(DaemonConfig {
        checkpoint_interval: 2,
        workers: 1,
        ..DaemonConfig::new(&dir)
    })
    .expect("first daemon");
    let mut client = connect(&first);
    let job = client.submit(&config, &kinds).expect("submit");
    // Let the worker make some progress before pulling the plug.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(job).expect("status");
        if status.round >= 2 || status.state == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.shutdown().expect("shutdown");
    first.join();

    // The second daemon finds the checkpointed job and finishes it.
    let second = Daemon::start(DaemonConfig::new(&dir)).expect("second daemon");
    let (bytes, _) = watch_to_bytes(connect(&second), job);
    assert_eq!(
        bytes,
        reference_bytes(&config, &kinds),
        "handed-off job diverged from the uninterrupted sweep"
    );
    connect(&second).shutdown().expect("shutdown");
    second.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cancellation_reaches_a_terminal_state_that_survives_restart() {
    let dir = temp_dir("cancel");
    let first = Daemon::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::new(&dir)
    })
    .expect("first daemon");
    let mut client = connect(&first);
    let kinds = vec![ProfilerKind::HarpU];
    // The first job occupies the single worker; the second waits queued and
    // cancels instantly.
    let running = client
        .submit(
            &EvaluationConfig {
                rounds: 200,
                ..quick_scale(2)
            },
            &kinds,
        )
        .expect("submit running");
    let queued = client
        .submit(&quick_scale(3), &kinds)
        .expect("submit queued");
    assert_eq!(
        client.cancel(queued).expect("cancel queued").state,
        "cancelled"
    );

    // Cancelling the running job takes effect at its next round boundary.
    client.cancel(running).expect("cancel running");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(running).expect("status");
        if status.state == "cancelled" {
            break;
        }
        assert!(Instant::now() < deadline, "running job never cancelled");
        std::thread::sleep(Duration::from_millis(10));
    }
    let outcome = client.watch(running, |_| {}).expect("watch cancelled");
    assert!(matches!(outcome, WatchOutcome::Ended(ref s) if s.state == "cancelled"));
    client.shutdown().expect("shutdown");
    first.join();

    // Cancelled is terminal: a restart must not resurrect either job.
    let second = Daemon::start(DaemonConfig::new(&dir)).expect("second daemon");
    let mut client = connect(&second);
    for job in [running, queued] {
        assert_eq!(client.status(job).expect("status").state, "cancelled");
    }
    connect(&second).shutdown().expect("shutdown");
    second.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn protocol_misuse_answers_with_errors_on_a_live_connection() {
    let dir = temp_dir("misuse");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon");

    // Drive the raw transport directly to send frames no well-behaved
    // client would.
    let (mut raw, server_end) = duplex();
    let handler = daemon.clone();
    std::thread::spawn(move || handler.handle(server_end));
    for (frame, needle) in [
        (r#"{"job":1}"#, "missing key 'type'"),
        (r#"{"type":"frobnicate"}"#, "unknown request type"),
        (r#"{"type":"watch"}"#, "missing key 'job'"),
        (r#"{"type":"status","job":42}"#, "no job 42"),
    ] {
        raw.send(&Json::parse(frame).expect("test frame"))
            .expect("send");
        let answer = raw.recv().expect("recv").expect("frame");
        assert_eq!(answer.get("type").and_then(Json::as_str), Some("error"));
        let message = answer
            .get("message")
            .and_then(Json::as_str)
            .expect("error message");
        assert!(message.contains(needle), "{frame}: {message}");
    }
    // The connection survived all of it.
    raw.send(&Json::parse(r#"{"type":"list"}"#).expect("frame"))
        .expect("send");
    let answer = raw.recv().expect("recv").expect("frame");
    assert_eq!(answer.get("type").and_then(Json::as_str), Some("jobs"));
    drop(raw);

    // Submit-side validation: the bugfixed config check rejects unusable
    // configurations at decode time, before any job state exists.
    let mut client = connect(&daemon);
    let mut bad = quick_scale(0);
    bad.rounds = 0;
    let err = client
        .submit(&bad, &[ProfilerKind::HarpU])
        .expect_err("rounds=0 must be rejected");
    assert!(err.contains("rounds"), "{err}");
    assert!(client.jobs().expect("connection still live").is_empty());

    connect(&daemon).shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A submit whose error count exceeds the word used to panic the
/// connection handler while sampling faults ("cannot place 8 at-risk bits
/// in 7 cells"): the client saw a closed connection, and an empty `JOB_0`
/// directory used up its id. It must get a typed error frame on a
/// connection that stays usable, and leave no job directory behind.
#[test]
fn an_error_count_larger_than_the_word_is_rejected_not_a_panic() {
    let dir = temp_dir("oversized_error_count");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon");
    let (mut raw, server_end) = duplex();
    let handler = daemon.clone();
    std::thread::spawn(move || handler.handle(server_end));

    let config = EvaluationConfig {
        data_bits: 4,
        num_codes: 1,
        words_per_code: 1,
        rounds: 4,
        error_counts: vec![8],
        probabilities: vec![0.5],
        ..quick_scale(0)
    };
    let submit = Request::Submit {
        config,
        profilers: vec![ProfilerKind::HarpU],
    };
    raw.send(&submit.to_json().expect("finite config"))
        .expect("send");
    let answer = raw.recv().expect("recv").expect("an answer, not a hang-up");
    assert_eq!(answer.get("type").and_then(Json::as_str), Some("error"));
    let message = answer
        .get("message")
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains("error count 8 exceeds data_bits 4"),
        "{message}"
    );

    // The same connection still answers.
    raw.send(&Request::List.to_json().expect("frame"))
        .expect("send");
    let answer = raw.recv().expect("recv").expect("frame");
    assert_eq!(
        Response::from_json(&answer).expect("a jobs frame"),
        Response::Jobs { jobs: Vec::new() }
    );
    drop(raw);
    let job_dirs: Vec<_> = std::fs::read_dir(&dir)
        .expect("state dir")
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("JOB_"))
        .map(|entry| entry.file_name())
        .collect();
    assert!(job_dirs.is_empty(), "{job_dirs:?}");

    connect(&daemon).shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Valid frames of every request type and of the response types that carry
/// nested records, rendered: the seeds the mangling property starts from.
fn seed_frames() -> Vec<String> {
    let config = quick_scale(7);
    let requests = [
        Request::Submit {
            config: config.clone(),
            profilers: vec![ProfilerKind::HarpA, ProfilerKind::Beep],
        },
        Request::Status { job: 1 },
        Request::List,
        Request::Watch { job: 2 },
        Request::Cancel { job: 3 },
        Request::Shutdown,
    ];
    let status = JobStatus {
        job: 5,
        state: "failed".to_owned(),
        round: 3,
        rounds: 10,
        message: Some("worker panicked".to_owned()),
    };
    let responses = [
        Response::Jobs {
            jobs: vec![status.clone()],
        },
        Response::Job(status),
        Response::Result {
            job: 5,
            sweep: run_coverage_sweep(
                &EvaluationConfig {
                    num_codes: 1,
                    words_per_code: 1,
                    rounds: 2,
                    error_counts: vec![2],
                    ..config
                },
                &[ProfilerKind::HarpU],
            ),
        },
    ];
    requests
        .iter()
        .map(|request| request.to_json())
        .chain(responses.iter().map(|response| response.to_json()))
        .map(|json| json.expect("test frames are finite").render())
        .collect()
}

proptest! {
    /// Frames cross a trust boundary in both directions: a mangled frame
    /// (cut short, one byte changed, or one byte dropped) either fails to
    /// parse or decodes to `Ok` or a typed error — neither decoder panics.
    #[test]
    fn mangled_frames_never_panic_the_decoders(
        seed in 0usize..64,
        at in 0u32..1000,
        byte in any::<u8>(),
        mangle in 0u8..3,
    ) {
        let frames = seed_frames();
        let mut bytes = frames[seed % frames.len()].clone().into_bytes();
        let index = (bytes.len() - 1) * at as usize / 1000;
        match mangle {
            0 => bytes.truncate(index),
            1 => bytes[index] = byte,
            _ => {
                bytes.remove(index);
            }
        }
        if let Ok(json) = Json::parse(&String::from_utf8_lossy(&bytes)) {
            let _ = Request::from_json(&json);
            let _ = Response::from_json(&json);
        }
    }
}
