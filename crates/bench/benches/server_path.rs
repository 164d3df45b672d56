//! Benchmarks the `harpd` serving path over the deterministic in-process
//! transport: what the daemon adds on top of the sweep engine itself.
//!
//! * `server_path/submit_to_first_snapshot` — the interactive latency a
//!   submitter sees: frame a submit request, durably persist the round-0
//!   archive and job record, get the id back, open a watch, and receive the
//!   first coverage snapshot from the worker pool.
//! * `server_path/complete_4_tiny_jobs` — end-to-end job throughput: four
//!   tiny sweeps submitted back-to-back and all watched to their terminal
//!   result frames through the two-worker pool.
//!
//! Exported to `BENCH_server_path.json` by `harp bench-export` (see
//! BENCHMARKS.md); both numbers include the durable fsync-ordered archive
//! writes, so they track the cost of the crash-durability guarantee too.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use harp_profiler::ProfilerKind;
use harp_server::client::Client;
use harp_server::daemon::{Daemon, DaemonConfig};
use harp_server::proto::{Request, Response};
use harp_server::transport::{duplex, FrameTransport};
use harp_sim::minijson::JsonCodec;
use harp_sim::EvaluationConfig;

/// A deliberately tiny job: the serving overhead, not the sweep, dominates.
fn tiny_config() -> EvaluationConfig {
    EvaluationConfig {
        data_bits: 16,
        num_codes: 1,
        words_per_code: 2,
        rounds: 2,
        error_counts: vec![2],
        probabilities: vec![0.5],
        threads: 1,
        ..EvaluationConfig::quick()
    }
}

const PROFILERS: [ProfilerKind; 1] = [ProfilerKind::HarpU];

fn connect(daemon: &Daemon) -> Client<harp_server::transport::PairTransport> {
    let (client_end, server_end) = duplex();
    let handler = daemon.clone();
    std::thread::spawn(move || handler.handle(server_end));
    Client::new(client_end)
}

/// One submit → first-snapshot round trip over the raw frame transport.
fn submit_to_first_snapshot(daemon: &Daemon, config: &EvaluationConfig) -> usize {
    let (mut raw, server_end) = duplex();
    let handler = daemon.clone();
    std::thread::spawn(move || handler.handle(server_end));
    let submit = Request::Submit {
        config: config.clone(),
        profilers: PROFILERS.to_vec(),
    };
    raw.send(&submit.to_json().expect("finite config"))
        .expect("submit frame");
    let submitted = raw.recv().expect("recv").expect("submitted frame");
    let Ok(Response::Submitted { job }) = Response::from_json(&submitted) else {
        panic!("expected a submitted frame: {}", submitted.render());
    };
    raw.send(&Request::Watch { job }.to_json().expect("no floats"))
        .expect("watch frame");
    let first = raw.recv().expect("recv").expect("first snapshot");
    assert!(matches!(
        Response::from_json(&first),
        Ok(Response::Snapshot(_))
    ));
    // Dropping the transport mid-watch ends the handler thread cleanly.
    first.render().len()
}

fn bench_server_path(c: &mut Criterion) {
    let state_dir = std::env::temp_dir().join(format!("harp_bench_server_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let daemon = Daemon::start(DaemonConfig::new(&state_dir)).expect("daemon starts");
    let config = tiny_config();

    let mut group = c.benchmark_group("server_path");
    group.bench_function("submit_to_first_snapshot", |b| {
        b.iter(|| black_box(submit_to_first_snapshot(&daemon, &config)))
    });
    group.bench_function("complete_4_tiny_jobs", |b| {
        b.iter(|| {
            let mut client = connect(&daemon);
            let jobs: Vec<u64> = (0..4)
                .map(|_| client.submit(&config, &PROFILERS).expect("submit"))
                .collect();
            let mut total_frames = 0usize;
            for job in jobs {
                client
                    .watch(job, |_| total_frames += 1)
                    .expect("watch to completion");
            }
            black_box(total_frames)
        })
    });
    group.finish();

    connect(&daemon).shutdown().expect("shutdown");
    daemon.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_server_path
);
criterion_main!(benches);
