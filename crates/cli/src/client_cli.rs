//! The `harpd` client subcommands: `harp submit`, `harp watch`, `harp jobs`,
//! `harp cancel`, `harp shutdown`.
//!
//! Each talks the wire protocol documented in ROADMAP.md to a running
//! `harpd serve` instance (default address
//! [`harp_server::daemon::DEFAULT_ADDR`]).

use harp_profiler::ProfilerKind;
use harp_server::client::{Client, WatchOutcome};
use harp_server::daemon::DEFAULT_ADDR;
use harp_server::proto::Snapshot;
use harp_server::transport::TcpTransport;
use harp_sim::experiments::fig6;
use harp_sim::EvaluationConfig;

/// Options shared by every client subcommand plus the submit knobs.
#[derive(Debug, Clone, PartialEq)]
struct ClientOptions {
    addr: String,
    job: Option<u64>,
    full: bool,
    long_code: bool,
    rounds: Option<usize>,
    codes: Option<usize>,
    words: Option<usize>,
    profilers: Option<Vec<ProfilerKind>>,
}

fn parse_client_args(args: &[String]) -> Result<ClientOptions, String> {
    let mut options = ClientOptions {
        addr: DEFAULT_ADDR.to_owned(),
        job: None,
        full: false,
        long_code: false,
        rounds: None,
        codes: None,
        words: None,
        profilers: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--addr" => options.addr = value()?.clone(),
            "--full" => options.full = true,
            "--long-code" => options.long_code = true,
            "--rounds" => options.rounds = Some(parse_count("--rounds", value()?)?),
            "--codes" => options.codes = Some(parse_count("--codes", value()?)?),
            "--words" => options.words = Some(parse_count("--words", value()?)?),
            "--profilers" => {
                options.profilers = Some(
                    value()?
                        .split(',')
                        .map(|name| {
                            ProfilerKind::from_name(name)
                                .ok_or_else(|| format!("unknown profiler '{name}'"))
                        })
                        .collect::<Result<_, String>>()?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            name => {
                if options.job.is_some() {
                    return Err(format!("unexpected extra argument: {name}"));
                }
                options.job = Some(
                    name.parse()
                        .map_err(|_| format!("'{name}' is not a job id"))?,
                );
            }
        }
    }
    Ok(options)
}

fn parse_count(flag: &str, text: &str) -> Result<usize, String> {
    let count: usize = text
        .parse()
        .map_err(|_| format!("{flag}: '{text}' is not a count"))?;
    if count == 0 {
        return Err(format!("{flag} must be nonzero"));
    }
    Ok(count)
}

fn submit_config(options: &ClientOptions) -> EvaluationConfig {
    let mut config = if options.full {
        EvaluationConfig::paper_scale()
    } else {
        EvaluationConfig::quick()
    };
    if options.long_code {
        config = config.with_long_code();
    }
    if let Some(rounds) = options.rounds {
        config.rounds = rounds;
    }
    if let Some(codes) = options.codes {
        config.num_codes = codes;
    }
    if let Some(words) = options.words {
        config.words_per_code = words;
    }
    config
}

fn connect(options: &ClientOptions) -> Result<Client<TcpTransport>, String> {
    Client::connect(&options.addr)
}

fn require_job(options: &ClientOptions, verb: &str) -> Result<u64, String> {
    options
        .job
        .ok_or_else(|| format!("harp {verb} needs a job id (from `harp submit` or `harp jobs`)"))
}

/// `harp submit`: submit a sweep job and print its id.
///
/// # Errors
///
/// Returns argument, connection, and daemon-side failures as user-facing
/// messages.
pub fn run_submit(args: &[String]) -> Result<(), String> {
    let options = parse_client_args(args)?;
    if options.job.is_some() {
        return Err("harp submit takes no job id".to_owned());
    }
    let profilers = options
        .profilers
        .clone()
        .unwrap_or_else(|| fig6::PROFILERS.to_vec());
    let config = submit_config(&options);
    let job = connect(&options)?.submit(&config, &profilers)?;
    println!(
        "submitted job {job}: {} codes x {} words, {} rounds, profilers [{}]",
        config.num_codes,
        config.words_per_code,
        config.rounds,
        profilers
            .iter()
            .map(|kind| kind.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("follow it with: harp watch {job} --addr {}", options.addr);
    Ok(())
}

fn render_snapshot(snapshot: &Snapshot) -> String {
    let coverage = snapshot
        .coverage
        .iter()
        .map(|entry| {
            format!(
                "{} {:5.1}%",
                entry.profiler,
                entry.mean_direct_coverage * 100.0
            )
        })
        .collect::<Vec<_>>()
        .join("  ");
    format!(
        "job {} round {:>4}/{}: {coverage}",
        snapshot.job, snapshot.round, snapshot.rounds
    )
}

/// `harp watch JOB`: stream a job's round-by-round coverage to stdout until
/// it ends.
///
/// # Errors
///
/// Returns argument, connection, and daemon-side failures, and reports
/// cancelled/failed jobs as errors.
pub fn run_watch(args: &[String]) -> Result<(), String> {
    let options = parse_client_args(args)?;
    let job = require_job(&options, "watch")?;
    let outcome = connect(&options)?.watch(job, |snapshot| {
        println!("{}", render_snapshot(snapshot));
    })?;
    match outcome {
        WatchOutcome::Completed(sweep) => {
            println!(
                "job {job} done: {} rounds, {} word evaluations",
                sweep.rounds,
                sweep.evaluations.len()
            );
            Ok(())
        }
        WatchOutcome::Ended(status) => Err(match status.message {
            Some(message) => format!("job {job} {}: {message}", status.state),
            None => format!("job {job} {}", status.state),
        }),
    }
}

/// `harp jobs`: list every job the daemon knows.
///
/// # Errors
///
/// Returns argument and connection failures.
pub fn run_jobs(args: &[String]) -> Result<(), String> {
    let options = parse_client_args(args)?;
    if options.job.is_some() {
        return Err("harp jobs takes no job id".to_owned());
    }
    let jobs = connect(&options)?.jobs()?;
    if jobs.is_empty() {
        println!("no jobs");
        return Ok(());
    }
    for status in jobs {
        let message = status
            .message
            .map(|m| format!("  ({m})"))
            .unwrap_or_default();
        println!(
            "job {:>3}  {:<9}  round {:>4}/{}{message}",
            status.job, status.state, status.round, status.rounds
        );
    }
    Ok(())
}

/// `harp cancel JOB`: request cancellation and print the job's state.
///
/// # Errors
///
/// Returns argument, connection, and daemon-side failures.
pub fn run_cancel(args: &[String]) -> Result<(), String> {
    let options = parse_client_args(args)?;
    let job = require_job(&options, "cancel")?;
    let status = connect(&options)?.cancel(job)?;
    println!("job {job} is now {}", status.state);
    Ok(())
}

/// `harp shutdown`: checkpoint running jobs and stop the daemon.
///
/// # Errors
///
/// Returns argument and connection failures.
pub fn run_shutdown(args: &[String]) -> Result<(), String> {
    let options = parse_client_args(args)?;
    if options.job.is_some() {
        return Err("harp shutdown takes no job id".to_owned());
    }
    connect(&options)?.shutdown()?;
    println!("daemon at {} is shutting down", options.addr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_server::daemon::{Daemon, DaemonConfig};
    use std::net::TcpListener;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_submit_knobs_and_rejects_bad_input() {
        let options = parse_client_args(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--rounds",
            "4",
            "--profilers",
            "HARP-U,Naive",
        ]))
        .unwrap();
        assert_eq!(options.addr, "127.0.0.1:9");
        assert_eq!(options.rounds, Some(4));
        assert_eq!(
            options.profilers,
            Some(vec![ProfilerKind::HarpU, ProfilerKind::Naive])
        );

        assert!(parse_client_args(&args(&["--bogus"])).is_err());
        assert!(parse_client_args(&args(&["--rounds", "0"])).is_err());
        assert!(parse_client_args(&args(&["--profilers", "NOPE"])).is_err());
        assert!(parse_client_args(&args(&["7", "8"])).is_err());
        assert!(parse_client_args(&args(&["sevenish"])).is_err());
        assert!(run_watch(&args(&["--addr", "127.0.0.1:9"]))
            .unwrap_err()
            .contains("job id"));
    }

    #[test]
    fn submit_watch_jobs_and_shutdown_round_trip_over_tcp() {
        let dir = std::env::temp_dir().join(format!("harp_client_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let daemon = daemon.clone();
            std::thread::spawn(move || daemon.serve(listener).unwrap())
        };

        let base = ["--addr", addr.as_str()];
        let tiny = [
            "--addr",
            &addr,
            "--rounds",
            "4",
            "--codes",
            "1",
            "--words",
            "2",
            "--profilers",
            "HARP-U",
        ];
        run_submit(&args(&tiny)).unwrap();
        run_jobs(&args(&base)).unwrap();
        run_watch(&args(&["0", "--addr", &addr])).unwrap();
        assert!(run_watch(&args(&["99", "--addr", &addr]))
            .unwrap_err()
            .contains("no job 99"));
        run_shutdown(&args(&base)).unwrap();
        server.join().unwrap();
        daemon.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
