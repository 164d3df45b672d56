//! Blocking client for the `harpd` protocol.
//!
//! One [`Client`] wraps one transport; every method sends a single request
//! and decodes the daemon's answer, turning `error` frames into `Err`
//! strings. [`Client::watch`] streams snapshot frames through a callback
//! until the job reaches a terminal state.

use std::net::TcpStream;
use std::time::Duration;

use harp_profiler::ProfilerKind;
use harp_sim::experiments::sweep::CoverageSweep;
use harp_sim::minijson::JsonCodec;
use harp_sim::EvaluationConfig;

use crate::proto::{JobStatus, Request, Response, Snapshot};
use crate::transport::{FrameTransport, TcpTransport};

/// How a watched job ended.
#[derive(Debug, Clone)]
pub enum WatchOutcome {
    /// The job completed; this is its full sweep result.
    Completed(CoverageSweep),
    /// The job ended without a result (cancelled or failed).
    Ended(JobStatus),
}

/// A blocking `harpd` client over any frame transport.
pub struct Client<T: FrameTransport> {
    transport: T,
}

impl Client<TcpTransport> {
    /// Connects to a daemon over TCP.
    ///
    /// # Errors
    ///
    /// Returns a description of any resolution or connection failure.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // Watch streams are round-paced; a generous timeout distinguishes a
        // hung daemon from a slow round without stalling forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .map_err(|e| e.to_string())?;
        let transport = TcpTransport::new(stream).map_err(|e| e.to_string())?;
        Ok(Self::new(transport))
    }
}

impl<T: FrameTransport> Client<T> {
    /// Wraps an already-connected transport (the in-process twin in tests).
    pub fn new(transport: T) -> Self {
        Self { transport }
    }

    /// Receives and decodes the daemon's next frame, with `error` frames
    /// already turned into `Err`.
    fn recv(&mut self) -> Result<Response, String> {
        let frame = match self.transport.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err("daemon closed the connection".to_owned()),
            Err(err) => return Err(err.to_string()),
        };
        match Response::from_json(&frame).map_err(|e| e.to_string())? {
            Response::Error { message } => Err(message),
            response => Ok(response),
        }
    }

    /// Sends one request and returns the daemon's answer.
    fn request(&mut self, request: &Request) -> Result<Response, String> {
        let frame = request.to_json().map_err(|e| e.to_string())?;
        self.transport.send(&frame).map_err(|e| e.to_string())?;
        self.recv()
    }

    /// Submits a sweep job; returns its id once the daemon has it durably on
    /// disk.
    ///
    /// # Errors
    ///
    /// Returns transport failures and daemon-side rejections (unusable
    /// configuration, empty profiler lineup).
    pub fn submit(
        &mut self,
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
    ) -> Result<u64, String> {
        match self.request(&Request::Submit {
            config: config.clone(),
            profilers: profilers.to_vec(),
        })? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected("submitted", &other)),
        }
    }

    /// Fetches one job's status.
    ///
    /// # Errors
    ///
    /// Returns transport failures and `no job <id>` rejections.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, String> {
        job_status(self.request(&Request::Status { job })?)
    }

    /// Lists every job the daemon knows, oldest first.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>, String> {
        match self.request(&Request::List)? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Err(unexpected("jobs", &other)),
        }
    }

    /// Requests cancellation and returns the job's status at that moment (a
    /// running job transitions once its worker observes the request).
    ///
    /// # Errors
    ///
    /// Returns transport failures and `no job <id>` rejections.
    pub fn cancel(&mut self, job: u64) -> Result<JobStatus, String> {
        job_status(self.request(&Request::Cancel { job })?)
    }

    /// Streams the job's coverage snapshots into `on_snapshot` until the job
    /// ends, then returns how it ended.
    ///
    /// # Errors
    ///
    /// Returns transport failures, daemon-side rejections, and undecodable
    /// result frames.
    pub fn watch<F: FnMut(&Snapshot)>(
        &mut self,
        job: u64,
        mut on_snapshot: F,
    ) -> Result<WatchOutcome, String> {
        let mut response = self.request(&Request::Watch { job })?;
        loop {
            match response {
                Response::Snapshot(snapshot) => on_snapshot(&snapshot),
                Response::Result { sweep, .. } => return Ok(WatchOutcome::Completed(sweep)),
                Response::Job(status) => return Ok(WatchOutcome::Ended(status)),
                other => return Err(unexpected("snapshot", &other)),
            }
            response = self.recv()?;
        }
    }

    /// Asks the daemon to checkpoint running jobs and stop.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("ok", &other)),
        }
    }
}

fn job_status(response: Response) -> Result<JobStatus, String> {
    match response {
        Response::Job(status) => Ok(status),
        other => Err(unexpected("job", &other)),
    }
}

fn unexpected(expected: &str, got: &Response) -> String {
    format!("expected a '{expected}' frame, got: {got:?}")
}
