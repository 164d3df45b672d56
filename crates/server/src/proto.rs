//! The `harpd` request/response frames.
//!
//! Every frame is a JSON object with a `"type"` discriminant. Requests flow
//! client → daemon; the daemon answers each request with exactly one frame,
//! except `watch`, which streams `snapshot` frames followed by one terminal
//! `result` or `job` frame. The full protocol and job lifecycle are
//! documented in ROADMAP.md. Both directions go through the one JSON codec,
//! [`JsonCodec`]: [`Request`] and [`Response`] embed the checkpoint layer's
//! own records, so a result frame carries the same bytes a single-process
//! sweep would persist.

use harp_profiler::ProfilerKind;
use harp_sim::experiments::sweep::CoverageSweep;
use harp_sim::json_record;
use harp_sim::minijson::{field, DecodeError, Json, JsonCodec, NonFiniteFloat};
use harp_sim::EvaluationConfig;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep job; answered with a `submitted` frame carrying the
    /// job id once the job is durably on disk.
    Submit {
        /// The sweep configuration to evaluate.
        config: EvaluationConfig,
        /// Profiler lineup, in evaluation order.
        profilers: Vec<ProfilerKind>,
    },
    /// One `job` status frame for the given job.
    Status {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// A `jobs` frame listing every job the daemon knows.
    List,
    /// Stream `snapshot` frames for the job from round 0, then the terminal
    /// `result` (completed) or `job` (cancelled/failed) frame.
    Watch {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// Request cancellation; answered with a `job` frame.
    Cancel {
        /// Job id from a `submitted` frame.
        job: u64,
    },
    /// Checkpoint running jobs and stop the daemon; answered with an `ok`
    /// frame before the daemon winds down.
    Shutdown,
}

/// A daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job is durably on disk under this id.
    Submitted {
        /// The new job's id.
        job: u64,
    },
    /// One job's status.
    Job(JobStatus),
    /// Every job the daemon knows, oldest first.
    Jobs {
        /// One status per job.
        jobs: Vec<JobStatus>,
    },
    /// One round's coverage while a job runs.
    Snapshot(Snapshot),
    /// A completed job's sweep.
    Result {
        /// The job id.
        job: u64,
        /// The full sweep result.
        sweep: CoverageSweep,
    },
    /// Acknowledges a `shutdown`.
    Ok,
    /// A request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// One job's status as reported by a `job` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// Lifecycle state: `pending`, `running`, `done`, `cancelled`, `failed`.
    pub state: String,
    /// Completed rounds.
    pub round: usize,
    /// Configured rounds.
    pub rounds: usize,
    /// Failure description, for `failed` jobs.
    pub message: Option<String>,
}

/// One round's coverage snapshot from a `snapshot` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The job id.
    pub job: u64,
    /// Completed rounds at this snapshot.
    pub round: usize,
    /// Configured rounds.
    pub rounds: usize,
    /// Per-profiler mean direct coverage, in lineup order.
    pub coverage: Vec<ProfilerCoverage>,
}

/// One profiler's entry in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerCoverage {
    /// The profiler.
    pub profiler: ProfilerKind,
    /// Mean direct coverage across the job's words.
    pub mean_direct_coverage: f64,
}

json_record!(JobStatus as "type": "job" { job, state, round, rounds } optional { message });
json_record!(Snapshot as "type": "snapshot" { job, round, rounds, coverage });
json_record!(ProfilerCoverage {
    profiler,
    mean_direct_coverage
});

/// A frame object: the `"type"` discriminant, then the variant's fields.
fn tagged(kind: &str, fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        std::iter::once(("type".to_owned(), Json::from(kind)))
            .chain(
                fields
                    .into_iter()
                    .map(|(key, value)| (key.to_owned(), value)),
            )
            .collect(),
    )
}

fn unknown_type(kind: &str, what: &str) -> DecodeError {
    DecodeError::new(format!("unknown {what} type '{kind}'")).at_key("type")
}

impl JsonCodec for Request {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(match self {
            Request::Submit { config, profilers } => tagged(
                "submit",
                vec![
                    ("config", config.to_json()?),
                    ("profilers", profilers.to_json()?),
                ],
            ),
            Request::Status { job } => tagged("status", vec![("job", job.to_json()?)]),
            Request::List => tagged("list", vec![]),
            Request::Watch { job } => tagged("watch", vec![("job", job.to_json()?)]),
            Request::Cancel { job } => tagged("cancel", vec![("job", job.to_json()?)]),
            Request::Shutdown => tagged("shutdown", vec![]),
        })
    }

    /// Decodes a request frame from untrusted bytes; an empty profiler
    /// lineup is rejected along with every malformed field.
    fn from_json(frame: &Json) -> Result<Self, DecodeError> {
        let job = || field(frame, "job");
        Ok(match field::<String>(frame, "type")?.as_str() {
            "submit" => {
                let config = field(frame, "config")?;
                let profilers: Vec<ProfilerKind> = field(frame, "profilers")?;
                if profilers.is_empty() {
                    return Err(DecodeError::new("profiler lineup is empty").at_key("profilers"));
                }
                Request::Submit { config, profilers }
            }
            "status" => Request::Status { job: job()? },
            "list" => Request::List,
            "watch" => Request::Watch { job: job()? },
            "cancel" => Request::Cancel { job: job()? },
            "shutdown" => Request::Shutdown,
            other => return Err(unknown_type(other, "request")),
        })
    }
}

impl JsonCodec for Response {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(match self {
            Response::Submitted { job } => tagged("submitted", vec![("job", job.to_json()?)]),
            Response::Job(status) => status.to_json()?,
            Response::Jobs { jobs } => tagged("jobs", vec![("jobs", jobs.to_json()?)]),
            Response::Snapshot(snapshot) => snapshot.to_json()?,
            Response::Result { job, sweep } => tagged(
                "result",
                vec![("job", job.to_json()?), ("sweep", sweep.to_json()?)],
            ),
            Response::Ok => tagged("ok", vec![]),
            Response::Error { message } => tagged("error", vec![("message", message.to_json()?)]),
        })
    }

    fn from_json(frame: &Json) -> Result<Self, DecodeError> {
        Ok(match field::<String>(frame, "type")?.as_str() {
            "submitted" => Response::Submitted {
                job: field(frame, "job")?,
            },
            "job" => Response::Job(JobStatus::from_json(frame)?),
            "jobs" => Response::Jobs {
                jobs: field(frame, "jobs")?,
            },
            "snapshot" => Response::Snapshot(Snapshot::from_json(frame)?),
            "result" => Response::Result {
                job: field(frame, "job")?,
                sweep: field(frame, "sweep")?,
            },
            "ok" => Response::Ok,
            "error" => Response::Error {
                message: field(frame, "message")?,
            },
            other => return Err(unknown_type(other, "frame")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let requests = [
            Request::Submit {
                config: EvaluationConfig::smoke(),
                profilers: vec![ProfilerKind::HarpU, ProfilerKind::Naive],
            },
            Request::Status { job: 7 },
            Request::List,
            Request::Watch { job: 0 },
            Request::Cancel { job: 3 },
            Request::Shutdown,
        ];
        for request in requests {
            let rendered = request.to_json().unwrap().render();
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(
                Request::from_json(&reparsed).unwrap(),
                request,
                "{rendered}"
            );
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let status = JobStatus {
            job: 3,
            state: "failed".to_owned(),
            round: 2,
            rounds: 8,
            message: Some("worker panicked".to_owned()),
        };
        let responses = [
            Response::Submitted { job: 4 },
            Response::Job(status.clone()),
            Response::Jobs {
                jobs: vec![
                    JobStatus {
                        message: None,
                        ..status.clone()
                    },
                    status,
                ],
            },
            Response::Snapshot(Snapshot {
                job: 4,
                round: 1,
                rounds: 8,
                coverage: vec![ProfilerCoverage {
                    profiler: ProfilerKind::HarpABeep,
                    mean_direct_coverage: 0.25,
                }],
            }),
            Response::Result {
                job: 4,
                sweep: CoverageSweep {
                    rounds: 8,
                    error_counts: vec![2],
                    probabilities: vec![0.5],
                    profilers: vec![ProfilerKind::Naive],
                    evaluations: Vec::new(),
                },
            },
            Response::Ok,
            Response::Error {
                message: "no job 9".to_owned(),
            },
        ];
        for response in responses {
            let rendered = response.to_json().unwrap().render();
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(
                Response::from_json(&reparsed).unwrap(),
                response,
                "{rendered}"
            );
        }
        let err = Response::from_json(&Json::parse(r#"{"type":"hello"}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown frame type"), "{err}");
    }

    #[test]
    fn malformed_requests_are_described_not_panicked_on() {
        for (text, needle) in [
            (r#"{"job":1}"#, "missing key 'type'"),
            (r#"{"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"type":"watch"}"#, "missing key 'job'"),
            (r#"{"type":"submit"}"#, "missing key 'config'"),
            (
                r#"{"type":"cancel","job":"x"}"#,
                "job: expected a u64, found a string",
            ),
            ("[]", "expected an object"),
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn submit_rejects_unusable_configs_and_lineups() {
        let mut bad_config = EvaluationConfig::smoke();
        bad_config.rounds = 0;
        let frame = Request::Submit {
            config: bad_config,
            profilers: vec![ProfilerKind::HarpU],
        }
        .to_json()
        .unwrap();
        let err = Request::from_json(&frame).unwrap_err();
        assert!(err.to_string().contains("rounds"), "{err}");

        let frame = Json::parse(
            &Request::Submit {
                config: EvaluationConfig::smoke(),
                profilers: vec![ProfilerKind::HarpU],
            }
            .to_json()
            .unwrap()
            .render()
            .replace("[\"HARP-U\"]", "[]"),
        )
        .unwrap();
        let err = Request::from_json(&frame).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }
}
