//! `harpd` — the persistent profiling daemon.
//!
//! The paper's profiling campaigns are batch jobs, but the reproduction's
//! north star is a production service: a memory controller (or its test
//! harness) submits profiling work continuously and consumes coverage
//! results as they stream in. This crate turns the checkpointed sweep layer
//! of [`harp_sim::checkpoint`] into exactly that service:
//!
//! * [`daemon::Daemon`] owns a pool of worker threads, each advancing one
//!   [`harp_sim::checkpoint::ResumableSweep`] at a time, round by round.
//!   Every job lives in its own schema-versioned checkpoint archive — the
//!   same format `harp sweep --checkpoint-dir` writes — so a `kill -9`'d
//!   daemon resumes its jobs from disk on restart, and a completed job's
//!   result is byte-identical to the single-process `harp sweep` run
//!   (`tests/server_protocol.rs` locks both properties down).
//! * [`transport`] is a hand-rolled length-prefixed JSON wire protocol over
//!   `std::net::TcpStream` (the container is vendored-only;
//!   [`harp_sim::minijson`] is the codec — its depth budget and
//!   duplicate-key rejection are what make untrusted daemon-socket bytes
//!   safe to parse). [`transport::duplex`] is the deterministic in-process
//!   twin, so the protocol suite runs without real sockets — the same
//!   scalar-reference safety pattern the hot-path kernels use.
//! * [`proto`] defines the request/response frames as the
//!   [`proto::Request`] and [`proto::Response`] types, encoded through the
//!   workspace's one JSON codec, [`harp_sim::minijson::JsonCodec`]: submit a
//!   sweep configuration, stream round-by-round coverage snapshots, query,
//!   cancel, and shut down. See ROADMAP.md for the wire-protocol and
//!   job-lifecycle documentation.
//! * [`client`] is the blocking client used by the `harp submit` / `harp
//!   watch` / `harp jobs` / `harp shutdown` subcommands.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod transport;
