//! Error-profiling algorithms for memory chips with on-die ECC — the HARP
//! paper's contribution (HARP-U / HARP-A) and the baselines it is evaluated
//! against (Naive and BEEP).
//!
//! A profiler's job is to populate the repair mechanism's error profile with
//! every bit at risk of post-correction error. The paper distinguishes:
//!
//! * **active profiling** — dedicated round-based testing before the system
//!   enters service. Each round writes a data pattern, lets errors develop,
//!   reads the word back, and records what it can observe. The profilers in
//!   this crate differ in *which* observation they use (post-correction data
//!   only, raw data via the on-die-ECC bypass path, knowledge of the
//!   parity-check matrix) and in *which* data pattern they write;
//! * **reactive profiling** — continuous monitoring during normal operation
//!   by a secondary ECC in the memory controller, identifying the remaining
//!   at-risk bits the first time they fail ([`reactive::ReactiveProfiler`]).
//!
//! The whole crate is generic over the on-die ECC code: profilers that need
//! the code structure ([`HarpAProfiler`], [`HarpABeepProfiler`]) and the
//! campaign driver are parameterized by
//! [`harp_ecc::LinearBlockCode`], so the identical lineup runs against SEC
//! Hamming, SEC-DED, and DEC BCH words — there is exactly one implementation
//! of each algorithm.
//!
//! [`campaign::ProfilingCampaign`] drives a profiler against a single ECC
//! word for a configurable number of rounds and records per-round snapshots;
//! [`batch::CampaignBatch`] drives a whole sweep cell of words sharing one
//! code, scrubbing all of them with a single multi-word burst per round while
//! producing snapshots bit-identical to the per-word path; [`coverage`]
//! scores each round against the exact ground truth from
//! [`harp_ecc::ErrorSpace`], as the round is produced or after the fact
//! from a snapshot history.
//!
//! # Example
//!
//! ```
//! use harp_ecc::HammingCode;
//! use harp_memsim::{FaultModel, pattern::DataPattern};
//! use harp_profiler::{campaign::ProfilingCampaign, ProfilerKind};
//!
//! let code = HammingCode::random(64, 3)?;
//! // Two at-risk data bits that fail 50% of the time when charged.
//! let faults = FaultModel::uniform(&[5, 9], 0.5);
//!
//! let campaign = ProfilingCampaign::new(code, faults, DataPattern::Random, 0xFEED);
//! let result = campaign.run(ProfilerKind::HarpU, 32);
//! // HARP-U reads raw data bits, so it identifies both direct-error bits.
//! assert!(result.final_identified().contains(&5));
//! assert!(result.final_identified().contains(&9));
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

pub mod batch;
pub mod beep;
pub mod campaign;
pub mod checkpoint;
pub mod coverage;
pub mod harp;
pub mod naive;
pub mod reactive;
pub mod syndrome;
pub mod traits;

pub use batch::{BatchWord, CampaignBatch};
pub use beep::BeepProfiler;
pub use campaign::{CampaignResult, ProfilingCampaign, RoundSnapshot};
pub use checkpoint::{BatchRun, CampaignCheckpoint, ProfilerState, RngPosition, WordCheckpoint};
pub use coverage::CoverageSeries;
pub use harp::{HarpABeepProfiler, HarpAProfiler, HarpUProfiler};
pub use naive::NaiveProfiler;
pub use reactive::ReactiveProfiler;
pub use syndrome::HarpSProfiler;
pub use traits::{Profiler, ProfilerKind};
