//! Block-code layer of the HARP reproduction: the shared
//! [`LinearBlockCode`] abstraction and its SEC Hamming / SEC-DED
//! implementations.
//!
//! The HARP paper (MICRO 2021) studies how on-die ECC — a proprietary SEC
//! Hamming code inside the memory chip — changes the way raw (pre-correction)
//! bit errors appear to the memory controller (post-correction errors). Its
//! guarantees, however, hold for any systematic linear block code, and this
//! crate is organized around that fact:
//!
//! * [`block`] — the [`LinearBlockCode`] trait: systematic encoding,
//!   kernel-accelerated syndrome computation, bounded-distance decoding, and
//!   parity-check structure access. Everything downstream (`harp_memsim`,
//!   `harp_profiler`, `harp_beer`, `harp_sim`) is generic over this trait;
//! * [`HammingCode`] — systematic SEC Hamming codes, including the paper's
//!   `(71, 64)` and `(136, 128)` configurations and uniform-random
//!   parity-check matrix generation (the paper simulates thousands of random
//!   codes because real on-die ECC functions are proprietary);
//! * [`ExtendedHammingCode`] — SEC-DED extended Hamming codes, a third trait
//!   implementation that *detects* double errors instead of miscorrecting
//!   them (the DEC BCH implementation lives in `harp_bch`);
//! * [`decoder`] — the shared decode vocabulary ([`DecodeOutcome`] /
//!   [`DecodeResult`]) used by every code, with explicit modelling of
//!   corrections, *miscorrections* (indirect errors), and
//!   detected-uncorrectable patterns;
//! * [`analysis`] — exact, code-generic enumeration of the post-correction
//!   error space of a set of at-risk pre-correction bits, including the
//!   data-dependence ("chargeability") constraints the paper resolves with a
//!   SAT solver. Here the same sets are computed exactly with GF(2) linear
//!   algebra and exhaustive enumeration (the module doc gives the
//!   argument);
//! * [`secondary`] — the secondary ECC inside the memory controller used by
//!   HARP's reactive profiling phase.
//!
//! # Quickstart
//!
//! ```
//! use harp_ecc::{HammingCode, LinearBlockCode, decoder::DecodeOutcome};
//!
//! // A (71, 64) code representative of LPDDR4 on-die ECC.
//! let code = HammingCode::random(64, 0xC0FFEE)?;
//! let data = harp_gf2::BitVec::ones(64);
//! let mut stored = code.encode(&data);
//!
//! // A single raw bit error is always corrected.
//! stored.flip(17);
//! let decoded = code.decode(&stored);
//! assert_eq!(decoded.dataword, data);
//! assert_eq!(decoded.outcome, DecodeOutcome::corrected(17));
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

pub mod analysis;
pub mod block;
pub mod code;
pub mod decoder;
pub mod positions;
pub mod secded;
pub mod secondary;
pub mod word;

pub use analysis::ErrorSpace;
pub use block::LinearBlockCode;
pub use code::{CodeError, CodeShape, HammingCode};
pub use decoder::{DecodeOutcome, DecodeResult};
pub use positions::CorrectedPositions;
pub use secded::ExtendedHammingCode;
pub use secondary::{SecondaryEcc, SecondaryObservation};
pub use word::{BitClass, WordLayout};
