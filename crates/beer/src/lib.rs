//! BEER-style reverse engineering of on-die ECC for the HARP reproduction.
//!
//! The HARP paper's BEEP baseline and HARP-A variant both assume the on-die
//! ECC parity-check matrix is known, "potentially provided through
//! manufacturer support, datasheet information, or previously-proposed
//! reverse engineering techniques" — the latter being BEER (Patel et al.,
//! MICRO 2020). This crate implements that prerequisite so the repository is
//! self-contained: it recovers what BEEP actually consumes from a black-box
//! memory chip, without any bypass path or manufacturer documentation.
//!
//! Two artefacts are recovered:
//!
//! * the [`MiscorrectionProfile`] — for every pair of data-bit positions, the
//!   data-bit position (if any) that the on-die ECC decoder miscorrects when
//!   exactly that pair of raw errors occurs. This is the *data-visible*
//!   signature of the parity-check matrix and is exactly the information the
//!   BEEP profiler and HARP-A's indirect-error precomputation need;
//! * its family-generic superset, the [`VisibleErrorProfile`] — decoder
//!   status flags and weight-3 pattern responses in addition to the pairwise
//!   miscorrections. A SEC-DED code detects every data-bit pair (the
//!   pairwise profile carries zero information about it), so its columns are
//!   only visible through these richer observables;
//! * optionally, a concrete *equivalent* systematic parity-check matrix
//!   reconstructed from the profile ([`reconstruct`]): a code that produces
//!   the same data-visible decode behaviour even though the true proprietary
//!   column arrangement remains unknowable from outside the chip. The search
//!   is dispatched over a [`CodeFamily`] — SEC Hamming
//!   ([`reconstruct_equivalent_code`], pairs suffice) or SEC-DED extended
//!   Hamming ([`reconstruct_code`], which consumes the richer profile).
//!
//! The original BEER work hands the consistency problem to the Z3 SAT
//! solver. Here the same constraints are expressed as GF(2) linear equations
//! over the unknown columns plus distinctness side conditions, solved exactly
//! (ROADMAP.md's Architecture section, "Reconstruction constraint system",
//! walks through the pipeline).
//!
//! # Example
//!
//! ```
//! use harp_beer::{BeerCampaign, MiscorrectionProfile};
//! use harp_ecc::HammingCode;
//!
//! // A black-box chip with an unknown (to us) on-die ECC code.
//! let secret_code = HammingCode::random(16, 99)?;
//!
//! // Run the pair-charged test campaign against the chip.
//! let campaign = BeerCampaign::new(16);
//! let profile = campaign.extract_profile(&secret_code);
//!
//! // The recovered profile matches the ground truth computed from H.
//! assert_eq!(profile, MiscorrectionProfile::from_code(&secret_code));
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

pub mod campaign;
pub mod profile;
pub mod reconstruct;

pub use campaign::BeerCampaign;
pub use profile::{DecodeFlag, MiscorrectionProfile, PatternResponse, VisibleErrorProfile};
pub use reconstruct::{
    data_visible_equivalent, reconstruct_code, reconstruct_equivalent_code, CodeFamily,
    ReconstructError, ReconstructedCode,
};
