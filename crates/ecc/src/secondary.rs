//! The secondary ECC inside the memory controller.
//!
//! HARP's reactive profiling phase (§6.3 of the paper) relies on a secondary
//! ECC whose correction capability is at least as high as the number of
//! indirect errors on-die ECC can introduce at once (one, for SEC on-die
//! ECC). The secondary ECC's job during reactive profiling is to *safely*
//! identify at-risk bits the first time they fail: every error it observes is
//! corrected and recorded into the repair mechanism's error profile.
//!
//! Two models are provided:
//!
//! * [`SecondaryEcc::ideal`] — an abstract code of configurable correction
//!   capability `t` (used for the paper's evaluations and the §6.3.2
//!   strength-ablation);
//! * [`SecondaryEcc::hamming_for`] — a concrete SEC Hamming code laid over the
//!   on-die-ECC dataword, demonstrating a realizable implementation.

use serde::{Deserialize, Serialize};

use harp_gf2::BitVec;

use crate::block::LinearBlockCode;
use crate::code::{CodeError, HammingCode};

/// What the secondary ECC observed for one read during reactive profiling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecondaryObservation {
    /// No post-correction error was present.
    Clean,
    /// The secondary ECC detected and corrected the error(s) and identified
    /// the listed dataword positions as at risk.
    Identified {
        /// Dataword positions identified as at risk (and corrected).
        positions: Vec<usize>,
    },
    /// The number of simultaneous errors exceeded the secondary ECC's
    /// correction capability: the error escapes to the rest of the system.
    Unsafe {
        /// Dataword positions that were actually in error.
        residual_errors: Vec<usize>,
    },
}

impl SecondaryObservation {
    /// Returns `true` if the observation was handled safely (clean or
    /// identified).
    pub fn is_safe(&self) -> bool {
        !matches!(self, SecondaryObservation::Unsafe { .. })
    }
}

/// A secondary error-correcting code within the memory controller.
///
/// # Example
///
/// ```
/// use harp_ecc::{SecondaryEcc, SecondaryObservation};
/// use harp_gf2::BitVec;
///
/// let secondary = SecondaryEcc::ideal(1);
/// let written = BitVec::ones(64);
/// let mut observed = written.clone();
/// observed.flip(13);
/// match secondary.observe(&written, &observed) {
///     SecondaryObservation::Identified { positions } => assert_eq!(positions, vec![13]),
///     other => panic!("expected identification, got {other:?}"),
/// }
/// ```
// The `Hamming` variant embeds a full `HammingCode` (parity matrix plus its
// precomputed syndrome kernel). The size gap to `Ideal` is irrelevant here:
// a controller holds exactly one `SecondaryEcc` for its lifetime, so boxing
// the code would buy nothing and cost every caller an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecondaryEcc {
    /// An idealized code that corrects (and identifies) up to `capability`
    /// simultaneous errors per on-die-ECC word.
    Ideal {
        /// Maximum number of simultaneous errors handled safely.
        capability: usize,
    },
    /// A concrete systematic SEC Hamming code over the on-die-ECC dataword.
    /// Its parity bits live in the memory controller (assumed reliable).
    Hamming {
        /// The controller-side code.
        code: HammingCode,
    },
}

impl SecondaryEcc {
    /// Creates an idealized secondary ECC with the given correction
    /// capability.
    pub fn ideal(capability: usize) -> Self {
        SecondaryEcc::Ideal { capability }
    }

    /// Creates an idealized single-error-correcting secondary ECC — the
    /// configuration the paper evaluates (equal strength to on-die ECC).
    pub fn ideal_sec() -> Self {
        Self::ideal(1)
    }

    /// Creates a concrete SEC Hamming secondary ECC over a `data_bits`-bit
    /// on-die-ECC dataword.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the code cannot be constructed.
    pub fn hamming_for(data_bits: usize, seed: u64) -> Result<Self, CodeError> {
        Ok(SecondaryEcc::Hamming {
            code: HammingCode::random(data_bits, seed)?,
        })
    }

    /// The number of simultaneous errors this code handles safely.
    pub fn correction_capability(&self) -> usize {
        match self {
            SecondaryEcc::Ideal { capability } => *capability,
            SecondaryEcc::Hamming { .. } => 1,
        }
    }

    /// Observes one read during reactive profiling.
    ///
    /// `written` is the dataword the memory controller wrote (which it knows
    /// at scrub/verify time); `post_correction` is the dataword returned by
    /// the memory chip after on-die ECC decoding.
    ///
    /// # Panics
    ///
    /// Panics if the two datawords have different lengths, or (for the
    /// Hamming variant) if their length does not match the code.
    pub fn observe(&self, written: &BitVec, post_correction: &BitVec) -> SecondaryObservation {
        assert_eq!(
            written.len(),
            post_correction.len(),
            "dataword length mismatch"
        );
        let actual_errors: Vec<usize> = (written ^ post_correction).iter_ones().collect();
        if actual_errors.is_empty() {
            return SecondaryObservation::Clean;
        }
        match self {
            SecondaryEcc::Ideal { capability } => {
                if actual_errors.len() <= *capability {
                    SecondaryObservation::Identified {
                        positions: actual_errors,
                    }
                } else {
                    SecondaryObservation::Unsafe {
                        residual_errors: actual_errors,
                    }
                }
            }
            SecondaryEcc::Hamming { code } => {
                // Parity is computed from the written data at write time and
                // stored reliably in the controller.
                let parity = code
                    .encode(written)
                    .slice(code.data_len(), code.codeword_len());
                let stored = post_correction.concat(&parity);
                let result = code.decode(&stored);
                match result.outcome.corrected_position() {
                    Some(position) if position < code.data_len() && result.dataword == *written => {
                        SecondaryObservation::Identified {
                            positions: vec![position],
                        }
                    }
                    _ => SecondaryObservation::Unsafe {
                        residual_errors: actual_errors,
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sec_identifies_single_errors() {
        let secondary = SecondaryEcc::ideal_sec();
        assert_eq!(secondary.correction_capability(), 1);
        let written = BitVec::from_u64(16, 0xF0F0);
        let mut observed = written.clone();
        observed.flip(3);
        match secondary.observe(&written, &observed) {
            SecondaryObservation::Identified { positions } => assert_eq!(positions, vec![3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ideal_sec_flags_double_errors_as_unsafe() {
        let secondary = SecondaryEcc::ideal_sec();
        let written = BitVec::zeros(16);
        let mut observed = written.clone();
        observed.flip(3);
        observed.flip(9);
        let obs = secondary.observe(&written, &observed);
        assert!(!obs.is_safe());
        match obs {
            SecondaryObservation::Unsafe { residual_errors } => {
                assert_eq!(residual_errors, vec![3, 9]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stronger_ideal_code_handles_more_errors() {
        let secondary = SecondaryEcc::ideal(2);
        let written = BitVec::zeros(16);
        let mut observed = written.clone();
        observed.flip(3);
        observed.flip(9);
        assert!(secondary.observe(&written, &observed).is_safe());
        observed.flip(12);
        assert!(!secondary.observe(&written, &observed).is_safe());
    }

    #[test]
    fn clean_read_reports_clean() {
        let secondary = SecondaryEcc::ideal_sec();
        let written = BitVec::ones(8);
        assert_eq!(
            secondary.observe(&written, &written),
            SecondaryObservation::Clean
        );
        assert!(SecondaryObservation::Clean.is_safe());
    }

    #[test]
    fn hamming_secondary_identifies_single_error() {
        let secondary = SecondaryEcc::hamming_for(64, 99).unwrap();
        assert_eq!(secondary.correction_capability(), 1);
        let written = BitVec::ones(64);
        let mut observed = written.clone();
        observed.flip(42);
        match secondary.observe(&written, &observed) {
            SecondaryObservation::Identified { positions } => assert_eq!(positions, vec![42]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hamming_secondary_is_unsafe_on_double_error() {
        let secondary = SecondaryEcc::hamming_for(64, 100).unwrap();
        let written = BitVec::ones(64);
        let mut observed = written.clone();
        observed.flip(1);
        observed.flip(2);
        assert!(!secondary.observe(&written, &observed).is_safe());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn observe_length_mismatch_panics() {
        SecondaryEcc::ideal_sec().observe(&BitVec::zeros(8), &BitVec::zeros(9));
    }
}
