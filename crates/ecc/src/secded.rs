//! Extended Hamming (SEC-DED) codes: the third [`LinearBlockCode`]
//! implementation, proving the code-abstraction layer carries new scenarios
//! end-to-end.
//!
//! An extended Hamming code adds one overall parity bit to a SEC Hamming
//! code. The resulting `(n + 1, k)` code still corrects every single-bit
//! error, but *detects* (rather than miscorrects) every double-bit error:
//! a double error leaves the overall parity untouched while producing a
//! nonzero Hamming syndrome, which the decoder reports as
//! [`DecodeOutcome::DetectedUncorrectable`]. Under the HARP lens this is a
//! qualitatively different on-die ECC scenario: the dominant source of
//! indirect errors (pair-induced miscorrections, §4.2 of the paper) is
//! eliminated, and only odd-weight error patterns of three or more raw
//! errors can still miscorrect.
//!
//! # Example
//!
//! ```
//! use harp_ecc::{ExtendedHammingCode, LinearBlockCode};
//! use harp_gf2::BitVec;
//!
//! let code = ExtendedHammingCode::random(64, 3)?;
//! assert_eq!(code.codeword_len(), 72); // (71, 64) Hamming + overall parity
//!
//! let data = BitVec::ones(64);
//! let mut stored = code.encode(&data);
//! stored.flip(5);
//! stored.flip(9);
//! // A SEC Hamming code would miscorrect this double error; SEC-DED flags it.
//! let result = code.decode(&stored);
//! assert!(!result.outcome.is_correction());
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};

use crate::block::LinearBlockCode;
use crate::code::{CodeError, HammingCode};
use crate::decoder::{DecodeOutcome, DecodeResult};
use crate::word::WordLayout;

/// A systematic extended Hamming (SEC-DED) code.
///
/// Codeword layout: `k` data bits, the inner code's `p` Hamming parity bits,
/// then one overall parity bit — so the code stays systematic and the whole
/// direct/indirect error analysis applies unchanged.
///
/// As for [`HammingCode`], the immutable tables sit behind one shared
/// [`Arc`], so a clone is a reference-count increment, and single errors
/// are located through the inner code's sorted syndrome lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtendedHammingCode {
    tables: Arc<ExtendedTables>,
}

/// The immutable tables of an [`ExtendedHammingCode`], shared by all its
/// clones.
#[derive(Debug, PartialEq, Eq)]
struct ExtendedTables {
    inner: HammingCode,
    layout: WordLayout,
    /// Extended parity-check matrix `(p + 1) × (n + 1)`:
    /// `[[A | I_p | 0], [1 … 1]]`.
    h: Gf2Matrix,
    /// Extended parity block `(p + 1) × k` (`parity = A_ext · data`).
    a: Gf2Matrix,
    /// Word-packed copy of the extended `H`.
    kernel: SyndromeKernel,
}

impl ExtendedHammingCode {
    /// Extends a SEC Hamming code with an overall parity bit.
    pub fn from_hamming(inner: HammingCode) -> Self {
        let k = inner.data_len();
        let p = inner.parity_len();
        let n = inner.codeword_len();
        let layout = WordLayout::new(k, p + 1);

        let ones_row = Gf2Matrix::from_rows(&[BitVec::ones(n + 1)]);
        let h = inner
            .parity_check_matrix()
            .hstack(&Gf2Matrix::zeros(p, 1))
            .vstack(&ones_row);

        // Overall parity of a codeword is parity(d) ⊕ parity(A·d), which is
        // itself a linear function of the data: row `p` of the extended
        // parity block has entry `j` = 1 ⊕ parity(column j of A).
        let overall_row =
            BitVec::from_indices(k, (0..k).filter(|&j| !inner.data_block().col(j).parity()));
        let a = inner
            .data_block()
            .vstack(&Gf2Matrix::from_rows(&[overall_row]));

        let kernel = SyndromeKernel::new(&h);
        Self {
            tables: Arc::new(ExtendedTables {
                inner,
                layout,
                h,
                a,
                kernel,
            }),
        }
    }

    /// Builds a SEC-DED code from the *inner* Hamming parity-check columns
    /// assigned to the `k` data positions (the overall-parity row is always
    /// the implied all-ones row, so the extended column for data position `i`
    /// is `(column_i, 1)` and never needs to be supplied).
    ///
    /// This is the reconstruction entry point used by `harp_beer`: the
    /// family-generic equivalent-code search solves for the inner columns
    /// and materializes candidates through this constructor, exactly as
    /// [`HammingCode::from_data_columns`] serves the SEC family.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the columns do not define a valid inner
    /// SEC Hamming code (wrong length, zero, unit, or duplicate columns).
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::{ExtendedHammingCode, LinearBlockCode};
    ///
    /// let reference = ExtendedHammingCode::random(16, 5)?;
    /// let columns = (0..16).map(|i| reference.inner().data_block().col(i)).collect();
    /// let rebuilt = ExtendedHammingCode::from_data_columns(columns)?;
    /// assert_eq!(rebuilt, reference);
    /// # Ok::<(), harp_ecc::CodeError>(())
    /// ```
    pub fn from_data_columns(data_columns: Vec<BitVec>) -> Result<Self, CodeError> {
        Ok(Self::from_hamming(HammingCode::from_data_columns(
            data_columns,
        )?))
    }

    /// Generates a uniform-random SEC-DED code for a `data_bits`-bit
    /// dataword, deterministically derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::EmptyDataword`] if `data_bits == 0`.
    pub fn random(data_bits: usize, seed: u64) -> Result<Self, CodeError> {
        Ok(Self::from_hamming(HammingCode::random(data_bits, seed)?))
    }

    /// The inner SEC Hamming code (without the overall parity bit).
    pub fn inner(&self) -> &HammingCode {
        &self.tables.inner
    }

    /// The codeword position of the overall parity bit (`n`, the last one).
    pub fn overall_parity_position(&self) -> usize {
        self.tables.layout.codeword_len() - 1
    }
}

impl LinearBlockCode for ExtendedHammingCode {
    fn layout(&self) -> WordLayout {
        self.tables.layout
    }

    fn correction_capability(&self) -> usize {
        1
    }

    fn parity_check_matrix(&self) -> &Gf2Matrix {
        &self.tables.h
    }

    fn parity_block(&self) -> &Gf2Matrix {
        &self.tables.a
    }

    fn syndrome_kernel(&self) -> &SyndromeKernel {
        &self.tables.kernel
    }

    fn decode(&self, stored: &BitVec) -> DecodeResult {
        let k = self.tables.layout.data_len();
        let p = self.tables.inner.parity_len();
        let syndrome = self.syndrome(stored);
        if syndrome.is_zero() {
            return DecodeResult {
                dataword: stored.slice(0, k),
                outcome: DecodeOutcome::NoErrorDetected,
                syndrome,
            };
        }
        let hamming_syndrome = syndrome.slice(0, p);
        let parity_mismatch = syndrome.get(p);
        if !parity_mismatch {
            // Even number of raw errors with a nonzero Hamming syndrome: the
            // signature of a double error. Detected, not corrected — this is
            // what distinguishes SEC-DED from plain SEC under HARP's lens.
            return DecodeResult {
                dataword: stored.slice(0, k),
                outcome: DecodeOutcome::DetectedUncorrectable,
                syndrome,
            };
        }
        // Odd number of raw errors: single-error hypothesis.
        let position = if hamming_syndrome.is_zero() {
            // Only the overall parity bit itself flipped.
            Some(self.overall_parity_position())
        } else {
            self.tables.inner.position_for_syndrome(&hamming_syndrome)
        };
        match position {
            Some(position) => {
                let mut corrected = stored.clone();
                corrected.flip(position);
                DecodeResult {
                    dataword: corrected.slice(0, k),
                    outcome: DecodeOutcome::corrected(position),
                    syndrome,
                }
            }
            None => DecodeResult {
                dataword: stored.slice(0, k),
                outcome: DecodeOutcome::DetectedUncorrectable,
                syndrome,
            },
        }
    }

    fn description(&self) -> String {
        format!(
            "SEC-DED extended Hamming ({}, {})",
            self.tables.layout.codeword_len(),
            self.tables.layout.data_len()
        )
    }

    fn decode_with_syndrome_into(
        &self,
        stored: &BitVec,
        syndrome_word: u64,
        out: &mut DecodeResult,
    ) {
        assert_eq!(
            stored.len(),
            self.tables.layout.codeword_len(),
            "stored codeword length mismatch"
        );
        let k = self.tables.layout.data_len();
        let p = self.tables.inner.parity_len();
        out.syndrome.assign_u64(p + 1, syndrome_word);
        out.dataword.copy_prefix_from(stored, k);
        if syndrome_word == 0 {
            out.outcome = DecodeOutcome::NoErrorDetected;
            return;
        }
        let hamming_syndrome = syndrome_word & ((1u64 << p) - 1);
        let parity_mismatch = (syndrome_word >> p) & 1 == 1;
        if !parity_mismatch {
            // Double-error signature (see `decode`): detected, not corrected.
            out.outcome = DecodeOutcome::DetectedUncorrectable;
            return;
        }
        let position = if hamming_syndrome == 0 {
            Some(self.overall_parity_position())
        } else {
            self.tables
                .inner
                .position_for_syndrome_word(hamming_syndrome)
        };
        match position {
            Some(position) => {
                if position < k {
                    out.dataword.flip(position);
                }
                out.outcome = DecodeOutcome::corrected(position);
            }
            None => out.outcome = DecodeOutcome::DetectedUncorrectable,
        }
    }
}

impl fmt::Display for ExtendedHammingCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_adds_one_parity_bit() {
        let code = ExtendedHammingCode::random(64, 1).unwrap();
        assert_eq!(code.data_len(), 64);
        assert_eq!(code.parity_len(), 8);
        assert_eq!(code.codeword_len(), 72);
        assert_eq!(code.overall_parity_position(), 71);
        assert_eq!(code.inner().codeword_len(), 71);
        assert_eq!(code.to_string(), "SEC-DED extended Hamming (72, 64)");
    }

    #[test]
    fn codewords_satisfy_the_extended_parity_check() {
        let code = ExtendedHammingCode::random(32, 2).unwrap();
        for value in [0u64, 1, 0xFFFF_FFFF, 0xA5A5_5A5A] {
            let data = BitVec::from_u64(32, value);
            let codeword = code.encode(&data);
            assert_eq!(codeword.len(), code.codeword_len());
            assert_eq!(codeword.slice(0, 32), data, "systematic");
            assert!(code.parity_check_matrix().mul_vec(&codeword).is_zero());
            assert!(code.syndrome(&codeword).is_zero());
            // The last bit really is the overall parity of the rest.
            let body = codeword.slice(0, code.codeword_len() - 1);
            assert_eq!(codeword.get(code.overall_parity_position()), body.parity());
        }
    }

    #[test]
    fn every_single_error_is_corrected() {
        let code = ExtendedHammingCode::random(16, 3).unwrap();
        let data = BitVec::from_u64(16, 0xBEEF);
        for pos in 0..code.codeword_len() {
            let error = BitVec::from_indices(code.codeword_len(), [pos]);
            let result = code.encode_corrupt_decode(&data, &error);
            assert_eq!(result.dataword, data, "error at {pos}");
            assert_eq!(result.outcome, DecodeOutcome::corrected(pos));
        }
    }

    #[test]
    fn every_double_error_is_detected_not_miscorrected() {
        // The defining SEC-DED property, and the reason the code eliminates
        // pair-induced indirect errors entirely.
        let code = ExtendedHammingCode::random(16, 4).unwrap();
        let data = BitVec::from_u64(16, 0x1234);
        let n = code.codeword_len();
        for i in 0..n {
            for j in (i + 1)..n {
                let error = BitVec::from_indices(n, [i, j]);
                let result = code.encode_corrupt_decode(&data, &error);
                assert_eq!(
                    result.outcome,
                    DecodeOutcome::DetectedUncorrectable,
                    "double error ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn triple_errors_are_never_silent() {
        // Minimum distance 4: weight-3 patterns always produce a nonzero
        // syndrome (they may miscorrect, but never pass unnoticed).
        let code = ExtendedHammingCode::random(8, 5).unwrap();
        let data = BitVec::ones(8);
        let n = code.codeword_len();
        for i in 0..n {
            for j in (i + 1)..n {
                for l in (j + 1)..n {
                    let error = BitVec::from_indices(n, [i, j, l]);
                    let result = code.encode_corrupt_decode(&data, &error);
                    assert_ne!(result.outcome, DecodeOutcome::NoErrorDetected);
                }
            }
        }
    }

    #[test]
    fn parity_block_matches_encoder() {
        let code = ExtendedHammingCode::random(24, 6).unwrap();
        let data = BitVec::from_u64(24, 0x00C0_FFEE);
        let codeword = code.encode(&data);
        assert_eq!(
            codeword.slice(code.data_len(), code.codeword_len()),
            code.parity_block().mul_vec(&data)
        );
    }

    #[test]
    fn construction_errors_propagate() {
        assert_eq!(
            ExtendedHammingCode::random(0, 1),
            Err(CodeError::EmptyDataword)
        );
    }

    #[test]
    fn from_data_columns_round_trips_the_inner_columns() {
        let reference = ExtendedHammingCode::random(16, 9).unwrap();
        let columns: Vec<BitVec> = (0..16)
            .map(|i| reference.inner().data_block().col(i))
            .collect();
        let rebuilt = ExtendedHammingCode::from_data_columns(columns).unwrap();
        assert_eq!(rebuilt, reference);
        assert_eq!(
            rebuilt.parity_check_matrix(),
            reference.parity_check_matrix()
        );
    }

    #[test]
    fn from_data_columns_rejects_invalid_inner_columns() {
        assert_eq!(
            ExtendedHammingCode::from_data_columns(vec![]),
            Err(CodeError::EmptyDataword)
        );
        assert_eq!(
            ExtendedHammingCode::from_data_columns(vec![BitVec::zeros(3)]),
            Err(CodeError::ZeroColumn { column: 0 })
        );
        let dup = BitVec::from_u64(3, 0b111);
        assert_eq!(
            ExtendedHammingCode::from_data_columns(vec![dup.clone(), dup]),
            Err(CodeError::DuplicateColumn {
                first: 0,
                second: 1
            })
        );
    }
}
