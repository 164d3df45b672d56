//! The shared decode vocabulary of the code-abstraction layer.
//!
//! Every implementation of [`LinearBlockCode`](crate::LinearBlockCode) — the
//! SEC Hamming code, the extended-Hamming SEC-DED code, and the DEC BCH code
//! in `harp_bch` — reports decode results in this one vocabulary, so the
//! profilers, the BEER reverse-engineering stack, and the simulator never
//! need code-specific result types. A decoder may flip any number of
//! positions up to its correction capability `t`, so a correction carries a
//! position *list* (length 1 for SEC codes, up to 2 for DEC BCH).
//!
//! The decoder only ever sees the stored (possibly corrupted) codeword, so a
//! reported correction may in truth be a *miscorrection* — the mechanism
//! behind the paper's indirect errors; see
//! [`GroundTruth`](crate::analysis::GroundTruth) for the simulator-side
//! classification when the injected raw error pattern is known.

use serde::{Deserialize, Serialize};

use harp_gf2::{BitVec, DiffOnes};

use crate::positions::CorrectedPositions;

/// What an on-die ECC decoder believes happened during a read.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// The syndrome was zero: either no raw error occurred or the raw errors
    /// happened to form another valid codeword (undetectable error).
    NoErrorDetected,
    /// The syndrome was consistent with a correctable error pattern and the
    /// decoder flipped the listed codeword positions (ascending, at most the
    /// code's correction capability).
    ///
    /// The position list is stored inline ([`CorrectedPositions`], capacity
    /// `t ≤ 2` — enough for every code in the workspace), so a corrected
    /// read performs no heap allocation on the outcome path; the batched
    /// burst read in `harp_memsim` relies on this.
    Corrected {
        /// Codeword positions the decoder flipped.
        positions: CorrectedPositions,
    },
    /// The syndrome was nonzero but matched no correctable pattern: the
    /// decoder detected an error it cannot locate and passed the stored data
    /// bits through unmodified.
    DetectedUncorrectable,
}

impl DecodeOutcome {
    /// A correction of a single position.
    pub fn corrected(position: usize) -> Self {
        DecodeOutcome::Corrected {
            positions: CorrectedPositions::single(position),
        }
    }

    /// A correction of several positions (sorted ascending internally; at
    /// most [`CorrectedPositions::CAPACITY`] of them).
    pub fn corrected_many<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        DecodeOutcome::Corrected {
            positions: positions.into_iter().collect(),
        }
    }

    /// The codeword positions the decoder flipped (empty unless a correction
    /// was performed).
    pub fn corrected_positions(&self) -> &[usize] {
        match self {
            DecodeOutcome::Corrected { positions } => positions,
            _ => &[],
        }
    }

    /// The corrected position when the decoder flipped exactly one bit
    /// (always the case for SEC codes).
    pub fn corrected_position(&self) -> Option<usize> {
        match self.corrected_positions() {
            [position] => Some(*position),
            _ => None,
        }
    }

    /// Returns `true` if the decoder performed a correction operation.
    pub fn is_correction(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }

    /// The number of bit positions the decoder flipped.
    pub fn correction_count(&self) -> usize {
        self.corrected_positions().len()
    }
}

/// The full result of decoding a stored codeword.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeResult {
    /// The post-correction dataword returned to the memory controller.
    pub dataword: BitVec,
    /// What the decoder believes happened.
    pub outcome: DecodeOutcome,
    /// The raw binary syndrome `H·c'` (useful for the "syndrome on
    /// correction" transparency option discussed in §5.2 of the paper). For
    /// the BCH code this is the bit-expansion of the power sums `(S₁, S₃)`.
    pub syndrome: BitVec,
}

impl Default for DecodeResult {
    /// An empty placeholder result (zero-length dataword and syndrome), used
    /// to seed reusable decode buffers before
    /// [`decode_with_syndrome_into`](crate::LinearBlockCode::decode_with_syndrome_into)
    /// overwrites them in place.
    fn default() -> Self {
        Self {
            dataword: BitVec::default(),
            outcome: DecodeOutcome::NoErrorDetected,
            syndrome: BitVec::default(),
        }
    }
}

impl DecodeResult {
    /// Positions (dataword bit indices, ascending) where the post-correction
    /// dataword differs from `written` — i.e. the post-correction errors
    /// observed by the memory controller for this read. The iterator walks
    /// the set bits of the packed XOR of the two words, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `written.len() != self.dataword.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::{HammingCode, LinearBlockCode};
    /// use harp_gf2::BitVec;
    ///
    /// let code = HammingCode::paper_example();
    /// let data = BitVec::ones(4);
    /// // Two raw errors overwhelm a SEC code.
    /// let error = BitVec::from_indices(7, [0, 1]);
    /// let result = code.encode_corrupt_decode(&data, &error);
    /// assert!(result.post_correction_errors(&data).next().is_some());
    /// ```
    pub fn post_correction_errors<'a>(&'a self, written: &'a BitVec) -> DiffOnes<'a> {
        assert_eq!(
            written.len(),
            self.dataword.len(),
            "dataword length mismatch"
        );
        self.dataword.iter_diff_ones(written, written.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::LinearBlockCode;
    use crate::HammingCode;

    #[test]
    fn corrected_position_accessor() {
        assert_eq!(DecodeOutcome::corrected(5).corrected_position(), Some(5));
        assert_eq!(DecodeOutcome::NoErrorDetected.corrected_position(), None);
        assert_eq!(
            DecodeOutcome::DetectedUncorrectable.corrected_position(),
            None
        );
        // A multi-position correction has no single corrected position.
        assert_eq!(
            DecodeOutcome::corrected_many([2, 7]).corrected_position(),
            None
        );
        assert!(DecodeOutcome::corrected(0).is_correction());
        assert!(!DecodeOutcome::NoErrorDetected.is_correction());
    }

    #[test]
    fn corrected_many_sorts_positions() {
        assert_eq!(
            DecodeOutcome::corrected_many([9, 2]).corrected_positions(),
            &[2, 9]
        );
        assert_eq!(DecodeOutcome::corrected_many([9, 2]).correction_count(), 2);
        assert_eq!(DecodeOutcome::NoErrorDetected.correction_count(), 0);
        assert!(DecodeOutcome::NoErrorDetected
            .corrected_positions()
            .is_empty());
    }

    #[test]
    fn post_correction_errors_empty_when_clean() {
        let code = HammingCode::paper_example();
        let data = BitVec::from_u64(4, 0b0110);
        let result = code.decode(&code.encode(&data));
        assert_eq!(result.post_correction_errors(&data).next(), None);
    }

    #[test]
    fn post_correction_errors_reports_direct_error_positions() {
        let code = HammingCode::paper_example();
        let data = BitVec::ones(4);
        // Three raw errors in data positions: at least some survive decoding.
        let error = BitVec::from_indices(7, [0, 1, 2]);
        let result = code.encode_corrupt_decode(&data, &error);
        let errors: Vec<usize> = result.post_correction_errors(&data).collect();
        assert!(!errors.is_empty());
        for pos in errors {
            assert!(pos < 4);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn post_correction_errors_length_mismatch_panics() {
        let code = HammingCode::paper_example();
        let data = BitVec::ones(4);
        let result = code.decode(&code.encode(&data));
        let _ = result.post_correction_errors(&BitVec::ones(5));
    }
}
