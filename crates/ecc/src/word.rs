//! Codeword layout helpers: which bit positions are data and which are parity.
//!
//! The paper assumes *systematic* encoding (§2.5.2): the first `k` codeword
//! bits are the dataword verbatim and the remaining `p` bits are parity-check
//! bits computed from the data. [`WordLayout`] captures that convention so the
//! rest of the stack never hard-codes index arithmetic.

use serde::{Deserialize, Serialize};

/// Classification of a single codeword bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitClass {
    /// The bit holds one of the `k` systematically encoded data bits.
    Data,
    /// The bit holds one of the `p` parity-check bits, invisible outside the
    /// memory chip.
    Parity,
}

/// The systematic layout of an ECC word: `k` data bits followed by `p`
/// parity-check bits.
///
/// # Example
///
/// ```
/// use harp_ecc::{WordLayout, BitClass};
///
/// let layout = WordLayout::new(64, 7);
/// assert_eq!(layout.codeword_len(), 71);
/// assert_eq!(layout.classify(10), BitClass::Data);
/// assert_eq!(layout.classify(70), BitClass::Parity);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WordLayout {
    data_bits: usize,
    parity_bits: usize,
}

impl WordLayout {
    /// Creates a layout with `data_bits` data bits and `parity_bits` parity bits.
    pub fn new(data_bits: usize, parity_bits: usize) -> Self {
        Self {
            data_bits,
            parity_bits,
        }
    }

    /// Number of data bits (`k`).
    pub fn data_len(&self) -> usize {
        self.data_bits
    }

    /// Number of parity-check bits (`p`).
    pub fn parity_len(&self) -> usize {
        self.parity_bits
    }

    /// Total codeword length (`k + p`).
    pub fn codeword_len(&self) -> usize {
        self.data_bits + self.parity_bits
    }

    /// Classifies codeword position `pos` as data or parity.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= codeword_len()`.
    pub fn classify(&self, pos: usize) -> BitClass {
        assert!(
            pos < self.codeword_len(),
            "codeword position {pos} out of range {}",
            self.codeword_len()
        );
        if pos < self.data_bits {
            BitClass::Data
        } else {
            BitClass::Parity
        }
    }

    /// Returns `true` if `pos` is a data position.
    pub fn is_data(&self, pos: usize) -> bool {
        self.classify(pos) == BitClass::Data
    }

    /// Returns `true` if `pos` is a parity position.
    pub fn is_parity(&self, pos: usize) -> bool {
        self.classify(pos) == BitClass::Parity
    }

    /// Maps a parity position to its row index in the parity-check matrix.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a parity position.
    pub fn parity_index(&self, pos: usize) -> usize {
        assert!(self.is_parity(pos), "position {pos} is not a parity bit");
        pos - self.data_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_71_64_matches_paper_configuration() {
        let layout = WordLayout::new(64, 7);
        assert_eq!(layout.data_len(), 64);
        assert_eq!(layout.parity_len(), 7);
        assert_eq!(layout.codeword_len(), 71);
    }

    #[test]
    fn classification_boundary_is_at_k() {
        let layout = WordLayout::new(4, 3);
        assert!(layout.is_data(0));
        assert!(layout.is_data(3));
        assert!(layout.is_parity(4));
        assert!(layout.is_parity(6));
        assert_eq!(layout.classify(3), BitClass::Data);
        assert_eq!(layout.classify(4), BitClass::Parity);
    }

    #[test]
    fn parity_index_maps_to_matrix_rows() {
        let layout = WordLayout::new(64, 7);
        assert_eq!(layout.parity_index(64), 0);
        assert_eq!(layout.parity_index(70), 6);
    }

    #[test]
    #[should_panic(expected = "not a parity bit")]
    fn parity_index_of_data_position_panics() {
        WordLayout::new(8, 4).parity_index(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn classify_out_of_range_panics() {
        WordLayout::new(8, 4).classify(12);
    }
}
