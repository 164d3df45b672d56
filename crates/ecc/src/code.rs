//! Systematic single-error-correcting Hamming code construction.
//!
//! A `(k + p, k)` SEC Hamming code is defined by a parity-check matrix
//! `H = [A | I_p]` whose columns are distinct and nonzero. Under systematic
//! encoding the codeword is `c = [d | A·d]`, the syndrome of a stored word is
//! `s = H·c'`, and a nonzero syndrome matching column `i` makes the decoder
//! flip bit `i` (§2.5 of the paper).
//!
//! Encoding, syndrome computation, and decoding are exposed through the
//! shared [`LinearBlockCode`] trait (this module only adds the
//! Hamming-specific construction and structure accessors), and the syndrome
//! path runs through a precomputed [`SyndromeKernel`].
//!
//! Real on-die ECC parity-check matrices are proprietary, so — exactly like
//! the paper's evaluation — this module can generate uniform-random systematic
//! codes for a given dataword length (e.g. `(71, 64)` and `(136, 128)`).

use std::fmt;
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};

use crate::block::LinearBlockCode;
use crate::decoder::{DecodeOutcome, DecodeResult};
use crate::word::WordLayout;

/// Errors produced when constructing a [`HammingCode`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodeError {
    /// The requested dataword length cannot be protected by the requested
    /// number of parity bits (needs `2^p - p - 1 >= k`).
    DatawordTooLong {
        /// Requested dataword length.
        data_bits: usize,
        /// Parity bits available.
        parity_bits: usize,
    },
    /// A supplied parity-check column has the wrong length.
    ColumnLengthMismatch {
        /// Index of the offending data column.
        column: usize,
        /// Expected length (`p`).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A supplied parity-check column is all-zero (errors in that bit would
    /// be undetectable, which is not a valid Hamming code).
    ZeroColumn {
        /// Index of the offending data column.
        column: usize,
    },
    /// A supplied data column equals a unit vector, colliding with one of the
    /// identity columns used for the parity bits.
    UnitColumn {
        /// Index of the offending data column.
        column: usize,
    },
    /// Two columns of the parity-check matrix are identical, so single-bit
    /// errors in those positions would be indistinguishable.
    DuplicateColumn {
        /// First column index.
        first: usize,
        /// Second column index.
        second: usize,
    },
    /// The dataword length must be nonzero.
    EmptyDataword,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::DatawordTooLong {
                data_bits,
                parity_bits,
            } => write!(
                f,
                "dataword of {data_bits} bits cannot be protected by {parity_bits} parity bits"
            ),
            CodeError::ColumnLengthMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "parity-check column {column} has length {actual}, expected {expected}"
            ),
            CodeError::ZeroColumn { column } => {
                write!(f, "parity-check column {column} is all-zero")
            }
            CodeError::UnitColumn { column } => write!(
                f,
                "parity-check column {column} is a unit vector reserved for a parity bit"
            ),
            CodeError::DuplicateColumn { first, second } => {
                write!(f, "parity-check columns {first} and {second} are identical")
            }
            CodeError::EmptyDataword => write!(f, "dataword length must be nonzero"),
        }
    }
}

impl std::error::Error for CodeError {}

/// The `(n, k)` shape of a code: codeword and dataword lengths.
///
/// # Example
///
/// ```
/// use harp_ecc::CodeShape;
///
/// let shape = CodeShape::for_dataword(64);
/// assert_eq!(shape.codeword_bits, 71);
/// assert_eq!(shape.parity_bits(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeShape {
    /// Codeword length `n = k + p`.
    pub codeword_bits: usize,
    /// Dataword length `k`.
    pub data_bits: usize,
}

impl CodeShape {
    /// Returns the shape of the minimal SEC Hamming code protecting a
    /// `data_bits`-bit dataword.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits == 0`.
    pub fn for_dataword(data_bits: usize) -> Self {
        assert!(data_bits > 0, "dataword length must be nonzero");
        let parity = Self::min_parity_bits(data_bits);
        Self {
            codeword_bits: data_bits + parity,
            data_bits,
        }
    }

    /// Minimal number of parity bits `p` such that `2^p - p - 1 >= k`.
    pub fn min_parity_bits(data_bits: usize) -> usize {
        let mut p = 2usize;
        loop {
            // Guard against overflow for absurd inputs; p grows logarithmically.
            let capacity = (1usize << p) - p - 1;
            if capacity >= data_bits {
                return p;
            }
            p += 1;
        }
    }

    /// Number of parity bits `p = n - k`.
    pub fn parity_bits(&self) -> usize {
        self.codeword_bits - self.data_bits
    }

    /// The systematic layout corresponding to this shape.
    pub fn layout(&self) -> WordLayout {
        WordLayout::new(self.data_bits, self.parity_bits())
    }
}

impl fmt::Display for CodeShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.codeword_bits, self.data_bits)
    }
}

/// A systematic single-error-correcting Hamming code.
///
/// The parity-check matrix has the block form `H = [A | I_p]`; the generator
/// matrix is `G = [I_k | A^T]` so that `G·H^T = 0` and data bits are stored
/// verbatim in codeword positions `0..k`. Encoding and decoding are provided
/// through [`LinearBlockCode`].
///
/// The code's tables never change after construction, so they live behind
/// one shared [`Arc`]: `H`, `A`, the syndrome kernel and the decode lookup.
/// Cloning a code, as every word sample and every `H`-aware profiler does,
/// only increments a reference count. The lookup lists every position with
/// its packed column, sorted by column, so a nonzero syndrome is resolved
/// by a binary search in O(log n) for any `p`.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, LinearBlockCode};
/// use harp_gf2::BitVec;
///
/// let code = HammingCode::paper_example();
/// assert_eq!(code.shape().to_string(), "(7, 4)");
///
/// let data = BitVec::from_u64(4, 0b1011);
/// let codeword = code.encode(&data);
/// assert_eq!(codeword.slice(0, 4), data); // systematic
/// assert!(code.syndrome(&codeword).is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HammingCode {
    tables: Arc<HammingTables>,
}

/// The immutable tables of a [`HammingCode`], shared by all its clones.
#[derive(Debug, PartialEq, Eq)]
struct HammingTables {
    layout: WordLayout,
    /// Full parity-check matrix `H = [A | I_p]`, `p × (k + p)`.
    h: Gf2Matrix,
    /// The `A` block of `H` (`p × k`): parity equations over the data bits.
    a: Gf2Matrix,
    /// `(packed column, position)` for every codeword position, sorted by
    /// column: the syndrome decoder's lookup.
    lookup: Vec<(u64, usize)>,
    /// Word-packed copy of `H` driving the hot syndrome path.
    kernel: SyndromeKernel,
}

impl HammingCode {
    /// Builds a code from the parity-check columns assigned to the `k` data
    /// positions. Column `i` (a `p`-bit vector) is the syndrome produced by a
    /// single-bit error in data position `i`. The parity positions always use
    /// the unit columns (identity block).
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the columns do not define a valid SEC
    /// Hamming code (wrong length, zero, unit, or duplicate columns).
    pub fn from_data_columns(data_columns: Vec<BitVec>) -> Result<Self, CodeError> {
        if data_columns.is_empty() {
            return Err(CodeError::EmptyDataword);
        }
        let k = data_columns.len();
        let p = data_columns[0].len();
        let capacity = (1usize << p) - p - 1;
        if capacity < k {
            return Err(CodeError::DatawordTooLong {
                data_bits: k,
                parity_bits: p,
            });
        }
        for (i, col) in data_columns.iter().enumerate() {
            if col.len() != p {
                return Err(CodeError::ColumnLengthMismatch {
                    column: i,
                    expected: p,
                    actual: col.len(),
                });
            }
            if col.is_zero() {
                return Err(CodeError::ZeroColumn { column: i });
            }
            if col.count_ones() == 1 {
                return Err(CodeError::UnitColumn { column: i });
            }
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if data_columns[i] == data_columns[j] {
                    return Err(CodeError::DuplicateColumn {
                        first: i,
                        second: j,
                    });
                }
            }
        }

        let layout = WordLayout::new(k, p);
        let a = Gf2Matrix::from_cols(&data_columns);
        let h = a.hstack(&Gf2Matrix::identity(p));
        // A column is a p-bit syndrome, which the kernel packs into one
        // word (`SyndromeKernel::syndrome_word`), so it keys the lookup as
        // one.
        let mut lookup: Vec<(u64, usize)> = (0..layout.codeword_len())
            .map(|i| (h.col(i).to_u64(), i))
            .collect();
        lookup.sort_unstable();
        let kernel = SyndromeKernel::new(&h);
        Ok(Self {
            tables: Arc::new(HammingTables {
                layout,
                h,
                a,
                lookup,
                kernel,
            }),
        })
    }

    /// Generates a uniform-random systematic SEC Hamming code for a
    /// `data_bits`-bit dataword, deterministically derived from `seed`.
    ///
    /// This mirrors the paper's methodology of simulating many
    /// randomly-generated parity-check matrices (§7.1.2) because real on-die
    /// ECC implementations are proprietary.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::EmptyDataword`] if `data_bits == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::HammingCode;
    ///
    /// let a = HammingCode::random(64, 7)?;
    /// let b = HammingCode::random(64, 7)?;
    /// let c = HammingCode::random(64, 8)?;
    /// assert_eq!(a, b);  // same seed, same code
    /// assert_ne!(a, c);  // different seed, (almost surely) different code
    /// # Ok::<(), harp_ecc::CodeError>(())
    /// ```
    pub fn random(data_bits: usize, seed: u64) -> Result<Self, CodeError> {
        if data_bits == 0 {
            return Err(CodeError::EmptyDataword);
        }
        let p = CodeShape::min_parity_bits(data_bits);
        // lint:allow(rng-salt) the seed is this constructor's API parameter; callers choose the stream
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Candidate columns: all nonzero p-bit vectors with weight >= 2.
        let mut candidates: Vec<BitVec> = (1u64..(1u64 << p))
            .filter(|v| v.count_ones() >= 2)
            .map(|v| BitVec::from_u64(p, v))
            .collect();
        candidates.shuffle(&mut rng);
        candidates.truncate(data_bits);
        // Shuffle once more so the column arrangement (which the paper notes
        // is a free design degree, §2.5.2) is also randomized.
        candidates.shuffle(&mut rng);
        Self::from_data_columns(candidates)
    }

    /// The `(7, 4)` Hamming code from Equation 1 of the paper.
    pub fn paper_example() -> Self {
        let cols = vec![
            BitVec::from_bools(&[true, true, true]),
            BitVec::from_bools(&[true, true, false]),
            BitVec::from_bools(&[true, false, true]),
            BitVec::from_bools(&[false, true, true]),
        ];
        Self::from_data_columns(cols).expect("the paper's example code is valid")
    }

    /// The code's `(n, k)` shape.
    pub fn shape(&self) -> CodeShape {
        CodeShape {
            codeword_bits: self.tables.layout.codeword_len(),
            data_bits: self.tables.layout.data_len(),
        }
    }

    /// The `A` block of the parity-check matrix (`p × k`).
    pub fn data_block(&self) -> &Gf2Matrix {
        &self.tables.a
    }

    /// The generator matrix `G = [I_k | A^T]` (`k × (k + p)`).
    pub fn generator_matrix(&self) -> Gf2Matrix {
        Gf2Matrix::identity(self.tables.layout.data_len()).hstack(&self.tables.a.transpose())
    }

    /// Column `pos` of the parity-check matrix (the syndrome a single-bit
    /// error at `pos` produces).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= codeword_len()`.
    pub fn column(&self, pos: usize) -> BitVec {
        self.tables.h.col(pos)
    }

    /// Finds the codeword position whose parity-check column equals
    /// `syndrome`, if any.
    pub fn position_for_syndrome(&self, syndrome: &BitVec) -> Option<usize> {
        if syndrome.len() != self.tables.layout.parity_len() {
            return None;
        }
        self.position_for_syndrome_word(syndrome.to_u64())
    }

    /// Finds the codeword position whose parity-check column equals the
    /// packed `p`-bit syndrome `syndrome_word` (bit `r` = syndrome row `r`),
    /// if any, by binary search of the sorted lookup. The packed twin of
    /// [`HammingCode::position_for_syndrome`], used by the allocation-free
    /// burst decode path.
    pub fn position_for_syndrome_word(&self, syndrome_word: u64) -> Option<usize> {
        if syndrome_word == 0 {
            return None;
        }
        let lookup = &self.tables.lookup;
        lookup
            .binary_search_by_key(&syndrome_word, |&(column, _)| column)
            .ok()
            .map(|index| lookup[index].1)
    }
}

impl LinearBlockCode for HammingCode {
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

    /// Syndrome-decodes a stored codeword, returning the post-correction
    /// dataword and what the decoder believes happened.
    ///
    /// The decoder has no access to the originally written data, so a
    /// [`DecodeOutcome::Corrected`] outcome may in truth be a miscorrection;
    /// use [`crate::analysis::classify_decode`] when ground truth is
    /// available (simulation).
    fn decode(&self, stored: &BitVec) -> DecodeResult {
        let syndrome = self.syndrome(stored);
        if syndrome.is_zero() {
            return DecodeResult {
                dataword: stored.slice(0, self.tables.layout.data_len()),
                outcome: DecodeOutcome::NoErrorDetected,
                syndrome,
            };
        }
        match self.position_for_syndrome(&syndrome) {
            Some(position) => {
                let mut corrected = stored.clone();
                corrected.flip(position);
                DecodeResult {
                    dataword: corrected.slice(0, self.tables.layout.data_len()),
                    outcome: DecodeOutcome::corrected(position),
                    syndrome,
                }
            }
            None => DecodeResult {
                // No matching column: the decoder detects but cannot locate
                // the error, and passes the stored data bits through.
                dataword: stored.slice(0, self.tables.layout.data_len()),
                outcome: DecodeOutcome::DetectedUncorrectable,
                syndrome,
            },
        }
    }

    fn description(&self) -> String {
        format!("SEC Hamming {}", self.shape())
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
        out.syndrome
            .assign_u64(self.tables.layout.parity_len(), syndrome_word);
        out.dataword.copy_prefix_from(stored, k);
        if syndrome_word == 0 {
            out.outcome = DecodeOutcome::NoErrorDetected;
            return;
        }
        match self.position_for_syndrome_word(syndrome_word) {
            Some(position) => {
                // Parity-bit corrections never touch the dataword.
                if position < k {
                    out.dataword.flip(position);
                }
                out.outcome = DecodeOutcome::corrected(position);
            }
            None => out.outcome = DecodeOutcome::DetectedUncorrectable,
        }
    }
}

impl fmt::Display for HammingCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_for_common_datawords() {
        assert_eq!(CodeShape::for_dataword(4).codeword_bits, 7);
        assert_eq!(CodeShape::for_dataword(64).codeword_bits, 71);
        assert_eq!(CodeShape::for_dataword(128).codeword_bits, 136);
        assert_eq!(CodeShape::min_parity_bits(64), 7);
        assert_eq!(CodeShape::min_parity_bits(128), 8);
        assert_eq!(CodeShape::min_parity_bits(11), 4);
    }

    #[test]
    fn paper_example_matches_equation_1_properties() {
        let code = HammingCode::paper_example();
        assert_eq!(code.shape().to_string(), "(7, 4)");
        // G · H^T = 0.
        let g = code.generator_matrix();
        assert!(g.mul(&code.parity_check_matrix().transpose()).is_zero());
        // Systematic identity blocks.
        assert_eq!(g.col_slice(0, 4), Gf2Matrix::identity(4));
        assert_eq!(
            code.parity_check_matrix().col_slice(4, 7),
            Gf2Matrix::identity(3)
        );
    }

    #[test]
    fn random_code_is_valid_and_deterministic() {
        let a = HammingCode::random(64, 42).unwrap();
        let b = HammingCode::random(64, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shape().codeword_bits, 71);
        let g = a.generator_matrix();
        assert!(g.mul(&a.parity_check_matrix().transpose()).is_zero());
        // All columns distinct and nonzero.
        for i in 0..a.codeword_len() {
            assert!(!a.column(i).is_zero());
            for j in (i + 1)..a.codeword_len() {
                assert_ne!(a.column(i), a.column(j), "columns {i} and {j} collide");
            }
        }
    }

    #[test]
    fn random_codes_differ_across_seeds() {
        let a = HammingCode::random(64, 1).unwrap();
        let b = HammingCode::random(64, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn random_136_128_code_has_expected_shape() {
        let code = HammingCode::random(128, 3).unwrap();
        assert_eq!(code.codeword_len(), 136);
        assert_eq!(code.parity_len(), 8);
    }

    #[test]
    fn encode_is_systematic_for_all_data_positions() {
        let code = HammingCode::random(32, 5).unwrap();
        for i in 0..32 {
            let data = BitVec::from_indices(32, [i]);
            let c = code.encode(&data);
            assert_eq!(c.slice(0, 32), data);
            assert!(code.syndrome(&c).is_zero());
        }
    }

    #[test]
    fn syndrome_routes_through_the_kernel() {
        let code = HammingCode::random(64, 8).unwrap();
        let data = BitVec::from_u64(64, 0x0123_4567_89AB_CDEF);
        let mut stored = code.encode(&data);
        stored.flip(42);
        assert_eq!(
            code.syndrome(&stored),
            code.parity_check_matrix().mul_vec(&stored)
        );
        assert_eq!(
            code.syndrome_kernel().syndrome(&stored),
            code.syndrome(&stored)
        );
    }

    #[test]
    fn single_error_in_any_position_is_corrected() {
        let code = HammingCode::random(16, 9).unwrap();
        let data = BitVec::from_u64(16, 0x5A5A);
        for pos in 0..code.codeword_len() {
            let error = BitVec::from_indices(code.codeword_len(), [pos]);
            let result = code.encode_corrupt_decode(&data, &error);
            assert_eq!(result.dataword, data, "error at {pos} not corrected");
            assert_eq!(result.outcome, DecodeOutcome::corrected(pos));
        }
    }

    #[test]
    fn no_error_decodes_cleanly() {
        let code = HammingCode::random(64, 11).unwrap();
        let data = BitVec::ones(64);
        let result = code.decode(&code.encode(&data));
        assert_eq!(result.outcome, DecodeOutcome::NoErrorDetected);
        assert_eq!(result.dataword, data);
        assert!(result.syndrome.is_zero());
    }

    #[test]
    fn double_error_never_restores_original_data() {
        // SEC codes cannot correct double errors: the result is either a
        // miscorrection or a detected-uncorrectable, never the written data
        // with both errors in the data region silently fixed.
        let code = HammingCode::random(16, 13).unwrap();
        let data = BitVec::from_u64(16, 0xFFFF);
        for i in 0..code.codeword_len() {
            for j in (i + 1)..code.codeword_len() {
                let error = BitVec::from_indices(code.codeword_len(), [i, j]);
                let result = code.encode_corrupt_decode(&data, &error);
                let both_parity = i >= 16 && j >= 16;
                if !both_parity {
                    assert_ne!(
                        result.dataword, data,
                        "double error ({i},{j}) silently corrected"
                    );
                }
                assert_ne!(result.outcome, DecodeOutcome::NoErrorDetected);
            }
        }
    }

    #[test]
    fn from_data_columns_rejects_invalid_inputs() {
        let p = 3;
        let good = BitVec::from_u64(p, 0b111);
        assert_eq!(
            HammingCode::from_data_columns(vec![]),
            Err(CodeError::EmptyDataword)
        );
        assert_eq!(
            HammingCode::from_data_columns(vec![BitVec::zeros(p)]),
            Err(CodeError::ZeroColumn { column: 0 })
        );
        assert_eq!(
            HammingCode::from_data_columns(vec![BitVec::from_u64(p, 0b010)]),
            Err(CodeError::UnitColumn { column: 0 })
        );
        assert_eq!(
            HammingCode::from_data_columns(vec![good.clone(), good.clone()]),
            Err(CodeError::DuplicateColumn {
                first: 0,
                second: 1
            })
        );
        assert_eq!(
            HammingCode::from_data_columns(vec![good.clone(), BitVec::from_u64(2, 0b11)]),
            Err(CodeError::ColumnLengthMismatch {
                column: 1,
                expected: 3,
                actual: 2
            })
        );
        // 3 parity bits can protect at most 4 data bits.
        let too_many: Vec<BitVec> = (0..5).map(|_| good.clone()).collect();
        assert!(matches!(
            HammingCode::from_data_columns(too_many),
            Err(CodeError::DatawordTooLong { .. })
        ));
    }

    #[test]
    fn code_error_display_is_informative() {
        let err = CodeError::DuplicateColumn {
            first: 3,
            second: 9,
        };
        assert!(err.to_string().contains("3"));
        assert!(err.to_string().contains("identical"));
    }

    #[test]
    fn position_for_syndrome_finds_every_column() {
        let code = HammingCode::random(8, 21).unwrap();
        for pos in 0..code.codeword_len() {
            assert_eq!(
                code.position_for_syndrome(&code.column(pos)),
                Some(pos),
                "column {pos}"
            );
        }
        assert_eq!(
            code.position_for_syndrome(&BitVec::zeros(code.parity_len())),
            None
        );
    }

    #[test]
    fn display_mentions_shape() {
        let code = HammingCode::random(64, 77).unwrap();
        assert_eq!(code.to_string(), "SEC Hamming (71, 64)");
        assert_eq!(code.description(), "SEC Hamming (71, 64)");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn encode_decode_round_trip(
                seed in 0u64..1000,
                data_value in any::<u64>(),
                k in proptest::sample::select(vec![8usize, 16, 32, 64]),
            ) {
                let code = HammingCode::random(k, seed).unwrap();
                let data = BitVec::from_u64(k.min(64), data_value).slice(0, k);
                let result = code.decode(&code.encode(&data));
                prop_assert_eq!(result.dataword, data);
                prop_assert_eq!(result.outcome, DecodeOutcome::NoErrorDetected);
            }

            #[test]
            fn single_error_correction_property(
                seed in 0u64..500,
                data_value in any::<u64>(),
                pos_selector in any::<usize>(),
            ) {
                let code = HammingCode::random(32, seed).unwrap();
                let data = BitVec::from_u64(32, data_value & 0xFFFF_FFFF);
                let pos = pos_selector % code.codeword_len();
                let error = BitVec::from_indices(code.codeword_len(), [pos]);
                let result = code.encode_corrupt_decode(&data, &error);
                prop_assert_eq!(result.dataword, data);
            }

            #[test]
            fn generator_and_parity_check_are_orthogonal(seed in 0u64..200) {
                let code = HammingCode::random(64, seed).unwrap();
                let g = code.generator_matrix();
                prop_assert!(g.mul(&code.parity_check_matrix().transpose()).is_zero());
            }

            #[test]
            fn syndrome_of_error_pattern_is_column_xor(
                seed in 0u64..200,
                positions in proptest::collection::btree_set(0usize..71, 1..5),
            ) {
                let code = HammingCode::random(64, seed).unwrap();
                let error = BitVec::from_indices(
                    code.codeword_len(),
                    positions.iter().copied(),
                );
                // Syndrome of (codeword ^ error) equals syndrome of error,
                // which equals the XOR of the corresponding H columns.
                let data = BitVec::ones(64);
                let stored = &code.encode(&data) ^ &error;
                let mut expected = BitVec::zeros(code.parity_len());
                for &p in &positions {
                    expected ^= &code.column(p);
                }
                prop_assert_eq!(code.syndrome(&stored), expected);
            }
        }
    }
}
