//! Systematic, shortened, double-error-correcting BCH codes.
//!
//! The code is constructed over GF(2^m) with generator polynomial
//! `g(x) = lcm(m₁(x), m₃(x))` (the minimal polynomials of `α` and `α³`),
//! giving a designed distance of 5 and therefore a correction capability of
//! `t = 2`. The full code length is `2^m − 1`; the code is *shortened* to
//! exactly the requested dataword length by fixing the unused
//! highest-order message positions to zero (standard practice for
//! memory-geometry-constrained ECC).
//!
//! The codeword layout matches the shared [`LinearBlockCode`] convention:
//! data bits occupy positions `[0, k)` and parity bits positions
//! `[k, k + p)`, so the code is systematic and the whole of the HARP
//! analysis about direct vs. indirect errors carries over unchanged.
//! Encoding, syndrome computation (through the batched
//! [`SyndromeKernel`]), and decoding are exposed via the trait; decoding
//! internally derives the power-sum syndromes `(S₁, S₃)` from the binary
//! syndrome and applies Peterson's direct solution for `t = 2`.

use std::fmt;

use serde::{Deserialize, Serialize};

use harp_ecc::{CorrectedPositions, DecodeOutcome, DecodeResult, LinearBlockCode, WordLayout};
use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};

use crate::field::Gf2mField;
use crate::poly::BinaryPoly;

/// Errors produced when constructing a [`BchCode`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BchError {
    /// The requested dataword length is zero.
    EmptyDataword,
    /// The requested dataword does not fit in the chosen field: shortening
    /// cannot *extend* a code beyond `2^m − 1` total bits.
    DatawordTooLong {
        /// Requested dataword length.
        data_bits: usize,
        /// Field degree that was attempted.
        field_degree: u32,
        /// Maximum dataword length the field supports.
        max_data_bits: usize,
    },
}

impl fmt::Display for BchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BchError::EmptyDataword => f.write_str("dataword length must be nonzero"),
            BchError::DatawordTooLong {
                data_bits,
                field_degree,
                max_data_bits,
            } => write!(
                f,
                "dataword of {data_bits} bits does not fit a GF(2^{field_degree}) BCH code \
                 (maximum {max_data_bits} data bits)"
            ),
        }
    }
}

impl std::error::Error for BchError {}

/// A systematic, shortened, double-error-correcting BCH code.
///
/// # Example
///
/// ```
/// use harp_bch::BchCode;
/// use harp_ecc::LinearBlockCode;
/// use harp_gf2::BitVec;
///
/// let code = BchCode::dec(64)?;
/// assert_eq!(code.data_len(), 64);
/// assert_eq!(code.parity_len(), 14);
/// assert_eq!(code.codeword_len(), 78);
/// assert_eq!(code.correction_capability(), 2);
///
/// let data = BitVec::from_u64(64, 0xDEAD_BEEF_0BAD_F00D);
/// let codeword = code.encode(&data);
/// assert_eq!(code.decode(&codeword).dataword, data);
/// # Ok::<(), harp_bch::BchError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BchCode {
    field: Gf2mField,
    data_bits: usize,
    parity_bits: usize,
    generator: BinaryPoly,
    /// `parity_columns[i]` holds the parity contribution of data bit `i`
    /// (the coefficients of `x^(p+i) mod g(x)`), used for systematic
    /// encoding and for the GF(2) chargeability analysis.
    parity_columns: Vec<BitVec>,
    /// The parity block `A` (`p × k`) assembled from `parity_columns`.
    a: Gf2Matrix,
    /// The binary parity-check matrix `H` (`2m × (k+p)`).
    h: Gf2Matrix,
    /// Word-packed copy of `H` driving the hot syndrome path.
    kernel: SyndromeKernel,
}

impl BchCode {
    /// Constructs a double-error-correcting BCH code for `data_bits` data
    /// bits, choosing the smallest field that fits.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::EmptyDataword`] for a zero-length dataword and
    /// [`BchError::DatawordTooLong`] if no supported field fits the request.
    pub fn dec(data_bits: usize) -> Result<Self, BchError> {
        if data_bits == 0 {
            return Err(BchError::EmptyDataword);
        }
        for m in 3..=12u32 {
            match Self::dec_with_field(data_bits, m) {
                Ok(code) => return Ok(code),
                Err(BchError::DatawordTooLong { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(BchError::DatawordTooLong {
            data_bits,
            field_degree: 12,
            max_data_bits: (1 << 12) - 1 - 24,
        })
    }

    /// Constructs a double-error-correcting BCH code over GF(2^m).
    ///
    /// # Errors
    ///
    /// Returns [`BchError::EmptyDataword`] or [`BchError::DatawordTooLong`]
    /// if the requested geometry is unusable.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside the supported range `3..=12`.
    pub fn dec_with_field(data_bits: usize, m: u32) -> Result<Self, BchError> {
        if data_bits == 0 {
            return Err(BchError::EmptyDataword);
        }
        let field = Gf2mField::new(m);
        let m1 = BinaryPoly::minimal_polynomial(&field, field.alpha_pow(1));
        let m3 = BinaryPoly::minimal_polynomial(&field, field.alpha_pow(3));
        let generator = m1.lcm(&m3);
        let parity_bits = generator.degree().expect("generator polynomial is nonzero");
        let full_length = field.order() as usize;
        if data_bits + parity_bits > full_length {
            return Err(BchError::DatawordTooLong {
                data_bits,
                field_degree: m,
                max_data_bits: full_length - parity_bits,
            });
        }

        // Parity contribution of each data bit: x^(p + i) mod g(x).
        let parity_columns: Vec<BitVec> = (0..data_bits)
            .map(|i| {
                let remainder = BinaryPoly::monomial(parity_bits + i).rem(&generator);
                BitVec::from_indices(parity_bits, remainder.exponents())
            })
            .collect();
        let a = Gf2Matrix::from_cols(&parity_columns);

        let codeword_len = data_bits + parity_bits;
        let field_degree = field.degree() as usize;
        let h_cols: Vec<BitVec> = (0..codeword_len)
            .map(|pos| {
                let power = Self::power_for(data_bits, parity_bits, pos) as u32;
                let a1 = field.alpha_pow(power);
                let a3 = field.pow(field.alpha_pow(power), 3);
                let mut col = BitVec::zeros(2 * field_degree);
                for bit in 0..field_degree {
                    col.set(bit, a1 & (1 << bit) != 0);
                    col.set(field_degree + bit, a3 & (1 << bit) != 0);
                }
                col
            })
            .collect();
        let h = Gf2Matrix::from_cols(&h_cols);
        let kernel = SyndromeKernel::new(&h);

        Ok(Self {
            field,
            data_bits,
            parity_bits,
            generator,
            parity_columns,
            a,
            h,
            kernel,
        })
    }

    /// The underlying field GF(2^m).
    pub fn field(&self) -> &Gf2mField {
        &self.field
    }

    /// The generator polynomial `g(x)`.
    pub fn generator_polynomial(&self) -> &BinaryPoly {
        &self.generator
    }

    fn power_for(data_bits: usize, parity_bits: usize, pos: usize) -> usize {
        if pos < data_bits {
            parity_bits + pos
        } else {
            pos - data_bits
        }
    }

    /// Maps a codeword bit position to its polynomial power.
    ///
    /// Data bit `i` is the coefficient of `x^(p+i)`; parity bit `j` (at
    /// codeword position `k + j`) is the coefficient of `x^j`.
    pub fn power_of_position(&self, pos: usize) -> usize {
        assert!(
            pos < self.data_bits + self.parity_bits,
            "position {pos} out of range"
        );
        Self::power_for(self.data_bits, self.parity_bits, pos)
    }

    /// Maps a polynomial power back to a codeword bit position, or `None` if
    /// the power lies in the shortened (always-zero) region.
    pub fn position_of_power(&self, power: usize) -> Option<usize> {
        if power < self.parity_bits {
            Some(self.data_bits + power)
        } else if power < self.parity_bits + self.data_bits {
            Some(power - self.parity_bits)
        } else {
            None
        }
    }

    /// Computes the power-sum syndromes `(S₁, S₃)` of a stored codeword as
    /// GF(2^m) elements, derived from the binary syndrome (the kernel path).
    ///
    /// Both are zero exactly when the stored word is a valid codeword.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != codeword_len()`.
    pub fn power_sums(&self, stored: &BitVec) -> (u32, u32) {
        self.power_sums_from_syndrome(&self.syndrome(stored))
    }

    /// Splits a binary syndrome (as produced by
    /// [`LinearBlockCode::syndrome`]) into the power sums `(S₁, S₃)`:
    /// bits `0..m` are `S₁`, bits `m..2m` are `S₃`.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length is not `2m`.
    pub fn power_sums_from_syndrome(&self, syndrome: &BitVec) -> (u32, u32) {
        let m = self.field.degree() as usize;
        assert_eq!(syndrome.len(), 2 * m, "syndrome length mismatch");
        self.power_sums_from_word(syndrome.to_u64())
    }

    /// Splits a packed binary syndrome (as produced by the batched
    /// `SyndromeKernel::syndrome_words_into`) into the power sums
    /// `(S₁, S₃)`: bits `0..m` are `S₁`, bits `m..2m` are `S₃`.
    pub fn power_sums_from_word(&self, syndrome_word: u64) -> (u32, u32) {
        let m = self.field.degree() as usize;
        let mask = (1u64 << m) - 1;
        (
            (syndrome_word & mask) as u32,
            ((syndrome_word >> m) & mask) as u32,
        )
    }

    fn uncorrectable(&self, stored: &BitVec, syndrome: BitVec) -> DecodeResult {
        DecodeResult {
            dataword: stored.slice(0, self.data_bits),
            outcome: DecodeOutcome::DetectedUncorrectable,
            syndrome,
        }
    }

    /// Peterson's direct solution for `t = 2` on the power sums of a
    /// *nonzero* syndrome: the single shared error-locator computation behind
    /// both decode entry points (`decode` and `decode_with_syndrome_into`),
    /// so the scalar and burst read paths can never diverge on the math.
    fn resolve_nonzero_syndrome(&self, s1: u32, s3: u32) -> PetersonResolution {
        // Single-error hypothesis: S₃ = S₁³ with S₁ ≠ 0.
        if s1 != 0 && self.field.pow(s1, 3) == s3 {
            let power = self.field.log(s1) as usize;
            return match self.position_of_power(power) {
                Some(position) => PetersonResolution::Single(position),
                None => PetersonResolution::Uncorrectable,
            };
        }

        // Double-error hypothesis. With two errors S₁ ≠ 0, so S₁ = 0 with
        // S₃ ≠ 0 is already uncorrectable.
        if s1 == 0 {
            return PetersonResolution::Uncorrectable;
        }
        // Error-locator polynomial σ(x) = x² + S₁·x + (S₃/S₁ + S₁²); its
        // roots are the error locators α^e₁, α^e₂.
        let sigma2 = self
            .field
            .add(self.field.div(s3, s1), self.field.pow(s1, 2));
        if sigma2 == 0 {
            // A repeated root cannot correspond to two distinct positions.
            return PetersonResolution::Uncorrectable;
        }
        let mut roots = [0usize; 2];
        let mut root_count = 0usize;
        for power in 0..self.field.order() {
            let x = self.field.alpha_pow(power);
            let value = self.field.add(
                self.field.add(self.field.pow(x, 2), self.field.mul(s1, x)),
                sigma2,
            );
            if value == 0 {
                if root_count < 2 {
                    roots[root_count] = power as usize;
                }
                root_count += 1;
                if root_count > 2 {
                    break;
                }
            }
        }
        if root_count != 2 {
            return PetersonResolution::Uncorrectable;
        }
        match (
            self.position_of_power(roots[0]),
            self.position_of_power(roots[1]),
        ) {
            (Some(a), Some(b)) => PetersonResolution::Double(a, b),
            _ => PetersonResolution::Uncorrectable,
        }
    }
}

/// What Peterson's solution concluded about a nonzero syndrome (codeword
/// positions, already mapped out of the shortened region).
enum PetersonResolution {
    Single(usize),
    Double(usize, usize),
    Uncorrectable,
}

impl LinearBlockCode for BchCode {
    fn layout(&self) -> WordLayout {
        WordLayout::new(self.data_bits, self.parity_bits)
    }

    /// The correction capability `t` (always 2 for this crate).
    fn correction_capability(&self) -> usize {
        2
    }

    fn parity_check_matrix(&self) -> &Gf2Matrix {
        &self.h
    }

    fn parity_block(&self) -> &Gf2Matrix {
        &self.a
    }

    fn syndrome_kernel(&self) -> &SyndromeKernel {
        &self.kernel
    }

    /// Bounded-distance decodes a stored codeword using Peterson's direct
    /// solution for `t = 2`.
    ///
    /// The decoder has no access to the originally written data: with three
    /// or more raw errors it may *miscorrect*, flipping up to two additional
    /// (previously error-free) positions — the indirect errors studied by
    /// the HARP paper, here bounded by `t = 2` instead of 1.
    fn decode(&self, stored: &BitVec) -> DecodeResult {
        let syndrome = self.syndrome(stored);
        let (s1, s3) = self.power_sums_from_syndrome(&syndrome);
        if s1 == 0 && s3 == 0 {
            return DecodeResult {
                dataword: stored.slice(0, self.data_bits),
                outcome: DecodeOutcome::NoErrorDetected,
                syndrome,
            };
        }
        match self.resolve_nonzero_syndrome(s1, s3) {
            PetersonResolution::Single(position) => {
                let mut corrected = stored.clone();
                corrected.flip(position);
                DecodeResult {
                    dataword: corrected.slice(0, self.data_bits),
                    outcome: DecodeOutcome::corrected(position),
                    syndrome,
                }
            }
            PetersonResolution::Double(a, b) => {
                let mut corrected = stored.clone();
                corrected.flip(a);
                corrected.flip(b);
                DecodeResult {
                    dataword: corrected.slice(0, self.data_bits),
                    outcome: DecodeOutcome::corrected_many([a, b]),
                    syndrome,
                }
            }
            PetersonResolution::Uncorrectable => self.uncorrectable(stored, syndrome),
        }
    }

    fn description(&self) -> String {
        format!(
            "DEC BCH ({}, {}) over {}",
            self.data_bits + self.parity_bits,
            self.data_bits,
            self.field
        )
    }

    /// The allocation-free twin of [`BchCode::decode`] for the burst read
    /// path: same Peterson resolution, but the power sums come straight from
    /// the packed syndrome and all buffers in `out` are reused.
    fn decode_with_syndrome_into(
        &self,
        stored: &BitVec,
        syndrome_word: u64,
        out: &mut DecodeResult,
    ) {
        assert_eq!(
            stored.len(),
            self.data_bits + self.parity_bits,
            "stored codeword length mismatch"
        );
        let k = self.data_bits;
        let m = self.field.degree() as usize;
        out.syndrome.assign_u64(2 * m, syndrome_word);
        out.dataword.copy_prefix_from(stored, k);
        let (s1, s3) = self.power_sums_from_word(syndrome_word);
        if s1 == 0 && s3 == 0 {
            out.outcome = DecodeOutcome::NoErrorDetected;
            return;
        }
        match self.resolve_nonzero_syndrome(s1, s3) {
            PetersonResolution::Single(position) => {
                // Parity-bit corrections never touch the dataword.
                if position < k {
                    out.dataword.flip(position);
                }
                out.outcome = DecodeOutcome::corrected(position);
            }
            PetersonResolution::Double(a, b) => {
                let mut positions = CorrectedPositions::new();
                for position in [a, b] {
                    positions.push(position);
                    if position < k {
                        out.dataword.flip(position);
                    }
                }
                out.outcome = DecodeOutcome::Corrected { positions };
            }
            PetersonResolution::Uncorrectable => {
                out.outcome = DecodeOutcome::DetectedUncorrectable;
            }
        }
    }
}

impl fmt::Display for BchCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(code: &BchCode, rng: &mut StdRng) -> BitVec {
        (0..code.data_len()).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn paper_geometries() {
        let code64 = BchCode::dec(64).unwrap();
        assert_eq!(code64.data_len(), 64);
        assert_eq!(code64.parity_len(), 14);
        assert_eq!(code64.codeword_len(), 78);
        assert_eq!(code64.field().degree(), 7);

        let code128 = BchCode::dec(128).unwrap();
        assert_eq!(code128.parity_len(), 16);
        assert_eq!(code128.codeword_len(), 144);
        assert_eq!(code128.field().degree(), 8);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(BchCode::dec(0), Err(BchError::EmptyDataword));
        assert!(matches!(
            BchCode::dec_with_field(1000, 7),
            Err(BchError::DatawordTooLong {
                field_degree: 7,
                ..
            })
        ));
        let err = BchCode::dec_with_field(1000, 7).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn generator_divides_x_n_plus_1() {
        let code = BchCode::dec(64).unwrap();
        let n = code.field().order() as usize;
        let x_n_plus_1 = BinaryPoly::monomial(n).add(&BinaryPoly::one());
        assert!(code.generator_polynomial().divides(&x_n_plus_1));
        assert_eq!(code.generator_polynomial().degree(), Some(14));
    }

    #[test]
    fn encoding_is_systematic() {
        let code = BchCode::dec(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let data = random_data(&code, &mut rng);
            let codeword = code.encode(&data);
            assert_eq!(codeword.slice(0, code.data_len()), data);
        }
    }

    #[test]
    fn codewords_have_zero_syndromes_and_satisfy_h() {
        let code = BchCode::dec(64).unwrap();
        let h = code.parity_check_matrix();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let data = random_data(&code, &mut rng);
            let codeword = code.encode(&data);
            assert_eq!(code.power_sums(&codeword), (0, 0));
            assert!(h.mul_vec(&codeword).is_zero());
            assert!(code.syndrome(&codeword).is_zero());
        }
    }

    #[test]
    fn kernel_syndrome_matches_power_sum_computation() {
        // The binary syndrome through the batched kernel carries exactly the
        // power sums: bits 0..m are S₁, bits m..2m are S₃, computed the slow
        // way with the log/antilog tables.
        let code = BchCode::dec(64).unwrap();
        let data = BitVec::from_u64(64, 0x0F0F_F0F0_1234_8765);
        let mut stored = code.encode(&data);
        stored.flip(3);
        stored.flip(41);
        stored.flip(70);
        let (s1, s3) = code.power_sums(&stored);
        let mut slow_s1 = 0u32;
        let mut slow_s3 = 0u32;
        for pos in stored.iter_ones() {
            let power = code.power_of_position(pos) as u32;
            slow_s1 ^= code.field().alpha_pow(power);
            slow_s3 ^= code.field().alpha_pow(3 * power);
        }
        assert_eq!((s1, s3), (slow_s1, slow_s3));
    }

    #[test]
    fn every_single_error_is_corrected() {
        let code = BchCode::dec(64).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = random_data(&code, &mut rng);
        for pos in 0..code.codeword_len() {
            let error = BitVec::from_indices(code.codeword_len(), [pos]);
            let result = code.encode_corrupt_decode(&data, &error);
            assert_eq!(result.dataword, data, "single error at {pos}");
            assert_eq!(result.outcome, DecodeOutcome::corrected(pos));
        }
    }

    #[test]
    fn every_double_error_is_corrected() {
        let code = BchCode::dec(16).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_data(&code, &mut rng);
        let n = code.codeword_len();
        for a in 0..n {
            for b in (a + 1)..n {
                let error = BitVec::from_indices(n, [a, b]);
                let result = code.encode_corrupt_decode(&data, &error);
                assert_eq!(result.dataword, data, "double error at ({a}, {b})");
                assert_eq!(result.outcome, DecodeOutcome::corrected_many([a, b]));
            }
        }
    }

    #[test]
    fn triple_errors_are_never_silently_accepted() {
        // Designed distance 5 means any weight-3 error pattern has a nonzero
        // syndrome: the decoder either miscorrects or reports uncorrectable,
        // but never claims "no error".
        let code = BchCode::dec(16).unwrap();
        let data = BitVec::ones(16);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let mut positions = std::collections::BTreeSet::new();
            while positions.len() < 3 {
                positions.insert(rng.gen_range(0..code.codeword_len()));
            }
            let error = BitVec::from_indices(code.codeword_len(), positions.iter().copied());
            let result = code.encode_corrupt_decode(&data, &error);
            assert_ne!(result.outcome, DecodeOutcome::NoErrorDetected);
        }
    }

    #[test]
    fn miscorrections_flip_at_most_two_extra_bits() {
        // Insight 2 of the paper, generalized: a t-error-correcting code can
        // introduce at most t indirect errors at once.
        let code = BchCode::dec(32).unwrap();
        let data = BitVec::ones(32);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let weight = rng.gen_range(3..6);
            let mut positions = std::collections::BTreeSet::new();
            while positions.len() < weight {
                positions.insert(rng.gen_range(0..code.codeword_len()));
            }
            let error = BitVec::from_indices(code.codeword_len(), positions.iter().copied());
            let result = code.encode_corrupt_decode(&data, &error);
            let post: std::collections::BTreeSet<usize> =
                result.post_correction_errors(&data).collect();
            let direct: std::collections::BTreeSet<usize> = positions
                .iter()
                .copied()
                .filter(|&p| p < code.data_len())
                .collect();
            let indirect: Vec<usize> = post.difference(&direct).copied().collect();
            assert!(
                indirect.len() <= code.correction_capability(),
                "indirect errors {indirect:?} exceed t"
            );
        }
    }

    #[test]
    fn parity_block_matches_encoder() {
        let code = BchCode::dec(24).unwrap();
        let a = code.parity_block();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let data = random_data(&code, &mut rng);
            let codeword = code.encode(&data);
            let parity = codeword.slice(code.data_len(), code.codeword_len());
            assert_eq!(a.mul_vec(&data), parity);
        }
    }

    #[test]
    fn position_power_mapping_round_trips() {
        let code = BchCode::dec(64).unwrap();
        for pos in 0..code.codeword_len() {
            let power = code.power_of_position(pos);
            assert_eq!(code.position_of_power(power), Some(pos));
        }
        // Powers in the shortened region map to no position.
        assert_eq!(code.position_of_power(code.codeword_len()), None);
        assert_eq!(code.position_of_power(126), None);
    }

    #[test]
    fn display_names_the_code() {
        let code = BchCode::dec(64).unwrap();
        assert_eq!(code.to_string(), "DEC BCH (78, 64) over GF(2^7)");
        assert_eq!(code.description(), "DEC BCH (78, 64) over GF(2^7)");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn encode_decode_round_trip(
                data_value in any::<u64>(),
                k in proptest::sample::select(vec![8usize, 16, 32, 64]),
            ) {
                let code = BchCode::dec(k).unwrap();
                let data = BitVec::from_u64(64, data_value).slice(0, k);
                let result = code.decode(&code.encode(&data));
                prop_assert_eq!(result.dataword, data);
                prop_assert_eq!(result.outcome, DecodeOutcome::NoErrorDetected);
            }

            #[test]
            fn encoding_is_linear(a in any::<u64>(), b in any::<u64>()) {
                let code = BchCode::dec(64).unwrap();
                let da = BitVec::from_u64(64, a);
                let db = BitVec::from_u64(64, b);
                let sum = &da ^ &db;
                prop_assert_eq!(code.encode(&sum), &code.encode(&da) ^ &code.encode(&db));
            }

            #[test]
            fn any_double_error_is_corrected_property(
                data_value in any::<u64>(),
                a in 0usize..78,
                b in 0usize..78,
            ) {
                prop_assume!(a != b);
                let code = BchCode::dec(64).unwrap();
                let data = BitVec::from_u64(64, data_value);
                let error = BitVec::from_indices(78, [a, b]);
                let result = code.encode_corrupt_decode(&data, &error);
                prop_assert_eq!(result.dataword, data);
                prop_assert_eq!(result.outcome.correction_count(), 2);
            }

            #[test]
            fn low_weight_errors_are_never_silent(
                positions in proptest::collection::btree_set(0usize..78, 1..5),
            ) {
                // Designed distance 5: any error of weight 1..=4 has a
                // nonzero syndrome and therefore cannot decode as "no error".
                let code = BchCode::dec(64).unwrap();
                let data = BitVec::ones(64);
                let error = BitVec::from_indices(78, positions.iter().copied());
                let result = code.encode_corrupt_decode(&data, &error);
                prop_assert_ne!(result.outcome, DecodeOutcome::NoErrorDetected);
            }

            #[test]
            fn indirect_errors_bounded_by_correction_capability(
                data_value in any::<u64>(),
                positions in proptest::collection::btree_set(0usize..78, 3..7),
            ) {
                let code = BchCode::dec(64).unwrap();
                let data = BitVec::from_u64(64, data_value);
                let error = BitVec::from_indices(78, positions.iter().copied());
                let result = code.encode_corrupt_decode(&data, &error);
                let post: std::collections::BTreeSet<usize> =
                    result.post_correction_errors(&data).collect();
                let direct: std::collections::BTreeSet<usize> =
                    positions.iter().copied().filter(|&p| p < 64).collect();
                let indirect = post.difference(&direct).count();
                prop_assert!(indirect <= code.correction_capability());
            }
        }
    }

    #[test]
    fn errors_in_the_shortened_region_are_not_hallucinated() {
        // Corrupt a codeword so heavily that the single-error hypothesis
        // points into the shortened region; the decoder must not flip a
        // nonexistent bit. We synthesize this by brute force: find a triple
        // error whose decode is DetectedUncorrectable.
        let code = BchCode::dec(8).unwrap();
        let data = BitVec::ones(8);
        let mut saw_uncorrectable = false;
        let n = code.codeword_len();
        'outer: for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let error = BitVec::from_indices(n, [a, b, c]);
                    let result = code.encode_corrupt_decode(&data, &error);
                    if result.outcome == DecodeOutcome::DetectedUncorrectable {
                        saw_uncorrectable = true;
                        // Uncorrectable reads pass the stored data bits
                        // through: the dataword shows exactly the direct
                        // errors, nothing more.
                        let mut expected = data.clone();
                        for &p in &[a, b, c] {
                            if p < 8 {
                                expected.flip(p);
                            }
                        }
                        assert_eq!(result.dataword, expected);
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            saw_uncorrectable,
            "expected at least one uncorrectable triple"
        );
    }
}
