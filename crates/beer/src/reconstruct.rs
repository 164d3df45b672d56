//! Reconstructing an equivalent parity-check matrix from data-visible
//! observations, generically over the target code family.
//!
//! The true column arrangement of a proprietary on-die ECC code cannot be
//! determined from outside the chip — only its *data-visible* behaviour can.
//! This module finds a concrete systematic code — SEC Hamming or SEC-DED
//! extended Hamming, selected by [`CodeFamily`] — that reproduces the
//! observed behaviour, which is all that BEEP-style pattern crafting and
//! HARP-A-style indirect-error prediction require.
//!
//! The search works on the observation that every data-visible miscorrection
//! is a *linear* statement about the unknown data columns. A charged pattern
//! `S` that miscorrects data bit `m` means the syndrome of `S` equals the
//! column of `m`, i.e. `⊕_{i ∈ S} c_i ⊕ c_m = 0`; a pattern the decoder
//! reports clean means `⊕_{i ∈ S} c_i = 0`. Every row of the unknown parity
//! block must therefore lie in the null space of the relation matrix. The
//! solver computes that null space exactly (GF(2) Gaussian elimination — the
//! role Z3 plays in the original BEER tool) and then searches the residual
//! freedom for an assignment whose complete profile matches the observation,
//! which also enforces the "no data-visible miscorrection" constraints.
//!
//! The family enters the constraint system only through the *known* part of
//! its columns: an extended Hamming code appends the all-ones overall-parity
//! row, so every extended column contributes a fixed `1` there and a linear
//! dependence among extended columns must involve an **even** number of
//! them. That one rule is what makes weight-2 miscorrections infeasible for
//! SEC-DED (`|S ∪ {m}| = 3` is odd) and what the ROADMAP calls the
//! extended-column constraint rows; everything else — relation extraction,
//! null-space solve, residual-freedom search, consistency acceptance — is
//! family-agnostic.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::{
    CodeError, DecodeResult, ExtendedHammingCode, HammingCode, LinearBlockCode, WordLayout,
};
use harp_gf2::{solve::nullspace_of_relations, BitVec, Gf2Matrix, SyndromeKernel};

use crate::profile::{DecodeFlag, MiscorrectionProfile, VisibleErrorProfile};

/// Why reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconstructError {
    /// The requested number of parity bits cannot represent the dataword
    /// (fewer parity bits than the target family needs).
    TooFewParityBits {
        /// Requested parity width.
        parity_bits: usize,
        /// Minimum parity width for the profile's dataword length.
        required: usize,
    },
    /// The observations contradict every code in the target family: either a
    /// recorded outcome is structurally impossible (e.g. a weight-2
    /// miscorrection under SEC-DED, whose overall-parity row forces every
    /// linear column dependence to involve an even number of columns), or
    /// the relation null space admits only the all-zero assignment.
    InconsistentProfile,
    /// No consistent assignment was found within the attempt budget. Either
    /// the profile is not realizable with the requested parity width or the
    /// randomized search needs more attempts.
    AttemptsExhausted {
        /// Number of assignments that were tried.
        attempts: usize,
    },
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::TooFewParityBits {
                parity_bits,
                required,
            } => write!(
                f,
                "{parity_bits} parity bits cannot encode the dataword (need at least {required})"
            ),
            ReconstructError::InconsistentProfile => write!(
                f,
                "the observed profile is inconsistent with every code in the target family"
            ),
            ReconstructError::AttemptsExhausted { attempts } => {
                write!(f, "no consistent code found within {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// The systematic code family a reconstruction targets.
///
/// This is the dispatch seam of the reverse-engineering layer: the family
/// decides how many parity bits a dataword needs, which linear relations an
/// observation implies (through its known column structure), and how a
/// solved column assignment is materialized into a concrete code. No other
/// part of the search knows which family it is serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeFamily {
    /// Systematic SEC Hamming (`HammingCode`), the paper's configuration.
    Hamming,
    /// Systematic SEC-DED extended Hamming (`ExtendedHammingCode`).
    ExtendedHamming,
}

impl CodeFamily {
    /// Both supported families, in reconstruction-priority order.
    pub const ALL: [CodeFamily; 2] = [CodeFamily::Hamming, CodeFamily::ExtendedHamming];

    /// Minimal number of parity bits a code of this family needs for a
    /// `data_bits`-bit dataword.
    pub fn min_parity_bits(self, data_bits: usize) -> usize {
        let inner = harp_ecc::CodeShape::min_parity_bits(data_bits);
        match self {
            CodeFamily::Hamming => inner,
            CodeFamily::ExtendedHamming => inner + 1,
        }
    }

    /// How many of `parity_bits` total parity bits are *unknown* per data
    /// column (the extended family's overall-parity row is fixed, so its
    /// inner width is one less).
    fn inner_parity_bits(self, parity_bits: usize) -> usize {
        match self {
            CodeFamily::Hamming => parity_bits,
            CodeFamily::ExtendedHamming => parity_bits - 1,
        }
    }

    /// Whether a linear dependence among `count` of this family's columns is
    /// structurally possible. Extended Hamming columns all carry a fixed `1`
    /// in the overall-parity row, so only even-sized dependences exist.
    fn admits_relation(self, count: usize) -> bool {
        match self {
            CodeFamily::Hamming => true,
            CodeFamily::ExtendedHamming => count.is_multiple_of(2),
        }
    }

    /// Extracts the linear relation rows over the `k` unknown data columns
    /// implied by the profile's observations.
    ///
    /// # Errors
    ///
    /// Returns [`ReconstructError::InconsistentProfile`] if any observation
    /// is structurally impossible for this family.
    pub fn relation_rows(
        self,
        profile: &VisibleErrorProfile,
    ) -> Result<Vec<BitVec>, ReconstructError> {
        let k = profile.data_bits();
        let mut rows = Vec::new();
        for (charged, response) in profile.patterns() {
            let indices: Vec<usize> = if let Some(m) = response.miscorrection(&charged) {
                // Syndrome of the charged set equals column m.
                charged.iter().copied().chain([m]).collect()
            } else if response.flag == DecodeFlag::Clean {
                // Zero syndrome: the charged columns themselves cancel.
                charged.clone()
            } else {
                // Detected / invisibly-corrected outcomes are disjunctive
                // ("not any data column"); the consistency acceptance test
                // enforces them instead of the linear system.
                continue;
            };
            if !self.admits_relation(indices.len()) {
                return Err(ReconstructError::InconsistentProfile);
            }
            rows.push(BitVec::from_indices(k, indices));
        }
        Ok(rows)
    }

    /// Generates a uniform-random code of this family for a `data_bits`-bit
    /// dataword, deterministically derived from `seed` — the family-dispatch
    /// twin of `HammingCode::random` / `ExtendedHammingCode::random`, used
    /// wherever an experiment needs a secret code of a parameterized family.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::EmptyDataword`] if `data_bits == 0`.
    pub fn random(self, data_bits: usize, seed: u64) -> Result<ReconstructedCode, CodeError> {
        match self {
            CodeFamily::Hamming => {
                HammingCode::random(data_bits, seed).map(ReconstructedCode::Hamming)
            }
            CodeFamily::ExtendedHamming => {
                ExtendedHammingCode::random(data_bits, seed).map(ReconstructedCode::ExtendedHamming)
            }
        }
    }

    /// Materializes a solved column assignment into a concrete code of this
    /// family.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's [`CodeError`] for degenerate
    /// assignments (zero / unit / duplicate columns).
    pub fn build(self, data_columns: Vec<BitVec>) -> Result<ReconstructedCode, CodeError> {
        match self {
            CodeFamily::Hamming => {
                HammingCode::from_data_columns(data_columns).map(ReconstructedCode::Hamming)
            }
            CodeFamily::ExtendedHamming => ExtendedHammingCode::from_data_columns(data_columns)
                .map(ReconstructedCode::ExtendedHamming),
        }
    }
}

impl fmt::Display for CodeFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeFamily::Hamming => f.write_str("SEC Hamming"),
            CodeFamily::ExtendedHamming => f.write_str("SEC-DED extended Hamming"),
        }
    }
}

/// A code recovered by family-generic reconstruction.
///
/// Implements [`LinearBlockCode`] by delegation, so a recovered code drops
/// into every generic consumer (profilers, `ErrorSpace`, equivalence checks)
/// without the caller matching on the family.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconstructedCode {
    /// A recovered SEC Hamming code.
    Hamming(HammingCode),
    /// A recovered SEC-DED extended Hamming code.
    ExtendedHamming(ExtendedHammingCode),
}

impl ReconstructedCode {
    /// The family this code belongs to.
    pub fn family(&self) -> CodeFamily {
        match self {
            ReconstructedCode::Hamming(_) => CodeFamily::Hamming,
            ReconstructedCode::ExtendedHamming(_) => CodeFamily::ExtendedHamming,
        }
    }

    /// The recovered code as a SEC Hamming code, if that is its family.
    pub fn as_hamming(&self) -> Option<&HammingCode> {
        match self {
            ReconstructedCode::Hamming(code) => Some(code),
            ReconstructedCode::ExtendedHamming(_) => None,
        }
    }

    /// The recovered code as a SEC-DED code, if that is its family.
    pub fn as_extended_hamming(&self) -> Option<&ExtendedHammingCode> {
        match self {
            ReconstructedCode::Hamming(_) => None,
            ReconstructedCode::ExtendedHamming(code) => Some(code),
        }
    }

    fn inner(&self) -> &dyn LinearBlockCode {
        match self {
            ReconstructedCode::Hamming(code) => code,
            ReconstructedCode::ExtendedHamming(code) => code,
        }
    }
}

impl LinearBlockCode for ReconstructedCode {
    fn layout(&self) -> WordLayout {
        self.inner().layout()
    }

    fn correction_capability(&self) -> usize {
        self.inner().correction_capability()
    }

    fn parity_check_matrix(&self) -> &Gf2Matrix {
        self.inner().parity_check_matrix()
    }

    fn parity_block(&self) -> &Gf2Matrix {
        self.inner().parity_block()
    }

    fn syndrome_kernel(&self) -> &SyndromeKernel {
        self.inner().syndrome_kernel()
    }

    fn decode(&self, stored: &BitVec) -> DecodeResult {
        self.inner().decode(stored)
    }

    fn description(&self) -> String {
        self.inner().description()
    }

    fn decode_with_syndrome_into(
        &self,
        stored: &BitVec,
        syndrome_word: u64,
        out: &mut DecodeResult,
    ) {
        self.inner()
            .decode_with_syndrome_into(stored, syndrome_word, out)
    }
}

impl fmt::Display for ReconstructedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description())
    }
}

/// The family-agnostic residual-freedom search: every candidate parity block
/// is a random GF(2) mixture of the relation null-space basis, so it
/// satisfies every extracted relation by construction; `accept` performs the
/// family build plus the full-profile consistency test.
fn search_assignment<T>(
    unknowns: usize,
    inner_parity_bits: usize,
    relations: &[BitVec],
    seed: u64,
    max_attempts: usize,
    mut accept: impl FnMut(Vec<BitVec>) -> Option<T>,
) -> Result<T, ReconstructError> {
    let basis = nullspace_of_relations(relations, unknowns);
    if basis.is_empty() {
        return Err(ReconstructError::InconsistentProfile);
    }
    let basis_matrix = Gf2Matrix::from_rows(&basis);
    let dim = basis.len();

    // lint:allow(rng-salt) the seed is this search's API parameter; callers choose the stream
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut attempts = 0;
    while attempts < max_attempts {
        attempts += 1;
        // A random mixing matrix M (inner_parity_bits × dim): the candidate
        // parity block is M · basis, so its rows automatically satisfy every
        // recorded relation.
        let mixing = Gf2Matrix::from_fn(inner_parity_bits, dim, |_, _| rng.gen_bool(0.5));
        let candidate_block = mixing.mul(&basis_matrix);
        let data_columns: Vec<BitVec> = (0..unknowns).map(|i| candidate_block.col(i)).collect();
        // Invalid candidates (duplicate / zero / identity-colliding columns)
        // simply move on to the next assignment.
        if let Some(found) = accept(data_columns) {
            return Ok(found);
        }
    }
    Err(ReconstructError::AttemptsExhausted { attempts })
}

/// Reconstructs a code of the requested [`CodeFamily`] whose data-visible
/// behaviour matches `profile`, using `parity_bits` total parity bits.
///
/// The returned code is *equivalent* to the chip's secret code (identical
/// visible-error profile), not necessarily identical to it — the residual
/// ambiguity is invisible from outside the chip.
///
/// # Errors
///
/// Returns [`ReconstructError::TooFewParityBits`] if the geometry is
/// impossible, [`ReconstructError::InconsistentProfile`] if the observations
/// contradict every code in the family, and
/// [`ReconstructError::AttemptsExhausted`] if the randomized assignment
/// search does not converge within `max_attempts`.
///
/// # Example
///
/// ```
/// use harp_beer::{data_visible_equivalent, reconstruct_code, CodeFamily, VisibleErrorProfile};
/// use harp_ecc::{ExtendedHammingCode, LinearBlockCode};
///
/// // A secret SEC-DED code: every data-bit pair is detected, so only the
/// // weight-3 observations in the profile expose its columns.
/// let secret = ExtendedHammingCode::random(8, 5)?;
/// let profile = VisibleErrorProfile::from_code(&secret);
/// let recovered = reconstruct_code(
///     &profile,
///     CodeFamily::ExtendedHamming,
///     secret.parity_len(),
///     1,
///     20_000,
/// )
/// .expect("reconstruction converges for small codes");
/// assert!(profile.is_data_visible_consistent_with(&recovered));
/// assert!(data_visible_equivalent(&secret, &recovered, 3));
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
pub fn reconstruct_code(
    profile: &VisibleErrorProfile,
    family: CodeFamily,
    parity_bits: usize,
    seed: u64,
    max_attempts: usize,
) -> Result<ReconstructedCode, ReconstructError> {
    let k = profile.data_bits();
    let required = family.min_parity_bits(k);
    if parity_bits < required {
        return Err(ReconstructError::TooFewParityBits {
            parity_bits,
            required,
        });
    }
    let relations = family.relation_rows(profile)?;
    // Acceptance is *data-visible* consistency: the candidate must reproduce
    // the post-correction errors of every recorded pattern, but not the
    // detected-vs-invisibly-corrected flag split — which syndromes land on
    // parity columns is residual freedom that data reads cannot pin down
    // (and exactly the ambiguity `data_visible_equivalent` quotients out).
    search_assignment(
        k,
        family.inner_parity_bits(parity_bits),
        &relations,
        seed,
        max_attempts,
        |data_columns| {
            family
                .build(data_columns)
                .ok()
                .filter(|code| profile.is_data_visible_consistent_with(code))
        },
    )
}

/// Reconstructs a systematic SEC Hamming code whose data-visible behaviour
/// matches a pairwise [`MiscorrectionProfile`], using `parity_bits` parity
/// bits.
///
/// This is the pairs-only specialization of [`reconstruct_code`] kept for
/// the classic BEER workflow (SEC Hamming is the paper's configuration and
/// pairwise miscorrections fully determine it). Reverse-engineering a
/// SEC-DED code needs the richer [`VisibleErrorProfile`] observables —
/// decode flags and weight-3 responses — so it goes through
/// [`reconstruct_code`] with [`CodeFamily::ExtendedHamming`].
///
/// # Errors
///
/// Returns [`ReconstructError::TooFewParityBits`] if the geometry is
/// impossible, [`ReconstructError::InconsistentProfile`] if the recorded
/// miscorrections admit no Hamming code at all, and
/// [`ReconstructError::AttemptsExhausted`] if the randomized assignment
/// search does not converge within `max_attempts`.
///
/// # Example
///
/// ```
/// use harp_beer::{reconstruct_equivalent_code, MiscorrectionProfile};
/// use harp_ecc::{HammingCode, LinearBlockCode};
///
/// let secret = HammingCode::random(8, 3)?;
/// let profile = MiscorrectionProfile::from_code(&secret);
/// let recovered = reconstruct_equivalent_code(&profile, secret.parity_len(), 1, 20_000)
///     .expect("reconstruction converges for small codes");
/// assert!(profile.is_consistent_with(&recovered));
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
pub fn reconstruct_equivalent_code(
    profile: &MiscorrectionProfile,
    parity_bits: usize,
    seed: u64,
    max_attempts: usize,
) -> Result<HammingCode, ReconstructError> {
    let k = profile.data_bits();
    let required = CodeFamily::Hamming.min_parity_bits(k);
    if parity_bits < required {
        return Err(ReconstructError::TooFewParityBits {
            parity_bits,
            required,
        });
    }

    // Linear relations among the unknown data columns: each recorded
    // miscorrection `(i, j) → m` states `c_i ⊕ c_j ⊕ c_m = 0`.
    let mut relations = Vec::new();
    for (&(i, j), &target) in profile.pairs() {
        if let Some(m) = target {
            relations.push(BitVec::from_indices(k, [i, j, m]));
        }
    }
    search_assignment(k, parity_bits, &relations, seed, max_attempts, |columns| {
        HammingCode::from_data_columns(columns)
            .ok()
            .filter(|code| profile.is_consistent_with(code))
    })
}

/// Returns `true` if two codes are indistinguishable from outside the chip
/// for raw error patterns confined to the data bits, up to `max_weight`
/// simultaneous raw errors.
///
/// Weight 1 and 2 agreement is exactly profile agreement; weight 3 covers
/// the combinations BEEP exercises when crafting patterns around an already
/// identified at-risk bit — and is the lowest weight at which a SEC-DED
/// code's columns are visible at all.
///
/// # Panics
///
/// Panics if the codes have different dataword lengths or if `max_weight`
/// is 0 or greater than 3.
pub fn data_visible_equivalent<A, B>(a: &A, b: &B, max_weight: usize) -> bool
where
    A: LinearBlockCode + ?Sized,
    B: LinearBlockCode + ?Sized,
{
    assert_eq!(a.data_len(), b.data_len(), "dataword lengths differ");
    assert!((1..=3).contains(&max_weight), "max_weight must be 1..=3");
    let k = a.data_len();
    fn visible<C: LinearBlockCode + ?Sized>(code: &C, positions: &[usize]) -> Vec<usize> {
        let data = BitVec::zeros(code.data_len());
        let error = BitVec::from_indices(code.codeword_len(), positions.iter().copied());
        code.encode_corrupt_decode(&data, &error)
            .post_correction_errors(&data)
            .collect()
    }
    let mut stack: Vec<Vec<usize>> = (0..k).map(|i| vec![i]).collect();
    while let Some(positions) = stack.pop() {
        if visible(a, &positions) != visible(b, &positions) {
            return false;
        }
        if positions.len() < max_weight {
            let last = *positions.last().expect("non-empty subset");
            for next in (last + 1)..k {
                let mut extended = positions.clone();
                extended.push(next);
                stack.push(extended);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_recovers_an_equivalent_small_code() {
        for seed in 0..4u64 {
            let secret = HammingCode::random(8, seed).unwrap();
            let profile = MiscorrectionProfile::from_code(&secret);
            let recovered =
                reconstruct_equivalent_code(&profile, secret.parity_len(), seed, 50_000)
                    .expect("reconstruction converges for 8-bit datawords");
            assert!(profile.is_consistent_with(&recovered), "seed {seed}");
            assert!(
                data_visible_equivalent(&secret, &recovered, 2),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn reconstruction_recovers_an_equivalent_16_bit_code() {
        let secret = HammingCode::random(16, 11).unwrap();
        let profile = MiscorrectionProfile::from_code(&secret);
        let recovered = reconstruct_equivalent_code(&profile, secret.parity_len(), 7, 200_000)
            .expect("reconstruction converges for 16-bit datawords");
        assert!(profile.is_consistent_with(&recovered));
        // Pair-level equivalence is what the profile guarantees.
        assert!(data_visible_equivalent(&secret, &recovered, 2));
    }

    #[test]
    fn family_generic_reconstruction_recovers_a_secded_code() {
        for seed in 0..3u64 {
            let secret = ExtendedHammingCode::random(8, seed).unwrap();
            let profile = VisibleErrorProfile::from_code(&secret);
            let recovered = reconstruct_code(
                &profile,
                CodeFamily::ExtendedHamming,
                secret.parity_len(),
                seed,
                50_000,
            )
            .expect("reconstruction converges for 8-bit SEC-DED datawords");
            assert_eq!(recovered.family(), CodeFamily::ExtendedHamming);
            assert!(recovered.as_extended_hamming().is_some());
            assert!(
                profile.is_data_visible_consistent_with(&recovered),
                "seed {seed}"
            );
            assert!(
                data_visible_equivalent(&secret, &recovered, 3),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn family_generic_reconstruction_recovers_a_hamming_code() {
        let secret = HammingCode::random(8, 6).unwrap();
        let profile = VisibleErrorProfile::from_code(&secret);
        let recovered = reconstruct_code(
            &profile,
            CodeFamily::Hamming,
            secret.parity_len(),
            2,
            50_000,
        )
        .expect("reconstruction converges for 8-bit datawords");
        assert_eq!(recovered.family(), CodeFamily::Hamming);
        assert!(recovered.as_hamming().is_some());
        assert!(data_visible_equivalent(&secret, &recovered, 3));
    }

    #[test]
    fn a_sec_profile_is_inconsistent_with_the_extended_family() {
        // A Hamming code with at least one pairwise miscorrection cannot be
        // explained by any SEC-DED code: the extended family's overall-parity
        // row makes weight-2 miscorrections structurally impossible.
        let secret = HammingCode::random(8, 7).unwrap();
        let profile = VisibleErrorProfile::from_code(&secret);
        assert!(profile.miscorrecting_pair_count() > 0);
        assert_eq!(
            reconstruct_code(
                &profile,
                CodeFamily::ExtendedHamming,
                CodeFamily::ExtendedHamming.min_parity_bits(8),
                0,
                1_000,
            ),
            Err(ReconstructError::InconsistentProfile)
        );
    }

    #[test]
    fn contradictory_relations_are_reported_as_inconsistent() {
        // Four weight-3 relation rows over four data bits with full rank:
        // the null space is trivial, so no code can satisfy the recorded
        // miscorrections and the solver reports the profile itself as the
        // problem (not a spent attempt budget).
        let mut pairs = std::collections::BTreeMap::new();
        pairs.insert((0usize, 1usize), Some(2usize));
        pairs.insert((1usize, 3usize), Some(0usize));
        pairs.insert((2usize, 3usize), Some(0usize));
        pairs.insert((1usize, 2usize), Some(3usize));
        let profile = MiscorrectionProfile::new(4, pairs);
        assert_eq!(
            reconstruct_equivalent_code(&profile, 3, 0, 10_000),
            Err(ReconstructError::InconsistentProfile)
        );
    }

    #[test]
    fn too_few_parity_bits_is_reported() {
        let secret = HammingCode::random(16, 0).unwrap();
        let profile = MiscorrectionProfile::from_code(&secret);
        assert!(matches!(
            reconstruct_equivalent_code(&profile, 2, 0, 10),
            Err(ReconstructError::TooFewParityBits { required, .. }) if required > 2
        ));
        // The extended family needs one more parity bit than plain Hamming.
        let visible = VisibleErrorProfile::from_code(&secret);
        assert!(matches!(
            reconstruct_code(&visible, CodeFamily::ExtendedHamming, 5, 0, 10),
            Err(ReconstructError::TooFewParityBits { required: 6, .. })
        ));
    }

    #[test]
    fn attempt_budget_is_respected() {
        let secret = HammingCode::random(16, 3).unwrap();
        let profile = MiscorrectionProfile::from_code(&secret);
        // One attempt is (almost surely) not enough; the error reports it.
        match reconstruct_equivalent_code(&profile, secret.parity_len(), 12345, 1) {
            Err(ReconstructError::AttemptsExhausted { attempts }) => assert_eq!(attempts, 1),
            Ok(code) => assert!(profile.is_consistent_with(&code)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn a_code_is_equivalent_to_itself() {
        let code = HammingCode::random(16, 9).unwrap();
        assert!(data_visible_equivalent(&code, &code, 3));
    }

    #[test]
    fn different_codes_are_usually_not_equivalent() {
        let a = HammingCode::random(16, 1).unwrap();
        let b = HammingCode::random(16, 2).unwrap();
        assert!(!data_visible_equivalent(&a, &b, 2));
    }

    #[test]
    fn reconstructed_code_delegates_the_trait() {
        let secret = ExtendedHammingCode::random(8, 2).unwrap();
        let wrapped = ReconstructedCode::ExtendedHamming(secret.clone());
        assert_eq!(wrapped.layout(), secret.layout());
        assert_eq!(wrapped.description(), secret.description());
        assert_eq!(wrapped.to_string(), secret.to_string());
        assert_eq!(wrapped.correction_capability(), 1);
        assert_eq!(wrapped.parity_check_matrix(), secret.parity_check_matrix());
        assert_eq!(wrapped.parity_block(), secret.parity_block());
        let data = BitVec::from_u64(8, 0xA5);
        let mut stored = wrapped.encode(&data);
        assert_eq!(stored, secret.encode(&data));
        stored.flip(3);
        assert_eq!(wrapped.decode(&stored), secret.decode(&stored));
        assert_eq!(
            CodeFamily::ALL,
            [CodeFamily::Hamming, CodeFamily::ExtendedHamming]
        );
        assert_eq!(CodeFamily::Hamming.to_string(), "SEC Hamming");
        assert_eq!(
            CodeFamily::ExtendedHamming.to_string(),
            "SEC-DED extended Hamming"
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let err = ReconstructError::TooFewParityBits {
            parity_bits: 3,
            required: 5,
        };
        assert!(err.to_string().contains("at least 5"));
        let err = ReconstructError::AttemptsExhausted { attempts: 7 };
        assert!(err.to_string().contains("7 attempts"));
        let err = ReconstructError::InconsistentProfile;
        assert!(err.to_string().contains("inconsistent"));
        assert!(err.to_string().contains("family"));
    }

    #[test]
    #[should_panic(expected = "dataword lengths differ")]
    fn equivalence_check_rejects_mismatched_codes() {
        let a = HammingCode::random(8, 1).unwrap();
        let b = HammingCode::random(16, 1).unwrap();
        data_visible_equivalent(&a, &b, 2);
    }
}
