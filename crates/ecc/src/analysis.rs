//! Exact analysis of how on-die ECC transforms pre-correction errors into
//! post-correction errors — generic over any [`LinearBlockCode`].
//!
//! This module is the reproduction of the paper's §3–§4 machinery:
//!
//! * [`combinatorics`] reproduces Table 2 (the combinatorial explosion of
//!   at-risk bits) for SEC codes;
//! * [`ErrorSpace`] enumerates, for a concrete code and a concrete set of
//!   at-risk pre-correction bits, *every* achievable post-correction error —
//!   the ground truth the paper computes with the Z3 SAT solver. The
//!   constraints are linear over GF(2) and the at-risk sets are small, so
//!   exhaustive enumeration computes the same sets exactly. Each subset of
//!   the at-risk bits is decoded by the code's own
//!   [`decode_with_syndrome_into`](LinearBlockCode::decode_with_syndrome_into),
//!   walking the subsets in Gray-code order so that one bit flip and one
//!   syndrome XOR separate consecutive patterns. Only subsets holding a
//!   parity position need the chargeability solve ([`charging_dataword`]);
//!   every set of data bits can be charged under any [`FailureDependence`].
//!   The space keeps each pattern's post-correction errors, and its direct
//!   and indirect bits, as dataword bit masks, and [`ErrorSpace::score`]
//!   scores a profiler's round against them. Because the decoder is the
//!   code's own, the space is exact for *any* implementation of the trait —
//!   SEC Hamming, SEC-DED, and DEC BCH alike;
//! * [`classify_decode`] labels a decode with its ground truth (true
//!   correction vs. miscorrection vs. silent corruption), which the decoder
//!   itself cannot know;
//! * [`predict_indirect_from_direct`] implements HARP-A's precomputation of
//!   indirect-error at-risk bits from the direct-error at-risk bits found
//!   during active profiling, and [`IndirectPredictor`] computes the same
//!   set incrementally, decoding only the patterns a new direct bit adds.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use harp_gf2::{solve, BitVec, Gf2Matrix};

use crate::block::LinearBlockCode;
use crate::decoder::{DecodeOutcome, DecodeResult};

/// Bits per word of a packed dataword mask.
const MASK_BITS: usize = 64;

/// Closed-form counts behind Table 2 of the paper: how a handful of bits at
/// risk of pre-correction error explodes into exponentially many bits at risk
/// of post-correction error (for single-error-correcting on-die ECC).
pub mod combinatorics {
    /// Number of unique nonzero pre-correction error patterns over `n`
    /// at-risk bits: `2^n − 1`.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::analysis::combinatorics::unique_error_patterns;
    /// assert_eq!(unique_error_patterns(4), 15);
    /// assert_eq!(unique_error_patterns(8), 255);
    /// ```
    pub fn unique_error_patterns(n: u32) -> u64 {
        2u64.pow(n) - 1
    }

    /// Number of correctable patterns for a single-error-correcting code:
    /// exactly the `n` single-bit patterns.
    pub fn correctable_patterns(n: u32) -> u64 {
        u64::from(n)
    }

    /// Number of uncorrectable pre-correction error patterns:
    /// `2^n − n − 1`.
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::analysis::combinatorics::uncorrectable_patterns;
    /// assert_eq!(uncorrectable_patterns(1), 0);
    /// assert_eq!(uncorrectable_patterns(4), 11);
    /// assert_eq!(uncorrectable_patterns(8), 247);
    /// ```
    pub fn uncorrectable_patterns(n: u32) -> u64 {
        unique_error_patterns(n) - correctable_patterns(n)
    }

    /// Worst-case number of bits at risk of post-correction error caused by
    /// `n` bits at risk of pre-correction error: `2^n − 1` (every
    /// uncorrectable pattern introduces a unique indirect error, plus the `n`
    /// direct bits themselves).
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::analysis::combinatorics::worst_case_post_correction_at_risk;
    /// assert_eq!(worst_case_post_correction_at_risk(2), 3);
    /// assert_eq!(worst_case_post_correction_at_risk(8), 255);
    /// ```
    pub fn worst_case_post_correction_at_risk(n: u32) -> u64 {
        unique_error_patterns(n)
    }
}

/// How a cell's probability of error depends on the data it stores
/// (paper §2.4: errors are data-dependent; §7.1.2: all cells are assumed to
/// be *true cells* that can only fail when programmed with '1').
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureDependence {
    /// The cell can only fail when it stores a '1' (charged). This is the
    /// paper's evaluated model.
    TrueCell,
    /// The cell can only fail when it stores a '0'.
    AntiCell,
    /// The cell can fail regardless of the stored value.
    DataIndependent,
}

impl FailureDependence {
    /// The stored value required for the cell to be able to fail, or `None`
    /// if the cell can fail under either value.
    pub fn required_value(&self) -> Option<bool> {
        match self {
            FailureDependence::TrueCell => Some(true),
            FailureDependence::AntiCell => Some(false),
            FailureDependence::DataIndependent => None,
        }
    }
}

/// Ground-truth classification of a decode, available only to the simulator
/// (which knows the injected raw error pattern).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroundTruth {
    /// No raw errors were present and the decoder (correctly) did nothing.
    NoError,
    /// The decoder corrected exactly the raw errors that were present.
    CorrectedTrue {
        /// The corrected codeword positions.
        positions: Vec<usize>,
    },
    /// An uncorrectable raw error pattern caused the decoder to flip at least
    /// one bit that was *not* in error — the source of indirect errors.
    Miscorrected {
        /// The positions the decoder erroneously flipped.
        flipped: Vec<usize>,
        /// The raw error positions that provoked the miscorrection.
        raw_errors: Vec<usize>,
    },
    /// An uncorrectable raw error pattern the decoder either flagged without
    /// locating, or only partially corrected: the remaining erroneous data
    /// passes through.
    DetectedUncorrectable {
        /// The raw error positions.
        raw_errors: Vec<usize>,
    },
    /// The raw error pattern was itself a codeword (syndrome zero), so the
    /// decoder saw nothing despite errors being present.
    SilentCorruption {
        /// The raw error positions.
        raw_errors: Vec<usize>,
    },
}

/// Classifies a decode result given the raw error pattern that was injected.
///
/// # Panics
///
/// Panics if `raw_error.len() != code.codeword_len()`.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, LinearBlockCode, analysis::{classify_decode, GroundTruth}};
/// use harp_gf2::BitVec;
///
/// let code = HammingCode::paper_example();
/// let data = BitVec::ones(4);
/// let raw = BitVec::from_indices(7, [2]);
/// let result = code.encode_corrupt_decode(&data, &raw);
/// assert_eq!(
///     classify_decode(&code, &raw, &result),
///     GroundTruth::CorrectedTrue { positions: vec![2] },
/// );
/// ```
pub fn classify_decode<C: LinearBlockCode + ?Sized>(
    code: &C,
    raw_error: &BitVec,
    result: &DecodeResult,
) -> GroundTruth {
    assert_eq!(
        raw_error.len(),
        code.codeword_len(),
        "raw error pattern length mismatch"
    );
    let raw_positions: Vec<usize> = raw_error.iter_ones().collect();
    match &result.outcome {
        DecodeOutcome::NoErrorDetected => {
            if raw_positions.is_empty() {
                GroundTruth::NoError
            } else {
                GroundTruth::SilentCorruption {
                    raw_errors: raw_positions,
                }
            }
        }
        DecodeOutcome::Corrected { positions } => {
            let flipped_spuriously: Vec<usize> = positions
                .iter()
                .copied()
                .filter(|p| !raw_positions.contains(p))
                .collect();
            if flipped_spuriously.is_empty() {
                if positions.len() == raw_positions.len() {
                    // Every flip was a raw error and every raw error was
                    // flipped: a true correction.
                    GroundTruth::CorrectedTrue {
                        positions: positions.to_vec(),
                    }
                } else {
                    // The decoder fixed some of several raw errors; the rest
                    // leak through as direct errors. From the classification
                    // point of view this is still an uncorrectable pattern.
                    GroundTruth::DetectedUncorrectable {
                        raw_errors: raw_positions,
                    }
                }
            } else {
                GroundTruth::Miscorrected {
                    flipped: flipped_spuriously,
                    raw_errors: raw_positions,
                }
            }
        }
        DecodeOutcome::DetectedUncorrectable => GroundTruth::DetectedUncorrectable {
            raw_errors: raw_positions,
        },
    }
}

/// Returns `true` if there exists a dataword such that every codeword
/// position in `positions` stores the value required by `dependence`
/// (i.e. the corresponding cells are all simultaneously able to fail).
///
/// Data positions constrain the dataword bit directly; parity positions
/// constrain an affine (GF(2)) combination of dataword bits, so feasibility is
/// a linear-system question — this is the exact computation the paper
/// delegates to a SAT solver.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, analysis::{is_chargeable, FailureDependence}};
///
/// let code = HammingCode::paper_example();
/// // Any set of data bits can always be charged.
/// assert!(is_chargeable(&code, &[0, 1, 2, 3], FailureDependence::TrueCell));
/// ```
pub fn is_chargeable<C: LinearBlockCode + ?Sized>(
    code: &C,
    positions: &[usize],
    dependence: FailureDependence,
) -> bool {
    charging_dataword(code, positions, dependence).is_some() || positions.is_empty()
}

/// Returns a dataword under which every position in `positions` stores the
/// value required by `dependence`, or `None` if no such dataword exists.
///
/// Used both by the ground-truth analysis and by the BEEP profiler to craft
/// targeted data patterns. Works for any systematic linear code: parity
/// position `k + j` is constrained through row `j` of the code's
/// [`parity_block`](LinearBlockCode::parity_block).
///
/// # Panics
///
/// Panics if any position is out of range for the code.
pub fn charging_dataword<C: LinearBlockCode + ?Sized>(
    code: &C,
    positions: &[usize],
    dependence: FailureDependence,
) -> Option<BitVec> {
    let k = code.data_len();
    if positions.is_empty() {
        return Some(BitVec::zeros(k));
    }
    for &pos in positions {
        assert!(
            pos < code.codeword_len(),
            "position {pos} out of range {}",
            code.codeword_len()
        );
    }
    let Some(required) = dependence.required_value() else {
        // Data-independent failures: any dataword works.
        return Some(BitVec::zeros(k));
    };

    // Build the constraint system over the k dataword bits.
    let layout = code.layout();
    let parity_block = code.parity_block();
    let mut rows = Vec::with_capacity(positions.len());
    let mut rhs = BitVec::zeros(positions.len());
    for (idx, &pos) in positions.iter().enumerate() {
        let row = if layout.is_data(pos) {
            BitVec::from_indices(k, [pos])
        } else {
            parity_block.row(layout.parity_index(pos)).clone()
        };
        rows.push(row);
        rhs.set(idx, required);
    }
    let a = Gf2Matrix::from_rows(&rows);
    match solve::solve(&a, &rhs) {
        solve::LinearSolution::Solvable { particular, .. } => Some(particular),
        solve::LinearSolution::Infeasible => None,
    }
}

/// Decodes raw error patterns (against the all-zero codeword) that differ
/// from one another by single bit flips. The pattern and its packed
/// syndrome are updated in place, and each decode writes into reused
/// buffers.
#[derive(Debug, Clone, Default)]
struct PatternWalk {
    error: BitVec,
    syndrome: u64,
    decoded: DecodeResult,
}

impl PatternWalk {
    /// Starts over from the all-zero pattern of `code`.
    fn start<C: LinearBlockCode + ?Sized>(&mut self, code: &C) {
        self.error.reset(code.codeword_len());
        self.syndrome = 0;
    }

    /// The packed syndrome of a single error at `position`.
    fn column<C: LinearBlockCode + ?Sized>(code: &C, position: usize) -> u64 {
        let single = BitVec::from_indices(code.codeword_len(), [position]);
        code.syndrome_kernel().syndrome_word(&single)
    }

    fn flip(&mut self, position: usize, column: u64) {
        self.error.flip(position);
        self.syndrome ^= column;
    }

    /// Decodes the current pattern. Decoding is data-independent for a
    /// linear code, so the decoded dataword *is* the pattern's
    /// post-correction error mask.
    fn decode<C: LinearBlockCode + ?Sized>(&mut self, code: &C) -> &DecodeResult {
        code.decode_with_syndrome_into(&self.error, self.syndrome, &mut self.decoded);
        &self.decoded
    }
}

/// Ones in `mask` outside `known`, summed over the words of a dataword mask.
fn count_outside(mask: &[u64], known: &[u64]) -> usize {
    mask.iter()
        .zip(known)
        .map(|(&m, &k)| (m & !k).count_ones() as usize)
        .sum()
}

/// One profiling round scored against a word's ground truth (see
/// [`ErrorSpace::score`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundScore {
    /// Identified bits at risk of direct error (Fig. 6's numerator).
    pub direct_hits: usize,
    /// Bits at risk of indirect error that are neither identified nor
    /// predicted (Fig. 8).
    pub missed_indirect: usize,
    /// The most post-correction errors one achievable pattern can still
    /// cause outside the identified and predicted bits (Fig. 9).
    pub max_simultaneous: usize,
}

/// The exact post-correction error space of a set of at-risk pre-correction
/// bits under a given code.
///
/// This is the simulator's ground truth: profilers are scored by how much of
/// [`ErrorSpace::post_correction_at_risk`] they cover. Besides the sets, the
/// space keeps dataword bit masks (`⌈k/64⌉` words each) of its direct and
/// indirect bits and of every achievable pattern's post-correction errors,
/// which [`ErrorSpace::score`] reads.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, ErrorSpace, analysis::FailureDependence};
///
/// let code = HammingCode::paper_example();
/// // Two at-risk data bits: both are at risk of direct error and their
/// // combined failure may provoke a miscorrection (an indirect error).
/// let space = ErrorSpace::enumerate(&code, &[0, 1], FailureDependence::TrueCell);
/// assert_eq!(space.direct_at_risk().len(), 2);
/// assert!(space.post_correction_at_risk().len() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorSpace {
    at_risk_pre_correction: BTreeSet<usize>,
    direct_at_risk: BTreeSet<usize>,
    indirect_at_risk: BTreeSet<usize>,
    post_correction_at_risk: BTreeSet<usize>,
    direct_mask: BitVec,
    indirect_mask: BitVec,
    /// The post-correction error mask of every achievable pattern that
    /// causes any, one after another.
    pattern_errors: Vec<u64>,
}

impl ErrorSpace {
    /// Maximum number of at-risk pre-correction bits supported by exhaustive
    /// enumeration (2^24 subsets is comfortably fast; the paper evaluates at
    /// most 8).
    pub const MAX_AT_RISK_BITS: usize = 24;

    /// Enumerates the full post-correction error space for the given at-risk
    /// pre-correction positions (codeword indices).
    ///
    /// Every achievable (chargeable) subset of the at-risk bits is decoded
    /// with the code's own decoder — decoding an error pattern against the
    /// all-zero codeword is exact for linear codes — so the enumeration is
    /// correct for any [`LinearBlockCode`], whatever its correction
    /// capability. Subsets are visited in Gray-code order: each differs
    /// from the last by one bit, so the pattern and its packed syndrome are
    /// updated in place and decoded by
    /// [`decode_with_syndrome_into`](LinearBlockCode::decode_with_syndrome_into)
    /// into reused buffers. Only a subset holding a parity position can be
    /// unchargeable, so only those run the GF(2) solve of
    /// [`charging_dataword`]. The decoded dataword of each pattern is its
    /// post-correction error mask; the space keeps the nonzero ones.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::MAX_AT_RISK_BITS`] positions are given,
    /// if any position is out of range, or if the code's syndrome is wider
    /// than 64 bits (as every burst read also requires).
    pub fn enumerate<C: LinearBlockCode + ?Sized>(
        code: &C,
        at_risk_positions: &[usize],
        dependence: FailureDependence,
    ) -> Self {
        let unique: BTreeSet<usize> = at_risk_positions.iter().copied().collect();
        assert!(
            unique.len() <= Self::MAX_AT_RISK_BITS,
            "at most {} at-risk bits supported, got {}",
            Self::MAX_AT_RISK_BITS,
            unique.len()
        );
        for &pos in &unique {
            assert!(
                pos < code.codeword_len(),
                "at-risk position {pos} out of range {}",
                code.codeword_len()
            );
        }
        let positions: Vec<usize> = unique.iter().copied().collect();
        let columns: Vec<u64> = positions
            .iter()
            .map(|&pos| PatternWalk::column(code, pos))
            .collect();
        let layout = code.layout();
        // Bit i marks positions[i] as a parity position.
        let parity = positions
            .iter()
            .enumerate()
            .filter(|&(_, &pos)| !layout.is_data(pos))
            .fold(0u64, |bits, (i, _)| bits | 1 << i);
        let mut walk = PatternWalk::default();
        walk.start(code);
        let mut pattern_errors = Vec::new();
        let mut post_mask = BitVec::zeros(code.data_len());
        let mut subset_positions = Vec::new();
        for step in 1u64..(1u64 << positions.len()) {
            let flipped = step.trailing_zeros() as usize;
            walk.flip(positions[flipped], columns[flipped]);
            let subset = step ^ (step >> 1);
            if subset & parity != 0 {
                subset_positions.clear();
                subset_positions.extend(
                    (0..positions.len())
                        .filter(|&i| subset >> i & 1 == 1)
                        .map(|i| positions[i]),
                );
                if charging_dataword(code, &subset_positions, dependence).is_none() {
                    continue;
                }
            }
            let errors = &walk.decode(code).dataword;
            if !errors.is_zero() {
                post_mask |= errors;
                pattern_errors.extend_from_slice(errors.as_words());
            }
        }

        let direct_at_risk: BTreeSet<usize> = positions
            .iter()
            .copied()
            .filter(|&pos| layout.is_data(pos))
            .collect();
        let direct_mask = BitVec::from_indices(code.data_len(), direct_at_risk.iter().copied());
        let mut indirect_mask = direct_mask.not();
        indirect_mask &= &post_mask;
        Self {
            at_risk_pre_correction: unique,
            direct_at_risk,
            indirect_at_risk: indirect_mask.iter_ones().collect(),
            post_correction_at_risk: post_mask.iter_ones().collect(),
            direct_mask,
            indirect_mask,
            pattern_errors,
        }
    }

    /// The at-risk pre-correction positions (codeword indices) this space was
    /// built from.
    pub fn at_risk_pre_correction(&self) -> &BTreeSet<usize> {
        &self.at_risk_pre_correction
    }

    /// Dataword positions at risk of *direct* error: at-risk pre-correction
    /// bits within the systematically encoded data region.
    pub fn direct_at_risk(&self) -> &BTreeSet<usize> {
        &self.direct_at_risk
    }

    /// Dataword positions at risk of *indirect* error only (miscorrections).
    pub fn indirect_at_risk(&self) -> &BTreeSet<usize> {
        &self.indirect_at_risk
    }

    /// All dataword positions at risk of post-correction error
    /// (direct ∪ indirect).
    pub fn post_correction_at_risk(&self) -> &BTreeSet<usize> {
        &self.post_correction_at_risk
    }

    /// Scores one profiling round: the bits a profiler has `identified` and
    /// the bits it `predicted`, against this ground truth. One pass over
    /// dataword masks gives all three numbers of [`RoundScore`]. Bits at or
    /// past the dataword length are ignored, because no truth set holds
    /// them.
    ///
    /// # Example
    ///
    /// ```
    /// use std::collections::BTreeSet;
    /// use harp_ecc::{HammingCode, ErrorSpace, analysis::FailureDependence};
    ///
    /// let code = HammingCode::paper_example();
    /// let space = ErrorSpace::enumerate(&code, &[0, 1], FailureDependence::TrueCell);
    /// let identified: BTreeSet<usize> = [0, 1].into_iter().collect();
    /// let score = space.score(&identified, &BTreeSet::new());
    /// assert_eq!(score.direct_hits, 2);
    /// assert_eq!(score.missed_indirect, space.indirect_at_risk().len());
    /// ```
    pub fn score(&self, identified: &BTreeSet<usize>, predicted: &BTreeSet<usize>) -> RoundScore {
        let words = self.direct_mask.as_words().len();
        // Datawords of up to 256 bits score without allocating.
        let mut inline = [0u64; 4];
        let mut spilled = Vec::new();
        let known: &mut [u64] = if words <= inline.len() {
            &mut inline[..words]
        } else {
            spilled.resize(words, 0);
            &mut spilled
        };
        let mark = |known: &mut [u64], bits: &BTreeSet<usize>| {
            for &bit in bits.range(..self.direct_mask.len()) {
                known[bit / MASK_BITS] |= 1 << (bit % MASK_BITS);
            }
        };
        mark(known, identified);
        let direct_hits =
            self.direct_at_risk.len() - count_outside(self.direct_mask.as_words(), known);
        mark(known, predicted);
        RoundScore {
            direct_hits,
            missed_indirect: count_outside(self.indirect_mask.as_words(), known),
            max_simultaneous: self
                .pattern_errors
                .chunks_exact(words.max(1))
                .map(|errors| count_outside(errors, known))
                .max()
                .unwrap_or(0),
        }
    }

    /// The worst-case (maximum) number of post-correction errors that can
    /// occur *simultaneously* in positions outside `repaired` — i.e. the
    /// correction capability a secondary ECC needs in order to safely perform
    /// reactive profiling after the profile `repaired` has been repaired
    /// (Fig. 9 of the paper). This is [`ErrorSpace::score`]'s
    /// `max_simultaneous` for the repaired bits.
    pub fn max_simultaneous_errors_outside(&self, repaired: &BTreeSet<usize>) -> usize {
        self.score(repaired, &BTreeSet::new()).max_simultaneous
    }
}

/// HARP-A's precomputation: given the direct-error at-risk dataword positions
/// identified during active profiling, predict the dataword positions at risk
/// of indirect error (miscorrections provoked by combinations of those bits).
///
/// HARP-A cannot predict miscorrections provoked by at-risk *parity* bits —
/// the bypass read path does not expose them — which is exactly the
/// limitation discussed in §7.3.1 of the paper. Parity positions in
/// `direct_positions` are ignored accordingly.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, analysis::{predict_indirect_from_direct, FailureDependence}};
///
/// let code = HammingCode::paper_example();
/// let predicted = predict_indirect_from_direct(&code, &[0, 1], FailureDependence::TrueCell);
/// // Predictions never include the direct bits themselves.
/// assert!(!predicted.contains(&0) && !predicted.contains(&1));
/// ```
pub fn predict_indirect_from_direct<C: LinearBlockCode + ?Sized>(
    code: &C,
    direct_positions: &[usize],
    dependence: FailureDependence,
) -> BTreeSet<usize> {
    let layout = code.layout();
    let unique: BTreeSet<usize> = direct_positions
        .iter()
        .copied()
        .filter(|&p| layout.is_data(p))
        .collect();
    if unique.is_empty() {
        return BTreeSet::new();
    }
    let positions: Vec<usize> = unique.iter().copied().collect();
    let space = ErrorSpace::enumerate(code, &positions, dependence);
    space
        .post_correction_at_risk()
        .iter()
        .copied()
        .filter(|p| !unique.contains(p))
        .collect()
}

/// HARP-A's precomputation made incremental: the set
/// [`predict_indirect_from_direct`] returns for the direct bits added so
/// far, updated one bit at a time.
///
/// Adding a direct bit `b` to a set `D` adds exactly the patterns `S ∪ {b}`
/// for `S ⊆ D`, so [`IndirectPredictor::add_direct`] decodes only those
/// (in Gray-code order, one bit flip and one syndrome XOR apart) and drops
/// `b` from the predictions. Every set of data bits can be charged, so no
/// [`FailureDependence`] is needed. The predictor holds no code; each call
/// takes the one its bits belong to.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, analysis::{predict_indirect_from_direct, FailureDependence, IndirectPredictor}};
///
/// let code = HammingCode::random(64, 5)?;
/// let mut predictor = IndirectPredictor::default();
/// for bit in [40, 3, 17] {
///     predictor.add_direct(&code, bit);
/// }
/// let batch = predict_indirect_from_direct(&code, &[3, 17, 40], FailureDependence::TrueCell);
/// assert_eq!(predictor.predicted(), &batch);
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndirectPredictor {
    direct: Vec<usize>,
    columns: Vec<u64>,
    predicted: BTreeSet<usize>,
    walk: PatternWalk,
}

impl IndirectPredictor {
    /// Adds one direct-error dataword position and predicts the indirect
    /// errors its combinations with the earlier ones can provoke. Returns
    /// `false`, changing nothing, for a parity position (HARP-A cannot see
    /// those, as [`predict_indirect_from_direct`] ignores them) or a
    /// position already added.
    ///
    /// # Panics
    ///
    /// Panics if this would hold more than [`ErrorSpace::MAX_AT_RISK_BITS`]
    /// direct bits, as [`predict_indirect_from_direct`] does, or if the
    /// code's syndrome is wider than 64 bits.
    pub fn add_direct<C: LinearBlockCode + ?Sized>(&mut self, code: &C, position: usize) -> bool {
        if !code.layout().is_data(position) || self.direct.contains(&position) {
            return false;
        }
        assert!(
            self.direct.len() < ErrorSpace::MAX_AT_RISK_BITS,
            "at most {} at-risk bits supported, got {}",
            ErrorSpace::MAX_AT_RISK_BITS,
            self.direct.len() + 1
        );
        let column = PatternWalk::column(code, position);
        self.walk.start(code);
        self.walk.flip(position, column);
        self.predicted.remove(&position);
        let earlier = self.direct.len();
        self.direct.push(position);
        self.columns.push(column);
        for step in 0u64..(1u64 << earlier) {
            if step > 0 {
                let flipped = step.trailing_zeros() as usize;
                self.walk.flip(self.direct[flipped], self.columns[flipped]);
            }
            for &bit in self.walk.decode(code).outcome.corrected_positions() {
                if bit < code.data_len() && !self.direct.contains(&bit) {
                    self.predicted.insert(bit);
                }
            }
        }
        true
    }

    /// The dataword positions predicted to be at risk of indirect error,
    /// never including a direct bit.
    pub fn predicted(&self) -> &BTreeSet<usize> {
        &self.predicted
    }

    /// Forgets every direct bit and prediction.
    pub fn reset(&mut self) {
        self.direct.clear();
        self.columns.clear();
        self.predicted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtendedHammingCode, HammingCode};

    #[test]
    fn table_2_values_match_the_paper() {
        // Paper Table 2: n = 1, 2, 3, 4, 8.
        let n_values = [1u32, 2, 3, 4, 8];
        let unique: Vec<u64> = n_values
            .iter()
            .map(|&n| combinatorics::unique_error_patterns(n))
            .collect();
        let uncorrectable: Vec<u64> = n_values
            .iter()
            .map(|&n| combinatorics::uncorrectable_patterns(n))
            .collect();
        let post: Vec<u64> = n_values
            .iter()
            .map(|&n| combinatorics::worst_case_post_correction_at_risk(n))
            .collect();
        assert_eq!(unique, vec![1, 3, 7, 15, 255]);
        // The paper's printed table lists "2" for n = 2, which contradicts its
        // own formula 2^n − n − 1 (= 1); we follow the formula, which matches
        // every other column of the table.
        assert_eq!(uncorrectable, vec![0, 1, 4, 11, 247]);
        assert_eq!(post, vec![1, 3, 7, 15, 255]);
    }

    #[test]
    fn data_positions_are_always_chargeable_for_true_cells() {
        let code = HammingCode::random(64, 7).unwrap();
        let all_data: Vec<usize> = (0..64).collect();
        assert!(is_chargeable(&code, &all_data, FailureDependence::TrueCell));
        assert!(is_chargeable(&code, &all_data, FailureDependence::AntiCell));
        assert!(is_chargeable(&code, &[], FailureDependence::TrueCell));
    }

    #[test]
    fn charging_dataword_satisfies_the_constraints() {
        let code = HammingCode::random(32, 3).unwrap();
        let positions = vec![0, 5, 33, 37]; // two data bits, two parity bits
        if let Some(d) = charging_dataword(&code, &positions, FailureDependence::TrueCell) {
            let c = code.encode(&d);
            for &pos in &positions {
                assert!(c.get(pos), "position {pos} not charged by {d}");
            }
        } else {
            panic!("expected a charging dataword to exist");
        }
    }

    #[test]
    fn charging_dataword_works_for_secded_parity_positions() {
        // The generic chargeability analysis must understand the extended
        // code's parity block, including the overall-parity row.
        let code = ExtendedHammingCode::random(32, 3).unwrap();
        let overall = code.overall_parity_position();
        let positions = vec![1, 36, overall];
        if let Some(d) = charging_dataword(&code, &positions, FailureDependence::TrueCell) {
            let c = code.encode(&d);
            for &pos in &positions {
                assert!(c.get(pos), "position {pos} not charged by {d}");
            }
        }
    }

    #[test]
    fn charging_dataword_anticell_clears_positions() {
        let code = HammingCode::random(32, 4).unwrap();
        let positions = vec![1, 2, 35];
        let d = charging_dataword(&code, &positions, FailureDependence::AntiCell)
            .expect("anti-cell charging pattern exists");
        let c = code.encode(&d);
        for &pos in &positions {
            assert!(!c.get(pos), "position {pos} should store 0");
        }
    }

    #[test]
    fn data_independent_dependence_is_always_chargeable() {
        let code = HammingCode::paper_example();
        assert!(is_chargeable(
            &code,
            &[0, 4, 5, 6],
            FailureDependence::DataIndependent
        ));
    }

    #[test]
    fn infeasible_charge_sets_are_detected() {
        // With all four data bits charged, each parity bit of the (7, 4)
        // example code is forced to a fixed value; asking a parity bit to be
        // charged is feasible exactly when that forced value is 1.
        let code = HammingCode::paper_example();
        let d = BitVec::ones(4);
        let c = code.encode(&d);
        for parity_pos in 4..7 {
            let positions = vec![0, 1, 2, 3, parity_pos];
            let feasible = is_chargeable(&code, &positions, FailureDependence::TrueCell);
            assert_eq!(
                feasible,
                c.get(parity_pos),
                "feasibility must match the forced parity value at {parity_pos}"
            );
        }
    }

    #[test]
    fn classify_no_error_and_true_correction() {
        let code = HammingCode::paper_example();
        let data = BitVec::from_u64(4, 0b1010);
        let clean = code.decode(&code.encode(&data));
        assert_eq!(
            classify_decode(&code, &BitVec::zeros(7), &clean),
            GroundTruth::NoError
        );
        let raw = BitVec::from_indices(7, [6]);
        let result = code.encode_corrupt_decode(&data, &raw);
        assert_eq!(
            classify_decode(&code, &raw, &result),
            GroundTruth::CorrectedTrue { positions: vec![6] }
        );
    }

    #[test]
    fn classify_identifies_miscorrections() {
        let code = HammingCode::paper_example();
        let data = BitVec::ones(4);
        let mut found_miscorrection = false;
        for i in 0..7 {
            for j in (i + 1)..7 {
                let raw = BitVec::from_indices(7, [i, j]);
                let result = code.encode_corrupt_decode(&data, &raw);
                match classify_decode(&code, &raw, &result) {
                    GroundTruth::Miscorrected {
                        flipped,
                        raw_errors,
                    } => {
                        found_miscorrection = true;
                        for f in &flipped {
                            assert!(!raw_errors.contains(f));
                        }
                        assert_eq!(raw_errors, vec![i, j]);
                    }
                    GroundTruth::DetectedUncorrectable { .. } => {}
                    other => panic!("double error ({i},{j}) classified as {other:?}"),
                }
            }
        }
        // A (7,4) Hamming code has no unmatched syndromes, so every double
        // error miscorrects.
        assert!(found_miscorrection);
    }

    #[test]
    fn classify_detects_silent_corruption() {
        let code = HammingCode::paper_example();
        let data = BitVec::ones(4);
        // A raw error pattern equal to a nonzero codeword has zero syndrome.
        let nonzero_data = BitVec::from_indices(4, [0]);
        let raw = code.encode(&nonzero_data);
        let result = code.encode_corrupt_decode(&data, &raw);
        match classify_decode(&code, &raw, &result) {
            GroundTruth::SilentCorruption { raw_errors } => {
                assert_eq!(raw_errors, raw.iter_ones().collect::<Vec<_>>());
            }
            other => panic!("expected silent corruption, got {other:?}"),
        }
    }

    #[test]
    fn secded_double_errors_classify_as_detected_uncorrectable() {
        let code = ExtendedHammingCode::random(16, 8).unwrap();
        let data = BitVec::ones(16);
        let raw = BitVec::from_indices(code.codeword_len(), [2, 9]);
        let result = code.encode_corrupt_decode(&data, &raw);
        assert_eq!(
            classify_decode(&code, &raw, &result),
            GroundTruth::DetectedUncorrectable {
                raw_errors: vec![2, 9]
            }
        );
    }

    #[test]
    fn error_space_single_at_risk_bit_has_no_indirect_errors() {
        let code = HammingCode::random(64, 19).unwrap();
        let space = ErrorSpace::enumerate(&code, &[10], FailureDependence::TrueCell);
        // A single raw error is always corrected, so nothing is at risk.
        assert!(space.post_correction_at_risk().is_empty());
        assert_eq!(space.direct_at_risk().len(), 1);
        assert!(space.indirect_at_risk().is_empty());
        assert_eq!(space.max_simultaneous_errors_outside(&BTreeSet::new()), 0);
    }

    #[test]
    fn error_space_two_data_bits_exposes_direct_and_indirect() {
        let code = HammingCode::random(64, 23).unwrap();
        let space = ErrorSpace::enumerate(&code, &[3, 40], FailureDependence::TrueCell);
        assert_eq!(
            space.direct_at_risk().iter().copied().collect::<Vec<_>>(),
            vec![3, 40]
        );
        // The double-error pattern either miscorrects into a third data bit
        // (3 post-correction at-risk bits) or into a parity bit / unmatched
        // syndrome (2 at-risk bits).
        let at_risk = space.post_correction_at_risk().len();
        assert!(
            (2..=3).contains(&at_risk),
            "unexpected at-risk count {at_risk}"
        );
        assert!(space
            .direct_at_risk()
            .is_subset(space.post_correction_at_risk()));
    }

    #[test]
    fn error_space_parity_at_risk_bits_cause_indirect_only() {
        let code = HammingCode::random(64, 29).unwrap();
        // Two parity positions at risk: no direct errors are possible, but
        // their combined failure can miscorrect into a data bit.
        let space = ErrorSpace::enumerate(&code, &[64, 70], FailureDependence::TrueCell);
        assert!(space.direct_at_risk().is_empty());
        for &bit in space.post_correction_at_risk() {
            assert!(bit < 64);
            assert!(space.indirect_at_risk().contains(&bit));
        }
    }

    #[test]
    fn error_space_amplification_grows_with_at_risk_count() {
        // More at-risk pre-correction bits -> more at-risk post-correction
        // bits (the combinatorial explosion of §4.1).
        let code = HammingCode::random(64, 31).unwrap();
        let small = ErrorSpace::enumerate(&code, &[0, 1], FailureDependence::TrueCell);
        let large = ErrorSpace::enumerate(&code, &[0, 1, 2, 3, 4], FailureDependence::TrueCell);
        assert!(large.post_correction_at_risk().len() >= small.post_correction_at_risk().len());
        assert!(large.post_correction_at_risk().len() > 5);
    }

    #[test]
    fn secded_pairwise_at_risk_bits_produce_no_indirect_errors() {
        // The SEC-DED scenario in one assertion: every pair of at-risk bits
        // is detected rather than miscorrected, so two at-risk bits expose
        // no indirect errors at all.
        let code = ExtendedHammingCode::random(64, 31).unwrap();
        let space = ErrorSpace::enumerate(&code, &[3, 40], FailureDependence::TrueCell);
        assert!(space.indirect_at_risk().is_empty());
        assert_eq!(space.post_correction_at_risk().len(), 2);
        // A SEC code with the same at-risk bits usually does worse (2 or 3).
        let sec = HammingCode::random(64, 31).unwrap();
        let sec_space = ErrorSpace::enumerate(&sec, &[3, 40], FailureDependence::TrueCell);
        assert!(sec_space.post_correction_at_risk().len() >= 2);
    }

    #[test]
    fn max_simultaneous_errors_shrinks_as_profile_grows() {
        let code = HammingCode::random(64, 37).unwrap();
        let at_risk = vec![0, 1, 2, 3];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let empty = BTreeSet::new();
        let full: BTreeSet<usize> = space.post_correction_at_risk().clone();
        let max_unrepaired = space.max_simultaneous_errors_outside(&empty);
        let max_repaired = space.max_simultaneous_errors_outside(&full);
        assert!(max_unrepaired >= 2, "4 at-risk data bits can fail together");
        assert_eq!(max_repaired, 0);
        // Repairing only the direct bits leaves at most one (indirect) error,
        // the key guarantee behind HARP's reactive phase (§5.1).
        let direct: BTreeSet<usize> = space.direct_at_risk().clone();
        assert!(space.max_simultaneous_errors_outside(&direct) <= 1);
    }

    #[test]
    fn score_counts_hits_and_misses() {
        let code = HammingCode::random(64, 41).unwrap();
        let space = ErrorSpace::enumerate(&code, &[5, 6, 7], FailureDependence::TrueCell);
        let empty = BTreeSet::new();
        let none = space.score(&empty, &empty);
        assert_eq!(none.direct_hits, 0);
        assert_eq!(none.missed_indirect, space.indirect_at_risk().len());
        let all = space.score(space.post_correction_at_risk(), &empty);
        assert_eq!(all.direct_hits, space.direct_at_risk().len());
        assert_eq!((all.missed_indirect, all.max_simultaneous), (0, 0));
        // Predicted bits are known, so they are not missed, but they are
        // never direct hits.
        let predicted = space.score(&empty, space.indirect_at_risk());
        assert_eq!((predicted.direct_hits, predicted.missed_indirect), (0, 0));
    }

    #[test]
    fn empty_at_risk_set_is_fully_covered() {
        let code = HammingCode::paper_example();
        let space = ErrorSpace::enumerate(&code, &[], FailureDependence::TrueCell);
        assert!(space.post_correction_at_risk().is_empty());
        let empty = BTreeSet::new();
        let nothing = RoundScore {
            direct_hits: 0,
            missed_indirect: 0,
            max_simultaneous: 0,
        };
        assert_eq!(space.score(&empty, &empty), nothing);
        assert_eq!(space.max_simultaneous_errors_outside(&empty), 0);
    }

    #[test]
    fn predict_indirect_matches_error_space_for_data_only_risk() {
        // When all at-risk bits are data bits, HARP-A's prediction from the
        // full direct set must equal the ground-truth indirect set.
        let code = HammingCode::random(64, 43).unwrap();
        let at_risk = vec![2, 17, 33, 56];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let predicted = predict_indirect_from_direct(&code, &at_risk, FailureDependence::TrueCell);
        assert_eq!(&predicted, space.indirect_at_risk());
    }

    #[test]
    fn predict_indirect_cannot_see_parity_driven_miscorrections() {
        let code = HammingCode::random(64, 47).unwrap();
        // Mix of data and parity at-risk bits.
        let at_risk = vec![1, 2, 64, 65];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let predicted = predict_indirect_from_direct(&code, &[1, 2], FailureDependence::TrueCell);
        // Every predicted bit is genuinely at risk...
        for bit in &predicted {
            assert!(space.indirect_at_risk().contains(bit));
        }
        // ...but prediction is (in general) a subset because parity-driven
        // miscorrections are invisible to HARP-A.
        assert!(predicted.len() <= space.indirect_at_risk().len());
    }

    #[test]
    fn predict_indirect_ignores_parity_positions_in_the_input() {
        let code = HammingCode::random(64, 49).unwrap();
        let with_parity =
            predict_indirect_from_direct(&code, &[1, 2, 64, 65], FailureDependence::TrueCell);
        let data_only = predict_indirect_from_direct(&code, &[1, 2], FailureDependence::TrueCell);
        assert_eq!(with_parity, data_only);
        assert!(predict_indirect_from_direct(&code, &[], FailureDependence::TrueCell).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn error_space_rejects_oversized_at_risk_sets() {
        let code = HammingCode::random(64, 53).unwrap();
        let too_many: Vec<usize> = (0..=ErrorSpace::MAX_AT_RISK_BITS).collect();
        ErrorSpace::enumerate(&code, &too_many, FailureDependence::TrueCell);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every post-correction error observed in Monte-Carlo simulation
            /// must be contained in the enumerated error space.
            #[test]
            fn observed_errors_are_subset_of_enumerated_space(
                seed in 0u64..200,
                at_risk in proptest::collection::btree_set(0usize..71, 1..6),
            ) {
                let code = HammingCode::random(64, seed).unwrap();
                let positions: Vec<usize> = at_risk.iter().copied().collect();
                let space =
                    ErrorSpace::enumerate(&code, &positions, FailureDependence::TrueCell);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
                for _ in 0..40 {
                    // Random dataword, random subset of at-risk bits fail if charged.
                    let data = BitVec::from_bools(
                        &(0..64)
                            .map(|_| rand::Rng::gen_bool(&mut rng, 0.5))
                            .collect::<Vec<_>>(),
                    );
                    let encoded = code.encode(&data);
                    let mut raw = BitVec::zeros(code.codeword_len());
                    for &pos in &positions {
                        if encoded.get(pos) && rand::Rng::gen_bool(&mut rng, 0.5) {
                            raw.set(pos, true);
                        }
                    }
                    let result = code.encode_corrupt_decode(&data, &raw);
                    for err in result.post_correction_errors(&data) {
                        prop_assert!(
                            space.post_correction_at_risk().contains(&err),
                            "observed error {} not predicted", err
                        );
                    }
                }
            }

            /// Direct and indirect sets partition the post-correction set.
            #[test]
            fn direct_and_indirect_partition_post_correction(
                seed in 0u64..200,
                at_risk in proptest::collection::btree_set(0usize..71, 1..6),
            ) {
                let code = HammingCode::random(64, seed).unwrap();
                let positions: Vec<usize> = at_risk.iter().copied().collect();
                let space =
                    ErrorSpace::enumerate(&code, &positions, FailureDependence::TrueCell);
                let union: BTreeSet<usize> = space
                    .direct_at_risk()
                    .union(space.indirect_at_risk())
                    .copied()
                    .collect();
                prop_assert!(space.post_correction_at_risk().is_subset(&union));
                let overlap: Vec<usize> = space
                    .direct_at_risk()
                    .intersection(space.indirect_at_risk())
                    .copied()
                    .collect();
                prop_assert!(overlap.is_empty());
            }

            /// After repairing every direct at-risk bit, at most one
            /// (indirect) error can occur at a time — the invariant that lets
            /// HARP's SEC secondary ECC safely perform reactive profiling.
            #[test]
            fn repairing_direct_bits_bounds_simultaneous_errors(
                seed in 0u64..200,
                at_risk in proptest::collection::btree_set(0usize..64, 1..6),
            ) {
                let code = HammingCode::random(64, seed).unwrap();
                let positions: Vec<usize> = at_risk.iter().copied().collect();
                let space =
                    ErrorSpace::enumerate(&code, &positions, FailureDependence::TrueCell);
                let direct: BTreeSet<usize> = space.direct_at_risk().clone();
                prop_assert!(space.max_simultaneous_errors_outside(&direct) <= 1);
            }

            /// The same invariant through the trait for the SEC-DED code:
            /// its detection of double errors can only shrink the space.
            #[test]
            fn secded_space_is_never_larger_than_sec_space(
                seed in 0u64..100,
                at_risk in proptest::collection::btree_set(0usize..64, 1..5),
            ) {
                let sec = HammingCode::random(64, seed).unwrap();
                let secded = ExtendedHammingCode::from_hamming(sec.clone());
                let positions: Vec<usize> = at_risk.iter().copied().collect();
                let sec_space =
                    ErrorSpace::enumerate(&sec, &positions, FailureDependence::TrueCell);
                let secded_space =
                    ErrorSpace::enumerate(&secded, &positions, FailureDependence::TrueCell);
                prop_assert!(
                    secded_space.indirect_at_risk().len()
                        <= sec_space.indirect_at_risk().len()
                );
            }
        }
    }
}
