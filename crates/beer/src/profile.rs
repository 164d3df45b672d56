//! The data-visible miscorrection signature of an on-die ECC code.
//!
//! For a systematic SEC Hamming code, the memory controller can never read
//! the parity bits, so the only externally observable consequence of the
//! proprietary column arrangement is *which data-bit position the decoder
//! miscorrects for a given combination of raw data-bit errors*. The pairwise
//! part of that map — recovered by the BEER test campaign — is what the BEEP
//! profiler uses to craft its targeted data patterns and what HARP-A uses to
//! precompute bits at risk of indirect error.
//!
//! Pairwise miscorrections are enough to reverse-engineer a SEC Hamming
//! code, but they carry *zero* information about a SEC-DED extended Hamming
//! code: every data-bit pair is detected (never miscorrected), so all
//! `C(k, 2)` observations collapse to "no data flip". The
//! [`VisibleErrorProfile`] superset therefore also records the decoder's
//! *status flag* (clean / corrected / detected-uncorrectable — the on-die
//! ECC transparency signal discussed alongside "syndrome on correction" in
//! §5.2 of the paper) and the responses to **weight-3** charged patterns,
//! which are the lowest-weight patterns that expose a SEC-DED code's
//! parity-check columns. [`crate::reconstruct_code`] consumes this profile
//! generically for every supported [`crate::CodeFamily`].

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use harp_ecc::{DecodeOutcome, DecodeResult, LinearBlockCode};
use harp_gf2::BitVec;

/// For every unordered pair of data-bit positions, the data-bit position (if
/// any) the on-die ECC decoder miscorrects when exactly that pair of raw
/// errors occurs.
///
/// `None` means the double error is *data-invisible beyond the direct
/// errors*: the decoder either miscorrects a parity bit (harmless to data) or
/// detects the error without locating it.
///
/// # Example
///
/// ```
/// use harp_beer::MiscorrectionProfile;
/// use harp_ecc::{HammingCode, LinearBlockCode};
///
/// let code = HammingCode::paper_example();
/// let profile = MiscorrectionProfile::from_code(&code);
/// assert_eq!(profile.data_bits(), 4);
/// // Every recorded target is a data-bit position distinct from the pair.
/// for ((i, j), target) in profile.pairs() {
///     if let Some(m) = target {
///         assert!(*m < 4 && m != i && m != j);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiscorrectionProfile {
    data_bits: usize,
    pairs: BTreeMap<(usize, usize), Option<usize>>,
}

impl MiscorrectionProfile {
    /// Builds a profile from explicit pair observations.
    ///
    /// # Panics
    ///
    /// Panics if any pair or target position is out of range, if a pair is
    /// not stored in canonical `(low, high)` order, or if a target collides
    /// with its own pair.
    pub fn new(data_bits: usize, pairs: BTreeMap<(usize, usize), Option<usize>>) -> Self {
        for (&(i, j), &target) in &pairs {
            assert!(i < j, "pair ({i}, {j}) must be ordered");
            assert!(j < data_bits, "pair ({i}, {j}) out of range");
            if let Some(m) = target {
                assert!(m < data_bits, "target {m} out of range");
                assert!(m != i && m != j, "target {m} collides with its pair");
            }
        }
        Self { data_bits, pairs }
    }

    /// The ground-truth profile computed directly from a known code (used to
    /// validate what the black-box campaign recovers).
    ///
    /// Works for any [`LinearBlockCode`]: the pair's raw error pattern is
    /// decoded directly (exact for linear codes), and a data-visible
    /// miscorrection is any flipped data position outside the pair. For a
    /// code that corrects double errors (DEC BCH) every target is `None` —
    /// pairwise testing cannot provoke its miscorrections.
    pub fn from_code<C: LinearBlockCode + ?Sized>(code: &C) -> Self {
        let k = code.data_len();
        let mut pairs = BTreeMap::new();
        for i in 0..k {
            for j in (i + 1)..k {
                let error = BitVec::from_indices(code.codeword_len(), [i, j]);
                let result = code.decode_error_pattern(&error);
                let target = result
                    .outcome
                    .corrected_positions()
                    .iter()
                    .copied()
                    .find(|&m| m < k && m != i && m != j);
                pairs.insert((i, j), target);
            }
        }
        Self {
            data_bits: k,
            pairs,
        }
    }

    /// The dataword length the profile describes.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// All pair observations in canonical order.
    pub fn pairs(&self) -> impl Iterator<Item = (&(usize, usize), &Option<usize>)> {
        self.pairs.iter()
    }

    /// The number of pairs that provoke a data-visible miscorrection.
    pub fn miscorrecting_pair_count(&self) -> usize {
        self.pairs.values().filter(|t| t.is_some()).count()
    }

    /// The miscorrection target for a pair of data-bit positions (order
    /// agnostic), or `None` if the pair is data-invisible or was never
    /// observed.
    pub fn miscorrection_target(&self, a: usize, b: usize) -> Option<usize> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.pairs.get(&key).copied().flatten()
    }

    /// Predicts dataword positions at risk of indirect error given a set of
    /// direct-error at-risk data bits, using pairwise information only.
    ///
    /// This is the profile-level analogue of HARP-A's precomputation. It is a
    /// subset of the full prediction (which also accounts for triples and
    /// larger combinations); reconstructing an equivalent code with
    /// [`crate::reconstruct_equivalent_code`] recovers the rest.
    pub fn predict_indirect_from_direct(&self, direct: &[usize]) -> BTreeSet<usize> {
        let direct_set: BTreeSet<usize> = direct.iter().copied().collect();
        let mut predicted = BTreeSet::new();
        for (idx, &i) in direct.iter().enumerate() {
            for &j in direct.iter().skip(idx + 1) {
                if let Some(m) = self.miscorrection_target(i, j) {
                    if !direct_set.contains(&m) {
                        predicted.insert(m);
                    }
                }
            }
        }
        predicted
    }

    /// Returns `true` if this profile matches the data-visible behaviour of
    /// the given code.
    pub fn is_consistent_with<C: LinearBlockCode + ?Sized>(&self, code: &C) -> bool {
        code.data_len() == self.data_bits && Self::from_code(code) == *self
    }
}

/// The status flag an on-die ECC decoder reports alongside a read — the
/// third observable (besides the post-correction data itself) a BEER-style
/// experimenter can record per test pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeFlag {
    /// Zero syndrome: the decoder saw nothing (either no raw error, or the
    /// charged pattern silently aliased to another valid codeword).
    Clean,
    /// The decoder performed a correction (possibly a miscorrection, and
    /// possibly of an invisible parity bit).
    Corrected,
    /// The decoder detected an error it could not locate.
    Detected,
}

impl DecodeFlag {
    /// The flag corresponding to a decoder outcome.
    pub fn from_outcome(outcome: &DecodeOutcome) -> Self {
        match outcome {
            DecodeOutcome::NoErrorDetected => DecodeFlag::Clean,
            DecodeOutcome::Corrected { .. } => DecodeFlag::Corrected,
            DecodeOutcome::DetectedUncorrectable => DecodeFlag::Detected,
        }
    }
}

/// The complete data-visible response of the on-die ECC to one charged test
/// pattern: which data positions still differ from the written data after
/// correction, and which status flag the decoder raised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternResponse {
    /// Post-correction data-error positions (ascending), relative to the
    /// written data.
    pub post_errors: Vec<usize>,
    /// The decoder's reported status.
    pub flag: DecodeFlag,
}

impl PatternResponse {
    /// Computes the response of `code` to the charged data positions
    /// (ground truth, or a reconstruction candidate under test).
    ///
    /// # Panics
    ///
    /// Panics if any charged position is outside the dataword.
    pub fn of_code<C: LinearBlockCode + ?Sized>(code: &C, charged: &[usize]) -> Self {
        let error = BitVec::from_indices(code.codeword_len(), charged.iter().copied());
        let result = code.decode_error_pattern(&error);
        Self::from_decode(&result, code.data_len())
    }

    /// Builds the response from a raw decode result (linearity lets the
    /// pattern be decoded against the all-zero codeword).
    fn from_decode(result: &DecodeResult, data_bits: usize) -> Self {
        let written = BitVec::zeros(data_bits);
        PatternResponse {
            post_errors: result.post_correction_errors(&written).collect(),
            flag: DecodeFlag::from_outcome(&result.outcome),
        }
    }

    /// The data-visible miscorrection this response exposes: the first
    /// post-correction error position outside the charged set, if any.
    pub fn miscorrection(&self, charged: &[usize]) -> Option<usize> {
        self.post_errors
            .iter()
            .copied()
            .find(|p| !charged.contains(p))
    }
}

/// Everything a BEER-style campaign can observe about an on-die ECC code
/// from outside the chip: the [`PatternResponse`] of every weight-2 and
/// weight-3 charged data pattern.
///
/// This is the family-generic superset of [`MiscorrectionProfile`]. The
/// pairwise view (via [`VisibleErrorProfile::miscorrection_profile`]) is
/// what BEEP and HARP-A consume; the weight-3 responses and decode flags are
/// what [`crate::reconstruct_code`] needs to reverse-engineer codes — like
/// SEC-DED — whose pairs are all detected and therefore pairwise-invisible.
///
/// # Example
///
/// ```
/// use harp_beer::{DecodeFlag, VisibleErrorProfile};
/// use harp_ecc::ExtendedHammingCode;
///
/// let code = ExtendedHammingCode::random(8, 3)?;
/// let profile = VisibleErrorProfile::from_code(&code);
/// // SEC-DED: every data-bit pair is detected, never miscorrected...
/// assert!(profile.pairs().all(|(_, r)| r.flag == DecodeFlag::Detected));
/// // ...so only the weight-3 responses carry column information.
/// assert!(profile.miscorrecting_triple_count() > 0);
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisibleErrorProfile {
    data_bits: usize,
    pairs: BTreeMap<(usize, usize), PatternResponse>,
    triples: BTreeMap<(usize, usize, usize), PatternResponse>,
}

impl VisibleErrorProfile {
    /// Builds a profile from explicit pattern observations.
    ///
    /// # Panics
    ///
    /// Panics if any pattern key is not strictly ascending, any position is
    /// out of range, or any recorded post-correction error is out of range.
    pub fn new(
        data_bits: usize,
        pairs: BTreeMap<(usize, usize), PatternResponse>,
        triples: BTreeMap<(usize, usize, usize), PatternResponse>,
    ) -> Self {
        for (&(i, j), response) in &pairs {
            assert!(i < j && j < data_bits, "pair ({i}, {j}) invalid");
            for &p in &response.post_errors {
                assert!(p < data_bits, "post error {p} out of range");
            }
        }
        for (&(i, j, l), response) in &triples {
            assert!(
                i < j && j < l && l < data_bits,
                "triple ({i}, {j}, {l}) invalid"
            );
            for &p in &response.post_errors {
                assert!(p < data_bits, "post error {p} out of range");
            }
        }
        Self {
            data_bits,
            pairs,
            triples,
        }
    }

    /// The ground-truth profile computed directly from a known code. Exact
    /// for any [`LinearBlockCode`], by the same linearity argument as
    /// [`MiscorrectionProfile::from_code`].
    pub fn from_code<C: LinearBlockCode + ?Sized>(code: &C) -> Self {
        let k = code.data_len();
        let mut pairs = BTreeMap::new();
        let mut triples = BTreeMap::new();
        for i in 0..k {
            for j in (i + 1)..k {
                pairs.insert((i, j), PatternResponse::of_code(code, &[i, j]));
                for l in (j + 1)..k {
                    triples.insert((i, j, l), PatternResponse::of_code(code, &[i, j, l]));
                }
            }
        }
        Self {
            data_bits: k,
            pairs,
            triples,
        }
    }

    /// The dataword length the profile describes.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// All pair observations in canonical order.
    pub fn pairs(&self) -> impl Iterator<Item = (&(usize, usize), &PatternResponse)> {
        self.pairs.iter()
    }

    /// All triple observations in canonical order.
    pub fn triples(&self) -> impl Iterator<Item = (&(usize, usize, usize), &PatternResponse)> {
        self.triples.iter()
    }

    /// All observations — pairs then triples — as (charged positions,
    /// response). This is the family-agnostic view the reconstruction
    /// constraint extractor consumes.
    pub fn patterns(&self) -> impl Iterator<Item = (Vec<usize>, &PatternResponse)> {
        self.pairs.iter().map(|(&(i, j), r)| (vec![i, j], r)).chain(
            self.triples
                .iter()
                .map(|(&(i, j, l), r)| (vec![i, j, l], r)),
        )
    }

    /// The number of recorded patterns (pairs plus triples).
    pub fn pattern_count(&self) -> usize {
        self.pairs.len() + self.triples.len()
    }

    /// The number of pairs that provoke a data-visible miscorrection.
    pub fn miscorrecting_pair_count(&self) -> usize {
        self.pairs
            .iter()
            .filter(|(&(i, j), r)| r.miscorrection(&[i, j]).is_some())
            .count()
    }

    /// The number of triples that provoke a data-visible miscorrection —
    /// the observations that expose a SEC-DED code's columns.
    pub fn miscorrecting_triple_count(&self) -> usize {
        self.triples
            .iter()
            .filter(|(&(i, j, l), r)| r.miscorrection(&[i, j, l]).is_some())
            .count()
    }

    /// The pairwise [`MiscorrectionProfile`] view of this profile (what the
    /// BEEP profiler and HARP-A's pairwise precomputation consume).
    pub fn miscorrection_profile(&self) -> MiscorrectionProfile {
        MiscorrectionProfile::new(
            self.data_bits,
            self.pairs
                .iter()
                .map(|(&(i, j), r)| ((i, j), r.miscorrection(&[i, j])))
                .collect(),
        )
    }

    /// Returns `true` if every recorded observation — post-correction errors
    /// *and* decoder status flag — matches the behaviour of `code`. Partial
    /// profiles (fewer patterns than the full weight-2/3 enumeration) are
    /// judged on what they recorded.
    pub fn is_consistent_with<C: LinearBlockCode + ?Sized>(&self, code: &C) -> bool {
        if code.data_len() != self.data_bits {
            return false;
        }
        self.pairs
            .iter()
            .all(|(&(i, j), r)| PatternResponse::of_code(code, &[i, j]) == *r)
            && self
                .triples
                .iter()
                .all(|(&(i, j, l), r)| PatternResponse::of_code(code, &[i, j, l]) == *r)
    }

    /// Returns `true` if the *post-correction error* part of every recorded
    /// observation matches `code` — i.e. the code is indistinguishable from
    /// the observed chip by normal data reads over the recorded patterns.
    ///
    /// This deliberately ignores the status flag: a detected-uncorrectable
    /// pattern and an invisible parity-bit correction return identical data,
    /// and which of the two a given syndrome produces depends on residual
    /// column freedom that data reads cannot pin down. Reconstruction
    /// ([`crate::reconstruct_code`]) accepts candidates on this criterion,
    /// which is exactly what [`crate::data_visible_equivalent`] certifies
    /// and what the H-aware profilers (BEEP, HARP-A) consume.
    pub fn is_data_visible_consistent_with<C: LinearBlockCode + ?Sized>(&self, code: &C) -> bool {
        if code.data_len() != self.data_bits {
            return false;
        }
        self.pairs.iter().all(|(&(i, j), r)| {
            PatternResponse::of_code(code, &[i, j]).post_errors == r.post_errors
        }) && self.triples.iter().all(|(&(i, j, l), r)| {
            PatternResponse::of_code(code, &[i, j, l]).post_errors == r.post_errors
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;

    #[test]
    fn ground_truth_profile_covers_all_pairs() {
        let code = HammingCode::random(16, 5).unwrap();
        let profile = MiscorrectionProfile::from_code(&code);
        assert_eq!(profile.data_bits(), 16);
        assert_eq!(profile.pairs().count(), 16 * 15 / 2);
        assert!(profile.is_consistent_with(&code));
    }

    #[test]
    fn targets_match_direct_syndrome_computation() {
        let code = HammingCode::random(16, 7).unwrap();
        let profile = MiscorrectionProfile::from_code(&code);
        for i in 0..16 {
            for j in (i + 1)..16 {
                let syndrome = &code.column(i) ^ &code.column(j);
                let expected = code.position_for_syndrome(&syndrome).filter(|&m| m < 16);
                assert_eq!(profile.miscorrection_target(i, j), expected);
                // Order agnostic lookup.
                assert_eq!(profile.miscorrection_target(j, i), expected);
            }
        }
    }

    #[test]
    fn pairwise_prediction_is_subset_of_full_harp_a_prediction() {
        use harp_ecc::analysis::{predict_indirect_from_direct, FailureDependence};
        let code = HammingCode::random(16, 9).unwrap();
        let profile = MiscorrectionProfile::from_code(&code);
        let direct = [0usize, 3, 7, 11];
        let pairwise = profile.predict_indirect_from_direct(&direct);
        let full = predict_indirect_from_direct(&code, &direct, FailureDependence::TrueCell);
        for p in &pairwise {
            assert!(
                full.contains(p),
                "pairwise prediction {p} missing from full prediction"
            );
        }
    }

    #[test]
    fn prediction_excludes_direct_bits() {
        let code = HammingCode::random(16, 13).unwrap();
        let profile = MiscorrectionProfile::from_code(&code);
        let direct = [1usize, 2, 3, 4, 5];
        let predicted = profile.predict_indirect_from_direct(&direct);
        for d in direct {
            assert!(!predicted.contains(&d));
        }
        assert!(profile.predict_indirect_from_direct(&[]).is_empty());
        assert!(profile.predict_indirect_from_direct(&[0]).is_empty());
    }

    #[test]
    fn different_codes_usually_have_different_profiles() {
        let a = MiscorrectionProfile::from_code(&HammingCode::random(16, 1).unwrap());
        let b = MiscorrectionProfile::from_code(&HammingCode::random(16, 2).unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn miscorrecting_pair_count_is_positive_for_real_codes() {
        // Hamming codes over 16 data bits have many pair sums landing on
        // other data columns.
        let code = HammingCode::random(16, 21).unwrap();
        let profile = MiscorrectionProfile::from_code(&code);
        assert!(profile.miscorrecting_pair_count() > 0);
    }

    #[test]
    #[should_panic(expected = "must be ordered")]
    fn unordered_pairs_are_rejected() {
        let mut pairs = BTreeMap::new();
        pairs.insert((3usize, 1usize), None);
        MiscorrectionProfile::new(8, pairs);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn self_targets_are_rejected() {
        let mut pairs = BTreeMap::new();
        pairs.insert((1usize, 3usize), Some(3usize));
        MiscorrectionProfile::new(8, pairs);
    }

    mod visible {
        use super::*;
        use harp_ecc::ExtendedHammingCode;

        #[test]
        fn covers_every_pair_and_triple() {
            let code = HammingCode::random(8, 4).unwrap();
            let profile = VisibleErrorProfile::from_code(&code);
            assert_eq!(profile.data_bits(), 8);
            assert_eq!(profile.pairs().count(), 8 * 7 / 2);
            assert_eq!(profile.triples().count(), 8 * 7 * 6 / 6);
            assert_eq!(profile.pattern_count(), 28 + 56);
            assert_eq!(profile.patterns().count(), profile.pattern_count());
            assert!(profile.is_consistent_with(&code));
        }

        #[test]
        fn pairwise_view_matches_the_legacy_profile() {
            for seed in [2u64, 11, 0xFE] {
                let code = HammingCode::random(16, seed).unwrap();
                let visible = VisibleErrorProfile::from_code(&code);
                assert_eq!(
                    visible.miscorrection_profile(),
                    MiscorrectionProfile::from_code(&code),
                    "seed {seed}"
                );
            }
        }

        #[test]
        fn secded_pairs_are_all_detected_and_carry_no_miscorrections() {
            let code = ExtendedHammingCode::random(8, 7).unwrap();
            let profile = VisibleErrorProfile::from_code(&code);
            for (&(i, j), response) in profile.pairs() {
                assert_eq!(response.flag, DecodeFlag::Detected, "pair ({i}, {j})");
                assert_eq!(response.post_errors, vec![i, j]);
            }
            assert_eq!(profile.miscorrecting_pair_count(), 0);
            // Weight 3 is where the columns become visible.
            assert!(profile.miscorrecting_triple_count() > 0);
        }

        #[test]
        fn sec_pairs_do_miscorrect_where_secded_detects() {
            let inner = HammingCode::random(8, 7).unwrap();
            let profile = VisibleErrorProfile::from_code(&inner);
            assert!(profile.miscorrecting_pair_count() > 0);
            // The same inner columns, extended: those observations vanish.
            let extended = ExtendedHammingCode::from_hamming(inner);
            assert!(!profile.is_consistent_with(&extended));
        }

        #[test]
        fn consistency_distinguishes_codes() {
            let a = HammingCode::random(16, 31).unwrap();
            let b = HammingCode::random(16, 32).unwrap();
            let profile = VisibleErrorProfile::from_code(&a);
            assert!(profile.is_consistent_with(&a));
            assert!(!profile.is_consistent_with(&b));
            // Wrong dataword length is never consistent.
            let small = HammingCode::random(8, 31).unwrap();
            assert!(!profile.is_consistent_with(&small));
        }

        #[test]
        fn miscorrection_accessor_skips_charged_positions() {
            let response = PatternResponse {
                post_errors: vec![1, 3, 5],
                flag: DecodeFlag::Corrected,
            };
            assert_eq!(response.miscorrection(&[1, 3]), Some(5));
            assert_eq!(response.miscorrection(&[1, 3, 5]), None);
        }

        #[test]
        #[should_panic(expected = "triple (2, 1, 3) invalid")]
        fn unordered_triples_are_rejected() {
            let mut triples = BTreeMap::new();
            triples.insert(
                (2usize, 1usize, 3usize),
                PatternResponse {
                    post_errors: vec![],
                    flag: DecodeFlag::Clean,
                },
            );
            VisibleErrorProfile::new(8, BTreeMap::new(), triples);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn profile_round_trips_through_the_campaign(seed in 0u64..200) {
                // The black-box campaign must always recover exactly the
                // ground-truth profile, whatever the secret code is.
                let secret = HammingCode::random(16, seed).unwrap();
                let recovered = crate::BeerCampaign::new(16).extract_profile(&secret);
                prop_assert_eq!(recovered, MiscorrectionProfile::from_code(&secret));
            }

            #[test]
            fn predictions_are_always_within_the_true_indirect_space(
                seed in 0u64..100,
                direct in proptest::collection::btree_set(0usize..16, 2..6),
            ) {
                use harp_ecc::analysis::{predict_indirect_from_direct, FailureDependence};
                let code = HammingCode::random(16, seed).unwrap();
                let profile = MiscorrectionProfile::from_code(&code);
                let direct: Vec<usize> = direct.into_iter().collect();
                let pairwise = profile.predict_indirect_from_direct(&direct);
                let full =
                    predict_indirect_from_direct(&code, &direct, FailureDependence::TrueCell);
                for p in pairwise {
                    prop_assert!(full.contains(&p));
                }
            }

            #[test]
            fn miscorrection_targets_never_collide_with_their_pair(seed in 0u64..100) {
                let code = HammingCode::random(32, seed).unwrap();
                let profile = MiscorrectionProfile::from_code(&code);
                for ((i, j), target) in profile.pairs() {
                    if let Some(m) = target {
                        prop_assert!(m != i && m != j && *m < 32);
                    }
                }
            }
        }
    }
}
