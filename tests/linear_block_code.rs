//! Cross-code property tests for the `LinearBlockCode` abstraction layer.
//!
//! Every property here is asserted for all three code families (SEC Hamming,
//! SEC-DED extended Hamming, DEC BCH) *through the trait*, so a new
//! implementation that violates the layer's contract fails these tests
//! before it ever reaches an experiment. Includes the determinism check that
//! `harp_sim::runner::parallel_map` matches the sequential path when driving
//! whole campaigns.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use harp_bch::BchCode;
use harp_ecc::analysis::{
    charging_dataword, classify_decode, predict_indirect_from_direct, FailureDependence,
    GroundTruth, IndirectPredictor,
};
use harp_ecc::{DecodeOutcome, ErrorSpace, ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_gf2::BitVec;
use harp_memsim::pattern::DataPattern;
use harp_memsim::{BurstScratch, FaultModel, MemoryChip, ReadObservation};
use harp_profiler::{ProfilerKind, ProfilingCampaign};

/// The three shipped implementations, boxed behind the trait.
fn all_codes(data_bits: usize, seed: u64) -> Vec<Box<dyn LinearBlockCode>> {
    vec![
        Box::new(HammingCode::random(data_bits, seed).expect("valid Hamming code")),
        Box::new(ExtendedHammingCode::random(data_bits, seed).expect("valid SEC-DED code")),
        Box::new(BchCode::dec(data_bits).expect("valid BCH code")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode round-trips cleanly for every code family.
    #[test]
    fn encode_decode_round_trip_across_codes(
        seed in 0u64..200,
        data_value in any::<u64>(),
    ) {
        for code in all_codes(32, seed) {
            let data = BitVec::from_u64(32, data_value & 0xFFFF_FFFF);
            let result = code.decode(&code.encode(&data));
            prop_assert_eq!(&result.dataword, &data, "{}", code.description());
            prop_assert_eq!(&result.outcome, &DecodeOutcome::NoErrorDetected);
            prop_assert!(result.syndrome.is_zero());
        }
    }

    /// Valid codewords have zero syndrome through the kernel path, and the
    /// kernel agrees with the parity-check matrix on corrupted words.
    #[test]
    fn zero_syndrome_for_valid_codewords_across_codes(
        seed in 0u64..200,
        data_value in any::<u64>(),
        flip in 0usize..32,
    ) {
        for code in all_codes(32, seed) {
            let data = BitVec::from_u64(32, data_value & 0xFFFF_FFFF);
            let mut stored = code.encode(&data);
            prop_assert!(code.syndrome(&stored).is_zero(), "{}", code.description());
            stored.flip(flip);
            prop_assert_eq!(
                code.syndrome(&stored),
                code.parity_check_matrix().mul_vec(&stored)
            );
        }
    }

    /// Every code corrects any error of weight up to its stated capability.
    #[test]
    fn errors_within_capability_are_corrected(
        seed in 0u64..100,
        a in 0usize..32,
        b in 0usize..32,
    ) {
        for code in all_codes(32, seed) {
            let t = code.correction_capability();
            let data = BitVec::from_u64(32, 0xA5A5_5A5A);
            let positions: BTreeSet<usize> = [a, b].into_iter().take(t).collect();
            let error = BitVec::from_indices(
                code.codeword_len(),
                positions.iter().copied(),
            );
            let result = code.encode_corrupt_decode(&data, &error);
            prop_assert_eq!(&result.dataword, &data, "{}", code.description());
        }
    }

    /// Ground-truth classification agrees between Hamming and BCH accessed
    /// through the trait: a single raw error is a true correction for both,
    /// and classification never mislabels the injected pattern.
    #[test]
    fn direct_vs_indirect_classification_agreement(
        seed in 0u64..100,
        pos in 0usize..32,
    ) {
        let hamming = HammingCode::random(32, seed).unwrap();
        let bch = BchCode::dec(32).unwrap();
        let data = BitVec::ones(32);
        for code in [&hamming as &dyn LinearBlockCode, &bch as &dyn LinearBlockCode] {
            let raw = BitVec::from_indices(code.codeword_len(), [pos]);
            let result = code.encode_corrupt_decode(&data, &raw);
            prop_assert_eq!(
                classify_decode(code, &raw, &result),
                GroundTruth::CorrectedTrue { positions: vec![pos] },
                "{}", code.description()
            );
        }
    }

    /// Burst reads are byte-identical to a word-at-a-time `read` loop with
    /// the same RNG stream, for every code family. The seeded chip mixes
    /// clean words (all-zero syndromes), single-error words, and multi-error
    /// words (beyond each code's correction capability), so every decode
    /// outcome — no-error, true correction, miscorrection, and
    /// detected-uncorrectable — flows through the comparison.
    #[test]
    fn burst_reads_match_scalar_reads_across_codes(
        seed in 0u64..100,
        probability in proptest::sample::select(vec![0.5f64, 1.0]),
        heavy in proptest::collection::btree_set(0usize..38, 3..6),
    ) {
        for code in all_codes(32, seed) {
            let n = code.codeword_len();
            let mut chip = MemoryChip::new(&*code, 8);
            // Word 0 stays clean; the rest cover increasing error weights.
            chip.set_fault_model(1, FaultModel::uniform(&[n - 1], probability));
            chip.set_fault_model(2, FaultModel::uniform(&[0, 7], probability));
            chip.set_fault_model(3, FaultModel::uniform(&[1, 2, 3], probability));
            let heavy: Vec<usize> = heavy.iter().map(|&b| b % n).collect();
            chip.set_fault_model(4, FaultModel::uniform(&heavy, probability));
            chip.set_fault_model(6, FaultModel::uniform(&[5, n - 2], 1.0));
            for word in 0..8 {
                let data = BitVec::from_u64(32, 0xF0F1_2345u64.rotate_left(word as u32));
                chip.write(word as usize, &data);
            }

            let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB512);
            let scalar: Vec<ReadObservation> =
                (0..8).map(|w| chip.read(w, &mut scalar_rng)).collect();

            let mut burst_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB512);
            let mut scratch = BurstScratch::new();
            let burst = chip.read_burst(0..8, &mut burst_rng, &mut scratch);

            prop_assert_eq!(burst, scalar.as_slice(), "{}", code.description());
            // Clean word sanity: the all-zero-syndrome path is exercised.
            prop_assert_eq!(
                &burst[0].decode_result().outcome,
                &DecodeOutcome::NoErrorDetected
            );
        }
    }

    /// `decode_with_syndrome_into` (the allocation-free burst half) agrees
    /// exactly with the reference `decode` for every family — including when
    /// invoked repeatedly on one reused `DecodeResult`, which must never
    /// leak state from a previous decode.
    #[test]
    fn syndrome_resolution_matches_reference_decode(
        seed in 0u64..100,
        weights in proptest::collection::vec(0usize..4, 4),
    ) {
        for code in all_codes(32, seed) {
            let n = code.codeword_len();
            let mut reused = harp_ecc::DecodeResult::default();
            for (i, &weight) in weights.iter().enumerate() {
                let error = BitVec::from_indices(
                    n,
                    (0..weight).map(|e| (e * 11 + i * 7) % n),
                );
                let stored = &code.encode(&BitVec::from_u64(32, 0x5EED_0000 + i as u64)) ^ &error;
                let reference = code.decode(&stored);
                let syndrome_word = code.syndrome_kernel().syndrome_word(&stored);
                code.decode_with_syndrome_into(&stored, syndrome_word, &mut reused);
                prop_assert_eq!(&reused, &reference, "{} weight {}", code.description(), weight);
            }
        }
    }

    /// The enumerated error space is exact for every family: direct and
    /// indirect sets partition the post-correction set, and repairing the
    /// direct bits bounds residual simultaneous errors by the capability.
    #[test]
    fn error_space_invariants_hold_across_codes(
        seed in 0u64..60,
        at_risk in proptest::collection::btree_set(0usize..32, 2..5),
    ) {
        let positions: Vec<usize> = at_risk.iter().copied().collect();
        for code in all_codes(32, seed) {
            let space = ErrorSpace::enumerate(
                code.as_ref(),
                &positions,
                FailureDependence::TrueCell,
            );
            let union: BTreeSet<usize> = space
                .direct_at_risk()
                .union(space.indirect_at_risk())
                .copied()
                .collect();
            prop_assert!(space.post_correction_at_risk().is_subset(&union));
            let direct = space.direct_at_risk().clone();
            prop_assert!(
                space.max_simultaneous_errors_outside(&direct)
                    <= code.correction_capability(),
                "{}", code.description()
            );
        }
    }
}

/// The three data dependences a cell can have.
const DEPENDENCES: [FailureDependence; 3] = [
    FailureDependence::TrueCell,
    FailureDependence::AntiCell,
    FailureDependence::DataIndependent,
];

/// The error space the packed enumeration replaced, kept as its oracle:
/// every subset of the at-risk bits that `charging_dataword` can charge,
/// decoded with `decode`, its post-correction errors worked out with set
/// arithmetic.
struct NaiveSpace {
    at_risk: BTreeSet<usize>,
    direct: BTreeSet<usize>,
    indirect: BTreeSet<usize>,
    post: BTreeSet<usize>,
    patterns: Vec<BTreeSet<usize>>,
}

impl NaiveSpace {
    fn enumerate(
        code: &dyn LinearBlockCode,
        at_risk: &[usize],
        dependence: FailureDependence,
    ) -> Self {
        let at_risk: BTreeSet<usize> = at_risk.iter().copied().collect();
        let positions: Vec<usize> = at_risk.iter().copied().collect();
        let k = code.data_len();
        let mut patterns = Vec::new();
        for mask in 1u64..(1 << positions.len()) {
            let subset: Vec<usize> = (0..positions.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| positions[i])
                .collect();
            if charging_dataword(code, &subset, dependence).is_none() {
                continue;
            }
            let error = BitVec::from_indices(code.codeword_len(), subset.iter().copied());
            let flipped: BTreeSet<usize> = code
                .decode(&error)
                .outcome
                .corrected_positions()
                .iter()
                .copied()
                .collect();
            let raw: BTreeSet<usize> = subset.into_iter().collect();
            patterns.push(
                (0..k)
                    .filter(|p| raw.contains(p) != flipped.contains(p))
                    .collect(),
            );
        }
        let post: BTreeSet<usize> = patterns.iter().flatten().copied().collect();
        let direct: BTreeSet<usize> = positions
            .iter()
            .copied()
            .filter(|&p| code.layout().is_data(p))
            .filter(|&p| charging_dataword(code, &[p], dependence).is_some())
            .collect();
        Self {
            indirect: post.difference(&direct).copied().collect(),
            at_risk,
            direct,
            post,
            patterns,
        }
    }

    fn max_simultaneous_errors_outside(&self, repaired: &BTreeSet<usize>) -> usize {
        self.patterns
            .iter()
            .map(|errors| errors.difference(repaired).count())
            .max()
            .unwrap_or(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed enumeration (Gray-code walk, syndrome decode, parity-only
    /// chargeability solve, dataword masks) equals the naive one for every
    /// family and dependence, with at-risk sets that mix data and parity
    /// positions; so does the worst simultaneous-error count outside random
    /// repaired sets, which may hold bits at or past the dataword length.
    /// The 8-bit datawords make unchargeable subsets common.
    #[test]
    fn packed_error_space_matches_the_naive_enumeration(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..10_000, 1..7),
        repairs in proptest::collection::vec(
            proptest::collection::vec(0usize..10_000, 0..10),
            4,
        ),
    ) {
        for code in all_codes(8, seed).into_iter().chain(all_codes(32, seed)) {
            let n = code.codeword_len();
            let at_risk: Vec<usize> = picks.iter().map(|pick| pick % n).collect();
            for dependence in DEPENDENCES {
                let space = ErrorSpace::enumerate(code.as_ref(), &at_risk, dependence);
                let naive = NaiveSpace::enumerate(code.as_ref(), &at_risk, dependence);
                let what = format!("{} {dependence:?} {at_risk:?}", code.description());
                prop_assert_eq!(space.at_risk_pre_correction(), &naive.at_risk, "{}", what);
                prop_assert_eq!(space.direct_at_risk(), &naive.direct, "{}", what);
                prop_assert_eq!(space.indirect_at_risk(), &naive.indirect, "{}", what);
                prop_assert_eq!(space.post_correction_at_risk(), &naive.post, "{}", what);
                for repair in &repairs {
                    let repaired: BTreeSet<usize> =
                        repair.iter().map(|bit| bit % (n + 8)).collect();
                    prop_assert_eq!(
                        space.max_simultaneous_errors_outside(&repaired),
                        naive.max_simultaneous_errors_outside(&repaired),
                        "{} repaired {:?}", what, repaired
                    );
                }
            }
        }
    }

    /// The incremental predictor, fed direct bits in random order (with
    /// parity positions and repeats, which it ignores), equals
    /// `predict_indirect_from_direct` over the bits added so far after every
    /// addition, for every family.
    #[test]
    fn incremental_prediction_matches_the_batch_prediction(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..10_000, 1..9),
    ) {
        for code in all_codes(32, seed) {
            let n = code.codeword_len();
            let mut predictor = IndirectPredictor::default();
            let mut added = Vec::new();
            for pick in &picks {
                let bit = pick % n;
                let new = code.layout().is_data(bit) && !added.contains(&bit);
                prop_assert_eq!(predictor.add_direct(code.as_ref(), bit), new);
                added.push(bit);
                let batch =
                    predict_indirect_from_direct(code.as_ref(), &added, FailureDependence::TrueCell);
                prop_assert_eq!(
                    predictor.predicted(),
                    &batch,
                    "{} after {:?}", code.description(), added
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `write_in_place` (the parity bits computed over packed words and
    /// spliced into the stored codeword) leaves every word exactly as
    /// `write` (the full `encode`) does, for random data on all three
    /// families, over slots that already hold earlier words. The data
    /// lengths put the parity bits across a `u64` boundary (60, and 120
    /// for SEC-DED and BCH) and at the start of one (64, 128). With no
    /// faults a read returns the stored codeword verbatim, so equal reads
    /// mean equal chips.
    #[test]
    fn write_in_place_matches_the_full_encode(
        seed in 0u64..200,
        k in proptest::sample::select(vec![60usize, 64, 120, 128]),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3171);
        for code in all_codes(k, seed) {
            let mut encoded = MemoryChip::new(&*code, 3);
            let mut in_place = MemoryChip::new(&*code, 3);
            for write in 0..12 {
                let word = write % 3;
                let data: BitVec = (0..k).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect();
                encoded.write(word, &data);
                in_place.write_in_place(word, &data);
                let mut reads = ChaCha8Rng::seed_from_u64(seed);
                prop_assert_eq!(
                    encoded.read(word, &mut reads),
                    in_place.read(word, &mut reads),
                    "{} write {}", code.description(), write
                );
            }
        }
    }
}

/// `HammingCode`'s sorted syndrome lookup resolves every one of the `2^p`
/// syndromes exactly as a scan of `parity_check_matrix()`'s columns does:
/// for minimal codes of several dataword lengths, for a code built with
/// more parity bits than it needs, and through SEC-DED's inner code.
#[test]
fn syndrome_lookup_matches_a_scan_of_the_columns() {
    fn check(code: &HammingCode) {
        let h = code.parity_check_matrix();
        let p = code.parity_len();
        let columns: Vec<u64> = (0..h.cols()).map(|i| h.col(i).to_u64()).collect();
        for syndrome in 0..(1u64 << p) {
            let scan = columns
                .iter()
                .position(|&column| syndrome != 0 && column == syndrome);
            assert_eq!(
                code.position_for_syndrome_word(syndrome),
                scan,
                "{} syndrome {syndrome:#x}",
                code.description()
            );
            assert_eq!(
                code.position_for_syndrome(&BitVec::from_u64(p, syndrome)),
                scan
            );
        }
    }
    for k in [4, 8, 16, 32, 64, 120, 128] {
        for seed in 0..3 {
            check(&HammingCode::random(k, seed).expect("valid Hamming code"));
            let secded = ExtendedHammingCode::random(k, seed).expect("valid SEC-DED code");
            check(secded.inner());
        }
    }
    // Ten parity bits for twenty data bits, where five would do.
    let wide: Vec<BitVec> = (0u64..1 << 10)
        .filter(|column| column.count_ones() >= 2)
        .step_by(37)
        .take(20)
        .map(|column| BitVec::from_u64(10, column))
        .collect();
    let wide = HammingCode::from_data_columns(wide).expect("valid Hamming code");
    assert!(wide.parity_len() > harp_ecc::CodeShape::min_parity_bits(wide.data_len()));
    check(&wide);
}

/// An unchargeable pattern must stay out of the packed space. Random at-risk
/// sets rarely show it (an unchargeable subset's errors are almost always
/// caused by a chargeable one too), so this pins one case: in the (13, 5)
/// DEC BCH code, true cells at 2, 3 and 7 cannot all be charged, and that
/// three-bit pattern is the only one the decoder leaves uncorrected.
#[test]
fn unchargeable_patterns_stay_out_of_the_packed_space() {
    let code = BchCode::dec(5).expect("valid BCH code");
    let at_risk = [2, 3, 7];
    let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
    let naive = NaiveSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
    assert_eq!(space.post_correction_at_risk(), &naive.post);
    assert!(space.post_correction_at_risk().is_empty());
    assert_eq!(space.max_simultaneous_errors_outside(&BTreeSet::new()), 0);
    // Without the charge constraint the same bits do leak.
    let unconstrained = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::DataIndependent);
    assert_eq!(
        unconstrained.post_correction_at_risk(),
        &BTreeSet::from([2, 3])
    );
}

/// A code that implements only the required `LinearBlockCode` methods, so
/// burst reads resolve syndromes through the trait's *default*
/// `decode_with_syndrome_into` (the allocating `decode` fallback). New code
/// implementations must be correct on the burst path before they override
/// the fast path; this wrapper proves the default keeps the equivalence.
#[derive(Debug, Clone)]
struct MinimalCode(HammingCode);

impl LinearBlockCode for MinimalCode {
    fn layout(&self) -> harp_ecc::WordLayout {
        self.0.layout()
    }
    fn correction_capability(&self) -> usize {
        self.0.correction_capability()
    }
    fn parity_check_matrix(&self) -> &harp_gf2::Gf2Matrix {
        self.0.parity_check_matrix()
    }
    fn parity_block(&self) -> &harp_gf2::Gf2Matrix {
        self.0.parity_block()
    }
    fn syndrome_kernel(&self) -> &harp_gf2::SyndromeKernel {
        self.0.syndrome_kernel()
    }
    fn decode(&self, stored: &BitVec) -> harp_ecc::DecodeResult {
        self.0.decode(stored)
    }
    fn description(&self) -> String {
        format!("minimal wrapper of {}", self.0.description())
    }
    // Deliberately no decode_with_syndrome_into override.
}

#[test]
fn burst_reads_through_the_default_decode_fallback_match_scalar_reads() {
    let code = MinimalCode(HammingCode::random(64, 41).unwrap());
    let mut chip = MemoryChip::new(code, 4);
    chip.set_fault_model(1, FaultModel::uniform(&[8], 1.0));
    chip.set_fault_model(2, FaultModel::uniform(&[3, 60], 1.0));
    for word in 0..4 {
        chip.write(word, &BitVec::ones(64));
    }
    let mut scalar_rng = ChaCha8Rng::seed_from_u64(77);
    let scalar: Vec<ReadObservation> = (0..4).map(|w| chip.read(w, &mut scalar_rng)).collect();
    let mut burst_rng = ChaCha8Rng::seed_from_u64(77);
    let mut scratch = BurstScratch::new();
    assert_eq!(
        chip.read_burst(0..4, &mut burst_rng, &mut scratch),
        scalar.as_slice()
    );
}

/// The generic campaign path produces identical results whether the word
/// population is mapped sequentially or across worker threads.
#[test]
fn parallel_map_campaigns_match_sequential_path() {
    let codes: Vec<HammingCode> = (0..8)
        .map(|seed| HammingCode::random(64, seed).unwrap())
        .collect();
    let run_one = |code: &HammingCode| {
        let campaign = ProfilingCampaign::new(
            code.clone(),
            FaultModel::uniform(&[3, 19, 42], 0.5),
            DataPattern::Random,
            11,
        );
        campaign.run(ProfilerKind::HarpA, 24)
    };
    let sequential = harp_sim::runner::parallel_map(&codes, 1, run_one);
    let parallel = harp_sim::runner::parallel_map(&codes, 4, run_one);
    let oversubscribed = harp_sim::runner::parallel_map(&codes, 64, run_one);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential, oversubscribed);
}

/// The same profiler lineup completes a campaign against each code family
/// and only ever reports genuinely at-risk bits.
#[test]
fn generic_campaign_reports_only_at_risk_bits_for_every_family() {
    let at_risk = [2usize, 9, 21];
    let hamming = HammingCode::random(32, 5).unwrap();
    let secded = ExtendedHammingCode::random(32, 5).unwrap();
    let bch = BchCode::dec(32).unwrap();

    fn check<C: LinearBlockCode + Clone + Send + 'static>(code: C, at_risk: &[usize]) {
        let campaign = ProfilingCampaign::new(
            code,
            FaultModel::uniform(at_risk, 0.75),
            DataPattern::Random,
            13,
        );
        let space = campaign.error_space();
        for kind in ProfilerKind::ALL {
            let result = campaign.run(kind, 48);
            for bit in result.final_identified() {
                assert!(
                    space.post_correction_at_risk().contains(&bit)
                        || space.direct_at_risk().contains(&bit),
                    "{kind}: bit {bit} is not at risk"
                );
            }
        }
    }

    check(hamming, &at_risk);
    check(secded, &at_risk);
    check(bch, &at_risk);
}

/// The SEC/SEC-DED visibility asymmetry: the same weight-2 data error that
/// a plain Hamming code (sometimes visibly) miscorrects is *detected* by
/// its extended counterpart — for every pair, and through the same trait.
#[test]
fn weight_2_data_errors_miscorrect_under_sec_but_are_detected_under_sec_ded() {
    for seed in [3u64, 9, 27] {
        let inner = HammingCode::random(16, seed).unwrap();
        let extended = ExtendedHammingCode::from_hamming(inner.clone());
        let mut visible_miscorrections = 0usize;
        for i in 0..16 {
            for j in (i + 1)..16 {
                let sec =
                    inner.decode_error_pattern(&BitVec::from_indices(inner.codeword_len(), [i, j]));
                // SEC applies *some* correction or detects — and when the
                // correction lands on a third data bit it is data-visible.
                if let Some(m) = sec.outcome.corrected_position() {
                    if m < 16 && m != i && m != j {
                        visible_miscorrections += 1;
                    }
                }
                let secded = extended
                    .decode_error_pattern(&BitVec::from_indices(extended.codeword_len(), [i, j]));
                assert_eq!(
                    secded.outcome,
                    DecodeOutcome::DetectedUncorrectable,
                    "seed {seed}: SEC-DED must detect pair ({i}, {j})"
                );
            }
        }
        assert!(
            visible_miscorrections > 0,
            "seed {seed}: a random (21, 16) Hamming code should visibly miscorrect some pair"
        );
    }
}

/// `data_visible_equivalent` tells a Hamming code apart from its own
/// extended counterpart exactly at the weights where the SEC/SEC-DED
/// asymmetry is observable: they agree at weight 1 (both correct every
/// single error) and differ at weights 2 and 3.
#[test]
fn data_visible_equivalence_distinguishes_a_code_from_its_extension() {
    use harp_beer::{data_visible_equivalent, MiscorrectionProfile};
    for seed in [5u64, 14] {
        let inner = HammingCode::random(16, seed).unwrap();
        // Precondition: the inner code has at least one data-visible pair
        // miscorrection (which the extension turns into a detection).
        assert!(
            MiscorrectionProfile::from_code(&inner).miscorrecting_pair_count() > 0,
            "seed {seed}"
        );
        let extended = ExtendedHammingCode::from_hamming(inner.clone());
        assert!(data_visible_equivalent(&inner, &extended, 1), "seed {seed}");
        assert!(
            !data_visible_equivalent(&inner, &extended, 2),
            "seed {seed}"
        );
        assert!(
            !data_visible_equivalent(&inner, &extended, 3),
            "seed {seed}"
        );
    }
}
