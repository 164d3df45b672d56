//! DEC-specific combinatorics for the BCH extension experiments.
//!
//! The error-space machinery that used to live here (a near-duplicate of
//! `harp_ecc::analysis` specialized to `t = 2`) is gone: `BchCode` implements
//! [`harp_ecc::LinearBlockCode`], so the generic
//! [`harp_ecc::ErrorSpace`], [`harp_ecc::analysis::charging_dataword`],
//! [`harp_ecc::analysis::is_chargeable`], and
//! [`harp_ecc::analysis::predict_indirect_from_direct`] apply to BCH words
//! directly — the enumeration drives the BCH decoder itself, so the `t = 2`
//! behaviour (up to two indirect errors per uncorrectable pattern) falls out
//! without any code-specific logic.
//!
//! What remains is the closed-form [`combinatorics`] module: the paper's
//! Table 2 generalized to a `t = 2` code, used by the `ext-bch` experiment
//! to contrast amplification under SEC vs. DEC on-die ECC.

/// Closed-form pattern counts for a `t`-error-correcting code protecting `n`
/// at-risk pre-correction bits (the Table 2 analysis generalized beyond
/// `t = 1`).
pub mod combinatorics {
    /// Number of distinct non-empty pre-correction error patterns over `n`
    /// at-risk bits: `2^n − 1`.
    pub fn unique_error_patterns(n: u32) -> u64 {
        (1u64 << n) - 1
    }

    /// Number of patterns a `t = 2` code corrects: all single and double
    /// errors, `n + n·(n−1)/2`.
    pub fn correctable_patterns_dec(n: u32) -> u64 {
        let n = n as u64;
        n + n * n.saturating_sub(1) / 2
    }

    /// Number of pre-correction error patterns a `t = 2` code cannot correct.
    pub fn uncorrectable_patterns_dec(n: u32) -> u64 {
        unique_error_patterns(n).saturating_sub(correctable_patterns_dec(n))
    }

    /// Worst-case number of dataword bits at risk of post-correction error:
    /// every at-risk data bit plus, for every uncorrectable pattern, up to
    /// `t = 2` distinct indirect errors. The loose upper bound used in the
    /// extension table is `min(k, n + 2·uncorrectable)`, reported here
    /// without the `k` clamp.
    pub fn worst_case_post_correction_at_risk_dec(n: u32) -> u64 {
        n as u64 + 2 * uncorrectable_patterns_dec(n)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn correctable_counts() {
            assert_eq!(correctable_patterns_dec(1), 1);
            assert_eq!(correctable_patterns_dec(2), 3);
            assert_eq!(correctable_patterns_dec(3), 6);
            assert_eq!(correctable_patterns_dec(4), 10);
            assert_eq!(correctable_patterns_dec(8), 36);
        }

        #[test]
        fn uncorrectable_counts() {
            // For n ≤ 2 every pattern is correctable by a DEC code.
            assert_eq!(uncorrectable_patterns_dec(1), 0);
            assert_eq!(uncorrectable_patterns_dec(2), 0);
            assert_eq!(uncorrectable_patterns_dec(3), 1);
            assert_eq!(uncorrectable_patterns_dec(4), 5);
            assert_eq!(uncorrectable_patterns_dec(8), 219);
        }

        #[test]
        fn dec_has_fewer_uncorrectable_patterns_than_sec() {
            for n in 1..=10u32 {
                let sec = harp_ecc::analysis::combinatorics::uncorrectable_patterns(n);
                assert!(uncorrectable_patterns_dec(n) <= sec, "n = {n}");
            }
        }

        #[test]
        fn worst_case_bound_grows_with_n() {
            assert_eq!(worst_case_post_correction_at_risk_dec(2), 2);
            assert!(worst_case_post_correction_at_risk_dec(5) > 5);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use harp_ecc::analysis::{charging_dataword, is_chargeable, FailureDependence};
    use harp_ecc::{ErrorSpace, LinearBlockCode};
    use harp_gf2::BitVec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::BchCode;

    #[test]
    fn two_at_risk_bits_cause_no_indirect_errors_under_dec() {
        // The headline difference from SEC on-die ECC: a DEC code corrects
        // every combination of two at-risk bits, so the post-correction
        // error space is empty.
        let code = BchCode::dec(16).unwrap();
        let space = ErrorSpace::enumerate(&code, &[2, 9], FailureDependence::TrueCell);
        assert!(space.post_correction_at_risk().is_empty());
        assert_eq!(space.direct_at_risk().len(), 2);
        assert_eq!(space.max_simultaneous_errors_outside(&BTreeSet::new()), 0);
    }

    #[test]
    fn three_at_risk_bits_expose_at_most_two_indirect_errors_at_once() {
        let code = BchCode::dec(16).unwrap();
        let space = ErrorSpace::enumerate(&code, &[0, 5, 11], FailureDependence::TrueCell);
        // Once the direct bits are repaired, at most t = 2 simultaneous
        // errors remain possible.
        let repaired: BTreeSet<usize> = space.direct_at_risk().clone();
        assert!(space.max_simultaneous_errors_outside(&repaired) <= 2);
    }

    #[test]
    fn enumeration_agrees_with_monte_carlo_observation() {
        // Every post-correction error observed by random simulation must lie
        // inside the enumerated at-risk set.
        let code = BchCode::dec(16).unwrap();
        let at_risk = [1usize, 4, 7, 20];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut rng = StdRng::seed_from_u64(11);
        let data = BitVec::ones(16);
        for _ in 0..2000 {
            let mut error = BitVec::zeros(code.codeword_len());
            for &pos in &at_risk {
                if rng.gen_bool(0.5) {
                    error.set(pos, true);
                }
            }
            let result = code.encode_corrupt_decode(&data, &error);
            for pos in result.post_correction_errors(&data) {
                assert!(
                    space.post_correction_at_risk().contains(&pos),
                    "observed error at {pos} outside the enumerated space"
                );
            }
        }
    }

    #[test]
    fn chargeability_of_data_bits_is_unconstrained() {
        let code = BchCode::dec(32).unwrap();
        assert!(is_chargeable(
            &code,
            &[0, 1, 2, 3, 31],
            FailureDependence::TrueCell
        ));
        assert!(is_chargeable(&code, &[], FailureDependence::TrueCell));
        assert!(is_chargeable(
            &code,
            &[40, 41],
            FailureDependence::DataIndependent
        ));
    }

    #[test]
    fn charging_dataword_satisfies_parity_constraints() {
        let code = BchCode::dec(16).unwrap();
        let positions = [2usize, 17, 20]; // one data bit, two parity bits
        if let Some(data) = charging_dataword(&code, &positions, FailureDependence::TrueCell) {
            let codeword = code.encode(&data);
            for &pos in &positions {
                assert!(codeword.get(pos), "position {pos} not charged");
            }
        }
    }

    #[test]
    fn direct_at_risk_excludes_parity_positions() {
        let code = BchCode::dec(16).unwrap();
        let space = ErrorSpace::enumerate(&code, &[3, 17, 19], FailureDependence::TrueCell);
        assert_eq!(
            space.direct_at_risk().iter().copied().collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(space.at_risk_pre_correction().len(), 3);
    }

    #[test]
    fn predictions_exclude_the_direct_bits_themselves() {
        use harp_ecc::analysis::predict_indirect_from_direct;
        let code = BchCode::dec(16).unwrap();
        let direct = [0usize, 3, 9];
        let predicted = predict_indirect_from_direct(&code, &direct, FailureDependence::TrueCell);
        for d in direct {
            assert!(!predicted.contains(&d));
        }
        assert!(predict_indirect_from_direct(&code, &[], FailureDependence::TrueCell).is_empty());
    }

    #[test]
    fn score_bookkeeping() {
        let code = BchCode::dec(16).unwrap();
        let space = ErrorSpace::enumerate(&code, &[0, 1, 2, 3], FailureDependence::TrueCell);
        let empty = BTreeSet::new();
        let all = space.score(space.post_correction_at_risk(), &empty);
        assert_eq!(all.direct_hits, space.direct_at_risk().len());
        assert_eq!((all.missed_indirect, all.max_simultaneous), (0, 0));
        let none = space.score(&empty, &empty);
        assert_eq!(none.direct_hits, 0);
        assert_eq!(none.missed_indirect, space.indirect_at_risk().len());
        let at_risk = !space.post_correction_at_risk().is_empty();
        assert_eq!(none.max_simultaneous > 0, at_risk);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_positions_are_rejected() {
        let code = BchCode::dec(16).unwrap();
        ErrorSpace::enumerate(&code, &[1000], FailureDependence::TrueCell);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn secondary_requirement_never_exceeds_t(
                positions in proptest::collection::btree_set(0usize..26, 2..7),
            ) {
                // The paper's insight 2, generalized: once every direct-error
                // bit is repaired, at most t = 2 simultaneous post-correction
                // errors remain possible, whatever the at-risk set is.
                let code = BchCode::dec(16).unwrap();
                let positions: Vec<usize> = positions.into_iter().collect();
                let space =
                    ErrorSpace::enumerate(&code, &positions, FailureDependence::TrueCell);
                let repaired = space.direct_at_risk().clone();
                prop_assert!(space.max_simultaneous_errors_outside(&repaired) <= 2);
            }

            #[test]
            fn observed_errors_always_lie_in_the_enumerated_space(
                positions in proptest::collection::btree_set(0usize..26, 2..6),
                flips in proptest::collection::vec(any::<bool>(), 6),
            ) {
                let code = BchCode::dec(16).unwrap();
                let positions: Vec<usize> = positions.into_iter().collect();
                let space =
                    ErrorSpace::enumerate(&code, &positions, FailureDependence::TrueCell);
                // Build one concrete raw error pattern from the at-risk set.
                let data = BitVec::ones(16);
                let mut error = BitVec::zeros(code.codeword_len());
                for (index, &pos) in positions.iter().enumerate() {
                    if flips.get(index).copied().unwrap_or(false) {
                        error.set(pos, true);
                    }
                }
                let result = code.encode_corrupt_decode(&data, &error);
                for pos in result.post_correction_errors(&data) {
                    prop_assert!(space.post_correction_at_risk().contains(&pos));
                }
            }

            #[test]
            fn charging_datawords_charge_what_they_promise(
                positions in proptest::collection::btree_set(0usize..26, 1..5),
            ) {
                let code = BchCode::dec(16).unwrap();
                let positions: Vec<usize> = positions.into_iter().collect();
                if let Some(data) =
                    charging_dataword(&code, &positions, FailureDependence::TrueCell)
                {
                    let codeword = code.encode(&data);
                    for &pos in &positions {
                        prop_assert!(codeword.get(pos), "position {} not charged", pos);
                    }
                }
            }
        }
    }
}
