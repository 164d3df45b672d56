//! Differential equivalence suite for cell-batched campaigns.
//!
//! `harp_profiler::CampaignBatch` scrubs every word of a sweep cell with one
//! multi-word burst per round; `ProfilingCampaign::run_profiler` is the
//! scalar reference that runs each word alone through one-word bursts. The
//! properties here prove the batched engine is a pure execution-plan change:
//! for **every profiler kind** and **every code family** (SEC Hamming,
//! SEC-DED extended Hamming, DEC BCH), batched per-round snapshots are
//! byte-identical to the scalar reference — including 1-word cells, cells
//! whose words carry heterogeneous fault models (different at-risk sets,
//! per-bit probabilities, and data-dependence behaviours), and words whose
//! cell membership changes.
//!
//! The sweeps never keep snapshots: they score each round into a
//! [`CoverageSeries`] as the batched campaign produces it. A second property
//! closes that gap, for every profiler kind and code family: each word's
//! series in a sweep equals the scalar oracle's snapshot history scored
//! after the fact by [`CoverageSeries::from_campaign`].
//!
//! The sweeps score only the rounds whose `observe_round` reports a change,
//! so a third property pins that flag down: for every profiler kind and
//! code family it is `true` exactly in the rounds that change the word's
//! identified or predicted set.
//!
//! This layer is what makes hot-path rewrites of the campaign engine safe to
//! keep making: any future change that perturbs a single RNG draw, write
//! order, snapshot, change flag or score breaks these tests before it
//! reaches an experiment.

use std::collections::BTreeSet;

use proptest::prelude::*;

use harp_bch::BchCode;
use harp_ecc::analysis::FailureDependence;
use harp_ecc::{ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_memsim::{AtRiskBit, FaultModel};
use harp_profiler::{
    BatchRun, BatchWord, CampaignBatch, CoverageSeries, ProfilerKind, ProfilingCampaign,
};
use harp_sim::experiments::sweep::run_coverage_sweep_with;
use harp_sim::sample::sample_words_with;
use harp_sim::EvaluationConfig;

/// Dataword length shared by all three families in this suite.
const DATA_BITS: usize = 32;

/// Profiling rounds per campaign (enough for every profiler to act on
/// multi-round state: inversion schedules, bootstrapping, predictions).
const ROUNDS: usize = 10;

/// One generated word of a cell: raw at-risk positions (reduced modulo the
/// code's length), a per-bit probability, a dependence selector, and seeds.
type WordSpec = (Vec<usize>, f64, u8, u64);

fn dependence_from(selector: u8) -> FailureDependence {
    match selector % 3 {
        0 => FailureDependence::TrueCell,
        1 => FailureDependence::AntiCell,
        _ => FailureDependence::DataIndependent,
    }
}

/// Builds the fault model of one word for a specific code, folding the raw
/// positions into the code's own codeword length.
fn fault_model_for(code: &dyn LinearBlockCode, spec: &WordSpec) -> FaultModel {
    let (positions, probability, dependence, _) = spec;
    let n = code.codeword_len();
    let mut folded: Vec<usize> = positions.iter().map(|&p| p % n).collect();
    folded.sort_unstable();
    folded.dedup();
    FaultModel::new(
        folded
            .into_iter()
            .enumerate()
            .map(|(i, position)| {
                // Heterogeneous per-bit probabilities within one word: step
                // the configured probability down per position (clamped away
                // from zero so the bit stays live).
                let p = (probability - 0.1 * i as f64).max(0.25);
                AtRiskBit::new(position, p)
            })
            .collect(),
        dependence_from(*dependence),
    )
}

/// Asserts that every word of the batched cell produces snapshots
/// byte-identical to the scalar reference path, for the given profiler kind.
fn assert_cell_matches_scalar<C: LinearBlockCode + Clone + Send + 'static>(
    code: &C,
    specs: &[WordSpec],
    kind: ProfilerKind,
) {
    let words: Vec<BatchWord> = specs
        .iter()
        .map(|spec| BatchWord::new(fault_model_for(code, spec), DataPattern::Random, spec.3))
        .collect();
    let batch = CampaignBatch::new(code.clone(), words);
    let batched = batch.run(kind, ROUNDS);
    assert_eq!(batched.len(), specs.len());
    for (index, result) in batched.iter().enumerate() {
        let scalar = batch.scalar_campaign(index).run(kind, ROUNDS);
        assert_eq!(
            result,
            &scalar,
            "{} word {} of {}: batched != scalar ({})",
            kind,
            index,
            specs.len(),
            code.description()
        );
        // Byte-identical, not merely equal: the serialized archives match.
        assert_eq!(
            serde_json::to_string(result).expect("serializable"),
            serde_json::to_string(&scalar).expect("serializable")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential property: for random cells of 1–5 words
    /// with heterogeneous fault models, every profiler kind produces
    /// byte-identical snapshots through the batched and scalar paths, for
    /// all three code families.
    #[test]
    fn batched_cells_match_the_scalar_reference_for_all_kinds_and_codes(
        seed in 0u64..200,
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..5),
                proptest::sample::select(vec![0.5f64, 0.75, 1.0]),
                any::<u8>(),
                any::<u64>(),
            ),
            1..5,
        ),
    ) {
        let hamming = HammingCode::random(DATA_BITS, seed).expect("valid Hamming code");
        let secded = ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code");
        let bch = BchCode::dec(DATA_BITS).expect("valid BCH code");
        for kind in ProfilerKind::ALL {
            assert_cell_matches_scalar(&hamming, &specs, kind);
            assert_cell_matches_scalar(&secded, &specs, kind);
            assert_cell_matches_scalar(&bch, &specs, kind);
        }
    }
}

/// Asserts that every change flag a batched run of `kind` over a cell of
/// `code` words reports is exactly whether that round changed the word's
/// identified or predicted set, against snapshots of both sets taken after
/// every round (a fresh profiler starts with both empty).
fn assert_change_flags_are_exact<C: LinearBlockCode + Clone + Send + 'static>(
    code: &C,
    specs: &[WordSpec],
    kind: ProfilerKind,
) {
    let words: Vec<BatchWord> = specs
        .iter()
        .map(|spec| BatchWord::new(fault_model_for(code, spec), DataPattern::Random, spec.3))
        .collect();
    let batch = CampaignBatch::new(code.clone(), words);
    let mut run = BatchRun::new(&batch, kind);
    let mut before: Vec<(BTreeSet<usize>, BTreeSet<usize>)> = (0..batch.len())
        .map(|word| {
            let profiler = run.profiler(word);
            (profiler.identified().clone(), profiler.predicted())
        })
        .collect();
    assert!(before
        .iter()
        .all(|(identified, predicted)| identified.is_empty() && predicted.is_empty()));
    run.advance(FLAG_ROUNDS, |word, profiler, changed| {
        let after = (profiler.identified().clone(), profiler.predicted());
        assert_eq!(
            changed,
            after != before[word],
            "{kind} word {word} ({}): change flag {changed} after {:?} -> {:?}",
            code.description(),
            before[word],
            after
        );
        before[word] = after;
    });
}

/// Rounds of the change-flag property: enough for the crafting kinds to
/// craft and HARP-A to predict from several direct bits.
const FLAG_ROUNDS: usize = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `observe_round` returns `true` exactly when the identified or the
    /// predicted set differs from its value before the call, for every
    /// profiler kind and code family over random cells. A `false` is what
    /// lets the sweeps skip scoring a round, so a missing `true` would
    /// freeze a series at a stale score.
    #[test]
    fn observe_round_flags_exactly_the_rounds_that_change_a_profile(
        seed in 0u64..200,
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..6),
                proptest::sample::select(vec![0.25f64, 0.5, 0.75, 1.0]),
                any::<u8>(),
                any::<u64>(),
            ),
            1..5,
        ),
    ) {
        let hamming = HammingCode::random(DATA_BITS, seed).expect("valid Hamming code");
        let secded = ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code");
        let bch = BchCode::dec(DATA_BITS).expect("valid BCH code");
        for kind in ProfilerKind::ALL {
            assert_change_flags_are_exact(&hamming, &specs, kind);
            assert_change_flags_are_exact(&secded, &specs, kind);
            assert_change_flags_are_exact(&bch, &specs, kind);
        }
    }
}

/// Asserts that every (word, profiler) series of a one-shot sweep over one
/// code family equals the scalar oracle's result for that word, scored by
/// [`CoverageSeries::from_campaign`].
fn assert_sweep_series_match_scalar<C, F>(config: &EvaluationConfig, make_code: F)
where
    C: LinearBlockCode + Clone + Send + Sync + 'static,
    F: Fn(u64) -> C + Copy,
{
    let sweep = run_coverage_sweep_with(config, &ProfilerKind::ALL, make_code);
    // The sweep lists its evaluations cell by cell, word-major, in sample
    // order.
    let mut evaluations = sweep.evaluations.iter();
    for &error_count in &config.error_counts {
        for &probability in &config.probabilities {
            for sample in sample_words_with(config, error_count, probability, make_code) {
                let campaign = ProfilingCampaign::new(
                    sample.code,
                    sample.faults,
                    config.pattern,
                    sample.campaign_seed,
                );
                let space = campaign.error_space();
                for kind in ProfilerKind::ALL {
                    let evaluation = evaluations.next().expect("one evaluation per word");
                    assert_eq!(evaluation.profiler, kind);
                    assert_eq!(evaluation.error_count, error_count);
                    let oracle =
                        CoverageSeries::from_campaign(&campaign.run(kind, config.rounds), &space);
                    assert_eq!(
                        evaluation.series,
                        oracle,
                        "{} word {} of code {}: sweep series != scored scalar oracle ({})",
                        kind,
                        sample.word_index,
                        sample.code_index,
                        campaign.code().description()
                    );
                }
            }
        }
    }
    assert!(
        evaluations.next().is_none(),
        "the sweep has extra evaluations"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scoring where the round runs is scoring after the fact: for random
    /// word populations, every profiler kind's per-word series in the sweep
    /// equals `CoverageSeries::from_campaign` of the scalar oracle's
    /// snapshots, for all three code families.
    #[test]
    fn sweep_series_match_the_scored_scalar_oracle_for_all_kinds_and_codes(
        base_seed in any::<u64>(),
        error_count in 1usize..5,
        probability in proptest::sample::select(vec![0.5f64, 0.75, 1.0]),
    ) {
        let config = EvaluationConfig {
            data_bits: DATA_BITS,
            num_codes: 2,
            words_per_code: 2,
            rounds: ROUNDS,
            error_counts: vec![error_count],
            probabilities: vec![probability],
            pattern: DataPattern::Random,
            base_seed,
            threads: 2,
        };
        assert_sweep_series_match_scalar(&config, |seed| {
            HammingCode::random(DATA_BITS, seed).expect("valid Hamming code")
        });
        assert_sweep_series_match_scalar(&config, |seed| {
            ExtendedHammingCode::random(DATA_BITS, seed).expect("valid SEC-DED code")
        });
        assert_sweep_series_match_scalar(&config, |_seed| {
            BchCode::dec(DATA_BITS).expect("valid BCH code")
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A word's snapshots do not depend on its cell membership: evaluated
    /// alone (a 1-word cell) or batched with arbitrary other words, the
    /// results are identical. This is the independence invariant that lets
    /// the sweep regroup words freely across shards.
    #[test]
    fn cell_membership_does_not_affect_a_words_snapshots(
        seed in 0u64..200,
        word in (
            proptest::collection::vec(0usize..64, 1..5),
            proptest::sample::select(vec![0.5f64, 1.0]),
            any::<u8>(),
            any::<u64>(),
        ),
        neighbors in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..4),
                proptest::sample::select(vec![0.5f64, 1.0]),
                any::<u8>(),
                any::<u64>(),
            ),
            1..4,
        ),
        kind in proptest::sample::select(vec![
            ProfilerKind::HarpU,
            ProfilerKind::HarpA,
            ProfilerKind::Naive,
            ProfilerKind::Beep,
        ]),
    ) {
        let code = HammingCode::random(DATA_BITS, seed).expect("valid Hamming code");
        let make_batch_word =
            |spec: &WordSpec| BatchWord::new(fault_model_for(&code, spec), DataPattern::Random, spec.3);

        // 1-word cell.
        let alone = CampaignBatch::new(code.clone(), vec![make_batch_word(&word)]);
        let alone_result = alone.run(kind, ROUNDS).remove(0);
        // Scalar path (the non-batched reference).
        prop_assert_eq!(&alone_result, &alone.scalar_campaign(0).run(kind, ROUNDS));

        // Same word batched last in a cell of strangers.
        let mut words: Vec<BatchWord> = neighbors.iter().map(&make_batch_word).collect();
        words.push(make_batch_word(&word));
        let crowded = CampaignBatch::new(code.clone(), words);
        let crowded_results = crowded.run(kind, ROUNDS);
        prop_assert_eq!(
            crowded_results.last().expect("at least one word"),
            &alone_result,
            "{} changed snapshots when batched with {} neighbors",
            kind,
            neighbors.len()
        );
    }
}

/// Error-free words (no at-risk bits at all) batch cleanly alongside faulty
/// ones — the all-zero-syndrome burst slots must not perturb neighbors.
#[test]
fn error_free_words_batch_cleanly_with_faulty_neighbors() {
    let code = HammingCode::random(DATA_BITS, 41).expect("valid Hamming code");
    let batch = CampaignBatch::new(
        code,
        vec![
            BatchWord::new(FaultModel::none(), DataPattern::Random, 5),
            BatchWord::new(FaultModel::uniform(&[3, 17], 1.0), DataPattern::Random, 7),
            BatchWord::new(FaultModel::none(), DataPattern::Random, 9),
        ],
    );
    for kind in ProfilerKind::ALL {
        let batched = batch.run(kind, ROUNDS);
        for (index, result) in batched.iter().enumerate() {
            assert_eq!(
                result,
                &batch.scalar_campaign(index).run(kind, ROUNDS),
                "{kind} word {index}"
            );
        }
        // The error-free words identified nothing.
        assert!(batched[0].final_identified().is_empty());
        assert!(batched[2].final_identified().is_empty());
    }
}
