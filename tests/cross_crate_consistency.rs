//! Integration test: the analytical ground truth (harp-ecc's exact error-space
//! enumeration) agrees with the behavioural simulation stack (harp-memsim /
//! harp-profiler / harp-controller).

use std::collections::BTreeSet;

use harp_ecc::analysis::FailureDependence;
use harp_ecc::{ErrorSpace, HammingCode, SecondaryEcc};
use harp_gf2::BitVec;
use harp_memsim::pattern::DataPattern;
use harp_memsim::{FaultModel, MemoryChip};
use harp_profiler::{CoverageSeries, ProfilerKind, ProfilingCampaign};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn every_observed_post_correction_error_is_predicted_by_the_error_space() {
    for seed in 0..6u64 {
        let code = HammingCode::random(64, seed).unwrap();
        let at_risk: Vec<usize> = vec![seed as usize % 64, 17, 40, 66];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 0.5));
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABC);
        // Exercise several data patterns, as a profiler would.
        for round in 0..64usize {
            let data = match round % 3 {
                0 => BitVec::ones(64),
                1 => BitVec::from_indices(64, (0..64).filter(|i| i % 2 == 0)),
                _ => BitVec::from_u64(64, 0x0F0F_F0F0_1234_5678 ^ round as u64),
            };
            chip.write(0, &data);
            let obs = chip.read(0, &mut rng);
            for bit in obs.post_correction_errors() {
                assert!(
                    space.post_correction_at_risk().contains(&bit),
                    "seed {seed}: observed post-correction error at {bit} was not predicted"
                );
            }
            for bit in obs.direct_errors() {
                assert!(
                    space.direct_at_risk().contains(&bit),
                    "seed {seed}: observed direct error at {bit} was not predicted"
                );
            }
        }
    }
}

#[test]
fn harp_u_campaign_converges_exactly_to_the_direct_at_risk_set() {
    for seed in 0..4u64 {
        let code = HammingCode::random(64, 100 + seed).unwrap();
        let at_risk = [3usize, 19, 44, 63];
        let faults = FaultModel::uniform(&at_risk, 0.5);
        let campaign = ProfilingCampaign::new(code.clone(), faults, DataPattern::Random, seed);
        let space = campaign.error_space();
        let result = campaign.run(ProfilerKind::HarpU, 64);
        // HARP-U identifies exactly the direct at-risk set: no more, no less.
        assert_eq!(&result.final_identified(), space.direct_at_risk());
        // And the coverage series reports full coverage with <=1 residual
        // simultaneous error.
        let series = CoverageSeries::from_campaign(&result, &space);
        assert_eq!(series.final_direct_coverage(), 1.0);
        assert!(series.final_score().unwrap().max_simultaneous <= 1);
    }
}

#[test]
fn error_space_max_simultaneous_matches_controller_behaviour() {
    // If the error space says at most one simultaneous post-correction error
    // remains once the direct bits are repaired, then a controller with an
    // SEC secondary ECC must never deliver corrupted data.
    for seed in 0..4u64 {
        let code = HammingCode::random(64, 200 + seed).unwrap();
        let at_risk = [5usize, 23, 41, 59];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let direct: BTreeSet<usize> = space.direct_at_risk().clone();
        assert!(space.max_simultaneous_errors_outside(&direct) <= 1);

        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&at_risk, 1.0));
        let mut controller =
            harp_controller::MemoryController::new(chip, SecondaryEcc::ideal_sec());
        controller.profile_mut().mark_all(0, direct.iter().copied());
        controller.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..100 {
            let outcome = controller.read(0, &mut rng);
            assert!(
                outcome.is_correct(),
                "seed {seed}: error escaped despite repaired direct bits"
            );
        }
    }
}

#[test]
fn harp_a_predictions_are_sound_across_the_stack() {
    // Every bit HARP-A predicts must be a genuine indirect at-risk bit of the
    // ground-truth error space (no false positives that would waste repair
    // resources).
    for seed in 0..4u64 {
        let code = HammingCode::random(64, 300 + seed).unwrap();
        let at_risk = [2usize, 11, 37, 58, 65];
        let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
        let faults = FaultModel::uniform(&at_risk, 1.0);
        let campaign = ProfilingCampaign::new(code, faults, DataPattern::Charged, seed);
        let result = campaign.run(ProfilerKind::HarpA, 8);
        let predicted: BTreeSet<usize> = result
            .final_known()
            .difference(&result.final_identified())
            .copied()
            .collect();
        for bit in predicted {
            assert!(
                space.indirect_at_risk().contains(&bit),
                "seed {seed}: HARP-A predicted non-at-risk bit {bit}"
            );
        }
    }
}
