//! Cross-crate integration test: the BEER → BEEP/HARP-A pipeline.
//!
//! The profilers that know the parity-check matrix (BEEP, HARP-A) are
//! instantiated in the paper with manufacturer-provided knowledge. This test
//! verifies that the knowledge recovered by the BEER campaign is an adequate
//! substitute: a profiler driven by the *reconstructed* code behaves exactly
//! like one driven by the secret code, while the chip itself keeps using the
//! secret code throughout. (This reproduction's BEEP crafts its patterns from
//! the dataword length alone, so of the recovered code it reads only that.)

use harp_beer::{reconstruct_equivalent_code, BeerCampaign};
use harp_ecc::analysis::FailureDependence;
use harp_ecc::LinearBlockCode;
use harp_ecc::{ErrorSpace, HammingCode};
use harp_memsim::pattern::DataPattern;
use harp_memsim::FaultModel;
use harp_profiler::{BeepProfiler, HarpAProfiler, ProfilerKind, ProfilingCampaign};

fn reverse_engineer(secret: &HammingCode, seed: u64) -> HammingCode {
    let profile = BeerCampaign::new(secret.data_len()).extract_profile(secret);
    reconstruct_equivalent_code(&profile, secret.parity_len(), seed, 200_000)
        .expect("reconstruction converges for 16-bit datawords")
}

/// HARP-A run with the reconstructed code identifies the same bits as HARP-A
/// run with the secret code, against a chip that uses the secret code.
#[test]
fn harp_a_works_identically_with_the_reconstructed_code() {
    let secret = HammingCode::random(16, 0xB0B).unwrap();
    let recovered = reverse_engineer(&secret, 3);

    // Two at-risk data bits that always fail when charged.
    let faults = FaultModel::uniform(&[2, 9], 1.0);
    let rounds = 32;
    let campaign = ProfilingCampaign::new(secret.clone(), faults, DataPattern::Random, 7);

    let with_secret = campaign.run(ProfilerKind::HarpA, rounds);
    let mut informed_by_recovery = HarpAProfiler::new(recovered.clone(), DataPattern::Random, 7);
    let with_recovered = campaign.run_profiler(&mut informed_by_recovery, rounds);

    // Identified direct-error bits must agree exactly (they come from the
    // bypass path, independent of H)...
    assert_eq!(
        with_secret.final_identified(),
        with_recovered.final_identified()
    );

    // ...and the indirect-error space implied by those direct bits is the
    // same whether computed from the secret or the reconstructed code.
    let space_secret = ErrorSpace::enumerate(&secret, &[2, 9], FailureDependence::TrueCell);
    let space_recovered = ErrorSpace::enumerate(&recovered, &[2, 9], FailureDependence::TrueCell);
    assert_eq!(
        space_secret.post_correction_at_risk(),
        space_recovered.post_correction_at_risk()
    );
}

/// A BEEP profiler sized by the reconstructed code must still identify
/// at-risk bits on a chip that uses the secret code.
#[test]
fn beep_runs_on_the_reconstructed_code() {
    let secret = HammingCode::random(16, 0xC4FE).unwrap();
    let recovered = reverse_engineer(&secret, 11);

    let faults = FaultModel::uniform(&[1, 4, 7], 1.0);
    let campaign = ProfilingCampaign::new(secret, faults, DataPattern::Random, 21);

    let mut beep = BeepProfiler::new(recovered.data_len(), DataPattern::Random, 21);
    let result = campaign.run_profiler(&mut beep, 64);
    // BEEP driven by the reconstructed code still bootstraps and identifies
    // at-risk bits. (Its coverage relative to Naive is a property of the
    // BEEP algorithm itself — see Fig. 6 — not of the reconstruction.)
    assert!(!result.final_identified().is_empty());
}

/// The family-generic pipeline closes the same loop for a SEC-DED chip: the
/// campaign observes only weight-2/3 pattern responses (every pair is
/// detected), reconstruction targets the extended family, and HARP-A driven
/// by the recovered code predicts the same indirect-error space as HARP-A
/// with full knowledge of the secret `H`.
#[test]
fn harp_a_works_identically_with_a_reconstructed_secded_code() {
    use harp_beer::CodeFamily;
    use harp_ecc::ExtendedHammingCode;

    let secret = ExtendedHammingCode::random(16, 0x5ECD).unwrap();
    let recovered = BeerCampaign::new(16)
        .reverse_engineer(&secret, CodeFamily::ExtendedHamming, 3, 500_000)
        .expect("SEC-DED reconstruction converges for 16-bit datawords");
    assert_eq!(recovered.family(), CodeFamily::ExtendedHamming);

    let faults = FaultModel::uniform(&[2, 9], 1.0);
    let rounds = 32;
    let campaign = ProfilingCampaign::new(secret.clone(), faults, DataPattern::Random, 7);

    let with_secret = campaign.run(ProfilerKind::HarpA, rounds);
    let mut informed_by_recovery = HarpAProfiler::new(recovered.clone(), DataPattern::Random, 7);
    let with_recovered = campaign.run_profiler(&mut informed_by_recovery, rounds);
    assert_eq!(
        with_secret.final_identified(),
        with_recovered.final_identified()
    );

    // The indirect-error space implied by the direct at-risk bits agrees
    // whether computed from the secret or the reconstructed code.
    let space_secret = ErrorSpace::enumerate(&secret, &[2, 9], FailureDependence::TrueCell);
    let space_recovered = ErrorSpace::enumerate(&recovered, &[2, 9], FailureDependence::TrueCell);
    assert_eq!(
        space_secret.post_correction_at_risk(),
        space_recovered.post_correction_at_risk()
    );
}
