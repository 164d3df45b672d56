//! Quickstart: on-die ECC basics and HARP profiling of a single ECC word.
//!
//! Run with: `cargo run --example quickstart`

use harp_ecc::analysis::FailureDependence;
use harp_ecc::LinearBlockCode;
use harp_ecc::{DecodeOutcome, ErrorSpace, HammingCode};
use harp_gf2::BitVec;
use harp_memsim::pattern::DataPattern;
use harp_memsim::FaultModel;
use harp_profiler::{ProfilerKind, ProfilingCampaign};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a (71, 64) single-error-correcting Hamming code, the
    //    configuration used by LPDDR4 on-die ECC.
    let code = HammingCode::random(64, 0xD1CE)?;
    println!("on-die ECC code: {code}");

    // 2. Encode a dataword and show that a single raw bit error is corrected.
    let data = BitVec::from_u64(64, 0xDEAD_BEEF_0123_4567);
    let mut stored = code.encode(&data);
    stored.flip(9);
    let decoded = code.decode(&stored);
    assert_eq!(decoded.dataword, data);
    println!("single raw error at bit 9 -> {:?}", decoded.outcome);

    // 3. Two simultaneous raw errors exceed the correction capability and can
    //    even introduce a *new* error (a miscorrection / indirect error).
    let mut stored = code.encode(&data);
    stored.flip(9);
    stored.flip(42);
    let decoded = code.decode(&stored);
    println!(
        "double raw error at bits 9, 42 -> {:?}, post-correction errors at {:?}",
        decoded.outcome,
        decoded.post_correction_errors(&data).collect::<Vec<_>>()
    );
    assert_ne!(decoded.outcome, DecodeOutcome::NoErrorDetected);

    // 4. Ground truth: which data bits are at risk if bits 9 and 42 are the
    //    word's at-risk cells?
    let space = ErrorSpace::enumerate(&code, &[9, 42], FailureDependence::TrueCell);
    println!(
        "at-risk bits: direct {:?}, indirect {:?}",
        space.direct_at_risk(),
        space.indirect_at_risk()
    );

    // 5. Profile the word with HARP-U and with the Naive baseline.
    let faults = FaultModel::uniform(&[9, 42], 0.5);
    let campaign = ProfilingCampaign::new(code, faults, DataPattern::Random, 7);
    for kind in [ProfilerKind::HarpU, ProfilerKind::Naive] {
        let result = campaign.run(kind, 32);
        println!(
            "{:<7} identified after 32 rounds: {:?}",
            kind.name(),
            result.final_identified()
        );
    }
    Ok(())
}
