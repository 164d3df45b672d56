//! What changes when on-die ECC corrects two errors instead of one?
//!
//! The HARP paper analyses single-error-correcting on-die ECC and leaves
//! stronger codes to future work (§2.5, footnote 9). This example walks
//! through the double-error-correcting BCH extension: encoding/decoding,
//! miscorrections that now flip up to *two* bits, and the resulting
//! secondary-ECC requirement for HARP's reactive phase.
//!
//! Run with: `cargo run --example bch_stronger_ondie_ecc`

use std::collections::BTreeSet;

use harp_bch::analysis::combinatorics;
use harp_bch::BchCode;
use harp_ecc::analysis::FailureDependence;
use harp_ecc::ErrorSpace;
use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A (78, 64) double-error-correcting BCH code over GF(2^7).
    let code = BchCode::dec(64)?;
    println!(
        "on-die ECC: {code}, correction capability t = {}",
        code.correction_capability()
    );

    // 2. Any double raw error is corrected — the error patterns that defeat a
    //    SEC Hamming code are harmless here.
    let data = BitVec::from_u64(64, 0x0123_4567_89AB_CDEF);
    let mut stored = code.encode(&data);
    stored.flip(5);
    stored.flip(70);
    let decoded = code.decode(&stored);
    assert_eq!(decoded.dataword, data);
    println!("double raw error at bits 5 and 70 -> {:?}", decoded.outcome);

    // 3. Three raw errors exceed the capability and can miscorrect up to two
    //    additional bits — indirect errors, now bounded by t = 2.
    let mut stored = code.encode(&data);
    for bit in [3, 29, 61] {
        stored.flip(bit);
    }
    let decoded = code.decode(&stored);
    println!(
        "triple raw error -> {:?}, post-correction errors at {:?}",
        decoded.outcome,
        decoded.post_correction_errors(&data).collect::<Vec<_>>()
    );

    // 4. The paper's Table 2, recomputed for t = 2: far fewer uncorrectable
    //    pre-correction error patterns.
    println!("\nat-risk bits n | uncorrectable patterns (SEC) | uncorrectable patterns (DEC)");
    for n in 1..=8u32 {
        println!(
            "{n:>14} | {:>28} | {:>28}",
            harp_ecc::analysis::combinatorics::uncorrectable_patterns(n),
            combinatorics::uncorrectable_patterns_dec(n)
        );
    }

    // 5. HARP's insight 2 generalizes: once every direct-error bit is
    //    repaired, at most t = 2 indirect errors can occur at once, so a
    //    double-error-correcting secondary ECC suffices for reactive
    //    profiling.
    let at_risk = [2usize, 17, 40, 70, 75];
    let space = ErrorSpace::enumerate(&code, &at_risk, FailureDependence::TrueCell);
    let repaired: BTreeSet<usize> = space.direct_at_risk().clone();
    let requirement = space.max_simultaneous_errors_outside(&repaired);
    println!(
        "\nat-risk bits {at_risk:?}: {} direct, {} indirect at-risk dataword bits; \
         secondary ECC must correct {requirement} error(s) after active profiling",
        space.direct_at_risk().len(),
        space.indirect_at_risk().len()
    );
    assert!(requirement <= code.correction_capability());
    Ok(())
}
