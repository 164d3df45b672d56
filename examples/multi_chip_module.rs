//! Laying out secondary ECC words across a multi-chip rank (§6.3).
//!
//! The paper evaluates a single memory chip per access; real systems spread
//! each cache line over several chips and beats. This example builds a
//! DDR4-style rank of eight chips (each with its own proprietary on-die ECC
//! code), injects indirect errors into several chips at once, and compares
//! the secondary-ECC strength each word layout needs.
//!
//! Run with: `cargo run --example multi_chip_module`

use harp_ecc::analysis::FailureDependence;
use harp_ecc::HammingCode;
use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;
use harp_memsim::{AtRiskBit, FaultModel};
use harp_module::{MemoryModule, ModuleGeometry, SecondaryLayout};
use rand::SeedableRng;

/// Finds two parity positions of `code` whose simultaneous failure provokes a
/// miscorrection of a *data* bit (falls back to the first two parity
/// positions if the code happens not to have such a pair).
fn miscorrecting_parity_pair(code: &HammingCode) -> [usize; 2] {
    let k = code.data_len();
    for a in k..code.codeword_len() {
        for b in (a + 1)..code.codeword_len() {
            let syndrome = &code.column(a) ^ &code.column(b);
            if code.position_for_syndrome(&syndrome).is_some_and(|m| m < k) {
                return [a, b];
            }
        }
    }
    [k, k + 1]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A DDR4-style rank: 8 × ×8 chips, burst 8, 64-bit on-die ECC words.
    let geometry = ModuleGeometry::ddr4_style_rank();
    println!(
        "rank geometry: {geometry}, {}-bit cache lines",
        geometry.line_bits()
    );

    // 2. The analytic requirement per layout, assuming HARP's active phase
    //    has bounded every on-die ECC word to one concurrent indirect error.
    println!("\nlayout            secondary words/access  required correction capability");
    for layout in SecondaryLayout::ALL {
        println!(
            "{:<17} {:>22}  {:>30}",
            layout.name(),
            layout.words_per_access(&geometry),
            layout.required_capability(&geometry, 1)
        );
    }

    // 3. Build the rank and make every chip's word hold an uncorrectable raw
    //    error pattern confined to its parity bits — chosen so the on-die ECC
    //    decoder miscorrects a data bit. Each on-die ECC word therefore
    //    contributes exactly one *indirect* post-correction error, the
    //    situation HARP's reactive phase faces after active profiling.
    let mut module = MemoryModule::heterogeneous(geometry, 1, 0xAA17)?;
    for chip in 0..geometry.chips() {
        let pair = miscorrecting_parity_pair(module.chips()[chip].code());
        let at_risk = pair.iter().map(|&p| AtRiskBit::new(p, 1.0)).collect();
        module.set_fault_model(
            chip,
            0,
            0,
            FaultModel::new(at_risk, FailureDependence::DataIndependent),
        );
    }
    let line = BitVec::ones(geometry.line_bits());
    module.write(0, &line);

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let outcome = module.read(0, &mut rng);
    println!(
        "\nstress read: {} post-correction errors across the line ({} on-die corrections performed)",
        outcome.post_correction_errors.len(),
        outcome.corrections_performed
    );

    // 4. How many of those errors land inside a single secondary ECC word
    //    depends entirely on the layout.
    for layout in SecondaryLayout::ALL {
        let observed = outcome.max_errors_in_secondary_word(&geometry, layout);
        let required = layout.required_capability(&geometry, 1);
        println!(
            "{:<17} worst secondary word sees {observed} error(s)  (provisioned capability {required})",
            layout.name()
        );
        assert!(observed <= required);
    }
    println!(
        "\naligning secondary ECC words with on-die ECC words keeps a single-error-correcting \
         secondary ECC sufficient, exactly as §6.3 argues"
    );
    Ok(())
}
