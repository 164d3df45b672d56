//! Property suite for the bit-sliced syndrome layer (`harp_gf2::bitslice`
//! and the `SyndromeKernel` bit-sliced entry points).
//!
//! Two contracts, each over random shapes:
//!
//! 1. **Transpose round-trip** — slicing up to 64 codewords into `u64` lanes
//!    and reading any word back is the identity, for ragged tails (< 64
//!    words) and arbitrary bit lengths alike.
//! 2. **Packed equivalence** — `syndrome_words_bitsliced_into` is
//!    byte-identical to the per-word `syndrome_words_into` loop for random
//!    dense `H`, and its per-block masks flag exactly the words whose
//!    `syndrome_word` is nonzero.
//!
//! The nightly CI job runs this suite at elevated `PROPTEST_CASES`, next to
//! `campaign_equivalence` and the other differential suites.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use harp_gf2::bitslice::{slice_words, unslice_word, BLOCK_WORDS};
use harp_gf2::{BitVec, BitsliceScratch, Gf2Matrix, SyndromeKernel};

/// A random dense parity-check matrix (each entry set with probability 1/2,
/// plus a guaranteed nonzero column so masks exercise both values).
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Gf2Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut h = Gf2Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            h.set(r, c, rng.gen_bool(0.5));
        }
    }
    h.set(0, 0, true);
    h
}

/// `count` random codewords of length `bits`, with roughly `density` of the
/// bits set (density 0 gives all-zero words, exercising the sparse skip).
fn random_words(count: usize, bits: usize, density: f64, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..bits).map(|_| rng.gen_bool(density)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slicing a block of up to 64 words into lanes and unslicing any index
    /// is the identity, for ragged counts and arbitrary bit lengths.
    #[test]
    fn transpose_round_trips_random_shapes(
        count in 1usize..=BLOCK_WORDS,
        bits in 1usize..=200,
        seed in any::<u64>(),
    ) {
        let words = random_words(count, bits, 0.5, seed);
        let mut lanes = Vec::new();
        let sliced = slice_words(&words, &mut lanes);
        prop_assert_eq!(sliced, count);
        prop_assert_eq!(lanes.len(), bits);
        for (index, word) in words.iter().enumerate() {
            prop_assert_eq!(&unslice_word(&lanes, index), word);
        }
        // Lane bits beyond the word count stay zero (ragged tail).
        for lane in &lanes {
            if count < BLOCK_WORDS {
                prop_assert_eq!(lane >> count, 0);
            }
        }
    }

    /// The bit-sliced packed pass is byte-identical to the per-word loop,
    /// and its masks flag exactly the nonzero `syndrome_word`s — across
    /// block-boundary word counts, densities (including all-zero inputs,
    /// the sparse skip path), and random dense `H`.
    #[test]
    fn bitsliced_packed_pass_matches_per_word_loop(
        rows in 1usize..=16,
        cols in 8usize..=150,
        count in 1usize..=130,
        density_choice in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Mixed densities: all-zero inputs (the sparse skip path), sparse
        // error-like patterns, and dense stored words.
        let density = [0.0, 0.01, 0.5][density_choice];
        let kernel = SyndromeKernel::new(&random_matrix(rows, cols, seed));
        let words = random_words(count, cols, density, seed ^ 0x5EED);

        let mut reference = Vec::new();
        kernel.syndrome_words_into(&words, &mut reference);

        let mut packed = Vec::new();
        let mut masks = Vec::new();
        let mut scratch = BitsliceScratch::new();
        kernel.syndrome_words_bitsliced_into(&words, &mut packed, &mut masks, &mut scratch);

        prop_assert_eq!(&packed, &reference);
        prop_assert_eq!(masks.len(), count.div_ceil(BLOCK_WORDS));
        for (index, &word) in reference.iter().enumerate() {
            let flagged = masks[index / BLOCK_WORDS] >> (index % BLOCK_WORDS) & 1 == 1;
            prop_assert_eq!(flagged, word != 0, "word {}", index);
        }
        // Ragged-tail mask bits beyond the word count stay zero.
        let tail = count % BLOCK_WORDS;
        if tail != 0 {
            prop_assert_eq!(masks.last().unwrap() >> tail, 0);
        }
    }
}
