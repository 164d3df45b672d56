//! A memory chip with on-die ECC, generic over the code.
//!
//! The chip stores one codeword per ECC word and works with any
//! [`LinearBlockCode`] — SEC Hamming, SEC-DED, or the DEC BCH code from
//! `harp_bch`. Writes systematically encode the dataword; reads sample a
//! fresh raw error pattern from the word's [`FaultModel`] (each read models
//! one profiling round / access under the paper's Bernoulli error model) and
//! decode it with the on-die ECC.
//!
//! The returned [`ReadObservation`] exposes three views of the same access:
//!
//! * the **post-correction dataword** — what a normal read returns to the
//!   memory controller;
//! * the **raw data bits** via the decode-bypass path HARP relies on (§5.2) —
//!   the stored data-bit values *before* correction, but never the parity
//!   bits;
//! * simulator-only ground truth (the raw error pattern), used to score
//!   profilers against the exact at-risk sets.

use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use harp_ecc::{DecodeResult, HammingCode, LinearBlockCode};
use harp_gf2::{BitVec, BitsliceScratch, DiffOnes};

use crate::fault::FaultModel;

/// Everything observable (and, for the simulator, knowable) about one read
/// of one ECC word. The observation is code-agnostic: whichever code the
/// chip uses, profilers consume the same structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadObservation {
    written: BitVec,
    raw_error: BitVec,
    stored_with_errors: BitVec,
    decode: DecodeResult,
    data_len: usize,
}

impl ReadObservation {
    /// The dataword originally written to this word (known to the memory
    /// controller during profiling, since the profiler programmed it).
    pub fn written_data(&self) -> &BitVec {
        &self.written
    }

    /// The post-correction dataword returned by a normal (decoded) read.
    pub fn post_correction_data(&self) -> &BitVec {
        &self.decode.dataword
    }

    /// The raw data bits returned by the decode-bypass read path: the stored
    /// values of the `k` data bits with any raw errors still present. Parity
    /// bits are *not* visible, matching §5.2 of the paper.
    pub fn raw_data_bits(&self) -> BitVec {
        self.stored_with_errors.slice(0, self.data_len)
    }

    /// The full decode result (outcome and syndrome) of the on-die ECC.
    pub fn decode_result(&self) -> &DecodeResult {
        &self.decode
    }

    /// Dataword positions (ascending) where the post-correction data
    /// differs from the written data — the post-correction errors the memory
    /// controller observes on a normal read.
    pub fn post_correction_errors(&self) -> DiffOnes<'_> {
        self.decode.post_correction_errors(&self.written)
    }

    /// Dataword positions (ascending) where the *raw* data bits differ from
    /// the written data — the direct (pre-correction) errors visible through
    /// the bypass path.
    ///
    /// Evaluated word by word over the packed bit representations, with no
    /// intermediate vector: this runs once per word per profiling round in
    /// every bypass-based campaign.
    pub fn direct_errors(&self) -> DiffOnes<'_> {
        self.stored_with_errors
            .iter_diff_ones(&self.written, self.data_len)
    }

    /// Whether dataword position `position` is a direct error: its raw data
    /// bit differs from the written one. Read from the packed words.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not a dataword position.
    pub fn is_direct_error(&self, position: usize) -> bool {
        self.stored_with_errors.get(position) != self.written.get(position)
    }

    /// An empty placeholder observation whose buffers the burst read path
    /// overwrites in place.
    fn placeholder() -> Self {
        Self {
            written: BitVec::default(),
            raw_error: BitVec::default(),
            stored_with_errors: BitVec::default(),
            decode: DecodeResult::default(),
            data_len: 0,
        }
    }
}

/// Reusable buffers for [`MemoryChip::read_burst`].
///
/// A scratch owns one [`ReadObservation`] slot per burst word plus the
/// buffers of the batched bit-sliced kernel pass: the packed syndromes, the
/// per-block nonzero-syndrome masks, and the lane scratch of the transpose.
/// Buffers grow **geometrically** to the largest burst they have served and
/// are then reused verbatim, so steady-state scrub passes — including
/// alternating burst sizes, such as module line reads interleaved with
/// controller scrub ranges — perform **zero heap allocations**; see
/// [`MemoryChip::read_burst`] for a usage example and the root
/// `burst_alloc` test for the allocation-count guarantee.
#[derive(Debug, Default)]
pub struct BurstScratch {
    observations: Vec<ReadObservation>,
    syndromes: Vec<u64>,
    masks: Vec<u64>,
    slices: BitsliceScratch,
}

impl BurstScratch {
    /// Creates an empty scratch; buffers are sized lazily by the first burst.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for bursts of `words` observations, so
    /// even the first burst of a long-lived campaign performs no observation
    /// resizing.
    pub fn with_capacity(words: usize) -> Self {
        let mut scratch = Self::default();
        scratch
            .observations
            .resize_with(words, ReadObservation::placeholder);
        scratch.syndromes.reserve(words);
        scratch.masks.reserve(words.div_ceil(64));
        scratch
    }

    /// Clears the recorded syndromes and masks of the last burst **without
    /// freeing any capacity**: observation slots (and the buffers inside
    /// them), syndrome/mask vectors, and the bit-slice lanes all stay
    /// allocated, so a cleared scratch serves its next burst with zero heap
    /// allocations.
    pub fn clear(&mut self) {
        self.syndromes.clear();
        self.masks.clear();
    }

    /// The burst slots for a burst of `count` words, growing the observation
    /// buffer geometrically if needed (so a sequence of growing or
    /// alternating burst sizes settles after logarithmically many resizes
    /// instead of re-reserving on every new maximum).
    fn slots(
        &mut self,
        count: usize,
    ) -> (
        &mut [ReadObservation],
        &mut Vec<u64>,
        &mut Vec<u64>,
        &mut BitsliceScratch,
    ) {
        if self.observations.len() < count {
            let target = count.max(self.observations.len().saturating_mul(2));
            self.observations
                .resize_with(target, ReadObservation::placeholder);
        }
        (
            &mut self.observations[..count],
            &mut self.syndromes,
            &mut self.masks,
            &mut self.slices,
        )
    }
}

/// A memory chip containing `num_words` ECC words protected by on-die ECC of
/// type `C`.
///
/// # Example
///
/// ```
/// use harp_ecc::{HammingCode, LinearBlockCode};
/// use harp_gf2::BitVec;
/// use harp_memsim::{MemoryChip, FaultModel};
/// use rand::SeedableRng;
///
/// let code = HammingCode::random(64, 5)?;
/// let mut chip = MemoryChip::new(code, 4);
/// chip.set_fault_model(2, FaultModel::uniform(&[0, 1], 1.0));
/// chip.write(2, &BitVec::ones(64));
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let obs = chip.read(2, &mut rng);
/// // Two simultaneous raw errors exceed SEC correction capability, so the
/// // post-correction data is corrupted...
/// assert!(obs.post_correction_errors().next().is_some());
/// // ...while the bypass path reports exactly the two direct errors.
/// assert_eq!(obs.direct_errors().collect::<Vec<_>>(), vec![0, 1]);
/// # Ok::<(), harp_ecc::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChip<C: LinearBlockCode = HammingCode> {
    code: C,
    stored: Vec<BitVec>,
    written: Vec<BitVec>,
    faults: Vec<FaultModel>,
}

impl<C: LinearBlockCode> MemoryChip<C> {
    /// Creates a chip with `num_words` words, all initialized to zero and
    /// error-free.
    pub fn new(code: C, num_words: usize) -> Self {
        let zero_data = BitVec::zeros(code.data_len());
        let zero_code = code.encode(&zero_data);
        Self {
            stored: vec![zero_code; num_words],
            written: vec![zero_data; num_words],
            faults: vec![FaultModel::none(); num_words],
            code,
        }
    }

    /// The on-die ECC code used by this chip.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Number of ECC words in the chip.
    pub fn num_words(&self) -> usize {
        self.stored.len()
    }

    /// Sets the fault model of word `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()`.
    pub fn set_fault_model(&mut self, word: usize, model: FaultModel) {
        assert!(word < self.num_words(), "word index {word} out of range");
        self.faults[word] = model;
    }

    /// Writes (and on-die-ECC encodes) a dataword into word `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or the dataword length does not match
    /// the code.
    pub fn write(&mut self, word: usize, data: &BitVec) {
        assert!(word < self.num_words(), "word index {word} out of range");
        self.stored[word] = self.code.encode(data);
        self.written[word] = data.clone();
    }

    /// Writes (and on-die-ECC encodes) a dataword into word `word`, reusing
    /// the word's existing storage buffers: the semantic twin of
    /// [`MemoryChip::write`] with no heap allocation in the steady state.
    ///
    /// The data bits are spliced into the stored codeword's prefix. Each
    /// parity bit is the parity of the AND of its parity-block row with the
    /// data, taken over packed words, and the parity bits are spliced in as
    /// packed words of up to 64 bits — exactly the systematic layout
    /// [`LinearBlockCode::encode`] produces (checked by a debug assertion,
    /// so any code overriding `encode` with a different layout fails fast in
    /// tests). Per-round rewrites are the second-hottest chip operation of a
    /// profiling campaign after the burst read itself; the cell-batched
    /// campaign engine rewrites every word of a sweep cell each round
    /// through this path.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or the dataword length does not match
    /// the code.
    pub fn write_in_place(&mut self, word: usize, data: &BitVec) {
        assert!(word < self.num_words(), "word index {word} out of range");
        assert_eq!(
            data.len(),
            self.code.data_len(),
            "dataword length mismatch: expected {}, got {}",
            self.code.data_len(),
            data.len()
        );
        self.written[word].copy_from(data);
        let stored = &mut self.stored[word];
        stored.overwrite_prefix(data);
        let data_words = data.as_words();
        let (mut start, mut packed, mut filled) = (data.len(), 0u64, 0);
        for parity_row in self.code.parity_block().iter_rows() {
            let and = parity_row
                .as_words()
                .iter()
                .zip(data_words)
                .fold(0u64, |acc, (row, data)| acc ^ (row & data));
            packed |= u64::from(and.count_ones() & 1) << filled;
            filled += 1;
            if filled == 64 {
                stored.splice_u64(start, filled, packed);
                (start, packed, filled) = (start + filled, 0, 0);
            }
        }
        stored.splice_u64(start, filled, packed);
        debug_assert_eq!(
            stored,
            &self.code.encode(data),
            "write_in_place must reproduce encode's systematic layout"
        );
    }

    /// The dataword most recently written to word `word` (simulation-side
    /// bookkeeping; the real chip does not retain this).
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()`.
    pub fn written_data(&self, word: usize) -> &BitVec {
        assert!(word < self.num_words(), "word index {word} out of range");
        &self.written[word]
    }

    /// Performs one access of word `word`: samples a fresh raw error pattern
    /// from the word's fault model, applies it to the stored codeword, and
    /// decodes with the on-die ECC.
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_words()`.
    pub fn read<R: Rng + ?Sized>(&self, word: usize, rng: &mut R) -> ReadObservation {
        assert!(word < self.num_words(), "word index {word} out of range");
        let clean = &self.stored[word];
        let raw_error = self.faults[word].sample_errors(clean, rng);
        let stored_with_errors = clean ^ &raw_error;
        let decode = self.code.decode(&stored_with_errors);
        ReadObservation {
            written: self.written[word].clone(),
            raw_error,
            stored_with_errors,
            decode,
            data_len: self.code.data_len(),
        }
    }

    /// Performs one access of every word in `words` as a single burst — the
    /// batched twin of [`MemoryChip::read`], used for whole scrub passes.
    ///
    /// The burst samples each word's raw error pattern in word order
    /// (consuming exactly the RNG draws a word-at-a-time `read` loop would),
    /// computes all syndromes in **one** batched bit-sliced
    /// `SyndromeKernel::syndrome_words_bitsliced_into` pass (64 words per
    /// transposed block), and then resolves the burst sparsely: words the
    /// per-block nonzero-syndrome masks leave unflagged short-circuit
    /// through the code's `decode_clean_into` with zero resolve work, and
    /// only the flagged words run the allocation-free
    /// `decode_with_syndrome_into` scalar resolve. All buffers live in
    /// `scratch`, so after the first burst of a given size the steady-state
    /// path performs no heap allocation. Observations are byte-identical to
    /// what `read` returns for the same words and RNG stream (`read` is the
    /// reference implementation; the cross-code equivalence suite asserts
    /// this).
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, reversed, or extends past
    /// [`MemoryChip::num_words`].
    ///
    /// # Example
    ///
    /// ```
    /// use harp_ecc::HammingCode;
    /// use harp_gf2::BitVec;
    /// use harp_memsim::{BurstScratch, FaultModel, MemoryChip};
    /// use rand::SeedableRng;
    ///
    /// let code = HammingCode::random(64, 5)?;
    /// let mut chip = MemoryChip::new(code, 8);
    /// chip.set_fault_model(3, FaultModel::uniform(&[3], 1.0));
    /// chip.write(3, &BitVec::ones(64));
    ///
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    /// let mut scratch = BurstScratch::new();
    /// // One scrub pass over the whole chip; `scratch` is reusable across
    /// // passes, keeping the steady state allocation-free.
    /// let observations = chip.read_burst(0..8, &mut rng, &mut scratch);
    /// assert_eq!(observations.len(), 8);
    /// assert_eq!(observations[3].direct_errors().collect::<Vec<_>>(), vec![3]); // corrected...
    /// assert_eq!(observations[3].post_correction_errors().next(), None); // ...cleanly
    /// # Ok::<(), harp_ecc::CodeError>(())
    /// ```
    pub fn read_burst<'s, R: Rng + ?Sized>(
        &self,
        words: Range<usize>,
        rng: &mut R,
        scratch: &'s mut BurstScratch,
    ) -> &'s [ReadObservation] {
        let count = self.check_burst_range(&words);
        let (burst, syndromes, masks, slices) = scratch.slots(count);

        // Phase 1 — fault injection, in word order (same RNG stream as a
        // scalar read loop).
        for (offset, obs) in burst.iter_mut().enumerate() {
            self.inject_word(words.start + offset, obs, rng);
        }

        self.decode_burst(burst, syndromes, masks, slices);
        burst
    }

    /// Performs one access of every word in `words` as a single burst, with
    /// **one independent RNG stream per word**: word `words.start + i` samples
    /// its raw error pattern from `rngs[i]`, consuming exactly the draws a
    /// scalar `read` (or a one-word [`MemoryChip::read_burst`]) of that word
    /// with that RNG would.
    ///
    /// This is the entry point for cross-word batched campaigns: many
    /// independent Monte-Carlo words (each with its own deterministic seed)
    /// share one chip and are scrubbed per round in a single burst, while
    /// every word's observation sequence stays bit-identical to running it
    /// alone. Everything else matches [`MemoryChip::read_burst`]: one batched
    /// syndrome pass, allocation-free steady state, observations identical to
    /// the scalar reference path.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, reversed, or extends past
    /// [`MemoryChip::num_words`], or if `rngs.len()` does not match the burst
    /// length.
    pub fn read_burst_with_rngs<'s, R: Rng>(
        &self,
        words: Range<usize>,
        rngs: &mut [R],
        scratch: &'s mut BurstScratch,
    ) -> &'s [ReadObservation] {
        let count = self.check_burst_range(&words);
        assert_eq!(
            rngs.len(),
            count,
            "burst of {count} words needs {count} RNG streams, got {}",
            rngs.len()
        );
        let (burst, syndromes, masks, slices) = scratch.slots(count);

        // Phase 1 — fault injection, each word drawing from its own stream.
        for ((offset, obs), rng) in burst.iter_mut().enumerate().zip(rngs.iter_mut()) {
            self.inject_word(words.start + offset, obs, rng);
        }

        self.decode_burst(burst, syndromes, masks, slices);
        burst
    }

    /// Validates a burst range and returns its length.
    fn check_burst_range(&self, words: &Range<usize>) -> usize {
        assert!(
            words.start < words.end,
            "word range {words:?} is empty or reversed"
        );
        assert!(
            words.end <= self.num_words(),
            "word range {words:?} out of range for {} words",
            self.num_words()
        );
        words.end - words.start
    }

    /// Burst phase 1 for one word: samples the word's raw error pattern from
    /// `rng` and fills the observation's pre-decode buffers in place.
    fn inject_word<R: Rng + ?Sized>(&self, word: usize, obs: &mut ReadObservation, rng: &mut R) {
        let clean = &self.stored[word];
        obs.written.copy_from(&self.written[word]);
        self.faults[word].sample_errors_into(clean, rng, &mut obs.raw_error);
        obs.stored_with_errors.copy_from(clean);
        obs.stored_with_errors ^= &obs.raw_error;
        obs.data_len = self.code.data_len();
    }

    /// Burst phases 2–3: one batched bit-sliced kernel pass over the whole
    /// burst, then **sparse** bounded-distance resolution of only the words
    /// the per-block nonzero-syndrome masks flag as dirty; every clean word
    /// short-circuits through the code's zero-syndrome decode.
    ///
    /// The kernel pass runs over the **raw error patterns**, not the stored
    /// codewords: every clean stored word is a codeword (writes go through
    /// the systematic encoder), so `H · (c ⊕ e) = H · e` by linearity and
    /// the syndromes are identical. Error patterns are overwhelmingly sparse
    /// at realistic error rates, which lets the bit-sliced pass skip the
    /// transpose and row evaluation of every all-zero block outright.
    fn decode_burst(
        &self,
        burst: &mut [ReadObservation],
        syndromes: &mut Vec<u64>,
        masks: &mut Vec<u64>,
        slices: &mut BitsliceScratch,
    ) {
        self.code.syndrome_kernel().syndrome_words_bitsliced_into(
            burst.iter().map(|obs| &obs.raw_error),
            syndromes,
            masks,
            slices,
        );
        for (block, &mask) in masks.iter().enumerate() {
            let start = block * 64;
            let block_len = (burst.len() - start).min(64);
            let block_width = if block_len == 64 {
                u64::MAX
            } else {
                (1u64 << block_len) - 1
            };
            // Clean words (mask bit 0) short-circuit to the zero-syndrome
            // decode with no per-word syndrome state...
            let mut clean = !mask & block_width;
            while clean != 0 {
                let obs = &mut burst[start + clean.trailing_zeros() as usize];
                self.code
                    .decode_clean_into(&obs.stored_with_errors, &mut obs.decode);
                clean &= clean - 1;
            }
            // ...and only the flagged words run the scalar syndrome resolve.
            let mut dirty = mask;
            while dirty != 0 {
                let index = start + dirty.trailing_zeros() as usize;
                let obs = &mut burst[index];
                self.code.decode_with_syndrome_into(
                    &obs.stored_with_errors,
                    syndromes[index],
                    &mut obs.decode,
                );
                dirty &= dirty - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::DecodeOutcome;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chip_with_faults(at_risk: &[usize], probability: f64) -> MemoryChip {
        let code = HammingCode::random(64, 17).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(at_risk, probability));
        chip
    }

    #[test]
    fn new_chip_reads_back_zero_cleanly() {
        let code = HammingCode::random(64, 1).unwrap();
        let chip = MemoryChip::new(code, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for word in 0..3 {
            let obs = chip.read(word, &mut rng);
            assert!(obs.post_correction_data().is_zero());
            assert!(obs.post_correction_errors().next().is_none());
            assert!(obs.direct_errors().next().is_none());
            assert_eq!(obs.decode_result().outcome, DecodeOutcome::NoErrorDetected);
        }
    }

    #[test]
    fn write_then_read_round_trips_without_faults() {
        let code = HammingCode::random(64, 2).unwrap();
        let mut chip = MemoryChip::new(code, 2);
        let data = BitVec::from_u64(64, 0xDEAD_BEEF_CAFE_F00D);
        chip.write(1, &data);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let obs = chip.read(1, &mut rng);
        assert_eq!(obs.post_correction_data(), &data);
        assert_eq!(obs.written_data(), &data);
        assert_eq!(&obs.raw_data_bits(), &data);
        assert_eq!(chip.written_data(1), &data);
    }

    #[test]
    fn single_at_risk_bit_is_corrected_but_visible_through_bypass() {
        let chip = chip_with_faults(&[5], 1.0);
        let mut chip = chip;
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let obs = chip.read(0, &mut rng);
        // Normal read: corrected.
        assert!(obs.post_correction_errors().next().is_none());
        assert_eq!(obs.decode_result().outcome, DecodeOutcome::corrected(5));
        // Bypass read: the direct error is visible.
        assert_eq!(obs.direct_errors().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn uncharged_at_risk_cells_do_not_fail() {
        let mut chip = chip_with_faults(&[5], 1.0);
        chip.write(0, &BitVec::zeros(64));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let obs = chip.read(0, &mut rng);
        assert!(obs.direct_errors().next().is_none());
        assert!(obs.post_correction_errors().next().is_none());
    }

    #[test]
    fn multi_bit_faults_can_corrupt_post_correction_data() {
        let mut chip = chip_with_faults(&[0, 1, 2], 1.0);
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let obs = chip.read(0, &mut rng);
        assert_eq!(obs.direct_errors().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Three errors exceed SEC capability: at least two post-correction
        // errors must remain (the decoder can remove or add at most one).
        assert!(obs.post_correction_errors().count() >= 2);
    }

    #[test]
    fn parity_at_risk_bits_are_invisible_to_the_bypass_path() {
        let code = HammingCode::random(64, 23).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        // Word with a single at-risk parity bit that always fails.
        chip.set_fault_model(0, FaultModel::uniform(&[64], 1.0));
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // The parity bit may or may not be charged depending on the code; if
        // it is charged it fails, is corrected, and never shows up in either
        // the post-correction data or the bypass data bits.
        let obs = chip.read(0, &mut rng);
        assert!(obs.post_correction_errors().next().is_none());
        assert!(obs.direct_errors().next().is_none());
    }

    #[test]
    fn chips_are_generic_over_the_code() {
        // The same chip model runs a SEC-DED-protected word: a double error
        // that would miscorrect under plain SEC is detected instead, so the
        // post-correction data shows exactly the two direct errors.
        let code = harp_ecc::ExtendedHammingCode::random(64, 17).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.set_fault_model(0, FaultModel::uniform(&[3, 9], 1.0));
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let obs = chip.read(0, &mut rng);
        assert_eq!(obs.direct_errors().collect::<Vec<_>>(), vec![3, 9]);
        assert_eq!(obs.post_correction_errors().collect::<Vec<_>>(), vec![3, 9]);
        assert_eq!(
            obs.decode_result().outcome,
            DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn reads_resample_errors_each_access() {
        let mut chip = chip_with_faults(&[7], 0.5);
        chip.write(0, &BitVec::ones(64));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut failed = 0;
        let trials = 2000;
        for _ in 0..trials {
            if chip.read(0, &mut rng).direct_errors().next().is_some() {
                failed += 1;
            }
        }
        let rate = failed as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_word_panics() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        chip.read(1, &mut rng);
    }

    #[test]
    fn burst_observations_match_the_scalar_read_loop() {
        let code = HammingCode::random(64, 17).unwrap();
        let mut chip = MemoryChip::new(code, 6);
        // A mix of clean words, single-error words, and a multi-error word.
        chip.set_fault_model(1, FaultModel::uniform(&[5], 1.0));
        chip.set_fault_model(3, FaultModel::uniform(&[0, 1, 2], 1.0));
        chip.set_fault_model(4, FaultModel::uniform(&[9, 40], 0.5));
        for word in 0..6 {
            chip.write(word, &BitVec::ones(64));
        }

        let mut scalar_rng = ChaCha8Rng::seed_from_u64(21);
        let scalar: Vec<ReadObservation> = (1..5).map(|w| chip.read(w, &mut scalar_rng)).collect();

        let mut burst_rng = ChaCha8Rng::seed_from_u64(21);
        let mut scratch = BurstScratch::new();
        let burst = chip.read_burst(1..5, &mut burst_rng, &mut scratch);
        assert_eq!(burst, scalar.as_slice());
    }

    #[test]
    fn burst_scratch_is_reusable_across_bursts_of_different_sizes() {
        let code = HammingCode::random(16, 23).unwrap();
        let mut chip = MemoryChip::new(code, 8);
        chip.set_fault_model(2, FaultModel::uniform(&[1], 1.0));
        for word in 0..8 {
            chip.write(word, &BitVec::ones(16));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut scratch = BurstScratch::new();
        assert_eq!(chip.read_burst(0..8, &mut rng, &mut scratch).len(), 8);
        // A shorter follow-up burst returns only its own observations even
        // though the scratch still holds eight slots.
        let short = chip.read_burst(2..4, &mut rng, &mut scratch);
        assert_eq!(short.len(), 2);
        assert_eq!(short[0].direct_errors().collect::<Vec<_>>(), vec![1]);

        let mut fresh_rng = ChaCha8Rng::seed_from_u64(5);
        let mut fresh_scratch = BurstScratch::new();
        let mut replay = Vec::new();
        replay.extend_from_slice(chip.read_burst(0..8, &mut fresh_rng, &mut fresh_scratch));
        replay.extend_from_slice(chip.read_burst(2..4, &mut fresh_rng, &mut fresh_scratch));
        assert_eq!(&replay[8..], short);
    }

    #[test]
    fn write_in_place_matches_write_for_every_code_family() {
        let hamming = HammingCode::random(64, 3).unwrap();
        let secded = harp_ecc::ExtendedHammingCode::random(64, 3).unwrap();
        let patterns = [
            BitVec::from_u64(64, 0xDEAD_BEEF_CAFE_F00D),
            BitVec::zeros(64),
            BitVec::ones(64),
            BitVec::from_indices(64, [0, 7, 63]),
        ];
        fn check<C: LinearBlockCode + Clone>(code: C, patterns: &[BitVec]) {
            let mut via_write = MemoryChip::new(code.clone(), 2);
            let mut in_place = MemoryChip::new(code, 2);
            // Repeated rewrites of the same slots must track `write` exactly.
            for data in patterns {
                via_write.write(1, data);
                in_place.write_in_place(1, data);
                assert_eq!(via_write.written_data(1), in_place.written_data(1));
                let mut rng_a = ChaCha8Rng::seed_from_u64(5);
                let mut rng_b = ChaCha8Rng::seed_from_u64(5);
                assert_eq!(via_write.read(1, &mut rng_a), in_place.read(1, &mut rng_b));
            }
        }
        check(hamming, &patterns);
        check(secded, &patterns);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_in_place_rejects_wrong_dataword_length() {
        let code = HammingCode::random(64, 3).unwrap();
        let mut chip = MemoryChip::new(code, 1);
        chip.write_in_place(0, &BitVec::zeros(32));
    }

    #[test]
    fn per_word_rng_burst_matches_independent_scalar_streams() {
        let code = HammingCode::random(64, 29).unwrap();
        let mut chip = MemoryChip::new(code, 4);
        chip.set_fault_model(0, FaultModel::uniform(&[3], 0.5));
        chip.set_fault_model(1, FaultModel::uniform(&[7, 12], 0.5));
        chip.set_fault_model(3, FaultModel::uniform(&[0, 1, 2], 0.75));
        for word in 0..4 {
            chip.write(word, &BitVec::ones(64));
        }

        // Reference: each word read alone, with its own RNG stream.
        let scalar: Vec<ReadObservation> = (0..4)
            .map(|w| {
                let mut rng = ChaCha8Rng::seed_from_u64(100 + w as u64);
                chip.read(w, &mut rng)
            })
            .collect();

        let mut rngs: Vec<ChaCha8Rng> = (0..4)
            .map(|w| ChaCha8Rng::seed_from_u64(100 + w as u64))
            .collect();
        let mut scratch = BurstScratch::new();
        let burst = chip.read_burst_with_rngs(0..4, &mut rngs, &mut scratch);
        assert_eq!(burst, scalar.as_slice());
    }

    #[test]
    fn per_word_rng_streams_advance_independently_across_bursts() {
        let code = HammingCode::random(16, 31).unwrap();
        let mut chip = MemoryChip::new(code, 2);
        chip.set_fault_model(0, FaultModel::uniform(&[1], 0.5));
        chip.set_fault_model(1, FaultModel::uniform(&[2, 5], 0.5));
        chip.write(0, &BitVec::ones(16));
        chip.write(1, &BitVec::ones(16));

        // Two burst rounds must equal two scalar rounds per word, with each
        // word's stream advancing only by its own draws.
        let mut scalar_rngs: Vec<ChaCha8Rng> =
            (0..2).map(|w| ChaCha8Rng::seed_from_u64(7 + w)).collect();
        let mut scalar = Vec::new();
        for _round in 0..2 {
            for (w, rng) in scalar_rngs.iter_mut().enumerate() {
                scalar.push(chip.read(w, rng));
            }
        }

        let mut rngs: Vec<ChaCha8Rng> = (0..2).map(|w| ChaCha8Rng::seed_from_u64(7 + w)).collect();
        let mut scratch = BurstScratch::with_capacity(2);
        let mut burst = Vec::new();
        for _round in 0..2 {
            burst.extend_from_slice(chip.read_burst_with_rngs(0..2, &mut rngs, &mut scratch));
        }
        assert_eq!(burst, scalar);
    }

    #[test]
    #[should_panic(expected = "RNG streams")]
    fn read_burst_with_rngs_rejects_mismatched_stream_count() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 4);
        let mut rngs = vec![ChaCha8Rng::seed_from_u64(0); 2];
        chip.read_burst_with_rngs(0..4, &mut rngs, &mut BurstScratch::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_burst_with_rngs_checks_word_range() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 2);
        let mut rngs = vec![ChaCha8Rng::seed_from_u64(0); 3];
        chip.read_burst_with_rngs(1..4, &mut rngs, &mut BurstScratch::new());
    }

    #[test]
    #[should_panic(expected = "empty or reversed")]
    fn read_burst_empty_range_panics() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        chip.read_burst(2..2, &mut rng, &mut BurstScratch::new());
    }

    #[test]
    #[should_panic(expected = "empty or reversed")]
    fn read_burst_reversed_range_panics() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        #[allow(clippy::reversed_empty_ranges)]
        chip.read_burst(3..1, &mut rng, &mut BurstScratch::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_burst_past_words_per_chip_panics() {
        let code = HammingCode::random(8, 3).unwrap();
        let chip = MemoryChip::new(code, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        chip.read_burst(2..5, &mut rng, &mut BurstScratch::new());
    }
}
