//! Batched syndrome computation: one parity-check matrix applied to many
//! packed codewords in a single pass over `u64` words.
//!
//! Syndrome computation (`H · c` for a parity-check matrix `H`) is the
//! hottest operation in the whole reproduction: every simulated read of every
//! Monte-Carlo campaign decodes a stored codeword, and decoding starts with
//! the syndrome. [`SyndromeKernel`] precomputes a word-packed, row-major copy
//! of `H` once per code and then evaluates syndromes with nothing but word
//! loads, `AND`, `XOR`, and population counts — no per-call matrix traversal
//! and no per-row `BitVec` allocation. For whole batches,
//! [`SyndromeKernel::syndrome_words_into`] additionally reuses one packed
//! output buffer across all codewords (the `BitVec`-producing batch entry
//! points still allocate one output vector per codeword), and
//! [`SyndromeKernel::syndrome_words_bitsliced_into`] drops the per-word loop
//! entirely: 64-codeword blocks are transposed into bit-position lanes (see
//! [`bitslice`](crate::bitslice)) and every syndrome row is evaluated for a
//! whole block at once, emitting a per-block nonzero-syndrome mask alongside
//! the packed syndromes.
//!
//! All three code families in the workspace (SEC Hamming, SEC-DED extended
//! Hamming, and the DEC BCH code) implement the `harp_ecc` trait seam —
//! `LinearBlockCode::syndrome_kernel` — and route their `syndrome` path
//! through a kernel owned by the code; campaign drivers can additionally
//! call [`SyndromeKernel::syndromes`] / [`SyndromeKernel::syndromes_into`]
//! to batch reads. The `syndrome_kernel` and `bitsliced_kernel` bench
//! targets measure the per-read vs. batched vs. bit-sliced cost.
//!
//! # Example
//!
//! ```
//! use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};
//!
//! let h = Gf2Matrix::from_rows(&[
//!     BitVec::from_bools(&[true, true, false, true, false]),
//!     BitVec::from_bools(&[false, true, true, false, true]),
//! ]);
//! let kernel = SyndromeKernel::new(&h);
//! let word = BitVec::from_indices(5, [0, 3]);
//! assert_eq!(kernel.syndrome(&word), h.mul_vec(&word));
//! ```

use serde::{Deserialize, Serialize};

use crate::bitslice::{transpose64, BitsliceScratch, BLOCK_WORDS};
use crate::{BitVec, Gf2Matrix};

/// A parity-check matrix pre-packed for fast (and batched) syndrome
/// computation.
///
/// The kernel is a pure function of the matrix it was built from, so deriving
/// equality and serialization alongside the owning code type stays
/// consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SyndromeKernel {
    /// Number of syndrome bits (rows of `H`).
    rows: usize,
    /// Codeword length in bits (columns of `H`).
    cols: usize,
    /// `u64` words per codeword.
    words_per_row: usize,
    /// Row-major packed copy of `H`: row `r` occupies
    /// `packed[r * words_per_row .. (r + 1) * words_per_row]`.
    packed: Vec<u64>,
    /// Column indices of the nonzero entries of each row, flattened; row `r`
    /// occupies `support[support_offsets[r] .. support_offsets[r + 1]]`.
    /// Derived from `packed`, so the derived equality/serialization stay
    /// consistent; drives the lane gathers of the bit-sliced entry points.
    support: Vec<u32>,
    /// Row boundaries into `support` (`rows + 1` entries).
    support_offsets: Vec<u32>,
}

impl SyndromeKernel {
    /// Packs a parity-check matrix for syndrome evaluation.
    pub fn new(h: &Gf2Matrix) -> Self {
        let words_per_row = h.cols().div_ceil(64).max(1);
        let mut packed = Vec::with_capacity(h.rows() * words_per_row);
        let mut support = Vec::new();
        let mut support_offsets = Vec::with_capacity(h.rows() + 1);
        support_offsets.push(0);
        for row in h.iter_rows() {
            let words = row.as_words();
            packed.extend_from_slice(words);
            packed.extend(std::iter::repeat_n(0, words_per_row - words.len()));
            support.extend(row.iter_ones().map(|col| col as u32));
            support_offsets.push(support.len() as u32);
        }
        Self {
            rows: h.rows(),
            cols: h.cols(),
            words_per_row,
            packed,
            support,
            support_offsets,
        }
    }

    /// Codeword length the kernel expects.
    pub fn codeword_len(&self) -> usize {
        self.cols
    }

    /// Computes the syndrome of one codeword as a packed `u64` (valid because
    /// every code in this workspace has at most 64 syndrome bits; bit `r` of
    /// the result is syndrome row `r`).
    ///
    /// # Panics
    ///
    /// Panics if the codeword length does not match or the kernel has more
    /// than 64 rows.
    #[inline]
    pub fn syndrome_word(&self, codeword: &BitVec) -> u64 {
        assert!(
            self.rows <= 64,
            "syndrome_word supports at most 64 syndrome bits, kernel has {}",
            self.rows
        );
        assert_eq!(
            codeword.len(),
            self.cols,
            "codeword length mismatch: expected {}, got {}",
            self.cols,
            codeword.len()
        );
        let data = codeword.as_words();
        let mut out = 0u64;
        for r in 0..self.rows {
            let row = &self.packed[r * self.words_per_row..(r + 1) * self.words_per_row];
            let mut acc = 0u64;
            for (h_word, c_word) in row.iter().zip(data) {
                acc ^= h_word & c_word;
            }
            out |= u64::from(acc.count_ones() & 1) << r;
        }
        out
    }

    /// Computes the syndrome of one codeword.
    ///
    /// # Panics
    ///
    /// Panics as [`SyndromeKernel::syndrome_word`] does.
    pub fn syndrome(&self, codeword: &BitVec) -> BitVec {
        BitVec::from_u64(self.rows, self.syndrome_word(codeword))
    }

    /// Computes the syndromes of a batch of codewords, appending one `BitVec`
    /// per codeword to `out`.
    ///
    /// This is a convenience entry point, *not* the allocation-free hot path:
    /// it still allocates one output `BitVec` per codeword (`out` is only
    /// reserved once up front). Hot callers should use the packed
    /// [`SyndromeKernel::syndrome_words_into`] or the bit-sliced
    /// [`SyndromeKernel::syndrome_words_bitsliced_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any codeword length does not match the kernel.
    pub fn syndromes_into(&self, codewords: &[BitVec], out: &mut Vec<BitVec>) {
        out.reserve(codewords.len());
        for codeword in codewords {
            out.push(self.syndrome(codeword));
        }
    }

    /// Computes the syndromes of a batch of codewords, allocating the output
    /// vector (see [`SyndromeKernel::syndromes_into`] for the allocation
    /// caveat).
    ///
    /// # Example
    ///
    /// ```
    /// use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};
    ///
    /// let h = Gf2Matrix::identity(4);
    /// let kernel = SyndromeKernel::new(&h);
    /// let words = vec![BitVec::from_indices(4, [1]), BitVec::zeros(4)];
    /// let syndromes = kernel.syndromes(&words);
    /// assert_eq!(syndromes[0], words[0]);
    /// assert!(syndromes[1].is_zero());
    /// ```
    #[must_use]
    pub fn syndromes(&self, codewords: &[BitVec]) -> Vec<BitVec> {
        let mut out = Vec::new();
        self.syndromes_into(codewords, &mut out);
        out
    }

    /// Computes the packed-`u64` syndromes of a batch of codewords, reusing
    /// `out` (cleared first). This is the allocation-free hot path used by
    /// Monte-Carlo campaigns: `MemoryChip::read_burst` feeds it a whole scrub
    /// pass worth of stored codewords in one call.
    ///
    /// Accepts any iterator of codeword references, so callers can stream
    /// codewords straight out of their own scratch structures without
    /// collecting them into a contiguous slice first.
    ///
    /// # Panics
    ///
    /// Panics as [`SyndromeKernel::syndrome_word`] does.
    pub fn syndrome_words_into<'a, I>(&self, codewords: I, out: &mut Vec<u64>)
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        out.clear();
        // `extend` pre-reserves from the iterator's size hint, so a fresh
        // output vector takes one allocation instead of push-doubling.
        out.extend(
            codewords
                .into_iter()
                .map(|codeword| self.syndrome_word(codeword)),
        );
    }

    /// Computes the packed-`u64` syndromes of a batch of codewords with the
    /// bit-sliced block evaluator, reusing `out` and `masks` (both cleared
    /// first). Byte-for-byte equivalent to
    /// [`SyndromeKernel::syndrome_words_into`] on the same codewords — the
    /// per-word path stays the reference implementation — but evaluated 64
    /// codewords at a time: each block is transposed into bit-position lanes
    /// (see [`bitslice`](crate::bitslice)) and every syndrome row becomes one
    /// XOR chain over the lanes in its support, with no per-word loop.
    ///
    /// `masks` receives one `u64` per 64-codeword block: bit `i` is set iff
    /// codeword `64 * block + i` has a **nonzero** syndrome. Clean words'
    /// packed syndromes are written as `0` without ever being extracted from
    /// the lanes, so a caller that honors the mask (the burst read path does)
    /// never touches per-word syndrome state for clean words at all.
    ///
    /// Blocks whose gathered 64-bit chunks are all zero skip their transpose
    /// and row evaluation outright, which makes the pass effectively free for
    /// sparse inputs — e.g. raw error patterns, whose syndromes equal the
    /// stored codewords' syndromes by linearity.
    ///
    /// # Panics
    ///
    /// Panics as [`SyndromeKernel::syndrome_word`] does (any codeword length
    /// mismatch, or more than 64 syndrome rows).
    pub fn syndrome_words_bitsliced_into<'a, I>(
        &self,
        codewords: I,
        out: &mut Vec<u64>,
        masks: &mut Vec<u64>,
        scratch: &mut BitsliceScratch,
    ) where
        I: IntoIterator<Item = &'a BitVec>,
    {
        assert!(
            self.rows <= 64,
            "syndrome_word supports at most 64 syndrome bits, kernel has {}",
            self.rows
        );
        out.clear();
        masks.clear();
        self.for_each_block(codewords, scratch, |kernel, block, scratch| {
            let mask = if kernel.slice_block(block, scratch) {
                kernel.accumulate_rows(scratch)
            } else {
                0
            };
            // Clean words keep a packed syndrome of zero; only flagged words
            // pay the per-row bit extraction from the lane accumulators.
            let base = out.len();
            out.resize(base + block.len(), 0);
            let mut dirty = mask;
            while dirty != 0 {
                let i = dirty.trailing_zeros() as usize;
                let mut word = 0u64;
                for (r, acc) in scratch.row_acc.iter().enumerate() {
                    word |= ((acc >> i) & 1) << r;
                }
                out[base + i] = word;
                dirty &= dirty - 1;
            }
            masks.push(mask);
        });
    }

    /// Streams `codewords` through fixed 64-word blocks (the final block may
    /// be ragged), invoking `process` once per block. Blocks are collected
    /// into a fixed stack array of filled `Option` slots, so the streaming
    /// never allocates whatever the iterator's size hint says; the scratch
    /// is threaded through `process` (rather than captured) so callers can
    /// also borrow their output vectors in the closure.
    fn for_each_block<'a, I, F>(&self, codewords: I, scratch: &mut BitsliceScratch, mut process: F)
    where
        I: IntoIterator<Item = &'a BitVec>,
        F: FnMut(&Self, &[Option<&'a BitVec>], &mut BitsliceScratch),
    {
        let mut block: [Option<&'a BitVec>; BLOCK_WORDS] = [None; BLOCK_WORDS];
        let mut count = 0usize;
        for codeword in codewords {
            assert_eq!(
                codeword.len(),
                self.cols,
                "codeword length mismatch: expected {}, got {}",
                self.cols,
                codeword.len()
            );
            block[count] = Some(codeword);
            count += 1;
            if count == BLOCK_WORDS {
                process(self, &block, scratch);
                count = 0;
            }
        }
        if count > 0 {
            process(self, &block[..count], scratch);
        }
    }

    /// Gathers and transposes one block of codewords into `scratch.lanes`,
    /// returning `false` when every gathered chunk was zero — the sparse
    /// fast path: the lanes are left untouched (stale) and every syndrome in
    /// the block is known to be zero without any row evaluation.
    fn slice_block(&self, block: &[Option<&BitVec>], scratch: &mut BitsliceScratch) -> bool {
        let lane_words = self.words_per_row * 64;
        if scratch.lanes.len() < lane_words {
            scratch.lanes.resize(lane_words, 0);
        }
        if scratch.zero_chunks.len() < self.words_per_row {
            scratch.zero_chunks.resize(self.words_per_row, false);
        }
        let mut all_zero = true;
        for chunk in 0..self.words_per_row {
            let mut gather = [0u64; 64];
            let mut any = 0u64;
            for (lane_bit, slot) in block.iter().enumerate() {
                let word = slot
                    .expect("block slot filled by for_each_block")
                    .as_words()
                    .get(chunk)
                    .copied()
                    .unwrap_or(0);
                gather[lane_bit] = word;
                any |= word;
            }
            if any == 0 {
                scratch.zero_chunks[chunk] = true;
                continue;
            }
            scratch.zero_chunks[chunk] = false;
            all_zero = false;
            transpose64(&mut gather);
            scratch.lanes[chunk * 64..(chunk + 1) * 64].copy_from_slice(&gather);
        }
        if all_zero {
            return false;
        }
        // Chunks skipped above may hold stale lanes from an earlier block;
        // zero them now that this block does need a row evaluation.
        for chunk in 0..self.words_per_row {
            if scratch.zero_chunks[chunk] {
                scratch.lanes[chunk * 64..(chunk + 1) * 64].fill(0);
            }
        }
        true
    }

    /// XORs the lanes of each row's support into `scratch.row_acc` and
    /// returns the OR of all accumulators: bit `i` of the result is set iff
    /// word `i` of the current block has a nonzero syndrome.
    fn accumulate_rows(&self, scratch: &mut BitsliceScratch) -> u64 {
        scratch.row_acc.clear();
        scratch.row_acc.reserve(self.rows);
        let mut mask = 0u64;
        for r in 0..self.rows {
            let start = self.support_offsets[r] as usize;
            let end = self.support_offsets[r + 1] as usize;
            let mut acc = 0u64;
            for &col in &self.support[start..end] {
                acc ^= scratch.lanes[col as usize];
            }
            scratch.row_acc.push(acc);
            mask |= acc;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_h(rows: usize, cols: usize, salt: u64) -> Gf2Matrix {
        // Deterministic pseudo-random dense matrix.
        Gf2Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64) << 17)
                .wrapping_add(salt);
            (x ^ (x >> 29)).count_ones().is_multiple_of(2)
        })
    }

    #[test]
    fn kernel_matches_mul_vec_across_shapes() {
        for (rows, cols, salt) in [(3, 7, 1), (7, 71, 2), (8, 136, 3), (16, 144, 4), (1, 1, 5)] {
            let h = dense_h(rows, cols, salt);
            let kernel = SyndromeKernel::new(&h);
            assert_eq!(kernel.codeword_len(), cols);
            for k in 0..20 {
                let word = BitVec::from_indices(
                    cols,
                    (0..cols).filter(|&b| (b as u64 * 31 + k).is_multiple_of(3)),
                );
                assert_eq!(
                    kernel.syndrome(&word),
                    h.mul_vec(&word),
                    "rows={rows} cols={cols} k={k}"
                );
            }
        }
    }

    #[test]
    fn syndrome_word_packs_rows_low_bit_first() {
        let h = dense_h(7, 71, 9);
        let kernel = SyndromeKernel::new(&h);
        let word = BitVec::from_indices(71, [0, 3, 64, 70]);
        let packed = kernel.syndrome_word(&word);
        let reference = h.mul_vec(&word);
        for r in 0..7 {
            assert_eq!((packed >> r) & 1 == 1, reference.get(r), "row {r}");
        }
    }

    #[test]
    fn batched_syndromes_match_individual_calls() {
        let h = dense_h(8, 136, 11);
        let kernel = SyndromeKernel::new(&h);
        let words: Vec<BitVec> = (0..64)
            .map(|k| BitVec::from_indices(136, (0..136).filter(move |&b| (b * 7 + k) % 5 == 0)))
            .collect();
        let batched = kernel.syndromes(&words);
        assert_eq!(batched.len(), words.len());
        for (word, syndrome) in words.iter().zip(&batched) {
            assert_eq!(&kernel.syndrome(word), syndrome);
        }
        let mut packed = Vec::new();
        kernel.syndrome_words_into(&words, &mut packed);
        for (syndrome, &word) in batched.iter().zip(&packed) {
            assert_eq!(syndrome.to_u64(), word);
        }
    }

    #[test]
    fn zero_codeword_has_zero_syndrome() {
        let h = dense_h(7, 71, 13);
        let kernel = SyndromeKernel::new(&h);
        assert!(kernel.syndrome(&BitVec::zeros(71)).is_zero());
        assert_eq!(kernel.syndrome_word(&BitVec::zeros(71)), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_codeword_length_panics() {
        let kernel = SyndromeKernel::new(&dense_h(3, 7, 17));
        kernel.syndrome(&BitVec::zeros(8));
    }

    #[test]
    fn bitsliced_syndromes_match_per_word_path() {
        let mut scratch = BitsliceScratch::new();
        for (rows, cols, salt) in [(3, 7, 1), (7, 71, 2), (8, 136, 3), (16, 144, 4), (1, 1, 5)] {
            let h = dense_h(rows, cols, salt);
            let kernel = SyndromeKernel::new(&h);
            for count in [1usize, 5, 63, 64, 65, 130] {
                let words: Vec<BitVec> = (0..count)
                    .map(|k| {
                        BitVec::from_indices(
                            cols,
                            (0..cols).filter(move |&b| (b * 11 + k) % 7 == 0),
                        )
                    })
                    .collect();
                let mut reference = Vec::new();
                kernel.syndrome_words_into(&words, &mut reference);
                let mut bitsliced = Vec::new();
                let mut masks = Vec::new();
                kernel.syndrome_words_bitsliced_into(
                    &words,
                    &mut bitsliced,
                    &mut masks,
                    &mut scratch,
                );
                assert_eq!(
                    bitsliced, reference,
                    "rows={rows} cols={cols} count={count}"
                );
                assert_eq!(masks.len(), count.div_ceil(64));
                for (i, &syndrome) in reference.iter().enumerate() {
                    let bit = (masks[i / 64] >> (i % 64)) & 1;
                    assert_eq!(bit == 1, syndrome != 0, "mask bit {i}");
                }
                // Mask bits beyond the ragged tail stay clear.
                let tail = count % 64;
                if tail != 0 {
                    assert_eq!(masks.last().unwrap() >> tail, 0);
                }
            }
        }
    }

    #[test]
    fn bitsliced_pass_handles_sparse_and_zero_blocks() {
        let h = dense_h(7, 71, 21);
        let kernel = SyndromeKernel::new(&h);
        let mut scratch = BitsliceScratch::new();
        // A dense block first, so a later all-zero block must not reuse its
        // stale lanes.
        let dense: Vec<BitVec> = (0..64)
            .map(|k| BitVec::from_indices(71, (0..71).filter(move |&b| (b + k) % 3 == 0)))
            .collect();
        let zeros: Vec<BitVec> = (0..64).map(|_| BitVec::zeros(71)).collect();
        let mut one_error = zeros.clone();
        one_error[17].set(70, true);
        for words in [&dense, &zeros, &one_error] {
            let mut reference = Vec::new();
            kernel.syndrome_words_into(words.as_slice(), &mut reference);
            let (mut out, mut masks) = (Vec::new(), Vec::new());
            kernel.syndrome_words_bitsliced_into(
                words.as_slice(),
                &mut out,
                &mut masks,
                &mut scratch,
            );
            assert_eq!(out, reference);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 syndrome bits")]
    fn bitsliced_syndrome_words_reject_wide_kernels() {
        let kernel = SyndromeKernel::new(&dense_h(65, 80, 1));
        kernel.syndrome_words_bitsliced_into(
            &[BitVec::zeros(80)],
            &mut Vec::new(),
            &mut Vec::new(),
            &mut BitsliceScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitsliced_pass_rejects_mismatched_codeword_length() {
        let kernel = SyndromeKernel::new(&dense_h(7, 71, 1));
        kernel.syndrome_words_bitsliced_into(
            &[BitVec::zeros(72)],
            &mut Vec::new(),
            &mut Vec::new(),
            &mut BitsliceScratch::new(),
        );
    }

    #[test]
    fn kernel_equality_follows_matrix_equality() {
        let a = SyndromeKernel::new(&dense_h(4, 32, 1));
        let b = SyndromeKernel::new(&dense_h(4, 32, 1));
        let c = SyndromeKernel::new(&dense_h(4, 32, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
