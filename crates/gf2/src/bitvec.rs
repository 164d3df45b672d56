//! Packed fixed-length bit vectors over GF(2).
//!
//! [`BitVec`] is the workhorse type of the whole reproduction: codewords,
//! datawords, syndromes, error patterns, data patterns, and parity-check
//! matrix rows are all bit vectors. The representation packs bits into `u64`
//! words (least-significant bit first), so XOR-heavy operations such as
//! syndrome computation run over whole words.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign};

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A fixed-length vector over GF(2).
///
/// Bits are addressed from `0` to `len() - 1`. All binary operators require
/// both operands to have the same length and panic otherwise — mixing
/// codewords of different code configurations is a logic error we want to
/// catch loudly during simulation.
///
/// # Example
///
/// ```
/// use harp_gf2::BitVec;
///
/// let mut v = BitVec::zeros(8);
/// v.set(3, true);
/// v.set(5, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::zeros(71);
    /// assert_eq!(v.len(), 71);
    /// assert!(v.is_zero());
    /// ```
    pub fn zeros(len: usize) -> Self {
        let nwords = len.div_ceil(WORD_BITS);
        Self {
            len,
            words: vec![0; nwords],
        }
    }

    /// Creates an all-one vector of `len` bits.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::ones(10);
    /// assert_eq!(v.count_ones(), 10);
    /// ```
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Creates a vector from a slice of booleans (`bools[i]` becomes bit `i`).
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_bools(&[true, false, true]);
    /// assert!(v.get(0) && !v.get(1) && v.get(2));
    /// ```
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a vector of length `len` with ones at the given bit indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_indices(7, [1, 4]);
    /// assert_eq!(v.count_ones(), 2);
    /// ```
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut v = Self::zeros(len);
        for i in indices {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector of `len` bits from the low bits of `value`
    /// (bit `i` of the vector is bit `i` of `value`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_u64(4, 0b1010);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    /// ```
    pub fn from_u64(len: usize, value: u64) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut v = Self::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = index / WORD_BITS;
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Flips bit `index` and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn flip(&mut self, index: usize) -> bool {
        let new = !self.get(index);
        self.set(index, new);
        new
    }

    /// Returns the number of set bits (Hamming weight).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns the index of the lowest set bit, if any.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// assert_eq!(BitVec::from_indices(8, [5, 6]).first_one(), Some(5));
    /// assert_eq!(BitVec::zeros(8).first_one(), None);
    /// ```
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the indices of set bits in increasing order.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_indices(70, [0, 63, 64, 69]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 69]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates, in increasing order, over the positions below `len` where
    /// `self` and `other` differ: the set bits of the packed XOR of their
    /// first `len` bits, read a word at a time with no intermediate vector.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds either vector's length.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let stored = BitVec::from_indices(71, [3, 64, 70]);
    /// let written = BitVec::from_indices(64, [3, 9]);
    /// assert_eq!(stored.iter_diff_ones(&written, 64).collect::<Vec<_>>(), vec![9]);
    /// ```
    pub fn iter_diff_ones<'a>(&'a self, other: &'a Self, len: usize) -> DiffOnes<'a> {
        assert!(
            len <= self.len && len <= other.len,
            "{len} bits out of range for {} and {} bits",
            self.len,
            other.len
        );
        let mut ones = DiffOnes {
            a: &self.words,
            b: &other.words,
            len,
            word_index: 0,
            current: 0,
        };
        if len > 0 {
            ones.current = ones.diff_word(0);
        }
        ones
    }

    /// Iterates over all bits as booleans in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Interprets the first `min(len, 64)` bits as an integer (bit `i` of the
    /// vector becomes bit `i` of the result).
    pub fn to_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Returns the dot product (mod 2) of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let a = BitVec::from_indices(5, [0, 2, 3]);
    /// let b = BitVec::from_indices(5, [2, 3, 4]);
    /// assert_eq!(a.dot(&b), false); // two overlapping ones -> even parity
    /// ```
    pub fn dot(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "dot product length mismatch");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Returns the parity (XOR of all bits) of the vector.
    pub fn parity(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Returns a sub-vector containing bits `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_indices(10, [2, 7]);
    /// let s = v.slice(2, 8);
    /// assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 5]);
    /// ```
    pub fn slice(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.len, "invalid slice range");
        let mut out = Self::zeros(end - start);
        for i in start..end {
            if self.get(i) {
                out.set(i - start, true);
            }
        }
        out
    }

    /// Concatenates `self` followed by `other` into a new vector.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let a = BitVec::from_indices(3, [0]);
    /// let b = BitVec::from_indices(2, [1]);
    /// let c = a.concat(&b);
    /// assert_eq!(c.len(), 5);
    /// assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 4]);
    /// ```
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.len + other.len);
        for i in self.iter_ones() {
            out.set(i, true);
        }
        for i in other.iter_ones() {
            out.set(self.len + i, true);
        }
        out
    }

    /// Returns the bitwise complement.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let v = BitVec::from_indices(4, [0, 2]);
    /// assert_eq!(v.not().iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    /// ```
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        out.invert();
        out
    }

    /// Complements every bit in place: the allocation-free twin of
    /// [`BitVec::not`].
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::from_indices(4, [0, 2]);
    /// v.invert();
    /// assert_eq!(v, BitVec::from_indices(4, [1, 3]));
    /// ```
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Access to the underlying packed words (low bit of word 0 is bit 0).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Makes `self` an exact copy of `src`, reusing the existing word buffer.
    ///
    /// Unlike `*self = src.clone()`, no allocation occurs once the buffer
    /// capacity matches — this is the building block of the allocation-free
    /// burst read path.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let src = BitVec::from_indices(71, [3, 70]);
    /// let mut dst = BitVec::zeros(71);
    /// dst.copy_from(&src);
    /// assert_eq!(dst, src);
    /// ```
    pub fn copy_from(&mut self, src: &Self) {
        self.len = src.len;
        self.words.clear();
        self.words.extend_from_slice(&src.words);
    }

    /// Makes `self` a copy of the first `len` bits of `src` (the in-place
    /// equivalent of `src.slice(0, len)`), reusing the existing word buffer.
    ///
    /// # Panics
    ///
    /// Panics if `len > src.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let src = BitVec::from_indices(71, [3, 70]);
    /// let mut prefix = BitVec::default();
    /// prefix.copy_prefix_from(&src, 64);
    /// assert_eq!(prefix, src.slice(0, 64));
    /// ```
    pub fn copy_prefix_from(&mut self, src: &Self, len: usize) {
        assert!(
            len <= src.len,
            "prefix of {len} bits out of range for {} bits",
            src.len
        );
        self.len = len;
        self.words.clear();
        self.words
            .extend_from_slice(&src.words[..len.div_ceil(WORD_BITS)]);
        self.mask_tail();
    }

    /// Makes `self` a `len`-bit vector holding the low bits of `value` (the
    /// in-place equivalent of [`BitVec::from_u64`]), reusing the word buffer.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::default();
    /// v.assign_u64(7, 0b101_0010);
    /// assert_eq!(v, BitVec::from_u64(7, 0b101_0010));
    /// ```
    pub fn assign_u64(&mut self, len: usize, value: u64) {
        assert!(len <= 64, "assign_u64 supports at most 64 bits, got {len}");
        self.len = len;
        self.words.clear();
        if len > 0 {
            self.words.push(if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            });
        }
    }

    /// Makes `self` a `len`-bit vector whose packed words are the first
    /// `len.div_ceil(64)` items of `words` (low bit of the first word is bit
    /// 0; bits past `len` are dropped), reusing the word buffer.
    ///
    /// # Panics
    ///
    /// Panics if `words` yields fewer words than `len` needs.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::default();
    /// v.assign_words(70, std::iter::repeat(u64::MAX));
    /// assert_eq!(v, BitVec::ones(70));
    /// ```
    pub fn assign_words(&mut self, len: usize, words: impl IntoIterator<Item = u64>) {
        let needed = len.div_ceil(WORD_BITS);
        self.len = len;
        self.words.clear();
        self.words.extend(words.into_iter().take(needed));
        assert_eq!(self.words.len(), needed, "{len} bits need {needed} words");
        self.mask_tail();
    }

    /// Overwrites the `len <= 64` bits starting at `start` with the low
    /// `len` bits of `value`, leaving every other bit untouched. The bits
    /// may straddle a word boundary; no allocation occurs.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `start + len > self.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::zeros(72);
    /// v.splice_u64(60, 8, 0b1000_0001);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![60, 67]);
    /// ```
    pub fn splice_u64(&mut self, start: usize, len: usize, value: u64) {
        assert!(
            len <= WORD_BITS && start + len <= self.len,
            "{len} bits at {start} out of range for {} bits",
            self.len
        );
        if len == 0 {
            return;
        }
        let mask = u64::MAX >> (WORD_BITS - len);
        let value = value & mask;
        let (word, offset) = (start / WORD_BITS, start % WORD_BITS);
        self.words[word] = (self.words[word] & !(mask << offset)) | (value << offset);
        if offset + len > WORD_BITS {
            let shift = WORD_BITS - offset;
            self.words[word + 1] = (self.words[word + 1] & !(mask >> shift)) | (value >> shift);
        }
    }

    /// Makes `self` an all-zero vector of `len` bits, reusing the word buffer
    /// (the in-place equivalent of [`BitVec::zeros`]).
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::from_indices(8, [1, 2]);
    /// v.reset(71);
    /// assert_eq!(v, BitVec::zeros(71));
    /// ```
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
    }

    /// Overwrites the first `src.len()` bits of `self` with `src`, leaving
    /// every later bit (and `self`'s length) untouched. Word-packed and
    /// allocation-free: this is the building block of the in-place
    /// systematic-encode write path.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > self.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// # use harp_gf2::BitVec;
    /// let mut v = BitVec::ones(71);
    /// v.overwrite_prefix(&BitVec::zeros(64));
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![64, 65, 66, 67, 68, 69, 70]);
    /// ```
    pub fn overwrite_prefix(&mut self, src: &Self) {
        assert!(
            src.len <= self.len,
            "prefix of {} bits out of range for {} bits",
            src.len,
            self.len
        );
        let full_words = src.len / WORD_BITS;
        self.words[..full_words].copy_from_slice(&src.words[..full_words]);
        let rem = src.len % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            // `src`'s tail bits beyond its length are kept masked to zero,
            // so the masked merge splices exactly `rem` live bits.
            self.words[full_words] =
                (self.words[full_words] & !mask) | (src.words[full_words] & mask);
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }

    fn assert_same_len(&self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "BitVec length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// Iterator over the indices of set bits, produced by [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_index: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_index];
        }
    }
}

/// Iterator over the positions where two vectors differ, produced by
/// [`BitVec::iter_diff_ones`].
pub struct DiffOnes<'a> {
    a: &'a [u64],
    b: &'a [u64],
    len: usize,
    word_index: usize,
    current: u64,
}

impl DiffOnes<'_> {
    /// Word `index` of the XOR, with the bits at and past `len` cleared.
    fn diff_word(&self, index: usize) -> u64 {
        let diff = self.a[index] ^ self.b[index];
        let end = (index + 1) * WORD_BITS;
        if end > self.len {
            diff & (u64::MAX >> (end - self.len))
        } else {
            diff
        }
    }
}

impl Iterator for DiffOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index * WORD_BITS >= self.len {
                return None;
            }
            self.current = self.diff_word(self.word_index);
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl Default for BitVec {
    fn default() -> Self {
        Self::zeros(0)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bools)
    }
}

macro_rules! impl_bit_op {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $assign_trait<&BitVec> for BitVec {
            fn $assign_method(&mut self, rhs: &BitVec) {
                self.assert_same_len(rhs);
                for (a, b) in self.words.iter_mut().zip(&rhs.words) {
                    *a $op *b;
                }
            }
        }

        impl $trait<&BitVec> for &BitVec {
            type Output = BitVec;
            fn $method(self, rhs: &BitVec) -> BitVec {
                let mut out = self.clone();
                $assign_trait::$assign_method(&mut out, rhs);
                out
            }
        }
    };
}

impl_bit_op!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);
impl_bit_op!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
impl_bit_op!(BitOr, bitor, BitOrAssign, bitor_assign, |=);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_length_and_no_ones() {
        let v = BitVec::zeros(71);
        assert_eq!(v.len(), 71);
        assert_eq!(v.count_ones(), 0);
        assert!(v.is_zero());
        assert!(!v.is_empty());
    }

    #[test]
    fn ones_sets_every_bit_and_masks_tail() {
        let v = BitVec::ones(71);
        assert_eq!(v.count_ones(), 71);
        // The packed representation must not leak bits beyond len.
        assert_eq!(v.as_words()[1] >> (71 - 64), 0);
    }

    #[test]
    fn set_get_flip_round_trip() {
        let mut v = BitVec::zeros(130);
        assert!(!v.get(129));
        v.set(129, true);
        assert!(v.get(129));
        assert!(!v.flip(129));
        assert!(!v.get(129));
        assert!(v.flip(0));
        assert!(v.get(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn from_indices_and_iter_ones_agree() {
        let idx = vec![0, 1, 63, 64, 65, 127];
        let v = BitVec::from_indices(128, idx.clone());
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
        assert_eq!(v.count_ones(), idx.len());
    }

    #[test]
    fn from_u64_round_trips() {
        let v = BitVec::from_u64(16, 0xA5A5);
        assert_eq!(v.to_u64(), 0xA5A5);
        let v = BitVec::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), 0xF);
    }

    #[test]
    fn xor_is_elementwise_addition() {
        let a = BitVec::from_indices(100, [1, 5, 99]);
        let b = BitVec::from_indices(100, [5, 7]);
        let c = &a ^ &b;
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 7, 99]);
    }

    #[test]
    fn and_or_not_behave_like_set_operations() {
        let a = BitVec::from_indices(10, [1, 2, 3]);
        let b = BitVec::from_indices(10, [2, 3, 4]);
        assert_eq!((&a & &b).iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!((&a | &b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(a.not().count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let _ = &BitVec::zeros(4) ^ &BitVec::zeros(5);
    }

    #[test]
    fn dot_product_parity() {
        let a = BitVec::from_indices(6, [0, 1, 2]);
        let b = BitVec::from_indices(6, [1, 2, 3]);
        assert!(!a.dot(&b));
        let c = BitVec::from_indices(6, [1, 3]);
        assert!(a.dot(&c));
    }

    #[test]
    fn slice_and_concat_are_inverse_like() {
        let v = BitVec::from_indices(20, [0, 7, 13, 19]);
        let left = v.slice(0, 10);
        let right = v.slice(10, 20);
        assert_eq!(left.concat(&right), v);
    }

    #[test]
    fn display_renders_bit_string() {
        let v = BitVec::from_indices(5, [1, 4]);
        assert_eq!(v.to_string(), "01001");
        assert_eq!(format!("{v:?}"), "BitVec(01001)");
    }

    #[test]
    fn first_one_finds_lowest_index() {
        assert_eq!(BitVec::from_indices(200, [150, 151]).first_one(), Some(150));
        assert_eq!(BitVec::zeros(200).first_one(), None);
    }

    #[test]
    fn from_iterator_collects_bools() {
        let v: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn parity_counts_ones_mod_two() {
        assert!(BitVec::from_indices(9, [0, 4, 8]).parity());
        assert!(!BitVec::from_indices(9, [0, 4]).parity());
    }

    #[test]
    fn in_place_assignments_match_their_allocating_counterparts() {
        let src = BitVec::from_indices(130, [0, 63, 64, 71, 129]);
        let mut reused = BitVec::from_indices(8, [3]);

        reused.copy_from(&src);
        assert_eq!(reused, src);

        for len in [0usize, 1, 63, 64, 65, 130] {
            reused.copy_prefix_from(&src, len);
            assert_eq!(reused, src.slice(0, len), "prefix of {len}");
        }

        for (len, value) in [(0usize, 0u64), (7, 0xFF), (64, u64::MAX), (13, 0x1234)] {
            reused.assign_u64(len, value);
            assert_eq!(reused, BitVec::from_u64(len, value), "assign_u64({len})");
        }

        reused.reset(71);
        assert_eq!(reused, BitVec::zeros(71));
        reused.reset(0);
        assert_eq!(reused, BitVec::zeros(0));
    }

    #[test]
    fn copy_from_does_not_leak_stale_high_words() {
        // Shrinking reuse: a long vector copied over by a short one must not
        // keep bits of the old tail words.
        let mut v = BitVec::ones(200);
        v.copy_from(&BitVec::from_indices(5, [1]));
        assert_eq!(v.len(), 5);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(v.as_words().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_prefix_longer_than_source_panics() {
        BitVec::default().copy_prefix_from(&BitVec::zeros(8), 9);
    }

    /// `splice_u64` and `iter_diff_ones` equal their bit-by-bit
    /// definitions at every offset and length around the word boundaries.
    #[test]
    fn packed_splice_and_diff_match_bit_by_bit() {
        let pattern = 0x9E37_79B9_7F4A_7C15u64;
        for total in [1usize, 63, 64, 65, 130] {
            let base = BitVec::from_indices(total, (0..total).filter(|i| i % 3 == 0));
            for start in 0..total {
                for len in 0..=(total - start).min(64) {
                    let mut spliced = base.clone();
                    spliced.splice_u64(start, len, pattern);
                    let mut expected = base.clone();
                    for bit in 0..len {
                        expected.set(start + bit, (pattern >> bit) & 1 == 1);
                    }
                    assert_eq!(spliced, expected, "{len} bits at {start} of {total}");
                }
                let other = BitVec::from_indices(total, (start..total).step_by(2));
                for len in [0, start, total] {
                    let diff: Vec<usize> = base.iter_diff_ones(&other, len).collect();
                    let expected: Vec<usize> =
                        (0..len).filter(|&i| base.get(i) != other.get(i)).collect();
                    assert_eq!(diff, expected, "{len} of {total} bits from {start}");
                }
            }
        }
    }

    #[test]
    fn empty_vector_is_well_behaved() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.is_zero());
        assert_eq!(v.iter_ones().count(), 0);
        assert_eq!(v.to_u64(), 0);
    }
}
