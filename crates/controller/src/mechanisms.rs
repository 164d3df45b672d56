//! Concrete finite-capacity repair mechanisms from the paper's Table 1.
//!
//! The case study in §7.4 assumes an *ideal* bit-repair mechanism so that
//! profiler coverage is the only variable. Real mechanisms have finite spare
//! capacity and different allocation granularities, which determines how many
//! profiled bits they can actually absorb. This module models two
//! representative designs so the repository can answer the follow-up
//! question the paper's Table 1 raises — *how much repair capacity does a
//! profile of a given size require?*
//!
//! * [`EcpRepair`] — ECP-style error-correcting pointers: each memory block
//!   carries a fixed number of pointer entries, each repairing a single bit
//!   (Schechter et al., ISCA 2010). A block whose at-risk bits exceed its
//!   pointer budget overflows and is no longer fully protected.
//! * [`ArchShieldRepair`] — an ArchShield-style two-level design (Nair et
//!   al., ISCA 2013): words with a single at-risk bit are tolerated in place,
//!   while words with multiple at-risk bits are remapped to a finite spare
//!   region.
//!
//! Both expose the same bookkeeping interface so the capacity-planning
//! extension experiment can sweep them against profiles produced by the
//! different profilers.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::profile::ErrorProfile;

/// ECP-style repair: `entries_per_block` single-bit correction pointers per
/// `block_bits`-bit block.
///
/// # Example
///
/// ```
/// use harp_controller::mechanisms::EcpRepair;
///
/// // ECP-6 over 512-bit blocks, as in the original proposal.
/// let mut ecp = EcpRepair::new(512, 6);
/// for bit in 0..6 {
///     assert!(ecp.cover(0, bit));
/// }
/// // The seventh at-risk bit in the same block overflows its entries.
/// assert!(!ecp.cover(0, 6));
/// assert_eq!(ecp.overflowed_blocks(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EcpRepair {
    block_bits: usize,
    entries_per_block: usize,
    /// Covered bits per (word, block) pair.
    entries: BTreeMap<(usize, usize), BTreeSet<usize>>,
    /// Blocks whose entry budget has been exceeded.
    overflowed: BTreeSet<(usize, usize)>,
}

impl EcpRepair {
    /// Creates an ECP mechanism with `entries_per_block` pointers per
    /// `block_bits`-bit block.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is zero.
    pub fn new(block_bits: usize, entries_per_block: usize) -> Self {
        assert!(block_bits > 0, "block size must be nonzero");
        Self {
            block_bits,
            entries_per_block,
            entries: BTreeMap::new(),
            overflowed: BTreeSet::new(),
        }
    }

    /// The block size in bits.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// The pointer budget per block.
    pub fn entries_per_block(&self) -> usize {
        self.entries_per_block
    }

    fn key(&self, word: usize, bit: usize) -> (usize, usize) {
        (word, bit / self.block_bits)
    }

    /// Requests coverage of at-risk bit `(word, bit)`. Returns `true` if the
    /// bit is covered by a pointer entry, `false` if the block's budget is
    /// exhausted. The budget check happens *before* any entry set is created,
    /// so overflow-only blocks (every block of a zero-budget mechanism) never
    /// allocate phantom entries.
    pub fn cover(&mut self, word: usize, bit: usize) -> bool {
        let key = self.key(word, bit);
        match self.entries.get_mut(&key) {
            Some(entries) if entries.contains(&bit) => true,
            Some(entries) if entries.len() < self.entries_per_block => {
                entries.insert(bit);
                true
            }
            None if self.entries_per_block > 0 => {
                self.entries.insert(key, BTreeSet::from([bit]));
                true
            }
            _ => {
                self.overflowed.insert(key);
                false
            }
        }
    }

    /// Returns `true` if the bit is covered by an allocated pointer.
    pub fn is_covered(&self, word: usize, bit: usize) -> bool {
        self.entries
            .get(&self.key(word, bit))
            .is_some_and(|entries| entries.contains(&bit))
    }

    /// Number of pointer entries allocated so far.
    pub fn entries_used(&self) -> usize {
        self.entries.values().map(BTreeSet::len).sum()
    }

    /// Number of blocks whose pointer budget was exceeded at least once.
    pub fn overflowed_blocks(&self) -> usize {
        self.overflowed.len()
    }

    /// Storage overhead in bits: each entry needs `ceil(log2(block_bits))`
    /// address bits plus one replacement bit, for every block that holds at
    /// least one entry.
    pub fn overhead_bits(&self) -> usize {
        let pointer_bits = (usize::BITS - (self.block_bits - 1).leading_zeros()) as usize + 1;
        self.entries.len() * self.entries_per_block * pointer_bits
    }

    /// Loads an error profile (word granularity) into the mechanism,
    /// returning the number of bits left uncovered.
    pub fn load_profile(&mut self, profile: &ErrorProfile) -> usize {
        let mut uncovered = 0;
        for (word, bit) in profile.iter() {
            if !self.cover(word, bit) {
                uncovered += 1;
            }
        }
        uncovered
    }
}

/// ArchShield-style two-level repair: single-bit-faulty words are tolerated
/// in place, multi-bit-faulty words are remapped to a finite spare region.
///
/// # Example
///
/// ```
/// use harp_controller::mechanisms::ArchShieldRepair;
///
/// let mut arch = ArchShieldRepair::new(2);
/// assert!(arch.cover(0, 5));          // first at-risk bit of word 0: in place
/// assert!(arch.cover(0, 9));          // second bit: word 0 is remapped
/// assert_eq!(arch.remapped_words(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchShieldRepair {
    spare_words: usize,
    /// At-risk bits recorded per word.
    fault_map: BTreeMap<usize, BTreeSet<usize>>,
    /// Words remapped into the spare region.
    remapped: BTreeSet<usize>,
    /// Words that needed remapping after the spare region filled up.
    unprotected: BTreeSet<usize>,
}

impl ArchShieldRepair {
    /// Creates a mechanism with a spare region of `spare_words` words.
    pub fn new(spare_words: usize) -> Self {
        Self {
            spare_words,
            fault_map: BTreeMap::new(),
            remapped: BTreeSet::new(),
            unprotected: BTreeSet::new(),
        }
    }

    /// Number of spare words still available.
    pub fn spares_remaining(&self) -> usize {
        self.spare_words - self.remapped.len()
    }

    /// Number of words remapped to the spare region.
    pub fn remapped_words(&self) -> usize {
        self.remapped.len()
    }

    /// Requests coverage of at-risk bit `(word, bit)`. Returns `true` if the
    /// word remains protected (in place or remapped), `false` if the word
    /// needed remapping but the spare region is exhausted.
    pub fn cover(&mut self, word: usize, bit: usize) -> bool {
        let bits = self.fault_map.entry(word).or_default();
        bits.insert(bit);
        if bits.len() <= 1 {
            return true;
        }
        if self.remapped.contains(&word) {
            return true;
        }
        if self.remapped.len() < self.spare_words {
            self.remapped.insert(word);
            self.unprotected.remove(&word);
            return true;
        }
        self.unprotected.insert(word);
        false
    }

    /// Returns `true` if the word containing the bit is still protected.
    pub fn is_covered(&self, word: usize, _bit: usize) -> bool {
        match self.fault_map.get(&word) {
            None => true,
            Some(bits) if bits.len() <= 1 => true,
            Some(_) => self.remapped.contains(&word),
        }
    }

    /// Loads an error profile into the mechanism, returning the number of
    /// words left unprotected.
    pub fn load_profile(&mut self, profile: &ErrorProfile) -> usize {
        for (word, bit) in profile.iter() {
            self.cover(word, bit);
        }
        self.unprotected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecp_entries_are_per_block_and_idempotent() {
        let mut ecp = EcpRepair::new(64, 2);
        assert!(ecp.cover(0, 3));
        assert!(ecp.cover(0, 3), "re-covering the same bit is free");
        assert!(ecp.cover(0, 40));
        assert!(!ecp.cover(0, 50), "third distinct bit overflows");
        // A different block of the same word has its own budget.
        assert!(ecp.cover(0, 70));
        assert_eq!(ecp.entries_used(), 3);
        assert_eq!(ecp.overflowed_blocks(), 1);
        assert!(ecp.is_covered(0, 3));
        assert!(!ecp.is_covered(0, 50));
        assert_eq!(ecp.block_bits(), 64);
        assert_eq!(ecp.entries_per_block(), 2);
    }

    #[test]
    fn ecp_overhead_scales_with_allocated_blocks() {
        let mut ecp = EcpRepair::new(512, 6);
        assert_eq!(ecp.overhead_bits(), 0);
        ecp.cover(0, 1);
        let one_block = ecp.overhead_bits();
        assert!(one_block > 0);
        ecp.cover(7, 1);
        assert_eq!(ecp.overhead_bits(), 2 * one_block);
    }

    #[test]
    fn ecp_loads_profiles_and_reports_uncovered_bits() {
        let mut profile = ErrorProfile::new();
        profile.mark_all(0, [1, 2, 3]);
        profile.mark(1, 9);
        let mut ecp = EcpRepair::new(64, 2);
        let uncovered = ecp.load_profile(&profile);
        assert_eq!(uncovered, 1, "word 0 overflows its two entries");
        assert_eq!(ecp.entries_used(), 3);
    }

    #[test]
    fn archshield_tolerates_single_bit_words_in_place() {
        let mut arch = ArchShieldRepair::new(1);
        assert!(arch.cover(0, 5));
        assert!(arch.cover(1, 6));
        assert_eq!(arch.remapped_words(), 0);
        assert!(arch.is_covered(0, 5));
        assert!(arch.is_covered(7, 0), "untouched words are protected");
    }

    #[test]
    fn archshield_remaps_multi_bit_words_until_spares_run_out() {
        let mut arch = ArchShieldRepair::new(1);
        assert!(arch.cover(0, 1));
        assert!(arch.cover(0, 2), "first multi-bit word takes the spare");
        assert_eq!(arch.spares_remaining(), 0);
        assert!(arch.cover(3, 1));
        assert!(!arch.cover(3, 2), "second multi-bit word finds no spare");
        assert!(arch.is_covered(0, 1));
        assert!(!arch.is_covered(3, 2));
    }

    #[test]
    fn archshield_loads_profiles() {
        let mut profile = ErrorProfile::new();
        profile.mark_all(0, [0, 1]);
        profile.mark_all(1, [2, 3]);
        profile.mark(2, 4);
        let mut arch = ArchShieldRepair::new(1);
        let unprotected = arch.load_profile(&profile);
        assert_eq!(unprotected, 1);
        assert_eq!(arch.remapped_words(), 1);
    }

    #[test]
    fn ecp_overflow_allocates_no_phantom_entry_sets() {
        // Regression: `cover` used to insert an empty entry set via
        // `entry(key).or_default()` before checking the budget, so every
        // rejected block of a zero-budget mechanism grew the entries map
        // unboundedly (phantom allocated blocks with no pointers). The
        // budget check now runs first; `overhead_bits()` — which charges
        // `entries_per_block * pointer_bits` per allocated block — can no
        // longer be skewed by blocks that never received an entry.
        let mut ecp = EcpRepair::new(64, 0);
        assert!(!ecp.cover(0, 3));
        assert!(!ecp.cover(1, 40));
        assert_eq!(ecp.overflowed_blocks(), 2);
        assert_eq!(ecp.entries_used(), 0);
        assert_eq!(ecp.overhead_bits(), 0);
        assert!(
            ecp.entries.is_empty(),
            "an overflowed cover must not allocate an entry set"
        );

        // A nonzero-budget mechanism keeps its overflow accounting intact.
        let mut ecp = EcpRepair::new(64, 1);
        assert!(ecp.cover(0, 3));
        assert!(!ecp.cover(0, 9));
        assert_eq!(ecp.entries.len(), 1, "only the covered block is allocated");
        let one_block = ecp.overhead_bits();
        assert!(ecp.cover(2, 0));
        assert!(!ecp.cover(2, 9));
        assert_eq!(ecp.overhead_bits(), 2 * one_block);
    }

    #[test]
    #[should_panic(expected = "block size must be nonzero")]
    fn ecp_rejects_zero_blocks() {
        EcpRepair::new(0, 2);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `load_profile`'s uncovered count matches a brute-force recount
            /// of profiled bits that ended up without a pointer entry.
            #[test]
            fn ecp_load_profile_uncovered_matches_brute_force(
                block_bits in 1usize..=64,
                entries_per_block in 0usize..=4,
                bits in proptest::collection::btree_set((0usize..6, 0usize..128), 0..48),
            ) {
                let profile: ErrorProfile = bits.iter().copied().collect();
                let mut ecp = EcpRepair::new(block_bits, entries_per_block);
                let uncovered = ecp.load_profile(&profile);
                let recount = profile
                    .iter()
                    .filter(|&(word, bit)| !ecp.is_covered(word, bit))
                    .count();
                prop_assert_eq!(uncovered, recount);
                prop_assert_eq!(
                    ecp.entries_used() + uncovered,
                    profile.total_bits()
                );
            }

            /// Covering arbitrarily many multi-bit words never underflows the
            /// spare accounting: remapped words are capped by the spare pool
            /// and `spares_remaining` stays consistent.
            #[test]
            fn archshield_spares_never_underflow(
                spare_words in 0usize..=4,
                covers in proptest::collection::vec((0usize..8, 0usize..64), 0..64),
            ) {
                let mut arch = ArchShieldRepair::new(spare_words);
                for &(word, bit) in &covers {
                    arch.cover(word, bit);
                }
                prop_assert!(arch.remapped_words() <= spare_words);
                prop_assert_eq!(
                    arch.spares_remaining(),
                    spare_words - arch.remapped_words()
                );
            }
        }
    }
}
