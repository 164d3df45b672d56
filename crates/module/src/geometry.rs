//! Rank geometry and the burst mapping from cache-line bits to chips and
//! on-die ECC words.
//!
//! A memory access transfers a cache line as `burst_length` beats; each beat
//! carries `io_width` bits from every chip in the rank. Inside each chip the
//! bits received across the burst are grouped into on-die ECC words of
//! `ondie_word_bits` data bits. The mapping below is the standard
//! "chip-interleaved, beat-major" arrangement used by commodity DDR ranks.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Where a cache-line bit lives inside the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitLocation {
    /// Which chip in the rank drives the bit.
    pub chip: usize,
    /// Which on-die ECC word (within this access) the bit belongs to.
    pub ondie_word: usize,
    /// The data-bit index within that on-die ECC word.
    pub bit_in_word: usize,
    /// The beat (data transfer) the bit travels on.
    pub beat: usize,
}

/// The physical organisation of one rank of memory chips.
///
/// # Example
///
/// ```
/// use harp_module::ModuleGeometry;
///
/// let geometry = ModuleGeometry::new(8, 8, 8, 64).unwrap();
/// assert_eq!(geometry.line_bits(), 512);
/// assert_eq!(geometry.ondie_words_per_chip(), 1);
/// assert_eq!(geometry.ondie_words_per_access(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModuleGeometry {
    chips: usize,
    io_width: usize,
    burst_length: usize,
    ondie_word_bits: usize,
}

impl ModuleGeometry {
    /// Creates a geometry, validating that the per-chip burst payload divides
    /// evenly into on-die ECC words.
    ///
    /// Returns `None` if any parameter is zero or if
    /// `io_width · burst_length` is not a multiple of `ondie_word_bits`, or
    /// if `ondie_word_bits` is not a multiple of `io_width` (an on-die word
    /// must span whole beats of its chip for the beat layout to be
    /// well-defined).
    pub fn new(
        chips: usize,
        io_width: usize,
        burst_length: usize,
        ondie_word_bits: usize,
    ) -> Option<Self> {
        if chips == 0 || io_width == 0 || burst_length == 0 || ondie_word_bits == 0 {
            return None;
        }
        let per_chip = io_width * burst_length;
        if !per_chip.is_multiple_of(ondie_word_bits) || !ondie_word_bits.is_multiple_of(io_width) {
            return None;
        }
        Some(Self {
            chips,
            io_width,
            burst_length,
            ondie_word_bits,
        })
    }

    /// The single-chip LPDDR4-style configuration the paper evaluates: one
    /// ×16 chip, burst 16, 128-bit on-die ECC words (a (136, 128) code).
    pub fn lpddr4_x16() -> Self {
        Self::new(1, 16, 16, 128).expect("static geometry is valid")
    }

    /// The paper's simulated configuration: a single chip delivering one
    /// 64-bit on-die ECC word (a (71, 64) code) per access.
    pub fn single_chip_64() -> Self {
        Self::new(1, 8, 8, 64).expect("static geometry is valid")
    }

    /// A DDR4-style rank: 8 × ×8 chips, burst 8, 64-bit on-die ECC words.
    pub fn ddr4_style_rank() -> Self {
        Self::new(8, 8, 8, 64).expect("static geometry is valid")
    }

    /// A DDR5-style sub-channel: 4 × ×4 chips, burst 16, 64-bit on-die words.
    pub fn ddr5_style_subchannel() -> Self {
        Self::new(4, 4, 16, 64).expect("static geometry is valid")
    }

    /// Number of chips in the rank.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// I/O width (bits per beat) of each chip.
    pub fn io_width(&self) -> usize {
        self.io_width
    }

    /// Number of beats per access.
    pub fn burst_length(&self) -> usize {
        self.burst_length
    }

    /// Data bits per on-die ECC word.
    pub fn ondie_word_bits(&self) -> usize {
        self.ondie_word_bits
    }

    /// Total data bits transferred per access (the cache-line size).
    pub fn line_bits(&self) -> usize {
        self.chips * self.io_width * self.burst_length
    }

    /// Data bits each chip contributes per access.
    pub fn bits_per_chip(&self) -> usize {
        self.io_width * self.burst_length
    }

    /// On-die ECC words each chip contributes per access.
    pub fn ondie_words_per_chip(&self) -> usize {
        self.bits_per_chip() / self.ondie_word_bits
    }

    /// Total on-die ECC words involved in one access.
    pub fn ondie_words_per_access(&self) -> usize {
        self.chips * self.ondie_words_per_chip()
    }

    /// Maps a cache-line bit index to its physical location.
    ///
    /// The mapping is beat-major and chip-interleaved: consecutive line bits
    /// fill one beat across all chips before moving to the next beat, which
    /// is how commodity ranks stripe data across the bus.
    ///
    /// # Panics
    ///
    /// Panics if `line_bit >= line_bits()`.
    pub fn locate(&self, line_bit: usize) -> BitLocation {
        assert!(
            line_bit < self.line_bits(),
            "line bit {line_bit} out of range {}",
            self.line_bits()
        );
        let bits_per_beat = self.chips * self.io_width;
        let beat = line_bit / bits_per_beat;
        let within_beat = line_bit % bits_per_beat;
        let chip = within_beat / self.io_width;
        let pin = within_beat % self.io_width;
        let chip_local = beat * self.io_width + pin;
        BitLocation {
            chip,
            ondie_word: chip_local / self.ondie_word_bits,
            bit_in_word: chip_local % self.ondie_word_bits,
            beat,
        }
    }

    /// The inverse of [`Self::locate`]: the cache-line bit index of a
    /// physical location.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside this geometry.
    pub fn line_bit_of(&self, location: BitLocation) -> usize {
        assert!(
            location.chip < self.chips,
            "chip {} out of range",
            location.chip
        );
        assert!(
            location.ondie_word < self.ondie_words_per_chip(),
            "on-die word {} out of range",
            location.ondie_word
        );
        assert!(
            location.bit_in_word < self.ondie_word_bits,
            "bit {} out of range",
            location.bit_in_word
        );
        let chip_local = location.ondie_word * self.ondie_word_bits + location.bit_in_word;
        let beat = chip_local / self.io_width;
        let pin = chip_local % self.io_width;
        beat * self.chips * self.io_width + location.chip * self.io_width + pin
    }
}

/// A precomputed, bidirectional form of the burst mapping: every
/// ([`ModuleGeometry::locate`], [`ModuleGeometry::line_bit_of`]) answer for
/// one geometry, tabulated once.
///
/// The per-bit mapping arithmetic is cheap but sits inside the innermost
/// loop of every module-level line read (`line_bits` lookups per access), so
/// [`crate::MemoryModule`] caches one of these at construction and the burst
/// read path indexes it directly.
///
/// # Example
///
/// ```
/// use harp_module::ModuleGeometry;
///
/// let geometry = ModuleGeometry::ddr4_style_rank();
/// let map = geometry.bit_interleave();
/// for bit in 0..geometry.line_bits() {
///     let location = geometry.locate(bit);
///     assert_eq!(map.locate(bit), location);
///     assert_eq!(
///         map.line_bit(location.chip, location.ondie_word, location.bit_in_word),
///         bit
///     );
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitInterleaveMap {
    geometry: ModuleGeometry,
    /// Chip-major inverse mapping: index
    /// `chip · bits_per_chip + ondie_word · ondie_word_bits + bit_in_word`
    /// holds the cache-line bit driven by that physical location.
    to_line: Vec<usize>,
    /// Forward mapping: index `line_bit` holds its physical location.
    to_location: Vec<BitLocation>,
}

impl BitInterleaveMap {
    fn new(geometry: ModuleGeometry) -> Self {
        let line_bits = geometry.line_bits();
        let mut to_line = vec![0usize; line_bits];
        let mut to_location = Vec::with_capacity(line_bits);
        for bit in 0..line_bits {
            let location = geometry.locate(bit);
            let chip_local =
                location.ondie_word * geometry.ondie_word_bits() + location.bit_in_word;
            to_line[location.chip * geometry.bits_per_chip() + chip_local] = bit;
            to_location.push(location);
        }
        Self {
            geometry,
            to_line,
            to_location,
        }
    }

    /// The geometry this map was built for.
    pub fn geometry(&self) -> &ModuleGeometry {
        &self.geometry
    }

    /// The cache-line bit driven by `(chip, ondie_word, bit_in_word)` — the
    /// tabulated [`ModuleGeometry::line_bit_of`].
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn line_bit(&self, chip: usize, ondie_word: usize, bit_in_word: usize) -> usize {
        assert!(
            chip < self.geometry.chips()
                && ondie_word < self.geometry.ondie_words_per_chip()
                && bit_in_word < self.geometry.ondie_word_bits(),
            "location ({chip}, {ondie_word}, {bit_in_word}) outside {}",
            self.geometry
        );
        let chip_local = ondie_word * self.geometry.ondie_word_bits() + bit_in_word;
        self.to_line[chip * self.geometry.bits_per_chip() + chip_local]
    }

    /// The physical location of a cache-line bit — the tabulated
    /// [`ModuleGeometry::locate`].
    ///
    /// # Panics
    ///
    /// Panics if `line_bit >= line_bits()`.
    pub fn locate(&self, line_bit: usize) -> BitLocation {
        self.to_location[line_bit]
    }
}

impl ModuleGeometry {
    /// Tabulates the burst mapping into a [`BitInterleaveMap`] (both
    /// directions, one entry per cache-line bit).
    pub fn bit_interleave(&self) -> BitInterleaveMap {
        BitInterleaveMap::new(*self)
    }
}

impl fmt::Display for ModuleGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chip(s) x{} · BL{} · {}-bit on-die words",
            self.chips, self.io_width, self.burst_length, self.ondie_word_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_geometries_are_consistent() {
        let ddr4 = ModuleGeometry::ddr4_style_rank();
        assert_eq!(ddr4.line_bits(), 512);
        assert_eq!(ddr4.ondie_words_per_access(), 8);

        let lpddr4 = ModuleGeometry::lpddr4_x16();
        assert_eq!(lpddr4.line_bits(), 256);
        assert_eq!(lpddr4.ondie_words_per_chip(), 2);

        let single = ModuleGeometry::single_chip_64();
        assert_eq!(single.line_bits(), 64);
        assert_eq!(single.ondie_words_per_access(), 1);

        let ddr5 = ModuleGeometry::ddr5_style_subchannel();
        assert_eq!(ddr5.line_bits(), 256);
        assert_eq!(ddr5.ondie_words_per_access(), 4);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(ModuleGeometry::new(0, 8, 8, 64).is_none());
        assert!(ModuleGeometry::new(8, 0, 8, 64).is_none());
        assert!(ModuleGeometry::new(8, 8, 0, 64).is_none());
        assert!(ModuleGeometry::new(8, 8, 8, 0).is_none());
        // Payload does not divide into on-die words.
        assert!(ModuleGeometry::new(1, 8, 8, 48).is_none());
        // On-die word does not span whole beats.
        assert!(ModuleGeometry::new(1, 16, 16, 40).is_none());
    }

    #[test]
    fn locate_and_line_bit_of_are_inverse_bijections() {
        for geometry in [
            ModuleGeometry::ddr4_style_rank(),
            ModuleGeometry::lpddr4_x16(),
            ModuleGeometry::ddr5_style_subchannel(),
            ModuleGeometry::single_chip_64(),
        ] {
            let mut seen = std::collections::BTreeSet::new();
            for bit in 0..geometry.line_bits() {
                let location = geometry.locate(bit);
                assert_eq!(geometry.line_bit_of(location), bit, "{geometry}");
                seen.insert((location.chip, location.ondie_word, location.bit_in_word));
            }
            assert_eq!(seen.len(), geometry.line_bits(), "{geometry}");
        }
    }

    #[test]
    fn consecutive_line_bits_interleave_across_chips() {
        let geometry = ModuleGeometry::ddr4_style_rank();
        // First 8 bits belong to chip 0 (its 8 pins on beat 0), next 8 to
        // chip 1, and so on.
        assert_eq!(geometry.locate(0).chip, 0);
        assert_eq!(geometry.locate(7).chip, 0);
        assert_eq!(geometry.locate(8).chip, 1);
        assert_eq!(geometry.locate(63).chip, 7);
        // The next beat wraps back to chip 0.
        let next_beat = geometry.locate(64);
        assert_eq!(next_beat.chip, 0);
        assert_eq!(next_beat.beat, 1);
    }

    #[test]
    fn each_ondie_word_spans_whole_beats() {
        let geometry = ModuleGeometry::lpddr4_x16();
        for bit in 0..geometry.line_bits() {
            let location = geometry.locate(bit);
            // 128-bit words over 16 pins: word 0 occupies beats 0..8.
            assert_eq!(location.ondie_word, location.beat / 8);
        }
    }

    #[test]
    fn display_summarises_the_geometry() {
        assert_eq!(
            ModuleGeometry::ddr4_style_rank().to_string(),
            "8 chip(s) x8 · BL8 · 64-bit on-die words"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_out_of_range_bits() {
        ModuleGeometry::single_chip_64().locate(64);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_geometry() -> impl Strategy<Value = ModuleGeometry> {
            (
                1usize..=8,
                proptest::sample::select(vec![4usize, 8, 16]),
                proptest::sample::select(vec![8usize, 16]),
                proptest::sample::select(vec![32usize, 64, 128]),
            )
                .prop_filter_map(
                    "geometry must be self-consistent",
                    |(chips, io, burst, word)| ModuleGeometry::new(chips, io, burst, word),
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn burst_mapping_is_a_bijection(geometry in arbitrary_geometry()) {
                let mut seen = std::collections::BTreeSet::new();
                for bit in 0..geometry.line_bits() {
                    let location = geometry.locate(bit);
                    prop_assert!(location.chip < geometry.chips());
                    prop_assert!(location.ondie_word < geometry.ondie_words_per_chip());
                    prop_assert!(location.bit_in_word < geometry.ondie_word_bits());
                    prop_assert!(location.beat < geometry.burst_length());
                    prop_assert_eq!(geometry.line_bit_of(location), bit);
                    seen.insert((location.chip, location.ondie_word, location.bit_in_word));
                }
                prop_assert_eq!(seen.len(), geometry.line_bits());
            }

            #[test]
            fn interleave_map_tabulates_the_mapping_exactly(geometry in arbitrary_geometry()) {
                let map = geometry.bit_interleave();
                prop_assert_eq!(map.geometry(), &geometry);
                for bit in 0..geometry.line_bits() {
                    let location = geometry.locate(bit);
                    prop_assert_eq!(map.locate(bit), location);
                    prop_assert_eq!(
                        map.line_bit(location.chip, location.ondie_word, location.bit_in_word),
                        bit
                    );
                }
            }

            #[test]
            fn layouts_always_partition_the_line(geometry in arbitrary_geometry()) {
                use crate::layout::SecondaryLayout;
                for layout in SecondaryLayout::ALL {
                    let groups = layout.secondary_words(&geometry);
                    let total: usize = groups.iter().map(Vec::len).sum();
                    prop_assert_eq!(total, geometry.line_bits());
                    // The interleaved layout always needs the most capability.
                    prop_assert!(
                        SecondaryLayout::PerCacheLine.required_capability(&geometry, 1)
                            >= layout.required_capability(&geometry, 1)
                    );
                }
            }
        }
    }
}
