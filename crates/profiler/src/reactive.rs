//! Reactive profiling: identifying at-risk bits during normal operation with
//! the memory controller's secondary ECC (§6.3).
//!
//! After HARP's active phase has identified (and the repair mechanism has
//! repaired) every bit at risk of direct error, at most one indirect error
//! can occur per on-die-ECC word at a time. A secondary ECC with correction
//! capability ≥ 1 can therefore *safely* identify the remaining at-risk bits
//! the first time they fail: every error it corrects is recorded into the
//! error profile so the repair mechanism covers it from then on.

use std::collections::BTreeSet;

use harp_ecc::{SecondaryEcc, SecondaryObservation};
use harp_gf2::BitVec;

/// A reactive profiler for a single ECC word.
///
/// # Example
///
/// ```
/// use harp_ecc::SecondaryEcc;
/// use harp_gf2::BitVec;
/// use harp_profiler::ReactiveProfiler;
///
/// let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
/// let written = BitVec::ones(64);
/// let mut observed = written.clone();
/// observed.flip(7);
/// let newly = reactive.observe(&written, &observed);
/// assert_eq!(newly, vec![7]);
/// assert!(reactive.identified().contains(&7));
/// ```
#[derive(Debug, Clone)]
pub struct ReactiveProfiler {
    secondary: SecondaryEcc,
    identified: BTreeSet<usize>,
    unsafe_events: usize,
    observations: usize,
}

impl ReactiveProfiler {
    /// Creates a reactive profiler using the given secondary ECC.
    pub fn new(secondary: SecondaryEcc) -> Self {
        Self {
            secondary,
            identified: BTreeSet::new(),
            unsafe_events: 0,
            observations: 0,
        }
    }

    /// Observes one read: `written` is the reference data, `post_repair` is
    /// the dataword after on-die ECC *and* the repair mechanism have been
    /// applied. Returns the dataword positions newly identified in this
    /// observation.
    pub fn observe(&mut self, written: &BitVec, post_repair: &BitVec) -> Vec<usize> {
        self.observations += 1;
        match self.secondary.observe(written, post_repair) {
            SecondaryObservation::Clean => Vec::new(),
            SecondaryObservation::Identified { positions } => {
                let newly: Vec<usize> = positions
                    .into_iter()
                    .filter(|&p| self.identified.insert(p))
                    .collect();
                newly
            }
            SecondaryObservation::Unsafe { .. } => {
                // The error escaped: nothing is identified safely, and the
                // event is counted so evaluations can report it.
                self.unsafe_events += 1;
                Vec::new()
            }
        }
    }

    /// Records a read outcome observed *outside* this profiler — the
    /// controller's read path reporting which positions its secondary ECC
    /// identified (`identified`) and whether errors escaped (`escaped`).
    /// Returns the positions not already known; only those should be
    /// forwarded as repair-table updates.
    ///
    /// This is the out-of-band twin of [`ReactiveProfiler::observe`] for
    /// callers that already ran the secondary ECC (e.g. the live-traffic
    /// co-scheduler, which decouples identification from the repair-table
    /// write by a configurable update latency).
    pub fn record_outcome(&mut self, identified: &[usize], escaped: bool) -> Vec<usize> {
        self.observations += 1;
        if escaped {
            self.unsafe_events += 1;
            return Vec::new();
        }
        identified
            .iter()
            .copied()
            .filter(|&p| self.identified.insert(p))
            .collect()
    }

    /// Bits identified by reactive profiling so far.
    pub fn identified(&self) -> &BTreeSet<usize> {
        &self.identified
    }

    /// Number of observations whose error count exceeded the secondary ECC's
    /// correction capability (system-visible failures).
    pub fn unsafe_events(&self) -> usize {
        self.unsafe_events
    }

    /// Total number of observations made.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The secondary ECC in use.
    pub fn secondary(&self) -> &SecondaryEcc {
        &self.secondary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_observations_identify_nothing() {
        let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        let written = BitVec::ones(16);
        assert!(reactive.observe(&written, &written).is_empty());
        assert_eq!(reactive.observations(), 1);
        assert_eq!(reactive.unsafe_events(), 0);
        assert!(reactive.identified().is_empty());
    }

    #[test]
    fn single_errors_are_identified_once() {
        let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        let written = BitVec::ones(16);
        let mut observed = written.clone();
        observed.flip(4);
        assert_eq!(reactive.observe(&written, &observed), vec![4]);
        // Observing the same error again identifies nothing new.
        assert!(reactive.observe(&written, &observed).is_empty());
        assert_eq!(reactive.identified().len(), 1);
    }

    #[test]
    fn multi_bit_errors_are_unsafe_and_not_identified() {
        let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        let written = BitVec::zeros(16);
        let mut observed = written.clone();
        observed.flip(1);
        observed.flip(2);
        assert!(reactive.observe(&written, &observed).is_empty());
        assert_eq!(reactive.unsafe_events(), 1);
        assert!(reactive.identified().is_empty());
    }

    #[test]
    fn stronger_secondary_ecc_handles_multi_bit_errors() {
        let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal(2));
        let written = BitVec::zeros(16);
        let mut observed = written.clone();
        observed.flip(1);
        observed.flip(2);
        assert_eq!(reactive.observe(&written, &observed), vec![1, 2]);
        assert_eq!(reactive.unsafe_events(), 0);
        assert_eq!(reactive.secondary().correction_capability(), 2);
    }

    #[test]
    fn recorded_outcomes_track_identifications_and_escapes() {
        let mut reactive = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        // First sighting of bit 4 is fresh; the repeat is not.
        assert_eq!(reactive.record_outcome(&[4], false), vec![4]);
        assert!(reactive.record_outcome(&[4], false).is_empty());
        assert!(reactive.identified().contains(&4));
        // An escaped read is an unsafe event and identifies nothing, even
        // if positions were reported alongside it.
        assert!(reactive.record_outcome(&[9], true).is_empty());
        assert_eq!(reactive.unsafe_events(), 1);
        assert!(!reactive.identified().contains(&9));
        assert_eq!(reactive.observations(), 3);
    }

    #[test]
    fn record_outcome_agrees_with_observe() {
        // The out-of-band path must count exactly like the in-band one.
        let written = BitVec::ones(16);
        let mut observed = written.clone();
        observed.flip(4);

        let mut in_band = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        let newly = in_band.observe(&written, &observed);

        let mut out_of_band = ReactiveProfiler::new(SecondaryEcc::ideal_sec());
        assert_eq!(out_of_band.record_outcome(&newly, false), newly);
        assert_eq!(out_of_band.identified(), in_band.identified());
        assert_eq!(out_of_band.observations(), in_band.observations());
        assert_eq!(out_of_band.unsafe_events(), in_band.unsafe_events());
    }
}
