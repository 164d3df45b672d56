//! The active-profiler interface and the profiler registry used by the
//! evaluation harness.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use harp_ecc::LinearBlockCode;
use harp_gf2::BitVec;
use harp_memsim::pattern::DataPattern;
use harp_memsim::ReadObservation;

use crate::beep::BeepProfiler;
use crate::checkpoint::ProfilerState;
use crate::harp::{HarpABeepProfiler, HarpAProfiler, HarpUProfiler};
use crate::naive::NaiveProfiler;

/// A round-based active error profiler for a single ECC word.
///
/// Each profiling round, the campaign driver asks the profiler which dataword
/// to program ([`Profiler::dataword_into`]), performs the access, and hands
/// back the resulting [`ReadObservation`]. The profiler updates its set of
/// identified at-risk bits; which parts of the observation it is allowed to
/// consult is what distinguishes the algorithms:
///
/// | profiler | post-correction data | bypass (raw data bits) | knows `H` |
/// |----------|----------------------|------------------------|-----------|
/// | Naive    | ✔                    | ✘                      | ✘         |
/// | BEEP     | ✔                    | ✘                      | ✔         |
/// | HARP-U   | ✘ (not needed)       | ✔                      | ✘         |
/// | HARP-A   | ✘ (not needed)       | ✔                      | ✔         |
///
/// The trait is deliberately code-agnostic: profilers that need the on-die
/// ECC structure are generic over [`LinearBlockCode`], so the same lineup
/// runs against Hamming, SEC-DED, and BCH-protected words.
///
/// The contract the campaign engine relies on:
///
/// * [`Profiler::dataword_into`] overwrites its buffer with the round's
///   whole dataword, exactly `k` bits long, whatever the buffer held
///   before; it is the only place a round's pattern comes from, and it may
///   advance the profiler's own crafting state;
/// * [`Profiler::observe_round`] returns whether [`Profiler::identified`]
///   or [`Profiler::predicted`] changed. A `false` promises that both are
///   exactly what they were before the call, so a round's score, a pure
///   function of the two sets, is the previous round's. A needless `true`
///   would cost one score and a missing one a stale score; every kind
///   here reports the change exactly (`tests/campaign_equivalence.rs`).
///
/// `Send` is a supertrait so boxed profilers can migrate across worker
/// threads inside resumable sweeps (the codes they capture are plain data);
/// `Debug` so resumable engines holding boxed profilers stay debuggable.
pub trait Profiler: Send + std::fmt::Debug {
    /// Short identifier used in reports (e.g. `"HARP-U"`).
    fn name(&self) -> &'static str;

    /// Writes the dataword to program for profiling round `round` into
    /// `data`, replacing its contents and reusing its buffer.
    fn dataword_into(&mut self, round: usize, data: &mut BitVec);

    /// The dataword to program into the word for profiling round `round`:
    /// [`Profiler::dataword_into`] into a fresh buffer.
    fn dataword_for_round(&mut self, round: usize) -> BitVec {
        let mut data = BitVec::default();
        self.dataword_into(round, &mut data);
        data
    }

    /// Consumes the observation of round `round` and updates the identified
    /// at-risk bits. Returns whether the identified or predicted set
    /// changed (see the trait's contract).
    fn observe_round(&mut self, round: usize, observation: &ReadObservation) -> bool;

    /// Dataword positions identified as at risk so far (these are the bits
    /// the profiler would record into the repair mechanism's error profile).
    fn identified(&self) -> &BTreeSet<usize>;

    /// Additional dataword positions the profiler *predicts* to be at risk
    /// without having observed them fail (only HARP-A produces predictions,
    /// by exploiting knowledge of the parity-check matrix).
    fn predicted(&self) -> BTreeSet<usize> {
        BTreeSet::new()
    }

    /// Whether the profiler reads raw data bits through the on-die-ECC
    /// decode-bypass path (the chip modification HARP requires, §5.2).
    fn uses_bypass_read(&self) -> bool;

    /// Union of identified and predicted at-risk bits.
    fn known_at_risk(&self) -> BTreeSet<usize> {
        self.identified()
            .union(&self.predicted())
            .copied()
            .collect()
    }

    /// Captures every mutable accumulator of the profiler, for campaign
    /// checkpointing. Derived state (e.g. HARP-A's predictions) is *not*
    /// captured; [`Profiler::restore`] recomputes it.
    fn state(&self) -> ProfilerState;

    /// Overwrites the profiler's accumulators with a previously captured
    /// state and recomputes any derived state, so that subsequent rounds
    /// behave exactly as if the profiler had accumulated `state` itself.
    fn restore(&mut self, state: &ProfilerState);
}

/// Inserts every one of `bits` into `set`; returns whether any was new (the
/// change flag of [`Profiler::observe_round`] for a profiler whose only
/// state is that set).
pub(crate) fn insert_all(set: &mut BTreeSet<usize>, bits: impl IntoIterator<Item = usize>) -> bool {
    bits.into_iter()
        .fold(false, |changed, bit| set.insert(bit) | changed)
}

/// The profiling algorithms evaluated in the paper (§7.1.1), used as a
/// factory by the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfilerKind {
    /// Round-based testing with standard data patterns, observing
    /// post-correction errors only (represents the vast majority of prior
    /// profilers).
    Naive,
    /// BEEP: knows the parity-check matrix (via BEER reverse engineering) and
    /// crafts data patterns that provoke miscorrections.
    Beep,
    /// HARP-Unaware: bypass-read active profiling; no knowledge of `H`.
    HarpU,
    /// HARP-Aware: HARP-U plus precomputation of indirect-error at-risk bits
    /// from the identified direct-error bits.
    HarpA,
    /// HARP-A followed by BEEP-style pattern crafting to expose the indirect
    /// errors that HARP-A cannot predict (evaluated in Fig. 8).
    HarpABeep,
    /// HARP using the "syndrome on correction" transparency option instead of
    /// the decode-bypass read path (§5.2 option 1; ablation).
    HarpS,
}

impl ProfilerKind {
    /// All profiler kinds compared in the paper's evaluation, plus the
    /// HARP-S transparency ablation.
    pub const ALL: [ProfilerKind; 6] = [
        ProfilerKind::Naive,
        ProfilerKind::Beep,
        ProfilerKind::HarpU,
        ProfilerKind::HarpA,
        ProfilerKind::HarpABeep,
        ProfilerKind::HarpS,
    ];

    /// The three profilers compared in the active-phase evaluation (Fig. 6/7).
    pub const ACTIVE_BASELINES: [ProfilerKind; 3] =
        [ProfilerKind::HarpU, ProfilerKind::Naive, ProfilerKind::Beep];

    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ProfilerKind::Naive => "Naive",
            ProfilerKind::Beep => "BEEP",
            ProfilerKind::HarpU => "HARP-U",
            ProfilerKind::HarpA => "HARP-A",
            ProfilerKind::HarpABeep => "HARP-A+BEEP",
            ProfilerKind::HarpS => "HARP-S",
        }
    }

    /// The inverse of [`ProfilerKind::name`]: resolves a display name back to
    /// its kind. Used by checkpoint archives and CLI flags, which identify
    /// profilers by their paper names.
    pub fn from_name(name: &str) -> Option<ProfilerKind> {
        ProfilerKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
    }

    /// Instantiates a profiler of this kind for one ECC word.
    ///
    /// `code` is the on-die ECC code (only consulted by the `H`-aware
    /// profilers), `pattern` the data-pattern family used for standard
    /// testing rounds, and `seed` the deterministic seed for random patterns.
    /// The factory is generic over the code, so every kind can be evaluated
    /// against any [`LinearBlockCode`] implementation.
    pub fn instantiate<C: LinearBlockCode + Clone + Send + 'static>(
        &self,
        code: &C,
        pattern: DataPattern,
        seed: u64,
    ) -> Box<dyn Profiler> {
        match self {
            ProfilerKind::Naive => Box::new(NaiveProfiler::new(code.data_len(), pattern, seed)),
            ProfilerKind::Beep => Box::new(BeepProfiler::new(code.data_len(), pattern, seed)),
            ProfilerKind::HarpU => Box::new(HarpUProfiler::new(code.data_len(), pattern, seed)),
            ProfilerKind::HarpA => Box::new(HarpAProfiler::new(code.clone(), pattern, seed)),
            ProfilerKind::HarpABeep => {
                Box::new(HarpABeepProfiler::new(code.clone(), pattern, seed))
            }
            ProfilerKind::HarpS => Box::new(crate::syndrome::HarpSProfiler::new(
                code.data_len(),
                pattern,
                seed,
            )),
        }
    }
}

impl std::fmt::Display for ProfilerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_ecc::HammingCode;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(ProfilerKind::Naive.name(), "Naive");
        assert_eq!(ProfilerKind::Beep.name(), "BEEP");
        assert_eq!(ProfilerKind::HarpU.name(), "HARP-U");
        assert_eq!(ProfilerKind::HarpA.name(), "HARP-A");
        assert_eq!(ProfilerKind::HarpABeep.to_string(), "HARP-A+BEEP");
        assert_eq!(ProfilerKind::HarpS.name(), "HARP-S");
    }

    #[test]
    fn from_name_inverts_name_for_every_kind() {
        for kind in ProfilerKind::ALL {
            assert_eq!(ProfilerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ProfilerKind::from_name("HARP-X"), None);
    }

    #[test]
    fn all_kinds_can_be_instantiated() {
        let code = HammingCode::random(64, 1).unwrap();
        for kind in ProfilerKind::ALL {
            let profiler = kind.instantiate(&code, DataPattern::Random, 7);
            assert_eq!(profiler.name(), kind.name());
            assert!(profiler.identified().is_empty());
        }
    }

    #[test]
    fn all_kinds_instantiate_for_every_code_family() {
        // The factory is generic: the same lineup constructs against
        // SEC-DED and BCH codes.
        let secded = harp_ecc::ExtendedHammingCode::random(32, 2).unwrap();
        for kind in ProfilerKind::ALL {
            let profiler = kind.instantiate(&secded, DataPattern::Random, 7);
            assert_eq!(profiler.name(), kind.name());
        }
    }

    #[test]
    fn bypass_capability_matches_the_algorithm() {
        let code = HammingCode::random(64, 2).unwrap();
        let bypass: BitVec = ProfilerKind::ALL
            .iter()
            .map(|k| {
                k.instantiate(&code, DataPattern::Random, 0)
                    .uses_bypass_read()
            })
            .collect();
        // Naive and BEEP operate without the bypass path; the bypass-based
        // HARP variants use it; HARP-S relies on reported syndromes instead.
        assert_eq!(
            bypass,
            BitVec::from_bools(&[false, false, true, true, true, false])
        );
    }

    #[test]
    fn active_baselines_cover_fig6_lineup() {
        assert_eq!(ProfilerKind::ACTIVE_BASELINES.len(), 3);
        assert!(ProfilerKind::ACTIVE_BASELINES.contains(&ProfilerKind::Naive));
        assert!(ProfilerKind::ACTIVE_BASELINES.contains(&ProfilerKind::Beep));
        assert!(ProfilerKind::ACTIVE_BASELINES.contains(&ProfilerKind::HarpU));
    }
}
