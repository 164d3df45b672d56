//! Sweep checkpointing, resumption, and cross-process sharding.
//!
//! The paper parallelizes its evaluation across compute-cluster jobs and
//! burned ~14 CPU-years on the full sweep (§A.7); a faithful reproduction at
//! scale must survive interruption and distribute across machines. This
//! module makes the coverage sweep behind Figs. 6–9 snapshottable end to end:
//!
//! * [`ResumableSweep`] is the stateful twin of
//!   [`run_coverage_sweep_with`](crate::experiments::sweep::run_coverage_sweep_with):
//!   it builds its code groups from the one-shot sweep's plan, inside the
//!   runner, but keeps them: one resumable [`BatchRun`] per (code group,
//!   profiler), advanced in round increments and frozen between them. An
//!   uninterrupted run and a stop-at-round-`k`-then-resume run produce
//!   byte-identical [`CoverageSweep`]s (`tests/checkpoint_resume.rs` locks
//!   this down for every profiler kind and code family).
//! * A **versioned checkpoint archive**: one file, [`ARCHIVE_FILE`], of the
//!   manifest and then one record per owned code group, committed by one
//!   durable rename (see [`write_json_atomically`]) so a crash mid-write,
//!   including power loss, leaves the previous archive intact. Schema
//!   versioned like the `BENCH_<group>.json` contract.
//! * [`ShardSpec`] worker mode: `--shard i/N` assigns each worker the code
//!   groups whose **global group index** satisfies `g % N == i`. The group
//!   index `g = cell_index * num_codes + code_index` depends only on the
//!   configuration — never on thread counts — so any two machines agree on
//!   the partition. Shard outputs are folded back into one sweep by
//!   [`merge_shards`], which validates completeness via
//!   [`CoverageSeries::checked_final_direct_coverage`] instead of trusting
//!   the silent 0.0 of an empty series, and checks every evaluation's
//!   labels against the ones the plan gives its group index.
//!
//! All persistence goes through [`crate::minijson`]'s one codec trait,
//! [`JsonCodec`]: every archive line and shard output is a record type
//! below, and single-record files go through [`read_record`] and
//! [`write_record`]. `u64` seeds and RNG block counters are stored as raw
//! literals (never through `f64`), so a resumed RNG stream is positioned
//! bit-exactly. Every record carries one schema version,
//! [`SCHEMA_VERSION`]. A coverage series has one encoding wherever it is
//! stored (group records, shard outputs and sweep results alike): its
//! change points, which decode through [`CoverageSeries::from_points`], so
//! a point list [`CoverageSeries::push_round`] cannot produce is a decode
//! error.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

use harp_ecc::analysis::RoundScore;
use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_profiler::{
    BatchRun, CampaignCheckpoint, CoverageSeries, ProfilerKind, ProfilerState, RngPosition,
    WordCheckpoint,
};

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{CoverageSweep, GroupUnit, WordEvaluation};
use crate::json_record;
use crate::minijson::{field, named, DecodeError, Json, JsonCodec, NonFiniteFloat};
use crate::report::{fixed, TextTable};
use crate::runner::{parallel_map, parallel_map_mut};
use crate::sample::{coverage_cell, Cell, SweepPlan};
use crate::stats::mean;

/// Version of every record schema: the manifest, group records, shard
/// outputs and the sweep result. Version 3 stores each coverage series as
/// its change points (older versions stored three dense per-round arrays)
/// and each RNG stream as its position alone, without the key the word's
/// seed gives. Bump on any incompatible layout change; a record of another
/// version fails to decode with a `schema` error instead of being misread.
pub const SCHEMA_VERSION: u64 = 3;

/// Name of the archive file: the manifest, then one line per group record.
pub const ARCHIVE_FILE: &str = "ARCHIVE.jsonl";

/// Which slice of a sweep's code groups one worker owns: shard `i` of `N`
/// takes every group whose global index is `≡ i (mod N)`.
///
/// The partition is a pure function of the configuration (groups are indexed
/// `cell_index * num_codes + code_index`), so workers on different machines
/// — with different thread counts — agree on it without coordination. Word
/// results do not depend on how groups are batched (the membership-
/// independence invariant of `tests/campaign_equivalence.rs`), so any
/// partition reproduces the single-process sweep exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of workers.
    pub count: usize,
}

impl ShardSpec {
    /// The trivial single-worker shard owning every group.
    pub fn full() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Parses the CLI form `"i/N"` (e.g. `"0/2"`).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the text is not of the form
    /// `i/N` with `i < N` and `N >= 1`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard '{text}' is not of the form i/N"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("shard index '{index}' is not a number"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("shard count '{count}' is not a number"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_owned());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} workers"
            ));
        }
        Ok(Self { index, count })
    }

    /// Whether this shard owns the group with the given global index.
    pub fn owns(&self, group_index: usize) -> bool {
        group_index % self.count == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl<C: LinearBlockCode + Clone + Send + 'static> GroupUnit<C> {
    /// Restores the unit's engines and series, in place, from its record once
    /// the record fits this group at `round` and the lineup. Corrupt state
    /// is rejected here, where batch geometry and ground truth are known, so
    /// resuming never trips a downstream panic: `BatchRun::restore` asserts,
    /// the predicting kinds enumerate error spaces over restored sets, and
    /// crafting indexes the dataword and counts on (one pattern per round).
    /// Decoding already refused point lists `push_round` cannot produce;
    /// here each series must fit the group's round, ground truth and
    /// lineup, and its last score must be the score of its restored
    /// profile, because the rounds that change no profile are not scored.
    fn restore(
        &mut self,
        record: GroupRecord,
        round: usize,
        profilers: &[ProfilerKind],
        num_codes: usize,
    ) -> Result<(), String> {
        let found = (record.group_index, record.cell_index, record.code_index);
        let expected = (self.index, self.index / num_codes, self.index % num_codes);
        if (found, record.round) != (expected, round) {
            return Err(format!(
                "group record (index, cell, code) {found:?} frozen at round {} \
                 where {expected:?} at the manifest's round {round} belongs",
                record.round
            ));
        }
        let kinds = record.campaigns.iter().map(|campaign| campaign.kind);
        if !kinds.eq(profilers.iter().copied()) || record.series.len() != profilers.len() {
            return Err(format!("campaigns or series out of lineup {profilers:?}"));
        }
        let (words, data_len) = (self.batch.len(), self.batch.code().data_len());
        for ((campaign, stored), &kind) in
            record.campaigns.iter().zip(&record.series).zip(profilers)
        {
            let shape = (campaign.round, campaign.words.len(), stored.len());
            if shape != (round, words, words) {
                return Err(format!(
                    "{kind} (round, words, series) {shape:?} where {:?} belongs",
                    (round, words, words)
                ));
            }
            let states = campaign.words.iter().map(|word| &word.profiler);
            for (index, ((state, series), space)) in
                states.zip(stored).zip(&self.spaces).enumerate()
            {
                let mut bits = state.identified.iter().chain(&state.observed_indirect);
                if let Some(bit) = bits.find(|&&bit| bit >= data_len) {
                    return Err(format!(
                        "word {index}: profiler bit {bit} outside the {data_len}-bit dataword"
                    ));
                }
                let predicts = matches!(kind, ProfilerKind::HarpA | ProfilerKind::HarpABeep);
                if predicts && state.identified.len() > ErrorSpace::MAX_AT_RISK_BITS {
                    return Err(format!(
                        "word {index}: {} direct bits exceed the exhaustive-analysis limit",
                        state.identified.len()
                    ));
                }
                let crafted = state.crafted_rounds;
                if crafted > round {
                    return Err(format!(
                        "word {index}: {crafted} crafted patterns in {round} rounds"
                    ));
                }
                let truth = (space.direct_at_risk().len(), space.indirect_at_risk().len());
                let found = (series.direct_truth_len, series.indirect_truth_len);
                let rounds = series.rounds();
                if (rounds, series.profiler.as_str(), found) != (round, kind.name(), truth) {
                    return Err(format!(
                        "word {index}: a {} series of {rounds} rounds over {found:?} truth bits \
                         does not fit {kind} at round {round} over {truth:?}",
                        series.profiler
                    ));
                }
            }
        }
        for (run, checkpoint) in self.runs.iter_mut().zip(&record.campaigns) {
            run.restore(checkpoint);
        }
        // A round that changes no profile extends its series' last point
        // unscored, so that point must be the score of the restored profile.
        for ((run, series), kind) in self.runs.iter().zip(&record.series).zip(profilers) {
            for (index, (word, space)) in series.iter().zip(&self.spaces).enumerate() {
                let Some(last) = word.final_score() else {
                    continue;
                };
                let profiler = run.profiler(index);
                let score = space.score(profiler.identified(), &profiler.predicted());
                if last != score {
                    return Err(format!(
                        "word {index}: {kind}'s last stored score {last:?} is not \
                         its restored profile's {score:?}"
                    ));
                }
            }
        }
        self.series = record.series;
        Ok(())
    }
}

/// The resumable coverage sweep: the checkpointable twin of
/// [`run_coverage_sweep_with`](crate::experiments::sweep::run_coverage_sweep_with).
///
/// Construction regenerates the word population deterministically from the
/// configuration (samples are never persisted — only mutable campaign state
/// and the series scored so far are) through the one-shot path's plan, one
/// [`BatchRun`] per (owned code group, profiler), and advances all of them
/// in lock-step round increments, scoring every round into its word's
/// [`CoverageSeries`] as it runs. After `config.rounds` rounds,
/// [`ResumableSweep::into_sweep`] labels those series into the exact
/// [`CoverageSweep`] the one-shot path produces.
#[derive(Debug)]
pub struct ResumableSweep<C: LinearBlockCode = HammingCode> {
    config: EvaluationConfig,
    profilers: Vec<ProfilerKind>,
    shard: ShardSpec,
    units: Vec<GroupUnit<C>>,
    round: usize,
}

impl<C: LinearBlockCode + Clone + Send + Sync + 'static> ResumableSweep<C> {
    /// Starts a full (unsharded) resumable sweep at round 0.
    pub fn new<F: Fn(u64) -> C>(
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
        make_code: F,
    ) -> Self {
        Self::sharded(config, profilers, ShardSpec::full(), make_code)
    }

    /// Starts a resumable sweep owning only the given shard's groups, each
    /// drawn from the sweep's plan and built by the worker that takes it.
    pub fn sharded<F: Fn(u64) -> C>(
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
        shard: ShardSpec,
        make_code: F,
    ) -> Self {
        let plan = SweepPlan::new(config, Cell::coverage(config), make_code);
        let mut owned = plan.groups();
        owned.retain(|&group| shard.owns(group));
        let units = parallel_map(&owned, config.threads, |&group| {
            GroupUnit::new(&plan, group, profilers)
        });
        Self {
            config: config.clone(),
            profilers: profilers.to_vec(),
            shard,
            units,
            round: 0,
        }
    }

    /// Number of completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// This worker's shard assignment.
    pub fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// The sweep configuration.
    pub fn config(&self) -> &EvaluationConfig {
        &self.config
    }

    /// Number of code groups this worker owns.
    pub fn num_groups(&self) -> usize {
        self.units.len()
    }

    /// Total number of code groups across all shards.
    pub fn total_groups(&self) -> usize {
        total_groups(&self.config)
    }

    /// Whether all configured rounds have completed.
    pub fn is_complete(&self) -> bool {
        self.round >= self.config.rounds
    }

    /// Advances every owned group to `round() + rounds` (clamped to the
    /// configured total), threading across groups.
    pub fn advance(&mut self, rounds: usize) {
        let rounds = rounds.min(self.config.rounds.saturating_sub(self.round));
        if rounds == 0 {
            return;
        }
        let threads = self.config.threads;
        parallel_map_mut(&mut self.units, threads, |unit| unit.advance(rounds));
        self.round += rounds;
    }

    /// Writes a checkpoint archive of the current state into `dir` (created
    /// if needed) as one file, [`ARCHIVE_FILE`]: the manifest on line 1, then
    /// each owned group's record (each word's RNG position and profiler
    /// state, plus its series scored so far) in group-index order, streamed
    /// one group at a time through the durable sequence of
    /// [`write_json_atomically`]. One rename commits the checkpoint, so after
    /// a crash `dir` holds the previous archive or the complete new one.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the archive.
    pub fn write_archive(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.write_archive_with(&mut RealFs, dir)
    }

    fn write_archive_with<F: ArchiveFs>(&self, fs: &mut F, dir: &Path) -> io::Result<()> {
        let manifest = Manifest {
            round: self.round,
            shard: self.shard,
            profilers: self.profilers.clone(),
            config: self.config.clone(),
            num_groups: self.units.len(),
        };
        write_durably_with(fs, &dir.join(ARCHIVE_FILE), |out| {
            write_line(out, &manifest)?;
            let codes = self.config.num_codes;
            for unit in &self.units {
                let group = GroupRecord {
                    group_index: unit.index,
                    cell_index: unit.index / codes,
                    code_index: unit.index % codes,
                    round: self.round,
                    campaigns: unit.runs.iter().map(BatchRun::checkpoint).collect(),
                    series: unit.series.clone(),
                };
                write_line(out, &group)?;
            }
            Ok(())
        })
    }

    /// Reconstructs a sweep at exactly the position of the archive in `dir`.
    /// Configuration, profiler lineup, and shard assignment all come from
    /// the manifest; `make_code` rebuilds the per-code-index codes (consult
    /// [`read_manifest`] first for the archived `data_bits`). Records are
    /// read one line at a time, each into the engines its unit just built.
    ///
    /// # Errors
    ///
    /// Returns an error when the archive is missing, has a mismatched schema
    /// version, holds other than one record per owned group in group order,
    /// or a record is corrupt or frozen at a round other than the manifest's.
    pub fn resume<F: Fn(u64) -> C>(dir: &Path, make_code: F) -> io::Result<Self> {
        let (mut archive, manifest) = ArchiveReader::open(dir)?;
        let (round, config, shard) = (manifest.round, &manifest.config, manifest.shard);
        let mut sweep = Self::sharded(config, &manifest.profilers, shard, make_code);
        let groups = sweep.units.len();
        if round > config.rounds || manifest.num_groups != groups {
            return Err(archive.error(format!(
                "manifest of {} groups at round {round} of {}; shard {shard} owns {groups}",
                manifest.num_groups, config.rounds
            )));
        }
        for (read, unit) in sweep.units.iter_mut().enumerate() {
            let Some(group) = archive.next()? else {
                return Err(archive.error(format!("ends after {read} of {groups} group records")));
            };
            unit.restore(group, round, &sweep.profilers, config.num_codes)
                .map_err(|message| archive.error(message))?;
        }
        if archive.next::<Json>()?.is_some() {
            return Err(archive.error(format!("holds more than {groups} group records")));
        }
        sweep.round = round;
        Ok(sweep)
    }

    /// A progress snapshot at the current round: for each profiler in
    /// lineup order, the mean direct coverage across every word of every
    /// owned group (0.0 before any rounds have run). This is what the
    /// daemon streams to `harp watch` clients between checkpoints: the last
    /// entry of each word's series, scored when its round ran, so a call
    /// costs O(words).
    pub fn progress(&self) -> Vec<(ProfilerKind, f64)> {
        let mut sums = vec![0.0_f64; self.profilers.len()];
        let mut words = 0usize;
        for unit in &self.units {
            words += unit.batch.len();
            for (sum, series) in sums.iter_mut().zip(&unit.series) {
                for word in series {
                    *sum += word.final_direct_coverage();
                }
            }
        }
        self.profilers
            .iter()
            .zip(&sums)
            .map(|(&kind, &sum)| (kind, if words == 0 { 0.0 } else { sum / words as f64 }))
            .collect()
    }

    /// Labels the owned groups' series as a shard output, moving each
    /// series into its evaluation, in global group order, once all rounds
    /// have completed.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not completed all configured rounds.
    fn into_output(self) -> ShardOutput {
        assert!(
            self.is_complete(),
            "sweep stopped at round {} of {}",
            self.round,
            self.config.rounds
        );
        let config = &self.config;
        let groups = self
            .units
            .into_iter()
            .map(|unit| ShardGroup {
                group_index: unit.index,
                evaluations: unit.label(config),
            })
            .collect();
        ShardOutput {
            shard: self.shard,
            profilers: self.profilers,
            config: self.config,
            groups,
        }
    }

    /// Finishes a **full** (unsharded) sweep into the exact
    /// [`CoverageSweep`] the one-shot
    /// [`run_coverage_sweep`](crate::experiments::sweep::run_coverage_sweep)
    /// path produces.
    ///
    /// # Panics
    ///
    /// Panics if rounds remain or the sweep owns only a shard (shard workers
    /// persist a [`ShardOutput`](Self::write_shard_output) for `merge`
    /// instead).
    pub fn into_sweep(self) -> CoverageSweep {
        assert_eq!(
            self.shard,
            ShardSpec::full(),
            "a {} shard cannot assemble the full sweep; merge shard outputs",
            self.shard
        );
        let ShardOutput {
            config,
            profilers,
            groups,
            ..
        } = self.into_output();
        let evaluations = groups.into_iter().flat_map(|group| group.evaluations);
        CoverageSweep::of(&config, &profilers, evaluations.collect())
    }

    /// Writes this worker's completed groups as a shard-output file for the
    /// `merge` coordinator.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file, or an
    /// `InvalidData` error if an evaluation contains a non-finite float
    /// (the shard writer runs on worker paths that must not panic).
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not completed all configured rounds.
    pub fn write_shard_output(self, path: &Path) -> io::Result<()> {
        let output = self.into_output();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_record(path, &output)
    }
}

/// Conventional shard-output file name for worker `i` of `N`.
pub fn shard_file_name(shard: ShardSpec) -> String {
    format!("SHARD_{}_of_{}.json", shard.index, shard.count)
}

/// The per-code-index SEC Hamming factory for an untrusted configuration
/// (read from an archive or submitted to the daemon), or why its
/// `data_bits` yields no code. Validity does not depend on the seed (it only
/// shuffles candidate columns), so one probe clears every construction.
///
/// # Errors
///
/// Returns a description when `data_bits` yields no valid Hamming code.
pub fn hamming_factory(data_bits: usize) -> Result<impl Fn(u64) -> HammingCode, String> {
    HammingCode::random(data_bits, 0)
        .map_err(|e| format!("data_bits {data_bits} does not yield a valid Hamming code: {e}"))?;
    Ok(move |seed| {
        // lint:allow(panic) validity is seed-independent and was probed above; the factory closure has no error channel
        HammingCode::random(data_bits, seed).expect("probed above, seed-independent")
    })
}

/// Total number of code groups a configuration produces (across all shards):
/// one per (error count, probability, code index).
pub fn total_groups(config: &EvaluationConfig) -> usize {
    config.error_counts.len() * config.probabilities.len() * config.num_codes
}

/// A parsed checkpoint-archive manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Completed rounds at the time of the checkpoint.
    pub round: usize,
    /// The worker's shard assignment.
    pub shard: ShardSpec,
    /// Profiler lineup, in evaluation order.
    pub profilers: Vec<ProfilerKind>,
    /// The sweep configuration the archive was generated from.
    pub config: EvaluationConfig,
    /// Number of code groups the worker owns (one group record each).
    pub num_groups: usize,
}

/// Reads and validates the manifest of a checkpoint archive: line 1 of its
/// [`ARCHIVE_FILE`], without reading the group records after it.
///
/// # Errors
///
/// Returns an error when the archive file is missing, or its manifest is
/// missing, malformed, or of an unsupported schema version.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    Ok(ArchiveReader::open(dir)?.1)
}

/// Folds the shard-output files of a distributed sweep back into the single
/// [`CoverageSweep`] an unsharded run produces.
///
/// Validates that every file shares one schema version, configuration, and
/// profiler lineup; that the shards jointly cover every code group exactly
/// once; and that each group is what the sweep's plan makes of its index:
/// its labels, lineup order, word count and round count are checked, not
/// trusted. An empty series is a hole in the data, not a
/// zero-coverage word, and is rejected via
/// [`CoverageSeries::checked_final_direct_coverage`].
///
/// # Errors
///
/// Returns an error describing the first inconsistency found.
pub fn merge_shards(paths: &[PathBuf]) -> io::Result<CoverageSweep> {
    let mut reference: Option<(EvaluationConfig, Vec<ProfilerKind>)> = None;
    let mut groups: BTreeMap<usize, Vec<WordEvaluation>> = BTreeMap::new();
    for path in paths {
        let output: ShardOutput = read_record(path)?;
        let sweep = (output.config, output.profilers);
        let (config, profilers) = match &reference {
            Some(first) if *first != sweep => {
                return Err(invalid(format!(
                    "{}: shard was produced by a different sweep configuration",
                    path.display()
                )));
            }
            Some(first) => first,
            None => reference.insert(sweep),
        };
        for ShardGroup {
            group_index,
            evaluations,
        } in output.groups
        {
            check_group(config, profilers, group_index, &evaluations).map_err(|message| {
                invalid(format!(
                    "{}: group {group_index}: {message}",
                    path.display()
                ))
            })?;
            if groups.insert(group_index, evaluations).is_some() {
                return Err(invalid(format!(
                    "group {group_index} appears in more than one shard"
                )));
            }
        }
    }
    let Some((config, profilers)) = reference else {
        return Err(invalid("no shard files to merge"));
    };
    let expected = total_groups(&config);
    if groups.len() != expected {
        let missing: Vec<String> = (0..expected)
            .filter(|g| !groups.contains_key(g))
            .map(|g| g.to_string())
            .collect();
        return Err(invalid(format!(
            "shards cover {} of {expected} code groups; missing: {}",
            groups.len(),
            missing.join(", ")
        )));
    }
    let evaluations = groups.into_values().flatten().collect();
    Ok(CoverageSweep::of(&config, &profilers, evaluations))
}

/// Why `evaluations` are not group `group` of the sweep of `config` over
/// `profilers`, if they are not. Every label follows from the group index
/// through the sweep's plan, so the stored ones are checked, not trusted:
/// the group is one of the configuration's, it holds `words_per_code`
/// words of one evaluation per profiler in lineup order, each labelled with
/// the error count and probability of the group's cell, and each series is
/// its evaluation's profiler's and holds the configured rounds.
fn check_group(
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
    group: usize,
    evaluations: &[WordEvaluation],
) -> Result<(), String> {
    let groups = total_groups(config);
    if group >= groups {
        return Err(format!("outside the {groups} groups of the configuration"));
    }
    let (words, kinds) = (config.words_per_code, profilers.len());
    if evaluations.len() != words * kinds {
        return Err(format!(
            "{} evaluations where {words} words of {kinds} profilers belong",
            evaluations.len()
        ));
    }
    let (error_count, probability) = coverage_cell(config, group / config.num_codes);
    let lineup = profilers.iter().cycle();
    for (index, (evaluation, &kind)) in evaluations.iter().zip(lineup).enumerate() {
        let series = &evaluation.series;
        let (profiler, series_profiler) = (evaluation.profiler.name(), series.profiler.as_str());
        let found = (
            evaluation.error_count,
            evaluation.probability,
            profiler,
            series_profiler,
        );
        let expected = (error_count, probability, kind.name(), kind.name());
        if found != expected {
            return Err(format!(
                "evaluation {index} is labelled (error count, probability, profiler, \
                 series profiler) {found:?} where {expected:?} belongs"
            ));
        }
        if series.checked_final_direct_coverage().is_none() || series.rounds() != config.rounds {
            return Err(format!(
                "evaluation {index}: a {kind} series holds {} of {} rounds",
                series.rounds(),
                config.rounds
            ));
        }
    }
    Ok(())
}

/// Renders a per-cell summary of a sweep for the CLI: mean final direct
/// coverage and mean missed indirect bits per (error count, probability,
/// profiler).
pub fn render_sweep_summary(sweep: &CoverageSweep) -> String {
    let mut table = TextTable::new([
        "errors",
        "probability",
        "profiler",
        "mean final direct coverage",
        "mean missed indirect",
    ]);
    for &error_count in &sweep.error_counts {
        for &probability in &sweep.probabilities {
            for &profiler in &sweep.profilers {
                let cell: Vec<&WordEvaluation> =
                    sweep.cell(profiler, error_count, probability).collect();
                let coverage: Vec<f64> = cell
                    .iter()
                    .map(|e| e.series.final_direct_coverage())
                    .collect();
                let missed: Vec<f64> = cell
                    .iter()
                    .map(|e| e.series.final_score().map_or(0, |s| s.missed_indirect) as f64)
                    .collect();
                table.push_row([
                    error_count.to_string(),
                    fixed(probability, 2),
                    profiler.to_string(),
                    fixed(mean(&coverage), 3),
                    fixed(mean(&missed), 2),
                ]);
            }
        }
    }
    format!(
        "Coverage sweep: {} rounds, {} words per cell\n{}",
        sweep.rounds,
        sweep.words_per_cell(),
        table.render()
    )
}

fn invalid<S: Into<String>>(message: S) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// The filesystem operations behind [`write_json_atomically`], injectable so
/// tests can assert the exact durability ordering without power-cutting the
/// host.
trait ArchiveFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn Write + '_>>;
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem: fsync via a re-opened handle (Linux permits fsync on
/// a read-only descriptor, including directories).
struct RealFs;

impl ArchiveFs for RealFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn Write + '_>> {
        Ok(Box::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
}

/// Writes `json` to `path` so that after a crash — including power loss —
/// the path holds either the previous contents or the complete new ones:
///
/// 1. write the bytes to `path.tmp` (an archive streams its records there),
/// 2. fsync the temp file (the rename must never be more durable than the
///    data it points at),
/// 3. atomically rename it over `path`,
/// 4. fsync the parent directory so the rename itself is durable.
///
/// Without steps 2 and 4 the rename is only atomic against process crashes:
/// after power loss the journal may persist the rename but not the data
/// blocks, leaving a zero-length or torn file at the final path. Exported
/// for other persistence layers (the daemon's job records) that need the
/// same crash-durability contract as the checkpoint archives.
///
/// # Errors
///
/// Returns any I/O error from writing, syncing, or renaming.
pub fn write_json_atomically(path: &Path, json: &Json) -> io::Result<()> {
    write_durably_with(&mut RealFs, path, |out| {
        out.write_all(json.render().as_bytes())
    })
}

fn write_durably_with<F: ArchiveFs>(
    fs: &mut F,
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = fs.create(&tmp)?;
    fill(&mut out).and_then(|()| out.flush())?;
    drop(out);
    fs.sync_file(&tmp)?;
    fs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs.sync_dir(parent)?;
        }
    }
    Ok(())
}

/// Reads and decodes one single-record file (a shard output, a daemon job
/// record). Decode failures name the file.
///
/// # Errors
///
/// Returns any I/O error from reading, or an `InvalidData` error naming the
/// file and the path to the first bad value.
pub fn read_record<T: JsonCodec>(path: &Path) -> io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    decode(&text).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

fn decode<T: JsonCodec>(text: &str) -> Result<T, DecodeError> {
    Json::parse(text)
        .map_err(DecodeError::from)
        .and_then(|json| T::from_json(&json))
}

/// An archive file read one record, that is one line, at a time. Errors
/// name the file and the line.
struct ArchiveReader {
    path: PathBuf,
    lines: io::Lines<io::BufReader<std::fs::File>>,
    line: usize,
}

impl ArchiveReader {
    /// Opens the archive file in `dir` and decodes its manifest, line 1.
    fn open(dir: &Path) -> io::Result<(Self, Manifest)> {
        let path = dir.join(ARCHIVE_FILE);
        let file = std::fs::File::open(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let (lines, line) = (io::BufReader::new(file).lines(), 0);
        let mut reader = Self { path, lines, line };
        let manifest = reader
            .next()?
            .ok_or_else(|| reader.error("no manifest record"))?;
        Ok((reader, manifest))
    }

    /// Decodes the next line's record, or returns `None` past the last line.
    fn next<T: JsonCodec>(&mut self) -> io::Result<Option<T>> {
        self.line += 1;
        let text = self.lines.next().transpose().map_err(|e| self.error(e))?;
        text.map(|text| decode(&text).map_err(|e| self.error(e)))
            .transpose()
    }

    fn error(&self, message: impl std::fmt::Display) -> io::Error {
        invalid(format!("{}:{}: {message}", self.path.display(), self.line))
    }
}

/// Encodes a record as one newline-terminated archive line.
fn write_line<T: JsonCodec>(out: &mut dyn Write, record: &T) -> io::Result<()> {
    let mut line = encode(record)?.render();
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn encode<T: JsonCodec>(record: &T) -> io::Result<Json> {
    record.to_json().map_err(|e| invalid(e.to_string()))
}

/// Encodes a record and writes it through [`write_json_atomically`].
///
/// # Errors
///
/// Returns any I/O error from writing, or an `InvalidData` error if the
/// record holds a non-finite float (the writers run on worker paths that
/// must not panic).
pub fn write_record<T: JsonCodec>(path: &Path, record: &T) -> io::Result<()> {
    write_json_atomically(path, &encode(record)?)
}

// ---------------------------------------------------------------------------
// Record codecs. The key order of every record is part of the archive and
// wire formats (`tests/golden/` pins it byte for byte).
// ---------------------------------------------------------------------------

/// One group record, an archive line after the manifest: every profiler's
/// campaign over one code group, frozen at `round`, with
/// `series[profiler][word]` scored so far.
struct GroupRecord {
    group_index: usize,
    cell_index: usize,
    code_index: usize,
    round: usize,
    campaigns: Vec<CampaignCheckpoint>,
    series: Vec<Vec<CoverageSeries>>,
}

/// A `SHARD_i_of_N.json` file: the finished evaluations of one worker's
/// groups.
struct ShardOutput {
    shard: ShardSpec,
    profilers: Vec<ProfilerKind>,
    config: EvaluationConfig,
    groups: Vec<ShardGroup>,
}

struct ShardGroup {
    group_index: usize,
    evaluations: Vec<WordEvaluation>,
}

json_record!(Manifest as "schema": SCHEMA_VERSION {
    round, shard, profilers, config, num_groups
});
json_record!(GroupRecord as "schema": SCHEMA_VERSION {
    group_index, cell_index, code_index, round, campaigns, series
});
json_record!(ShardOutput as "schema": SCHEMA_VERSION {
    shard, profilers, config, groups
});
json_record!(ShardGroup {
    group_index,
    evaluations
});
// The daemon's result payload: the encoding is fully deterministic
// (ordered keys, shortest-round-trip floats), so two sweeps are equal iff
// their rendered encodings are byte-identical.
json_record!(CoverageSweep as "schema": SCHEMA_VERSION {
    rounds, error_counts, probabilities, profilers, evaluations
});
json_record!(WordEvaluation {
    error_count,
    probability,
    profiler,
    series
});
json_record!(CampaignCheckpoint { kind, round, words });
json_record!(WordCheckpoint { rng, profiler });
json_record!(ProfilerState {
    identified,
    observed_indirect,
    crafted_rounds
});
json_record!(RngPosition { counter, cursor } where check_rng_cursor);
// All fields, so an archive is self-describing and resume needs no flags.
// A decoded configuration is untrusted input, and every consumer
// downstream (word sampling, code generation, the sharded group partition)
// assumes a usable one.
json_record!(EvaluationConfig {
    data_bits,
    num_codes,
    words_per_code,
    rounds,
    error_counts,
    probabilities,
    pattern,
    base_seed,
    threads,
} where EvaluationConfig::check);

/// Legitimate positions are even word offsets within the 16-word block, or
/// 16 (exhausted). `ChaCha8Rng::from_state` would silently treat anything
/// above 16 as exhausted, mispositioning the stream instead of surfacing
/// the corruption.
fn check_rng_cursor(position: &RngPosition) -> Result<(), String> {
    if position.cursor > 16 || !position.cursor.is_multiple_of(2) {
        return Err(format!(
            "RNG cursor {} is not a valid block position",
            position.cursor
        ));
    }
    Ok(())
}

/// A coverage series, wherever it is stored, is its change points: the
/// profiler, the two truth sizes, the round count and the points. It decodes
/// through [`CoverageSeries::from_points`], so a point list that
/// [`CoverageSeries::push_round`] cannot produce is a decode error.
impl JsonCodec for CoverageSeries {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        let points = self.points().iter().map(JsonCodec::to_json);
        let entries = [
            ("profiler", self.profiler.to_json()?),
            ("direct_truth_len", self.direct_truth_len.to_json()?),
            ("indirect_truth_len", self.indirect_truth_len.to_json()?),
            ("rounds", self.rounds().to_json()?),
            ("points", Json::Array(points.collect::<Result<_, _>>()?)),
        ];
        let entries = entries
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value));
        Ok(Json::Object(entries.collect()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        CoverageSeries::from_points(
            field(json, "profiler")?,
            field(json, "direct_truth_len")?,
            field(json, "indirect_truth_len")?,
            field(json, "rounds")?,
            field(json, "points")?,
        )
        .map_err(DecodeError::new)
    }
}

/// A change point is one `[round, direct_hits, missed_indirect,
/// max_simultaneous]` array.
impl JsonCodec for (usize, RoundScore) {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        let (round, score) = self;
        [
            *round,
            score.direct_hits,
            score.missed_indirect,
            score.max_simultaneous,
        ]
        .to_json()
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let [round, direct_hits, missed_indirect, max_simultaneous] = JsonCodec::from_json(json)?;
        let score = RoundScore {
            direct_hits,
            missed_indirect,
            max_simultaneous,
        };
        Ok((round, score))
    }
}

impl JsonCodec for ProfilerKind {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(Json::from(self.name()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        named(json, "profiler", ProfilerKind::from_name)
    }
}

impl JsonCodec for DataPattern {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(Json::from(self.name()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        named(json, "data pattern", |name| {
            [
                DataPattern::Charged,
                DataPattern::Discharged,
                DataPattern::Checkered,
                DataPattern::Random,
            ]
            .into_iter()
            .find(|pattern| pattern.name() == name)
        })
    }
}

/// A shard assignment travels in its CLI form, `"i/N"`.
impl JsonCodec for ShardSpec {
    fn to_json(&self) -> Result<Json, NonFiniteFloat> {
        Ok(Json::Str(self.to_string()))
    }

    fn from_json(json: &Json) -> Result<Self, DecodeError> {
        ShardSpec::parse(&String::from_json(json)?).map_err(DecodeError::new)
    }
}

/// Encodes a completed [`CoverageSweep`]; the same as `sweep.to_json()`.
///
/// # Errors
///
/// Returns the first non-finite float in the sweep — its only floats are
/// the swept probabilities, since series store whole counts — so the
/// daemon can fail the *job* instead of losing the worker thread to a
/// render panic.
pub fn try_encode_sweep(sweep: &CoverageSweep) -> Result<Json, NonFiniteFloat> {
    sweep.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::run_coverage_sweep;
    use harp_profiler::{BatchWord, CampaignBatch};

    fn tiny_config() -> EvaluationConfig {
        EvaluationConfig {
            num_codes: 2,
            words_per_code: 2,
            rounds: 16,
            error_counts: vec![2, 3],
            probabilities: vec![0.5],
            threads: 2,
            ..EvaluationConfig::quick()
        }
    }

    const KINDS: [ProfilerKind; 2] = [ProfilerKind::HarpU, ProfilerKind::Naive];

    fn make_code(config: &EvaluationConfig) -> impl Fn(u64) -> HammingCode + '_ {
        |seed| HammingCode::random(config.data_bits, seed).expect("valid code")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harp_checkpoint_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The archive's lines: the manifest, then one per group.
    fn archive_lines(dir: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join(ARCHIVE_FILE)).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    fn write_archive_lines(dir: &Path, lines: &[String]) {
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(dir.join(ARCHIVE_FILE), text).unwrap();
    }

    fn resume_error(dir: &Path, config: &EvaluationConfig) -> String {
        ResumableSweep::<HammingCode>::resume(dir, make_code(config))
            .unwrap_err()
            .to_string()
    }

    /// Rewrites the first group record of the `pristine` archive lines
    /// through `corrupt` and returns the error resuming from them gives.
    fn corrupt_first_group(
        dir: &Path,
        config: &EvaluationConfig,
        pristine: &[String],
        corrupt: &dyn Fn(&mut GroupRecord),
    ) -> String {
        let mut lines = pristine.to_vec();
        let mut group: GroupRecord = decode(&lines[1]).unwrap();
        corrupt(&mut group);
        lines[1] = group.to_json().unwrap().render();
        write_archive_lines(dir, &lines);
        resume_error(dir, config)
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let shard = ShardSpec::parse("1/3").unwrap();
        assert_eq!(shard, ShardSpec { index: 1, count: 3 });
        assert_eq!(shard.to_string(), "1/3");
        assert!(!shard.owns(0) && shard.owns(1) && !shard.owns(2) && shard.owns(4));
        assert!(ShardSpec::full().owns(17));
        for bad in ["2", "a/3", "1/x", "3/3", "0/0"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn resumable_sweep_matches_the_one_shot_path() {
        let config = tiny_config();
        let reference = run_coverage_sweep(&config, &KINDS);
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        assert_eq!(sweep.num_groups(), total_groups(&config));
        sweep.advance(config.rounds);
        assert!(sweep.is_complete());
        assert_eq!(sweep.into_sweep(), reference);
    }

    #[test]
    fn advancing_in_uneven_chunks_changes_nothing() {
        let config = tiny_config();
        let reference = run_coverage_sweep(&config, &KINDS);
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        for chunk in [1, 5, 3, 100] {
            sweep.advance(chunk);
        }
        assert_eq!(sweep.round(), config.rounds);
        assert_eq!(sweep.into_sweep(), reference);
    }

    #[test]
    fn archive_round_trips_through_disk() {
        let config = tiny_config();
        let dir = temp_dir("archive");
        let reference = run_coverage_sweep(&config, &KINDS);

        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(7);
        sweep.write_archive(&dir).unwrap();
        // Rewriting in place leaves the one file, and no temp file.
        sweep.write_archive(&dir).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(files, [ARCHIVE_FILE]);
        assert_eq!(archive_lines(&dir).len(), 1 + sweep.num_groups());

        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.round, 7);
        assert_eq!(manifest.config, config);
        assert_eq!(manifest.profilers, KINDS.to_vec());

        let mut resumed = ResumableSweep::resume(&dir, make_code(&config)).unwrap();
        assert_eq!(resumed.round(), 7);
        resumed.advance(config.rounds);
        assert_eq!(resumed.into_sweep(), reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One rename commits a whole archive, so a group record frozen at
    /// another round than its manifest's cannot come from a crash. Spliced
    /// in from an older or a newer generation, it is rejected.
    #[test]
    fn records_from_another_generation_are_rejected() {
        let config = tiny_config();
        let (older, newer) = (temp_dir("gen_older"), temp_dir("gen_newer"));
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(5);
        sweep.write_archive(&older).unwrap();
        sweep.advance(4);
        sweep.write_archive(&newer).unwrap();

        for (into, from) in [(&newer, &older), (&older, &newer)] {
            let mut lines = archive_lines(into);
            let pristine = lines.clone();
            lines[2] = archive_lines(from)[2].clone();
            write_archive_lines(into, &lines);
            let err = resume_error(into, &config);
            assert!(err.contains("frozen at round"), "{err}");
            assert!(err.contains(":3: "), "names the line: {err}");
            write_archive_lines(into, &pristine);
        }
        ResumableSweep::resume(&older, make_code(&config)).unwrap();
        std::fs::remove_dir_all(&older).unwrap();
        std::fs::remove_dir_all(&newer).unwrap();
    }

    /// Every owned group has exactly one record, in group order: a missing
    /// last record, an extra record and two swapped records are each a
    /// typed error.
    #[test]
    fn archives_hold_exactly_one_record_per_group_in_order() {
        let config = tiny_config();
        let dir = temp_dir("record_count");
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(3);
        sweep.write_archive(&dir).unwrap();
        let pristine = archive_lines(&dir);
        assert_eq!(pristine.len(), 5);

        let reject = |lines: Vec<String>, expected: &str| {
            write_archive_lines(&dir, &lines);
            let err = resume_error(&dir, &config);
            assert!(err.contains(expected), "{err}");
        };
        reject(pristine[..4].to_vec(), "ends after 3 of 4 group records");
        let mut extra = pristine.clone();
        extra.push(pristine[4].clone());
        reject(extra, "holds more than 4 group records");
        let mut swapped = pristine.clone();
        swapped.swap(1, 2);
        reject(swapped, "(1, 0, 1) frozen at round 3 where (0, 0, 0)");
        reject(pristine[..1].to_vec(), "ends after 0 of 4 group records");
        reject(Vec::new(), "no manifest record");

        // `read_manifest` reads line 1 and nothing past it.
        let mut damaged = pristine.clone();
        damaged[1] = "not json".to_owned();
        write_archive_lines(&dir, &damaged);
        assert_eq!(read_manifest(&dir).unwrap().round, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory without the archive file — among them any archive
    /// written in the older one-file-per-group layout — fails with an
    /// error naming the missing file.
    #[test]
    fn resuming_without_an_archive_file_names_it() {
        let config = tiny_config();
        let dir = temp_dir("no_archive");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST.json"), "{}").unwrap();
        let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let missing = dir.join(ARCHIVE_FILE).display().to_string();
        assert!(err.to_string().contains(&missing), "{err}");
        assert!(read_manifest(&dir)
            .unwrap_err()
            .to_string()
            .contains(&missing));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_shards_merge_into_the_single_process_sweep() {
        let config = tiny_config();
        let dir = temp_dir("merge");
        std::fs::create_dir_all(&dir).unwrap();
        let reference = run_coverage_sweep(&config, &KINDS);

        let mut paths = Vec::new();
        for index in 0..2 {
            let shard = ShardSpec { index, count: 2 };
            let mut worker = ResumableSweep::sharded(&config, &KINDS, shard, make_code(&config));
            assert!(worker.num_groups() < total_groups(&config));
            worker.advance(config.rounds);
            let path = dir.join(shard_file_name(shard));
            worker.write_shard_output(&path).unwrap();
            paths.push(path);
        }
        assert_eq!(merge_shards(&paths).unwrap(), reference);

        // A missing shard is a hard error naming the holes.
        let err = merge_shards(&paths[..1]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_and_checkpoint_codecs_round_trip() {
        let config = tiny_config();
        assert_eq!(
            EvaluationConfig::from_json(&config.to_json().unwrap()).unwrap(),
            config
        );

        let code = HammingCode::random(32, 9).unwrap();
        let batch = CampaignBatch::new(
            code,
            vec![BatchWord::new(
                harp_memsim::FaultModel::uniform(&[3, 17], 0.5),
                DataPattern::Random,
                0xFEED_F00D_D00D_5EED,
            )],
        );
        for kind in ProfilerKind::ALL {
            let mut run = BatchRun::new(&batch, kind);
            run.advance(9, |_, _, _| {});
            let checkpoint = run.checkpoint();
            let json = checkpoint.to_json().unwrap();
            let reparsed = Json::parse(&json.render()).unwrap();
            assert_eq!(
                CampaignCheckpoint::from_json(&reparsed).unwrap(),
                checkpoint,
                "{kind}"
            );
        }
    }

    #[test]
    fn sweep_summary_renders_every_cell() {
        let config = tiny_config();
        let sweep = run_coverage_sweep(&config, &KINDS);
        let rendered = render_sweep_summary(&sweep);
        assert!(rendered.contains("Coverage sweep: 16 rounds"));
        assert!(rendered.contains("HARP-U"));
        assert!(rendered.contains("Naive"));
    }

    #[test]
    fn corrupt_archives_are_rejected_not_misread() {
        let config = tiny_config();
        let dir = temp_dir("corrupt");
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(3);
        sweep.write_archive(&dir).unwrap();
        let pristine = archive_lines(&dir);
        let reject = |line: usize, from: &str, to: &str, expected: &str| {
            let mut lines = pristine.clone();
            assert!(lines[line].starts_with(from), "{}", lines[line]);
            lines[line] = lines[line].replacen(from, to, 1);
            write_archive_lines(&dir, &lines);
            let err = resume_error(&dir, &config);
            assert!(err.contains(expected), "{err}");
        };

        // A manifest of schema 1, from before every record moved to one
        // schema version, is refused with the typed schema error.
        reject(
            0,
            "{\"schema\":3",
            "{\"schema\":1",
            "schema: expected 3, found 1",
        );
        // A group record from before change points replaced dense series
        // (schema 2) is refused with the typed schema error.
        reject(
            3,
            "{\"schema\":3",
            "{\"schema\":2",
            "schema: expected 3, found 2",
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An [`ArchiveFs`] that records the operation sequence instead of
    /// touching disk, so the durability ordering is asserted directly, and
    /// keeps each chunk the writer streamed.
    #[derive(Default)]
    struct RecordingFs {
        ops: Vec<String>,
        chunks: Chunks,
    }

    /// A sink that keeps the bytes of every `write` call apart.
    #[derive(Default)]
    struct Chunks(Vec<String>);

    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).unwrap());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl ArchiveFs for RecordingFs {
        fn create(&mut self, path: &Path) -> io::Result<Box<dyn Write + '_>> {
            self.ops.push(format!("write {}", path.display()));
            Ok(Box::new(&mut self.chunks))
        }

        fn sync_file(&mut self, path: &Path) -> io::Result<()> {
            self.ops.push(format!("sync_file {}", path.display()));
            Ok(())
        }

        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            self.ops
                .push(format!("rename {} -> {}", from.display(), to.display()));
            Ok(())
        }

        fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
            self.ops.push(format!("sync_dir {}", dir.display()));
            Ok(())
        }
    }

    /// Regression: the writer used to skip both fsyncs, so after power loss
    /// a journalled rename could land while the renamed file's data blocks
    /// did not — a durable name pointing at a zero-length file. The durable
    /// sequence is exactly: write temp, sync temp *before* the rename,
    /// rename, sync the parent directory after — once per archive, however
    /// many group records it streams, each record in a write of its own.
    #[test]
    fn durable_write_syncs_file_before_rename_and_directory_after() {
        let config = tiny_config();
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(2);
        let mut fs = RecordingFs::default();
        sweep
            .write_archive_with(&mut fs, Path::new("/archive"))
            .unwrap();
        assert_eq!(
            fs.ops,
            vec![
                "write /archive/ARCHIVE.jsonl.tmp",
                "sync_file /archive/ARCHIVE.jsonl.tmp",
                "rename /archive/ARCHIVE.jsonl.tmp -> /archive/ARCHIVE.jsonl",
                "sync_dir /archive",
            ]
        );
        let records = &fs.chunks.0;
        assert_eq!(records.len(), 1 + sweep.num_groups());
        for record in records {
            assert_eq!(record.find('\n'), Some(record.len() - 1), "{record}");
        }
        assert_eq!(decode::<Manifest>(&records[0]).unwrap().round, 2);
    }

    #[test]
    fn corrupt_rng_cursors_are_rejected() {
        let position = RngPosition {
            counter: 3,
            cursor: 6,
        };
        let encoded = position.to_json().unwrap();
        assert_eq!(encoded.render(), r#"{"counter":3,"cursor":6}"#);
        assert_eq!(RngPosition::from_json(&encoded).unwrap(), position);
        for bad_cursor in [17usize, 5, 100] {
            let text = encoded
                .render()
                .replace("\"cursor\":6", &format!("\"cursor\":{bad_cursor}"));
            let err = RngPosition::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.message.contains("cursor"), "{bad_cursor}: {err}");
        }
    }

    /// Regression: these corruptions used to panic past the decode layer —
    /// a word-count mismatch tripped `BatchRun::resume`'s assert, an
    /// oversized identified set tripped the exhaustive-enumeration assert
    /// inside the predicting profilers' `restore`, a BEEP bit past the
    /// dataword (but inside the codeword, which is what resume used to
    /// bound by) passed resume and tripped `craft_beep_pattern` on the next
    /// advance, and a crafted-pattern counter at `usize::MAX` overflowed on
    /// the next crafted round. All must surface as `Err` from `resume`.
    #[test]
    fn corrupt_group_state_is_an_error_not_a_panic() {
        let config = tiny_config();
        let kinds = [ProfilerKind::HarpA, ProfilerKind::Naive, ProfilerKind::Beep];
        let dir = temp_dir("corrupt_group");
        let mut sweep = ResumableSweep::new(&config, &kinds, make_code(&config));
        sweep.advance(2);
        sweep.write_archive(&dir).unwrap();
        let pristine = archive_lines(&dir);
        let mutate = |corrupt: &dyn Fn(&mut GroupRecord)| {
            corrupt_first_group(&dir, &config, &pristine, corrupt)
        };

        // Drop one word from the first campaign.
        let err = mutate(&|group| {
            group.campaigns[0].words.pop();
        });
        assert!(err.contains("words"), "{err}");

        // Overwrite one campaign's word-0 profiler identified set.
        let poison_identified = |campaign: usize, bits: Vec<usize>| {
            move |group: &mut GroupRecord| {
                group.campaigns[campaign].words[0].profiler.identified =
                    bits.iter().copied().collect();
            }
        };

        // Past the exhaustive-analysis limit for the predicting HARP-A
        // campaign: used to abort inside `restore`'s enumeration assert.
        let err = mutate(&poison_identified(0, (0..30).collect()));
        assert!(err.contains("exhaustive-analysis"), "{err}");

        // A profiler bit outside the codeword.
        let err = mutate(&poison_identified(0, vec![9999]));
        assert!(err.contains("outside"), "{err}");

        // A BEEP bit inside the 71-bit codeword but past the 64-bit
        // dataword.
        assert_eq!(config.data_bits, 64);
        let err = mutate(&poison_identified(2, vec![66]));
        assert!(err.contains("outside the 64-bit dataword"), "{err}");

        // More crafted BEEP patterns than rounds run.
        let err = mutate(&|group| {
            for word in &mut group.campaigns[2].words {
                word.profiler.crafted_rounds = usize::MAX;
            }
        });
        assert!(err.contains("crafted patterns in 2 rounds"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stored series is checked against the ground truth recomputed from
    /// the configuration: its length, its truth-set sizes and its profiler
    /// name must all fit the group, and its last score must be the restored
    /// profile's, or resume fails with a description naming the word. A
    /// point list `push_round` cannot produce already fails to decode, with
    /// an error naming the series.
    #[test]
    fn corrupt_group_series_are_rejected() {
        let config = tiny_config();
        let dir = temp_dir("corrupt_series");
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(3);
        sweep.write_archive(&dir).unwrap();
        let pristine = archive_lines(&dir);
        let mutate = |corrupt: &dyn Fn(&mut GroupRecord)| {
            corrupt_first_group(&dir, &config, &pristine, corrupt)
        };
        let stored: GroupRecord = decode(&pristine[1]).unwrap();
        let word = &stored.series[0][1];
        let (direct, indirect) = (word.direct_truth_len, word.indirect_truth_len);
        let series_of = |rounds: usize, points: Vec<(usize, RoundScore)>| {
            CoverageSeries::from_points(word.profiler.clone(), direct, indirect, rounds, points)
                .unwrap()
        };
        let reject = |corrupt: &dyn Fn(&mut CoverageSeries)| {
            let err = mutate(&|group| corrupt(&mut group.series[0][1]));
            assert!(
                err.contains("word 1: a ") && err.contains("does not fit"),
                "{err}"
            );
        };
        reject(&|series| series.push_unchanged());
        reject(&|series| {
            let points = series.points().iter().filter(|&&(round, _)| round < 2);
            *series = series_of(2, points.copied().collect());
        });
        reject(&|series| series.indirect_truth_len += 1);
        reject(&|series| series.profiler = "Naive".to_owned());
        let err = mutate(&|group| {
            group.series[1].pop();
        });
        assert!(err.contains("(round, words, series)"), "{err}");

        // Point lists no run of three rounds can produce.
        let corrupt_points = |points: &str| {
            let mut group = Json::parse(&pristine[1]).unwrap();
            let series = item(item(entry(&mut group, "series"), 0), 1);
            *entry(series, "points") = Json::parse(points).unwrap();
            let mut lines = pristine.clone();
            lines[1] = group.render();
            write_archive_lines(&dir, &lines);
            resume_error(&dir, &config)
        };
        let reject_points = |points: &str, expected: &str| {
            let err = corrupt_points(points);
            let at = format!("{ARCHIVE_FILE}:2: series[0][1]: ");
            assert!(err.contains(&(at + expected)), "{err}");
        };
        reject_points("[]", "no change point in 3 rounds");
        reject_points("[[1,0,0,1]]", "change point 0 at round 1 is not at round 0");
        reject_points(
            "[[0,0,0,1],[2,0,0,2],[2,0,0,3]]",
            "change point 2 at round 2 does not follow round 2",
        );
        reject_points(
            "[[0,0,0,1],[2,0,0,2],[1,0,0,3]]",
            "change point 2 at round 1 does not follow round 2",
        );
        reject_points(
            "[[0,0,0,1],[3,0,0,2]]",
            "change point 1 at round 3 is past the last of 3 rounds",
        );
        reject_points(
            "[[0,0,0,1],[1,0,0,1]]",
            "change point 1 at round 1 repeats the scores before it",
        );
        reject_points(
            &format!("[[0,{},0,1]]", direct + 1),
            &format!(
                "change point 0 at round 0 has {} direct hits of {direct} direct truth bits",
                direct + 1
            ),
        );
        reject_points(
            &format!("[[0,0,{},1]]", indirect + 1),
            &format!(
                "change point 0 at round 0 misses {} of {indirect} indirect truth bits",
                indirect + 1
            ),
        );
        let err = corrupt_points("[[0,0,0]]");
        assert!(
            err.contains(":2: series[0][1].points[0]: expected 4 items, found 3"),
            "{err}"
        );

        // A well-formed series whose last score is not the score of the
        // restored profile. Rounds that change no profile are not scored,
        // so it would stand until the profile next changed.
        let last = word.final_score().expect("a scored round");
        let tampered = RoundScore {
            direct_hits: 0,
            missed_indirect: 0,
            max_simultaneous: last.max_simultaneous + 1,
        };
        let err = mutate(&|group| group.series[0][1] = series_of(3, vec![(0, tampered)]));
        assert!(
            err.contains("word 1: ") && err.contains("is not its restored profile's"),
            "{err}"
        );
        let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Random per-round score sequences pushed into series — long runs,
    /// repeats, empty direct truths and zero rounds among them. A series'
    /// change points decode to the same series, which re-renders byte for
    /// byte and reads back every round's scores.
    #[test]
    fn series_codecs_round_trip_random_score_sequences() {
        use rand::{Rng, SeedableRng};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xDE45E);
        for case in 0..256 {
            let direct = if case % 4 == 0 {
                0
            } else {
                rng.gen_range(1..9)
            };
            let indirect = rng.gen_range(0..5);
            let rounds = if case % 16 == 1 {
                0
            } else {
                rng.gen_range(1..160)
            };
            let mut series =
                CoverageSeries::from_points("HARP-U".into(), direct, indirect, 0, vec![]).unwrap();
            let mut dense = Vec::with_capacity(rounds);
            let mut score = RoundScore {
                direct_hits: 0,
                missed_indirect: indirect,
                max_simultaneous: 2,
            };
            for _ in 0..rounds {
                if rng.gen_bool(0.1) {
                    match rng.gen_range(0..3) {
                        0 => score.direct_hits = rng.gen_range(0..=direct),
                        1 => score.missed_indirect = rng.gen_range(0..=indirect),
                        _ => score.max_simultaneous = rng.gen_range(0..4),
                    }
                }
                series.push_score(score);
                dense.push(score);
            }

            let rendered = series.to_json().unwrap().render();
            let decoded = CoverageSeries::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(decoded, series, "case {case}");
            assert_eq!(decoded.to_json().unwrap().render(), rendered);
            assert_eq!(decoded.rounds(), rounds);
            for (round, &score) in dense.iter().enumerate() {
                assert_eq!(decoded.score_at(round), score, "case {case}, round {round}");
            }
        }
    }

    fn entry<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Object(entries) = json else {
            panic!("not an object")
        };
        &mut entries.iter_mut().find(|(name, _)| name == key).unwrap().1
    }

    fn item(json: &mut Json, index: usize) -> &mut Json {
        let Json::Array(items) = json else {
            panic!("not an array")
        };
        &mut items[index]
    }

    /// A shard output whose change points no sweep can produce fails
    /// `merge` with a decode error naming the file and the series: a point
    /// at or past the round count, rounds out of order, two equal
    /// consecutive scores, and more hits than direct truth bits.
    #[test]
    fn merge_rejects_change_points_no_sweep_produces() {
        let config = tiny_config();
        let dir = temp_dir("merge_points");
        let path = dir.join(shard_file_name(ShardSpec::full()));
        let mut worker = ResumableSweep::new(&config, &KINDS, make_code(&config));
        worker.advance(config.rounds);
        worker.write_shard_output(&path).unwrap();
        let mut pristine = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        merge_shards(std::slice::from_ref(&path)).unwrap();

        // The first series over two direct truth bits and no indirect one.
        let evaluations = entry(item(entry(&mut pristine, "groups"), 0), "evaluations");
        let index = (0..)
            .find(|&e| {
                let series = entry(item(evaluations, e), "series");
                *entry(series, "direct_truth_len") == Json::from_u64(2)
                    && *entry(series, "indirect_truth_len") == Json::from_u64(0)
            })
            .unwrap();
        let reject = |points: &str, expected: &str| {
            let mut shard = pristine.clone();
            let evaluations = entry(item(entry(&mut shard, "groups"), 0), "evaluations");
            let series = entry(item(evaluations, index), "series");
            *entry(series, "points") = Json::parse(points).unwrap();
            std::fs::write(&path, shard.render()).unwrap();
            let err = merge_shards(std::slice::from_ref(&path)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let err = err.to_string();
            let at = format!("groups[0].evaluations[{index}].series: ");
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(err.contains(&(at + expected)), "{err}");
        };
        reject(
            "[[0,0,0,2],[16,1,0,1]]",
            "change point 1 at round 16 is past the last of 16 rounds",
        );
        reject(
            "[[0,0,0,2],[9,1,0,1],[5,2,0,0]]",
            "change point 2 at round 5 does not follow round 9",
        );
        reject(
            "[[0,0,0,2],[4,0,0,2]]",
            "change point 1 at round 4 repeats the scores before it",
        );
        reject(
            "[[0,3,0,1]]",
            "change point 0 at round 0 has 3 direct hits of 2 direct truth bits",
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard output whose labels are not the ones its group index gives
    /// fails `merge` with an error naming the file and the group: a
    /// relabelled cell, a series filed under another profiler, a lineup out
    /// of order and a dropped evaluation.
    #[test]
    fn merge_checks_each_groups_labels_against_its_index() {
        let config = tiny_config();
        let dir = temp_dir("merge_labels");
        let path = dir.join(shard_file_name(ShardSpec::full()));
        let mut worker = ResumableSweep::new(&config, &KINDS, make_code(&config));
        worker.advance(config.rounds);
        worker.write_shard_output(&path).unwrap();
        let pristine = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Group 1 is code 1 of the first cell: 2 errors at probability 0.5.
        let reject = |edit: &dyn Fn(&mut Vec<Json>), expected: &str| {
            let mut shard = pristine.clone();
            let evaluations = entry(item(entry(&mut shard, "groups"), 1), "evaluations");
            let Json::Array(evaluations) = evaluations else {
                panic!("not an array")
            };
            edit(evaluations);
            std::fs::write(&path, shard.render()).unwrap();
            let err = merge_shards(std::slice::from_ref(&path)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let expected = format!("{}: group 1: {expected}", path.display());
            assert!(err.to_string().contains(&expected), "{err}");
        };
        let labelled = "is labelled (error count, probability, profiler, series profiler)";
        reject(
            &|evaluations| {
                *entry(&mut evaluations[2], "error_count") = Json::from_u64(99);
                *entry(entry(&mut evaluations[2], "series"), "profiler") = Json::from("BEEP");
            },
            &format!(
                "evaluation 2 {labelled} (99, 0.5, \"HARP-U\", \"BEEP\") \
                 where (2, 0.5, \"HARP-U\", \"HARP-U\") belongs"
            ),
        );
        reject(
            &|evaluations| *entry(&mut evaluations[1], "probability") = Json::Number("0.25".into()),
            &format!("evaluation 1 {labelled} (2, 0.25, \"Naive\", \"Naive\") where (2, 0.5,"),
        );
        reject(
            &|evaluations| {
                *entry(entry(&mut evaluations[2], "series"), "profiler") = Json::from("BEEP");
            },
            &format!("evaluation 2 {labelled} (2, 0.5, \"HARP-U\", \"BEEP\") where"),
        );
        reject(
            &|evaluations| evaluations.swap(0, 1),
            &format!("evaluation 0 {labelled} (2, 0.5, \"Naive\", \"Naive\") where"),
        );
        reject(
            &|evaluations| drop(evaluations.pop()),
            "3 evaluations where 2 words of 2 profilers belong",
        );
        std::fs::write(&path, pristine.render()).unwrap();
        merge_shards(std::slice::from_ref(&path)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard output of schema 1, written before series were stored as
    /// change points, is refused with the typed schema error.
    #[test]
    fn merge_refuses_schema_1_shard_outputs() {
        let config = tiny_config();
        let dir = temp_dir("merge_schema_1");
        let path = dir.join(shard_file_name(ShardSpec::full()));
        let mut worker = ResumableSweep::new(&config, &KINDS, make_code(&config));
        worker.advance(config.rounds);
        worker.write_shard_output(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":3,"), "{text}");
        std::fs::write(&path, text.replacen("3", "1", 1)).unwrap();
        let err = merge_shards(std::slice::from_ref(&path)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let expected = format!("{}: schema: expected 3, found 1", path.display());
        assert!(err.to_string().contains(&expected), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest carrying an unusable configuration (here `data_bits: 0`,
    /// which used to panic deep inside code generation) is rejected at
    /// decode time with a user-facing message.
    #[test]
    fn corrupt_manifest_configs_fail_decode() {
        let config = tiny_config();
        let dir = temp_dir("corrupt_config");
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(1);
        sweep.write_archive(&dir).unwrap();
        let mut lines = archive_lines(&dir);
        lines[0] = lines[0].replacen("\"data_bits\":64", "\"data_bits\":0", 1);
        write_archive_lines(&dir, &lines);
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("data_bits"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_codec_round_trips_byte_identically() {
        let config = tiny_config();
        let sweep = run_coverage_sweep(&config, &KINDS);
        let rendered = sweep.to_json().unwrap().render();
        let decoded = CoverageSweep::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded, sweep);
        // Deterministic: re-encoding the decoded sweep reproduces the bytes.
        assert_eq!(decoded.to_json().unwrap().render(), rendered);
    }

    /// Regression: a NaN coverage mean used to panic the encoder (and with
    /// it the daemon worker rendering `RESULT.json`). The fallible encoder
    /// must surface a NaN — here a word's probability, as coverage is now
    /// computed from whole hits — as a typed error instead.
    #[test]
    fn try_encode_sweep_reports_non_finite_floats_instead_of_panicking() {
        let config = tiny_config();
        let mut sweep = run_coverage_sweep(&config, &KINDS);
        assert!(try_encode_sweep(&sweep).is_ok());
        sweep.evaluations[0].probability = f64::NAN;
        let err = try_encode_sweep(&sweep).unwrap_err();
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("cannot represent"));
    }

    #[test]
    fn progress_tracks_mean_direct_coverage() {
        let config = tiny_config();
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        let start = sweep.progress();
        assert_eq!(start.len(), KINDS.len());
        assert!(start.iter().all(|&(_, coverage)| coverage == 0.0));
        sweep.advance(config.rounds);
        let done = sweep.progress();
        assert_eq!(
            done.iter().map(|&(kind, _)| kind).collect::<Vec<_>>(),
            KINDS.to_vec()
        );
        // HARP-U reaches full direct coverage on these tiny words; Naive
        // generally does not beat it.
        let final_of = |kind: ProfilerKind| {
            done.iter()
                .find(|&&(k, _)| k == kind)
                .map(|&(_, coverage)| coverage)
                .unwrap()
        };
        assert!(final_of(ProfilerKind::HarpU) > 0.9);
        assert!(final_of(ProfilerKind::HarpU) >= final_of(ProfilerKind::Naive));
    }
}
