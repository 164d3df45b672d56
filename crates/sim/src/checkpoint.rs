//! Sweep checkpointing, resumption, and cross-process sharding.
//!
//! The paper parallelizes its evaluation across compute-cluster jobs and
//! burned ~14 CPU-years on the full sweep (§A.7); a faithful reproduction at
//! scale must survive interruption and distribute across machines. This
//! module makes the coverage sweep behind Figs. 6–9 snapshottable end to end:
//!
//! * [`ResumableSweep`] is the stateful twin of
//!   [`run_coverage_sweep_with`](crate::experiments::sweep::run_coverage_sweep_with):
//!   one resumable [`BatchRun`] per (sweep cell, code group, profiler),
//!   advanced in round increments and frozen between them. An uninterrupted
//!   run and a stop-at-round-`k`-then-resume run produce byte-identical
//!   [`CoverageSweep`]s (`tests/checkpoint_resume.rs` locks this down for
//!   every profiler kind and code family).
//! * A **versioned checkpoint archive**: a directory holding one JSON file
//!   per code group plus a manifest, written durably (temp file, fsync,
//!   rename, directory fsync — see [`write_json_atomically`]) so a crash
//!   mid-checkpoint, including power loss, never corrupts a resumable
//!   archive. Schema versioned like the `BENCH_<group>.json` contract.
//! * [`ShardSpec`] worker mode: `--shard i/N` assigns each worker the code
//!   groups whose **global group index** satisfies `g % N == i`. The group
//!   index `g = cell_index * num_codes + code_index` depends only on the
//!   configuration — never on thread counts — so any two machines agree on
//!   the partition. Shard outputs are folded back into one sweep by
//!   [`merge_shards`], which validates completeness via
//!   [`CoverageSeries::checked_final_direct_coverage`] instead of trusting
//!   the silent 0.0 of an empty series.
//!
//! All persistence goes through [`crate::minijson`]'s one codec trait,
//! [`JsonCodec`]: every archive file and shard output is a record type
//! below, read by [`read_record`] and written by [`write_record`]. `u64`
//! seeds and RNG block counters are stored as raw literals (never through
//! `f64`), so a resumed RNG stream is positioned bit-exactly.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use harp_ecc::{ErrorSpace, HammingCode, LinearBlockCode};
use harp_memsim::pattern::DataPattern;
use harp_profiler::{
    BatchRun, CampaignBatch, CampaignCheckpoint, CoverageSeries, ProfilerKind, ProfilerState,
    WordCheckpoint,
};
use rand_chacha::ChaCha8RngState;

use crate::config::EvaluationConfig;
use crate::experiments::sweep::{CoverageSweep, GroupUnit, WordEvaluation};
use crate::json_record;
use crate::minijson::{named, DecodeError, Json, JsonCodec, NonFiniteFloat};
use crate::report::{fixed, TextTable};
use crate::runner::parallel_map_mut;
use crate::sample::{group_by_code, sample_words_with};
use crate::stats::mean;

/// Version of the manifest, shard-output and sweep-result schema. Bump on
/// any incompatible layout change; readers reject mismatched versions
/// instead of misinterpreting them.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// Version of the `GROUP_<cell>_<code>.json` schema. Version 2 stores each
/// word's scored coverage series instead of its per-round snapshot
/// history; a version-1 group file fails to decode with a `schema` error.
pub const GROUP_SCHEMA_VERSION: u64 = 2;

/// Name of the archive manifest file.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

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

/// One resumable work unit: all profilers over one code group of one sweep
/// cell, with the group's place in the sweep.
#[derive(Debug)]
struct SweepUnit<C: LinearBlockCode> {
    group_index: usize,
    cell_index: usize,
    code_index: usize,
    error_count: usize,
    probability: f64,
    group: GroupUnit<C>,
}

/// The resumable coverage sweep: the checkpointable twin of
/// [`run_coverage_sweep_with`](crate::experiments::sweep::run_coverage_sweep_with).
///
/// Construction regenerates the word population deterministically from the
/// configuration (samples are never persisted — only mutable campaign state
/// and the series scored so far are), builds one [`BatchRun`] per (cell,
/// code group, profiler), and advances all of them in lock-step round
/// increments, scoring every round into its word's [`CoverageSeries`] as it
/// runs. After `config.rounds` rounds, [`ResumableSweep::into_sweep`]
/// labels those series into the exact [`CoverageSweep`] the one-shot path
/// produces.
#[derive(Debug)]
pub struct ResumableSweep<C: LinearBlockCode = HammingCode> {
    config: EvaluationConfig,
    profilers: Vec<ProfilerKind>,
    shard: ShardSpec,
    units: Vec<SweepUnit<C>>,
    round: usize,
}

impl<C: LinearBlockCode + Clone + Send + 'static> ResumableSweep<C> {
    /// Starts a full (unsharded) resumable sweep at round 0.
    pub fn new<F: Fn(u64) -> C>(
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
        make_code: F,
    ) -> Self {
        Self::sharded(config, profilers, ShardSpec::full(), make_code)
    }

    /// Starts a resumable sweep owning only the given shard's groups.
    pub fn sharded<F: Fn(u64) -> C>(
        config: &EvaluationConfig,
        profilers: &[ProfilerKind],
        shard: ShardSpec,
        make_code: F,
    ) -> Self {
        config.validate();
        let mut units = Vec::new();
        let mut cell_index = 0;
        for &error_count in &config.error_counts {
            for &probability in &config.probabilities {
                let samples = sample_words_with(config, error_count, probability, &make_code);
                for group in group_by_code(&samples) {
                    let code_index = group[0].code_index;
                    let group_index = cell_index * config.num_codes + code_index;
                    if !shard.owns(group_index) {
                        continue;
                    }
                    units.push(SweepUnit {
                        group_index,
                        cell_index,
                        code_index,
                        error_count,
                        probability,
                        group: GroupUnit::new(group, profilers, config.pattern),
                    });
                }
                cell_index += 1;
            }
        }
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
    ///
    /// Groups already past the target — possible after resuming a torn
    /// archive whose interrupted generation had overwritten some group
    /// files — simply hold position until the rest catch up; each campaign
    /// is deterministic, so the order of interleaving never matters.
    pub fn advance(&mut self, rounds: usize) {
        let target = self
            .round
            .saturating_add(rounds)
            .min(self.config.rounds)
            .max(self.round);
        if target == self.round {
            return;
        }
        let threads = self.config.threads;
        parallel_map_mut(&mut self.units, threads, |unit| {
            unit.group.advance_to(target)
        });
        self.round = target;
    }

    /// Writes a checkpoint archive of the current state into `dir`
    /// (created if needed): one `GROUP_<cell>_<code>.json` per owned code
    /// group (each word's RNG position and profiler state, plus its series
    /// scored so far), then the manifest. Every file goes through the durable
    /// temp-file/fsync/rename sequence of [`write_json_atomically`], and the
    /// manifest is written last — and only after its groups are on disk, not
    /// merely renamed — so an archive with a readable manifest always has
    /// every group present at the manifest's round *or later*, even across
    /// power loss: a crash mid-archive can leave some
    /// group files from the interrupted (newer) generation, and
    /// [`resume`](Self::resume) accepts those, since each group file is
    /// individually atomic and each group's campaign is independent.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the archive.
    pub fn write_archive(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for unit in &self.units {
            let group = GroupFile {
                group_index: unit.group_index,
                cell_index: unit.cell_index,
                code_index: unit.code_index,
                round: unit.group.runs.first().map_or(self.round, BatchRun::round),
                campaigns: unit.group.runs.iter().map(BatchRun::checkpoint).collect(),
                series: unit.group.series.clone(),
            };
            write_record(
                &dir.join(group_file_name(unit.cell_index, unit.code_index)),
                &group,
            )?;
        }
        let manifest = Manifest {
            round: self.round,
            shard: self.shard,
            profilers: self.profilers.clone(),
            config: self.config.clone(),
            num_groups: self.units.len(),
        };
        write_record(&dir.join(MANIFEST_FILE), &manifest)
    }

    /// Reconstructs a sweep at exactly the position of the archive in `dir`.
    /// Configuration, profiler lineup, and shard assignment all come from
    /// the manifest; `make_code` rebuilds the per-code-index codes (consult
    /// [`read_manifest`] first for the archived `data_bits`).
    ///
    /// A group file frozen *ahead* of the manifest is accepted: it means a
    /// newer archive generation was interrupted after overwriting that
    /// group but before its manifest, and the group's own state is still a
    /// valid atomic snapshot. [`advance`](Self::advance) lets the other
    /// groups catch up. A group *behind* the manifest (or past the
    /// configured rounds) is corruption and is rejected.
    ///
    /// # Errors
    ///
    /// Returns an error when the archive is missing, has a mismatched schema
    /// version, or any group file is absent or corrupt.
    pub fn resume<F: Fn(u64) -> C>(dir: &Path, make_code: F) -> io::Result<Self> {
        let manifest = read_manifest(dir)?;
        let mut sweep = Self::sharded(
            &manifest.config,
            &manifest.profilers,
            manifest.shard,
            make_code,
        );
        for unit in &mut sweep.units {
            let path = dir.join(group_file_name(unit.cell_index, unit.code_index));
            let group: GroupFile = read_record(&path)?;
            let fail = |message: String| invalid(format!("{}: {message}", path.display()));
            let round = group.round;
            if round < manifest.round || round > manifest.config.rounds {
                return Err(fail(format!(
                    "group frozen at round {round}, manifest says {} of {}",
                    manifest.round, manifest.config.rounds
                )));
            }
            let profilers = sweep.profilers.len();
            if (group.campaigns.len(), group.series.len()) != (profilers, profilers) {
                return Err(fail(format!(
                    "{} campaigns and {} series lists for {profilers} profilers",
                    group.campaigns.len(),
                    group.series.len(),
                )));
            }
            // Reject corrupt per-word state here, where the batch geometry
            // and each word's ground truth are known, so resumption never
            // trips a downstream panic (`BatchRun::resume` asserts the word
            // count; the predicting profiler kinds feed their restored sets
            // into exhaustive error-space enumeration; pattern crafting
            // indexes the dataword).
            let batch = &unit.group.batch;
            for ((checkpoint, series), &kind) in group
                .campaigns
                .iter()
                .zip(&group.series)
                .zip(&sweep.profilers)
            {
                validate_campaign_checkpoint(checkpoint, kind, round, batch)
                    .and_then(|()| validate_series(series, kind, round, &unit.group.spaces))
                    .map_err(fail)?;
            }
            unit.group.runs = group
                .campaigns
                .iter()
                .map(|checkpoint| BatchRun::resume(batch, checkpoint))
                .collect();
            unit.group.series = group.series;
        }
        sweep.round = manifest.round;
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
            words += unit.group.batch.len();
            for (sum, series) in sums.iter_mut().zip(&unit.group.series) {
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

    /// Labels the owned groups' series as evaluations, in global group
    /// order, once all rounds have completed.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has not completed all configured rounds.
    fn owned_evaluations(&self) -> Vec<(usize, Vec<WordEvaluation>)> {
        assert!(
            self.is_complete(),
            "sweep stopped at round {} of {}",
            self.round,
            self.config.rounds
        );
        self.units
            .iter()
            .map(|unit| {
                let evaluations = unit.group.label(unit.error_count, unit.probability);
                (unit.group_index, evaluations)
            })
            .collect()
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
    pub fn into_sweep(&self) -> CoverageSweep {
        assert_eq!(
            self.shard,
            ShardSpec::full(),
            "a {} shard cannot assemble the full sweep; merge shard outputs",
            self.shard
        );
        let evaluations = self
            .owned_evaluations()
            .into_iter()
            .flat_map(|(_, evals)| evals)
            .collect();
        CoverageSweep {
            rounds: self.config.rounds,
            error_counts: self.config.error_counts.clone(),
            probabilities: self.config.probabilities.clone(),
            profilers: self.profilers.clone(),
            evaluations,
        }
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
    pub fn write_shard_output(&self, path: &Path) -> io::Result<()> {
        let output = ShardOutput {
            shard: self.shard,
            profilers: self.profilers.clone(),
            config: self.config.clone(),
            groups: self
                .owned_evaluations()
                .into_iter()
                .map(|(group_index, evaluations)| ShardGroup {
                    group_index,
                    evaluations,
                })
                .collect(),
        };
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

fn group_file_name(cell_index: usize, code_index: usize) -> String {
    format!("GROUP_{cell_index}_{code_index}.json")
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
    /// Number of code groups the worker owns (one group file each).
    pub num_groups: usize,
}

/// Reads and validates the manifest of a checkpoint archive.
///
/// # Errors
///
/// Returns an error when the manifest is missing, malformed, or of an
/// unsupported schema version.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    read_record(&dir.join(MANIFEST_FILE))
}

/// Folds the shard-output files of a distributed sweep back into the single
/// [`CoverageSweep`] an unsharded run produces.
///
/// Validates that every file shares one schema version, configuration, and
/// profiler lineup; that the shards jointly cover every code group exactly
/// once; and that every coverage series actually holds the configured number
/// of rounds — an empty series is a hole in the data, not a zero-coverage
/// word, and is rejected via
/// [`CoverageSeries::checked_final_direct_coverage`].
///
/// # Errors
///
/// Returns an error describing the first inconsistency found.
pub fn merge_shards(paths: &[PathBuf]) -> io::Result<CoverageSweep> {
    if paths.is_empty() {
        return Err(invalid("no shard files to merge".to_owned()));
    }
    let mut reference: Option<(EvaluationConfig, Vec<ProfilerKind>)> = None;
    let mut groups: BTreeMap<usize, Vec<WordEvaluation>> = BTreeMap::new();
    for path in paths {
        let ShardOutput {
            shard: _,
            profilers,
            config,
            groups: shard_groups,
        } = read_record(path)?;
        match &reference {
            None => reference = Some((config, profilers)),
            Some((ref_config, ref_profilers)) => {
                if *ref_config != config || *ref_profilers != profilers {
                    return Err(invalid(format!(
                        "{}: shard was produced by a different sweep configuration",
                        path.display()
                    )));
                }
            }
        }
        for ShardGroup {
            group_index,
            evaluations,
        } in shard_groups
        {
            if groups.insert(group_index, evaluations).is_some() {
                return Err(invalid(format!(
                    "group {group_index} appears in more than one shard"
                )));
            }
        }
    }
    let Some((config, profilers)) = reference else {
        return Err(invalid("no shard files were provided to merge"));
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
    for (group_index, evaluations) in &groups {
        for evaluation in evaluations {
            if evaluation.series.checked_final_direct_coverage().is_none()
                || evaluation.series.rounds() != config.rounds
            {
                return Err(invalid(format!(
                    "group {group_index}: a {} series holds {} of {} rounds",
                    evaluation.profiler,
                    evaluation.series.rounds(),
                    config.rounds
                )));
            }
        }
    }
    Ok(CoverageSweep {
        rounds: config.rounds,
        error_counts: config.error_counts.clone(),
        probabilities: config.probabilities.clone(),
        profilers,
        evaluations: groups.into_values().flatten().collect(),
    })
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
                    .map(|e| *e.series.missed_indirect.last().unwrap_or(&0) as f64)
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
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem: fsync via a re-opened handle (Linux permits fsync on
/// a read-only descriptor, including directories).
struct RealFs;

impl ArchiveFs for RealFs {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
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
/// 1. write the bytes to `path.tmp`,
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
    write_durably_with(&mut RealFs, path, json)
}

fn write_durably_with<F: ArchiveFs>(fs: &mut F, path: &Path, json: &Json) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs.write(&tmp, json.render().as_bytes())?;
    fs.sync_file(&tmp)?;
    fs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs.sync_dir(parent)?;
        }
    }
    Ok(())
}

/// Reads and decodes one record file (an archive group or manifest, a shard
/// output, a daemon job record). Decode failures name the file.
///
/// # Errors
///
/// Returns any I/O error from reading, or an `InvalidData` error naming the
/// file and the path to the first bad value.
pub fn read_record<T: JsonCodec>(path: &Path) -> io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text)
        .map_err(DecodeError::from)
        .and_then(|json| T::from_json(&json))
        .map_err(|e| invalid(format!("{}: {e}", path.display())))
}

/// Encodes a record and writes it through [`write_json_atomically`].
///
/// # Errors
///
/// Returns any I/O error from writing, or an `InvalidData` error if the
/// record holds a non-finite float (the writers run on worker paths that
/// must not panic).
pub fn write_record<T: JsonCodec>(path: &Path, record: &T) -> io::Result<()> {
    let json = record.to_json().map_err(|e| invalid(e.to_string()))?;
    write_json_atomically(path, &json)
}

// ---------------------------------------------------------------------------
// Record codecs. The key order of every record is part of the archive and
// wire formats (`tests/golden/` pins it byte for byte).
// ---------------------------------------------------------------------------

/// One `GROUP_<cell>_<code>.json` file: every profiler's campaign over one
/// code group, frozen at `round`, with `series[profiler][word]` scored so
/// far.
struct GroupFile {
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

json_record!(Manifest as "schema": CHECKPOINT_SCHEMA_VERSION {
    round, shard, profilers, config, num_groups
});
json_record!(GroupFile as "schema": GROUP_SCHEMA_VERSION {
    group_index, cell_index, code_index, round, campaigns, series
});
json_record!(ShardOutput as "schema": CHECKPOINT_SCHEMA_VERSION {
    shard, profilers, config, groups
});
json_record!(ShardGroup {
    group_index,
    evaluations
});
// The daemon's result payload: the encoding is fully deterministic
// (ordered keys, shortest-round-trip floats), so two sweeps are equal iff
// their rendered encodings are byte-identical.
json_record!(CoverageSweep as "schema": CHECKPOINT_SCHEMA_VERSION {
    rounds, error_counts, probabilities, profilers, evaluations
});
json_record!(WordEvaluation {
    error_count,
    probability,
    profiler,
    series
});
json_record!(CoverageSeries {
    profiler,
    direct_coverage,
    missed_indirect,
    max_simultaneous,
    bootstrap_round,
    direct_truth_len,
    indirect_truth_len,
});
json_record!(CampaignCheckpoint { kind, round, words });
json_record!(WordCheckpoint { rng, profiler });
json_record!(ProfilerState {
    identified,
    observed_indirect,
    crafted_rounds
});
json_record!(ChaCha8RngState { key, counter, cursor } where check_rng_cursor);
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
fn check_rng_cursor(state: &ChaCha8RngState) -> Result<(), String> {
    if state.cursor > 16 || !state.cursor.is_multiple_of(2) {
        return Err(format!(
            "RNG cursor {} is not a valid block position",
            state.cursor
        ));
    }
    Ok(())
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

/// Rejects campaign checkpoints whose state cannot have come from a run over
/// this batch: a profiler kind out of lineup order, wrong word count (a
/// downstream `assert!`), a frozen round disagreeing with the group file's,
/// bit positions outside the dataword (every profiler set holds dataword
/// positions, and BEEP-style pattern crafting indexes the dataword with
/// them), or identified sets too large for the exhaustive error-space
/// enumeration the predicting profiler kinds perform on restore.
fn validate_campaign_checkpoint<C: LinearBlockCode + Clone + Send + 'static>(
    checkpoint: &CampaignCheckpoint,
    kind: ProfilerKind,
    round: usize,
    batch: &CampaignBatch<C>,
) -> Result<(), String> {
    let (batch_len, data_len) = (batch.len(), batch.code().data_len());
    if checkpoint.kind != kind {
        return Err(format!(
            "campaign order mismatch: found {}, manifest says {kind}",
            checkpoint.kind
        ));
    }
    if checkpoint.round != round {
        return Err(format!(
            "{} campaign frozen at round {}, group file says {round}",
            checkpoint.kind, checkpoint.round
        ));
    }
    if checkpoint.words.len() != batch_len {
        return Err(format!(
            "{} campaign holds {} words, batch has {batch_len}",
            checkpoint.kind,
            checkpoint.words.len()
        ));
    }
    for (index, word) in checkpoint.words.iter().enumerate() {
        let out_of_range = word
            .profiler
            .identified
            .iter()
            .chain(&word.profiler.observed_indirect)
            .find(|&&bit| bit >= data_len);
        if let Some(bit) = out_of_range {
            return Err(format!(
                "word {index}: profiler bit {bit} outside the {data_len}-bit dataword"
            ));
        }
        let predicts = matches!(
            checkpoint.kind,
            ProfilerKind::HarpA | ProfilerKind::HarpABeep
        );
        if predicts && word.profiler.identified.len() > ErrorSpace::MAX_AT_RISK_BITS {
            return Err(format!(
                "word {index}: {} direct bits exceed the exhaustive-analysis limit",
                word.profiler.identified.len()
            ));
        }
    }
    Ok(())
}

/// Rejects a profiler's stored series that its campaign over this group
/// cannot have scored: one per word, each named after the profiler, holding
/// `round` rounds, with the truth-set sizes of the word's recomputed ground
/// truth.
fn validate_series(
    series: &[CoverageSeries],
    kind: ProfilerKind,
    round: usize,
    spaces: &[ErrorSpace],
) -> Result<(), String> {
    if series.len() != spaces.len() {
        return Err(format!(
            "{kind}: {} series for {} words",
            series.len(),
            spaces.len()
        ));
    }
    for (index, (word, space)) in series.iter().zip(spaces).enumerate() {
        let fresh = CoverageSeries::new(kind.name(), space);
        let truth = |s: &CoverageSeries| (s.direct_truth_len, s.indirect_truth_len);
        let lengths = [
            word.direct_coverage.len(),
            word.missed_indirect.len(),
            word.max_simultaneous.len(),
        ];
        if lengths != [round; 3] || word.profiler != fresh.profiler || truth(word) != truth(&fresh)
        {
            return Err(format!(
                "word {index}: a {} series of {lengths:?} rounds over {:?} truth bits \
                 does not fit {kind} at round {round} over {:?}",
                word.profiler,
                truth(word),
                truth(&fresh)
            ));
        }
    }
    Ok(())
}

/// Encodes a completed [`CoverageSweep`]; the same as `sweep.to_json()`.
///
/// # Errors
///
/// Returns the first non-finite float in the sweep — e.g. a coverage mean
/// produced by a buggy stats pipeline — so the daemon can fail the *job*
/// instead of losing the worker thread to a render panic.
pub fn try_encode_sweep(sweep: &CoverageSweep) -> Result<Json, NonFiniteFloat> {
    sweep.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::run_coverage_sweep;
    use harp_profiler::BatchWord;

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

    /// Regression: a crash *during* `write_archive` can leave group files
    /// the interrupted generation already renamed into place alongside the
    /// previous generation's manifest. Such a torn archive must resume (the
    /// ahead groups hold position while the rest catch up) and finish
    /// identically to the uninterrupted run — it must not be rejected as
    /// corrupt, which would strand the campaign.
    #[test]
    fn torn_archives_with_ahead_groups_resume_cleanly() {
        let config = tiny_config();
        let dir = temp_dir("torn");
        let newer = temp_dir("torn_newer");
        let reference = run_coverage_sweep(&config, &KINDS);

        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(5);
        sweep.write_archive(&dir).unwrap();
        sweep.advance(4);
        sweep.write_archive(&newer).unwrap();

        // Simulate the interrupted generation: one group file from round 9
        // lands in the round-5 archive, manifest still says 5.
        let torn_group = group_file_name(0, 0);
        std::fs::copy(newer.join(&torn_group), dir.join(&torn_group)).unwrap();

        let mut resumed = ResumableSweep::resume(&dir, make_code(&config)).unwrap();
        assert_eq!(resumed.round(), 5);
        resumed.advance(config.rounds);
        assert!(resumed.is_complete());
        assert_eq!(resumed.into_sweep(), reference);

        // A group *behind* the manifest is still corruption: write_archive
        // never renames the manifest before its groups, so an older group
        // under a newer manifest cannot come from a crash.
        let stale_group = group_file_name(0, 1);
        std::fs::copy(dir.join(&stale_group), newer.join(&stale_group)).unwrap();
        let err = ResumableSweep::<HammingCode>::resume(&newer, make_code(&config)).unwrap_err();
        assert!(err.to_string().contains("frozen at round"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&newer).unwrap();
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
            run.advance(9, |_, _| {});
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

        // Wrong schema version in the manifest.
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(
            &manifest_path,
            text.replacen("\"schema\":1", "\"schema\":999", 1),
        )
        .unwrap();
        let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        std::fs::write(&manifest_path, text).unwrap();

        // A group file from before scored series replaced snapshot
        // histories (schema 1) is refused with the typed schema error.
        let group_path = dir.join(group_file_name(1, 0));
        let text = std::fs::read_to_string(&group_path).unwrap();
        assert!(text.starts_with("{\"schema\":2,"), "{text}");
        std::fs::write(
            &group_path,
            text.replacen("\"schema\":2", "\"schema\":1", 1),
        )
        .unwrap();
        let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
        assert!(
            err.to_string().contains("schema: expected 2, found 1"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An [`ArchiveFs`] that records the operation sequence instead of
    /// touching disk, so the durability ordering is asserted directly.
    #[derive(Default)]
    struct RecordingFs {
        ops: Vec<String>,
    }

    impl ArchiveFs for RecordingFs {
        fn write(&mut self, path: &Path, _bytes: &[u8]) -> io::Result<()> {
            self.ops.push(format!("write {}", path.display()));
            Ok(())
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
    /// did not — a durable manifest pointing at zero-length group files.
    /// The durable sequence is exactly: write temp, sync temp *before* the
    /// rename, rename, sync the parent directory after.
    #[test]
    fn durable_write_syncs_file_before_rename_and_directory_after() {
        let mut fs = RecordingFs::default();
        write_durably_with(&mut fs, Path::new("/archive/MANIFEST.json"), &Json::Null).unwrap();
        assert_eq!(
            fs.ops,
            vec![
                "write /archive/MANIFEST.json.tmp",
                "sync_file /archive/MANIFEST.json.tmp",
                "rename /archive/MANIFEST.json.tmp -> /archive/MANIFEST.json",
                "sync_dir /archive",
            ]
        );
    }

    #[test]
    fn corrupt_rng_cursors_are_rejected() {
        let state = ChaCha8RngState {
            key: [7; 8],
            counter: 3,
            cursor: 6,
        };
        let encoded = state.to_json().unwrap();
        assert_eq!(ChaCha8RngState::from_json(&encoded).unwrap(), state);
        for bad_cursor in [17usize, 5, 100] {
            let text = encoded
                .render()
                .replace("\"cursor\":6", &format!("\"cursor\":{bad_cursor}"));
            let err = ChaCha8RngState::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.message.contains("cursor"), "{bad_cursor}: {err}");
        }
    }

    /// Regression: these corruptions used to panic past the decode layer —
    /// a word-count mismatch tripped `BatchRun::resume`'s assert, an
    /// oversized identified set tripped the exhaustive-enumeration assert
    /// inside the predicting profilers' `restore`, and a BEEP bit past the
    /// dataword (but inside the codeword, which is what resume used to
    /// bound by) passed resume and tripped `craft_beep_pattern` on the next
    /// advance. All must surface as `Err` from `resume`.
    #[test]
    fn corrupt_group_state_is_an_error_not_a_panic() {
        let config = tiny_config();
        let kinds = [ProfilerKind::HarpA, ProfilerKind::Naive, ProfilerKind::Beep];
        let dir = temp_dir("corrupt_group");
        let mut sweep = ResumableSweep::new(&config, &kinds, make_code(&config));
        sweep.advance(2);
        sweep.write_archive(&dir).unwrap();
        let group_path = dir.join(group_file_name(0, 0));
        let pristine: GroupFile = read_record(&group_path).unwrap();
        let mutate = |corrupt: &dyn Fn(&mut GroupFile)| {
            let mut group = read_record(&group_path).unwrap();
            corrupt(&mut group);
            write_record(&group_path, &group).unwrap();
            let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
            write_record(&group_path, &pristine).unwrap();
            err
        };

        // Drop one word from the first campaign.
        let err = mutate(&|group| {
            group.campaigns[0].words.pop();
        });
        assert!(err.to_string().contains("words"), "{err}");

        // Overwrite one campaign's word-0 profiler identified set.
        let poison_identified = |campaign: usize, bits: Vec<usize>| {
            move |group: &mut GroupFile| {
                group.campaigns[campaign].words[0].profiler.identified =
                    bits.iter().copied().collect();
            }
        };

        // Past the exhaustive-analysis limit for the predicting HARP-A
        // campaign: used to abort inside `restore`'s enumeration assert.
        let err = mutate(&poison_identified(0, (0..30).collect()));
        assert!(err.to_string().contains("exhaustive-analysis"), "{err}");

        // A profiler bit outside the codeword.
        let err = mutate(&poison_identified(0, vec![9999]));
        assert!(err.to_string().contains("outside"), "{err}");

        // A BEEP bit inside the 71-bit codeword but past the 64-bit
        // dataword.
        assert_eq!(config.data_bits, 64);
        let err = mutate(&poison_identified(2, vec![66]));
        assert!(
            err.to_string().contains("outside the 64-bit dataword"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stored series is checked against the ground truth recomputed from
    /// the configuration: its length, its truth-set sizes and its profiler
    /// name must all fit the group, or resume fails with a description.
    #[test]
    fn corrupt_group_series_are_rejected() {
        let config = tiny_config();
        let dir = temp_dir("corrupt_series");
        let mut sweep = ResumableSweep::new(&config, &KINDS, make_code(&config));
        sweep.advance(3);
        sweep.write_archive(&dir).unwrap();
        let group_path = dir.join(group_file_name(0, 0));
        let pristine: GroupFile = read_record(&group_path).unwrap();
        let reject = |corrupt: fn(&mut CoverageSeries)| {
            let mut group = read_record::<GroupFile>(&group_path).unwrap();
            corrupt(&mut group.series[0][1]);
            write_record(&group_path, &group).unwrap();
            let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
            write_record(&group_path, &pristine).unwrap();
            let err = err.to_string();
            assert!(
                err.contains("word 1: a ") && err.contains("does not fit"),
                "{err}"
            );
        };
        reject(|series| series.direct_coverage.push(1.0));
        reject(|series| series.max_simultaneous.clear());
        reject(|series| series.indirect_truth_len += 1);
        reject(|series| series.profiler = "Naive".to_owned());
        let mut group = pristine;
        group.series[1].pop();
        write_record(&group_path, &group).unwrap();
        let err = ResumableSweep::<HammingCode>::resume(&dir, make_code(&config)).unwrap_err();
        assert!(err.to_string().contains("series for"), "{err}");
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
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(
            &manifest_path,
            text.replacen("\"data_bits\":64", "\"data_bits\":0", 1),
        )
        .unwrap();
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
    /// must surface it as a typed error instead.
    #[test]
    fn try_encode_sweep_reports_non_finite_floats_instead_of_panicking() {
        let config = tiny_config();
        let mut sweep = run_coverage_sweep(&config, &KINDS);
        assert!(try_encode_sweep(&sweep).is_ok());
        sweep.evaluations[0].series.direct_coverage[0] = f64::NAN;
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
