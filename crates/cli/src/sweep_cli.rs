//! The `harp sweep` / `harp merge` tooling subcommands: checkpointed,
//! resumable, and distributable coverage sweeps.
//!
//! `sweep` runs the active-phase coverage sweep (the `fig6` profiler lineup)
//! as a [`ResumableSweep`], optionally freezing a checkpoint archive every
//! `--checkpoint-interval` rounds and resuming from one with `--resume`.
//! With `--shard i/N` it becomes worker `i` of an `N`-way distributed sweep
//! and persists its groups as a shard-output file; `merge` folds the shard
//! outputs back into the single-process result. See ROADMAP.md for the
//! sharding invariant that makes the distribution exact.

use std::path::{Path, PathBuf};

use harp_sim::checkpoint::{
    hamming_factory, merge_shards, read_manifest, render_sweep_summary, shard_file_name,
    ResumableSweep, ShardSpec,
};
use harp_sim::experiments::fig6;
use harp_sim::EvaluationConfig;

/// Default checkpoint cadence when `--checkpoint-dir` is given without an
/// explicit `--checkpoint-interval`.
const DEFAULT_CHECKPOINT_INTERVAL: usize = 32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct SweepOptions {
    full: bool,
    long_code: bool,
    checkpoint_dir: Option<String>,
    checkpoint_interval: Option<usize>,
    resume: bool,
    shard: Option<String>,
    out: Option<String>,
}

fn parse_sweep(args: &[String]) -> Result<SweepOptions, String> {
    let mut options = SweepOptions {
        full: false,
        long_code: false,
        checkpoint_dir: None,
        checkpoint_interval: None,
        resume: false,
        shard: None,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--full" => options.full = true,
            "--long-code" => options.long_code = true,
            "--resume" => options.resume = true,
            "--checkpoint-dir" => options.checkpoint_dir = Some(value_of("--checkpoint-dir")?),
            "--checkpoint-interval" => {
                let raw = value_of("--checkpoint-interval")?;
                let rounds: usize = raw
                    .parse()
                    .map_err(|_| format!("--checkpoint-interval '{raw}' is not a number"))?;
                if rounds == 0 {
                    return Err("--checkpoint-interval must be at least 1".to_owned());
                }
                options.checkpoint_interval = Some(rounds);
            }
            "--shard" => options.shard = Some(value_of("--shard")?),
            "--out" => options.out = Some(value_of("--out")?),
            other => return Err(format!("unknown sweep option: {other}")),
        }
    }
    if options.resume {
        if options.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".to_owned());
        }
        if options.full || options.long_code || options.shard.is_some() {
            return Err(
                "--resume restores configuration and shard from the archive; \
                 drop --full/--long-code/--shard"
                    .to_owned(),
            );
        }
    }
    Ok(options)
}

/// Runs `harp sweep`.
///
/// # Errors
///
/// Returns a user-facing message on bad flags or I/O failures.
pub fn run_sweep(args: &[String]) -> Result<(), String> {
    let options = parse_sweep(args)?;
    let shard = match &options.shard {
        Some(text) => ShardSpec::parse(text)?,
        None => ShardSpec::full(),
    };

    let mut sweep = if options.resume {
        let dir = PathBuf::from(options.checkpoint_dir.as_deref().expect("validated"));
        let manifest = read_manifest(&dir).map_err(|e| e.to_string())?;
        let make_code = hamming_factory(manifest.config.data_bits)
            .map_err(|e| format!("cannot resume from {}: archived {e}", dir.display()))?;
        let sweep = ResumableSweep::resume(&dir, make_code).map_err(|e| e.to_string())?;
        eprintln!(
            "resumed shard {} at round {} of {} ({} code groups)",
            sweep.shard(),
            sweep.round(),
            sweep.config().rounds,
            sweep.num_groups()
        );
        sweep
    } else {
        let mut config = if options.full {
            EvaluationConfig::paper_scale()
        } else {
            EvaluationConfig::quick()
        };
        if options.long_code {
            config = config.with_long_code();
        }
        let make_code = hamming_factory(config.data_bits)?;
        let sweep = ResumableSweep::sharded(&config, &fig6::PROFILERS, shard, make_code);
        eprintln!(
            "sweep shard {}: {} of {} code groups, {} rounds",
            shard,
            sweep.num_groups(),
            sweep.total_groups(),
            sweep.config().rounds
        );
        sweep
    };

    let interval = match (&options.checkpoint_dir, options.checkpoint_interval) {
        (Some(_), interval) => interval.unwrap_or(DEFAULT_CHECKPOINT_INTERVAL),
        (None, Some(_)) => return Err("--checkpoint-interval requires --checkpoint-dir".to_owned()),
        (None, None) => usize::MAX,
    };
    while !sweep.is_complete() {
        sweep.advance(interval);
        if let Some(dir) = &options.checkpoint_dir {
            sweep
                .write_archive(Path::new(dir))
                .map_err(|e| format!("could not write checkpoint archive: {e}"))?;
            eprintln!(
                "checkpointed round {} of {} into {dir}",
                sweep.round(),
                sweep.config().rounds
            );
        }
    }

    if sweep.shard() == ShardSpec::full() {
        println!("{}", render_sweep_summary(&sweep.into_sweep()));
    } else {
        let path = match &options.out {
            Some(path) => PathBuf::from(path),
            None => {
                let base = options.checkpoint_dir.as_deref().unwrap_or(".");
                Path::new(base).join(shard_file_name(sweep.shard()))
            }
        };
        let shard = sweep.shard();
        sweep
            .write_shard_output(&path)
            .map_err(|e| format!("could not write shard output: {e}"))?;
        println!(
            "shard {shard} complete: wrote {} (fold the shards with `harp merge`)",
            path.display()
        );
    }
    Ok(())
}

/// Runs `harp merge FILE...`.
///
/// # Errors
///
/// Returns a user-facing message when no files are given or the shards are
/// inconsistent or incomplete.
pub fn run_merge(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        return Err("merge takes shard-output files: harp merge SHARD_0_of_2.json ...".to_owned());
    }
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    let sweep = merge_shards(&paths).map_err(|e| e.to_string())?;
    println!("{}", render_sweep_summary(&sweep));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let options = parse_sweep(&args(&[
            "--full",
            "--long-code",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--checkpoint-interval",
            "16",
            "--shard",
            "1/4",
            "--out",
            "/tmp/shard.json",
        ]))
        .unwrap();
        assert!(options.full && options.long_code);
        assert_eq!(options.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(options.checkpoint_interval, Some(16));
        assert_eq!(options.shard.as_deref(), Some("1/4"));
        assert_eq!(options.out.as_deref(), Some("/tmp/shard.json"));
    }

    #[test]
    fn resume_requires_a_dir_and_excludes_config_flags() {
        assert!(parse_sweep(&args(&["--resume"])).is_err());
        assert!(parse_sweep(&args(&["--resume", "--checkpoint-dir", "d", "--full"])).is_err());
        assert!(parse_sweep(&args(&[
            "--resume",
            "--checkpoint-dir",
            "d",
            "--shard",
            "0/2"
        ]))
        .is_err());
        assert!(parse_sweep(&args(&["--resume", "--checkpoint-dir", "d"])).is_ok());
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(parse_sweep(&args(&["--checkpoint-interval", "x"])).is_err());
        assert!(parse_sweep(&args(&["--checkpoint-interval", "0"])).is_err());
        assert!(parse_sweep(&args(&["--checkpoint-dir"])).is_err());
        assert!(parse_sweep(&args(&["--bogus"])).is_err());
        // An interval without a directory to write into is a usage error
        // (surfaced by run_sweep, after parsing).
        let options = parse_sweep(&args(&["--checkpoint-interval", "8"])).unwrap();
        assert_eq!(options.checkpoint_interval, Some(8));
        assert!(run_sweep(&args(&["--checkpoint-interval", "8"])).is_err());
    }

    #[test]
    fn merge_requires_file_arguments() {
        assert!(run_merge(&[]).is_err());
        assert!(run_merge(&args(&["--check"])).is_err());
    }

    /// Regression: `harp sweep --resume` used to panic via
    /// `.expect("archived configuration is valid")` when a manifest carried
    /// corrupt `data_bits`. Every flavor of manifest corruption must come
    /// back as a user-facing `Err`.
    #[test]
    fn resume_from_a_corrupt_manifest_is_an_error_not_a_panic() {
        let dir =
            std::env::temp_dir().join(format!("harp_sweep_cli_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = harp_sim::EvaluationConfig {
            num_codes: 1,
            words_per_code: 1,
            rounds: 4,
            error_counts: vec![2],
            probabilities: vec![0.5],
            threads: 1,
            ..harp_sim::EvaluationConfig::quick()
        };
        let mut sweep = ResumableSweep::new(
            &config,
            &fig6::PROFILERS,
            hamming_factory(config.data_bits).unwrap(),
        );
        sweep.advance(2);
        sweep.write_archive(&dir).unwrap();

        // Line 1 of the archive file is the manifest.
        let archive_path = dir.join(harp_sim::checkpoint::ARCHIVE_FILE);
        let pristine = std::fs::read_to_string(&archive_path).unwrap();
        let resume_args = args(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]);
        for corrupt in [
            pristine.replacen("\"data_bits\":64", "\"data_bits\":0", 1),
            pristine.replacen("\"data_bits\":64", "\"data_bits\":\"x\"", 1),
            "not json".to_owned(),
        ] {
            std::fs::write(&archive_path, corrupt).unwrap();
            let err = run_sweep(&resume_args).unwrap_err();
            assert!(!err.is_empty());
        }

        // The pristine archive still resumes and completes.
        std::fs::write(&archive_path, pristine).unwrap();
        run_sweep(&resume_args).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_specs_flow_through_to_the_partition() {
        let options = parse_sweep(&args(&["--shard", "1/2"])).unwrap();
        let shard = ShardSpec::parse(options.shard.as_deref().unwrap()).unwrap();
        assert!(shard.owns(1) && !shard.owns(2));
        assert!(ShardSpec::parse("2/2").is_err());
    }
}
