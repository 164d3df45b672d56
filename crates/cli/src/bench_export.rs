//! `harp bench-export` — persist the bench groups' medians as the repo's
//! perf trajectory.
//!
//! The vendored criterion stand-in prints one strict-JSON `bench-json` line
//! per benchmark when `HARP_BENCH_JSON` is set (see `vendor/criterion`).
//! This subcommand runs `cargo bench --workspace` with that hook (or parses
//! a previously captured log via `--input`), groups the records by the
//! first `/`-segment of each benchmark id, and writes one
//! `BENCH_<group>.json` file per group with the medians, throughput, git
//! revision, and date — the format documented in `BENCHMARKS.md`.
//!
//! `--check` is the CI gate: it verifies that every registered bench group
//! has a schema-valid `BENCH_<group>.json` on disk. It is a format/coverage
//! gate, **not** a perf gate — no timing is compared.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use harp_sim::json_record;
use harp_sim::minijson::{field, Json, JsonCodec};

/// Top-level bench groups (the first `/`-segment of every benchmark id
/// registered in `crates/bench/benches/`). `--check` fails if any of these
/// lacks a schema-valid `BENCH_<group>.json`.
pub const REGISTERED_GROUPS: &[&str] = &[
    "beer_reconstruction",
    "bitsliced_kernel",
    "campaign_path",
    "checkpoint_path",
    "controller_path",
    "core",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "fig02",
    "fig04",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "module_path",
    "read_path",
    "server_path",
    "syndrome_kernel",
    "table02",
    "traffic_path",
];

/// One benchmark's parsed `bench-json` record (also the leading keys of
/// each entry of a `BENCH_<group>.json` file).
#[derive(Debug, Clone, PartialEq)]
struct BenchRecord {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iterations: u64,
}

json_record!(BenchRecord {
    id,
    median_ns,
    mean_ns,
    min_ns,
    max_ns,
    iterations
});

/// Parsed `bench-export` options.
#[derive(Debug, Default)]
struct Options {
    /// Validate existing `BENCH_*.json` files instead of producing them.
    check: bool,
    /// Parse a captured bench log instead of running `cargo bench`.
    input: Option<PathBuf>,
    /// Directory holding the `BENCH_*.json` files (default: current dir,
    /// i.e. the repo root when invoked from it).
    output_dir: PathBuf,
}

/// Runs the subcommand with the arguments after `bench-export`.
pub fn run(args: &[String]) -> Result<(), String> {
    let options = parse_args(args)?;
    if options.check {
        return check(&options.output_dir);
    }
    let log = match &options.input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|err| format!("could not read {}: {err}", path.display()))?,
        None => run_cargo_bench()?,
    };
    let records = parse_log(&log);
    if records.is_empty() {
        return Err(
            "no bench-json records found; is the vendored criterion's HARP_BENCH_JSON hook active?"
                .to_owned(),
        );
    }
    export(&records, &options.output_dir)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        output_dir: PathBuf::from("."),
        ..Options::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => options.check = true,
            "--input" => {
                options.input = Some(PathBuf::from(iter.next().ok_or("--input requires a path")?));
            }
            "--output-dir" => {
                options.output_dir =
                    PathBuf::from(iter.next().ok_or("--output-dir requires a path")?);
            }
            other => return Err(format!("unknown bench-export option: {other}")),
        }
    }
    if options.check && options.input.is_some() {
        return Err("--check and --input are mutually exclusive".to_owned());
    }
    Ok(options)
}

/// Runs every workspace bench with the machine-readable hook enabled and
/// returns the combined stdout.
fn run_cargo_bench() -> Result<String, String> {
    eprintln!("running `cargo bench --workspace` (this takes a while)...");
    let output = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["bench", "--workspace"])
        .env("HARP_BENCH_JSON", "1")
        .output()
        .map_err(|err| format!("could not run cargo bench: {err}"))?;
    if !output.status.success() {
        return Err(format!(
            "cargo bench failed with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8(output.stdout).map_err(|err| format!("non-UTF-8 bench output: {err}"))
}

/// Extracts every `bench-json` record from a bench log.
fn parse_log(log: &str) -> Vec<BenchRecord> {
    log.lines().filter_map(parse_line).collect()
}

/// Parses one `bench-json {...}` line as the vendored criterion prints it.
fn parse_line(line: &str) -> Option<BenchRecord> {
    let json = Json::parse(line.trim().strip_prefix("bench-json ")?).ok()?;
    BenchRecord::from_json(&json).ok()
}

/// The top-level group of a benchmark id (everything before the first `/`).
fn group_of(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

/// Writes one `BENCH_<group>.json` per group represented in `records`.
fn export(records: &[BenchRecord], output_dir: &Path) -> Result<(), String> {
    let git_rev = git_revision();
    let date = civil_date_today();
    let mut groups: Vec<&str> = records.iter().map(|r| group_of(&r.id)).collect();
    groups.sort_unstable();
    groups.dedup();
    for group in &groups {
        let path = output_dir.join(format!("BENCH_{group}.json"));
        let body = render_group(group, &git_rev, &date, records);
        std::fs::write(&path, body)
            .map_err(|err| format!("could not write {}: {err}", path.display()))?;
        println!("wrote {}", path.display());
    }
    for group in REGISTERED_GROUPS {
        if !groups.contains(group) {
            eprintln!("warning: registered group {group} produced no bench-json records");
        }
    }
    Ok(())
}

/// Renders one group's `BENCH_<group>.json` body (strict JSON, stable key
/// order, one entry per benchmark id in log order).
fn render_group(group: &str, git_rev: &str, date: &str, records: &[BenchRecord]) -> String {
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"group\": \"{group}\",\n"));
    body.push_str(&format!("  \"git_rev\": \"{git_rev}\",\n"));
    body.push_str(&format!("  \"date\": \"{date}\",\n"));
    body.push_str("  \"entries\": [\n");
    let entries: Vec<&BenchRecord> = records
        .iter()
        .filter(|r| group_of(&r.id) == group)
        .collect();
    for (index, record) in entries.iter().enumerate() {
        let throughput = if record.median_ns > 0.0 {
            1e9 / record.median_ns
        } else {
            0.0
        };
        body.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.3}, \"mean_ns\": {:.3}, \
             \"min_ns\": {:.3}, \"max_ns\": {:.3}, \"iterations\": {}, \
             \"throughput_iters_per_sec\": {:.3}}}{}\n",
            record.id,
            record.median_ns,
            record.mean_ns,
            record.min_ns,
            record.max_ns,
            record.iterations,
            throughput,
            if index + 1 < entries.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// Validates that every registered group has a schema-valid
/// `BENCH_<group>.json` in `dir`; collects all problems before failing.
fn check(dir: &Path) -> Result<(), String> {
    let mut problems = Vec::new();
    for group in REGISTERED_GROUPS {
        let path = dir.join(format!("BENCH_{group}.json"));
        match std::fs::read_to_string(&path) {
            Ok(body) => {
                if let Err(problem) = validate_group_file(group, &body) {
                    problems.push(format!("{}: {problem}", path.display()));
                }
            }
            Err(err) => problems.push(format!("{}: {err}", path.display())),
        }
    }
    if problems.is_empty() {
        println!(
            "bench trajectory OK: {} groups with schema-valid BENCH_*.json",
            REGISTERED_GROUPS.len()
        );
        Ok(())
    } else {
        Err(format!(
            "bench trajectory check failed:\n  {}",
            problems.join("\n  ")
        ))
    }
}

/// Schema validation for one group file: right group name, provenance
/// fields present, and at least one entry, every entry a full record.
fn validate_group_file(group: &str, body: &str) -> Result<(), String> {
    let json = Json::parse(body).map_err(|e| e.to_string())?;
    let text = |key: &str| field::<String>(&json, key).map_err(|e| e.to_string());
    let found = text("group")?;
    if found != group {
        return Err(format!("group field is {found:?}, expected {group:?}"));
    }
    if text("git_rev")?.is_empty() {
        return Err("empty \"git_rev\" field".to_owned());
    }
    let date = text("date")?;
    if date.len() != 10 || date.as_bytes()[4] != b'-' {
        return Err(format!("malformed date {date:?} (want YYYY-MM-DD)"));
    }
    let entries: Vec<BenchRecord> = field(&json, "entries").map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return Err("\"entries\" holds no records".to_owned());
    }
    Ok(())
}

/// The current git revision (short), or `"unknown"` outside a repository.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock with no date
/// dependency: days-from-epoch to civil conversion (Howard Hinnant's
/// algorithm).
fn civil_date_today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_from_days((secs / 86_400) as i64)
}

/// Converts days since 1970-01-01 to `YYYY-MM-DD`.
fn civil_from_days(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "bench-json {\"id\":\"syndrome_kernel/hamming_71_64/kernel_single\",\
                        \"median_ns\":123.5,\"mean_ns\":130.25,\"min_ns\":110,\"max_ns\":150,\
                        \"iterations\":100000}";

    #[test]
    fn parses_bench_json_lines_and_ignores_noise() {
        let record = parse_line(LINE).unwrap();
        assert_eq!(record.id, "syndrome_kernel/hamming_71_64/kernel_single");
        assert_eq!(record.median_ns, 123.5);
        assert_eq!(record.mean_ns, 130.25);
        assert_eq!(record.iterations, 100_000);
        assert_eq!(parse_line("bench something    12 ns mean"), None);
        assert_eq!(parse_line("running 3 tests"), None);
        let log = format!("noise\n{LINE}\nmore noise\n");
        assert_eq!(parse_log(&log).len(), 1);
    }

    #[test]
    fn groups_are_the_first_id_segment() {
        assert_eq!(
            group_of("syndrome_kernel/hamming_71_64/kernel_single"),
            "syndrome_kernel"
        );
        assert_eq!(group_of("fig02/wasted_storage_full_sweep"), "fig02");
        assert_eq!(group_of("no_slash"), "no_slash");
    }

    #[test]
    fn rendered_group_files_pass_their_own_check() {
        let record = parse_line(LINE).unwrap();
        let body = render_group("syndrome_kernel", "abc1234", "2026-08-08", &[record]);
        assert!(validate_group_file("syndrome_kernel", &body).is_ok());
        // Wrong group name, missing provenance, and empty entries all fail.
        assert!(validate_group_file("read_path", &body).is_err());
        assert!(validate_group_file("syndrome_kernel", "{}").is_err());
        let empty = render_group("syndrome_kernel", "abc1234", "2026-08-08", &[]);
        assert!(validate_group_file("syndrome_kernel", &empty).is_err());
    }

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_days(0), "1970-01-01");
        assert_eq!(civil_from_days(19_723), "2024-01-01");
        assert_eq!(civil_from_days(20_673), "2026-08-08");
        assert_eq!(civil_from_days(11_016), "2000-02-29");
    }

    #[test]
    fn export_and_check_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("harp_bench_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = parse_line(LINE).unwrap();
        export(&[record], &dir).unwrap();
        let path = dir.join("BENCH_syndrome_kernel.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(validate_group_file("syndrome_kernel", &body).is_ok());
        assert!(body.contains("\"throughput_iters_per_sec\""));
        // The full check still fails because the other registered groups are
        // absent from the temp dir.
        assert!(check(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn option_parsing_rejects_conflicts_and_unknown_flags() {
        let to_args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert!(parse_args(&to_args(&["--check"])).unwrap().check);
        let opts = parse_args(&to_args(&["--input", "log.txt", "--output-dir", "out"])).unwrap();
        assert_eq!(opts.input.as_deref(), Some(Path::new("log.txt")));
        assert_eq!(opts.output_dir, Path::new("out"));
        assert!(parse_args(&to_args(&["--check", "--input", "x"])).is_err());
        assert!(parse_args(&to_args(&["--bogus"])).is_err());
        assert!(parse_args(&to_args(&["--input"])).is_err());
    }

    #[test]
    fn every_registered_group_is_sorted_and_unique() {
        let mut sorted = REGISTERED_GROUPS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, REGISTERED_GROUPS);
    }
}
