//! Order statistics and process measurements shared by the workloads.

/// Percentiles a tail may be named by, highest first.
const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 80, 75];

/// Linear-interpolation quantile of `values` at `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (pos - low as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest tail percentile (p75 or above) with at least ten samples
/// beyond it, as `(percentile, value)`, or `None` below forty samples.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| values.len() * (100 - p) >= 10 * 100)
        .map(|p| (p, quantile(values, p as f64 / 100.0)))
}

/// A timing line for the human-readable report: median, the named tail and
/// the sample count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{name}: no samples");
    }
    let tail = match tail(values) {
        Some((p, value)) => format!(", p{p} {value:.4} {unit}"),
        None => " (too few samples for a tail)".to_owned(),
    };
    format!(
        "{name}: p50 {:.4} {unit}{tail}, n = {}",
        median(values),
        values.len()
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Number of regular files directly inside `dir`.
pub fn dir_files(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|entry| entry.metadata().is_ok_and(|meta| meta.is_file()))
                .count() as u64
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&forty).map(|(p, _)| p), Some(75));
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).map(|(p, _)| p), Some(90));
    }
}
