//! Integration test: the reproduced experiments exhibit the qualitative
//! shapes reported in the paper, at a reduced Monte-Carlo scale.
//!
//! These are the "who wins, and roughly how" checks; the absolute numbers
//! differ from the paper (different sample sizes, different random codes),
//! but the orderings and end states must match.

use harp_profiler::ProfilerKind;
use harp_sim::experiments::{fig10, fig2, fig4, fig6, fig7, fig9, headline, sweep, table2};
use harp_sim::EvaluationConfig;

fn shape_config() -> EvaluationConfig {
    EvaluationConfig {
        num_codes: 3,
        words_per_code: 6,
        rounds: 128,
        error_counts: vec![2, 4],
        probabilities: vec![0.5],
        ..EvaluationConfig::quick()
    }
}

#[test]
fn fig2_shape_bit_granularity_repair_wastes_nothing_and_coarse_wastes_most() {
    let result = fig2::run();
    let at_1e3 = |g: usize| result.wasted_at(g, 1e-3).unwrap();
    assert_eq!(at_1e3(1), 0.0);
    assert!(at_1e3(1024) > at_1e3(64));
    assert!(at_1e3(64) > at_1e3(32));
    // The paper's headline: >99% waste for 1024-bit repair at RBER 6.8e-3.
    assert!(result.wasted_at(1024, 6.8e-3).unwrap() > 0.9);
}

#[test]
fn table2_shape_matches_closed_forms() {
    let result = table2::run();
    assert_eq!(result.rows.last().unwrap().post_correction_at_risk, 255);
    assert_eq!(result.rows[3].uncorrectable_patterns, 11);
}

#[test]
fn fig4_shape_post_correction_probabilities_decrease_with_error_count() {
    let config = shape_config();
    let result = fig4::run_with(&config, &[2, 4, 6], 0.5);
    let medians: Vec<f64> = result
        .points
        .iter()
        .map(|p| p.post_correction.median)
        .collect();
    // Pre-correction probability stays at ~0.5 throughout.
    for p in &result.points {
        assert!((p.pre_correction.median - 0.5).abs() < 0.2);
    }
    // Post-correction medians never exceed the pre-correction probability by
    // much and trend downwards.
    assert!(medians.iter().all(|&m| m <= 0.6));
    assert!(medians.last().unwrap() <= &(medians[0] + 0.05));
}

#[test]
fn fig6_and_fig7_shapes_harp_covers_fastest_and_bootstraps_fastest() {
    let config = shape_config();
    let shared_sweep = sweep::run_coverage_sweep(&config, &fig6::PROFILERS);
    let fig6_result = fig6::from_sweep(&shared_sweep);
    let fig7_result = fig7::from_sweep(&shared_sweep);

    for &count in &config.error_counts {
        let harp = fig6_result
            .series_for(ProfilerKind::HarpU, count, 0.5)
            .unwrap();
        let naive = fig6_result
            .series_for(ProfilerKind::Naive, count, 0.5)
            .unwrap();
        let beep = fig6_result
            .series_for(ProfilerKind::Beep, count, 0.5)
            .unwrap();
        // HARP ends at full coverage.
        assert!((harp.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        // HARP dominates both baselines at every checkpoint.
        for ((_, h), (_, n)) in harp.points.iter().zip(&naive.points) {
            assert!(h + 1e-9 >= *n);
        }
        for ((_, h), (_, b)) in harp.points.iter().zip(&beep.points) {
            assert!(h + 1e-9 >= *b);
        }
        // Early-round advantage is strict: at round 1 HARP has already seen
        // every failing bit raw.
        assert!(harp.points[0].1 >= naive.points[0].1);

        let harp_boot = fig7_result.cell(ProfilerKind::HarpU, count, 0.5).unwrap();
        let naive_boot = fig7_result.cell(ProfilerKind::Naive, count, 0.5).unwrap();
        assert!(harp_boot.rounds_to_first_error.median <= naive_boot.rounds_to_first_error.median);
    }
}

#[test]
fn fig9_and_headline_shapes_harp_needs_only_sec_secondary_ecc() {
    let config = shape_config();
    let shared_sweep = sweep::run_coverage_sweep(&config, &fig9::PROFILERS);
    let fig9_result = fig9::from_sweep(&shared_sweep);

    for &count in &config.error_counts {
        for kind in [ProfilerKind::HarpU, ProfilerKind::HarpA] {
            let cell = fig9_result.cell(kind, count, 0.5).unwrap();
            let multi: f64 = cell.final_histogram.fractions[2..].iter().sum();
            assert!(multi < 1e-9, "{kind} still allows multi-bit errors");
        }
        // HARP reaches the <=1 state no later than Naive.
        let harp = fig9_result
            .rounds_to_single_error_p99(ProfilerKind::HarpU, count, 0.5)
            .unwrap();
        if let Some(naive) = fig9_result.rounds_to_single_error_p99(ProfilerKind::Naive, count, 0.5)
        {
            assert!(harp <= naive);
        }
    }

    let fig10_result = fig10::run(&config);
    let summary = headline::summarize(&config, &fig9_result, &fig10_result);
    for c in &summary.coverage {
        if let Some(ratio) = c.ratio {
            assert!(ratio <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn sweep_experiments_are_identical_across_thread_counts() {
    // Worker threads take a sweep's code groups one at a time from one
    // queue; results must not depend on which thread ran which group. A
    // single-threaded run is the reference: 3- and 8-thread runs of the
    // same sweep (and of the fig10 case study driving the same batch
    // engine) must produce identical reports, value for value and byte for
    // byte. Three threads over six groups is where hand-out and contiguous
    // chunks differ most.
    let mut config = EvaluationConfig {
        num_codes: 3,
        words_per_code: 4,
        rounds: 32,
        error_counts: vec![2, 4],
        probabilities: vec![0.5],
        ..EvaluationConfig::quick()
    };
    config.threads = 1;
    let single = sweep::run_coverage_sweep(&config, &fig6::PROFILERS);
    let single_fig10 = fig10::run_with_rbers(&config, &[0.05]);
    for threads in [3, 8] {
        config.threads = threads;
        let multi = sweep::run_coverage_sweep(&config, &fig6::PROFILERS);
        let multi_fig10 = fig10::run_with_rbers(&config, &[0.05]);

        assert_eq!(single, multi, "sweep differs at {threads} threads");
        assert_eq!(
            single_fig10, multi_fig10,
            "fig10 case study differs at {threads} threads"
        );
        // Rendered experiment reports are identical too.
        assert_eq!(
            fig6::from_sweep(&single).render(),
            fig6::from_sweep(&multi).render()
        );
        assert_eq!(single_fig10.render(), multi_fig10.render());
    }
}

#[test]
fn fig10_shape_harp_repairs_everything_and_is_fastest() {
    let config = EvaluationConfig {
        num_codes: 3,
        words_per_code: 12,
        rounds: 128,
        probabilities: vec![0.75],
        ..EvaluationConfig::quick()
    };
    let result = fig10::run_with_rbers(&config, &[0.05]);
    let harp = result.series_for(ProfilerKind::HarpU, 0.05, 0.75).unwrap();
    let naive = result.series_for(ProfilerKind::Naive, 0.05, 0.75).unwrap();
    let beep = result.series_for(ProfilerKind::Beep, 0.05, 0.75).unwrap();

    // HARP reaches zero BER after reactive profiling.
    let harp_zero = harp.rounds_to_zero_after().expect("HARP reaches zero BER");
    // Naive takes at least as long (and typically much longer).
    if let Some(naive_zero) = naive.rounds_to_zero_after() {
        assert!(harp_zero <= naive_zero)
    }
    // BEEP's final BER is no better than HARP's (the paper finds it never
    // reaches zero).
    assert!(beep.ber_after.last().unwrap().1 >= harp.ber_after.last().unwrap().1);
    // Before reactive profiling, HARP-A knows at least as much as HARP-U.
    let harp_a = result.series_for(ProfilerKind::HarpA, 0.05, 0.75).unwrap();
    assert!(harp_a.ber_before.last().unwrap().1 <= harp.ber_before.last().unwrap().1 + 1e-12);
}
