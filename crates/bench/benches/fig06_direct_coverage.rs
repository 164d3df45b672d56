//! Fig. 6 bench: regenerates the direct-error coverage curves (HARP-U vs.
//! Naive vs. BEEP) and times the coverage sweep. Includes the data-pattern
//! ablation (`harp_sim::experiments::ablation`).

use criterion::{criterion_group, criterion_main, Criterion};
use harp_bench::{bench_config, small_bench_config};
use harp_memsim::pattern::DataPattern;
use harp_sim::experiments::fig6;

fn bench_fig6(c: &mut Criterion) {
    let config = bench_config();
    println!("\n{}", fig6::run(&config).render());

    // Ablation: static data patterns vs. the random pattern (the paper notes
    // random performs on par or better, §7.1.2).
    for pattern in [DataPattern::Charged, DataPattern::Checkered] {
        let ablation = harp_sim::EvaluationConfig {
            pattern,
            ..small_bench_config()
        };
        println!(
            "pattern ablation ({pattern})\n{}",
            fig6::run(&ablation).render()
        );
    }

    let timing_config = small_bench_config();
    c.bench_function("fig06/coverage_sweep_three_profilers", |b| {
        b.iter(|| fig6::run(&timing_config))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig6
);
criterion_main!(benches);
