//! `coverage_sweep`: one `run_coverage_sweep` over the five profilers Figs.
//! 6–9 compare, rendered through the four figures. This is the
//! figure-regeneration path: campaign, ground truth and scoring do nearly
//! all the work, and checkpoint and wire do none.
//!
//! The traced run replays the sweep through the same public steps
//! `run_coverage_sweep` and `CampaignBatch::run` take, with a span around
//! each layer call, and first asserts that the replay's campaign results
//! equal `CampaignBatch::run` byte for byte.

use std::hint::black_box;
use std::time::Instant;

use harp_memsim::{BurstScratch, MemoryChip};
use harp_profiler::{
    BatchWord, CampaignBatch, CampaignResult, CoverageSeries, Profiler, ProfilerKind,
    ProfilingCampaign, RoundSnapshot,
};
use harp_sim::experiments::sweep::{run_coverage_sweep, CoverageSweep, WordEvaluation};
use harp_sim::experiments::{fig6, fig7, fig8, fig9};
use harp_sim::runner::{effective_threads, parallel_map};
use harp_sim::sample::{group_by_code, sample_words_with, shard_groups, WordSample};
use harp_sim::EvaluationConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::{describe, median, peak_rss_mb};
use crate::trace::{self, Recorder, OP};
use crate::{make_code, measure_setup, nproc, steps, timed_loop, Args, Outcome, MIN_OPS};

/// Code groups per sweep cell, and the most threads the sweep uses: one
/// whole group of 128 words per thread, so `shard_groups` never splits a
/// group below the bit-sliced kernel's 64-word blocks and the counts stay
/// the same on any core count.
const NUM_CODES: usize = 2;

/// Words per code group, as in `EvaluationConfig::paper_scale`.
const WORDS_PER_CODE: usize = 128;

/// Words re-run through the scalar reference for the output check.
const CHECKED_WORDS: usize = 6;

/// The salt `ProfilingCampaign` and `CampaignBatch` mix into a word's seed
/// for its fault-injection stream. The replay needs it to draw the same
/// errors; the byte-for-byte check catches any drift.
const CAMPAIGN_RNG_SALT: u64 = 0x5EED_CAFE_F00D;

const PROFILERS: [ProfilerKind; 5] = fig8::PROFILERS;

/// The paper's grid (2–5 errors × 25–100 %, 128 rounds) at the given seed.
fn config(seed: u64, threads: usize) -> EvaluationConfig {
    EvaluationConfig {
        num_codes: NUM_CODES,
        words_per_code: WORDS_PER_CODE,
        base_seed: seed,
        threads,
        ..EvaluationConfig::quick()
    }
}

/// A miniature of `config` that set-up runs once, so the allocator and code
/// paths are warm before timing and work moved into set-up shows there. Its
/// seed is fixed, so set-up does the same work whatever the run's seed.
pub fn warm_up(config: &EvaluationConfig) -> EvaluationConfig {
    EvaluationConfig {
        base_seed: EvaluationConfig::quick().base_seed,
        num_codes: 2,
        words_per_code: 4,
        rounds: 8,
        error_counts: vec![2],
        probabilities: vec![0.5],
        ..config.clone()
    }
}

fn render(sweep: &CoverageSweep) -> String {
    [
        fig6::from_sweep(sweep).render(),
        fig7::from_sweep(sweep).render(),
        fig8::from_sweep(sweep).render(),
        fig9::from_sweep(sweep).render(),
    ]
    .concat()
}

/// Scalar-reference series for a seeded sample of words, with the index of
/// each word's first evaluation in the sweep.
struct Reference {
    expected_evaluations: usize,
    words: Vec<(usize, Vec<WordEvaluation>)>,
}

impl Reference {
    fn new(config: &EvaluationConfig, seed: u64) -> Self {
        let cells: Vec<(usize, f64)> = config
            .error_counts
            .iter()
            .flat_map(|&e| config.probabilities.iter().map(move |&p| (e, p)))
            .collect();
        let words_total = config.words_total();
        let mut pick = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FF_EE00_5EED);
        let words = (0..CHECKED_WORDS)
            .map(|_| {
                let cell = (rand::RngCore::next_u64(&mut pick) % cells.len() as u64) as usize;
                let word = (rand::RngCore::next_u64(&mut pick) % words_total as u64) as usize;
                let (error_count, probability) = cells[cell];
                let samples = sample_words_with(
                    config,
                    error_count,
                    probability,
                    make_code(config.data_bits),
                );
                let sample = &samples[word];
                let campaign = ProfilingCampaign::new(
                    sample.code.clone(),
                    sample.faults.clone(),
                    config.pattern,
                    sample.campaign_seed,
                );
                let space = campaign.error_space();
                let evaluations = PROFILERS
                    .iter()
                    .map(|&profiler| {
                        let mut instance = profiler.instantiate(
                            &sample.code,
                            config.pattern,
                            sample.campaign_seed,
                        );
                        let result = campaign.run_profiler(instance.as_mut(), config.rounds);
                        WordEvaluation {
                            error_count,
                            probability,
                            profiler,
                            series: CoverageSeries::from_campaign(&result, &space),
                        }
                    })
                    .collect();
                ((cell * words_total + word) * PROFILERS.len(), evaluations)
            })
            .collect();
        Self {
            expected_evaluations: cells.len() * words_total * PROFILERS.len(),
            words,
        }
    }

    fn check(&self, sweep: &CoverageSweep, rendered: &str) -> bool {
        !rendered.is_empty()
            && sweep.profilers == PROFILERS
            && sweep.evaluations.len() == self.expected_evaluations
            && self.words.iter().all(|(start, expected)| {
                sweep.evaluations[*start..*start + expected.len()] == expected[..]
            })
    }
}

/// Exact per-sweep counts from the traced replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    words: u64,
    error_space_calls: u64,
    snapshots_produced: u64,
    snapshots_scored: u64,
    bursts: u64,
    burst_words: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.words += other.words;
        self.error_space_calls += other.error_space_calls;
        self.snapshots_produced += other.snapshots_produced;
        self.snapshots_scored += other.snapshots_scored;
        self.bursts += other.bursts;
        self.burst_words += other.burst_words;
    }
}

fn run_span(kind: ProfilerKind) -> &'static str {
    match kind {
        ProfilerKind::HarpA => "profiler.batch.run.harp_a",
        ProfilerKind::HarpU => "profiler.batch.run.harp_u",
        ProfilerKind::Naive => "profiler.batch.run.naive",
        ProfilerKind::Beep => "profiler.batch.run.beep",
        ProfilerKind::HarpABeep => "profiler.batch.run.harp_a_beep",
        ProfilerKind::HarpS => "profiler.batch.run.harp_s",
    }
}

fn run_metric(kind: ProfilerKind) -> &'static str {
    match kind {
        ProfilerKind::HarpA => "profiler.batch.run_s.harp_a",
        ProfilerKind::HarpU => "profiler.batch.run_s.harp_u",
        ProfilerKind::Naive => "profiler.batch.run_s.naive",
        ProfilerKind::Beep => "profiler.batch.run_s.beep",
        ProfilerKind::HarpABeep => "profiler.batch.run_s.harp_a_beep",
        ProfilerKind::HarpS => unreachable!("HARP-S is not in the Fig. 8 lineup"),
    }
}

/// `CampaignBatch::run` replayed step by step, one span per step and round.
fn replay_batch_run(
    batch: &CampaignBatch,
    kind: ProfilerKind,
    rounds: usize,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Vec<CampaignResult> {
    let count = batch.len();
    let mut profilers: Vec<Box<dyn Profiler>> = batch
        .words()
        .iter()
        .map(|word| kind.instantiate(batch.code(), word.pattern, word.seed))
        .collect();
    let mut chip = MemoryChip::new(batch.code().clone(), count);
    for (slot, word) in batch.words().iter().enumerate() {
        chip.set_fault_model(slot, word.faults.clone());
    }
    let mut rngs: Vec<ChaCha8Rng> = batch
        .words()
        .iter()
        .map(|word| ChaCha8Rng::seed_from_u64(word.seed ^ CAMPAIGN_RNG_SALT))
        .collect();
    let mut scratch = BurstScratch::with_capacity(count);
    let mut snapshots: Vec<Vec<RoundSnapshot>> =
        (0..count).map(|_| Vec::with_capacity(rounds)).collect();
    for round in 0..rounds {
        let span = rec.enter("profiler.dataword");
        let data: Vec<_> = profilers
            .iter_mut()
            .map(|profiler| profiler.dataword_for_round(round))
            .collect();
        rec.exit(span);

        let span = rec.enter("memsim.chip.write");
        for (slot, word) in data.iter().enumerate() {
            chip.write_in_place(slot, word);
        }
        rec.exit(span);

        let span = rec.enter("memsim.chip.read_burst");
        let observations = chip.read_burst_with_rngs(0..count, &mut rngs, &mut scratch);
        rec.exit(span);
        counts.bursts += 1;
        counts.burst_words += count as u64;

        let span = rec.enter("profiler.observe");
        for (profiler, observation) in profilers.iter_mut().zip(observations) {
            profiler.observe_round(round, observation);
        }
        rec.exit(span);

        let span = rec.enter("profiler.snapshot");
        for (profiler, word_snapshots) in profilers.iter().zip(snapshots.iter_mut()) {
            word_snapshots.push(RoundSnapshot {
                round,
                identified: profiler.identified().clone(),
                predicted: profiler.predicted(),
            });
        }
        rec.exit(span);
    }
    counts.snapshots_produced += (count * rounds) as u64;
    profilers
        .iter()
        .zip(snapshots)
        .map(|(profiler, word_snapshots)| CampaignResult {
            profiler: profiler.name().to_owned(),
            snapshots: word_snapshots,
        })
        .collect()
}

/// One code group of one cell, as `run_coverage_sweep` evaluates it.
fn replay_group(
    group: &[WordSample],
    config: &EvaluationConfig,
    cell: (usize, f64),
    rec: &mut Recorder,
    verify: bool,
) -> (Vec<WordEvaluation>, Counts) {
    let mut counts = Counts::default();
    let batch = CampaignBatch::new(
        group[0].code.clone(),
        group
            .iter()
            .map(|sample| {
                BatchWord::new(sample.faults.clone(), config.pattern, sample.campaign_seed)
            })
            .collect(),
    );
    let spaces: Vec<_> = rec.span("ecc.error_space.enumerate", |_| {
        (0..batch.len())
            .map(|word| batch.error_space(word))
            .collect()
    });
    counts.words += batch.len() as u64;
    counts.error_space_calls += batch.len() as u64;
    let mut per_word: Vec<Vec<CoverageSeries>> = vec![Vec::new(); batch.len()];
    for &kind in &PROFILERS {
        let span = rec.enter(run_span(kind));
        let results = replay_batch_run(&batch, kind, config.rounds, rec, &mut counts);
        rec.exit(span);
        if verify {
            assert_eq!(
                results,
                batch.run(kind, config.rounds),
                "the traced replay diverged from CampaignBatch::run"
            );
        }
        rec.span("profiler.coverage.score", |_| {
            for ((result, space), series) in results.iter().zip(&spaces).zip(per_word.iter_mut()) {
                series.push(CoverageSeries::from_campaign(result, space));
            }
        });
        counts.snapshots_scored += results
            .iter()
            .map(|r| r.snapshots.len() as u64)
            .sum::<u64>();
    }
    let evaluations = per_word
        .into_iter()
        .flat_map(|series| {
            PROFILERS
                .iter()
                .zip(series)
                .map(|(&profiler, series)| WordEvaluation {
                    error_count: cell.0,
                    probability: cell.1,
                    profiler,
                    series,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    (evaluations, counts)
}

/// The traced sweep: `run_coverage_sweep` and the figure renders, replayed
/// with spans. Returns the sweep, its render, the counts and, per
/// `parallel_map` region, each worker chunk's busy time.
fn replay_sweep(
    config: &EvaluationConfig,
    rec: &mut Recorder,
    verify: bool,
) -> (CoverageSweep, String, Counts, Vec<Vec<f64>>) {
    let op = rec.enter(OP);
    let mut counts = Counts::default();
    let mut evaluations = Vec::new();
    let mut chunk_times = Vec::new();
    let threads = effective_threads(config.threads);
    for &error_count in &config.error_counts {
        for &probability in &config.probabilities {
            let samples = rec.span("sim.sample.population", |_| {
                sample_words_with(
                    config,
                    error_count,
                    probability,
                    make_code(config.data_bits),
                )
            });
            let items: Vec<(usize, &[WordSample])> = shard_groups(group_by_code(&samples), threads)
                .into_iter()
                .enumerate()
                .collect();
            let region = rec.enter("sim.runner.parallel_map");
            let per_item = {
                let parent: &Recorder = rec;
                parallel_map(&items, config.threads, |&(index, group)| {
                    let mut worker = parent.worker(1 + index as u32);
                    let start = Instant::now();
                    let (evals, counts) = worker.span("sim.runner.shard", |worker| {
                        replay_group(group, config, (error_count, probability), worker, verify)
                    });
                    (evals, counts, worker, start.elapsed().as_secs_f64())
                })
            };
            // `parallel_map` hands each worker a contiguous chunk of
            // `ceil(items / workers)` items.
            let workers = threads.min(items.len()).max(1);
            let chunk = items.len().div_ceil(workers);
            let mut busy = vec![0.0; workers];
            for (index, (evals, group_counts, worker, seconds)) in per_item.into_iter().enumerate()
            {
                evaluations.extend(evals);
                counts.add(group_counts);
                rec.adopt(worker);
                busy[index / chunk] += seconds;
            }
            rec.exit(region);
            chunk_times.push(busy);
        }
    }
    let sweep = CoverageSweep {
        rounds: config.rounds,
        error_counts: config.error_counts.clone(),
        probabilities: config.probabilities.clone(),
        profilers: PROFILERS.to_vec(),
        evaluations,
    };
    let rendered = rec.span("sim.experiments.render", |_| render(&sweep));
    rec.exit(op);
    (sweep, rendered, counts, chunk_times)
}

/// Slowest chunk over mean chunk, summed over regions so long regions
/// weigh more.
fn straggler_ratio(regions: &[Vec<f64>]) -> f64 {
    let slowest: f64 = regions
        .iter()
        .map(|busy| busy.iter().copied().fold(0.0, f64::max))
        .sum();
    let mean: f64 = regions
        .iter()
        .map(|busy| busy.iter().sum::<f64>() / busy.len() as f64)
        .sum();
    slowest / mean
}

/// One timed sweep and its output check; returns the timed wall.
fn untraced_op(config: &EvaluationConfig, reference: &Reference, outcome: &mut Outcome) -> f64 {
    let start = Instant::now();
    let sweep = run_coverage_sweep(config, &PROFILERS);
    let rendered = render(&sweep);
    let wall = start.elapsed().as_secs_f64();
    outcome.record(reference.check(&sweep, &rendered));
    wall
}

/// Runs the workload and returns its metrics.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let (setup_s, config) = measure_setup(|| {
        let config = config(args.seed, nproc().min(NUM_CODES));
        black_box(render(&run_coverage_sweep(&warm_up(&config), &PROFILERS)));
        config
    });
    let reference_start = Instant::now();
    let reference = Reference::new(&config, args.seed);
    eprintln!(
        "scalar reference for {CHECKED_WORDS} words: {:.3} s (untimed)",
        reference_start.elapsed().as_secs_f64()
    );
    eprintln!(
        "process start to first timed operation: {:.4} s",
        started.elapsed().as_secs_f64()
    );

    if !args.trace {
        let walls = timed_loop(args.seconds, MIN_OPS, |_| {
            untraced_op(&config, &reference, &mut outcome)
        });
        let peak = peak_rss_mb();
        eprintln!("{}", describe("wall_s", "s", &walls));
        outcome.set("setup_s", setup_s);
        outcome.set("wall_s", median(&walls));
        outcome.set(
            "steps_per_s",
            steps(&config, PROFILERS.len()) as f64 * walls.len() as f64 / walls.iter().sum::<f64>(),
        );
        outcome.set("peak_rss_mb", peak);
        return outcome;
    }

    // One verifying pass first: the replay must equal `CampaignBatch::run`.
    let (sweep, rendered, expected_counts, _) = replay_sweep(&config, &mut Recorder::new(), true);
    outcome.record(reference.check(&sweep, &rendered));

    // Untraced and traced sweeps alternate, so drift in the host's speed
    // cancels out of the tracing overhead.
    let mut rec = Recorder::new();
    let mut regions = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    timed_loop(args.seconds, 2 * MIN_OPS, |index| {
        if index % 2 == 0 {
            let wall = untraced_op(&config, &reference, &mut outcome);
            untraced.push(wall);
            wall
        } else {
            let start = Instant::now();
            let (sweep, rendered, counts, chunks) = replay_sweep(&config, &mut rec, false);
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(
                counts, expected_counts,
                "counts differ between repeated sweeps"
            );
            outcome.record(reference.check(&sweep, &rendered));
            regions.extend(chunks);
            traced.push(wall);
            wall
        }
    });

    // Counts must not depend on the thread count.
    let single = EvaluationConfig {
        threads: 1,
        ..config.clone()
    };
    let (sweep, rendered, single_counts, _) = replay_sweep(&single, &mut Recorder::new(), false);
    assert_eq!(
        single_counts, expected_counts,
        "counts differ across thread counts"
    );
    outcome.record(reference.check(&sweep, &rendered));

    let ops = traced.len();
    let (rows, total_s) = trace::rows(&rec, ops);
    let accounted = trace::print_table("coverage_sweep: self time per sweep", &rows, total_s);
    let self_s = |name: &str| {
        rows.iter()
            .find(|row| row.layer == name)
            .map_or(0.0, |row| row.per_op_s)
    };
    for kind in PROFILERS {
        outcome.set(run_metric(kind), rec.inclusive(run_span(kind)) / ops as f64);
    }
    let c = expected_counts;
    outcome.set("sim.sample.population_s", self_s("sim.sample.population"));
    outcome.set(
        "ecc.error_space.enumerate_s",
        self_s("ecc.error_space.enumerate"),
    );
    outcome.set("ecc.error_space.calls", c.error_space_calls as f64);
    outcome.set(
        "ecc.error_space.calls_per_word",
        c.error_space_calls as f64 / c.words as f64,
    );
    outcome.set("profiler.dataword_s", self_s("profiler.dataword"));
    outcome.set("memsim.chip.write_s", self_s("memsim.chip.write"));
    outcome.set("memsim.chip.read_burst_s", self_s("memsim.chip.read_burst"));
    outcome.set("profiler.observe_s", self_s("profiler.observe"));
    outcome.set("profiler.snapshot_s", self_s("profiler.snapshot"));
    outcome.set(
        "memsim.chip.words_per_burst",
        c.burst_words as f64 / c.bursts as f64,
    );
    outcome.set(
        "profiler.coverage.score_s",
        self_s("profiler.coverage.score"),
    );
    outcome.set(
        "profiler.coverage.snapshots_scored",
        c.snapshots_scored as f64,
    );
    outcome.set(
        "profiler.coverage.scored_per_produced",
        c.snapshots_scored as f64 / c.snapshots_produced as f64,
    );
    outcome.set("sim.experiments.render_s", self_s("sim.experiments.render"));
    outcome.set("sim.runner.straggler_ratio", straggler_ratio(&regions));
    outcome.set("steps", steps(&config, PROFILERS.len()) as f64);
    outcome.set("trace.overhead_s", median(&traced) - median(&untraced));
    outcome.set("trace.accounted_share", accounted);
    outcome.set("trace.unaccounted_s", self_s("unaccounted"));
    eprintln!("{}", describe("untraced wall_s", "s", &untraced));
    eprintln!("{}", describe("traced wall_s", "s", &traced));
    outcome
}
