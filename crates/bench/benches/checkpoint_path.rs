//! Benchmarks the campaign checkpoint path: what freezing, serializing, and
//! thawing a sweep cell costs relative to simply running it.
//!
//! * `checkpoint_path/<code>/uninterrupted_*` — the baseline: one resumable
//!   [`BatchRun`] advanced through all rounds (the engine `harp sweep`
//!   drives between checkpoints).
//! * `checkpoint_path/<code>/freeze_*` — [`BatchRun::checkpoint`] plus the
//!   JSON encode/render of an archive group record: the per-interval cost
//!   `--checkpoint-dir` adds, minus the write syscall.
//! * `checkpoint_path/<code>/thaw_*` — parse + decode + [`BatchRun::resume`]:
//!   the one-time cost of `--resume`.
//!
//! Resumed-equals-uninterrupted is asserted before timing, so the numbers
//! describe the overhead of a correct checkpoint, not a cheaper shortcut.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use harp_bch::BchCode;
use harp_ecc::{HammingCode, LinearBlockCode};
use harp_memsim::{pattern::DataPattern, FaultModel};
use harp_profiler::{BatchRun, BatchWord, CampaignBatch, CampaignCheckpoint, ProfilerKind};
use harp_sim::minijson::{Json, JsonCodec};

/// Words per simulated sweep cell.
const CELL_WORDS: usize = 64;

/// Profiling rounds per campaign (matching `campaign_path`, so the freeze
/// cost can be read against the same cell's run cost).
const ROUNDS: usize = 16;

/// Round after which the mid-run checkpoint is taken.
const FREEZE_AT: usize = ROUNDS / 2;

fn cell<C: LinearBlockCode + Clone + Send + 'static>(code: C) -> CampaignBatch<C> {
    let n = code.codeword_len();
    CampaignBatch::new(
        code,
        (0..CELL_WORDS)
            .map(|w| {
                let at_risk = [w % n, (w + 17) % n, (w + 41) % n];
                BatchWord::new(
                    FaultModel::uniform(&at_risk[..1 + w % 3], 0.5),
                    DataPattern::Random,
                    0xC4EC_0000 + w as u64,
                )
            })
            .collect(),
    )
}

fn bench_checkpoint_path<C: LinearBlockCode + Clone + Send + 'static>(
    c: &mut Criterion,
    label: &str,
    code: C,
) {
    let batch = cell(code);

    // Correctness cross-check before timing: a thawed run finishes
    // byte-identically to the uninterrupted reference, through the full
    // JSON round trip.
    let reference = batch.run(ProfilerKind::HarpU, ROUNDS);
    let mut first = BatchRun::new(&batch, ProfilerKind::HarpU);
    first.advance(FREEZE_AT, |_, _, _| {});
    let frozen = first.checkpoint();
    let rendered = frozen.to_json().expect("no floats").render();
    let json = Json::parse(&rendered).expect("valid JSON");
    let thawed = CampaignCheckpoint::from_json(&json).expect("valid checkpoint");
    assert_eq!(thawed, frozen);
    let mut resumed = BatchRun::resume(&batch, &thawed);
    let mut expected: Vec<_> = reference
        .iter()
        .map(|result| result.snapshots[FREEZE_AT..].iter())
        .collect();
    resumed.advance(ROUNDS - FREEZE_AT, |word, profiler, _| {
        let snapshot = expected[word].next().expect("one snapshot per round");
        assert_eq!(profiler.identified(), &snapshot.identified);
    });

    let mut group = c.benchmark_group(format!("checkpoint_path/{label}"));
    group.bench_function(format!("uninterrupted_{CELL_WORDS}x{ROUNDS}"), |b| {
        b.iter(|| {
            let mut run = BatchRun::new(&batch, ProfilerKind::HarpU);
            run.advance(ROUNDS, |_, _, _| {});
            black_box(run.round())
        })
    });
    group.bench_function(format!("freeze_{CELL_WORDS}x{FREEZE_AT}"), |b| {
        b.iter(|| {
            let checkpoint = first.checkpoint();
            black_box(checkpoint.to_json().expect("no floats").render().len())
        })
    });
    group.bench_function(format!("thaw_{CELL_WORDS}x{FREEZE_AT}"), |b| {
        b.iter(|| {
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let checkpoint = CampaignCheckpoint::from_json(&parsed).expect("valid checkpoint");
            black_box(BatchRun::resume(&batch, &checkpoint).round())
        })
    });
    group.finish();
}

fn bench_checkpoints(c: &mut Criterion) {
    bench_checkpoint_path(
        c,
        "hamming_71_64",
        HammingCode::random(64, 1).expect("valid code"),
    );
    bench_checkpoint_path(c, "bch_78_64", BchCode::dec(64).expect("valid code"));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_checkpoints
);
criterion_main!(benches);
