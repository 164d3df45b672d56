//! Steady-state allocation guards for the burst read path and the scoring
//! step.
//!
//! `BurstScratch` grows geometrically and `clear()` keeps capacity, so a
//! campaign that alternates burst sizes (module line reads vs. controller
//! scrub ranges) must stop allocating once its scratch has seen each size
//! once. This test pins that down with a counting global allocator: after a
//! warm-up pass over both burst sizes, whole alternating read bursts run
//! with **zero** heap allocations for every code family. A coverage series
//! adds a change point only when a round's scores change, so scoring a
//! round that changed nothing allocates nothing either; and a whole
//! campaign round in which no profiler finds a new bit (dataword, write,
//! burst, observe, and the sweep's scoring step) allocates nothing.
//!
//! The tests live in their own integration-test binary because the counting
//! allocator is process-global; it counts per thread, so tests running
//! side by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use harp_bch::BchCode;
use harp_ecc::analysis::FailureDependence;
use harp_ecc::{ErrorSpace, ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_gf2::BitVec;
use harp_memsim::pattern::DataPattern;
use harp_memsim::{BurstScratch, FaultModel, MemoryChip};
use harp_profiler::{BatchRun, BatchWord, CampaignBatch, CoverageSeries, Profiler, ProfilerKind};

/// Counts every allocation and reallocation the current thread makes
/// through the global allocator (deallocations are not counted: freeing is
/// fine, *acquiring* in the steady state is the regression this test guards
/// against).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Scrub-range burst size (the large shape).
const LARGE_BURST: usize = 384;
/// Module line-read burst size (the small shape).
const SMALL_BURST: usize = 48;

/// A chip with a mix of clean, single-error, and multi-error words, so the
/// steady-state pass exercises every decode branch (clean short-circuit,
/// correction, detected-uncorrectable).
fn seeded_chip<C: LinearBlockCode>(code: C) -> MemoryChip<C> {
    let n = code.codeword_len();
    let k = code.data_len();
    let mut chip = MemoryChip::new(code, LARGE_BURST);
    let mut rng = ChaCha8Rng::seed_from_u64(0xA110C);
    for word in 0..LARGE_BURST {
        let data: BitVec = (0..k).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect();
        chip.write(word, &data);
        if word % 4 == 0 {
            let at_risk = [word % n, (word * 13 + 7) % n, (word * 29 + 3) % n];
            chip.set_fault_model(word, FaultModel::uniform(&at_risk[..1 + word % 3], 0.5));
        }
    }
    chip
}

fn alternating_bursts<C: LinearBlockCode>(
    chip: &MemoryChip<C>,
    rng: &mut ChaCha8Rng,
    scratch: &mut BurstScratch,
    rounds: usize,
) -> usize {
    let mut corrected = 0;
    for _ in 0..rounds {
        for range in [0..LARGE_BURST, 0..SMALL_BURST] {
            corrected += chip
                .read_burst(range, rng, scratch)
                .iter()
                .map(|o| o.decode_result().outcome.correction_count())
                .sum::<usize>();
        }
    }
    corrected
}

fn assert_steady_state<C: LinearBlockCode>(
    label: &str,
    chip: &MemoryChip<C>,
    rng: &mut ChaCha8Rng,
    scratch: &mut BurstScratch,
) {
    // Warm up: let the scratch and every observation's decode buffers reach
    // their steady-state capacity for both burst shapes.
    alternating_bursts(chip, rng, scratch, 2);

    let before = allocations();
    let corrected = alternating_bursts(chip, rng, scratch, 8);
    let after = allocations();
    assert!(corrected > 0, "{label}: decode branches not exercised");
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state bursts performed heap allocations"
    );

    // `clear()` drops contents but keeps capacity, so the next burst after
    // a clear is still allocation-free.
    scratch.clear();
    let before = allocations();
    alternating_bursts(chip, rng, scratch, 1);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: burst after clear() re-allocated"
    );
}

#[test]
fn steady_state_bursts_do_not_allocate() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut scratch = BurstScratch::new();
    let hamming = seeded_chip(HammingCode::random(64, 1).expect("valid code"));
    assert_steady_state("hamming", &hamming, &mut rng, &mut scratch);
    let secded = seeded_chip(ExtendedHammingCode::random(64, 1).expect("valid code"));
    assert_steady_state("secded", &secded, &mut rng, &mut scratch);
    let bch = seeded_chip(BchCode::dec(64).expect("valid code"));
    assert_steady_state("bch", &bch, &mut rng, &mut scratch);
}

/// After warm-up, scoring a round whose three scores equal the last
/// round's adds no change point, so `push_round` allocates nothing.
#[test]
fn unchanged_rounds_score_without_allocating() {
    let code = HammingCode::random(64, 5).expect("valid code");
    let space = ErrorSpace::enumerate(&code, &[3, 19, 42, 61], FailureDependence::TrueCell);
    let mut series = CoverageSeries::new("HARP-U", &space);
    let empty = BTreeSet::new();
    let found: BTreeSet<usize> = space.direct_at_risk().iter().take(1).copied().collect();
    series.push_round(&space, &empty, &empty);
    series.push_round(&space, &found, &empty);

    let before = allocations();
    for _ in 0..64 {
        series.push_round(&space, &found, &empty);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "unchanged rounds allocated");
    assert_eq!((series.rounds(), series.points().len()), (66, 2));
}

/// Adds one round to a word's series as the sweep's group unit does: scored
/// when the profile changed or the series is empty, unscored otherwise.
fn score_round(
    series: &mut CoverageSeries,
    space: &ErrorSpace,
    profiler: &dyn Profiler,
    changed: bool,
) {
    if changed || series.is_empty() {
        series.push_round(space, profiler.identified(), &profiler.predicted());
    } else {
        series.push_unchanged();
    }
}

/// Runs `kind` over a small cell of `code` words, one `advance(1)` at a
/// time after a warm-up, and asserts that every round in which no word's
/// profile changed made zero allocations. Returns how many such rounds ran.
///
/// Debug builds check every `write_in_place` against a full `encode`, which
/// allocates; there the round may make exactly those allocations, one
/// `encode` per word, and nothing else.
fn assert_quiet_rounds_allocate_nothing<C: LinearBlockCode + Clone + Send + 'static>(
    code: C,
    kind: ProfilerKind,
) -> usize {
    let label = format!("{kind} on {}", code.description());
    let per_encode = {
        let data = BitVec::zeros(code.data_len());
        let before = allocations();
        drop(code.encode(&data));
        allocations() - before
    };
    let batch = CampaignBatch::new(
        code,
        vec![
            BatchWord::new(FaultModel::uniform(&[3, 40], 1.0), DataPattern::Random, 1),
            BatchWord::new(FaultModel::uniform(&[7], 0.5), DataPattern::Random, 2),
            BatchWord::new(FaultModel::none(), DataPattern::Random, 3),
            BatchWord::new(
                FaultModel::uniform(&[1, 20, 50], 0.75),
                DataPattern::Random,
                4,
            ),
        ],
    );
    let spaces: Vec<ErrorSpace> = (0..batch.len())
        .map(|word| batch.error_space(word))
        .collect();
    let mut series: Vec<CoverageSeries> = spaces
        .iter()
        .map(|space| CoverageSeries::new(kind.name(), space))
        .collect();
    let mut run = BatchRun::new(&batch, kind);
    run.advance(64, |word, profiler, changed| {
        score_round(&mut series[word], &spaces[word], profiler, changed);
    });

    let write_checks = if cfg!(debug_assertions) {
        batch.len() * per_encode
    } else {
        0
    };
    let mut quiet = 0;
    for _ in 0..64 {
        let mut changed_any = false;
        let before = allocations();
        run.advance(1, |word, profiler, changed| {
            changed_any |= changed;
            score_round(&mut series[word], &spaces[word], profiler, changed);
        });
        let allocated = allocations() - before;
        if !changed_any {
            assert_eq!(
                allocated, write_checks,
                "{label}: a round that changed nothing allocated"
            );
            quiet += 1;
        }
    }
    quiet
}

/// After warm-up, a whole `BatchRun::advance` round whose profilers find no
/// new bit allocates nothing: the dataword is built in the run's one
/// buffer, written in place, read in one burst, observed through
/// iterators, and added to each series unscored. Checked for each of the
/// five Fig. 8 kinds (BEEP and HARP-A+BEEP craft in those rounds) and
/// HARP-S (which reconstructs raw errors from a normal read) on Hamming
/// and SEC-DED.
#[test]
fn unchanged_campaign_rounds_allocate_nothing() {
    for kind in [
        ProfilerKind::HarpU,
        ProfilerKind::Naive,
        ProfilerKind::Beep,
        ProfilerKind::HarpA,
        ProfilerKind::HarpABeep,
        ProfilerKind::HarpS,
    ] {
        let hamming = HammingCode::random(64, 3).expect("valid code");
        let secded = ExtendedHammingCode::random(64, 3).expect("valid code");
        for quiet in [
            assert_quiet_rounds_allocate_nothing(hamming, kind),
            assert_quiet_rounds_allocate_nothing(secded, kind),
        ] {
            assert!(
                quiet >= 32,
                "{kind}: only {quiet} of 64 rounds changed nothing"
            );
        }
    }
}
