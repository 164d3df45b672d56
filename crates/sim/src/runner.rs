//! Parallel Monte-Carlo execution.
//!
//! The paper parallelizes its simulations across compute-cluster jobs
//! (§A.7); here the same work runs across worker threads using
//! `std::thread::scope`. Workers take items one at a time from a shared
//! queue, so one region can span items of unequal cost (a sweep's code
//! groups differ by cell) without a worker idling behind a slow chunk.
//! Results come back in input order, so parallel and sequential runs
//! produce identical output.

use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` using `threads` worker threads (0 = one per
/// available CPU), preserving input order in the output.
///
/// # Example
///
/// ```
/// let squares = harp_sim::runner::parallel_map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut refs: Vec<&T> = items.iter().collect();
    parallel_map_mut(&mut refs, threads, |item| f(item))
}

/// Maps `f` over mutable `items` using `threads` worker threads (0 = one per
/// available CPU), preserving input order in the output. This is the one
/// thread scheduler: each worker (the calling thread and `threads - 1`
/// scoped threads) takes the next unclaimed item from a shared queue until
/// none is left, and `f` runs exactly once per item.
/// [`parallel_map`] runs through it over shared references; stateful work
/// units — e.g. resumable campaign engines stepped between checkpoints —
/// are advanced in place.
pub fn parallel_map_mut<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let worker_count = effective_threads(threads).min(items.len());
    if worker_count <= 1 {
        return items.iter_mut().map(&f).collect();
    }

    let queue = Mutex::new(items.iter_mut().enumerate());
    // A claim locks the queue only until it returns, so `f` runs unlocked.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || -> Vec<(usize, U)> {
        std::iter::from_fn(claim)
            .map(|(index, item)| (index, f(item)))
            .collect()
    };
    // The calling thread is one of the workers, so a region spawns one
    // thread fewer and starts work at once.
    let mut results = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..worker_count).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for worker in workers {
            let done = worker.join();
            results.extend(done.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        results
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Resolves a thread-count setting (0 = one per available CPU).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled.len(), 1000);
        for (i, &v) in doubled.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let items: Vec<u64> = (0..257).collect();
        let sequential = parallel_map(&items, 1, |&x| x.wrapping_mul(0x9E3779B9));
        let parallel = parallel_map(&items, 8, |&x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(&[7], 16, |&x| x + 1), vec![8]);
    }

    #[test]
    fn effective_threads_resolves_zero_to_cpu_count() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_map_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<usize> = (0..100).collect();
        let previous = parallel_map_mut(&mut items, 4, |x| {
            let old = *x;
            *x += 1;
            old
        });
        assert_eq!(previous, (0..100).collect::<Vec<_>>());
        assert_eq!(items, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_mut_matches_sequential() {
        let mut sequential: Vec<u64> = (0..257).collect();
        let mut parallel = sequential.clone();
        let step = |x: &mut u64| {
            *x = x.wrapping_mul(0x9E3779B9);
            *x
        };
        assert_eq!(
            parallel_map_mut(&mut sequential, 1, step),
            parallel_map_mut(&mut parallel, 8, step)
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn uneven_items_run_once_each_and_come_back_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        // Every tenth item costs 100 times the others.
        let items: Vec<u64> = (0..40).collect();
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let work = |&x: &u64| {
            calls[x as usize].fetch_add(1, Ordering::SeqCst);
            let micros = if x % 10 == 0 { 5_000 } else { 50 };
            std::thread::sleep(Duration::from_micros(micros));
            x.wrapping_mul(0x9E3779B9)
        };
        let parallel = parallel_map(&items, 3, work);
        assert!(calls.iter().all(|count| count.load(Ordering::SeqCst) == 1));
        assert_eq!(parallel, parallel_map(&items, 1, work));
    }

    #[test]
    fn parallel_map_mut_handles_empty_input() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
    }
}
