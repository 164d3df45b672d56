//! Parallel Monte-Carlo execution.
//!
//! The paper parallelizes its simulations across compute-cluster jobs
//! (§A.7); here the same sharding happens across worker threads using
//! `std::thread::scope`. Work items are processed in deterministic order per
//! shard and results are returned in input order, so parallel and sequential
//! runs produce identical output.

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
/// thread scheduler: `items` is cut into `threads` contiguous chunks, one
/// per scoped thread. [`parallel_map`] runs through it over shared
/// references; stateful work units — e.g. resumable campaign engines
/// stepped between checkpoints — are advanced in place.
pub fn parallel_map_mut<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let worker_count = effective_threads(threads).min(items.len());
    if worker_count <= 1 {
        return items.iter_mut().map(&f).collect();
    }

    let mut results: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    let chunk_size = items.len().div_ceil(worker_count);

    std::thread::scope(|scope| {
        let mut remaining: &mut [Option<U>] = &mut results;
        for chunk in items.chunks_mut(chunk_size) {
            let (chunk_results, rest) = remaining.split_at_mut(chunk.len());
            remaining = rest;
            let f = &f;
            scope.spawn(move || {
                for (i, item) in chunk.iter_mut().enumerate() {
                    chunk_results[i] = Some(f(item));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every work item produces a result"))
        .collect()
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
    fn parallel_map_mut_handles_empty_input() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
    }
}
