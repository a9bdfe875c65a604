//! Minimal data-parallel map over scoped threads.
//!
//! The codec's hot loops — combining payloads for many peers, decoding many
//! independent 1 MB chunks — are embarrassingly parallel: every work item
//! reads shared immutable state and produces an owned result. This crate
//! provides exactly that shape and nothing more: [`map`] and [`try_map`],
//! both running on [`std::thread::scope`] so borrowed inputs need no `'static` bound and no
//! runtime or thread pool has to be managed.
//!
//! Work is split into one contiguous range per worker, which keeps results
//! in input order for free and matches the codec's workloads (items of
//! near-equal cost). The calling thread is the first worker — it runs the
//! first range itself instead of sleeping in `join` — so `w` workers cost
//! `w − 1` spawns. Worker count comes from
//! [`std::thread::available_parallelism`], overridable with the
//! `ASYMSHARE_THREADS` environment variable; with one core (or one item)
//! everything runs inline on the caller's thread with zero overhead.
//!
//! # Example
//!
//! ```rust
//! let squares = asymshare_par::map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// Environment variable overriding the worker count (a positive integer).
pub const THREADS_ENV: &str = "ASYMSHARE_THREADS";

/// The number of worker threads parallel maps will use: the
/// [`THREADS_ENV`] override if set and valid, otherwise the machine's
/// available parallelism (1 if that cannot be determined).
pub fn max_threads() -> usize {
    let detected = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    threads_from_env(std::env::var(THREADS_ENV).ok().as_deref(), detected)
}

/// Resolves the worker count from an optional override string, falling back
/// to `detected` when the override is absent or not a positive integer.
fn threads_from_env(var: Option<&str>, detected: usize) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(detected)
}

/// Applies `f` to every index in `0..n` and returns the results in index
/// order, fanning out across up to [`max_threads`] scoped threads.
///
/// Each worker owns one contiguous index range, so ordering costs nothing
/// and items of similar cost balance well; the caller runs the first range.
/// A panic in any worker propagates to the caller after the scope joins.
fn map_indices<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let per_worker = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let start = w * per_worker;
                let end = (start + per_worker).min(n);
                scope.spawn(move || (start..end).map(f).collect::<Vec<U>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        out.extend((0..per_worker).map(f));
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Runs `f` over disjoint contiguous sub-slices of `data` in parallel — the
/// first on the calling thread, one scoped thread for each of the others —
/// splitting into at most `max_slices` pieces (further capped by
/// [`max_threads`] and `data.len()`).
///
/// Each invocation gets the starting index of its slice within `data`, so
/// position-dependent work (e.g. filling a bitmask keyed by global index, or
/// stepping the allocator's peer shards) needs no extra bookkeeping. Because
/// the slices are disjoint `&mut` borrows, the result is deterministic
/// regardless of thread scheduling. A panic in any worker propagates after
/// the scope joins.
pub fn for_each_slice_mut<T, F>(data: &mut [T], max_slices: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let workers = max_threads().min(max_slices).min(n);
    if workers <= 1 {
        if n > 0 {
            f(0, data);
        }
        return;
    }
    let per_worker = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        let (first, mut rest) = data.split_at_mut(per_worker);
        let mut start = per_worker;
        while !rest.is_empty() {
            let take = per_worker.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let base = start;
            handles.push(scope.spawn(move || f(base, head)));
            start += take;
            rest = tail;
        }
        f(0, first);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Applies `f` to every item of `items` in parallel, preserving order.
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_indices(items.len(), |i| f(&items[i]))
}

/// Like [`map`] for fallible work: runs every item to completion, then
/// returns the first error in *input* order (deterministic regardless of
/// thread scheduling) or all results.
///
/// # Errors
///
/// The error of the lowest-indexed failing item.
pub fn try_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    map_indices(items.len(), |i| f(&items[i]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let got = map_indices(n, |i| i * 3);
            let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn first_range_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = map_indices(64, |_| std::thread::current().id());
        assert_eq!(ids[0], me);
        assert_eq!(ids[63] != me, max_threads() > 1, "later ranges are spawned");

        let mut ids = vec![me; 64];
        for_each_slice_mut(&mut ids, 64, |base, chunk| {
            assert_eq!(base == 0, std::thread::current().id() == me);
            chunk.fill(std::thread::current().id());
        });
        assert_eq!(ids[0], me);
        assert_eq!(ids[63] != me, max_threads() > 1, "later slices are spawned");
    }

    #[test]
    fn map_over_borrowed_items() {
        let words = ["alpha", "bravo", "charlie"];
        assert_eq!(map(&words, |w| w.len()), vec![5, 5, 7]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_indices(257, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(calls.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn try_map_returns_first_error_by_index() {
        let items: Vec<usize> = (0..100).collect();
        let got: Result<Vec<usize>, usize> =
            try_map(&items, |&i| if i % 30 == 29 { Err(i) } else { Ok(i) });
        assert_eq!(got, Err(29), "lowest failing index wins");
        let ok: Result<Vec<usize>, usize> = try_map(&items, |&i| Ok(i));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(threads_from_env(None, 8), 8);
        assert_eq!(threads_from_env(Some("4"), 8), 4);
        assert_eq!(threads_from_env(Some(" 2 "), 8), 2);
        assert_eq!(threads_from_env(Some("0"), 8), 8, "zero is invalid");
        assert_eq!(threads_from_env(Some("lots"), 8), 8, "junk is ignored");
    }

    #[test]
    fn for_each_slice_mut_covers_everything_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for slices in [1usize, 2, 3, 16, 1000] {
                let mut data = vec![0u32; n];
                for_each_slice_mut(&mut data, slices, |base, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v += (base + off) as u32 + 1;
                    }
                });
                let want: Vec<u32> = (0..n as u32).map(|i| i + 1).collect();
                assert_eq!(data, want, "n={n} slices={slices}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "slice worker panicked")]
    fn for_each_slice_mut_propagates_panics() {
        // Unconditional so the propagation path is exercised whether the
        // work runs inline (single core) or on scoped threads.
        let mut data = vec![0u8; 64];
        for_each_slice_mut(&mut data, 8, |_, _| panic!("slice worker panicked"));
    }

    #[test]
    #[should_panic(expected = "last slice panicked")]
    fn for_each_slice_mut_propagates_a_spawned_panic() {
        // Only the slice holding the last element panics: a spawned worker
        // whenever there is more than one, while the caller's own slice
        // returns normally.
        let mut data = vec![0u8; 64];
        for_each_slice_mut(&mut data, 8, |base, chunk| {
            if base + chunk.len() == 64 {
                panic!("last slice panicked");
            }
        });
    }

    #[test]
    #[should_panic(expected = "worker 63 panicked")]
    fn spawned_worker_panics_propagate() {
        // Index 63 is in the last range, index 3 below in the caller's.
        map_indices(64, |i| {
            if i == 63 {
                panic!("worker 63 panicked");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "worker 3 panicked")]
    fn worker_panics_propagate() {
        map_indices(8, |i| {
            if i == 3 {
                panic!("worker 3 panicked");
            }
            i
        });
    }
}
