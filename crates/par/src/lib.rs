//! # mpvl-par — a zero-dependency scoped thread pool
//!
//! Shared-nothing data parallelism for the workspace, built entirely on
//! `std::thread::scope`. The design constraints, in order:
//!
//! 1. **Determinism.** Results are placed by input index, so the output of
//!    [`parallel_map_with`] is identical for every thread count — including
//!    the inline single-thread fallback — and the chunks of
//!    [`parallel_for_chunks_with_init`] depend only on the input length and
//!    the worker count. Callers (the AC sweep, the blocked triangular
//!    solves, benches) rely on bit-identical serial/parallel output.
//! 2. **Hermeticity.** No registry dependencies; scoped threads mean no
//!    `'static` bounds, so borrowed matrices and closures pass straight in.
//! 3. **Per-worker state.** Numeric factorization workers need preallocated
//!    workspaces; both primitives hand each worker its own state built
//!    once per thread (or chunk), not once per item.
//!
//! The default thread count honours the `MPVL_THREADS` environment
//! variable (useful for benchmarking scaling curves and for forcing the
//! single-thread fallback in CI) and otherwise uses
//! [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use mpvl_par::{parallel_map_with, thread_count};
//! let squares = parallel_map_with(thread_count(), &[1u64, 2, 3, 4], |_| (), |(), _, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The worker count used by the env-driven entry points.
///
/// Inside a [`with_threads`] scope this is the scope's count, on the
/// calling thread only. Otherwise `MPVL_THREADS` (a positive integer)
/// overrides the detected hardware parallelism; `MPVL_THREADS=1` forces
/// the inline single-thread fallback. Unset or unparsable values fall
/// back to [`std::thread::available_parallelism`] (1 if even that fails).
///
/// The environment is read **once per process** and cached: callers of
/// the env-driven entry points never race a concurrent
/// `std::env::set_var` (mutating the environment from a multi-threaded
/// test harness is undefined behaviour on POSIX), and every pool
/// invocation in one run sees the same worker count. Tests that need a
/// specific count wrap the call in [`with_threads`] (or pass it to
/// [`parallel_map_with`]) or test the pure parser [`thread_count_from`]
/// instead of mutating the env.
pub fn thread_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    SCOPED.with(Cell::get).unwrap_or_else(|| {
        *CACHED.get_or_init(|| thread_count_from(std::env::var("MPVL_THREADS").ok().as_deref()))
    })
}

thread_local! {
    /// The innermost [`with_threads`] count on this thread, if any.
    static SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with [`thread_count`] returning `threads` (at least 1) on
/// the calling thread, then restores the previous value — also when `f`
/// unwinds. Scopes nest (the innermost wins). Threads spawned inside the
/// scope, pool workers included, do not inherit it and read the
/// process-wide count, so nested parallel calls behave as they would
/// outside any scope.
///
/// This is how a caller picks the worker count of an env-driven entry
/// point such as `mpvl_sim::ac_sweep` or `ReductionSession::eval_batch`:
///
/// ```
/// let n = mpvl_par::with_threads(3, mpvl_par::thread_count);
/// assert_eq!(n, 3);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Pure form of the [`thread_count`] policy: `spec` is the value of
/// `MPVL_THREADS` (or `None` when unset). A positive integer wins;
/// anything else falls back to the detected hardware parallelism (1 if
/// even that fails).
pub fn thread_count_from(spec: Option<&str>) -> usize {
    spec.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on `threads` workers, each with its own state;
/// output order matches input order regardless of scheduling. Pass
/// [`thread_count`] for the env-driven worker count.
///
/// `init(w)` runs once on worker `w` (0-based) to build its private state —
/// typically a preallocated numeric workspace — and `f(&mut state, i,
/// &items[i])` is then called for every item the worker claims. Items are
/// claimed dynamically (an atomic counter), so uneven per-item cost load-
/// balances; results are still reassembled in input order.
///
/// `threads <= 1`, an empty input, or a single item all take the inline
/// path: no threads are spawned and `f` runs on the caller's stack with
/// `init(0)`'s state, in input order.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map_with<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let mut state = init(0);
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let harvests: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mpvl-par worker panicked"))
            .collect()
    });
    for harvest in harvests {
        for (i, r) in harvest {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Splits `data` into one contiguous chunk per worker (`threads`
/// workers) and runs `f(&mut state, offset, chunk)` on each, where
/// `offset` is the chunk's start index in `data`.
///
/// `init(ci)` runs once on the worker handling chunk `ci` (0-based chunk
/// index) to build its private state — typically a preallocated numeric
/// workspace — and `f(&mut state, offset, chunk)` then processes the
/// whole chunk with it. Chunk boundaries depend only on `data.len()` and
/// `threads` (ceiling division), never on scheduling, so which items a
/// state instance sees is deterministic. `threads <= 1` runs
/// `f(&mut init(0), 0, data)` inline without spawning.
///
/// This is the coarse-granularity counterpart of [`parallel_map_with`]:
/// one `init` and one `f` call per *chunk* instead of one `f` call per
/// item, which keeps expensive per-worker setup (and any per-item
/// amortization inside `f`) out of a hot per-item path.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_for_chunks_with_init<T, S, I, F>(threads: usize, data: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let n = data.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        f(&mut init(0), 0, data);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, slice) in data.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || f(&mut init(ci), ci * chunk, slice));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 300] {
            let got = parallel_map_with(threads, &items, |_| (), |(), _, &x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_order_under_skewed_load() {
        // Early items are much more expensive; dynamic scheduling will
        // finish them last, but output order must not change.
        let items: Vec<usize> = (0..64).collect();
        let got = parallel_map_with(
            4,
            &items,
            |_| (),
            |(), _, &i| {
                let spin = if i < 4 { 20_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                (i, acc)
            },
        );
        for (slot, (i, _)) in got.iter().enumerate() {
            assert_eq!(slot, *i);
        }
    }

    #[test]
    fn per_worker_state_is_private_and_reused() {
        // Each worker gets one scratch buffer built by `init`; `f` dirties
        // it on every item. Correct output proves the state is per-worker
        // (no cross-thread sharing) and safely reusable across items.
        let items: Vec<usize> = (0..100).collect();
        let got = parallel_map_with(
            3,
            &items,
            |w| (w, vec![0u64; 32]),
            |(_, scratch), _, &x| {
                for (k, v) in scratch.iter_mut().enumerate() {
                    *v = (x + k) as u64;
                }
                scratch.iter().sum::<u64>()
            },
        );
        let expect: Vec<u64> = items
            .iter()
            .map(|&x| (0..32).map(|k| (x + k) as u64).sum())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_with(8, &empty, |_| (), |(), _, &x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[7u8], |_| (), |(), _, &x| x), vec![7]);
        assert_eq!(
            parallel_map_with(thread_count(), &[1u8, 2], |_| (), |(), _, &x| x + 1),
            vec![2, 3]
        );
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        for threads in [1, 2, 3, 5, 16] {
            let mut data = vec![usize::MAX; 41];
            parallel_for_chunks_with_init(
                threads,
                &mut data,
                |_| (),
                |(), offset, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        assert_eq!(*v, usize::MAX, "index visited twice");
                        *v = offset + k;
                    }
                },
            );
            let expect: Vec<usize> = (0..41).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunk_init_runs_once_per_chunk_with_the_chunk_index() {
        for threads in [1, 2, 3, 5, 16] {
            let mut data = vec![(usize::MAX, usize::MAX); 41];
            parallel_for_chunks_with_init(
                threads,
                &mut data,
                |ci| (ci, 0usize),
                |(ci, count), offset, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *count += 1;
                        *v = (*ci, offset + k);
                    }
                    assert_eq!(*count, chunk.len(), "state reused across items");
                },
            );
            let chunk = 41usize.div_ceil(threads.min(41));
            for (i, &(ci, idx)) in data.iter().enumerate() {
                assert_eq!(idx, i, "threads={threads}");
                assert_eq!(ci, i / chunk, "threads={threads}");
            }
        }
    }

    #[test]
    fn thread_count_spec_parsing_is_pure() {
        // The override policy is tested through the pure parser — no
        // `std::env::set_var` (racy under the multi-threaded harness).
        assert_eq!(thread_count_from(Some("3")), 3);
        assert_eq!(thread_count_from(Some(" 8 ")), 8, "whitespace trimmed");
        let fallback = thread_count_from(None);
        assert!(fallback >= 1);
        assert_eq!(thread_count_from(Some("0")), fallback, "0 is invalid");
        assert_eq!(thread_count_from(Some("not-a-number")), fallback);
        assert_eq!(thread_count_from(Some("-2")), fallback);
        assert_eq!(thread_count_from(Some("")), fallback);
    }

    #[test]
    fn thread_count_is_cached_and_stable() {
        // Whatever the process environment says, the cached value is
        // positive and identical across calls (one env read per process).
        let first = thread_count();
        assert!(first >= 1);
        assert_eq!(thread_count(), first);
    }

    #[test]
    fn with_threads_overrides_the_calling_thread() {
        let global = thread_count();
        assert_eq!(with_threads(5, thread_count), 5);
        assert_eq!(thread_count(), global, "restored after return");
    }

    #[test]
    fn with_threads_is_restored_after_a_panic() {
        let global = thread_count();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || {
                assert_eq!(thread_count(), 7);
                panic!("unwinding out of the scope");
            })
        });
        assert!(caught.is_err());
        assert_eq!(thread_count(), global);
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        with_threads(2, || {
            assert_eq!(with_threads(6, thread_count), 6);
            assert_eq!(thread_count(), 2, "outer scope restored");
        });
    }

    #[test]
    fn with_threads_does_not_reach_spawned_threads() {
        let global = thread_count();
        let seen = with_threads(global + 3, || {
            std::thread::scope(|s| s.spawn(thread_count).join().unwrap())
        });
        assert_eq!(seen, global);
    }

    #[test]
    fn with_threads_zero_means_one() {
        assert_eq!(with_threads(0, thread_count), 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let _ = parallel_map_with(
            2,
            &items,
            |_| (),
            |(), _, &x| {
                assert!(x != 9, "worker panicked on purpose");
                x
            },
        );
    }
}
