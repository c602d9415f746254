//! Minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no network access, so this workspace ships the
//! small data-parallel subset the compiler pipeline uses: `par_iter` /
//! `into_par_iter` with an *eager* `map` + `collect`, plus [`join`]. Work is
//! distributed over `std::thread::scope` workers pulling from a shared queue;
//! results are returned in input order, so parallel stages stay
//! deterministic. For the long-running, coarse-grained closures of the leaf
//! compiler this is within noise of real work-stealing.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// True while this thread is a pool worker executing mapped items.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads for a job of `n` items.
///
/// `RAYON_NUM_THREADS` (the env var real rayon honors) caps the pool;
/// setting it to `1` forces every parallel stage through the sequential
/// in-thread path — the determinism suites compare that against the
/// default parallel path. Calls from *inside* a worker run inline (count
/// 1): real rayon reuses its global pool for nested `par_iter`s, and the
/// shim equivalent is to not multiply OS threads — e.g. the leaf
/// compiler's candidate search nested inside the per-block parallel map
/// would otherwise spawn workers × workers threads for sub-millisecond
/// solves.
///
/// The hardware thread count is read once per process (the query reads
/// cgroup files and costs tens of microseconds per call); the
/// `RAYON_NUM_THREADS` cap is read on every call, since tests set it at
/// runtime.
fn worker_count(n: usize) -> usize {
    static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let cap = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(usize::MAX);
    let hardware = *HARDWARE_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    });
    hardware.min(cap).min(n)
}

/// Applies `f` to every item on a scoped worker pool; the result vector is
/// in input order regardless of completion order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_init(items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: every worker thread calls `init`
/// once and threads the value through its items — the shim behind
/// [`ParIter::map_init`], mirroring rayon's `map_init`. Reusable workspaces
/// (solver scratch, RNGs) ride along without cross-thread sharing. `f` must
/// not let the state influence the *result* (rayon gives the same caveat),
/// only serve as scratch; results are returned in input order either way.
pub fn parallel_map_init<T, R, W, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        let mut w = init();
        return items.into_iter().map(|item| f(&mut w, item)).collect();
    }
    // LIFO queue of (original index, item); workers pull until empty.
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|flag| flag.set(true));
                let mut w = init();
                loop {
                    let next = queue.lock().expect("queue lock").pop();
                    match next {
                        Some((i, item)) => {
                            let r = f(&mut w, item);
                            results.lock().expect("results lock")[i] = Some(r);
                        }
                        None => break,
                    }
                }
            });
        }
    });
    results
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Runs both closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut rb = None;
    let ra = std::thread::scope(|scope| {
        let handle = scope.spawn(b);
        let ra = a();
        rb = Some(handle.join().expect("join closure panicked"));
        ra
    });
    (ra, rb.expect("spawned closure completed"))
}

/// An eagerly evaluated parallel iterator: `map` runs immediately on the
/// worker pool, `collect` just repackages the ordered results.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map; eager and order-preserving. Unlike real rayon there is
    /// no laziness: every item is mapped before `collect` runs, so a
    /// fallible stage (`collect::<Result<…>>`) does not short-circuit on
    /// the first error — it surfaces it only after all items complete.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Parallel map with per-worker state (rayon's `map_init`): `init` runs
    /// once per worker thread, `f` receives the worker's state and the item.
    /// Eager and order-preserving like [`ParIter::map`].
    pub fn map_init<W, I, R, F>(self, init: I, f: F) -> ParIter<R>
    where
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, T) -> R + Sync,
    {
        ParIter {
            items: parallel_map_init(self.items, init, f),
        }
    }

    /// Collects the (already computed) results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type of the parallel iterator.
    type Item: Send;

    /// Consumes `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Conversion into a [`ParIter`] over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;

    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

pub mod prelude {
    //! One-stop import, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{join, parallel_map};

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..100)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_refs() {
        let data = vec![1u64, 2, 3, 4];
        let out: Vec<u64> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(data.len(), 4, "borrowing iteration leaves the vec alive");
    }

    #[test]
    fn collect_into_result_yields_first_error_after_mapping_all() {
        let out: Result<Vec<usize>, String> = (0..10)
            .collect::<Vec<usize>>()
            .into_par_iter()
            .map(|x| {
                if x == 7 {
                    Err("seven".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(out, Err("seven".to_string()));
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        let ids: Vec<std::thread::ThreadId> = parallel_map((0..64).collect(), |_: usize| {
            // Hold the thread long enough for others to pick up work.
            std::thread::sleep(std::time::Duration::from_millis(2));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        if std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            > 1
        {
            assert!(distinct.len() > 1, "expected work on >1 thread");
        }
    }

    #[test]
    fn map_init_threads_worker_state_and_preserves_order() {
        let out: Vec<(usize, usize)> = (0..50usize)
            .into_par_iter()
            .map_init(
                || 0usize,
                |calls, x| {
                    *calls += 1;
                    (x * 3, *calls)
                },
            )
            .collect();
        for (i, &(tripled, calls)) in out.iter().enumerate() {
            assert_eq!(tripled, i * 3);
            assert!(calls >= 1, "worker state must have been initialized");
        }
    }

    #[test]
    fn nested_parallel_maps_stay_correct_and_inline() {
        // The inner par_iter runs inline when its caller is already a pool
        // worker (no thread multiplication); results must be unaffected.
        let out: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|x| {
                let inner: Vec<usize> = (0..4usize).into_par_iter().map(|y| y + x).collect();
                inner.iter().sum()
            })
            .collect();
        assert_eq!(out, (0..8).map(|x| 4 * x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn ranges_are_parallel_iterable() {
        let out: Vec<usize> = (3..8usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![4, 5, 6, 7, 8]);
        let empty: Vec<usize> = (5..5usize).into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn empty_and_single_item_jobs() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<usize> = vec![9].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![10]);
    }
}
