//! Deterministic parallel map for the experiment engine.
//!
//! The experiment matrix — (trace, device, solution, fraction) cells
//! and the `ext` parameter sweeps — is embarrassingly parallel: every
//! cell is an independent, seeded, pure computation. This module fans
//! cells out over scoped OS threads and reassembles results **in input
//! order**, so parallel output is byte-identical to the sequential run
//! regardless of the job count or scheduling.
//!
//! Design rules the rest of the workspace relies on:
//!
//! * Results are collected `(index, value)` and sorted by index before
//!   returning — ordering never depends on thread timing.
//! * Cell closures must be pure functions of their input (all RNG is
//!   seeded per cell); nothing here synchronizes shared mutable state.
//! * `jobs = 1` (or a single-item input) short-circuits to a plain
//!   sequential loop on the calling thread, which keeps stack traces
//!   and determinism trivially intact.
//! * A map called on a worker thread (a section that fans out its own
//!   cells, a fleet run inside a policy-matrix cell) runs inline on
//!   that worker. Only the outermost call spawns, so `--jobs N` means
//!   at most N busy threads for a whole pass, never N × N. A caller
//!   whose items each fan out a large matrix (the CSV figures) runs
//!   them one after another from the top level instead, so each
//!   matrix spreads over the pool.
//! * A top-level call with two or more jobs runs every item on a
//!   worker; the calling thread only waits and merges.
//!
//! The job count is process-global (set once from `--jobs` /
//! `HIDE_JOBS`), so deep call chains don't need a threading parameter.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the threads [`par_map_jobs`] spawns, for their lifetime.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-global job count; 0 means "auto" (available parallelism).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global job count used by [`par_map`].
///
/// `0` restores auto detection. Typically called once at startup from
/// a `--jobs N` flag; the `HIDE_JOBS` environment variable is the
/// fallback for harnesses that can't pass flags (e.g. `cargo bench`).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::SeqCst);
}

/// The job count [`par_map`] will use: the value set by
/// [`set_default_jobs`], else `HIDE_JOBS`, else available parallelism.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::SeqCst) {
        0 => std::env::var("HIDE_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        n => n,
    }
}

/// Maps `f` over `items` with the process-global job count, preserving
/// input order in the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(default_jobs(), items, |_, item| f(item))
}

/// Maps `f` over `items` on exactly `jobs` worker threads (clamped to
/// the item count; `jobs <= 1`, or a call made on a worker thread,
/// runs inline). Output order equals input order: workers pull indices
/// from a shared counter in input order, tag each result with its
/// index, and the merged results are sorted by index.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 || ON_WORKER.get() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    ON_WORKER.set(true);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });

    let mut indexed: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_jobs(7, &items, |i, &v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn job_counts_agree() {
        let items: Vec<u32> = (0..257).collect();
        let work = |_: usize, &v: &u32| {
            // Non-trivial per-item work so scheduling actually varies.
            (0..v % 97).fold(v as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        };
        let seq = par_map_jobs(1, &items, work);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(par_map_jobs(jobs, &items, work), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map_jobs(8, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map_jobs(8, &[5u8], |_, &v| v + 1), vec![6]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn nested_map_runs_in_order_on_its_worker() {
        let outer: Vec<u64> = (0..6).collect();
        let out = par_map_jobs(3, &outer, |_, &o| {
            let worker = std::thread::current().id();
            let inner: Vec<u64> = (0..50).collect();
            let nested = par_map_jobs(4, &inner, |i, &v| {
                assert_eq!(i as u64, v);
                (std::thread::current().id(), o * 100 + v)
            });
            assert!(nested.iter().all(|&(id, _)| id == worker));
            nested.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        for (o, inner) in outer.iter().zip(&out) {
            assert_eq!(*inner, (0..50).map(|v| o * 100 + v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn top_level_map_runs_no_item_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        for jobs in [2, 3, 8] {
            let ids = par_map_jobs(jobs, &items, |_, _| std::thread::current().id());
            assert!(ids.iter().all(|&id| id != caller), "jobs={jobs}");
        }
    }

    #[test]
    fn one_job_stays_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        let ids = par_map_jobs(1, &items, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
