//! The sweep fabric: a work-stealing executor for `(spec, seed)` cell jobs.
//!
//! * The job list is an **immutable, pre-filled range** `0..n_jobs`, split
//!   into one contiguous block per worker (front-loaded remainder, so
//!   blocks differ by at most one job). Jobs are never added mid-run, only
//!   taken, so a block that was once empty stays empty.
//! * Each block is a `Mutex<Range<usize>>`. The owner takes from the back
//!   (`next_back`), a thief from the front (`next`); the lock is held only
//!   for that one take, never while a job runs. A worker whose own block
//!   runs dry visits every other block once, in rotating order
//!   (`(me + k) % workers`), and drains it: a take under the lock never
//!   fails spuriously, and emptiness is permanent, so one pass finds every
//!   remaining job.
//! * Results come back as worker-local `Vec<(job_index, T)>`s, merged and
//!   sorted by job index after the scope joins — **no shared result
//!   collection at all**, and the caller sees deterministic job order no
//!   matter which worker ran which cell.
//!
//! The take order is kept for more than correctness: it decides which cells
//! run side by side, and with them a sweep's peak memory.
//!
//! Determinism: each job is a pure function of its index (a cell run is a
//! pure function of `(spec, seed)`), so stealing reorders *execution* but
//! not *results*. A worker panic propagates after the scope joins (the
//! original payload is resumed), so no record is silently lost.

use std::ops::Range;
use std::sync::Mutex;

/// Takes one job from `block`: the owner from the back, a thief from the
/// front. The guard drops on return, so no job ever runs under the lock.
fn take(block: &Mutex<Range<usize>>, thief: bool) -> Option<usize> {
    // Jobs run outside the lock and `Range` steps cannot panic, so the lock
    // is never poisoned.
    let mut range = block.lock().expect("a fabric block lock is never poisoned");
    if thief {
        range.next()
    } else {
        range.next_back()
    }
}

/// Runs `f(0), f(1), …, f(n_jobs - 1)` across `workers` threads with
/// work stealing, and returns the results **in job order** — exactly what a
/// sequential `(0..n_jobs).map(f).collect()` returns, whatever the thread
/// count.
///
/// Each worker drains its own block back to front, then steals from the
/// front of the others. With `workers <= 1` the fabric is bypassed entirely
/// and the jobs run inline on the calling thread.
///
/// # Panics
/// If any job panics, the panic payload is re-raised on the calling thread
/// after all workers have joined — results are never partially returned.
pub fn run_indexed<T, F>(n_jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let workers = workers.min(n_jobs);

    // Contiguous blocks: the first `extra` workers get one more job.
    let base = n_jobs / workers;
    let extra = n_jobs % workers;
    let mut start = 0;
    let blocks: Vec<Mutex<Range<usize>>> = (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            start += len;
            Mutex::new(start - len..start)
        })
        .collect();

    let mut out: Vec<(usize, T)> = Vec::with_capacity(n_jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let blocks = &blocks;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    while let Some(j) = take(&blocks[me], false) {
                        local.push((j, f(j)));
                    }
                    for k in 1..workers {
                        while let Some(j) = take(&blocks[(me + k) % workers], true) {
                            local.push((j, f(j)));
                        }
                    }
                    local
                })
            })
            .collect();
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => out.extend(local),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    debug_assert_eq!(out.len(), n_jobs);
    out.sort_unstable_by_key(|&(j, _)| j);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_map_for_every_worker_count() {
        for n_jobs in [0usize, 1, 2, 7, 64, 1000] {
            let expect: Vec<usize> = (0..n_jobs).map(|j| j * 3 + 1).collect();
            for workers in [1usize, 2, 4, 8, 13] {
                let got = run_indexed(n_jobs, workers, |j| j * 3 + 1);
                assert_eq!(got, expect, "n_jobs={n_jobs} workers={workers}");
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        const N: usize = 500;
        let counts: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(N, 8, |j| {
            counts[j].fetch_add(1, Ordering::SeqCst);
        });
        for (j, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {j}");
        }
    }

    #[test]
    fn stealing_is_exercised_under_skewed_load() {
        // Make the first block's jobs slow: the other workers must steal to
        // finish in any reasonable time, and results must still be ordered.
        const N: usize = 64;
        let got = run_indexed(N, 8, |j| {
            if j < N / 8 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            j
        });
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(32, 4, |j| {
                if j == 17 {
                    panic!("job 17 exploded");
                }
                j
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 17 exploded");
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(run_indexed(3, 16, |j| j), vec![0, 1, 2]);
    }
}
