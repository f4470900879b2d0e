//! A small work-stealing runner for embarrassingly parallel sweeps.
//!
//! Every experiment is a list of independent, deterministic simulation runs
//! (seeds, user populations, CPU masks, replica counts …). [`map`] executes
//! such a list on a pool of scoped OS threads: each worker owns a deque,
//! pops work from its own front, and steals from the *back* of a neighbour
//! when it runs dry — long-running points (large user counts, big masks) at
//! the tail of a sweep migrate to idle workers instead of serializing behind
//! a busy one.
//!
//! Determinism: parallelism changes only *when* a point runs, never *what*
//! it computes (each simulation is single-threaded and seeded), and results
//! are returned in input order. `repro --jobs 8` therefore produces
//! byte-identical reports to `--jobs 1`.
//!
//! The worker count comes from [`set_jobs`] (the `repro --jobs N` flag);
//! the default is the machine's available parallelism. [`with_jobs`] pins
//! it for one thread instead, so sweeps at different worker counts can run
//! side by side in one process. `jobs <= 1` runs the closure inline on the
//! caller's thread with no pool at all.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configured worker count; 0 means "not set, use available parallelism".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the sweep-runner worker count process-wide (0 restores the default).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

thread_local! {
    /// Worker count pinned by [`with_jobs`] on this thread; 0 means "none".
    static PINNED_JOBS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with the worker count pinned to `n` on the calling thread,
/// overriding [`set_jobs`]. The pin follows the sweep onto its pool
/// workers, so nested [`map`] calls see it too.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let outer = PINNED_JOBS.replace(n.max(1));
    let out = f();
    PINNED_JOBS.set(outer);
    out
}

/// The effective worker count: [`with_jobs`] if pinned, else [`set_jobs`]
/// if set, else the machine's available parallelism (1 if that cannot be
/// determined).
pub fn jobs() -> usize {
    match (PINNED_JOBS.get(), JOBS.load(Ordering::SeqCst)) {
        (0, 0) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        (0, n) | (n, _) => n,
    }
}

/// Applies `f` to every item, in parallel, returning results in input order.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // Round-robin initial distribution: every worker starts with work
    // immediately, and adjacent (similar-cost) points land on different
    // workers.
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .get_mut()
            .expect("fresh queue lock")
            .push_back((i, item));
    }
    let queues = &queues;
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let results = &results;
    let f = &f;
    let pinned = PINNED_JOBS.get();
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                PINNED_JOBS.set(pinned);
                loop {
                    let mut task = queues[w].lock().expect("queue lock").pop_front();
                    if task.is_none() {
                        // Own deque dry: steal the oldest item of a neighbour.
                        for off in 1..workers {
                            let victim = (w + off) % workers;
                            task = queues[victim].lock().expect("queue lock").pop_back();
                            if task.is_some() {
                                break;
                            }
                        }
                    }
                    match task {
                        Some((i, item)) => {
                            *results[i].lock().expect("result lock") = Some(f(item));
                        }
                        None => break,
                    }
                }
            });
        }
    });
    results
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("result lock")
                .take()
                .expect("every item was executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_with_more_items_than_workers_and_vice_versa() {
        set_jobs(3);
        let out = map((0..17).collect(), |i: u64| i + 1);
        assert_eq!(out, (1..18).collect::<Vec<_>>());
        let out = map(vec![5u64], |i| i);
        assert_eq!(out, vec![5]);
        set_jobs(0);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |i: u64| {
            // A little real computation so workers interleave.
            (0..1000).fold(i, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        set_jobs(1);
        let seq = map((0..64).collect(), work);
        set_jobs(8);
        let par = map((0..64).collect(), work);
        set_jobs(0);
        assert_eq!(seq, par);
    }

    #[test]
    fn pinned_jobs_override_the_global_and_reach_nested_sweeps() {
        let nested = |_: u32| map(vec![0u8; 4], |_| jobs());
        let one = with_jobs(1, || map(vec![0u32; 4], nested));
        let three = with_jobs(3, || map(vec![0u32; 4], nested));
        assert!(one.iter().flatten().all(|&n| n == 1), "{one:?}");
        assert!(three.iter().flatten().all(|&n| n == 3), "{three:?}");
    }

    #[test]
    fn steals_drain_uneven_queues() {
        // One huge item first: with 2 workers the other 15 items must all
        // complete via the second worker plus steals, not behind the big one.
        set_jobs(2);
        let out = map((0..16).collect(), |i: u64| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        });
        set_jobs(0);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
