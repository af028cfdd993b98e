//! Host threads for task bodies: the one door through which `std::thread`
//! enters the sim-facing crates (lint rule R2 guards it).
//!
//! The engine's clock is virtual, but the user code it charges for runs on
//! the host. A phase's task bodies are pure functions of the job and the
//! task's bytes, so when a phase opens they can be computed on every core
//! at once; the loop's thread then only *charges* for them, in whatever
//! order the scheduler launches their attempts. Nothing a thread's timing
//! can vary leaves this module: results come back by task index, and the
//! workers are handed shared references only.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads this host gives a phase's bodies. Asked once per
/// cluster: the call opens cgroup files, which a 2 ms lab job can see.
pub(crate) fn host_workers() -> usize {
    // lint:allow(R2): sizes the host pool only; no simulated quantity depends on it
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `body(i)` for every `i < n`, each exactly once, on `workers` threads of
/// which the caller is one; the results in index order. A panic in a body
/// is re-raised here once every worker has stopped.
pub(crate) fn run_indexed<T: Send>(
    workers: usize,
    n: usize,
    body: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    // Relaxed: the counter hands out indices and publishes nothing; the
    // results travel through the join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, body(i)));
        }
    };
    // lint:allow(R2): scoped workers borrow `&` state and are joined before this returns
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            match h.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_once_and_results_come_back_in_order() {
        for workers in [1, 2, 4, 9] {
            let calls = AtomicUsize::new(0);
            let out = run_indexed(workers, 7, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i * i
            });
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "{workers} workers");
            assert_eq!(calls.into_inner(), 7);
        }
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn a_body_panic_on_any_worker_is_re_raised_with_its_message() {
        for bad in [0, 5] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(3, 6, |i| assert!(i != bad, "body {i} blew up"));
            });
            let payload = caught.expect_err("the panic must come out");
            let message = payload.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(*message, format!("body {bad} blew up"));
        }
    }
}
