//! Host threads: the one door through which `std::thread` enters the
//! workspace (lint rule R2 guards it).
//!
//! The simulation's clock is virtual, but the work it charges for runs on
//! the host, and some of that work is a pure function of bytes: a phase's
//! task bodies (user code over the task's input), a DFS write's per-block
//! copy and checksum, its per-frame compression. Such work can be computed
//! on every core at once; the clock's thread then only *charges* for it,
//! in its own order. Nothing a thread's timing can vary leaves this
//! module: results come back by index, and the workers are handed shared
//! references only.
//!
//! Work nests: a task body on a worker may read a DFS block, whose
//! checksum would go on the pool too. The pool's threads are all busy by
//! then, so a body already running on one of them starts no more threads
//! and does the inner work itself.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Bytes of work from which threads pay in every shape measured
/// (EXPERIMENTS.md, "Host parallelism": by 22 % or more on two cores, for
/// 2, 4 and 8 map tasks, with and without a combiner; "DFS byte path" for
/// a write's blocks and frames). Starting the threads costs tens of
/// microseconds — around 32 KiB that is the whole gain — and the first
/// thread a process starts moves glibc's `malloc` off its single-threaded
/// path for good, so work under the floor never starts one.
// lint:allow(R9): the pool's size floor; the DFS host-pool test writes just under it
pub const MIN_BYTES: u64 = 128 * 1024;

/// Bytes per piece of [`Pool::concat`]'s copy: a few hundred microseconds
/// of copying, so that two workers share even a file of one block.
const COPY_BYTES: usize = 1024 * 1024;

/// How many workers a piece of work may use, and from what size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
    min_bytes: u64,
}

thread_local! {
    /// Set while this thread runs bodies for [`Pool::run_indexed`]: the
    /// caller's thread and every worker.
    static IN_BODY: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running pool bodies until dropped, also
/// when a body unwinds; restores what was there before.
struct InBody(bool);

impl InBody {
    fn enter() -> Self {
        InBody(IN_BODY.replace(true))
    }
}

impl Drop for InBody {
    fn drop(&mut self) {
        IN_BODY.set(self.0);
    }
}

impl Pool {
    /// This host's pool: one worker per CPU the process may run on, for
    /// work of [`MIN_BYTES`] or more. The CPU count is asked once per
    /// process: the call opens cgroup files, which a 2 ms lab job can see.
    pub fn host() -> Self {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            // lint:allow(R2): sizes the host pool only; no simulated quantity depends on it
            std::thread::available_parallelism().map_or(1, |n| n.get())
        });
        Pool { workers, min_bytes: MIN_BYTES }
    }

    /// Test seam: `workers` threads whatever this host has and however
    /// small the work (1 = never a thread). Only the `#[doc(hidden)]`
    /// seams of `MrCluster` and `Dfs`, and the corpus generator's tests,
    /// build one.
    #[doc(hidden)]
    pub fn forced(workers: usize) -> Self {
        Pool { workers, min_bytes: 0 }
    }

    /// Whether `n` independent pieces over `bytes` of input are worth
    /// threads here. When not, the caller does the work itself, where and
    /// when it would have without a pool. Never inside a body the pool is
    /// already running: its threads are taken.
    pub fn pays(&self, n: usize, bytes: u64) -> bool {
        self.workers > 1 && n > 1 && bytes >= self.min_bytes && !IN_BODY.get()
    }

    /// `body(i)` for every `i < n` in index order: on this pool's threads
    /// when `n` pieces over `bytes` of input pay for them, else one after
    /// another right here.
    pub fn map_indexed<T: Send>(
        &self,
        n: usize,
        bytes: u64,
        body: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        if self.pays(n, bytes) {
            self.run_indexed(n, body)
        } else {
            (0..n).map(body).collect()
        }
    }

    /// `body(i)` for every `i < n`, each exactly once, on this pool's
    /// threads of which the caller is one; the results in index order. A
    /// panic in a body is re-raised here once every worker has stopped.
    pub fn run_indexed<T: Send>(&self, n: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
        // Relaxed: the counter hands out indices and publishes nothing; the
        // results travel through the join.
        let next = AtomicUsize::new(0);
        let work = || {
            let _in_body = InBody::enter();
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
            let helpers: Vec<_> = (1..self.workers.min(n)).map(|_| s.spawn(work)).collect();
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

    /// `body(i, slice)` for each of the consecutive slices of `buf` whose
    /// lengths `lens` gives, as [`map_indexed`](Self::map_indexed) runs its
    /// pieces over `bytes` of input; the results in index order. The
    /// caller allocates `buf`, so a large buffer lands in its thread's
    /// `malloc` arena and not in a worker's, which would keep it between
    /// calls (EXPERIMENTS.md, "DFS byte path").
    ///
    /// # Panics
    /// If the lengths add up to more than `buf` holds.
    pub fn fill_indexed<T: Send, R: Send>(
        &self,
        buf: &mut [T],
        lens: impl IntoIterator<Item = usize>,
        bytes: u64,
        body: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Vec<R> {
        let mut rest = buf;
        let slices: Vec<Mutex<&mut [T]>> = lens
            .into_iter()
            .map(|len| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                Mutex::new(head)
            })
            .collect();
        self.map_indexed(slices.len(), bytes, |i| {
            let mut slice = slices[i].lock().expect("each slice is filled once");
            body(i, &mut slice)
        })
    }

    /// `parts` back to back in one buffer with no spare capacity. The
    /// buffer is allocated here and, when that pays, filled on this pool's
    /// threads in pieces of at most [`COPY_BYTES`]: where the memory is
    /// fresh, touching it costs a page fault per 4 KiB, and the faults
    /// are then taken on every core. Else the parts are copied in here.
    pub fn concat<P: AsRef<[u8]>>(&self, parts: &[P]) -> Vec<u8> {
        let pieces: Vec<&[u8]> = parts.iter().flat_map(|p| p.as_ref().chunks(COPY_BYTES)).collect();
        let len: usize = pieces.iter().map(|p| p.len()).sum();
        if !self.pays(pieces.len(), len as u64) {
            let mut out = Vec::with_capacity(len);
            for piece in pieces {
                out.extend_from_slice(piece);
            }
            return out;
        }
        let mut out = vec![0; len];
        self.fill_indexed(&mut out, pieces.iter().map(|p| p.len()), len as u64, |i, slot| {
            slot.copy_from_slice(pieces[i]);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_once_and_results_come_back_in_order() {
        for workers in [1, 2, 4, 9] {
            let calls = AtomicUsize::new(0);
            let out = Pool::forced(workers).run_indexed(7, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i * i
            });
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "{workers} workers");
            assert_eq!(calls.into_inner(), 7);
        }
        assert!(Pool::forced(4).run_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn a_body_panic_on_any_worker_is_re_raised_with_its_message() {
        for bad in [0, 5] {
            let caught = std::panic::catch_unwind(|| {
                Pool::forced(3).run_indexed(6, |i| assert!(i != bad, "body {i} blew up"));
            });
            let payload = caught.expect_err("the panic must come out");
            let message = payload.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(*message, format!("body {bad} blew up"));
        }
    }

    #[test]
    fn work_under_the_floor_or_without_a_second_piece_or_core_is_not_worth_threads() {
        let two_cores = Pool { workers: 2, min_bytes: MIN_BYTES };
        assert!(two_cores.pays(2, MIN_BYTES));
        assert!(!two_cores.pays(2, MIN_BYTES.saturating_sub(1)), "under the floor");
        assert!(!two_cores.pays(1, u64::MAX), "one piece");
        assert!(!Pool { workers: 1, min_bytes: MIN_BYTES }.pays(8, u64::MAX), "one core");
        // The seam has no floor, and one forced worker is the caller alone.
        assert!(Pool::forced(2).pays(2, 0));
        assert!(!Pool::forced(1).pays(2, u64::MAX));
        assert_eq!(Pool::host().min_bytes, MIN_BYTES);
    }

    #[test]
    fn work_that_does_not_pay_runs_on_the_callers_thread_in_order() {
        let here = std::thread::current().id();
        let two_cores = Pool { workers: 2, min_bytes: MIN_BYTES };
        let ran_on = two_cores
            .map_indexed(6, MIN_BYTES.saturating_sub(1), |i| (i, std::thread::current().id()));
        assert_eq!(ran_on, (0..6).map(|i| (i, here)).collect::<Vec<_>>());
        // At the floor the same six pieces are shared out; still in order.
        let shared = two_cores.map_indexed(6, MIN_BYTES, |i| i);
        assert_eq!(shared, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_body_on_a_worker_runs_its_own_pieces_on_its_own_thread() {
        let on_own_thread = Pool::forced(3).run_indexed(4, |_| {
            let mine = std::thread::current().id();
            assert!(!Pool::host().pays(8, u64::MAX), "no pool pays inside a body");
            let inner = Pool::forced(3).map_indexed(5, u64::MAX, |_| std::thread::current().id());
            inner.iter().all(|&ran_on| ran_on == mine)
        });
        assert_eq!(on_own_thread, [true; 4]);
        // The caller's thread ran bodies too, and is a caller again after.
        assert!(Pool::forced(2).pays(2, 0));
        // Also after a body unwound on it.
        let caught = std::panic::catch_unwind(|| Pool::forced(1).run_indexed(1, |_| panic!("out")));
        assert!(caught.is_err());
        assert!(Pool::forced(2).pays(2, 0));
    }

    #[test]
    fn concat_copies_every_part_in_order_on_any_pool() {
        let long: Vec<u8> = (0..3 * COPY_BYTES + 5).map(|i| (i % 251) as u8).collect();
        let parts: [&[u8]; 4] = [b"ab", &[], &long, b"c"];
        let want = parts.concat();
        for pool in [Pool::forced(1), Pool::forced(2), Pool::forced(5), Pool::host()] {
            let out = pool.concat(&parts);
            assert!(out == want, "{pool:?}");
            assert_eq!(out.capacity(), out.len(), "no spare room");
        }
        assert!(Pool::forced(3).concat::<&[u8]>(&[]).is_empty());
    }

    #[test]
    fn fill_indexed_hands_each_piece_its_own_slice() {
        for pool in [Pool::forced(1), Pool::forced(3)] {
            let mut buf = vec![0u32; 10];
            let lens = pool.fill_indexed(&mut buf, [3, 0, 4, 2], 0, |i, slice| {
                slice.fill(i as u32 + 1);
                slice.len()
            });
            assert_eq!(lens, [3, 0, 4, 2]);
            assert_eq!(buf, [1, 1, 1, 3, 3, 3, 3, 4, 4, 0], "{pool:?}");
        }
    }
}
