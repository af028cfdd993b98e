//! Host threads: the one door through which `std::thread` enters the
//! workspace (lint rule R2 guards it).
//!
//! The simulation's clock is virtual, but the work it charges for runs on
//! the host, and some of that work is a pure function of bytes: a phase's
//! task bodies (user code over the task's input), a DFS write's per-block
//! copy and checksum, its per-frame compression. Such work can be computed
//! on every core at once; the clock's thread then only *charges* for it,
//! in its own order. Nothing a thread's timing can vary leaves this
//! module: results come back by index, and the helpers are handed shared
//! references only.
//!
//! The helper threads are started once, the first time a call that pays
//! needs them, and park between calls. A call posts its job, runs pieces
//! on its own thread too, and returns once every helper that took a seat
//! at it has finished: waking a parked helper and waiting for it costs
//! about a third of starting and joining a thread (EXPERIMENTS.md, "Host
//! parallelism"). One call at a time has the helpers; a call from another
//! thread while one is in flight runs all its pieces itself.
//!
//! Work nests: a task body on a helper may read a DFS block, whose
//! checksum would go on the pool too. The pool's threads are all busy by
//! then, so a body already running on one of them asks for no helper and
//! does the inner work itself.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bytes of work from which helpers pay in every shape measured
/// (EXPERIMENTS.md, "Host parallelism": 2, 4 and 8 map tasks, with and
/// without a combiner, on two cores). Under it the wake and the wait
/// take what a second core would save.
// lint:allow(R9): the pool's size floor; the DFS host-pool test writes just under it
pub const MIN_BYTES: u64 = 32 * 1024;

/// What a byte of copying or checksumming weighs against [`MIN_BYTES`]:
/// both stream at gigabytes a second, so a copy or a CRC pass pays for a
/// helper only from this many times the floor (EXPERIMENTS.md, "DFS byte
/// path"). A DFS write's block fill (a copy and a CRC pass) and
/// [`Pool::concat`] count their bytes at this share, as a checksum run does.
pub const COPY_WORK_SHARE: u64 = 32;

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
    /// caller's thread and every helper.
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

/// A call's work as the helpers see it: the caller's closure, with its
/// borrow's lifetime erased by [`Dispatch::post`].
type Job = &'static (dyn Fn() + Sync);

/// Where the helpers meet a call: its job, and who sits at it.
struct Table {
    /// The job in flight; cleared when its caller has no piece left.
    job: Option<Job>,
    /// Seats at the job in flight that no helper has taken yet.
    open_seats: usize,
    /// Helpers running a job, the cleared one included.
    seated: usize,
    /// Helpers started; they park between calls and never stop.
    helpers: usize,
}

/// The pool's one table and its two wake-ups.
struct Helpers {
    table: Mutex<Table>,
    /// Helpers wait here for a seat.
    posted: Condvar,
    /// A caller waits here for its seated helpers to finish.
    drained: Condvar,
}

static HELPERS: Helpers = Helpers {
    table: Mutex::new(Table { job: None, open_seats: 0, seated: 0, helpers: 0 }),
    posted: Condvar::new(),
    drained: Condvar::new(),
};

/// The most helper seats any one call has posted, kept by test builds
/// only: the pool never holds more helpers than this.
static MOST_SEATS: AtomicUsize = AtomicUsize::new(0);

/// `m`, locked. No body runs under the pool's locks, and each update
/// under them leaves the data whole, so a poisoned lock is taken as is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A helper's life: park until a seat opens, run the job, leave the seat.
fn helper() {
    let mut table = lock(&HELPERS.table);
    loop {
        match table.job {
            Some(job) if table.open_seats > 0 => {
                table.open_seats -= 1;
                table.seated += 1;
                drop(table);
                let seat = Seat;
                job();
                drop(seat);
                table = lock(&HELPERS.table);
            }
            _ => table = HELPERS.posted.wait(table).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A helper's seat at a job, left when dropped, also if the job unwinds.
struct Seat;

impl Drop for Seat {
    fn drop(&mut self) {
        let mut table = lock(&HELPERS.table);
        table.seated -= 1;
        if table.seated == 0 {
            HELPERS.drained.notify_all();
        }
    }
}

/// A call's hold on the helpers. Dropping it — on return or on unwind —
/// clears the job and waits until every seated helper has finished.
struct Dispatch<'a> {
    /// Whether this call posted a job; if not, it has no helper to wait for.
    posted: bool,
    work: PhantomData<&'a ()>,
}

impl<'a> Dispatch<'a> {
    /// Posts `work` with up to `seats` helper seats, starting the helpers
    /// the pool lacks. Posts nothing when `seats` is 0 or another call has
    /// the helpers; the caller then runs every piece itself. A helper the
    /// OS refuses to start is a seat fewer.
    #[allow(unsafe_code)]
    fn post(work: &'a (dyn Fn() + Sync + 'a), seats: usize) -> Self {
        let mut table = lock(&HELPERS.table);
        if seats == 0 || table.job.is_some() || table.seated > 0 {
            return Dispatch { posted: false, work: PhantomData };
        }
        if cfg!(test) {
            MOST_SEATS.fetch_max(seats, Ordering::Relaxed);
        }
        // SAFETY: the helpers call `work` only between taking a seat, which
        // needs the job posted, and leaving it. The returned guard borrows
        // `work` for `'a`, and its drop clears the job (no seat is taken
        // after that) and waits until `seated` is 0 (every seat is left)
        // before the borrow can end. `post` is private to this module, and
        // its one caller, `run_indexed`, holds the guard on the stack until
        // after `work`'s last use and never leaks it, so the drop runs on
        // every path, unwinding included: `std::thread::scope`'s argument,
        // kept across calls.
        let job = unsafe { std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), Job>(work) };
        table.job = Some(job);
        let parked = seats.min(table.helpers);
        table.open_seats = parked;
        let missing = seats - parked;
        drop(table);
        for _ in 0..parked {
            HELPERS.posted.notify_one();
        }
        for _ in 0..missing {
            // lint:allow(R2): a pool helper; it runs bodies only for a call that waits for it
            if std::thread::Builder::new().name("hl-pool".into()).spawn(helper).is_err() {
                break;
            }
            let mut table = lock(&HELPERS.table);
            table.helpers += 1;
            table.open_seats += 1;
            drop(table);
            HELPERS.posted.notify_one();
        }
        Dispatch { posted: true, work: PhantomData }
    }
}

impl Drop for Dispatch<'_> {
    fn drop(&mut self) {
        if !self.posted {
            return;
        }
        let mut table = lock(&HELPERS.table);
        table.job = None;
        table.open_seats = 0;
        while table.seated > 0 {
            table = HELPERS.drained.wait(table).unwrap_or_else(PoisonError::into_inner);
        }
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
    // lint:allow(R9): the gate; the DFS host-pool test asks it of writes under the floor
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
    /// panic in a body is re-raised here once every helper that took a
    /// seat at this call has left it.
    fn run_indexed<T: Send>(&self, n: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
        // Relaxed: the counter hands out indices and publishes nothing; the
        // results travel through `done`'s lock.
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(n));
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let work = || {
            let _in_body = InBody::enter();
            let mut mine = Vec::new();
            let ran = panic::catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                mine.push((i, body(i)));
            }));
            lock(&done).append(&mut mine);
            if let Err(payload) = ran {
                lock(&panicked).get_or_insert(payload);
            }
        };
        {
            let _dispatch = Dispatch::post(&work, self.workers.min(n).saturating_sub(1));
            work();
        }
        if let Some(payload) = lock(&panicked).take() {
            panic::resume_unwind(payload);
        }
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
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
        let work = len as u64 / COPY_WORK_SHARE;
        if !self.pays(pieces.len(), work) {
            let mut out = Vec::with_capacity(len);
            for piece in pieces {
                out.extend_from_slice(piece);
            }
            return out;
        }
        let mut out = vec![0; len];
        self.fill_indexed(&mut out, pieces.iter().map(|p| p.len()), work, |i, slot| {
            slot.copy_from_slice(pieces[i]);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn on_helper() -> bool {
        std::thread::current().name() == Some("hl-pool")
    }

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

    #[test]
    fn calls_from_four_threads_each_get_their_own_results_in_order() {
        // One of the four has the helpers at a time; the others run their
        // pieces inline. A piece on a helper takes a little longer, so a
        // call that returned before its helpers finished would miss it.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for call in 0..200u64 {
                        let out = Pool::forced(3).run_indexed(6, |i| {
                            if on_helper() {
                                std::thread::sleep(Duration::from_micros(20));
                            }
                            (t, call, i)
                        });
                        let want: Vec<_> = (0..6).map(|i| (t, call, i)).collect();
                        assert_eq!(out, want, "thread {t}, call {call}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_helper_panic_is_re_raised_after_every_seated_helper_finished() {
        // A call that the helpers join: its caller's pieces wait until the
        // first piece on a helper has panicked, so the panic lands while
        // the caller still holds pieces and the other helper may be mid-piece.
        // Another test's call may hold the helpers; then this one ran
        // inline, and the scenario is tried again.
        for _ in 0..50 {
            let panicked = AtomicBool::new(false);
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let deadline = Instant::now() + Duration::from_millis(200);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::forced(3).run_indexed(12, |i| {
                    if on_helper() {
                        assert!(panicked.swap(true, Ordering::SeqCst), "helper body {i} blew up");
                        started.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        finished.fetch_add(1, Ordering::SeqCst);
                    } else {
                        while !panicked.load(Ordering::SeqCst) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                    }
                    i
                })
            }));
            if !panicked.load(Ordering::SeqCst) {
                assert_eq!(caught.expect("no body panicked"), (0..12).collect::<Vec<_>>());
                continue;
            }
            assert_eq!(
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
                "the panic came out while a helper was still running a piece"
            );
            let payload = caught.expect_err("the helper's panic must come out");
            let message = payload.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.starts_with("helper body ") && message.ends_with(" blew up"),
                "{message}"
            );
            assert_eq!(Pool::forced(3).run_indexed(5, |i| i * 2), [0, 2, 4, 6, 8]);
            return;
        }
        panic!("no call in 50 had a helper");
    }

    #[test]
    fn the_pool_never_holds_more_helpers_than_one_call_asked_for() {
        for call in 0..1000 {
            let workers = 2 + call % 3;
            let out = Pool::forced(workers).run_indexed(4, |i| i + call);
            assert_eq!(out, [call, call + 1, call + 2, call + 3]);
        }
        let helpers = lock(&HELPERS.table).helpers;
        assert!(helpers >= 1, "a call that asked for helpers started one");
        assert!(
            helpers <= MOST_SEATS.load(Ordering::Relaxed),
            "{helpers} helpers, but no call asked for more than {} seats",
            MOST_SEATS.load(Ordering::Relaxed)
        );
    }
}
