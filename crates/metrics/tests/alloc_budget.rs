//! Touching an existing instrument allocates nothing.
//!
//! Every DataNode block write bumps a counter by `(&str, &str)`, and every
//! NameNode RPC and heartbeat through a handle resolved once; building the
//! two key `String`s per touch would be two allocations on each of them.
//! Strings are built once, when an instrument's slot is made.
//!
//! One test, because the counter is process-wide: a second test on
//! another thread would be counted into this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hl_common::SimTime;
use hl_metrics::MetricsRegistry;

/// Counts fresh blocks, as `crates/mapreduce/tests/alloc_budget.rs` does.
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the number of blocks allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = f();
    (out, BLOCKS.load(Ordering::Relaxed) - before)
}

/// The instruments a small cluster touches, as `(daemon, name, kind)`.
fn instruments() -> Vec<(String, &'static str, u8)> {
    let mut all = vec![
        ("namenode".to_string(), "rpc.add_block", 0),
        ("namenode".to_string(), "editlog.ops", 0),
        ("namenode".to_string(), "blocks.total", 1),
        ("namenode".to_string(), "report.size", 2),
        ("jobtracker".to_string(), "map.duration_ms", 2),
    ];
    for n in 0..4 {
        all.push((format!("datanode.node{n:03}"), "bytes.written", 0));
        all.push((format!("datanode.node{n:03}"), "blocks.held", 1));
    }
    all
}

fn touch(r: &mut MetricsRegistry, (daemon, name, kind): &(String, &'static str, u8), x: u64) {
    match kind {
        0 => r.incr(daemon, name, x),
        1 => r.set_gauge(daemon, name, i64::try_from(x).unwrap_or(i64::MAX)),
        _ => r.observe(daemon, name, x),
    }
}

#[test]
fn touching_an_existing_instrument_allocates_nothing() {
    let all = instruments();
    let mut r = MetricsRegistry::new();
    for i in &all {
        touch(&mut r, i, 1);
    }

    let ((), blocks) = counted(|| {
        for round in 0..100 {
            for i in &all {
                touch(&mut r, i, round);
            }
        }
    });
    assert_eq!(blocks, 0, "incr/set_gauge/observe on existing instruments");

    let (sum, blocks) = counted(|| {
        let mut sum = 0u64;
        for (daemon, name, _) in &all {
            sum += r.counter(daemon, name);
            sum += r.gauge(daemon, name).unsigned_abs();
            sum += r.histogram(daemon, name).map_or(0, |h| h.count());
        }
        sum + r.counter("nobody", "nothing")
    });
    assert!(sum > 0);
    assert_eq!(blocks, 0, "counter/gauge/histogram reads, present or absent");

    // The same touches in the opposite order build the same registry: the
    // snapshot is `(daemon, name)`-sorted and its bytes are canonical.
    let mut reversed = MetricsRegistry::new();
    for i in all.iter().rev() {
        touch(&mut reversed, i, 1);
    }
    for round in 0..100 {
        for i in all.iter().rev() {
            touch(&mut reversed, i, round);
        }
    }
    assert_eq!(reversed, r);
    let snap = r.snapshot(SimTime(7));
    assert_eq!(reversed.snapshot(SimTime(7)), snap);
    assert!(snap
        .samples
        .windows(2)
        .all(|w| (w[0].daemon.as_str(), w[0].name.as_str())
            < (w[1].daemon.as_str(), w[1].name.as_str())));
    assert_eq!(snap.samples.len(), all.len());

    let counters: Vec<_> = all.iter().filter(|(_, _, kind)| *kind == 0).collect();
    let (handles, blocks) =
        counted(|| counters.iter().map(|(d, n, _)| r.counter_handle(d, n)).collect::<Vec<_>>());
    assert_eq!(blocks, 1, "resolving existing counters allocates only the list");
    let ((), blocks) = counted(|| {
        for round in 0..100 {
            for &h in &handles {
                r.bump(h, round);
            }
        }
    });
    assert_eq!(blocks, 0, "bumps through handles");
    for (daemon, name, _) in counters {
        assert_eq!(r.counter(daemon, name), 1 + 2 * (0..100).sum::<u64>());
    }
}
