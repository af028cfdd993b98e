//! What a finished map task's output keeps alive.
//!
//! A map's output runs are framed as IFile frames a spill: two varint
//! lengths per record beside the key and value bytes, and no per-record
//! index. For wordcount every length is under 128, so a record costs at
//! most its bytes plus two, the budget here; one that repeats the key
//! before it stores no key and costs less (`sortbuf`'s
//! `a_wordcount_split_frames_at_most_eleven_bytes_a_record` holds that
//! saving). A 12-byte slot per record, an arena reserved for more than it
//! holds, or a spill kept past the final merge shows up here as megabytes
//! over the budget.
//!
//! One test, because the counter is process-wide: a second test on
//! another thread would be counted into this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use hl_common::counters::TaskCounter;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::api::SideFiles;
use hl_mapreduce::job::{Job, JobConf};
use hl_mapreduce::JobCode;
use hl_workloads::wordcount::{WcMapper, WcReducer};

/// Counts live bytes: an allocation adds its size, a free subtracts it, a
/// reallocation adds the difference.
struct Live;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn signed(n: usize) -> i64 {
    i64::try_from(n).expect("allocation sizes fit in i64")
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(signed(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(signed(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(signed(new_size) - signed(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Live = Live;

#[test]
fn map_output_retains_its_records_and_two_bytes_each() {
    let (text, _) = CorpusGen::new(42).generate_bytes(1 << 20);
    let data = text.as_bytes();
    let job = Job::new(
        JobConf::new("run-footprint").reduces(4).sort_buffer(64 << 10),
        WcMapper::default,
        || WcReducer,
    );
    let side = SideFiles::new();

    let before = LIVE.load(Ordering::Relaxed);
    let done = job.map_task(&side, 1, None, data, data.len(), 0);
    let retained = LIVE.load(Ordering::Relaxed) - before;

    let records = done.counters.task(TaskCounter::MapOutputRecords);
    let bytes = done.output.total_bytes();
    assert!(records > 100_000 && done.output.num_spills > 10, "{records} records");
    let budget = bytes + 2 * records + (64 << 10);
    assert!(
        u64::try_from(retained).unwrap() <= budget,
        "map output of {records} records, {bytes} bytes keeps {retained} bytes alive \
         (budget {budget}: {} per record over the records' own bytes)",
        (retained - signed(usize::try_from(bytes).unwrap())) as f64 / records as f64
    );
}
