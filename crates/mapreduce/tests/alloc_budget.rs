//! The record path's allocation budget.
//!
//! The framework's share of the per-record and per-group work — counters,
//! line reading, collect, combine and reduce grouping — allocates nothing,
//! and neither does `WcMapper`, which emits one reused key by reference:
//! a map allocates per spill, not per record, with or without a combiner.
//! Nothing is left per group either: the combine pass and the reduce task
//! each keep one decoded key and one value buffer, refilled group by group
//! and lent to the user code (`&key`, `values.drain(..)`), and the reduce
//! writes each line straight into the part file's text. One
//! `incr(group, name)` with owned strings in a loop, one owned line, key
//! or value `Vec` per record or per group, breaks these budgets by a
//! factor, not by a margin.
//!
//! Only the thread inside `counted`'s closure is counted: `map_task` and
//! `reduce_task` run on their caller, and the test harness's own threads
//! are not this code's cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hl_common::counters::TaskCounter;
use hl_common::hash::fnv1a;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer, SideFiles};
use hl_mapreduce::job::{Job, JobConf};
use hl_mapreduce::JobCode;
use hl_workloads::wordcount::{WcCombiner, WcMapper, WcReducer};

/// Counts fresh blocks on a thread inside [`counted`]. Growing a block in
/// place or by moving it (`realloc`) is not counted: the block was when it
/// was first handed out.
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on this thread while `counted` runs its closure. `const`, so
    /// reading it allocates nothing and needs no lazy initialisation.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
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

/// `f`'s result and the number of blocks it allocated on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, BLOCKS.load(Ordering::Relaxed) - before)
}

/// One fixed-width record per word, nothing owned: the framework's own
/// cost with no user allocation on top.
struct HashMapper;

impl Mapper for HashMapper {
    type KOut = u64;
    type VOut = u64;
    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<u64, u64>) {
        for word in line.split_whitespace() {
            ctx.emit(fnv1a(word.as_bytes()), 1);
        }
    }
}

struct HashReducer;

impl Reducer for HashReducer {
    type KIn = u64;
    type VIn = u64;
    fn reduce(
        &mut self,
        key: impl std::borrow::Borrow<u64>,
        values: impl IntoIterator<Item = u64>,
        ctx: &mut ReduceContext,
    ) {
        ctx.emit(key.borrow(), values.into_iter().count());
    }
}

#[test]
fn record_path_stays_within_its_allocation_budget() {
    let (text, _) = CorpusGen::new(42).generate_bytes(1 << 20);
    let data = text.as_bytes();
    let conf = || JobConf::new("alloc-budget").reduces(4).sort_buffer(64 << 10);
    let side = SideFiles::new();
    let map = |job: &dyn JobCode| counted(|| job.map_task(&side, 1, None, data, data.len(), 0));

    let (hashed, blocks) = map(&Job::new(conf(), || HashMapper, || HashReducer));
    let records = hashed.counters.task(TaskCounter::MapOutputRecords);
    assert!(records > 100_000 && hashed.output.num_spills > 10, "{records} records");
    assert!(blocks < records / 20, "u64 keys: {blocks} blocks for {records} records");

    let (plain, plain_blocks) = map(&Job::new(conf(), WcMapper::default, || WcReducer));
    assert_eq!(plain.counters.task(TaskCounter::MapOutputRecords), records);
    assert!(plain_blocks < records / 20, "WcMapper: {plain_blocks} blocks for {records} records");

    let combining = Job::with_combiner(conf(), WcMapper::default, || WcReducer, || WcCombiner);
    let (combined, blocks) = map(&combining);
    // `WcCombiner` emits one record per group. The combine passes add
    // per spill, not per group: 654 blocks for 55 849 groups, the
    // uncombined map's bound.
    let groups = combined.counters.task(TaskCounter::CombineOutputRecords);
    assert!(groups > 10_000, "{groups} combine groups");
    assert!(
        blocks < records / 20,
        "WcMapper + WcCombiner: {blocks} blocks for {records} records in {groups} groups"
    );

    // Reduce side, over partition 0 of the uncombined output: many values
    // per group, written as the engine writes a part file. What it
    // allocates is the task's, not the groups': the merge, the value-slice
    // and value buffers, the one key and the text, grown in place. 6
    // blocks for 3 175 groups and lines; the bound leaves 2x for a layout
    // change and is reached by no count that grows with the groups.
    let runs = [plain.output.partitions[0].clone()];
    let (reduced, blocks) = counted(|| combining.reduce_task(&side, 1, &runs, None).unwrap());
    let groups = reduced.counters.task(TaskCounter::ReduceInputGroups);
    let lines = reduced.counters.task(TaskCounter::ReduceOutputRecords);
    assert!(groups > 1_000 && reduced.records > 5 * groups, "{groups} groups");
    assert_eq!(reduced.text.lines().count() as u64, lines);
    assert!(blocks <= 12, "reduce: {blocks} blocks for {groups} groups and {lines} lines");
}
