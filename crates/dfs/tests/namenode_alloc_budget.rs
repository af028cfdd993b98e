//! What the NameNode allocates per block on its two bulk paths.
//!
//! `add_block` hands its caller the chosen targets, one `Vec`. Everything
//! else it touches is kept or grows in place: the path is walked once, the
//! placement candidates are refilled into a list the NameNode keeps, and
//! the op is encoded into the journal's bytes. So apart from a page of the
//! block table per 1 024 ids, a warm NameNode allocates that one `Vec` per
//! block. A block report gives each block up to three replicas, and those
//! live inside the block's entry: no allocation per replica. Re-reporting
//! an unchanged node allocates only the list of what it confirmed, and a
//! heartbeat nothing.
//!
//! Only the thread inside `counted`'s closure is counted. The NameNode
//! runs on its caller's thread, so nothing it allocates is missed, and
//! the test harness's own threads are not counted in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::ReplicaMeta;
use hl_dfs::NameNode;

/// Counts fresh blocks on a thread inside [`counted`].
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

#[test]
fn bulk_load_and_block_reports_allocate_per_block_only_the_targets() {
    const NODES: u32 = 20;
    const FILE_BLOCKS: u64 = 4_000;
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_CHECKPOINT_OPS, 0u64);
    let mut nn = NameNode::new(&config, Topology::striped(NODES as usize, 4)).unwrap();
    for i in 0..NODES {
        nn.register_datanode(SimTime::ZERO, NodeId(i), u64::MAX / 2);
    }
    nn.safemode.force_leave();
    nn.mkdirs("/load").unwrap();
    // Warm: the instruments, the candidate list and the lease exist.
    nn.create_file(SimTime::ZERO, "/load/f", Some(3), None, "writer").unwrap();
    nn.add_block(SimTime::ZERO, "/load/f", 64, None).unwrap();

    let mut placed = Vec::with_capacity(FILE_BLOCKS as usize);
    let ((), allocs) = counted(|| {
        for _ in 0..FILE_BLOCKS {
            placed.push(nn.add_block(SimTime::ZERO, "/load/f", 64, None).unwrap());
        }
    });
    assert!(placed.iter().all(|(_, targets)| targets.len() == 3));
    // One targets `Vec` per block, and one block-table page per 1 024 ids
    // (4 003 when pinned; a `BTreeMap` block map took 4 663).
    assert!(
        allocs <= FILE_BLOCKS + FILE_BLOCKS.div_ceil(1024),
        "{allocs} allocations for {FILE_BLOCKS} add_block calls"
    );

    let mut reports: Vec<Vec<ReplicaMeta>> = vec![Vec::new(); NODES as usize];
    for (id, targets) in &placed {
        let gen_stamp = nn.block(*id).unwrap().gen_stamp;
        for t in targets {
            reports[t.0 as usize].push(ReplicaMeta { id: *id, len: 64, gen_stamp });
        }
    }
    let replicas: u64 = reports.iter().map(|r| r.len() as u64).sum();
    let ((), allocs) = counted(|| {
        for (n, report) in reports.iter().enumerate() {
            nn.process_block_report(SimTime(1), NodeId(n as u32), report);
        }
    });
    assert_eq!(nn.block_census().0, placed.len(), "every placed block is reported");
    // A few per report (its confirmed list, the node's index) and the
    // under-replicated queue's tree nodes: 304 when pinned, and a lookup
    // in the block table allocates nothing.
    // Two per report (its confirmed list, the node's index growing from
    // empty) and the under-replicated queue's pages, which come and go
    // with their members: 45 when pinned. With the queue a `BTreeMap`,
    // its tree nodes made it 304.
    assert!(
        allocs <= 45,
        "{allocs} allocations for {replicas} reported replicas of {FILE_BLOCKS} blocks"
    );

    // The same reports again: nothing changes, and the diff walks the
    // node's index in place. One allocation per report, its confirmed
    // list (40 when the diff copied the index first).
    let ((), allocs) = counted(|| {
        for (n, report) in reports.iter().enumerate() {
            nn.process_block_report(SimTime(2), NodeId(n as u32), report);
        }
    });
    assert_eq!(nn.block_census().0, placed.len());
    assert!(allocs <= u64::from(NODES), "{allocs} allocations for {NODES} unchanged re-reports");

    // A heartbeat of a registered node is a counter bump through its
    // handle and a write to the node's slot.
    let ((), allocs) = counted(|| {
        for beat in 0..10_000u32 {
            nn.heartbeat(SimTime(3 + u64::from(beat)), NodeId(beat % NODES), u64::MAX / 2);
        }
    });
    assert_eq!(allocs, 0, "10 000 heartbeats");
}
