//! A frame header's raw length is a claim: `decode_frame_runs` sizes its
//! one buffer from the claims of every frame before it decodes any, so
//! `parse_frame` must refuse a claim the payload cannot back. Sixty-four
//! 19-byte Hlz frames, each with a 1-byte payload and a claim of the
//! 16 MiB frame cap, once asked for a 1 GiB buffer.
//!
//! One test, because the allocation record is process-wide: a second
//! test on another thread would be counted into this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hl_codec::frame::{decode_frame_runs, decompress_container, FrameHeader, SYNC_MARKER};
use hl_codec::CodecId;
use hl_common::pool::Pool;
use hl_common::prelude::*;
use hl_common::writable::Writable;

/// Records the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the record touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc_zeroed` are `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the largest single allocation made while it ran.
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_frame_cannot_claim_more_than_its_payload_decodes_to() {
    let header = FrameHeader { method: CodecId::Hlz, raw_len: 16 << 20, comp_len: 1, crc: 0 };
    let mut input = Vec::new();
    for _ in 0..64 {
        input.extend_from_slice(&SYNC_MARKER);
        header.write(&mut input);
        input.push(0); // the empty final token: a block that decodes to nothing
    }
    assert_eq!(input.len(), 64 * 19);

    let pool = Pool::host();
    let (runs, runs_largest) = largest(|| decode_frame_runs(&[&input], 16, &pool));
    let (whole, whole_largest) = largest(|| decompress_container(&input));
    match (runs, whole) {
        (Err(HlError::Codec(a)), Err(HlError::Codec(b))) => assert_eq!(a, b),
        other => panic!("both decoders must refuse the frame alike, got {other:?}"),
    }
    for (decoder, bytes) in
        [("decode_frame_runs", runs_largest), ("decompress_container", whole_largest)]
    {
        assert!(
            bytes < 64 << 10,
            "{decoder} asked for {bytes} bytes at once on 1 216 bytes of input"
        );
    }
}
