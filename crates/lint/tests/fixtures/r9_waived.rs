//! R9 waived fixture: a test seam kept public with an argued waiver.

/// Force the pool's worker count.
// lint:allow(R9): test seam, called only by the host-pool integration test
pub fn force_workers(_n: usize) {}

pub fn used() {}
