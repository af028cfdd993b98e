// R2 fixture: a justified wall-clock read carries a waiver.
fn profile_only() -> std::time::Duration {
    // lint:allow(R2): report-only wall profiling, never fed back into sim state
    let start = std::time::Instant::now();
    start.elapsed()
}

// The pool itself: both entry points waived, each with its reason.
fn pool(n: usize) -> usize {
    // lint:allow(R2): sizes the host pool only; no simulated quantity depends on it
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    // lint:allow(R2): scoped workers borrow shared state and are joined here
    std::thread::scope(|s| drop(s.spawn(|| ())));
    workers.min(n)
}
