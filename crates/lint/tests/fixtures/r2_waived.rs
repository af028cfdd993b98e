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
    // lint:allow(R2): a helper runs bodies only for a call that waits for it
    std::thread::Builder::new().spawn(|| ()).map_or(0, |_| 1);
    workers.min(n)
}
