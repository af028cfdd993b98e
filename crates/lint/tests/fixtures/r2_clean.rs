// R2 fixture: deterministic time and seeded randomness pass.
fn simulate(now: SimTime) -> SimTime {
    // "Instant" in a comment or string is not a violation.
    let label = "wall-clock Instant would break replay";
    let _ = label;
    let step = SimDuration::from_millis(250);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let jitter = SimDuration::from_micros(rng.gen_range(0..500));
    now + step + jitter
}

// A worker handle's own `spawn`, and the word "thread" where no thread
// starts, are not host-thread entry points.
fn inside_the_pool(s: &Scope, thread: ThreadId) -> ThreadId {
    s.spawn(work);
    let _ = thread::current();
    thread
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_wall_clock() {
        let _t = std::time::Instant::now();
    }
}
