// R2 fixture: wall-clock time and unseeded randomness, with known spans.
fn race_the_clock() -> u64 {
    let start = std::time::Instant::now(); // line 3, col 28
    let epoch = SystemTime::now(); // line 4, col 17
    let mut rng = thread_rng(); // line 5, col 19
    let _ = (start, epoch);
    rng.gen()
}

fn race_the_cores() -> usize {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get()); // line 11, col 26
    std::thread::scope(|s| drop(s.spawn(|| ()))); // line 12, col 10
    thread::spawn(|| ()); // line 13, col 5
    let _ = std::thread::Builder::new().spawn(|| ()); // line 14, col 18
    n
}
