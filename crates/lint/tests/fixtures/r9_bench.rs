//! R9 companion: the benchmark package, which compiles against the API.

pub fn run() {
    demo::measured_by_the_benchmark();
}
