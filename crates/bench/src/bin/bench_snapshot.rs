//! `bench-snapshot` — print the simulated-number table.
//!
//! ```text
//! bench-snapshot                                   # the whole table, ~5 s
//! bench-snapshot > tests/golden/sim_numbers.txt    # re-pin after an intended change
//! ```
//!
//! The rows are [`hl_bench::sim_numbers`] followed by the scale counters
//! at 1000 DataNodes x 1 000 000 blocks — exactly the committed file, which
//! `cargo test` holds to this output (the 1000 x 1M rows in an ignored arm
//! the nightly workflow runs). A section whose shape gate fails prints
//! the reason and exits 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hl_bench::{scale_numbers, sim_numbers};

fn main() -> ExitCode {
    match sim_numbers().and_then(|table| Ok(table + &scale_numbers(1000, 1_000_000)?)) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-snapshot: {e}");
            ExitCode::from(2)
        }
    }
}
