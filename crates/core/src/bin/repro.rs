//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # everything, Paper scale
//! repro --quick         # everything, Quick scale (seconds)
//! repro --fig1 --n5     # selected experiments only
//! repro --quick > tests/golden/repro_quick.txt   # re-pin after an intended change
//! repro > tests/golden/repro_paper.txt           # same, Paper scale (~2.5 min)
//! ```
//!
//! Output is [`hl_core::repro`]'s plain text, one section per artifact,
//! with paper-reported values alongside measured ones where applicable;
//! `cargo test` holds it to the two committed files (the Paper-scale one in
//! an ignored arm the nightly workflow runs) and EXPERIMENTS.md quotes
//! them. A flag no experiment answers to prints the usage and exits 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hl_core::Scale;
use hl_core::{repro, repro_usage};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", repro_usage());
        return ExitCode::SUCCESS;
    }
    let scale = if args.iter().any(|a| a == "--quick") { Scale::Quick } else { Scale::Paper };
    let selected: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    match repro(scale, &selected) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}\n{}", repro_usage());
            ExitCode::from(2)
        }
    }
}
