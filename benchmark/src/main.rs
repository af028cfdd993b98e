//! `benchmark` — see `benchmark/README.md`.

fn main() -> std::process::ExitCode {
    hl_benchmark::cli::main(std::env::args().skip(1).collect())
}
