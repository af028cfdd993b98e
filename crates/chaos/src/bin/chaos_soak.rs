//! `chaos-soak`: fan the chaos runner across seeds × scenario packs.
//!
//! ```text
//! chaos-soak                          # 200 seeds x all 6 packs
//! chaos-soak --seeds 0..50            # a seed range
//! chaos-soak --seeds 64               # seeds 0..64
//! chaos-soak --pack bit-rot           # one pack only
//! chaos-soak --replay 17 --pack meltdown   # one seed, full trace printed
//! chaos-soak --verify-trace           # run every combo twice, compare hashes
//! ```
//!
//! Exit codes: 0 all invariants held; 1 an oracle fired (first failing
//! seed printed with its one-command replay); 2 a seed failed to
//! reproduce its own trace hash (determinism bug).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hl_chaos::{ChaosRunner, ScenarioPack};

struct Args {
    seed_lo: u64,
    seed_hi: u64,
    packs: Vec<ScenarioPack>,
    replay: Option<u64>,
    verify_trace: bool,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("chaos-soak: {err}");
    eprintln!(
        "usage: chaos-soak [--seeds N | --seeds A..B] [--pack NAME] [--replay SEED] [--verify-trace]"
    );
    eprintln!("packs: meltdown restart-drill bit-rot ghost-ports write-storm degraded-ops");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed_lo: 0,
        seed_hi: 200,
        packs: ScenarioPack::ALL.to_vec(),
        replay: None,
        verify_trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                if let Some((lo, hi)) = v.split_once("..") {
                    args.seed_lo = lo.parse().map_err(|_| format!("bad seed range: {v}"))?;
                    args.seed_hi = hi.parse().map_err(|_| format!("bad seed range: {v}"))?;
                } else {
                    args.seed_lo = 0;
                    args.seed_hi = v.parse().map_err(|_| format!("bad seed count: {v}"))?;
                }
                if args.seed_lo >= args.seed_hi {
                    return Err(format!("empty seed range: {v}"));
                }
            }
            "--pack" => {
                let v = it.next().ok_or("--pack needs a name")?;
                let pack =
                    ScenarioPack::from_name(&v).ok_or_else(|| format!("unknown pack: {v}"))?;
                args.packs = vec![pack];
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a seed")?;
                args.replay = Some(v.parse().map_err(|_| format!("bad seed: {v}"))?);
            }
            "--verify-trace" => args.verify_trace = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Replay one `(pack, seed)` with the full trace, then re-run it and
/// compare hashes. Returns the process exit code.
fn replay(pack: ScenarioPack, seed: u64) -> ExitCode {
    let first = match ChaosRunner::run(pack, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay {pack} seed {seed}: harness error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", first.trace);
    println!("{first}");
    for v in &first.violations {
        println!("  {v}");
    }
    let second = match ChaosRunner::run(pack, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay {pack} seed {seed}: second run errored: {e}");
            return ExitCode::from(2);
        }
    };
    if second.trace_hash != first.trace_hash {
        eprintln!(
            "DETERMINISM BUG: {pack} seed {seed} hashed {:#018x} then {:#018x}",
            first.trace_hash, second.trace_hash
        );
        return ExitCode::from(2);
    }
    println!("replay reproduced trace hash {:#018x}", first.trace_hash);
    if first.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };

    if let Some(seed) = args.replay {
        if args.packs.len() != 1 {
            return usage("--replay needs --pack NAME");
        }
        return replay(args.packs[0], seed);
    }

    let mut runs = 0u64;
    for pack in &args.packs {
        let mut pack_ok = 0u64;
        for seed in args.seed_lo..args.seed_hi {
            let report = match ChaosRunner::run(*pack, seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{pack} seed {seed}: harness error: {e}");
                    return ExitCode::from(2);
                }
            };
            runs += 1;
            if !report.ok() {
                println!("FAIL {report}");
                for v in &report.violations {
                    println!("  {v}");
                }
                println!("replay with: chaos-soak --pack {} --replay {seed}", pack.name());
                return ExitCode::from(1);
            }
            if args.verify_trace {
                match ChaosRunner::run(*pack, seed) {
                    Ok(again) if again.trace_hash == report.trace_hash => {}
                    Ok(again) => {
                        eprintln!(
                            "DETERMINISM BUG: {pack} seed {seed} hashed {:#018x} then {:#018x}",
                            report.trace_hash, again.trace_hash
                        );
                        return ExitCode::from(2);
                    }
                    Err(e) => {
                        eprintln!("{pack} seed {seed}: re-run errored: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            pack_ok += 1;
        }
        println!(
            "pack {:<14} {pack_ok} seed(s) clean{}",
            pack.name(),
            if args.verify_trace { ", traces reproduced" } else { "" }
        );
    }
    println!("soak: {runs} run(s), every invariant held");
    ExitCode::SUCCESS
}
