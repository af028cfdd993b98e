//! The `benchmark` binary's commands.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--traced] [--out F]      # the whole suite
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]
//! benchmark compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own
//! (so `peak_rss_mib` is that workload's alone) and the results are merged
//! into one suite file. With `--workload` the run happens in this process
//! and the last line of stdout is the one-line result object.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::compare::{self, Verdict};
use crate::context;
use crate::defs;
use crate::json::{self, Value};
use crate::spans;
use crate::workloads::{self, RunConfig};

const USAGE: &str = "usage:
  benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out F]
  benchmark compare A.json B.json
workloads: wc-shuffle wc-combiner hs-codec dfs-io small-jobs nn-scale (default: all, one child process each)";

/// Where results land when `--out` is not given: inside the benchmark's
/// own directory, whatever the working directory is.
fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: defs::RUN_SECONDS as f64,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !defs::WORKLOADS.iter().any(|d| d.name == w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                parsed.workload = Some(w.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Entry point; `args` excludes the program name.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&a, w),
            None => run_suite(&a),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(false)` when a check failed.
fn run_one(args: &Args, workload: String) -> Result<bool, String> {
    context::warn_if_loaded();
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale_div: 1,
    };
    let output = workloads::run(&cfg).map_err(|e| format!("{} failed: {e}", cfg.workload))?;
    let result = &output.result;

    let suffix = if cfg.traced { "traced" } else { "untraced" };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| default_out_dir().join(format!("{}.{suffix}.json", cfg.workload)));
    let mut doc = result.to_json();
    if let Value::Obj(members) = &mut doc {
        members.push(("context".into(), context::capture()));
    }
    write_file(&out, &doc.to_pretty())?;
    if cfg.traced {
        let trace = out.with_extension("trace.json");
        write_file(&trace, &spans::chrome_trace(&output.spans, result.workload).to_line())?;
        eprintln!("wrote {} ({} spans)", trace.display(), output.spans.len());
        for (name, s) in spans::self_time_by_name(&output.spans) {
            eprintln!("  self {s:>10.4} s  {name}");
        }
    }
    eprintln!("wrote {}", out.display());

    print!("{}", result.render());
    // The contract: the last line of stdout is the result object.
    println!("{}", result.driver_line());
    Ok(result.correct())
}

/// Every workload, each in a child process; merged into one suite file.
fn run_suite(args: &Args) -> Result<bool, String> {
    context::warn_if_loaded();
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = args.out.clone().unwrap_or_else(|| default_out_dir().join("suite.json"));
    let modes: &[bool] = if args.traced { &[false, true] } else { &[false] };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for def in defs::WORKLOADS {
        for &traced in modes {
            let part = out.with_extension(format!(
                "{}.{}.json",
                def.name,
                if traced { "traced" } else { "untraced" }
            ));
            // `status` waits for the child; nothing outlives this loop.
            let status = Command::new(&exe)
                .args(["--workload", def.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("starting {}: {e}", def.name))?;
            all_correct &= status.success();
            if !status.success() && !part.exists() {
                return Err(format!("{} exited with {status} and left no result", def.name));
            }
            runs.push(read_json(&part)?);
        }
    }
    let suite = Value::obj([
        ("context", context::capture()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("runs", Value::Arr(runs)),
    ]);
    write_file(&out, &suite.to_pretty())?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes exactly two result files".into());
    };
    let (a, b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        let field = |key: &str| {
            doc.get("context").and_then(|c| c.get(key)).and_then(Value::as_str).unwrap_or("unknown")
        };
        println!(
            "{label}: commit {} on {} ({})",
            field("git_commit"),
            field("cpu_model"),
            field("rustc")
        );
    }
    let rows = compare::compare(&a, &b)?;
    print!("{}", compare::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} within, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}
