//! Where and on what a result was measured: the context every result file
//! carries so two files can be judged comparable before they are compared.

use std::process::Command;

use crate::json::Value;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The 1-minute load average, when the platform exposes it.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Warn (never fail) when the host is already busier than it has cores:
/// host-clock numbers taken then are not worth comparing.
pub fn warn_if_loaded() {
    if let Some(load) = load_average() {
        if load > nproc() as f64 {
            eprintln!(
                "warning: 1-minute load average {load:.2} exceeds {} CPUs; host-clock metrics will be noisy",
                nproc()
            );
        }
    }
}

/// The context object stored in every result file.
pub fn capture() -> Value {
    let unknown = || "unknown".to_string();
    Value::obj([
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("nproc", Value::Num(nproc() as f64)),
        (
            "cpu_model",
            Value::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("load_average_1m", load_average().map_or(Value::Null, Value::Num)),
        ("profile", Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
    ])
}
