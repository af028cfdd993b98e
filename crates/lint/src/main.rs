//! CLI for `hadooplab-lint`.
//!
//! ```text
//! cargo run -p lint --release -- check              # fail on any unwaived violation
//! cargo run -p lint --release -- check --format=github  # CI annotations
//! cargo run -p lint --release -- check --format=json    # machine-readable
//! cargo run -p lint --release -- dump FILE          # all-rules report for one file
//! ```
//!
//! Exit codes: 0 no unwaived violation, 1 at least one, 2 usage or I/O
//! error.

#![forbid(unsafe_code)]

use lint::manifest::Manifest;
use lint::rules::{RuleId, Violation};
use std::path::PathBuf;
use std::process::ExitCode;

/// Output mode for `check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable report (the default).
    Text,
    /// GitHub Actions workflow commands: every unwaived violation becomes
    /// an `::error file=..,line=..,col=..` annotation on the diff,
    /// followed by the plain-text summary (Actions ignores non-command
    /// lines).
    Github,
    /// One JSON object on stdout: counts, per-rule totals, and every
    /// violation with its span.
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root: Option<PathBuf> = None;
    let mut dump_file = None;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args.get(i).map(PathBuf::from);
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str).and_then(parse_format) {
                    Some(f) => format = f,
                    None => return usage(),
                }
            }
            s if s.starts_with("--format=") => match parse_format(&s["--format=".len()..]) {
                Some(f) => format = f,
                None => return usage(),
            },
            "check" if cmd.is_none() => cmd = Some("check".to_string()),
            "dump" if cmd.is_none() => {
                cmd = Some("dump".into());
                i += 1;
                dump_file = args.get(i).cloned();
            }
            other => {
                eprintln!("hadooplab-lint: unknown argument `{other}`");
                return usage();
            }
        }
        i += 1;
    }

    // Default root: the workspace containing this crate (so the binary
    // works from any cwd), overridable with --root.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    match cmd.as_deref() {
        Some("check") => cmd_check(&root, format),
        Some("dump") => match dump_file {
            Some(f) => cmd_dump(&f),
            None => usage(),
        },
        _ => usage(),
    }
}

fn parse_format(s: &str) -> Option<Format> {
    match s {
        "text" => Some(Format::Text),
        "github" => Some(Format::Github),
        "json" => Some(Format::Json),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: hadooplab-lint [--root DIR] <check [--format=text|github|json] | dump FILE>");
    ExitCode::from(2)
}

fn cmd_check(root: &std::path::Path, format: Format) -> ExitCode {
    let ws = match lint::lint_workspace(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("hadooplab-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let active = ws.active();
    let verdict = if active.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };

    if format == Format::Json {
        print_json(&ws, &active);
        return verdict;
    }

    if format == Format::Github {
        // Annotations first: Actions picks `::error` lines out of the log
        // and pins them to the diff at file/line/col.
        for v in &active {
            println!(
                "::error file={},line={},col={},title=hadooplab-lint {} [{}]::{}",
                gh_property(&v.file),
                v.line,
                v.col,
                v.rule,
                v.rule.name(),
                gh_message(&v.message)
            );
        }
    }

    println!(
        "hadooplab-lint: scanned {} files — {} active violations, {} waived",
        ws.files_scanned,
        active.len(),
        ws.violations.len() - active.len()
    );
    for rule in RuleId::all() {
        println!("  {rule} [{}]: {} active", rule.name(), ws.rule_count(rule));
    }

    if active.is_empty() {
        println!("\nOK: no unwaived violations");
        return verdict;
    }

    println!("\nFAIL: unwaived violations:");
    for v in &active {
        println!("  {v}");
    }
    println!(
        "\nfix each site, or add a `// lint:allow(Rn): reason` waiver where the\n\
         invariant genuinely cannot hold"
    );
    verdict
}

/// Escape a workflow-command property value (`file=` etc.).
fn gh_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escape a workflow-command message body.
fn gh_message(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_json(ws: &lint::WorkspaceLint, active: &[Violation]) {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", ws.files_scanned));
    out.push_str(&format!("  \"active\": {},\n", active.len()));
    out.push_str(&format!("  \"waived\": {},\n", ws.violations.len() - active.len()));
    out.push_str("  \"rules\": [\n");
    let rules: Vec<String> = RuleId::all()
        .iter()
        .map(|&r| {
            format!(
                "    {{\"rule\": {}, \"name\": {}, \"active\": {}}}",
                json_str(&r.to_string()),
                json_str(r.name()),
                ws.rule_count(r)
            )
        })
        .collect();
    out.push_str(&rules.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"violations\": [\n");
    let vs: Vec<String> = ws
        .violations
        .iter()
        .map(|v| {
            format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \
                 \"waived\": {}, \"message\": {}}}",
                json_str(&v.rule.to_string()),
                json_str(&v.file),
                v.line,
                v.col,
                v.waived,
                json_str(&v.message)
            )
        })
        .collect();
    out.push_str(&vs.join(",\n"));
    out.push_str("\n  ]\n}");
    println!("{out}");
}

fn cmd_dump(file: &str) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hadooplab-lint: reading {file}: {e}");
            return ExitCode::from(2);
        }
    };
    // All rules, no path scoping, empty manifest (every impl reports).
    let manifest = Manifest::default();
    for v in lint::lint_source_all_rules(file, &src, &manifest) {
        println!("{v}");
    }
    ExitCode::SUCCESS
}
