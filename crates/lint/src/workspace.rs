//! Workspace discovery: which files get linted.
//!
//! Production source trees only — `crates/*/src/**/*.rs` plus the root
//! `src/`. Integration tests, benches, and examples are test-adjacent
//! code where `unwrap()` is idiomatic; the rules' scope is the code that
//! runs inside the simulated cluster. The lint's own fixture corpus is
//! excluded by construction (it lives under `crates/lint/tests/`).

use std::fs;
use std::path::{Path, PathBuf};

/// Every lintable `(workspace-relative path, source)` pair, sorted by
/// path for deterministic reports.
pub(crate) fn source_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut dirs = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        dirs.extend(entries.flatten().map(|entry| entry.path().join("src")));
    }
    dirs.push(root.join("src"));
    read_rs(root, &dirs)
}

/// The sources R9 reads for references only: `examples/` and
/// `benchmark/src` (a package of its own that compiles against the
/// crates' public API).
pub(crate) fn reference_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    read_rs(root, &[root.join("examples"), root.join("benchmark/src")])
}

/// Every `.rs` file under the existing `dirs`, as sorted
/// `(workspace-relative path, source)` pairs.
fn read_rs(root: &Path, dirs: &[PathBuf]) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        walk_rs(dir, &mut files)?;
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
