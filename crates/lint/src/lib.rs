//! `hadooplab-lint` — the workspace invariant checker.
//!
//! The paper's operational stories (daemon crashes, safe-mode restarts,
//! ghost daemons) only reproduce credibly if the NameNode/DataNode/
//! JobTracker analogs *degrade* instead of panicking, and if the cluster
//! simulator is deterministic enough to replay them. This crate enforces
//! those properties as machine-checked invariants: any violation without
//! a `// lint:allow(Rn): reason` waiver on its site fails CI.
//!
//! Run it with `cargo run -p lint --release -- check`. See
//! `DESIGN.md` § "Invariants & lint" for the rule catalog and waiver
//! policy.

#![forbid(unsafe_code)]

pub mod confkeys;
pub mod deadpub;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod scan;
pub mod toml_subset;
pub mod workspace;

use manifest::Manifest;
use rules::{RuleId, Violation};
use scan::ScannedFile;
use std::path::Path;

/// Lint one source buffer with every rule enabled, ignoring path scoping.
/// This is the entry point the fixture tests drive; R4 runs against the
/// provided `manifest` with no filesystem integrity pass. R7's key census
/// and R9 need the whole workspace and do not run here.
pub fn lint_source_all_rules(file: &str, src: &str, manifest: &Manifest) -> Vec<Violation> {
    let sf = ScannedFile::new(src);
    let mut violations = rules::lint_tokens(file, &sf, &RuleId::all());
    let impls: Vec<_> =
        rules::collect_writable_impls(&sf).into_iter().map(|im| (file.to_string(), im)).collect();
    for (f, im) in &impls {
        if !im.macro_template && !manifest.types.contains_key(&im.type_name) {
            let mut v = Violation {
                rule: RuleId::R4,
                file: f.clone(),
                line: im.line,
                col: im.col,
                message: format!(
                    "`impl Writable for {}` is not registered in the round-trip manifest",
                    im.type_name
                ),
                waived: false,
            };
            v.waived = sf.is_waived(RuleId::R4, im.line);
            violations.push(v);
        }
    }
    violations.sort_by_key(|v| (v.line, v.col, v.rule));
    violations
}

/// Result of linting the whole workspace.
pub struct WorkspaceLint {
    /// Every violation, waived ones included (sorted by file/line/col).
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
    /// The public items R9 weighed (`deadpub::PublicItems::count`).
    pub public_items: usize,
}

impl WorkspaceLint {
    /// The unwaived violations: `check` fails when there is one.
    pub fn active(&self) -> Vec<Violation> {
        self.violations.iter().filter(|v| !v.waived).cloned().collect()
    }

    /// Active-violation count for one rule.
    pub fn rule_count(&self, rule: RuleId) -> usize {
        self.violations.iter().filter(|v| !v.waived && v.rule == rule).count()
    }
}

/// Lint every production source file under `root` with path-based rule
/// scoping, plus the workspace-level R4 manifest check.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceLint, String> {
    let files = workspace::source_files(root)
        .map_err(|e| format!("scanning workspace at {}: {e}", root.display()))?;
    let manifest_path = root.join("crates/lint/writable-manifest.toml");
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => {
            Manifest::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?
        }
        Err(_) => Manifest::default(), // absent manifest: every impl flags
    };

    // Lex everything up front: the per-file rules, the R4 manifest pass,
    // the R7 key census and R9 all read from the same scanned set.
    let mut scanned: Vec<(String, ScannedFile)> =
        files.iter().map(|(rel, src)| (rel.clone(), ScannedFile::new(src))).collect();

    let mut violations = Vec::new();
    let mut impls: Vec<(String, rules::WritableImpl)> = Vec::new();
    for (rel, sf) in &scanned {
        let scoped = rules::rules_for_path(rel);
        violations.extend(rules::lint_tokens(rel, sf, &scoped));
        for im in rules::collect_writable_impls(sf) {
            // Waivers apply to R4 like any other rule.
            if !im.macro_template
                && !manifest.types.contains_key(&im.type_name)
                && sf.is_waived(RuleId::R4, im.line)
            {
                violations.push(Violation {
                    rule: RuleId::R4,
                    file: rel.clone(),
                    line: im.line,
                    col: im.col,
                    message: format!("`impl Writable for {}` unregistered (waived)", im.type_name),
                    waived: true,
                });
                continue;
            }
            impls.push((rel.clone(), im));
        }
    }
    violations.extend(manifest.check(root, &impls));
    violations.extend(confkeys::check_keys(&scanned));
    // R9 also reads the examples and `benchmark/src` for references.
    let references = workspace::reference_files(root)
        .map_err(|e| format!("scanning references at {}: {e}", root.display()))?;
    scanned.extend(references.iter().map(|(rel, src)| (rel.clone(), ScannedFile::new(src))));
    let public = deadpub::check_public_items(&scanned);
    violations.extend(public.violations);
    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(WorkspaceLint { violations, files_scanned: files.len(), public_items: public.count })
}
