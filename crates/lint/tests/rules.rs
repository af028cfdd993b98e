//! Fixture suite: every rule, three ways — violating, clean, waived —
//! asserting exact rule IDs and line:col spans.

use lint::manifest::Manifest;
use lint::rules::{RuleId, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn fixture_manifest() -> Manifest {
    Manifest::parse(&fixture("manifest.toml")).expect("fixture manifest parses")
}

/// Active (non-waived) violations of one rule in a fixture.
fn active(name: &str, rule: RuleId) -> Vec<Violation> {
    lint::lint_source_all_rules(name, &fixture(name), &fixture_manifest())
        .into_iter()
        .filter(|v| v.rule == rule && !v.waived)
        .collect()
}

/// Waived violations of one rule in a fixture.
fn waived(name: &str, rule: RuleId) -> Vec<Violation> {
    lint::lint_source_all_rules(name, &fixture(name), &fixture_manifest())
        .into_iter()
        .filter(|v| v.rule == rule && v.waived)
        .collect()
}

fn spans(vs: &[Violation]) -> Vec<(u32, u32)> {
    vs.iter().map(|v| (v.line, v.col)).collect()
}

#[test]
fn r1_violation_fixture_exact_spans() {
    let vs = active("r1_violation.rs", RuleId::R1);
    assert_eq!(spans(&vs), vec![(3, 15), (4, 15), (6, 9), (9, 14), (10, 14), (11, 14)]);
    assert!(vs.iter().all(|v| v.rule == RuleId::R1));
    assert!(vs[0].message.contains(".unwrap()"));
    assert!(vs[2].message.contains("panic!"));
}

#[test]
fn r1_clean_fixture_is_silent() {
    assert_eq!(active("r1_clean.rs", RuleId::R1), vec![]);
}

#[test]
fn r1_waived_fixture_reports_waived_only() {
    assert_eq!(active("r1_waived.rs", RuleId::R1), vec![]);
    let w = waived("r1_waived.rs", RuleId::R1);
    assert_eq!(spans(&w), vec![(4, 22), (9, 15)]);
}

#[test]
fn r2_violation_fixture_exact_spans() {
    let vs = active("r2_violation.rs", RuleId::R2);
    assert_eq!(spans(&vs), vec![(3, 28), (4, 17), (5, 19), (11, 26), (12, 10), (13, 5)]);
    assert!(vs[0].message.contains("Instant"));
    assert!(vs[2].message.contains("unseeded"));
    assert!(vs[3].message.contains("available_parallelism"));
    assert!(vs[4].message.contains("thread::scope"));
    assert!(vs[5].message.contains("thread::spawn"));
}

#[test]
fn r2_clean_fixture_is_silent() {
    assert_eq!(active("r2_clean.rs", RuleId::R2), vec![]);
}

#[test]
fn r2_waived_fixture_reports_waived_only() {
    assert_eq!(active("r2_waived.rs", RuleId::R2), vec![]);
    assert_eq!(spans(&waived("r2_waived.rs", RuleId::R2)), vec![(4, 28), (11, 32), (13, 10)]);
}

#[test]
fn r3_violation_fixture_exact_spans() {
    let vs = active("r3_violation.rs", RuleId::R3);
    assert_eq!(spans(&vs), vec![(3, 17), (4, 17), (5, 24)]);
    assert!(vs[0].message.contains("as u32"));
}

#[test]
fn r3_clean_fixture_is_silent() {
    assert_eq!(active("r3_clean.rs", RuleId::R3), vec![]);
}

#[test]
fn r3_waived_fixture_reports_waived_only() {
    assert_eq!(active("r3_waived.rs", RuleId::R3), vec![]);
    let w = waived("r3_waived.rs", RuleId::R3);
    assert_eq!(spans(&w), vec![(3, 27)]);
}

#[test]
fn r4_violation_fixture_flags_unregistered_impl() {
    let vs = active("r4_violation.rs", RuleId::R4);
    assert_eq!(spans(&vs), vec![(6, 1)]);
    assert!(vs[0].message.contains("Rogue"));
}

#[test]
fn r4_clean_fixture_registered_type_passes() {
    assert_eq!(active("r4_clean.rs", RuleId::R4), vec![]);
}

#[test]
fn r5_violation_fixture_exact_spans() {
    let vs = active("r5_violation.rs", RuleId::R5);
    assert_eq!(spans(&vs), vec![(3, 14), (4, 14), (5, 14)]);
    assert!(vs[0].message.contains("touch_task"));
}

#[test]
fn r5_clean_fixture_is_silent() {
    assert_eq!(active("r5_clean.rs", RuleId::R5), vec![]);
}

#[test]
fn r5_waived_fixture_reports_waived_only() {
    assert_eq!(active("r5_waived.rs", RuleId::R5), vec![]);
    assert_eq!(waived("r5_waived.rs", RuleId::R5).len(), 1);
}

#[test]
fn r6_violation_fixture_exact_spans() {
    let vs = active("r6_violation.rs", RuleId::R6);
    assert_eq!(spans(&vs), vec![(6, 9), (7, 9)]);
    assert!(vs[0].message.contains("`len` of `Rec`"), "{}", vs[0].message);
    assert!(vs[0].message.contains("`read`"));
    assert!(vs[1].message.contains("`gen` of `Rec`"));
    assert!(vs[1].message.contains("`write`"));
}

#[test]
fn r6_clean_fixture_is_silent() {
    assert_eq!(active("r6_clean.rs", RuleId::R6), vec![]);
}

#[test]
fn r6_waived_fixture_reports_skip_field_only() {
    assert_eq!(active("r6_waived.rs", RuleId::R6), vec![]);
    let w = waived("r6_waived.rs", RuleId::R6);
    assert_eq!(spans(&w), vec![(6, 9)]);
    assert!(w[0].message.contains("either `write` or `read`"));
}

#[test]
fn r7_violation_fixture_exact_spans() {
    let vs = active("r7_violation.rs", RuleId::R7);
    assert_eq!(spans(&vs), vec![(4, 18), (5, 18)]);
    assert!(vs[0].message.contains("keys::"));
    assert!(vs[0].message.contains("dfs.block.size"));
}

#[test]
fn r7_clean_fixture_is_silent() {
    assert_eq!(active("r7_clean.rs", RuleId::R7), vec![]);
}

#[test]
fn r7_waived_fixture_reports_waived_only() {
    assert_eq!(active("r7_waived.rs", RuleId::R7), vec![]);
    assert_eq!(spans(&waived("r7_waived.rs", RuleId::R7)), vec![(5, 10)]);
}

#[test]
fn r8_violation_fixture_exact_spans() {
    let vs = active("r8_violation.rs", RuleId::R8);
    assert_eq!(spans(&vs), vec![(3, 24), (3, 33), (6, 16), (10, 16), (10, 31)]);
    assert!(vs[0].message.contains("BTreeMap"));
    assert!(vs[1].message.contains("BTreeSet"));
}

#[test]
fn r8_clean_fixture_is_silent() {
    assert_eq!(active("r8_clean.rs", RuleId::R8), vec![]);
}

#[test]
fn r8_waived_fixture_reports_waived_only() {
    assert_eq!(active("r8_waived.rs", RuleId::R8), vec![]);
    assert_eq!(spans(&waived("r8_waived.rs", RuleId::R8)), vec![(5, 23), (9, 16)]);
}

/// The acceptance bar: the fixture suite exercises all eight distinct
/// rule IDs.
#[test]
fn fixture_suite_reports_all_eight_rule_ids() {
    let mut seen = std::collections::BTreeSet::new();
    for name in [
        "r1_violation.rs",
        "r2_violation.rs",
        "r3_violation.rs",
        "r4_violation.rs",
        "r5_violation.rs",
        "r6_violation.rs",
        "r7_violation.rs",
        "r8_violation.rs",
    ] {
        for v in lint::lint_source_all_rules(name, &fixture(name), &fixture_manifest()) {
            seen.insert(v.rule);
        }
    }
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), RuleId::all().to_vec());
}

/// Violations render as `file:line:col: Rn [name] message`.
#[test]
fn violation_display_format() {
    let vs = active("r1_violation.rs", RuleId::R1);
    let line = vs[0].to_string();
    assert!(line.starts_with("r1_violation.rs:3:15: R1 [panic-free-daemons]"), "{line}");
}

/// `check` has one rule: with no baseline file anywhere, a single unwaived
/// violation fails it (exit 1) and a reasoned waiver on that site passes
/// it (exit 0).
#[test]
fn check_fails_on_one_unwaived_violation() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_verdict");
    let src_dir = root.join("crates/dfs/src");
    std::fs::create_dir_all(&src_dir).expect("creating the scratch workspace");
    let check = |body: &str| {
        std::fs::write(src_dir.join("lib.rs"), body).expect("writing the scratch source");
        std::process::Command::new(env!("CARGO_BIN_EXE_hadooplab-lint"))
            .arg("--root")
            .arg(&root)
            .arg("check")
            .output()
            .expect("running hadooplab-lint")
    };

    let out = check("pub fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("1 active violations, 0 waived"), "{text}");
    assert!(text.contains("crates/dfs/src/lib.rs:2:7: R1"), "{text}");

    let out =
        check("pub fn f(o: Option<u8>) -> u8 {\n    o.unwrap() // lint:allow(R1): fixture\n}\n");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("0 active violations, 1 waived"), "{text}");
}
