//! R4: Writable completeness against the round-trip test manifest.
//!
//! `crates/lint/writable-manifest.toml` registers every type that
//! implements `Writable`, naming the round-trip test that covers it.
//! The rule fails in both directions:
//!
//! * an `impl Writable for T` whose `T` has no manifest entry — the type
//!   ships without round-trip coverage;
//! * a manifest entry whose named test file no longer exists or no longer
//!   contains the named test function — coverage rotted out from under
//!   the registration.

use crate::rules::{RuleId, Violation, WritableImpl};
use crate::toml_subset;
use std::collections::BTreeMap;
use std::path::Path;

/// Parsed manifest: type name → `path/to/file.rs::test_fn_name`.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    pub types: BTreeMap<String, String>,
}

impl Manifest {
    /// Parse `writable-manifest.toml`.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = toml_subset::parse(text)?;
        let mut types = BTreeMap::new();
        for (name, entry) in &doc.entries {
            if name != "type" {
                return Err(format!("unexpected table [[{name}]] in manifest"));
            }
            let ty = entry
                .get("name")
                .ok_or_else(|| "manifest entry missing `name`".to_string())?
                .clone();
            let test = entry
                .get("test")
                .ok_or_else(|| format!("manifest entry for `{ty}` missing `test`"))?
                .clone();
            if types.insert(ty.clone(), test).is_some() {
                return Err(format!("duplicate manifest entry for `{ty}`"));
            }
        }
        Ok(Manifest { types })
    }

    /// Evaluate R4 over all collected impls, with filesystem access to
    /// verify that registered tests still exist. `root` is the workspace
    /// root; `impls` is `(file, WritableImpl)` for every non-test impl.
    pub(crate) fn check(&self, root: &Path, impls: &[(String, WritableImpl)]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (file, im) in impls {
            if im.macro_template {
                continue; // `$t` templates: covered via their expansions
            }
            if !self.types.contains_key(&im.type_name) {
                out.push(Violation {
                    rule: RuleId::R4,
                    file: file.clone(),
                    line: im.line,
                    col: im.col,
                    message: format!(
                        "`impl Writable for {}` is not registered in \
                         crates/lint/writable-manifest.toml — add a \
                         round-trip test and a [[type]] entry naming it",
                        im.type_name
                    ),
                    waived: false,
                });
            }
        }
        // Integrity of the registrations themselves.
        for (ty, test_ref) in &self.types {
            let Some((path, test_fn)) = test_ref.rsplit_once("::") else {
                out.push(manifest_violation(format!(
                    "manifest entry `{ty}`: test ref `{test_ref}` is not \
                     `path/to/file.rs::test_fn`"
                )));
                continue;
            };
            match std::fs::read_to_string(root.join(path)) {
                Ok(src) => {
                    let defines = src
                        .match_indices(test_fn)
                        .any(|(i, _)| src[..i].trim_end().ends_with("fn"));
                    if !defines {
                        out.push(manifest_violation(format!(
                            "manifest entry `{ty}`: {path} no longer defines \
                             a test fn `{test_fn}`"
                        )));
                    }
                }
                Err(_) => out.push(manifest_violation(format!(
                    "manifest entry `{ty}`: test file {path} does not exist"
                ))),
            }
        }
        out
    }
}

fn manifest_violation(message: String) -> Violation {
    Violation {
        rule: RuleId::R4,
        file: "crates/lint/writable-manifest.toml".to_string(),
        line: 1,
        col: 1,
        message,
        waived: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_manifest() {
        let m = Manifest::parse(
            "[[type]]\nname = \"Cell\"\ntest = \"crates/hbase/src/cell.rs::writable_round_trip\"\n",
        )
        .unwrap();
        assert_eq!(
            m.types.get("Cell").map(String::as_str),
            Some("crates/hbase/src/cell.rs::writable_round_trip")
        );
        assert!(Manifest::parse("[[type]]\nname = \"X\"\n").is_err());
    }

    #[test]
    fn unregistered_impl_is_flagged() {
        let m = Manifest::default();
        let impls = vec![(
            "crates/x/src/lib.rs".to_string(),
            WritableImpl { type_name: "Mystery".into(), line: 4, col: 1, macro_template: false },
        )];
        let v = m.check(Path::new("/nonexistent"), &impls);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::R4);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("Mystery"));
    }

    #[test]
    fn macro_templates_are_exempt() {
        let m = Manifest::default();
        let impls = vec![(
            "crates/x/src/lib.rs".to_string(),
            WritableImpl { type_name: String::new(), line: 9, col: 1, macro_template: true },
        )];
        assert!(m.check(Path::new("/nonexistent"), &impls).is_empty());
    }

    #[test]
    fn rotten_registration_is_flagged() {
        let mut m = Manifest::default();
        m.types.insert("Ghost".into(), "no/such/file.rs::round_trip".into());
        let v = m.check(Path::new("/nonexistent"), &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("does not exist"));
    }
}
