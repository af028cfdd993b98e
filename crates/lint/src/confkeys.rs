//! R7's workspace half: the config-key census.
//!
//! The call-site half (`rules::rule_r7_call_sites`) keeps bare key
//! strings out of `Configuration::get*` calls; this half keeps the
//! declared keys honest. Walking `mod keys` in `common/src/config.rs`
//! against the rest of the workspace catches two drifts the call-site
//! check cannot:
//!
//! * a key const with no `with_defaults` entry — `Configuration::
//!   with_defaults()` is the documented contract ("the stock defaults
//!   the course shipped"), and a key that silently falls through to the
//!   getter-side default value is invisible in rendered configs;
//! * a key no production or test code ever reads — dead config that
//!   suggests a consumer was deleted (or never wired) while the knob
//!   kept advertising itself.
//!
//! Both report at the key const's declaration span and honor the usual
//! `// lint:allow(R7): reason` waiver there.

use crate::items::matching_brace;
use crate::lexer::TokKind;
use crate::rules::{RuleId, Violation};
use crate::scan::ScannedFile;

/// Workspace-relative path of the config module — the one file where
/// bare key strings are legitimate, and the source of the key census.
pub(crate) const CONFIG_PATH: &str = "crates/common/src/config.rs";

/// One `pub const NAME: &str = "key.string";` inside `mod keys`.
struct KeyConst {
    name: String,
    value: String,
    line: u32,
    col: u32,
}

/// Run the census. `scanned` is every production source file, already
/// lexed, keyed by workspace-relative path. No config module in the
/// file set (e.g. fixture runs) means no census.
pub(crate) fn check_keys(scanned: &[(String, ScannedFile)]) -> Vec<Violation> {
    let Some((_, config)) = scanned.iter().find(|(rel, _)| rel == CONFIG_PATH) else {
        return Vec::new();
    };
    let keys = collect_key_consts(config);
    if keys.is_empty() {
        return Vec::new();
    }
    let defaults = with_defaults_idents(config);

    let mut out = Vec::new();
    for key in &keys {
        let waived = config.is_waived(RuleId::R7, key.line);
        if !defaults.contains(&key.name) {
            out.push(Violation {
                rule: RuleId::R7,
                file: CONFIG_PATH.to_string(),
                line: key.line,
                col: key.col,
                message: format!(
                    "config key `{}` ({}) has no `Configuration::with_defaults` \
                     entry — every declared key must ship a default \
                     (waive: `// lint:allow(R7): reason`)",
                    key.name, key.value
                ),
                waived,
            });
        }
        let referenced = scanned.iter().any(|(rel, sf)| {
            rel != CONFIG_PATH
                && sf.tokens.iter().any(|t| t.kind == TokKind::Ident && t.text == key.name)
        });
        if !referenced {
            out.push(Violation {
                rule: RuleId::R7,
                file: CONFIG_PATH.to_string(),
                line: key.line,
                col: key.col,
                message: format!(
                    "config key `{}` ({}) is never read outside the config \
                     module — dead config; delete the const or wire a \
                     consumer (waive: `// lint:allow(R7): reason`)",
                    key.name, key.value
                ),
                waived,
            });
        }
    }
    out
}

/// Every `const NAME: .. = "value";` inside `mod keys { .. }`.
fn collect_key_consts(sf: &ScannedFile) -> Vec<KeyConst> {
    let toks = &sf.tokens;
    let Some(body) = mod_keys_body(sf) else { return Vec::new() };
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        if toks[i].kind == TokKind::Ident && toks[i].text == "const" {
            let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            // The value is the first string literal before the `;`.
            let mut value = String::new();
            let mut j = i + 2;
            while j < body.1 && toks[j].text != ";" {
                if toks[j].kind == TokKind::StrLit {
                    value = toks[j].text.clone();
                    break;
                }
                j += 1;
            }
            out.push(KeyConst { name: name.text.clone(), value, line: name.line, col: name.col });
            i = j;
        }
        i += 1;
    }
    out
}

/// Token-index range (exclusive of braces) of `mod keys { .. }`.
fn mod_keys_body(sf: &ScannedFile) -> Option<(usize, usize)> {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "mod"
            && toks.get(i + 1).is_some_and(|t| t.text == "keys")
            && toks.get(i + 2).is_some_and(|t| t.text == "{")
        {
            return Some((i + 3, matching_brace(sf, i + 2)));
        }
    }
    None
}

/// The set of identifiers inside `fn with_defaults() { .. }` — a key
/// const referenced there (as `keys::NAME`) counts as having a default.
fn with_defaults_idents(sf: &ScannedFile) -> Vec<String> {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|t| t.text == "with_defaults")
        {
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" {
                j += 1;
            }
            if j == toks.len() {
                break;
            }
            let close = matching_brace(sf, j);
            return toks[j + 1..close]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect();
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(files: &[(&str, &str)]) -> Vec<Violation> {
        let scanned: Vec<(String, ScannedFile)> =
            files.iter().map(|(rel, src)| (rel.to_string(), ScannedFile::new(src))).collect();
        check_keys(&scanned)
    }

    const CONFIG_SRC: &str = "pub mod keys {\n\
        \x20 pub const GOOD: &str = \"good.key\";\n\
        \x20 pub const NO_DEFAULT: &str = \"no.default\";\n\
        \x20 pub const DEAD: &str = \"dead.key\"; // lint:allow(R7): staged for PR 8\n\
        }\n\
        impl Configuration {\n\
        \x20 pub fn with_defaults() -> Self {\n\
        \x20   c.set(keys::GOOD, \"1\");\n\
        \x20   c.set(keys::DEAD, \"2\");\n\
        \x20 }\n\
        }\n";

    #[test]
    fn census_flags_missing_default_and_dead_key() {
        let vs = census(&[
            (CONFIG_PATH, CONFIG_SRC),
            ("crates/dfs/src/lib.rs", "fn f() { conf.get_u64(keys::GOOD, 0); g(NO_DEFAULT); }"),
        ]);
        // NO_DEFAULT: has a consumer but no with_defaults entry.
        // DEAD: no consumer — but carries a waiver, so it is downgraded.
        let active: Vec<_> = vs.iter().filter(|v| !v.waived).collect();
        assert_eq!(active.len(), 1);
        assert!(active[0].message.contains("NO_DEFAULT"));
        assert!(active[0].message.contains("with_defaults"));
        assert_eq!((active[0].line, active[0].col), (3, 13));
        let waived: Vec<_> = vs.iter().filter(|v| v.waived).collect();
        assert_eq!(waived.len(), 1);
        assert!(waived[0].message.contains("dead config"));
    }

    #[test]
    fn census_is_silent_with_clean_keys_or_absent_config() {
        let vs = census(&[
            (CONFIG_PATH, "pub mod keys { pub const GOOD: &str = \"g\"; }\nfn with_defaults() { c.set(keys::GOOD, \"1\"); }"),
            ("crates/dfs/src/lib.rs", "fn f() { conf.get_u64(keys::GOOD, 0); }"),
        ]);
        assert!(vs.is_empty());
        assert!(census(&[("crates/dfs/src/lib.rs", "fn f() {}")]).is_empty());
    }
}
