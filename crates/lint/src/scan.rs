//! Structural pass over a lexed file: which tokens are test-only code,
//! and which lines carry waiver directives.
//!
//! This is the single seam between the token stream and the rules. Rules
//! see a [`ScannedFile`] and nothing else, so swapping the hand-rolled
//! lexer for a `syn`-based backend (when the build environment has
//! network access to fetch it) means reimplementing only this module.

use crate::lexer::{lex, Comment, TokKind, Token};
use crate::rules::RuleId;
use std::collections::{BTreeMap, BTreeSet};

/// A file ready for rule evaluation.
pub struct ScannedFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` lives under `#[cfg(test)]` / `#[test]`.
    pub in_test: Vec<bool>,
    /// Line → rules waived on that line (from `lint:allow` comments).
    waived_lines: BTreeMap<u32, Vec<RuleId>>,
    /// Lines carrying a `lint: skip-field(reason)` directive (R6's
    /// per-field waiver for intentionally unserialized fields).
    skip_field_lines: BTreeSet<u32>,
}

impl ScannedFile {
    /// Lex and scan `src`.
    pub fn new(src: &str) -> ScannedFile {
        let (tokens, comments) = lex(src);
        let in_test = mark_test_regions(&tokens);
        let waived_lines = collect_waivers(&comments);
        let skip_field_lines = collect_skip_fields(&comments);
        ScannedFile { tokens, in_test, waived_lines, skip_field_lines }
    }

    /// Is a violation of `rule` at `line` waived?
    ///
    /// A `// lint:allow(R3): reason` comment waives its own line and the
    /// line directly below it, so both trailing and standalone-above
    /// placements work:
    ///
    /// ```text
    /// let x = n as u32; // lint:allow(R3): n < 2^16 by construction
    ///
    /// // lint:allow(R1): poisoned mutex means the process is done anyway
    /// let g = lock.lock().unwrap();
    /// ```
    pub(crate) fn is_waived(&self, rule: RuleId, line: u32) -> bool {
        let hit = |l: &u32| self.waived_lines.get(l).is_some_and(|rs| rs.contains(&rule));
        hit(&line) || (line > 0 && hit(&(line - 1)))
    }

    /// Is the struct field declared at `line` exempt from R6 coverage?
    ///
    /// A `// lint: skip-field(reason)` comment waives the field on its own
    /// line or the line directly below — same placement rules as
    /// [`ScannedFile::is_waived`]:
    ///
    /// ```text
    /// pub cache: Vec<u8>, // lint: skip-field(rebuilt from blocks on read)
    ///
    /// // lint: skip-field(wall-clock only; never persisted)
    /// pub last_touched: SimTime,
    /// ```
    pub(crate) fn is_field_skipped(&self, line: u32) -> bool {
        self.skip_field_lines.contains(&line)
            || (line > 0 && self.skip_field_lines.contains(&(line - 1)))
    }
}

/// Compute, per token, whether it sits inside a test-only item.
///
/// Recognized markers: `#[cfg(test)]`, `#[cfg(any(.., test, ..))]`,
/// `#[test]`. `#[cfg(not(test))]` is production code and is *not*
/// marked. The marked region runs from the item's opening `{` to its
/// matching `}`; attributes on brace-less items (`#[cfg(test)] use ...;`)
/// end at the `;`.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    // Brace depth at which each active test region began; region ends when
    // depth returns to that value.
    let mut region_starts: Vec<i32> = Vec::new();
    // A test attribute was seen; waiting for the item's `{` or a `;`.
    let mut pending = false;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attribute group: `#` `[` ... `]` (also `#![...]`).
        if t.kind == TokKind::Punct && t.text == "#" {
            let mut j = i + 1;
            if tokens.get(j).map(|t| t.text.as_str()) == Some("!") {
                j += 1;
            }
            if tokens.get(j).map(|t| t.text.as_str()) == Some("[") {
                // Find the matching `]`.
                let mut bdepth = 0i32;
                let start = j;
                let mut end = j;
                for (k, tk) in tokens.iter().enumerate().skip(start) {
                    if tk.kind == TokKind::Punct {
                        match tk.text.as_str() {
                            "[" => bdepth += 1,
                            "]" => {
                                bdepth -= 1;
                                if bdepth == 0 {
                                    end = k;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                if end > start {
                    let idents: Vec<&str> = tokens[start..=end]
                        .iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.as_str())
                        .collect();
                    let is_test_attr = match idents.first() {
                        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
                        Some(&"test") => true,
                        _ => false,
                    };
                    if is_test_attr {
                        pending = true;
                    }
                    // Tokens of the attribute itself inherit the current
                    // region state; skip past them.
                    let inside = !region_starts.is_empty();
                    for flag in in_test.iter_mut().take(end + 1).skip(i) {
                        *flag = inside;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }

        in_test[i] = !region_starts.is_empty() || pending;

        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    if pending {
                        region_starts.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    if region_starts.last() == Some(&depth) {
                        region_starts.pop();
                    }
                }
                ";" if pending && region_starts.is_empty() => {
                    // `#[cfg(test)] use foo;` — item over, no braces.
                    pending = false;
                }
                _ => {}
            }
        }
        i += 1;
    }
    in_test
}

/// Collect lines carrying `lint: skip-field(reason)` directives. The
/// reason is mandatory — an empty paren pair does not waive.
fn collect_skip_fields(comments: &[Comment]) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    for c in comments {
        // Accept both `lint: skip-field(` and `lint:skip-field(`.
        let Some(idx) = c.text.find("skip-field(") else { continue };
        let before = c.text[..idx].trim_end();
        if !before.ends_with("lint:") {
            continue;
        }
        let rest = &c.text[idx + "skip-field(".len()..];
        let has_reason = rest.find(')').is_some_and(|close| !rest[..close].trim().is_empty());
        if has_reason {
            set.insert(c.line);
        }
    }
    set
}

/// Parse `lint:allow(R1, R3)` directives out of comment text.
fn collect_waivers(comments: &[Comment]) -> BTreeMap<u32, Vec<RuleId>> {
    let mut map: BTreeMap<u32, Vec<RuleId>> = BTreeMap::new();
    for c in comments {
        let Some(idx) = c.text.find("lint:allow(") else { continue };
        let rest = &c.text[idx + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        for name in rest[..close].split(',') {
            if let Some(rule) = RuleId::parse(name.trim()) {
                map.entry(c.line).or_default().push(rule);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(src: &str) -> ScannedFile {
        ScannedFile::new(src)
    }

    fn test_flag_of(sf: &ScannedFile, ident: &str) -> bool {
        let (i, _) = sf
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| t.text == ident)
            .unwrap_or_else(|| panic!("token {ident} not found"));
        sf.in_test[i]
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let sf = scanned(
            "fn prod() { a(); }\n#[cfg(test)]\nmod tests {\n  fn t() { b(); }\n}\nfn prod2() { c(); }",
        );
        assert!(!test_flag_of(&sf, "a"));
        assert!(test_flag_of(&sf, "b"));
        assert!(!test_flag_of(&sf, "c"));
    }

    #[test]
    fn test_fn_attr_is_marked() {
        let sf = scanned("#[test]\nfn t() { x(); }\nfn p() { y(); }");
        assert!(test_flag_of(&sf, "x"));
        assert!(!test_flag_of(&sf, "y"));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let sf = scanned("#[cfg(not(test))]\nfn p() { x(); }");
        assert!(!test_flag_of(&sf, "x"));
    }

    #[test]
    fn cfg_any_with_test_is_marked() {
        let sf = scanned("#[cfg(any(test, feature = \"slow\"))]\nfn h() { x(); }");
        assert!(test_flag_of(&sf, "x"));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let sf = scanned("#[cfg(test)]\nuse helpers::spawn;\nfn p() { y(); }");
        assert!(test_flag_of(&sf, "spawn"));
        assert!(!test_flag_of(&sf, "y"));
    }

    #[test]
    fn attr_chain_between_cfg_test_and_item() {
        let sf = scanned("#[cfg(test)]\n#[derive(Debug)]\nstruct T { x: u8 }\nfn p() { y(); }");
        assert!(test_flag_of(&sf, "x"));
        assert!(!test_flag_of(&sf, "y"));
    }

    #[test]
    fn waiver_covers_same_and_next_line() {
        let sf = scanned("// lint:allow(R1): fine\nlet a = 1;\nlet b = 2; // lint:allow(R3)\n");
        assert!(sf.is_waived(RuleId::R1, 1));
        assert!(sf.is_waived(RuleId::R1, 2));
        assert!(!sf.is_waived(RuleId::R1, 3));
        assert!(sf.is_waived(RuleId::R3, 3));
        assert!(!sf.is_waived(RuleId::R1, 4));
    }

    #[test]
    fn skip_field_covers_same_and_next_line_and_needs_reason() {
        let sf = scanned(
            "// lint: skip-field(derived cache)\npub a: u8,\npub b: u8, // lint:skip-field(scratch)\npub x: u8,\npub y: u8,\npub c: u8, // lint: skip-field()\n",
        );
        assert!(sf.is_field_skipped(1));
        assert!(sf.is_field_skipped(2));
        assert!(sf.is_field_skipped(3));
        assert!(!sf.is_field_skipped(5));
        assert!(!sf.is_field_skipped(6)); // empty reason does not waive
                                          // A stray `skip-field(` without the `lint:` marker is inert.
        let sf2 = scanned("// see skip-field(notes) elsewhere\npub a: u8,\n");
        assert!(!sf2.is_field_skipped(2));
    }

    #[test]
    fn waiver_multiple_rules() {
        let sf = scanned("// lint:allow(R1, R2)\nx();");
        assert!(sf.is_waived(RuleId::R1, 2));
        assert!(sf.is_waived(RuleId::R2, 2));
        assert!(!sf.is_waived(RuleId::R5, 2));
    }
}
