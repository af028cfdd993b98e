//! The nine workspace invariants: token-level rules R1–R5, structural
//! rules R6–R8, and R9's public-item census.
//!
//! | id | name                       | scope (production code only)            |
//! |----|----------------------------|-----------------------------------------|
//! | R1 | panic-free-daemons         | dfs, cluster (provision included),      |
//! |    |                            | mapreduce::{engine, jobtracker}         |
//! | R2 | sim-time                   | sim-facing crates (common, dfs, cluster,|
//! |    |                            | mapreduce, hbase, core, chaos,          |
//! |    |                            | metrics): clocks, unseeded RNGs,        |
//! |    |                            | host threads outside `common::pool`     |
//! | R3 | lossless-casts             | sortbuf / merge / block hot paths       |
//! | R4 | writable-manifest          | whole workspace (`impl Writable` headers) |
//! | R5 | counters-hygiene           | whole workspace (`incr*(.., 0)` call-sites) |
//! | R6 | writable-field-coverage    | whole workspace (struct fields vs their |
//! |    |                            | `impl Writable` write/read bodies)      |
//! | R7 | config-key-hygiene         | `Configuration::get*` literals everywhere |
//! |    |                            | but `common/src/config.rs`; key census  |
//! |    |                            | at workspace level (see `confkeys`)     |
//! | R8 | deterministic-collections  | sim-facing crates (same scope as R2)    |
//! | R9 | dead-public-items          | `pub` items in `crates/*/src`, at       |
//! |    |                            | workspace level (see `deadpub`)         |
//!
//! Every rule reports `file:line:col`, an explanation, and the waiver
//! syntax; violations inside `#[cfg(test)]` regions are skipped, and
//! `// lint:allow(Rn): reason` comments downgrade a hit to "waived".
//! R6 additionally honors the per-field `// lint: skip-field(reason)`
//! waiver for fields that intentionally do not serialize.

use crate::items::FileItems;
use crate::lexer::{TokKind, Token};
use crate::scan::ScannedFile;
use std::fmt;

/// Stable rule identifier (what waivers reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
}

impl RuleId {
    /// Parse "R1".."R9" (case-insensitive).
    pub(crate) fn parse(s: &str) -> Option<RuleId> {
        match s.to_ascii_uppercase().as_str() {
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R6" => Some(RuleId::R6),
            "R7" => Some(RuleId::R7),
            "R8" => Some(RuleId::R8),
            "R9" => Some(RuleId::R9),
            _ => None,
        }
    }

    /// Short human name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R1 => "panic-free-daemons",
            RuleId::R2 => "sim-time",
            RuleId::R3 => "lossless-casts",
            RuleId::R4 => "writable-manifest",
            RuleId::R5 => "counters-hygiene",
            RuleId::R6 => "writable-field-coverage",
            RuleId::R7 => "config-key-hygiene",
            RuleId::R8 => "deterministic-collections",
            RuleId::R9 => "dead-public-items",
        }
    }

    /// All rules, in report order.
    pub fn all() -> [RuleId; 9] {
        [
            RuleId::R1,
            RuleId::R2,
            RuleId::R3,
            RuleId::R4,
            RuleId::R5,
            RuleId::R6,
            RuleId::R7,
            RuleId::R8,
            RuleId::R9,
        ]
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One rule hit at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// True when a `lint:allow` comment covers it (reported, not counted).
    pub waived: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}:{}: {} [{}]{} {}",
            self.file,
            self.line,
            self.col,
            self.rule,
            self.rule.name(),
            w,
            self.message
        )
    }
}

/// Which rules apply to a workspace-relative file path.
///
/// Fixture tests bypass this via [`lint_source_all_rules`]; the CLI goes
/// through it so scope changes live in exactly one place.
pub(crate) fn rules_for_path(path: &str) -> Vec<RuleId> {
    let mut rules = Vec::new();
    let daemon_crate = path.starts_with("crates/dfs/src/")
        || path.starts_with("crates/cluster/src/")
        || path == "crates/mapreduce/src/engine.rs"
        || path == "crates/mapreduce/src/jobtracker.rs";
    if daemon_crate {
        rules.push(RuleId::R1);
    }
    let sim_facing = path.starts_with("crates/dfs/src/")
        || path.starts_with("crates/cluster/src/")
        || path.starts_with("crates/mapreduce/src/")
        || path.starts_with("crates/hbase/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/chaos/src/")
        || path.starts_with("crates/metrics/src/")
        // Home of the thread pool, whose two entry points carry R2 waivers.
        || path.starts_with("crates/common/src/");
    if sim_facing {
        rules.push(RuleId::R2);
    }
    let hot_path = path == "crates/mapreduce/src/sortbuf.rs"
        || path == "crates/mapreduce/src/merge.rs"
        || path == "crates/dfs/src/block.rs";
    if hot_path {
        rules.push(RuleId::R3);
    }
    // R4's per-file half (impl collection), R5, and R6 are workspace-wide.
    rules.push(RuleId::R5);
    rules.push(RuleId::R6);
    // R7's call-site half runs everywhere except the config module itself
    // (which is where the bare key strings legitimately live). Its key
    // census half is workspace-level; see `confkeys::check_keys`.
    if path != crate::confkeys::CONFIG_PATH {
        rules.push(RuleId::R7);
    }
    // R8 shares R2's sim-facing scope: nondeterministic iteration order is
    // only a bug where it can leak into the trace hash.
    if sim_facing {
        rules.push(RuleId::R8);
    }
    rules
}

/// Evaluate `rules` against one scanned file. R4 is not in this list —
/// it needs the cross-file manifest and runs at workspace level via
/// [`collect_writable_impls`].
pub(crate) fn lint_tokens(file: &str, sf: &ScannedFile, rules: &[RuleId]) -> Vec<Violation> {
    let mut out = Vec::new();
    // R6 is the only per-file rule that needs the item-level pass; build it
    // once, only when asked for.
    let items =
        if rules.contains(&RuleId::R6) { Some(crate::items::collect_items(sf)) } else { None };
    for &rule in rules {
        match rule {
            RuleId::R1 => rule_r1(file, sf, &mut out),
            RuleId::R2 => rule_r2(file, sf, &mut out),
            RuleId::R3 => rule_r3(file, sf, &mut out),
            RuleId::R4 => {} // workspace-level; see manifest::check
            RuleId::R5 => rule_r5(file, sf, &mut out),
            RuleId::R6 => {
                if let Some(items) = &items {
                    rule_r6(file, sf, items, &mut out);
                }
            }
            RuleId::R7 => rule_r7_call_sites(file, sf, &mut out),
            RuleId::R8 => rule_r8(file, sf, &mut out),
            RuleId::R9 => {} // workspace-level; see deadpub::check_public_items
        }
    }
    out.sort_by_key(|v| (v.line, v.col, v.rule));
    out
}

fn push(
    out: &mut Vec<Violation>,
    sf: &ScannedFile,
    rule: RuleId,
    file: &str,
    t: &Token,
    message: String,
) {
    out.push(Violation {
        rule,
        file: file.to_string(),
        line: t.line,
        col: t.col,
        message,
        waived: sf.is_waived(rule, t.line),
    });
}

/// R1: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in daemon-path production code.
fn rule_r1(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let text = toks[i].text.as_str();
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|t| t.text == s);
        let prev_is = |s: &str| i > 0 && toks[i - 1].text == s;
        match text {
            "unwrap" | "expect" if prev_is(".") && next_is("(") => {
                push(
                    out,
                    sf,
                    RuleId::R1,
                    file,
                    &toks[i],
                    format!(
                        ".{text}() in a daemon path — degrade via a \
                         `common::error::HlError` return instead \
                         (waive: `// lint:allow(R1): reason`)"
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => {
                push(
                    out,
                    sf,
                    RuleId::R1,
                    file,
                    &toks[i],
                    format!(
                        "{text}! in a daemon path — daemons must degrade, \
                         not crash; return `HlError::Internal` \
                         (waive: `// lint:allow(R1): reason`)"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// R2: no wall-clock or unseeded randomness in sim-facing code. All time
/// must flow through `common::simtime`; all RNGs must be seeded.
///
/// Host threads are the third way in for nondeterminism — what they do is
/// ordered by the host's scheduler — so `available_parallelism` and
/// `thread::scope` / `thread::spawn` are flagged too: threads enter through
/// `common::pool`, which carries the waivers and their reasons.
fn rule_r2(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if sf.in_test[i] || tok.kind != TokKind::Ident {
            continue;
        }
        let path_to = |name: &str| {
            toks.get(i + 1).is_some_and(|t| t.text == ":")
                && toks.get(i + 2).is_some_and(|t| t.text == ":")
                && toks.get(i + 3).is_some_and(|t| t.text == name)
        };
        let (what, instead) = match tok.text.as_str() {
            "Instant" => ("std::time::Instant (wall clock)", CLOCK_AND_RNG),
            "SystemTime" => ("std::time::SystemTime (wall clock)", CLOCK_AND_RNG),
            "thread_rng" => ("rand::thread_rng (unseeded RNG)", CLOCK_AND_RNG),
            "from_entropy" => ("SeedableRng::from_entropy (unseeded RNG)", CLOCK_AND_RNG),
            "OsRng" => ("rand::rngs::OsRng (unseeded RNG)", CLOCK_AND_RNG),
            "available_parallelism" => ("available_parallelism (host core count)", ONE_POOL),
            "thread" if path_to("scope") => ("thread::scope (host threads)", ONE_POOL),
            "thread" if path_to("spawn") => ("thread::spawn (host threads)", ONE_POOL),
            "thread" if path_to("Builder") => ("thread::Builder (host threads)", ONE_POOL),
            _ => continue,
        };
        push(
            out,
            sf,
            RuleId::R2,
            file,
            tok,
            format!(
                "{what} breaks simulation determinism — {instead} \
                 (waive: `// lint:allow(R2): reason`)"
            ),
        );
    }
}

const CLOCK_AND_RNG: &str = "use `common::simtime::{SimTime, SimDuration}` / a seeded `ChaCha8Rng`";
const ONE_POOL: &str = "compute on `common::pool`, whose results do not depend on thread timing";

/// R3: narrowing `as` casts on the sort/merge/block hot paths. Lengths and
/// offsets must use `try_into()` (or carry a waiver arguing the bound).
fn rule_r3(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &sf.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if sf.in_test[i] {
            continue;
        }
        if toks[i].kind == TokKind::Ident && toks[i].text == "as" {
            let target = toks[i + 1].text.as_str();
            if toks[i + 1].kind == TokKind::Ident && (NARROW.contains(&target) || target == "usize")
            {
                push(
                    out,
                    sf,
                    RuleId::R3,
                    file,
                    &toks[i],
                    format!(
                        "`as {target}` narrowing cast on a hot path — \
                         silently truncates large lengths/offsets; use \
                         `try_into()` (waive: `// lint:allow(R3): reason` \
                         stating the bound)"
                    ),
                );
            }
        }
    }
}

/// R5: `incr(.., 0)` / `incr_task(.., 0)` / `incr_fs(.., 0)` — a zero
/// increment used to pre-register a counter. `touch`/`touch_task` is the
/// idiom; a zero delta reads as a bug.
fn rule_r5(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if !matches!(name, "incr" | "incr_task" | "incr_fs") {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        // Walk to the matching `)`.
        let mut depth = 0i32;
        let mut close = None;
        for (k, t) in toks.iter().enumerate().skip(i + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(k);
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let Some(close) = close else { continue };
        // Final argument must be the standalone literal `0` — i.e. the
        // token before `)` is `0` and the one before that is `,` (so
        // `x.0`, `len - 0`, etc. don't match).
        if close >= 2
            && toks[close - 1].kind == TokKind::NumLit
            && toks[close - 1].text == "0"
            && toks[close - 2].text == ","
        {
            let suggest = match name {
                "incr" => "touch",
                "incr_task" => "touch_task",
                _ => "touch",
            };
            push(
                out,
                sf,
                RuleId::R5,
                file,
                &toks[i],
                format!(
                    "`{name}(.., 0)` zero-delta counter registration — use \
                     `Counters::{suggest}` (waive: `// lint:allow(R5): reason`)"
                ),
            );
        }
    }
}

/// R6: every named field of a struct with a same-file `impl Writable`
/// must be referenced in both the `write` and the `read` (or
/// `read_fields`) method bodies. A field that serializes but never
/// deserializes — or vice versa — silently corrupts restart recovery.
///
/// Scope notes: enums and tuple structs are skipped (their round-trip
/// correctness is the R4 manifest's job — positional/variant coverage
/// is not name-trackable); so are impls for types declared in another
/// file and `$t` macro templates. The per-field waiver is
/// `// lint: skip-field(reason)` on (or directly above) the field.
fn rule_r6(file: &str, sf: &ScannedFile, items: &FileItems, out: &mut Vec<Violation>) {
    let mentions = |body: &std::ops::Range<usize>, name: &str| {
        sf.tokens[body.clone()].iter().any(|t| t.kind == TokKind::Ident && t.text == name)
    };
    for imp in &items.impls {
        if imp.in_test || imp.macro_template || imp.trait_name.as_deref() != Some("Writable") {
            continue;
        }
        let Some(st) = items.struct_named(&imp.type_name) else { continue };
        if st.tuple || st.in_test || st.fields.is_empty() {
            continue;
        }
        let write_fn = imp.fns.iter().find(|f| f.name == "write");
        let read_fn = imp.fns.iter().find(|f| f.name == "read" || f.name == "read_fields");
        // Impls that delegate both directions wholesale (no write/read
        // bodies here) can't be field-checked.
        let (Some(wf), Some(rf)) = (write_fn, read_fn) else { continue };
        for field in &st.fields {
            let in_write = mentions(&wf.body, &field.name);
            let in_read = mentions(&rf.body, &field.name);
            if in_write && in_read {
                continue;
            }
            let missing = match (in_write, in_read) {
                (false, false) => "either `write` or `read`",
                (false, true) => "`write`",
                (true, false) => "`read`",
                (true, true) => unreachable!(),
            };
            out.push(Violation {
                rule: RuleId::R6,
                file: file.to_string(),
                line: field.line,
                col: field.col,
                message: format!(
                    "field `{}` of `{}` is not referenced in {} of its \
                     `impl Writable` — every field must round-trip \
                     (waive: `// lint: skip-field(reason)` on the field)",
                    field.name, st.name, missing
                ),
                waived: sf.is_field_skipped(field.line) || sf.is_waived(RuleId::R6, field.line),
            });
        }
    }
}

/// The `Configuration` getters whose first argument must be a `keys::`
/// constant outside `common/src/config.rs` (R7's call-site half).
const CONFIG_GETTERS: [&str; 6] =
    ["get_u64", "get_u32", "get_usize", "get_f64", "get_bool", "get_or"];

/// R7 (call-site half): a `Configuration::get*` call whose key argument
/// is a bare string literal. Key strings live in `config::keys`; a
/// stringly call-site can drift from the declared key and silently read
/// the default forever. The census half (every key has a `with_defaults`
/// entry, no dead keys) is workspace-level — see `confkeys::check_keys`.
fn rule_r7_call_sites(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if !CONFIG_GETTERS.contains(&name) {
            continue;
        }
        // `.get_u64("literal"` — method call with a string-literal key.
        if i == 0 || toks[i - 1].text != "." {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        if arg.kind != TokKind::StrLit {
            continue;
        }
        push(
            out,
            sf,
            RuleId::R7,
            file,
            &toks[i],
            format!(
                "`.{name}({})` with a bare key string — use a \
                 `config::keys::` constant so call-sites can't drift from \
                 the declared key (waive: `// lint:allow(R7): reason`)",
                arg.text
            ),
        );
    }
}

/// R8: `HashMap`/`HashSet` in sim-facing code. Their iteration order is
/// randomized per-process (SipHash seeding), so any trace, snapshot, or
/// scheduling decision that walks one diverges between runs and breaks
/// the chaos soak's trace-hash determinism. Use `BTreeMap`/`BTreeSet`
/// or a sorted `Vec`.
fn rule_r8(file: &str, sf: &ScannedFile, out: &mut Vec<Violation>) {
    for (i, tok) in sf.tokens.iter().enumerate() {
        if sf.in_test[i] || tok.kind != TokKind::Ident {
            continue;
        }
        let (what, instead) = match tok.text.as_str() {
            "HashMap" => ("HashMap", "BTreeMap"),
            "HashSet" => ("HashSet", "BTreeSet"),
            _ => continue,
        };
        push(
            out,
            sf,
            RuleId::R8,
            file,
            tok,
            format!(
                "`{what}` in sim-facing code — iteration order is \
                 process-randomized and breaks trace-hash determinism; \
                 use `{instead}` or a sorted `Vec` \
                 (waive: `// lint:allow(R8): reason`)"
            ),
        );
    }
}

/// A `impl Writable for T` header found in a file (R4's raw material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WritableImpl {
    /// The implementing type's head identifier (`Cell`, `Vec`, `(tuple)`),
    /// generic arguments stripped.
    pub type_name: String,
    pub line: u32,
    pub col: u32,
    /// True for `impl Writable for $t { .. }` inside `macro_rules!` — the
    /// expansion sites, not the template, are what need coverage.
    pub macro_template: bool,
}

/// Find every `impl [<..>] [path::]Writable for Type` header outside test
/// code.
pub(crate) fn collect_writable_impls(sf: &ScannedFile) -> Vec<WritableImpl> {
    let toks = &sf.tokens;
    let mut found = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if sf.in_test[i] || toks[i].kind != TokKind::Ident || toks[i].text != "impl" {
            i += 1;
            continue;
        }
        let impl_tok = &toks[i];
        let mut j = i + 1;
        // Skip a generics block `<...>` (tokens are single chars, so count
        // plain angle depth; no shift operators appear in an impl header).
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut adepth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => adepth += 1,
                    ">" => {
                        adepth -= 1;
                        if adepth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Collect the trait path until `for` / `{` / `(` — at angle depth 0
        // so `Pair<A, B>`-style trait generics don't hide the `for`.
        let mut trait_last_ident: Option<&str> = None;
        let mut adepth = 0i32;
        let mut for_at = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => adepth += 1,
                ">" => adepth -= 1,
                "for" if adepth == 0 && t.kind == TokKind::Ident => {
                    for_at = Some(j);
                    break;
                }
                "{" | ";" if adepth == 0 => break,
                _ => {
                    if t.kind == TokKind::Ident {
                        trait_last_ident = Some(t.text.as_str());
                    }
                }
            }
            j += 1;
        }
        let (Some(for_at), Some("Writable")) = (for_at, trait_last_ident) else {
            i += 1;
            continue;
        };
        // The implementing type: first meaningful token after `for`.
        let mut k = for_at + 1;
        // Skip leading `&`, lifetimes, `mut`.
        while k < toks.len()
            && (toks[k].text == "&" || toks[k].kind == TokKind::Lifetime || toks[k].text == "mut")
        {
            k += 1;
        }
        if let Some(t) = toks.get(k) {
            let (type_name, macro_template) = if t.text == "(" {
                ("(tuple)".to_string(), false)
            } else if t.text == "$" {
                (String::new(), true)
            } else {
                (t.text.clone(), false)
            };
            found.push(WritableImpl {
                type_name,
                line: impl_tok.line,
                col: impl_tok.col,
                macro_template,
            });
        }
        i = k + 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rules(src: &str) -> Vec<Violation> {
        let sf = ScannedFile::new(src);
        lint_tokens("test.rs", &sf, &RuleId::all())
    }

    fn active(src: &str) -> Vec<Violation> {
        all_rules(src).into_iter().filter(|v| !v.waived).collect()
    }

    #[test]
    fn r1_catches_unwrap_expect_and_panic_macros() {
        let v = active(
            "fn f() -> u8 {\n  let x = g().unwrap();\n  let y = h().expect(\"no\");\n  panic!(\"bad\");\n}",
        );
        let r1: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R1).collect();
        assert_eq!(r1.len(), 3);
        assert_eq!((r1[0].line, r1[0].col), (2, 15));
        assert_eq!(r1[1].line, 3);
        assert_eq!(r1[2].line, 4);
    }

    #[test]
    fn r1_ignores_unwrap_or_and_field_names() {
        let v = active("fn f() { let x = g().unwrap_or(0); s.expect_count += 1; }");
        assert!(v.iter().all(|v| v.rule != RuleId::R1));
    }

    #[test]
    fn r1_skips_test_code_and_strings_and_comments() {
        let v = active(
            "// a comment mentioning panic!(\"x\") and .unwrap()\nfn f() { let s = \"panic!\"; }\n#[cfg(test)]\nmod tests {\n  fn t() { g().unwrap(); panic!(\"ok in tests\"); }\n}",
        );
        assert!(v.iter().all(|v| v.rule != RuleId::R1));
    }

    #[test]
    fn r2_catches_wall_clock_and_unseeded_rng() {
        let v = active(
            "fn f() {\n  let t = std::time::Instant::now();\n  let s = SystemTime::now();\n  let r = thread_rng();\n}",
        );
        let r2: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R2).collect();
        assert_eq!(r2.len(), 3);
        assert_eq!((r2[0].line, r2[0].col), (2, 22));
    }

    #[test]
    fn r2_catches_host_threads_but_not_other_uses_of_the_word() {
        let v = active(
            "fn f() {\n  let n = std::thread::available_parallelism();\n  std::thread::scope(|s| { s.spawn(|| 1); });\n  thread::spawn(g);\n  let thread = thread::current().id();\n}",
        );
        let r2: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R2).collect();
        assert_eq!(
            r2.iter().map(|v| (v.line, v.col)).collect::<Vec<_>>(),
            [(2, 24), (3, 8), (4, 3)]
        );
        assert!(r2[0].message.contains("common::pool"));
    }

    #[test]
    fn r2_allows_sim_time_and_seeded_rng() {
        let v = active(
            "fn f(now: SimTime) { let d = SimDuration::from_secs(1); let r = ChaCha8Rng::seed_from_u64(7); }",
        );
        assert!(v.iter().all(|v| v.rule != RuleId::R2));
    }

    #[test]
    fn r3_catches_narrowing_but_not_widening() {
        let v =
            active("fn f(n: u64) { let a = n as u32; let b = n as usize; let c = 3u32 as u64; }");
        let r3: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R3).collect();
        assert_eq!(r3.len(), 2);
        assert!(r3[0].message.contains("as u32"));
        assert!(r3[1].message.contains("as usize"));
    }

    #[test]
    fn r5_catches_zero_delta_incr_only() {
        let v = active(
            "fn f(c: &mut Counters) {\n  c.incr_task(T::MapOutputBytes, 0);\n  c.incr(\"g\", \"n\", 0);\n  c.incr_task(T::MapOutputBytes, 10);\n  c.incr(\"g\", \"n\", x.0);\n}",
        );
        let r5: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R5).collect();
        assert_eq!(r5.len(), 2);
        assert_eq!(r5[0].line, 2);
        assert_eq!(r5[1].line, 3);
        assert!(r5[0].message.contains("touch_task"));
    }

    #[test]
    fn waiver_downgrades_to_waived() {
        let v = all_rules(
            "fn f(n: u64) {\n  // lint:allow(R3): n < 100 by construction\n  let a = n as u32;\n}",
        );
        let r3: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R3).collect();
        assert_eq!(r3.len(), 1);
        assert!(r3[0].waived);
    }

    #[test]
    fn r6_flags_field_missing_from_write_or_read() {
        let v = active(
            "struct Rec { a: u64, b: u64, c: u64 }\n\
             impl Writable for Rec {\n\
             \x20 fn write(&self, buf: &mut Vec<u8>) { w(self.a); w(self.b); }\n\
             \x20 fn read(buf: &mut &[u8]) -> Result<Self> { Ok(Rec { a: r(buf)?, c: 0 }) }\n\
             }",
        );
        let r6: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R6).collect();
        // `b` serializes but never deserializes; `c` appears in read's
        // struct literal but never in write.
        assert_eq!(r6.len(), 2);
        assert!(r6[0].message.contains("`b`"));
        assert!(r6[0].message.contains("`read`"));
        assert!(r6[1].message.contains("`c`"));
        assert!(r6[1].message.contains("`write`"));
        assert_eq!((r6[0].line, r6[0].col), (1, 22));
    }

    #[test]
    fn r6_accepts_full_coverage_and_skip_field_waiver() {
        let v = all_rules(
            "struct Rec {\n\
             \x20 a: u64,\n\
             \x20 cache: u64, // lint: skip-field(rebuilt on load)\n\
             }\n\
             impl Writable for Rec {\n\
             \x20 fn write(&self, buf: &mut Vec<u8>) { w(self.a); }\n\
             \x20 fn read(buf: &mut &[u8]) -> Result<Self> { Ok(Rec { a: r(buf)?, cache: 0 }) }\n\
             }",
        );
        let r6: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R6).collect();
        assert_eq!(r6.len(), 1);
        assert!(r6[0].waived, "skip-field must downgrade to waived");
    }

    #[test]
    fn r6_skips_enums_tuple_structs_and_foreign_types() {
        let v = active(
            "enum Op { A, B }\n\
             impl Writable for Op { fn write(&self, b: &mut Vec<u8>) {} fn read(b: &mut &[u8]) -> Result<Self> { Ok(Op::A) } }\n\
             struct Wrap(u64);\n\
             impl Writable for Wrap { fn write(&self, b: &mut Vec<u8>) {} fn read(b: &mut &[u8]) -> Result<Self> { Ok(Wrap(0)) } }\n\
             impl Writable for Elsewhere { fn write(&self, b: &mut Vec<u8>) {} fn read(b: &mut &[u8]) -> Result<Self> { todo() } }",
        );
        assert!(v.iter().all(|v| v.rule != RuleId::R6));
    }

    #[test]
    fn r7_flags_bare_string_keys_but_not_const_keys() {
        let v = active(
            "fn f(conf: &Configuration) {\n\
             \x20 let a = conf.get_u64(\"dfs.block.size\", 0);\n\
             \x20 let b = conf.get_u64(keys::DFS_BLOCK_SIZE, 0);\n\
             \x20 let c = conf.get_bool(keys::MAPRED_SPECULATIVE);\n\
             \x20 let d = map.get(\"unrelated\");\n\
             }",
        );
        let r7: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R7).collect();
        assert_eq!(r7.len(), 1);
        assert_eq!((r7[0].line, r7[0].col), (2, 16));
        assert!(r7[0].message.contains("dfs.block.size"));
    }

    #[test]
    fn r8_flags_hash_collections_outside_tests() {
        let v = active(
            "use std::collections::HashMap;\n\
             fn f() { let s: HashSet<u32> = HashSet::new(); }\n\
             #[cfg(test)]\nmod t { use std::collections::HashMap; }",
        );
        let r8: Vec<_> = v.iter().filter(|v| v.rule == RuleId::R8).collect();
        assert_eq!(r8.len(), 3);
        assert_eq!((r8[0].line, r8[0].col), (1, 23));
        assert!(r8[0].message.contains("BTreeMap"));
        assert!(r8[1].message.contains("BTreeSet"));
    }

    #[test]
    fn collect_writable_impls_handles_generics_paths_macros() {
        let sf = ScannedFile::new(
            "impl Writable for Cell { }\n\
             impl<A: Writable, B: Writable> Writable for Pair<A, B> { }\n\
             impl hl_common::writable::Writable for EditOp { }\n\
             impl Writable for (A, B) { }\n\
             impl Writable for $t { }\n\
             impl Display for NotWritable { }\n\
             #[cfg(test)]\nmod t { impl Writable for TestOnly {} }",
        );
        let impls = collect_writable_impls(&sf);
        let names: Vec<_> =
            impls.iter().filter(|i| !i.macro_template).map(|i| i.type_name.as_str()).collect();
        assert_eq!(names, vec!["Cell", "Pair", "EditOp", "(tuple)"]);
        assert_eq!(impls.iter().filter(|i| i.macro_template).count(), 1);
        assert_eq!(impls[0].line, 1);
        assert_eq!(impls[1].line, 2);
    }
}
