//! R9: dead public items, a workspace pass beside R7's key census.
//!
//! A `pub` fn, const, static, struct, enum, trait or type under
//! `crates/*/src` is dead when no token in the non-test code of any other
//! file names it. The files read for references are `crates/*/src`, the
//! root `src/`, `examples/` and `benchmark/src` (a package of its own
//! that compiles against the crates' public API); integration tests and
//! `#[cfg(test)]` code do not keep an item alive.
//!
//! Exempt, because narrowing them would not compile or they are not
//! items of their own:
//!
//! * trait-impl methods and trait items (they carry no `pub`);
//! * `pub use` and `pub mod`;
//! * fields;
//! * a type or trait named in its own file by a public interface: a
//!   `pub` item's header, a `pub` field, a `pub enum`'s variants, a `pub
//!   trait`'s body, or a trait impl's trait path and signatures. Such a
//!   type is reached through the item that names it; a method or field
//!   that names its own type does not count.
//!
//! The match is by name, so a same-named token elsewhere hides a hit: R9
//! can miss a dead item but never flags a used one. Each hit reports at
//! the item's name and honours `// lint:allow(R9): reason` there.

use crate::items::{collect_items, matching_brace};
use crate::lexer::TokKind;
use crate::rules::{RuleId, Violation};
use crate::scan::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// What R9 found: its violations and how many public items it weighed.
pub struct PublicItems {
    pub violations: Vec<Violation>,
    /// Every `pub` fn, const, static, struct, enum, trait and type in the
    /// non-test code of `crates/*/src`, used or not.
    pub count: usize,
}

/// One `pub` item declaration.
struct PubItem {
    kind: &'static str,
    name: String,
    line: u32,
    col: u32,
}

/// Files whose items R9 weighs.
fn defines_items(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, inner)| inner.starts_with("src/"))
}

/// Files whose non-test code keeps an item alive.
fn holds_references(path: &str) -> bool {
    defines_items(path)
        || path.starts_with("src/")
        || path.starts_with("examples/")
        || path.starts_with("benchmark/src/")
}

/// Run the pass over `files` (workspace-relative path, lexed source).
/// Each file's role comes from its path; files outside the reference set
/// are ignored.
pub fn check_public_items(files: &[(String, ScannedFile)]) -> PublicItems {
    let files: Vec<&(String, ScannedFile)> =
        files.iter().filter(|(rel, _)| holds_references(rel)).collect();
    // How many files name each identifier in their non-test code.
    let mut named_by: BTreeMap<&str, usize> = BTreeMap::new();
    let idents: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|(_, sf)| {
            sf.tokens
                .iter()
                .zip(&sf.in_test)
                .filter(|(t, &test)| !test && t.kind == TokKind::Ident)
                .map(|(t, _)| t.text.as_str())
                .collect()
        })
        .collect();
    for set in &idents {
        for name in set {
            *named_by.entry(name).or_default() += 1;
        }
    }

    let mut out = PublicItems { violations: Vec::new(), count: 0 };
    for ((rel, sf), own) in files.iter().zip(&idents) {
        if !defines_items(rel) {
            continue;
        }
        let (items, interface) = scan_file(sf);
        out.count += items.len();
        for item in items {
            let elsewhere = named_by[item.name.as_str()] - usize::from(own.contains(&*item.name));
            let is_type = matches!(item.kind, "struct" | "enum" | "trait" | "type");
            let reached =
                interface.get(&item.name).is_some_and(|by| by.iter().any(|o| *o != item.name));
            if elsewhere > 0 || (is_type && reached) {
                continue;
            }
            out.violations.push(Violation {
                rule: RuleId::R9,
                file: rel.clone(),
                line: item.line,
                col: item.col,
                message: format!(
                    "`pub {} {}` is named by no other file's non-test code: delete it \
                     or narrow it to `pub(crate)` or private \
                     (waive: `// lint:allow(R9): reason`)",
                    item.kind, item.name
                ),
                waived: sf.is_waived(RuleId::R9, item.line),
            });
        }
    }
    out
}

/// Which owners' public interfaces name an identifier: the item a `pub`
/// header, field, variant list or trait-impl signature belongs to (a
/// type, or `""` for a free item).
type Interface = BTreeMap<String, BTreeSet<String>>;

/// The file's `pub` items, and its public interface (see the module docs).
fn scan_file(sf: &ScannedFile) -> (Vec<PubItem>, Interface) {
    let toks = &sf.tokens;
    let parsed = collect_items(sf);
    // Trait impls by the span of their `impl` keyword.
    let trait_impls: BTreeMap<(u32, u32), _> = parsed
        .impls
        .iter()
        .filter(|im| im.trait_name.is_some())
        .map(|im| ((im.line, im.col), im))
        .collect();
    // Inherent impl and struct bodies, by the type they belong to: a
    // method or field names its own type without making it reachable.
    let mut bodies: Vec<(Range<usize>, &str)> = parsed
        .impls
        .iter()
        .filter(|im| im.trait_name.is_none())
        .map(|im| (im.body.clone(), im.type_name.as_str()))
        .collect();
    for k in 0..toks.len() {
        let name = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident);
        if let (Some(name), "struct") = (name, toks[k].text.as_str()) {
            let open = header_end(sf, k + 1);
            if toks.get(open).is_some_and(|t| t.text == "{") {
                bodies.push((open..matching_brace(sf, open), name.text.as_str()));
            }
        }
    }
    let owner_at = |i: usize| bodies.iter().find(|(r, _)| r.contains(&i)).map_or("", |b| b.1);

    let mut items = Vec::new();
    let mut spans: Vec<(Range<usize>, &str)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if sf.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if let Some(im) = trait_impls.get(&(t.line, t.col)).filter(|_| t.text == "impl") {
            // A trait impl's trait path (not its self type, which may be
            // private) and the signatures in its body.
            let mut angles = 0i32;
            let for_at = (i..im.body.start).find(|&j| {
                match toks[j].text.as_str() {
                    "<" => angles += 1,
                    ">" => angles -= 1,
                    _ => {}
                }
                toks[j].text == "for" && angles == 0
            });
            let owner = im.type_name.as_str();
            spans.push((i..for_at.unwrap_or(im.body.start), owner));
            spans.extend(signatures(sf, im.body.clone()).into_iter().map(|r| (r, owner)));
            continue;
        }
        // Bare `pub` only: `pub(crate)` and friends are already narrow.
        if t.text != "pub" || toks.get(i + 1).is_some_and(|n| n.text == "(") {
            continue;
        }
        let mut k = i + 1;
        while let Some(q) = toks.get(k) {
            match q.text.as_str() {
                "async" | "unsafe" => k += 1,
                "const" if toks.get(k + 1).is_some_and(|n| is_fn_qualifier(&n.text)) => k += 1,
                "extern" => {
                    k += 1;
                    if toks.get(k).is_some_and(|n| n.kind == TokKind::StrLit) {
                        k += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(kw) = toks.get(k) else { continue };
        let kind = match kw.text.as_str() {
            "fn" => "fn",
            "const" => "const",
            "static" => "static",
            "struct" => "struct",
            "enum" => "enum",
            "trait" => "trait",
            "type" => "type",
            // A field (`pub name: Type`, or a tuple struct's `pub Type`).
            _ if kw.kind == TokKind::Ident && kw.text != "use" && kw.text != "mod" => {
                spans.push((i..field_end(sf, i), owner_at(i)));
                continue;
            }
            _ => continue,
        };
        let mut n = k + 1;
        if kind == "static" && toks.get(n).is_some_and(|t| t.text == "mut") {
            n += 1;
        }
        let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident && t.text != "_") else {
            continue;
        };
        items.push(PubItem { kind, name: name.text.clone(), line: name.line, col: name.col });
        let end = header_end(sf, n);
        // A pub enum's variants and a pub trait's items are public too.
        let whole =
            matches!(kind, "enum" | "trait") && toks.get(end).is_some_and(|t| t.text == "{");
        let owner =
            if matches!(kind, "fn" | "const" | "static") { owner_at(i) } else { &name.text };
        spans.push((n + 1..if whole { matching_brace(sf, end) } else { end }, owner));
    }
    let mut interface = Interface::new();
    for (range, owner) in spans {
        for t in toks[range].iter().filter(|t| t.kind == TokKind::Ident) {
            interface.entry(t.text.clone()).or_default().insert(owner.to_string());
        }
    }
    (items, interface)
}

fn is_fn_qualifier(s: &str) -> bool {
    matches!(s, "fn" | "unsafe" | "async" | "extern")
}

/// Index of the `{` or `;` that ends the item header starting at `from`
/// (outside parentheses and brackets).
fn header_end(sf: &ScannedFile, from: usize) -> usize {
    let toks = &sf.tokens;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

/// Where a field declared at `from` ends: the next `,` outside any group,
/// or the close of the struct body it sits in.
fn field_end(sf: &ScannedFile, from: usize) -> usize {
    let toks = &sf.tokens;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        let arrow = t.text == ">" && j > 0 && toks[j - 1].text == "-";
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if arrow => {}
            ")" | "]" | "}" | ">" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            "," if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

/// The `fn`, `type` and `const` headers directly inside an impl `body`.
fn signatures(sf: &ScannedFile, body: Range<usize>) -> Vec<Range<usize>> {
    let toks = &sf.tokens;
    let mut out = Vec::new();
    let mut j = body.start;
    while j < body.end {
        match toks[j].text.as_str() {
            "fn" | "type" | "const" if toks[j].kind == TokKind::Ident => {
                let end = header_end(sf, j);
                out.push(j..end);
                j = if toks.get(end).is_some_and(|t| t.text == "{") {
                    matching_brace(sf, end) + 1
                } else {
                    end + 1
                };
            }
            _ => j += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(files: &[(&str, &str)]) -> PublicItems {
        let scanned: Vec<(String, ScannedFile)> =
            files.iter().map(|(rel, src)| (rel.to_string(), ScannedFile::new(src))).collect();
        check_public_items(&scanned)
    }

    fn flagged(files: &[(&str, &str)]) -> Vec<String> {
        census(files)
            .violations
            .iter()
            .map(|v| format!("{}:{}:{}", v.file, v.line, v.col))
            .collect()
    }

    #[test]
    fn qualifiers_statics_and_restricted_visibility() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static mut C: u8 = 0;\npub(crate) fn d() {}\npub const _: () = ();\n";
        let out = census(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(out.count, 3);
        let names: Vec<_> = out.violations.iter().map(|v| v.message.clone()).collect();
        assert!(names[0].contains("`pub fn a`"), "{names:?}");
        assert!(names[1].contains("`pub fn b`"), "{names:?}");
        assert!(names[2].contains("`pub static C`"), "{names:?}");
    }

    #[test]
    fn trait_impl_signatures_and_enum_variants_are_interface() {
        let src = "pub struct It;\nimpl Iterator for It { type Item = Row; fn next(&mut self) -> Option<Row> { None } }\n\
                   pub struct Row;\npub enum Msg { Hit(Payload) }\npub struct Payload;\n\
                   pub struct Cb { pub f: fn(u8) -> Out, pub g: u8 }\npub struct Out;\npub struct Lone;\n\
                   pub struct Own { pub next: Option<Box<Own>> }\nimpl Own { pub fn mk() -> Own { Own } }\n";
        let user = "fn u(_: It, _: Msg, _: Cb) {}";
        // `Lone` is named nowhere; `Own` only by its own field and method.
        assert_eq!(
            flagged(&[("crates/a/src/lib.rs", src), ("crates/b/src/lib.rs", user)]),
            vec![
                "crates/a/src/lib.rs:8:12",
                "crates/a/src/lib.rs:9:12",
                "crates/a/src/lib.rs:10:19"
            ]
        );
    }

    #[test]
    fn only_crate_sources_define_and_tests_do_not_reference() {
        let files = [
            ("src/lib.rs", "pub fn root_item() {}"),
            ("crates/a/src/lib.rs", "pub fn used() {}\npub fn seam() {}"),
            ("crates/a/tests/it.rs", "fn t() { seam(); }"),
            ("examples/demo.rs", "fn main() { used(); }"),
        ];
        assert_eq!(flagged(&files), vec!["crates/a/src/lib.rs:2:8"]);
        assert_eq!(census(&files).count, 2);
    }
}
