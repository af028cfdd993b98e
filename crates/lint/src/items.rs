//! The item-level structural pass: struct/enum/impl/fn spans.
//!
//! The token rules (R1–R5) need nothing beyond a faithful token stream,
//! but R6 (writable-field-coverage) asks a *structural* question: "is
//! every named field of this struct referenced inside the `write` and
//! `read` bodies of its `impl Writable`?" Answering it requires knowing
//! where items begin and end. This module builds exactly that much
//! structure — no types, no expressions — on top of the existing lexer
//! and the same brace-depth discipline `scan::mark_test_regions` uses:
//!
//! * [`StructDef`]: name plus every named field with its exact span
//!   (tuple and unit structs carry no named fields and are recorded
//!   fieldless);
//! * enum names (so a rule can tell "type is an enum" from "type is
//!   defined elsewhere");
//! * [`ImplBlock`]: trait path tail + implementing type, the body's
//!   token range, and every directly-nested `fn` with *its* body range.
//!
//! Everything is spans over the shared token vector — rules slice
//! `sf.tokens[range]` and ask token-level questions inside a
//! structurally-located region.

use crate::lexer::TokKind;
use crate::scan::ScannedFile;
use std::ops::Range;

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// A `struct` item and its named fields (empty for tuple/unit structs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub col: u32,
    pub fields: Vec<FieldDef>,
    /// True for tuple structs (`struct Wrap(u64);`) — they have positional
    /// fields a name-based coverage rule cannot track.
    pub tuple: bool,
    /// Declared under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
}

/// A directly-nested `fn` inside an impl body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    pub name: String,
    pub line: u32,
    pub col: u32,
    /// Token-index range of the fn body, braces excluded.
    pub body: Range<usize>,
}

/// An `impl` block header plus its method spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplBlock {
    /// Last identifier of the trait path (`Writable` for
    /// `hl_common::writable::Writable`), `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Head identifier of the implementing type, generics stripped;
    /// `"(tuple)"` for tuple impls, empty for `$t` macro templates.
    pub type_name: String,
    pub line: u32,
    pub col: u32,
    /// True for `impl .. for $t` inside `macro_rules!` templates.
    pub macro_template: bool,
    /// Token-index range of the impl body, braces excluded.
    pub body: Range<usize>,
    /// Directly-nested functions, in source order.
    pub fns: Vec<FnSpan>,
    /// Declared under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
}

/// Everything the structural rules need from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub structs: Vec<StructDef>,
    /// Names of enums declared in this file.
    pub enums: Vec<String>,
    pub impls: Vec<ImplBlock>,
}

impl FileItems {
    /// The struct named `name`, if this file declares one.
    pub fn struct_named(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

/// Walk the token stream and collect item spans.
pub fn collect_items(sf: &ScannedFile) -> FileItems {
    let toks = &sf.tokens;
    let mut items = FileItems::default();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match toks[i].text.as_str() {
            "struct" => {
                let next = parse_struct(sf, i, &mut items);
                i = next;
            }
            "enum" => {
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    items.enums.push(name.text.clone());
                }
                i += 1;
            }
            "impl" => {
                let next = parse_impl(sf, i, &mut items);
                i = next;
            }
            // `fn` introduces a body we must not mine for `struct` tokens?
            // Local structs inside fns are legal Rust; recording them is
            // harmless (names still map to their fields), so no special
            // casing here.
            _ => i += 1,
        }
    }
    items
}

/// Skip a balanced `<...>` generics group starting at `i` (if present);
/// returns the index after it. Plain angle-depth counting is safe in item
/// headers — shift operators cannot appear there.
fn skip_generics(sf: &ScannedFile, mut i: usize) -> usize {
    let toks = &sf.tokens;
    if toks.get(i).is_none_or(|t| t.text != "<") {
        return i;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the matching close brace for the open brace at `open`; returns its
/// index (or the end of the stream for unbalanced input). Shared with the
/// config-key census (`confkeys`), which walks `mod keys` bodies.
pub(crate) fn matching_brace(sf: &ScannedFile, open: usize) -> usize {
    let toks = &sf.tokens;
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// Parse a `struct` item whose `struct` keyword sits at `kw`; records it
/// and returns the index to resume scanning from.
fn parse_struct(sf: &ScannedFile, kw: usize, items: &mut FileItems) -> usize {
    let toks = &sf.tokens;
    let Some(name_tok) = toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return kw + 1;
    };
    let in_test = sf.in_test[kw];
    let mut def = StructDef {
        name: name_tok.text.clone(),
        line: name_tok.line,
        col: name_tok.col,
        fields: Vec::new(),
        tuple: false,
        in_test,
    };
    let mut i = skip_generics(sf, kw + 2);
    // Scan forward past a possible `where` clause to the body opener. A
    // where clause contains `<`/`>` bounds but never braces, so the first
    // `{`, `(` or `;` decides the struct's shape.
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => {
                let close = matching_brace(sf, i);
                collect_named_fields(sf, i + 1..close, &mut def.fields);
                items.structs.push(def);
                return close + 1;
            }
            "(" => {
                def.tuple = true;
                items.structs.push(def);
                return i + 1;
            }
            ";" => {
                items.structs.push(def);
                return i + 1;
            }
            _ => i += 1,
        }
    }
    items.structs.push(def);
    i
}

/// Collect `name: Type` fields at the top nesting level of a struct body.
///
/// Grammar handled: optional attributes (`#[serde(..)]`), optional
/// visibility (`pub`, `pub(crate)`, `pub(in path)`), then `ident :` —
/// everything after the `:` up to the next top-level `,` is the type and
/// is skipped by depth counting over `(`/`[`/`{`/`<`.
fn collect_named_fields(sf: &ScannedFile, range: Range<usize>, out: &mut Vec<FieldDef>) {
    let toks = &sf.tokens;
    let mut i = range.start;
    while i < range.end {
        // Skip attributes.
        while toks.get(i).is_some_and(|t| t.text == "#") {
            if toks.get(i + 1).is_some_and(|t| t.text == "[") {
                let mut depth = 0i32;
                i += 1;
                while i < range.end {
                    match toks[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        // Skip visibility.
        if toks.get(i).is_some_and(|t| t.text == "pub") {
            i += 1;
            if toks.get(i).is_some_and(|t| t.text == "(") {
                let mut depth = 0i32;
                while i < range.end {
                    match toks[i].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
        }
        // The field itself.
        let (Some(name), Some(colon)) = (toks.get(i), toks.get(i + 1)) else { break };
        if name.kind == TokKind::Ident && colon.text == ":" {
            out.push(FieldDef { name: name.text.clone(), line: name.line, col: name.col });
        }
        // Skip the type: to the next `,` at depth 0 (angles included —
        // `Vec<(A, B)>` must not split on its inner comma).
        i += 2;
        let mut depth = 0i32;
        while i < range.end {
            match toks[i].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Parse an `impl` item whose `impl` keyword sits at `kw`; records it
/// (with nested fn spans) and returns the resume index.
fn parse_impl(sf: &ScannedFile, kw: usize, items: &mut FileItems) -> usize {
    let toks = &sf.tokens;
    let impl_tok = &toks[kw];
    let mut j = skip_generics(sf, kw + 1);
    // Collect the first path: either the trait (when a `for` follows at
    // angle depth 0) or the implementing type of an inherent impl.
    let mut first_last_ident: Option<String> = None;
    let mut first_head: Option<(String, bool)> = None; // (head ident, is_macro)
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
            "(" => {
                if first_head.is_none() {
                    first_head = Some(("(tuple)".to_string(), false));
                }
            }
            "$" => {
                if first_head.is_none() {
                    first_head = Some((String::new(), true));
                }
            }
            _ => {
                if t.kind == TokKind::Ident {
                    if first_head.is_none() {
                        first_head = Some((t.text.clone(), false));
                    }
                    first_last_ident = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    // Resolve the implementing type (and trait, if any).
    let (trait_name, type_name, macro_template) = match for_at {
        Some(f) => {
            let mut k = f + 1;
            while k < toks.len()
                && (toks[k].text == "&"
                    || toks[k].kind == TokKind::Lifetime
                    || toks[k].text == "mut")
            {
                k += 1;
            }
            let (ty, mac) = match toks.get(k) {
                Some(t) if t.text == "(" => ("(tuple)".to_string(), false),
                Some(t) if t.text == "$" => (String::new(), true),
                Some(t) => (t.text.clone(), false),
                None => (String::new(), false),
            };
            j = k;
            (first_last_ident, ty, mac)
        }
        None => {
            let (ty, mac) = first_head.unwrap_or((String::new(), false));
            (None, ty, mac)
        }
    };
    // Find the body opener.
    while j < toks.len() && toks[j].text != "{" {
        if toks[j].text == ";" {
            return j + 1; // `impl Trait for T;` — no body to mine
        }
        j += 1;
    }
    if j >= toks.len() {
        return j;
    }
    let open = j;
    let close = matching_brace(sf, open);
    let fns = collect_fns(sf, open + 1..close);
    items.impls.push(ImplBlock {
        trait_name,
        type_name,
        line: impl_tok.line,
        col: impl_tok.col,
        macro_template,
        body: open + 1..close,
        fns,
        in_test: sf.in_test[kw],
    });
    close + 1
}

/// Find `fn name { .. }` items directly nested in `range` (an impl body),
/// skipping over nested braces so closures and block expressions inside
/// one fn body never read as sibling fns.
fn collect_fns(sf: &ScannedFile, range: Range<usize>) -> Vec<FnSpan> {
    let toks = &sf.tokens;
    let mut fns = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == "fn" {
            let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            // The signature holds no braces (types and where clauses are
            // brace-free), so the next `{` opens the body; a `;` first
            // means a trait-method declaration without a body.
            let mut j = i + 2;
            while j < range.end && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if j >= range.end || toks[j].text == ";" {
                i = j + 1;
                continue;
            }
            let close = matching_brace(sf, j);
            fns.push(FnSpan {
                name: name_tok.text.clone(),
                line: name_tok.line,
                col: name_tok.col,
                body: j + 1..close,
            });
            i = close + 1;
        } else if t.text == "{" {
            // Const/static initializers etc.: skip their blocks whole.
            i = matching_brace(sf, i) + 1;
        } else {
            i += 1;
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        collect_items(&ScannedFile::new(src))
    }

    #[test]
    fn named_struct_fields_with_spans() {
        let it = items(
            "pub struct Lease {\n    /// doc\n    pub path: String,\n    holder: String,\n    pub(crate) renewed_at: SimTime,\n    #[allow(dead_code)]\n    state: LeaseState,\n}",
        );
        let s = it.struct_named("Lease").unwrap();
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["path", "holder", "renewed_at", "state"]);
        assert_eq!((s.fields[0].line, s.fields[0].col), (3, 9));
        assert_eq!((s.fields[3].line, s.fields[3].col), (7, 5));
        assert!(!s.tuple);
    }

    #[test]
    fn generic_types_do_not_split_fields() {
        let it = items("struct S { a: Vec<(u32, String)>, b: BTreeMap<String, Vec<u8>>, c: u8 }");
        let s = it.struct_named("S").unwrap();
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn tuple_and_unit_structs_are_fieldless() {
        let it = items("struct Wrap(pub u64);\nstruct Marker;\nstruct G<T>(T);");
        assert!(it.struct_named("Wrap").unwrap().tuple);
        assert!(it.struct_named("Wrap").unwrap().fields.is_empty());
        assert!(!it.struct_named("Marker").unwrap().tuple);
        assert!(it.struct_named("G").unwrap().tuple);
    }

    #[test]
    fn enums_are_recorded_by_name() {
        let it = items("enum Fault { A { x: u8 }, B }\nstruct NotEnum { y: u8 }");
        assert!(it.enums.iter().any(|e| e == "Fault"));
        assert!(!it.enums.iter().any(|e| e == "NotEnum"));
        // Variant fields never leak into struct defs.
        assert!(it.struct_named("Fault").is_none());
    }

    #[test]
    fn impl_blocks_with_trait_and_fns() {
        let src = "impl Writable for Lease {\n    fn write(&self, buf: &mut Vec<u8>) { self.path.write(buf); }\n    fn read(buf: &mut &[u8]) -> Result<Self> { Ok(Lease { path: String::read(buf)? }) }\n}";
        let it = items(src);
        assert_eq!(it.impls.len(), 1);
        let im = &it.impls[0];
        assert_eq!(im.trait_name.as_deref(), Some("Writable"));
        assert_eq!(im.type_name, "Lease");
        let fn_names: Vec<&str> = im.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fn_names, vec!["write", "read"]);
    }

    #[test]
    fn inherent_impls_and_path_traits() {
        let it = items(
            "impl Lease { fn touch(&mut self) {} }\nimpl hl_common::writable::Writable for EditOp { fn write(&self, b: &mut Vec<u8>) {} fn read(b: &mut &[u8]) -> Result<Self> { todo!() } }",
        );
        assert_eq!(it.impls.len(), 2);
        assert_eq!(it.impls[0].trait_name, None);
        assert_eq!(it.impls[0].type_name, "Lease");
        assert_eq!(it.impls[1].trait_name.as_deref(), Some("Writable"));
        assert_eq!(it.impls[1].type_name, "EditOp");
    }

    #[test]
    fn closures_inside_fn_bodies_do_not_split_spans() {
        let src = "impl T for S {\n    fn a(&self) { let f = |x: u8| { x + 1 }; f(1); }\n    fn b(&self) {}\n}";
        let it = items(src);
        let names: Vec<&str> = it.impls[0].fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn generic_impl_headers_resolve_type_after_for() {
        let it = items("impl<A: Writable, B: Writable> Writable for Pair<A, B> { fn write(&self, b: &mut Vec<u8>) {} }");
        assert_eq!(it.impls[0].trait_name.as_deref(), Some("Writable"));
        assert_eq!(it.impls[0].type_name, "Pair");
    }

    #[test]
    fn macro_template_impls_are_marked() {
        let it = items("macro_rules! m { ($t:ty) => { impl Writable for $t { fn write(&self, b: &mut Vec<u8>) {} } } }");
        assert_eq!(it.impls.len(), 1);
        assert!(it.impls[0].macro_template);
    }

    #[test]
    fn test_region_items_are_flagged() {
        let it = items(
            "struct Prod { x: u8 }\n#[cfg(test)]\nmod tests {\n    struct TestOnly { y: u8 }\n    impl Writable for TestOnly { fn write(&self, b: &mut Vec<u8>) {} }\n}",
        );
        assert!(!it.struct_named("Prod").unwrap().in_test);
        assert!(it.struct_named("TestOnly").unwrap().in_test);
        assert!(it.impls[0].in_test);
    }

    #[test]
    fn where_clauses_do_not_derail_struct_bodies() {
        let it = items("struct S<T> where T: Clone { inner: T, n: usize }");
        let s = it.struct_named("S").unwrap();
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "n"]);
    }
}
