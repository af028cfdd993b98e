//! A self-contained Rust lexer with full line:column spans.
//!
//! The rules in this crate are *token-level* invariants (`.unwrap()`
//! call-sites, `panic!` macro invocations, `as u32` cast pairs, `impl
//! Writable for T` headers), so a faithful tokenizer is all the parsing
//! they need. What matters — and what naive `grep` gets wrong — is that
//! occurrences inside string literals, comments, and doc-text must *not*
//! count, while every real token must carry an exact span for reporting
//! and for waiver matching. This lexer handles the complete Rust literal
//! grammar: nested block comments, raw strings with arbitrary `#` fences,
//! byte/C-string prefixes, char-literal vs. lifetime disambiguation.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `impl`, `for`, `u32`, ...).
    Ident,
    /// A lifetime (`'a`, `'_`) — distinct so `'a` never reads as a char.
    Lifetime,
    /// Single punctuation character (`.`, `!`, `(`, `<`, ...).
    Punct,
    /// String / char / byte-string literal (text excludes quotes).
    StrLit,
    /// Numeric literal, suffix included (`0`, `0x7F`, `1_000u64`, `2.5`).
    NumLit,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

/// A comment, kept out of the token stream but retained for waivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Comment {
    /// Comment body without the `//` / `/*` markers.
    pub text: String,
    /// Line the comment starts on.
    pub line: u32,
    /// True when a non-comment token precedes it on the same line
    /// (a trailing comment waives its own line; a standalone one, the next).
    pub trailing: bool,
}

/// Lex `src` into tokens plus a side-channel of comments.
///
/// The lexer never fails: bytes it cannot classify become single-char
/// `Punct` tokens, so rules degrade gracefully on exotic input instead of
/// masking a whole file.
pub(crate) fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    src: std::marker::PhantomData<&'a str>,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    /// Line number of the most recently pushed token (for `trailing`).
    last_token_line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            src: std::marker::PhantomData,
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            comments: Vec::new(),
            last_token_line: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.last_token_line = line;
        self.tokens.push(Token { kind, text, line, col });
    }

    fn run(mut self) -> (Vec<Token>, Vec<Comment>) {
        while let Some(c) = self.peek() {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(line),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, col),
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c == '_' || c.is_alphabetic() => self.ident(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line, col);
                }
            }
        }
        (self.tokens, self.comments)
    }

    fn line_comment(&mut self, line: u32) {
        let trailing = self.last_token_line == line;
        self.bump();
        self.bump(); // consume `//`
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment { text, line, trailing });
    }

    fn block_comment(&mut self, line: u32) {
        let trailing = self.last_token_line == line;
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1u32;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                    text.push_str("/*");
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break, // unterminated — tolerate
            }
        }
        self.comments.push(Comment { text, line, trailing });
    }

    /// A plain (escaped) string literal; the opening `"` is at the cursor.
    fn string(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek() {
            match c {
                '\\' => {
                    self.bump();
                    if let Some(e) = self.bump() {
                        text.push('\\');
                        text.push(e);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push(TokKind::StrLit, text, line, col);
    }

    /// A raw string: cursor sits on `r`'s following char run of `#`s or `"`.
    /// `fences` has already counted the `#`s.
    fn raw_string(&mut self, line: u32, col: u32, fences: usize) {
        for _ in 0..fences {
            self.bump(); // the `#`s
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek() {
            if c == '"' {
                // Check for `"` followed by exactly `fences` `#`s.
                let mut ok = true;
                for i in 0..fences {
                    if self.peek_at(1 + i) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump();
                    for _ in 0..fences {
                        self.bump();
                    }
                    break 'outer;
                }
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::StrLit, text, line, col);
    }

    /// `'` at the cursor: decide char literal vs lifetime.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // the quote
        match self.peek() {
            Some('\\') => {
                // Escaped char literal: '\n', '\'', '\u{1F600}'.
                self.bump();
                let mut text = String::from("\\");
                while let Some(c) = self.peek() {
                    if c == '\'' {
                        self.bump();
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokKind::StrLit, text, line, col);
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                // Could be 'a' (char) or 'a / 'static (lifetime): scan the
                // ident run and look for a closing quote.
                let mut len = 0usize;
                while let Some(n) = self.peek_at(len) {
                    if n == '_' || n.is_alphanumeric() {
                        len += 1;
                    } else {
                        break;
                    }
                }
                if self.peek_at(len) == Some('\'') {
                    // Char literal (single scalar like 'x' — multi-char ident
                    // runs before a quote only occur in malformed source).
                    let mut text = String::new();
                    for _ in 0..len {
                        if let Some(ch) = self.bump() {
                            text.push(ch);
                        }
                    }
                    self.bump(); // closing quote
                    self.push(TokKind::StrLit, text, line, col);
                } else {
                    let mut text = String::from("'");
                    for _ in 0..len {
                        if let Some(ch) = self.bump() {
                            text.push(ch);
                        }
                    }
                    self.push(TokKind::Lifetime, text, line, col);
                }
            }
            _ => {
                // Stray quote (e.g. inside macro) — emit as punct.
                self.push(TokKind::Punct, "'".to_string(), line, col);
            }
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        // Integer / prefix part: digits, underscores, hex/bin/oct letters,
        // and type suffixes are all alphanumeric — consume the run.
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fraction: a `.` followed by a digit (not `..` range, not method).
        if self.peek() == Some('.') {
            if let Some(n) = self.peek_at(1) {
                if n.is_ascii_digit() {
                    text.push('.');
                    self.bump();
                    while let Some(c) = self.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        self.push(TokKind::NumLit, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // String-literal prefixes: r"", r#""#, b"", br#""#, c"", cr"".
        match (text.as_str(), self.peek()) {
            ("r" | "br" | "cr", Some('"')) => return self.raw_string(line, col, 0),
            ("r" | "br" | "cr", Some('#')) => {
                // Count fences; only a raw string if a quote follows them
                // (otherwise it's `r#ident` — a raw identifier... which the
                // ident pass above already split; `#` here means fences).
                let mut fences = 0usize;
                while self.peek_at(fences) == Some('#') {
                    fences += 1;
                }
                if self.peek_at(fences) == Some('"') {
                    return self.raw_string(line, col, fences);
                }
            }
            ("b" | "c", Some('"')) => {
                // Byte/C string: lex body like a normal string.
                return self.string(line, col);
            }
            ("b", Some('\'')) => {
                // Byte char b'x'.
                return self.char_or_lifetime(line, col);
            }
            _ => {}
        }
        self.push(TokKind::Ident, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts_with_spans() {
        let (toks, _) = lex("let x = a.unwrap();");
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.kind, TokKind::Ident);
        assert_eq!((unwrap.line, unwrap.col), (1, 11));
        assert!(toks.iter().any(|t| t.kind == TokKind::Punct && t.text == "."));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap() panic!"; s"#);
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "panic"));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::StrLit));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"has \"quotes\" and .unwrap()\"#; done";
        let toks = kinds(src);
        assert!(toks.iter().any(|(_, t)| t == "done"));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn byte_and_c_strings() {
        let toks = kinds("let a = b\"panic!\"; let c = c\"todo!\"; end");
        assert!(toks.iter().any(|(_, t)| t == "end"));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "panic"));
    }

    #[test]
    fn comments_are_side_channel_and_nested() {
        let (toks, comments) = lex("code(); // trailing note\n/* a /* nested */ block */\nmore();");
        assert!(toks.iter().any(|t| t.text == "more"));
        assert_eq!(comments.len(), 2);
        assert!(comments[0].trailing);
        assert_eq!(comments[0].text, " trailing note");
        assert!(!comments[1].trailing);
        assert!(comments[1].text.contains("nested"));
    }

    #[test]
    fn lifetime_vs_char() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.clone()).collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::StrLit).map(|t| t.text.clone()).collect();
        assert_eq!(chars, vec!["x", "\\n"]);
    }

    #[test]
    fn numbers_including_suffixes_and_ranges() {
        let toks = kinds("0 1_000u64 0x7F 2.5 0..5");
        let nums: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::NumLit).map(|(_, t)| t.clone()).collect();
        assert_eq!(nums, vec!["0", "1_000u64", "0x7F", "2.5", "0", "5"]);
    }

    #[test]
    fn line_and_col_track_newlines() {
        let (toks, _) = lex("a\n  b\n    c");
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!((b.line, b.col), (2, 3));
        assert_eq!((c.line, c.col), (3, 5));
    }
}
