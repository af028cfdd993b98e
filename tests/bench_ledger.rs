//! The committed perf ledger: every `BENCH_*.json` at the repository root
//! is a list of `scripts/bench_summary.py` summaries, one per workload and
//! seed of an alternating A/B run (`scripts/bench_ab.sh`). Each names a
//! workload `BENCHMARK.json` lists and, per metric, an end-to-end metric
//! it declares, so a renamed metric or workload cannot leave a ledger row
//! that reads as current. `BENCHMARK.json` is only read.

use std::collections::BTreeMap;
use std::path::Path;

/// A JSON value, as much of it as the ledger and the contract use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(members) => members.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            _ => &[],
        }
    }
}

/// A recursive-descent reader over the whole text; `Err` names the byte.
struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader { text: text.as_bytes(), at: 0 };
        let value = r.value()?;
        r.blank();
        if r.at == r.text.len() {
            Ok(value)
        } else {
            Err(format!("trailing bytes at {}", r.at))
        }
    }

    fn blank(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.blank();
        if self.text.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.blank();
        let rest = &self.text[self.at..];
        for (word, value) in
            [("null", Json::Null), ("true", Json::Bool(true)), ("false", Json::Bool(false))]
        {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.blank();
                if self.text.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::List(items));
                }
                loop {
                    items.push(self.value()?);
                    self.blank();
                    match self.text.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::List(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = BTreeMap::new();
                self.blank();
                if self.text.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.blank();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let value = self.value()?;
                    if members.insert(key.clone(), value).is_some() {
                        return Err(format!("key {key:?} twice"));
                    }
                    self.blank();
                    match self.text.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            _ => {
                let len =
                    rest.iter().take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b)).count();
                let number = std::str::from_utf8(&rest[..len]).expect("ASCII");
                self.at += len;
                number
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| format!("not a value at byte {}", self.at - len))
            }
        }
    }

    /// A string; `\uXXXX` only inside the Basic Multilingual Plane, which
    /// is all Python's `json.dump` writes for the ledger's names and units.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.text.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    let escape = self.at;
                    let (c, len) = match self.text.get(self.at + 1) {
                        Some(b'n') => ('\n', 2),
                        Some(b't') => ('\t', 2),
                        Some(&c @ (b'"' | b'\\' | b'/')) => (c as char, 2),
                        Some(b'u') => {
                            let hex = self.text.get(self.at + 2..self.at + 6).unwrap_or(&[]);
                            let c = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(format!("bad \\u escape at byte {escape}"))?;
                            (c, 6)
                        }
                        _ => return Err(format!("unsupported escape at byte {escape}")),
                    };
                    self.at += len;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Reader::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_ledger_row_names_a_declared_workload_and_end_to_end_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = read(&root.join("BENCHMARK.json"));
    let workloads: Vec<&str> =
        contract.get("workloads").list().iter().filter_map(|w| w.get("name").str()).collect();
    let metrics: Vec<&str> =
        contract.get("end_to_end").list().iter().filter_map(|m| m.get("name").str()).collect();
    assert!(!workloads.is_empty() && !metrics.is_empty(), "BENCHMARK.json names nothing");

    let mut ledgers: Vec<_> = std::fs::read_dir(root)
        .expect("the repository root")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    ledgers.sort();
    assert!(!ledgers.is_empty(), "no BENCH_*.json at the repository root");
    for path in &ledgers {
        let rows = read(path);
        assert!(!rows.list().is_empty(), "{}: not a non-empty list", path.display());
        for row in rows.list() {
            let workload = row.get("workload").str().unwrap_or("");
            let at = format!("{} ({workload})", path.display());
            assert!(workloads.contains(&workload), "{at}: workload not in BENCHMARK.json");
            for key in ["a_commit", "b_commit"] {
                let commit = row.get(key).str().unwrap_or("");
                assert!(
                    commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{at}: {key} {commit:?} is not a full commit id"
                );
            }
            let pairs = row.get("pairs").num().unwrap_or(0.0);
            assert!(pairs >= 1.0 && row.get("seed").num().is_some(), "{at}: pairs and seed");
            let mut named = Vec::new();
            for m in row.get("metrics").list() {
                let name = m.get("name").str().unwrap_or("");
                assert!(metrics.contains(&name), "{at}: metric {name:?} not in BENCHMARK.json");
                for side in ["a", "b"] {
                    let s = m.get(side);
                    let (q1, median, q3) =
                        (s.get("q1").num(), s.get("median").num(), s.get("q3").num());
                    assert!(
                        matches!((q1, median, q3), (Some(q1), Some(m), Some(q3)) if q1 <= m && m <= q3),
                        "{at}: {name}'s {side} quartiles"
                    );
                }
                let won = m.get("pairs_won").num().unwrap_or(-1.0);
                assert!((0.0..=pairs).contains(&won), "{at}: {name} won {won} of {pairs} pairs");
                assert!(matches!(m.get("gain_holds"), Json::Bool(_)), "{at}: {name}'s gain_holds");
                named.push(name);
            }
            named.sort_unstable();
            let mut declared = metrics.clone();
            declared.sort_unstable();
            assert_eq!(named, declared, "{at}: one row per end-to-end metric");
        }
    }
}

#[test]
fn the_reader_takes_what_the_ledger_writes() {
    let parsed = Reader::parse(r#" [{"a": -1.5e3, "b": [true, null], "c": "x\"y µs"}, {}] "#);
    let mut object = BTreeMap::new();
    object.insert("a".to_string(), Json::Num(-1500.0));
    object.insert("b".to_string(), Json::List(vec![Json::Bool(true), Json::Null]));
    object.insert("c".to_string(), Json::Str("x\"y µs".to_string()));
    assert_eq!(parsed, Ok(Json::List(vec![Json::Object(object), Json::Object(BTreeMap::new())])));
    assert!(Reader::parse(r#"{"a": 1,}"#).is_err());
    assert!(Reader::parse(r#"{"a": 1} x"#).is_err());
    assert!(Reader::parse(r#"{"a": 1, "a": 2}"#).is_err());
}
