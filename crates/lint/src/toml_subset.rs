//! A minimal reader for the TOML subset `writable-manifest.toml` uses:
//! top-level `key = value` pairs and `[[table]]` arrays whose entries hold
//! string and integer values. The file is kept in exactly this shape, so a
//! full TOML implementation (an external dependency) buys nothing.

use std::collections::BTreeMap;

/// One `[[name]]` entry: key → string value (integers kept as strings).
pub(crate) type Entry = BTreeMap<String, String>;

/// Parsed document: top-level keys plus ordered `[[array]]` entries.
#[derive(Debug, Default, Clone)]
pub(crate) struct Doc {
    pub top: Entry,
    /// (array name, entry) in file order.
    pub entries: Vec<(String, Entry)>,
}

/// Parse the subset. Unknown syntax is an error naming the line — these
/// files are generated, so leniency would only hide corruption.
pub(crate) fn parse(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut current: Option<usize> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            doc.entries.push((name.trim().to_string(), Entry::new()));
            current = Some(doc.entries.len() - 1);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`, got `{line}`", idx + 1));
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim())
            .ok_or_else(|| format!("line {}: unsupported value `{}`", idx + 1, value.trim()))?;
        match current {
            Some(i) => {
                doc.entries[i].1.insert(key, value);
            }
            None => {
                doc.top.insert(key, value);
            }
        }
    }
    Ok(doc)
}

fn parse_value(v: &str) -> Option<String> {
    if let Some(s) = v.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        // Generated strings never contain escapes beyond `\\` and `\"`.
        return Some(s.replace("\\\"", "\"").replace("\\\\", "\\"));
    }
    if !v.is_empty() && v.chars().all(|c| c.is_ascii_digit()) {
        return Some(v.to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_top_keys_and_entries() {
        let doc = parse(
            "# header\nversion = 1\n\n[[entry]]\nrule = \"R1\"\ncount = 5\n\n[[entry]]\nrule = \"R2\"\ncount = 0\n",
        )
        .unwrap();
        assert_eq!(doc.top.get("version").map(String::as_str), Some("1"));
        assert_eq!(doc.entries.len(), 2);
        assert_eq!(doc.entries[0].1.get("rule").map(String::as_str), Some("R1"));
        assert_eq!(doc.entries[1].1.get("count").map(String::as_str), Some("0"));
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let err = parse("version = 1\nwhat is this\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn quoted_strings_unescape() {
        assert_eq!(parse_value(r#""a \"b\" \\ c""#).unwrap(), "a \"b\" \\ c");
    }
}
