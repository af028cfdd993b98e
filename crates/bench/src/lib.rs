//! The committed-baseline file format shared by `bench-snapshot` and
//! `scale-soak`: one JSON object of named sections, each a flat object of
//! unsigned integer metrics. Both bins write it with [`sections_json`] and
//! read single values back with [`extract`]; how far a value may drift
//! from its baseline is each bin's own `check`.

/// How [`sections_json`] lays out each section's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `"name": { "a": 1, "b": 2 }` — `BENCH_baseline.json`.
    OneLine,
    /// One metric per line, indented under the section — `BENCH_scale.json`.
    Indented,
}

/// Render `sections` as `{ "name": { "metric": N, ... }, ... }`.
pub fn sections_json<M: AsRef<[(&'static str, u64)]>>(
    sections: &[(&str, M)],
    layout: Layout,
) -> String {
    let (open, sep, close) = match layout {
        Layout::OneLine => ("{ ", ", ", " }"),
        Layout::Indented => ("{\n    ", ",\n    ", "\n  }"),
    };
    let mut out = String::from("{\n");
    for (i, (name, metrics)) in sections.iter().enumerate() {
        let body: Vec<String> = metrics
            .as_ref()
            .iter()
            .map(|(metric, value)| format!("\"{metric}\": {value}"))
            .collect();
        out.push_str(&format!(
            "  \"{name}\": {open}{}{close}{}\n",
            body.join(sep),
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Extract `"metric": N` from the named section of a baseline file. The
/// format is the one [`sections_json`] writes — a flat object per section
/// — so a scan to the quoted section key and then to the quoted metric key
/// inside its braces is a complete parse.
pub fn extract(json: &str, section: &str, metric: &str) -> Option<u64> {
    let start = json.find(&format!("\"{section}\""))?;
    let body = &json[start..];
    let open = body.find('{')?;
    let close = body[open..].find('}')? + open;
    let section = &body[open..close];
    let at = section.find(&format!("\"{metric}\""))?;
    let rest = &section[at..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(&'static str, Vec<(&'static str, u64)>)> {
        vec![
            ("wordcount", vec![("wall_time_us", 2_169_649), ("shuffle_bytes", 2_550_000)]),
            ("codec", vec![("wc_codec_shuffle_bytes", 230_317), ("hs_codec_wall_us", 4_168_453)]),
        ]
    }

    #[test]
    fn extract_reads_back_what_either_layout_writes() {
        for layout in [Layout::OneLine, Layout::Indented] {
            let json = sections_json(&sample(), layout);
            for (section, metrics) in sample() {
                for (metric, value) in metrics {
                    assert_eq!(extract(&json, section, metric), Some(value), "{section}/{metric}");
                }
            }
        }
    }

    #[test]
    fn layouts_are_the_committed_file_formats() {
        let one = [("a", vec![("x", 1), ("y", 2)]), ("b", vec![("z", 3)])];
        assert_eq!(
            sections_json(&one, Layout::OneLine),
            "{\n  \"a\": { \"x\": 1, \"y\": 2 },\n  \"b\": { \"z\": 3 }\n}\n"
        );
        assert_eq!(
            sections_json(&one, Layout::Indented),
            "{\n  \"a\": {\n    \"x\": 1,\n    \"y\": 2\n  },\n  \"b\": {\n    \"z\": 3\n  }\n}\n"
        );
    }

    #[test]
    fn missing_section_or_metric_is_none() {
        let json = sections_json(&sample(), Layout::OneLine);
        assert_eq!(extract(&json, "terasort", "wall_time_us"), None);
        assert_eq!(extract(&json, "wordcount", "spill_bytes"), None);
        // A metric of a later section is not found through an earlier one.
        assert_eq!(extract(&json, "wordcount", "hs_codec_wall_us"), None);
    }

    #[test]
    fn a_metric_name_containing_a_section_name_is_not_that_section() {
        // `wc_codec_shuffle_bytes` appears before the `codec` section here;
        // the quoted match must skip it.
        let json = "{\n  \"first\": { \"wc_codec_shuffle_bytes\": 7 },\n  \"codec\": { \"wc_codec_shuffle_bytes\": 9 }\n}\n";
        assert_eq!(extract(json, "codec", "wc_codec_shuffle_bytes"), Some(9));
        // Nor does a metric match as the suffix of a longer metric name.
        assert_eq!(extract(json, "codec", "shuffle_bytes"), None);
    }

    #[test]
    fn whitespace_after_the_colon_is_skipped() {
        let json = "{ \"s\": { \"a\":1, \"b\":   22, \"c\":\n\t333 } }";
        assert_eq!(extract(json, "s", "a"), Some(1));
        assert_eq!(extract(json, "s", "b"), Some(22));
        assert_eq!(extract(json, "s", "c"), Some(333));
    }
}
