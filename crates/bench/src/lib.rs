//! The simulated numbers a lecture may quote, as one text table.
//!
//! [`sim_numbers`] runs five pinned MapReduce sections (`sections.rs`) and
//! the NameNode scale driver at 200 DataNodes x 100 000 blocks (`scale.rs`)
//! and returns one `section/metric value` row per number. Every value is a
//! pure function of the engine's cost model and the DFS formats, so the
//! table is pinned exactly: `tests/golden/sim_numbers.txt` is its
//! committed output, `tests/golden_traces.rs` compares the two with
//! [`table_diff`], and `bench-snapshot > tests/golden/sim_numbers.txt`
//! re-pins after an intended change.

use std::collections::BTreeMap;

use hl_common::prelude::*;

mod scale;
mod sections;

/// One section's `(metric, value)` pairs, in table order.
type Metrics = Vec<(&'static str, u64)>;

fn rows(section: &str, metrics: &[(&'static str, u64)]) -> String {
    metrics.iter().map(|(metric, value)| format!("{section}/{metric} {value}\n")).collect()
}

/// The tier-1 table: the five MapReduce sections, then the scale counters
/// at 200 x 100 000. A section whose shape gate fails is an error.
pub fn sim_numbers() -> Result<String> {
    Ok([
        rows("wordcount", &sections::wc_section(false)?),
        rows("terasort", &sections::wc_section(true)?),
        rows("sched", &sections::sched_section()?),
        rows("tpcxhs", &sections::tpcxhs_section()?),
        rows("codec", &sections::codec_section()?),
        scale_numbers(200, 100_000)?,
    ]
    .concat())
}

/// The four scale counters at `nodes` DataNodes and `blocks` blocks, as
/// `scale_<nodes>x<blocks>/counter value` rows.
pub fn scale_numbers(nodes: u64, blocks: u64) -> Result<String> {
    Ok(rows(&format!("scale_{nodes}x{blocks}"), &scale::counters(nodes, blocks)?))
}

/// Compare a freshly produced table with the committed one, exactly and in
/// both directions. Returns one line per row that moved, vanished or
/// appeared, each naming the row and carrying the text to commit; empty
/// means the tables agree. Row order does not matter.
pub fn table_diff(golden: &str, actual: &str) -> Vec<String> {
    fn parse(table: &str) -> BTreeMap<&str, &str> {
        table.lines().map(|line| line.split_once(' ').unwrap_or((line, ""))).collect()
    }
    let (golden, actual) = (parse(golden), parse(actual));
    let mut moved = Vec::new();
    for (name, want) in &golden {
        match actual.get(name) {
            Some(got) if got == want => {}
            Some(got) => moved
                .push(format!("{name}: pinned {want}, now {got}; replacement line: {name} {got}")),
            None => moved.push(format!("{name}: pinned {want}, no longer produced")),
        }
    }
    for (name, got) in &actual {
        if !golden.contains_key(name) {
            moved.push(format!("{name}: produced but not pinned; add the line: {name} {got}"));
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "wordcount/wall_time_us 2169649\n\
                          wordcount/shuffle_bytes 2550000\n\
                          scale_200x100000/fsimage_bytes 1171617\n";

    #[test]
    fn equal_tables_have_no_diff_in_any_row_order() {
        assert!(table_diff(GOLDEN, GOLDEN).is_empty());
        let reversed: String = GOLDEN.lines().rev().map(|l| format!("{l}\n")).collect();
        assert!(table_diff(GOLDEN, &reversed).is_empty());
    }

    /// The ±10 % band passed a value that fell (bench-snapshot's check was
    /// one-sided) and let `fsimage_bytes` grow a byte per file unseen.
    #[test]
    fn a_value_off_by_one_in_either_direction_names_its_row() {
        for (drifted, now) in [("1171618", "up"), ("1171616", "down")] {
            let actual = GOLDEN.replace("1171617", drifted);
            let diff = table_diff(GOLDEN, &actual);
            assert_eq!(diff.len(), 1, "{now}: {diff:?}");
            assert!(diff[0].starts_with("scale_200x100000/fsimage_bytes: pinned 1171617"));
            assert!(diff[0].ends_with(&format!("scale_200x100000/fsimage_bytes {drifted}")));
        }
    }

    /// The old `check` walked only the rows a run produced, so a pinned
    /// row the run had stopped producing went unnoticed.
    #[test]
    fn a_pinned_row_no_longer_produced_names_itself() {
        let actual = GOLDEN.replace("wordcount/shuffle_bytes 2550000\n", "");
        let diff = table_diff(GOLDEN, &actual);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("wordcount/shuffle_bytes: pinned 2550000, no longer produced"));
    }

    #[test]
    fn a_produced_row_that_is_not_pinned_names_itself() {
        let actual = format!("{GOLDEN}wordcount/spill_bytes 2550000\n");
        let diff = table_diff(GOLDEN, &actual);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("wordcount/spill_bytes: produced but not pinned"));
        assert!(diff[0].ends_with("wordcount/spill_bytes 2550000"));
    }
}
