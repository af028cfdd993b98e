//! # hl-core
//!
//! The composition layer of HadoopLab. Everything below it is a substrate;
//! this crate puts the pieces together the way the course did and drives
//! **every table and figure** of *Teaching HDFS/MapReduce Systems Concepts
//! to Undergraduates* (Ngo, Apon & Duffy, 2014):
//!
//! * `experiments::fig1` — HPC vs Hadoop architecture (Figure 1);
//! * `experiments::fig2` — HDFS⇄MapReduce integration & data locality
//!   (Figure 2);
//! * `experiments::tables` — the survey Tables I–IV and the Table V
//!   curriculum map;
//! * `experiments::n1` … `experiments::n8` — the paper's narrative
//!   performance claims (combiner trade-off, monoid variants, side-file
//!   access, serial vs cluster, staging times, the Version-1 meltdown and
//!   recovery, myHadoop provisioning, assignment-1 runtimes);
//! * `course` — the module's structure across its four offerings and the
//!   ACM/IEEE PDC outcome mapping.
//!
//! Each experiment exposes `run(scale)` returning a typed, `Display`able
//! result, and EXPERIMENTS.md records paper-reported vs measured values.
//!
//! What the repository prints for a lecture to quote comes out of library
//! functions whose text `cargo test` pins exactly:
//!
//! * [`repro()`] is every paper artifact at one scale (`repro.rs`);
//!   `tests/golden/repro_quick.txt` and `repro_paper.txt` are its
//!   committed output, and `repro [--quick] > tests/golden/repro_<scale>.txt`
//!   re-pins.
//! * [`sim_numbers`] runs five pinned MapReduce sections (`sections.rs`)
//!   and the NameNode scale driver at 200 DataNodes x 100 000 blocks
//!   (`scale.rs`) and returns one `section/metric value` row per number.
//!   Every value is a pure function of the engine's cost model and the DFS
//!   formats, so the table is pinned exactly:
//!   `tests/golden/sim_numbers.txt` is its committed output and
//!   `bench-snapshot > tests/golden/sim_numbers.txt` re-pins after an
//!   intended change.
//!
//! `tests/golden_traces.rs` compares every file under `tests/golden/`
//! with what the code produces today through [`golden_diff`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hl_common::prelude::*;

mod course;
pub mod experiments;
mod repro;
mod scale;
mod sections;

pub use experiments::Scale;
pub use repro::{repro, repro_flags, repro_usage};

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

/// Compare freshly produced text with its committed copy, line for line
/// and in both directions. Returns one message per line that moved,
/// vanished or appeared, each carrying the pinned text, the text to commit
/// and, for an indented line, the heading it stands under (the nearest
/// line above it that starts in column 0: the first line of a `repro`
/// section); empty means the two agree.
// lint:allow(R9): the comparer tests/golden_traces.rs calls; tested below
pub fn golden_diff(golden: &str, actual: &str) -> Vec<String> {
    let (mut pinned, mut produced) = (golden.lines(), actual.lines());
    let mut heading = "";
    let mut moved = Vec::new();
    loop {
        let (want, got) = (pinned.next(), produced.next());
        let Some(line) = got.or(want) else { break };
        if line.starts_with(|c: char| !c.is_whitespace()) {
            heading = line;
        }
        let change = match (want, got) {
            (Some(want), Some(got)) if want == got => continue,
            (Some(want), Some(got)) => format!("pinned `{want}` moved; replacement line: {got}"),
            (Some(want), None) => format!("pinned `{want}`, no longer produced"),
            (None, _) => format!("produced but not pinned; add the line: {line}"),
        };
        moved.push(if heading == line { change } else { format!("under `{heading}`: {change}") });
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "wordcount/wall_time_us 2169649\n\
                          wordcount/shuffle_bytes 2550000\n\
                          scale_200x100000/fsimage_bytes 1171617\n";

    /// Line for line: the order a binary prints its rows in is pinned too.
    #[test]
    fn equal_texts_have_no_diff_and_swapped_rows_name_both_lines() {
        assert!(golden_diff(GOLDEN, GOLDEN).is_empty());
        let reversed: String = GOLDEN.lines().rev().map(|l| format!("{l}\n")).collect();
        let diff = golden_diff(GOLDEN, &reversed);
        assert_eq!(diff.len(), 2, "{diff:?}");
        assert!(diff[0].starts_with("pinned `wordcount/wall_time_us 2169649`"));
        assert!(diff[1].starts_with("pinned `scale_200x100000/fsimage_bytes 1171617`"));
    }

    /// The ±10 % band passed a value that fell (bench-snapshot's check was
    /// one-sided) and let `fsimage_bytes` grow a byte per file unseen.
    #[test]
    fn a_value_off_by_one_in_either_direction_names_its_row() {
        for (drifted, now) in [("1171618", "up"), ("1171616", "down")] {
            let actual = GOLDEN.replace("1171617", drifted);
            let diff = golden_diff(GOLDEN, &actual);
            assert_eq!(diff.len(), 1, "{now}: {diff:?}");
            assert!(diff[0].starts_with("pinned `scale_200x100000/fsimage_bytes 1171617`"));
            assert!(diff[0].ends_with(&format!(": scale_200x100000/fsimage_bytes {drifted}")));
        }
    }

    /// The old `check` walked only the rows a run produced, so a pinned
    /// row the run had stopped producing went unnoticed.
    #[test]
    fn a_pinned_row_no_longer_produced_names_itself() {
        let actual = GOLDEN.replace("scale_200x100000/fsimage_bytes 1171617\n", "");
        let diff = golden_diff(GOLDEN, &actual);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].ends_with("`scale_200x100000/fsimage_bytes 1171617`, no longer produced"));
    }

    #[test]
    fn a_produced_row_that_is_not_pinned_names_itself() {
        let actual = format!("{GOLDEN}wordcount/spill_bytes 2550000\n");
        let diff = golden_diff(GOLDEN, &actual);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("produced but not pinned"));
        assert!(diff[0].ends_with(": wordcount/spill_bytes 2550000"));
    }

    /// An indented line of `repro`'s text is reported under the first line
    /// of its section.
    #[test]
    fn an_indented_line_that_moved_names_the_heading_above_it() {
        let golden = "N3 — side-file access\n  naive: 26.34s\n  cached: 2.17s\n";
        let diff = golden_diff(golden, &golden.replace("2.17s", " 2.17s"));
        assert_eq!(
            diff,
            ["under `N3 — side-file access`: pinned `  cached: 2.17s` moved; \
              replacement line:   cached:  2.17s"]
        );
    }
}
