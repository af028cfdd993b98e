//! Tables I–IV (survey) and Table V (curriculum map).
//!
//! The harness *recomputes* every table from the synthesized per-student
//! forms (see `hl_datagen::survey` for the substitution rationale) and
//! prints measured-vs-paper side by side.

use std::fmt;

use hl_datagen::survey::{self, paper, SurveyResponse};

use super::Scale;

/// One recomputed `mean ± std` cell with its paper target.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cell {
    /// Row label.
    pub label: &'static str,
    /// Recomputed (mean, std).
    pub measured: (f64, f64),
    /// Published (mean, std).
    pub paper: (f64, f64),
}

/// All four survey tables, recomputed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SurveyTables {
    /// Table I: (before, after) per topic.
    pub table1: Vec<(Cell, Cell)>,
    /// Table II.
    pub table2: Vec<Cell>,
    /// Table III.
    pub table3: Vec<Cell>,
    /// Table IV: (year, measured count, paper count).
    pub table4: Vec<(&'static str, usize, u32)>,
    /// Number of forms aggregated.
    pub respondents: usize,
}

/// Recompute Tables I–IV from synthesized forms. `Scale` is accepted for
/// interface uniformity; the survey is always its real size (n = 29).
pub(crate) fn run(_scale: Scale) -> SurveyTables {
    let forms: Vec<SurveyResponse> = survey::generate(2014);

    let table1 = paper::TABLE1
        .iter()
        .enumerate()
        .map(|(k, &(topic, bm, bs, am, as_))| {
            (
                Cell {
                    label: topic,
                    measured: survey::aggregate(&forms, |r| r.proficiency_before[k]),
                    paper: (bm, bs),
                },
                Cell {
                    label: topic,
                    measured: survey::aggregate(&forms, |r| r.proficiency_after[k]),
                    paper: (am, as_),
                },
            )
        })
        .collect();

    let table2 = paper::TABLE2
        .iter()
        .enumerate()
        .map(|(k, &(what, m, s))| Cell {
            label: what,
            measured: survey::aggregate(&forms, |r| r.time_taken[k]),
            paper: (m, s),
        })
        .collect();

    let table3 = paper::TABLE3
        .iter()
        .enumerate()
        .map(|(k, &(what, m, s))| Cell {
            label: what,
            measured: survey::aggregate(&forms, |r| r.usefulness[k]),
            paper: (m, s),
        })
        .collect();

    let counts = survey::year_counts(&forms);
    let table4 = paper::TABLE4
        .iter()
        .zip(counts.iter())
        .map(|(&(label, want), &(_, got))| (label, got, want))
        .collect();

    SurveyTables { table1, table2, table3, table4, respondents: forms.len() }
}

fn fmt_cell(c: &Cell) -> String {
    format!("{:.2}±{:.2} (paper {:.2}±{:.2})", c.measured.0, c.measured.1, c.paper.0, c.paper.1)
}

impl fmt::Display for SurveyTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tables I–IV recomputed from {} synthesized survey forms (of {} enrolled)",
            self.respondents,
            paper::ENROLLED
        )?;
        writeln!(f, "Table I — proficiency (0–10), before -> after:")?;
        for (b, a) in &self.table1 {
            writeln!(f, "  {:<18} {}  ->  {}", b.label, fmt_cell(b), fmt_cell(a))?;
        }
        writeln!(f, "Table II — time to complete (1–4 scale):")?;
        for c in &self.table2 {
            writeln!(f, "  {:<24} {}", c.label, fmt_cell(c))?;
        }
        writeln!(f, "Table III — helpfulness (1–4 scale):")?;
        for c in &self.table3 {
            writeln!(f, "  {:<24} {}", c.label, fmt_cell(c))?;
        }
        writeln!(f, "Table IV — lowest level to teach Hadoop/MapReduce:")?;
        for (label, got, want) in &self.table4 {
            writeln!(f, "  {label:<12} {got:>2} (paper {want})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cell {
        /// Absolute error of the mean.
        fn mean_error(&self) -> f64 {
            (self.measured.0 - self.paper.0).abs()
        }
    }

    #[test]
    fn every_cell_is_close_to_paper() {
        let t = run(Scale::Quick);
        assert_eq!(t.respondents, 29);
        for (b, a) in &t.table1 {
            assert!(b.mean_error() < 0.05, "{} before: {:?}", b.label, b);
            assert!(a.mean_error() < 0.05, "{} after: {:?}", a.label, a);
        }
        for c in t.table2.iter().chain(&t.table3) {
            assert!(c.mean_error() < 0.05, "{}: {:?}", c.label, c);
        }
    }

    #[test]
    fn table4_counts_are_exact() {
        let t = run(Scale::Quick);
        for (label, got, want) in &t.table4 {
            assert_eq!(*got, *want as usize, "{label}");
        }
        assert_eq!(t.table4.iter().map(|(_, g, _)| g).sum::<usize>(), 29);
    }

    #[test]
    fn proficiency_improves_across_every_topic() {
        // The pedagogical headline: after > before, everywhere.
        let t = run(Scale::Quick);
        for (b, a) in &t.table1 {
            assert!(a.measured.0 > b.measured.0, "{}", b.label);
        }
    }
}
