//! The course module itself, as data: the four offerings of Section II
//! and the Table V learning-outcome mapping — each outcome tied to the
//! artifact in *this repository* that demonstrates it.

use std::fmt;

/// One offering of the Hadoop MapReduce module.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Offering {
    /// "Version 1" … "Version 4".
    pub version: u32,
    /// Semester label.
    pub semester: &'static str,
    /// Lectures devoted to the module.
    pub lectures: u32,
    /// In-class labs.
    pub labs: u32,
    /// The platform students ran on.
    pub platform: &'static str,
    /// What went wrong / what was learned.
    pub lesson: &'static str,
}

/// The module's evolution, straight from Section II.
const OFFERINGS: [Offering; 4] = [
    Offering {
        version: 1,
        semester: "Fall 2012",
        lectures: 5,
        labs: 2,
        platform: "pseudo-distributed VM + dedicated shared 8-node cluster",
        lesson: "deadline resubmission storms + heap-leaking jobs crashed the shared \
                 cluster; only ~1/3 of students finished assignment 2",
    },
    Offering {
        version: 2,
        semester: "Spring 2013",
        lectures: 5,
        labs: 2,
        platform: "serial MapReduce libraries + per-student myHadoop clusters",
        lesson: "separating the programming API from the infrastructure worked; \
                 path misconfigurations and ghost daemons were the residual pain",
    },
    Offering {
        version: 3,
        semester: "Summer 2013 (REU, 4-hour session)",
        lectures: 2,
        labs: 1,
        platform: "pre-packaged myHadoop scripts, command line only",
        lesson: "detailed tutorial handouts matter; students asked for easier setup \
                 and a slower pace",
    },
    Offering {
        version: 4,
        semester: "Fall 2013",
        lectures: 7,
        labs: 4,
        platform: "fixed directory layout + provided compile/package scripts + myHadoop",
        lesson: "mature: most students had clusters up within the in-class lab; \
                 survey run (Tables I–IV)",
    },
];

/// One Table V row: an ACM/IEEE PDC learning outcome and where this
/// repository demonstrates it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OutcomeRow {
    /// Bloom-ish level from the curriculum ("Familiarity", "Usage", ...).
    pub level: &'static str,
    /// Knowledge area.
    pub area: &'static str,
    /// Knowledge unit.
    pub unit: &'static str,
    /// The outcome text (abridged from Table V).
    pub outcome: &'static str,
    /// The artifact in this repository that demonstrates it.
    pub artifact: &'static str,
}

/// Table V, extended with the per-outcome repro artifact.
const TABLE5: [OutcomeRow; 6] = [
    OutcomeRow {
        level: "Familiarity",
        area: "Parallel & Distributed Computing",
        unit: "Parallelism Fundamentals",
        outcome: "Distinguish using computational resources for a faster answer from \
                  managing efficient access to a shared resource",
        artifact: "experiments::fig1 (compute scaling vs the shared parallel store)",
    },
    OutcomeRow {
        level: "Familiarity",
        area: "Parallel & Distributed Computing",
        unit: "Parallel Architecture",
        outcome: "Describe the key performance challenges in different memory and \
                  distributed system topologies",
        artifact: "hl-cluster::network (rack uplinks, NIC vs shared-storage pipes)",
    },
    OutcomeRow {
        level: "Usage",
        area: "Parallel & Distributed Computing",
        unit: "Parallel Performance",
        outcome: "Explain performance impacts of data locality",
        artifact: "experiments::fig2 (locality-aware vs FIFO scheduling)",
    },
    OutcomeRow {
        level: "Familiarity",
        area: "Information Management",
        unit: "Distributed Databases",
        outcome: "Explain the techniques used for data fragmentation, replication, and \
                  allocation during the distributed database design process",
        artifact: "hl-dfs::placement + hl-dfs::fsck (block report)",
    },
    OutcomeRow {
        level: "Usage",
        area: "Parallel & Distributed Computing",
        unit: "Parallel Algorithms, Analysis, and Programming",
        outcome: "Decompose a problem via map and reduce operations",
        artifact: "hl-workloads (WordCount, airline, MovieLens, Yahoo, trace jobs)",
    },
    OutcomeRow {
        level: "Assessment",
        area: "Parallel & Distributed Computing",
        unit: "Parallel Performance",
        outcome: "Observe how data distribution/layout can affect an algorithm's \
                  communication costs",
        artifact: "experiments::n1/n2 (combiner & monoid shuffle-traffic ablations)",
    },
];

/// Renderable course summary.
#[derive(Debug, Clone, Default)]
pub(crate) struct CourseModule;

impl fmt::Display for CourseModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Hadoop MapReduce module — four offerings:")?;
        for o in &OFFERINGS {
            writeln!(
                f,
                "  v{} ({}): {} lectures, {} labs — {}",
                o.version, o.semester, o.lectures, o.labs, o.platform
            )?;
            writeln!(f, "      lesson: {}", o.lesson)?;
        }
        writeln!(f)?;
        writeln!(f, "Table V — PDC learning outcomes → repository artifacts:")?;
        for r in &TABLE5 {
            writeln!(f, "  [{}] {} / {}", r.level, r.area, r.unit)?;
            writeln!(f, "      outcome:  {}", r.outcome)?;
            writeln!(f, "      artifact: {}", r.artifact)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offerings_match_paper_structure() {
        assert_eq!(OFFERINGS.len(), 4);
        // Fall 2012 and Spring 2013: five lectures; Fall 2013: seven.
        assert_eq!(OFFERINGS[0].lectures, 5);
        assert_eq!(OFFERINGS[3].lectures, 7);
        // Fall 2013 doubled the labs.
        assert_eq!(OFFERINGS[3].labs, 2 * OFFERINGS[1].labs);
        assert!(OFFERINGS[2].semester.contains("REU"));
    }

    #[test]
    fn table5_has_six_rows_with_artifacts() {
        assert_eq!(TABLE5.len(), 6);
        for row in &TABLE5 {
            assert!(!row.artifact.is_empty());
            assert!(["Familiarity", "Usage", "Assessment"].contains(&row.level));
        }
        // Exactly one Information Management row, as in the paper.
        assert_eq!(TABLE5.iter().filter(|r| r.area == "Information Management").count(), 1);
    }
}
