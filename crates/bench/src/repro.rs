//! Everything `repro` prints: one section per paper artifact, in the
//! paper's order, each the `Display` of its experiment's typed result.

use hl_common::prelude::*;
use hl_core::experiments::{self, Scale};

struct Item {
    flag: &'static str,
    title: &'static str,
    run: fn(Scale) -> String,
}

const ITEMS: [Item; 14] = [
    Item {
        flag: "--fig1",
        title: "Figure 1 — HPC vs Hadoop architecture",
        run: |s| experiments::fig1::run(s).to_string(),
    },
    Item {
        flag: "--fig2",
        title: "Figure 2 — HDFS/MapReduce integration & locality",
        run: |s| experiments::fig2::run(s).to_string(),
    },
    Item {
        flag: "--tables",
        title: "Tables I–IV — survey statistics",
        run: |s| experiments::tables::run(s).to_string(),
    },
    Item {
        flag: "--table5",
        title: "Table V — curriculum map & course module",
        run: |_| hl_core::course::CourseModule.to_string(),
    },
    Item {
        flag: "--n1",
        title: "N1 — combiner trade-off",
        run: |s| experiments::n1::run(s).to_string(),
    },
    Item {
        flag: "--n2",
        title: "N2 — airline monoid variants",
        run: |s| experiments::n2::run(s).to_string(),
    },
    Item {
        flag: "--n3",
        title: "N3 — side-file access",
        run: |s| experiments::n3::run(s).to_string(),
    },
    Item {
        flag: "--n4",
        title: "N4 — serial vs cluster",
        run: |s| experiments::n4::run(s).to_string(),
    },
    Item {
        flag: "--n5",
        title: "N5 — staging times",
        run: |s| experiments::n5::run(s).to_string(),
    },
    Item {
        flag: "--n6",
        title: "N6 — meltdown & recovery drill",
        run: |s| experiments::n6::run(s).to_string(),
    },
    Item {
        flag: "--n7",
        title: "N7 — myHadoop provisioning",
        run: |s| experiments::n7::run(s).to_string(),
    },
    Item {
        flag: "--jummp",
        title: "JUMMP — maneuvering through preemption (paper ref [11])",
        run: |s| experiments::jummp::run(s).to_string(),
    },
    Item {
        flag: "--platforms",
        title: "Section II — platform evolution (VM / shared / myHadoop)",
        run: |s| experiments::platforms::run(s).to_string(),
    },
    Item {
        flag: "--n8",
        title: "N8 — assignment-1 runtimes",
        run: |s| experiments::n8::run(s).to_string(),
    },
];

/// The line that frames a section's title.
const BAR: &str = "================================================================";

/// Every experiment flag, in the order the sections print.
pub fn repro_flags() -> impl Iterator<Item = &'static str> {
    ITEMS.iter().map(|item| item.flag)
}

/// The one-line usage text, built from the flags above.
pub fn repro_usage() -> String {
    format!("usage: repro [--quick] [{}]", repro_flags().collect::<Vec<_>>().join(" "))
}

/// The text `repro` prints at `scale`: the header, then the section of
/// every experiment whose flag is in `selected` — of all of them when
/// `selected` is empty — in paper order. A flag no experiment answers to
/// is a [`HlError::Config`].
pub fn repro(scale: Scale, selected: &[&str]) -> Result<String> {
    if let Some(unknown) = selected.iter().find(|flag| !repro_flags().any(|f| f == **flag)) {
        return Err(HlError::Config(format!("unknown flag {unknown}")));
    }
    let mut text = format!(
        "HadoopLab repro — {} scale\nReproducing: Ngo, Apon & Duffy, \
         \"Teaching HDFS/MapReduce Systems Concepts to Undergraduates\" (2014)\n\n",
        scale.pick("QUICK", "PAPER")
    );
    for item in ITEMS.iter().filter(|i| selected.is_empty() || selected.contains(&i.flag)) {
        text.push_str(&format!("{BAR}\n{}\n{BAR}\n{}\n", item.title, (item.run)(scale)));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_sections_print_in_paper_order_under_one_header() {
        let text = repro(Scale::Quick, &["--table5", "--fig1"]).unwrap();
        let titles: Vec<&str> =
            text.lines().filter(|l| ITEMS.iter().any(|i| i.title == *l)).collect();
        assert_eq!(titles, [ITEMS[0].title, ITEMS[3].title]);
        assert!(text.starts_with("HadoopLab repro — QUICK scale\n"));
    }

    /// `repro --fig1 --bogus` used to print Figure 1 and exit 0.
    #[test]
    fn one_unknown_flag_among_known_ones_is_rejected() {
        let err = repro(Scale::Quick, &["--fig1", "--bogus"]).unwrap_err();
        assert_eq!(err, HlError::Config("unknown flag --bogus".into()));
    }

    /// The hand-written usage line had lost `--jummp` and `--platforms`.
    #[test]
    fn usage_lists_every_flag_of_the_item_table() {
        let usage = repro_usage();
        for flag in repro_flags() {
            assert!(usage.split([' ', '[', ']']).any(|word| word == flag), "{flag}: {usage}");
        }
    }
}
