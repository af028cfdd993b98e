//! Synthesized student-survey responses — the substrate for Tables I–IV.
//!
//! The paper's evaluation is a 29-response survey; the raw forms are not
//! published, only summary statistics. We synthesize **per-student
//! responses** whose aggregates reproduce the published numbers: continuous
//! scale items are sampled, then shifted/scaled to the published
//! `mean ± std` and clamped to the instrument's range (iterating fit+clamp
//! so clamping doesn't drift the moments); the Table IV categorical counts
//! are generated exactly. The experiment harness then *recomputes* the
//! tables from these forms — a real aggregation pipeline over plausible
//! data, which is the closest faithful reproduction a summary-only paper
//! admits (see DESIGN.md substitutions).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{clamp_all, fit_moments, mean_std};

/// Published targets from the paper.
pub mod paper {
    /// Table I rows: `(topic, before mean, before std, after mean, after std)`
    /// on a 0–10 proficiency scale.
    pub const TABLE1: [(&str, f64, f64, f64, f64); 4] = [
        ("Java", 6.6, 1.2, 7.3, 1.1),
        ("Linux", 5.86, 1.7, 7.1, 1.7),
        ("Networking", 4.38, 1.6, 6.29, 1.5),
        ("Hadoop MapReduce", 0.03, 0.2, 4.53, 1.16),
    ];

    /// Table II rows: `(activity, mean, std)` on the 1–4 time scale
    /// (1: <30 min, 2: 30 min–2 h, 3: 2–4 h, 4: >4 h).
    pub const TABLE2: [(&str, f64, f64); 3] = [
        ("First Assignment", 3.5, 0.7),
        ("Second Assignment", 3.1, 0.9),
        ("Set up Hadoop cluster", 2.5, 1.1),
    ];

    /// Table III rows: `(material, mean, std)` on the 1–4 usefulness scale.
    pub const TABLE3: [(&str, f64, f64); 3] =
        [("Lecture", 3.0, 0.9), ("In-class lab", 3.6, 0.7), ("Hadoop cluster tutorial", 2.9, 0.82)];

    /// Table IV counts: `(year, count)`, total 29.
    pub const TABLE4: [(&str, u32); 4] =
        [("Senior", 7), ("Junior", 14), ("Sophomore", 6), ("Freshman", 2)];

    /// Respondents (29 of 39 enrolled returned the form).
    pub(super) const RESPONDENTS: usize = 29;
    /// Class enrollment.
    pub const ENROLLED: usize = 39;
}

/// The year level a student picked in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum YearLevel {
    /// First year.
    Freshman,
    /// Second year.
    Sophomore,
    /// Third year.
    Junior,
    /// Fourth year.
    Senior,
}

/// One returned survey form.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyResponse {
    /// Proficiency before the module, Table I row order, 0–10.
    pub proficiency_before: [f64; 4],
    /// Proficiency after, 0–10.
    pub proficiency_after: [f64; 4],
    /// Time to complete, Table II row order, 1–4 scale.
    pub time_taken: [f64; 3],
    /// Usefulness, Table III row order, 1–4 scale.
    pub usefulness: [f64; 3],
    /// Lowest year the module should be taught at.
    pub year_to_teach: YearLevel,
}

/// Sample n values, then iterate fit-to-moments + clamp so the final
/// clamped sample still matches `(mean, std)` closely.
fn sample_fitted(
    rng: &mut ChaCha8Rng,
    n: usize,
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
) -> Vec<f64> {
    // Approximate normal: sum of 4 uniforms (Irwin–Hall), then fit.
    let mut v: Vec<f64> =
        (0..n).map(|_| (0..4).map(|_| rng.gen_range(-1.0f64..1.0)).sum::<f64>()).collect();
    for _ in 0..60 {
        fit_moments(&mut v, mean, std);
        clamp_all(&mut v, lo, hi);
        let (m, s) = mean_std(&v);
        if (m - mean).abs() < 5e-3 && (s - std).abs() < 5e-3 {
            break;
        }
    }
    v
}

/// Generate the 29 returned forms.
pub fn generate(seed: u64) -> Vec<SurveyResponse> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = paper::RESPONDENTS;

    let mut columns_before = Vec::new();
    let mut columns_after = Vec::new();
    for &(_, bm, bs, am, as_) in &paper::TABLE1 {
        columns_before.push(sample_fitted(&mut rng, n, bm, bs, 0.0, 10.0));
        columns_after.push(sample_fitted(&mut rng, n, am, as_, 0.0, 10.0));
    }
    let time_cols: Vec<Vec<f64>> =
        paper::TABLE2.iter().map(|&(_, m, s)| sample_fitted(&mut rng, n, m, s, 1.0, 4.0)).collect();
    let use_cols: Vec<Vec<f64>> =
        paper::TABLE3.iter().map(|&(_, m, s)| sample_fitted(&mut rng, n, m, s, 1.0, 4.0)).collect();

    // Exact Table IV counts, then shuffle assignment across students.
    let mut years = Vec::with_capacity(n);
    for &(label, count) in &paper::TABLE4 {
        let y = match label {
            "Senior" => YearLevel::Senior,
            "Junior" => YearLevel::Junior,
            "Sophomore" => YearLevel::Sophomore,
            _ => YearLevel::Freshman,
        };
        years.extend(std::iter::repeat_n(y, count as usize));
    }
    // Fisher–Yates.
    for i in (1..years.len()).rev() {
        let j = rng.gen_range(0..=i);
        years.swap(i, j);
    }

    (0..n)
        .map(|i| SurveyResponse {
            proficiency_before: std::array::from_fn(|k| columns_before[k][i]),
            proficiency_after: std::array::from_fn(|k| columns_after[k][i]),
            time_taken: std::array::from_fn(|k| time_cols[k][i]),
            usefulness: std::array::from_fn(|k| use_cols[k][i]),
            year_to_teach: years[i],
        })
        .collect()
}

/// Aggregate a column accessor over the forms into `(mean, std)`.
pub fn aggregate(forms: &[SurveyResponse], f: impl Fn(&SurveyResponse) -> f64) -> (f64, f64) {
    let values: Vec<f64> = forms.iter().map(f).collect();
    mean_std(&values)
}

/// Table IV counts recomputed from the forms, paper row order.
pub fn year_counts(forms: &[SurveyResponse]) -> [(YearLevel, usize); 4] {
    let count = |y: YearLevel| forms.iter().filter(|r| r.year_to_teach == y).count();
    [
        (YearLevel::Senior, count(YearLevel::Senior)),
        (YearLevel::Junior, count(YearLevel::Junior)),
        (YearLevel::Sophomore, count(YearLevel::Sophomore)),
        (YearLevel::Freshman, count(YearLevel::Freshman)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_table1() {
        let forms = generate(2014);
        assert_eq!(forms.len(), 29);
        for (k, &(topic, bm, bs, am, as_)) in paper::TABLE1.iter().enumerate() {
            let (m, s) = aggregate(&forms, |r| r.proficiency_before[k]);
            assert!((m - bm).abs() < 0.05, "{topic} before mean {m:.3} vs {bm}");
            assert!((s - bs).abs() < 0.05, "{topic} before std {s:.3} vs {bs}");
            let (m, s) = aggregate(&forms, |r| r.proficiency_after[k]);
            assert!((m - am).abs() < 0.05, "{topic} after mean {m:.3} vs {am}");
            assert!((s - as_).abs() < 0.05, "{topic} after std {s:.3} vs {as_}");
        }
    }

    #[test]
    fn moments_match_tables2_and_3() {
        let forms = generate(2014);
        for (k, &(what, tm, ts)) in paper::TABLE2.iter().enumerate() {
            let (m, s) = aggregate(&forms, |r| r.time_taken[k]);
            assert!((m - tm).abs() < 0.05, "{what} mean {m:.3} vs {tm}");
            assert!((s - ts).abs() < 0.06, "{what} std {s:.3} vs {ts}");
        }
        for (k, &(what, um, us)) in paper::TABLE3.iter().enumerate() {
            let (m, s) = aggregate(&forms, |r| r.usefulness[k]);
            assert!((m - um).abs() < 0.05, "{what} mean {m:.3} vs {um}");
            assert!((s - us).abs() < 0.06, "{what} std {s:.3} vs {us}");
        }
    }

    #[test]
    fn table4_counts_exact() {
        let forms = generate(2014);
        let counts = year_counts(&forms);
        assert_eq!(counts[0], (YearLevel::Senior, 7));
        assert_eq!(counts[1], (YearLevel::Junior, 14));
        assert_eq!(counts[2], (YearLevel::Sophomore, 6));
        assert_eq!(counts[3], (YearLevel::Freshman, 2));
    }

    #[test]
    fn responses_stay_in_instrument_ranges() {
        let forms = generate(7);
        for r in &forms {
            for v in r.proficiency_before.iter().chain(&r.proficiency_after) {
                assert!((0.0..=10.0).contains(v));
            }
            for v in r.time_taken.iter().chain(&r.usefulness) {
                assert!((1.0..=4.0).contains(v));
            }
        }
    }

    #[test]
    fn hadoop_before_is_essentially_zero_for_everyone() {
        // The class had (almost) no prior Hadoop exposure: 0.03 ± 0.2.
        let forms = generate(2014);
        let near_zero = forms.iter().filter(|r| r.proficiency_before[3] < 0.5).count();
        assert!(near_zero >= 27, "{near_zero}/29 near zero");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(1), generate(1));
        assert_ne!(generate(1), generate(2));
    }
}
