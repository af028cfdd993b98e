//! `benchmark compare A.json B.json`: one verdict per (workload,
//! end-to-end metric) row, applying each metric's direction and bound.
//!
//! * `better` / `worse` — B's median differs from A's by more than the
//!   bound, in that direction;
//! * `within` — the difference is inside the bound;
//! * `unresolved` — the spread between iterations (interquartile distance
//!   as a share of the median, on either side) is wider than the bound, so
//!   the medians cannot settle it — unless every sample of one side beats
//!   every sample of the other.
//!
//! `fail_share` has no relative bound: any increase is `worse`.

use crate::defs::{self, Better, Clock, EndToEndDef};
use crate::json::Value;
use crate::stats;

/// Verdict for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by more than the bound.
    Better,
    /// B is within the bound of A.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// Reported value (median or exact).
    pub value: f64,
    /// Per-iteration samples.
    pub samples: Vec<f64>,
}

/// Share of A's value by which B is worse (negative when B is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one bounded metric.
pub fn judge(def: &EndToEndDef, a: &Side, b: &Side) -> Verdict {
    let by = worse_by(def.better, a.value, b.value);
    if stats::spread(&a.samples).max(stats::spread(&b.samples)) > def.bound {
        // Too noisy for medians; only a clean separation of every sample
        // still counts.
        let (a_lo, a_hi) = min_max(&a.samples);
        let (b_lo, b_hi) = min_max(&b.samples);
        let b_all_better = match def.better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        let b_all_worse = match def.better {
            Better::Lower => b_lo > a_hi,
            Better::Higher => b_hi < a_lo,
        };
        return if b_all_better && by < -def.bound {
            Verdict::Better
        } else if b_all_worse && by > def.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if by > def.bound {
        Verdict::Worse
    } else if by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The untraced runs of a result file, keyed by workload. Accepts a suite
/// file (`{"runs": [...]}`) or a single run's file.
fn untraced_runs(doc: &Value) -> Vec<&Value> {
    let runs: Vec<&Value> = match doc.get("runs") {
        Some(runs) => runs.items().iter().collect(),
        None => vec![doc],
    };
    runs.into_iter().filter(|r| r.get("traced") == Some(&Value::Bool(false))).collect()
}

fn side(run: &Value, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side { value: m.get("value")?.as_f64()?, samples: m.num_array("samples") })
}

/// Compare two parsed result files. Rows come out in workload order, one
/// per end-to-end metric plus `fail_share`; a workload or metric present on
/// one side only is an error.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (a_runs, b_runs) = (untraced_runs(a), untraced_runs(b));
    if a_runs.is_empty() {
        return Err("the first file holds no untraced run".into());
    }
    let mut rows = Vec::new();
    for a_run in a_runs {
        let workload =
            a_run.get("workload").and_then(Value::as_str).ok_or("run without a workload")?;
        let b_run = b_runs
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
            .ok_or_else(|| format!("workload {workload} is missing from the second file"))?;
        for def in defs::END_TO_END {
            let missing =
                |file: &str| format!("{workload}/{} is missing from the {file} file", def.name);
            let sa = side(a_run, def.name).ok_or_else(|| missing("first"))?;
            let sb = side(b_run, def.name).ok_or_else(|| missing("second"))?;
            let verdict = judge(def, &sa, &sb);
            rows.push(Row {
                workload: workload.into(),
                metric: def.name,
                a: sa.value,
                b: sb.value,
                verdict,
            });
        }
        let share = |run: &Value| run.get("fail_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (share(a_run), share(b_run));
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Within
        };
        rows.push(Row { workload: workload.into(), metric: "fail_share", a: fa, b: fb, verdict });
    }
    Ok(rows)
}

/// Render rows as a table; sim-clock rows that repeat exactly say so.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<30} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in rows {
        let def = defs::end_to_end(r.metric);
        let delta = if r.a != 0.0 { (r.b - r.a) / r.a.abs() * 100.0 } else { 0.0 };
        let exact = def.is_some_and(|d| d.clock == Clock::Sim) && r.a == r.b;
        out.push_str(&format!(
            "{:<12} {:<30} {:>16.4} {:>16.4} {:>+8.2}%  {}{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            delta,
            r.verdict.as_str(),
            if exact { " (exact)" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEndDef {
        defs::end_to_end(name).unwrap()
    }

    fn side_of(samples: &[f64]) -> Side {
        Side { value: stats::median(samples), samples: samples.to_vec() }
    }

    /// Three tight samples around `base * (1 + shift)`.
    fn shifted(base: f64, shift: f64) -> Side {
        let v = base * (1.0 + shift);
        side_of(&[v * 0.995, v, v * 1.005])
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Higher is better: losing more than the bound is worse.
        let d = def("host_work_per_s");
        let (inside, outside) = (d.bound * 0.5, d.bound * 1.5);
        let base = shifted(100.0, 0.0);
        assert_eq!(judge(d, &base, &shifted(100.0, -inside)), Verdict::Within);
        assert_eq!(judge(d, &base, &shifted(100.0, inside)), Verdict::Within);
        assert_eq!(judge(d, &base, &shifted(100.0, -outside)), Verdict::Worse);
        assert_eq!(judge(d, &base, &shifted(100.0, outside)), Verdict::Better);
        // Lower is better: the same shifts read the other way round.
        let d = def("setup_s");
        let (inside, outside) = (d.bound * 0.5, d.bound * 1.5);
        let base = shifted(1.0, 0.0);
        assert_eq!(judge(d, &base, &shifted(1.0, inside)), Verdict::Within);
        assert_eq!(judge(d, &base, &shifted(1.0, outside)), Verdict::Worse);
        assert_eq!(judge(d, &base, &shifted(1.0, -outside)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_samples_separate_cleanly() {
        let d = def("host_work_per_s");
        let noisy = side_of(&[100.0, 160.0, 60.0, 130.0, 75.0]);
        assert!(stats::spread(&noisy.samples) > d.bound);
        assert_eq!(judge(d, &noisy, &side_of(&[95.0, 140.0, 70.0])), Verdict::Unresolved);
        // Every B sample beyond every A sample, and by more than the bound.
        assert_eq!(judge(d, &noisy, &side_of(&[30.0, 40.0, 35.0])), Verdict::Worse);
        assert_eq!(judge(d, &noisy, &side_of(&[300.0, 310.0, 290.0])), Verdict::Better);
    }

    #[test]
    fn exact_metrics_compare_by_value() {
        let d = def("sim_makespan_us");
        let a = Side { value: 1_000_000.0, samples: vec![1_000_000.0] };
        assert_eq!(judge(d, &a, &a), Verdict::Within);
        assert_eq!(
            judge(d, &a, &Side { value: 1_020_000.0, samples: vec![1_020_000.0] }),
            Verdict::Worse
        );
    }
}
