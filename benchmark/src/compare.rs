//! `compare A.json B.json`: is B a regression against A?
//!
//! One row per workload and end-to-end metric, each judged against the bound
//! `BENCHMARK.json` fixes for that metric. Every change is printed with the
//! base it is a share of.

use alphasort_minijson::Json;

use crate::report::Results;
use crate::spec::{self, Better};
use crate::stats;

/// How B's metric stands against A's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians are within the bound of each other.
    Unchanged,
    /// The run-to-run spread of A or of B exceeds the bound, and the two
    /// sets of runs overlap: the bound cannot be resolved.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's runs `b` against A's runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    // Positive when B is better, as a share of A's median.
    let gain = match better {
        Better::Higher => (mb - ma) / ma.abs(),
        Better::Lower => (ma - mb) / ma.abs(),
    };
    let spread = stats::iqr_share(a)
        .unwrap_or(0.0)
        .max(stats::iqr_share(b).unwrap_or(0.0));
    if spread > bound {
        // Too noisy for the bound, unless every run of one side beats every
        // run of the other.
        let beats = |x: &[f64], y: &[f64]| {
            x.iter().all(|&p| {
                y.iter().all(|&q| match better {
                    Better::Higher => p > q,
                    Better::Lower => p < q,
                })
            })
        };
        return if beats(b, a) {
            Verdict::Better
        } else if beats(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
pub fn bounds_of(benchmark_json: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    let e = |e: alphasort_minijson::JsonError| e.to_string();
    benchmark_json
        .field_arr("end_to_end")
        .map_err(e)?
        .iter()
        .map(|m| {
            let better = match m.field_str("better").map_err(e)? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("better is {other:?}")),
            };
            Ok((
                m.field_str("name").map_err(e)?.to_string(),
                better,
                m.field_f64("bound").map_err(e)?,
            ))
        })
        .collect()
}

fn quartile_text(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, _, q3)) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[one run]".to_string(),
    }
}

/// Compare two results. Returns the table and whether B regressed: a
/// `worse` row, or a higher failed share on some workload.
pub fn compare(a: &Results, b: &Results, bounds: &[(String, Better, f64)]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(w.name), b.workloads.get(w.name)) else {
            out.push_str(&format!("{}: missing from one of the files\n", w.name));
            regressed = true;
            continue;
        };
        out.push_str(&format!("{}\n", w.name));
        for (metric, better, bound) in bounds {
            let (va, vb) = match (wa.end_to_end.get(metric), wb.end_to_end.get(metric)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    out.push_str(&format!("  {metric:14} missing from one of the files\n"));
                    regressed = true;
                    continue;
                }
            };
            let verdict = judge(va, vb, *better, *bound);
            regressed |= verdict == Verdict::Worse;
            let (ma, mb) = (
                stats::median(va).unwrap_or(0.0),
                stats::median(vb).unwrap_or(0.0),
            );
            let unit = spec::end_to_end(metric).map_or("", |m| m.unit);
            out.push_str(&format!(
                "  {metric:14} A {ma:>12.4} {}  B {mb:>12.4} {}  {:+.2}% of A's {ma:.4} {unit} ({} is better, bound {:.0}% of it)  {}\n",
                quartile_text(va),
                quartile_text(vb),
                100.0 * (mb - ma) / ma.abs(),
                better.word(),
                100.0 * bound,
                verdict.word(),
            ));
        }
        let (fa, fb) = (wa.failed_share(), wb.failed_share());
        let verdict = if fb > fa {
            regressed = true;
            "worse"
        } else if fb < fa {
            "better"
        } else {
            "unchanged"
        };
        out.push_str(&format!(
            "  {:14} A {} of {} operations  B {} of {} operations  {verdict}\n",
            "failed_share", wa.failed, wa.attempted, wb.failed, wb.attempted
        ));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadResult;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(
            judge(&STEADY, &scaled(1.03), Better::Higher, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&STEADY, &scaled(0.85), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&STEADY, &scaled(1.20), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&STEADY, &scaled(1.20), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&STEADY, &scaled(0.80), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&[100.0], &[104.0], Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(
            judge(&noisy, &STEADY, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let far_below: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(
            judge(&noisy, &far_below, Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&far_below, &noisy, Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    fn results(op_ms: &[f64], failed: u64) -> Results {
        let workloads = spec::WORKLOADS
            .iter()
            .map(|w| {
                let r = WorkloadResult {
                    attempted: 20,
                    failed,
                    end_to_end: [("op_p50_ms".to_string(), op_ms.to_vec())].into(),
                    ..Default::default()
                };
                (w.name.to_string(), r)
            })
            .collect();
        Results {
            workloads,
            ..Default::default()
        }
    }

    #[test]
    fn compare_flags_worse_rows_and_higher_failed_share() {
        let bounds = vec![("op_p50_ms".to_string(), Better::Lower, 0.10)];
        let base = results(&STEADY, 0);
        let (table, regressed) = compare(&base, &results(&scaled(1.02), 0), &bounds);
        assert!(!regressed, "{table}");
        assert!(table.contains("unchanged") && table.contains("% of A's"));
        let (table, regressed) = compare(&base, &results(&scaled(1.3), 0), &bounds);
        assert!(regressed && table.contains("worse"), "{table}");
        let (table, regressed) = compare(&base, &results(&STEADY, 1), &bounds);
        assert!(regressed && table.contains("1 of 20 operations"), "{table}");
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds_of(&doc).unwrap(),
            vec![("op_p50_ms".to_string(), Better::Lower, 0.1)]
        );
    }
}
