//! `compare`: two result files of the same commit (or of a parent and a
//! change) against the bounds in `BENCHMARK.json`.
//!
//! One row per (workload, end-to-end metric): `within`, `worse` (the second
//! file's median is worse than the first's by more than the bound), or
//! `unresolved` (the runs of either file spread wider than the bound, so
//! no verdict is possible). A result file is what `run.sh` writes:
//! `{"runs": [{"workload", "seed", "trace", "result"}, ...]}`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?
                    .as_f64()
                    .ok_or("BENCHMARK.json: bound is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) -> values` of the untraced runs in a result file.
type Values = BTreeMap<(String, String), Vec<f64>>;

pub fn values_of(results: &Json) -> Result<Values, String> {
    let runs = results
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file: no runs list")?;
    let mut out = Values::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result file: run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("result file: run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Median, and interquartile distance as a share of it (when there are at
/// least two values to take quartiles of).
fn centre_and_spread(values: &[f64]) -> (f64, Option<f64>) {
    match quartiles(values) {
        Some((q1, median, q3)) => (median, Some(((q3 - q1) / median).abs())),
        None => (values.first().copied().unwrap_or(0.0), None),
    }
}

pub fn judge(first: &[f64], second: &[f64], bound: &Bound) -> (Verdict, f64, f64) {
    let (a, spread_a) = centre_and_spread(first);
    let (b, spread_b) = centre_and_spread(second);
    let worse_by = if bound.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    let spread = spread_a.unwrap_or(0.0).max(spread_b.unwrap_or(0.0));
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (verdict, worse_by, spread)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the table; `Ok(true)` when no row is `worse`.
pub fn compare(first: &Path, second: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds_of(&load(benchmark)?)?;
    let (a, b) = (values_of(&load(first)?)?, values_of(&load(second)?)?);
    let mut all_fine = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "spread", "bound"
    );
    for ((workload, name), first) in &a {
        let Some(bound) = bounds.iter().find(|m| &m.name == name) else {
            continue;
        };
        let Some(second) = b.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<14} {name:<28} missing from the second file");
            all_fine = false;
            continue;
        };
        let (verdict, worse_by, spread) = judge(first, second, bound);
        all_fine &= verdict != Verdict::Worse;
        println!(
            "{workload:<14} {name:<28} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            centre_and_spread(first).0,
            centre_and_spread(second).0,
            worse_by * 100.0,
            spread * 100.0,
            bound.bound * 100.0,
            match verdict {
                Verdict::Within => "within",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(all_fine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.5, 120.0];
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&steady, &steady, &bound(true, 0.1)).0,
            Verdict::Within
        );
        assert_eq!(judge(&steady, &slower, &bound(true, 0.1)).0, Verdict::Worse);
        // Higher is better: growing is fine, shrinking is not.
        assert_eq!(
            judge(&steady, &slower, &bound(false, 0.1)).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&slower, &steady, &bound(false, 0.1)).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &noisy, &bound(true, 0.1)).0,
            Verdict::Unresolved
        );
        // A single run each has no spread to speak of.
        assert_eq!(
            judge(&[100.0], &[105.0], &bound(true, 0.1)).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&[100.0], &[115.0], &bound(true, 0.1)).0,
            Verdict::Worse
        );
    }

    #[test]
    fn reads_result_files_and_bounds() {
        let results = json::parse(
            r#"{"runs": [
              {"workload": "w", "seed": 1, "trace": 0, "result": {"metrics": {"m": {"value": 2.0, "unit": "s"}}}},
              {"workload": "w", "seed": 2, "trace": 0, "result": {"metrics": {"m": {"value": 4.0, "unit": "s"}}}},
              {"workload": "w", "seed": 1, "trace": 1, "result": {"metrics": {"layer.x": {"value": 9.0, "unit": "s"}}}}
            ]}"#,
        )
        .unwrap();
        let values = values_of(&results).unwrap();
        assert_eq!(values.len(), 1);
        assert_eq!(values[&("w".to_string(), "m".to_string())], vec![2.0, 4.0]);
        let benchmark = json::parse(
            r#"{"end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_of(&benchmark).unwrap(), vec![bound(true, 0.1)]);
    }
}
