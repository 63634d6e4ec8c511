//! Metrics hygiene.
//!
//! `metric-name`: every metric-name string literal (anything starting
//! `neptune_`) follows `neptune_<crate>_<noun>_<unit>` (DESIGN.md §10) —
//! the crate segment keeps dashboards groupable by layer, the unit suffix
//! keeps Prometheus semantics readable. Format templates (containing `{`)
//! are skipped: their crate segment is filled at runtime. The
//! `neptune-lint` crate itself is exempt (its sources name the convention
//! in order to check it).

use crate::{Finding, Kind, SourceFile};

/// Crate segments allowed in metric names (`neptune_<crate>_...`).
const CRATE_SEGMENTS: &[&str] = &[
    "obs",
    "storage",
    "ham",
    "server",
    "check",
    "case",
    "document",
    "relational",
    "shell",
    "bench",
];

/// Unit suffixes with defined semantics (counters end `_total`, durations
/// `_ns`/`_ms`, sizes `_bytes`, gauges name their unit; `epoch` is a
/// monotonic publication sequence number, e.g. the committed-view epoch).
const UNIT_SEGMENTS: &[&str] = &[
    "total",
    "ns",
    "ms",
    "seconds",
    "bytes",
    "entries",
    "depth",
    "ratio",
    "connections",
    "inflight",
    "epoch",
];

pub fn run_metric_name(file: &SourceFile) -> Vec<Finding> {
    if file.crate_name == "neptune-lint" {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for t in &file.tokens {
        if t.kind != Kind::Str || !t.text.starts_with("neptune_") || t.text.contains('{') {
            continue;
        }
        if let Err(why) = validate_metric_name(&t.text) {
            findings.push(Finding {
                rule: "metric-name",
                path: file.rel_path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "metric name `{}` {why}; the convention is \
                     neptune_<crate>_<noun>_<unit> (DESIGN.md \u{a7}10)",
                    t.text
                ),
            });
        }
    }
    findings
}

fn validate_metric_name(name: &str) -> Result<(), String> {
    let segments: Vec<&str> = name.split('_').collect();
    if segments.len() < 4 {
        return Err("is missing segments (crate, noun, and unit are all required)".to_string());
    }
    let crate_seg = segments[1];
    if !CRATE_SEGMENTS.contains(&crate_seg) {
        return Err(format!(
            "has unknown crate segment `{crate_seg}` (expected one of {})",
            CRATE_SEGMENTS.join(", ")
        ));
    }
    let unit = segments[segments.len() - 1];
    if !UNIT_SEGMENTS.contains(&unit) {
        return Err(format!(
            "has unknown unit suffix `{unit}` (expected one of {})",
            UNIT_SEGMENTS.join(", ")
        ));
    }
    Ok(())
}
