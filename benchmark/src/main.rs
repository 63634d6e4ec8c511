//! The repo benchmark. See `README.md` beside this crate.

mod compare;
mod gen;
mod json;
mod layers;
mod model;
mod probe_vfs;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Args, Outcome};
use workload::Workload;

const USAGE: &str =
    "usage: neptune-benchmark --workload <browse_read|edit_commit|history_read|case_mixed> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
       neptune-benchmark compare <first.json> <second.json> [BENCHMARK.json]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::BrowseRead,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(outcome.failed == 0 && outcome.violations.is_empty()),
        ),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// `compare <first> <second> [BENCHMARK.json]`: exit 0 unless a row is
/// `worse`.
fn compare_command(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let (Some(first), Some(second)) = (argv.next(), argv.next()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let benchmark = argv.next().unwrap_or_else(|| "BENCHMARK.json".into());
    match compare::compare(first.as_ref(), second.as_ref(), benchmark.as_ref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("compare") {
        return compare_command(std::env::args().skip(2));
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(outcome) => {
            for v in &outcome.violations {
                eprintln!("check failed: {v}");
            }
            for m in &outcome.metrics {
                eprintln!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&outcome));
            if outcome.failed == 0 && outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(benchmark: &Json, key: &str) -> Vec<(String, String)> {
        let list = benchmark.get(key).and_then(Json::as_arr).unwrap();
        list.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` promises exactly the metrics the two kinds of run
    /// print, by name and unit, and names exactly the four workloads.
    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let benchmark = json::parse(&text).unwrap();
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let out =
            std::env::temp_dir().join(format!("neptune-benchmark-test-{}", std::process::id()));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run::run(&Args {
                workload: Workload::EditCommit,
                seed: 5,
                seconds: 0.4,
                trace,
                out: out.clone(),
            })
            .unwrap();
            assert_eq!(outcome.failed, 0);
            assert_eq!(outcome.violations, Vec::<String>::new());
            let reported: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, listed(&benchmark, key), "{key}");
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn arguments() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload case_mixed --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::CaseMixed);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload browse_read --seconds 0").is_err());
    }
}
