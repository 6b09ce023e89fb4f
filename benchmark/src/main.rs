//! The repo benchmark.
//!
//! ```text
//! benchmark run [--seed N] [--seconds S] [--runs K]     every workload, each run in its own
//!                                                       child process; writes out/results.json
//! benchmark run --workload W --seed N --seconds S --trace 0|1
//!                                                       one run of one workload in this process;
//!                                                       the last line of stdout is its result
//! benchmark compare A.json B.json                       is B a regression against A?
//! ```
//!
//! The harness measures the program only from outside: it calls public
//! functions, wraps the sources and sinks it hands to the drivers in timing
//! adapters, reads the stats the drivers return and the histograms sortd
//! serves, and records its own spans. See `README.md` beside this package.

mod adapters;
mod compare;
mod host;
mod layers;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use alphasort_minijson::Json;

use report::{Report, Results, WorkloadResult};
use workloads::RunOpts;

const DEFAULT_SEED: u64 = 1994;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_RUNS: u64 = 5;
/// The benchmark's output directory, relative to the repository root the
/// command is run from.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  benchmark run [--seed N] [--seconds S] [--runs K] [--out DIR]
  benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR]
  benchmark compare A.json B.json [--spec BENCHMARK.json]";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    scale: f64,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: DEFAULT_RUNS,
        scale: 1.0,
        out: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--runs" => a.runs = value.parse().map_err(|_| bad("a whole number"))?,
            "--scale" => a.scale = value.parse().map_err(|_| bad("a number"))?,
            "--out" => a.out = PathBuf::from(value),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let positive = |x: f64| x > 0.0 && x.is_finite();
    if !positive(a.seconds) || !positive(a.scale) {
        return Err("--seconds and --scale must be positive".into());
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(a)
}

/// One run of one workload in this process. Prints the metrics as a table
/// and, as the last line, the result object.
fn run_one(a: &RunArgs, workload: &str) -> Result<(), String> {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: a.scale,
        out: a.out.clone(),
        sabotage: None,
    };
    let done = workloads::run(&opts).map_err(|e| format!("{workload}: {e}"))?;
    let pass = if a.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "{workload}  seed {}  {} s  {pass}  {} operations, {} failed, {} cores",
        a.seed,
        a.seconds,
        done.report.attempted,
        done.report.failed,
        host::nproc()
    );
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("why: {}", w.why);
    }
    print!("{}", done.report.table());
    for note in &done.notes {
        println!("note: {note}");
    }
    println!("{}", done.report.to_json().dump());
    Ok(())
}

/// Run this executable again as `run --workload …` and parse its last line.
fn run_child(a: &RunArgs, workload: &str, seed: u64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &a.scale.to_string()])
        .arg("--out")
        .arg(&a.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "the {workload} child exited with {}:\n{text}",
            out.status
        ));
    }
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    Report::from_json(&doc)
}

/// Where a full run writes its results; nowhere for a scaled-down smoke run,
/// whose numbers must never be mistaken for the benchmark's.
fn results_path(a: &RunArgs) -> Option<PathBuf> {
    (a.scale == 1.0).then(|| a.out.join("results.json"))
}

/// Every workload: `runs` untraced runs (seeds `seed`, `seed + 1`, …) and one
/// traced run, each in its own child process.
fn run_all(a: &RunArgs) -> Result<(), String> {
    let mut results = Results {
        seed: a.seed,
        seconds: a.seconds,
        runs: a.runs,
        nproc: host::nproc() as u64,
        ..Default::default()
    };
    for w in &spec::WORKLOADS {
        let mut r = WorkloadResult::default();
        for k in 0..a.runs {
            r.add_run(&run_child(a, w.name, a.seed + k, false)?);
        }
        r.set_layers(&run_child(a, w.name, a.seed, true)?);
        results.workloads.insert(w.name.to_string(), r);
    }
    let failed: u64 = results.workloads.values().map(|w| w.failed).sum();
    match results_path(a) {
        None => println!(
            "--scale {} is a smoke test: results.json is not written",
            a.scale
        ),
        Some(path) => {
            std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
            std::fs::write(&path, results.to_json().dump_pretty()).map_err(|e| e.to_string())?;
            println!("results written to {}", path.display());
        }
    }
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare A B`: `Ok(true)` when B regressed.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let (mut files, mut spec_path) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("--spec needs a path")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes two results files".into());
    };
    let bounds = compare::bounds_of(&read_json(&spec_path)?)?;
    let a = Results::from_json(&read_json(Path::new(a))?)?;
    let b = Results::from_json(&read_json(Path::new(b))?)?;
    let (table, regressed) = compare::compare(&a, &b, &bounds);
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|a| match a.workload.clone() {
                Some(w) => run_one(&a, &w),
                None => run_all(&a),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => match compare_files(rest) {
            Ok(false) => Ok(()),
            Ok(true) => Err("B is a regression against A".into()),
            Err(e) => Err(e),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = parse_run(&args(&[
            "--workload",
            "sortd_fleet",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sortd_fleet"));
        assert_eq!((a.seed, a.seconds, a.trace, a.scale), (7, 15.0, true, 1.0));
        let d = parse_run(&[]).unwrap();
        assert_eq!((d.seed, d.trace, d.workload), (DEFAULT_SEED, false, None));
        assert!(parse_run(&args(&["--trace", "2"])).is_err());
        assert!(parse_run(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--seed"])).is_err());
        assert!(parse_run(&args(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn a_scaled_run_refuses_to_write_results() {
        let smoke = parse_run(&args(&["--scale", "0.01"])).unwrap();
        assert_eq!(results_path(&smoke), None);
        let full = parse_run(&[]).unwrap();
        assert_eq!(
            results_path(&full),
            Some(PathBuf::from("benchmark/out/results.json"))
        );
    }
}
