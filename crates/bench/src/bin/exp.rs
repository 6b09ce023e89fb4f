//! The paper's experiments, by name: `exp NAME [N] [NAME [N]]...` runs each
//! named experiment in turn (`N` is its size, where it takes one), and
//! `exp all` runs every one at its default size. With no argument, or a
//! name it does not know, it prints the list and exits 2.
//!
//! Every report goes through one writer over a locked stdout; a closed
//! stdout (`exp all | head`) ends the program quietly.

use std::io::{self, Write};
use std::process::ExitCode;

use alphasort_bench::exp::*;

/// An experiment: its name, what it regenerates, its `N`'s default (if it
/// takes one) and how to run it.
type Experiment = (&'static str, &'static str, Option<f64>, fn(f64) -> Report);

/// Every experiment, in paper order.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table 1 / Graph 2: published Datamation results", None, |_| table1::run()),
    ("baseline", "§2: AlphaSort against netsort (N records)", Some(1e6), |n| baseline::run(n as u64)),
    ("netsort", "§2: netsort at 1–8 nodes (N records)", Some(5e5), |n| netsort::run(n as u64)),
    ("fig3", "Figure 3: how far away is the data", None, |_| fig3::run()),
    ("fig4", "Figure 4 / §4: tournament against QuickSort", None, |_| fig4::run()),
    ("variants", "§4: QuickSort representations", None, |_| variants::run()),
    ("speedup", "§5: multiprocessor speedup (N records)", Some(1e6), |n| speedup::run(n as u64)),
    ("striping", "Figure 5 / §6: striping bandwidth", None, |_| striping::run()),
    ("table6", "Table 6: many-slow against few-fast arrays", None, |_| table6::run()),
    ("onepass", "§6: one-pass against two-pass", None, |_| onepass::run()),
    ("ablation", "§5–6: design choices off (N records)", Some(4e5), |n| ablation::run(n as u64)),
    ("walkthrough", "§7: the 9.11-second walk-through", None, |_| walkthrough::run()),
    ("fig7", "Figure 7: where the time goes", None, |_| fig7::run()),
    ("table8", "Table 8: Datamation on five AXP systems", None, |_| table8::run()),
    ("minutesort", "§8: MinuteSort (N host seconds)", Some(6.0), minutesort::run),
    ("dollarsort", "§8: DollarSort", None, |_| dollarsort::run()),
    ("terabyte", "§9: a terabyte per minute", None, |_| terabyte::run()),
];

/// The experiments `args` name, each with its `N`.
fn parse(args: &[String]) -> Result<Vec<(&'static Experiment, f64)>, String> {
    let mut runs: Vec<(&Experiment, Option<f64>)> = Vec::new();
    for arg in args {
        if let Some(e) = EXPERIMENTS.iter().find(|e| e.0 == arg) {
            runs.push((e, None));
        } else if arg == "all" && args.len() == 1 {
            runs = EXPERIMENTS.iter().map(|e| (e, None)).collect();
        } else {
            let n: f64 = arg
                .parse()
                .map_err(|_| format!("unknown experiment {arg}"))?;
            match runs.last_mut() {
                Some((e, given @ None)) if e.2.is_some() && n > 0.0 && n.is_finite() => {
                    *given = Some(n)
                }
                _ => return Err(format!("{arg} is not an experiment or its N")),
            }
        }
    }
    if runs.is_empty() {
        return Err("name an experiment".into());
    }
    Ok(runs
        .into_iter()
        .map(|(e, n)| (e, n.or(e.2).unwrap_or(0.0)))
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse(&args) {
        Ok(runs) => runs,
        Err(problem) => {
            eprintln!("exp: {problem}\nusage: exp NAME [N] [NAME [N]]... | exp all\n");
            for (name, what, n, _) in EXPERIMENTS {
                let n = n.map(|n| format!(" [N = {n}]")).unwrap_or_default();
                eprintln!("  {name:<12} {what}{n}");
            }
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    for (i, ((name, what, _, run), n)) in runs.iter().enumerate() {
        let report = run(*n);
        let written = match (runs.len(), i) {
            (1, _) => Ok(()),
            (_, 0) => write!(out, "######## exp {name} — {what}\n\n"),
            _ => write!(out, "\n######## exp {name} — {what}\n\n"),
        };
        match written
            .and_then(|()| report.write_to(&mut out))
            .and_then(|()| out.flush())
        {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::BrokenPipe => break,
            Err(err) => {
                eprintln!("exp: writing the {name} report: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
