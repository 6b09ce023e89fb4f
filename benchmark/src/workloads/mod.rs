//! The five workloads and what they share: options, the per-operation
//! timeout, and the medians a run reports.

pub mod batch;
pub mod fleet;

use std::io;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::adapters::Trace;
use crate::report::{Metric, Report};
use crate::spans::SpanId;
use crate::spec::{self, WORKLOADS};
use crate::stats;

/// An operation that has not finished by then is a failed operation.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// How many times an untraced run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A deliberate fault, so tests can prove a wrong output would be counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// Flip one byte of the first timed operation's output.
    Output,
    /// Corrupt what outputs are checked against.
    Oracle,
}

/// What to run and how.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generator; nothing else receives it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Input-size multiplier. 1.0 is the benchmark; anything else is a
    /// smoke test whose numbers mean nothing.
    pub scale: f64,
    /// The benchmark's `out/` directory: temp data, traces, results.
    pub out: PathBuf,
    /// Fault to inject (tests only).
    pub sabotage: Option<Sabotage>,
}

/// A finished run.
pub struct RunOutput {
    /// What the last line prints.
    pub report: Report,
    /// Things a reader of the numbers must know (refused RSS reset, …).
    pub notes: Vec<String>,
}

/// Run one workload in this process.
pub fn run(opts: &RunOpts) -> io::Result<RunOutput> {
    if opts.workload == "sortd_fleet" {
        return fleet::run(opts);
    }
    match batch::Kind::from_name(&opts.workload) {
        Some(kind) => batch::run(kind, opts),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {:?}; the workloads are {}",
                opts.workload,
                WORKLOADS.map(|w| w.name).join(", ")
            ),
        )),
    }
}

/// Why an operation produced no latency sample.
#[derive(Debug)]
pub enum OpFailure {
    /// The program returned an error.
    Error(String),
    /// Still running after [`OP_TIMEOUT`]; its thread is abandoned.
    TimedOut,
    /// The operation panicked.
    Panicked,
    /// The output was wrong.
    Invalid(String),
}

impl std::fmt::Display for OpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpFailure::Error(e) => write!(f, "error: {e}"),
            OpFailure::TimedOut => write!(f, "no result after {} s", OP_TIMEOUT.as_secs()),
            OpFailure::Panicked => write!(f, "panicked"),
            OpFailure::Invalid(e) => write!(f, "wrong output: {e}"),
        }
    }
}

/// Run `f` on its own thread and wait at most `limit` for it, so that a
/// hang or a panic inside the program is a failed operation and not the
/// end of the benchmark. Returns the result and the time it took.
pub fn with_timeout<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> io::Result<T> + Send + 'static,
) -> Result<(T, Duration), OpFailure> {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let t0 = Instant::now();
        let out = f();
        let _ = tx.send((out, t0.elapsed()));
    });
    match rx.recv_timeout(limit) {
        Ok((out, elapsed)) => {
            let _ = worker.join();
            out.map(|v| (v, elapsed))
                .map_err(|e| OpFailure::Error(e.to_string()))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(OpFailure::TimedOut),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            Err(OpFailure::Panicked)
        }
    }
}

/// Record `f` as a span named `name` and hand it the trace one level down,
/// so the calls `f` makes hang under that span. Untraced, just runs `f`.
pub fn in_span<T>(
    trace: Option<&Trace>,
    name: &'static str,
    f: impl FnOnce(Option<Trace>) -> T,
) -> T {
    match trace {
        None => f(None),
        Some(t) => {
            let id: SpanId = t.rec.enter(name, t.under);
            let out = f(Some(t.under(id)));
            t.rec.exit(id);
            out
        }
    }
}

/// The sample behind a latency figure, for the person reading the run.
pub fn latency_note(ms: &[f64]) -> String {
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    match (stats::quartiles(&v), v.first(), v.last()) {
        (Some((q1, q2, q3)), Some(min), Some(max)) => format!(
            "operation latency over {} samples: min {min:.3}  q1 {q1:.3}  median {q2:.3}  q3 {q3:.3}  max {max:.3} ms",
            v.len()
        ),
        _ => format!("operation latency: {} samples", v.len()),
    }
}

/// Per-name medians over several operations' `(name, value)` lists.
pub fn medians(samples: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, stats::median(&values).unwrap_or(0.0))
        })
        .collect()
}

fn report<'a>(
    defs: impl Iterator<Item = (&'a str, &'a str)>,
    attempted: u64,
    failed: u64,
    values: &[(&str, f64)],
) -> Report {
    let metrics = defs
        .map(|(name, unit)| Metric {
            name: name.to_string(),
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            unit: unit.to_string(),
        })
        .collect();
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// The end-to-end report of an untraced run: every metric of
/// [`spec::END_TO_END`].
pub fn end_to_end_report(attempted: u64, failed: u64, values: &[(&str, f64)]) -> Report {
    report(
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)),
        attempted,
        failed,
        values,
    )
}

/// The per-layer report of a traced run: every metric of
/// [`spec::PER_LAYER`], 0 where this workload does not exercise the layer.
pub fn per_layer_report(attempted: u64, failed: u64, values: &[(&str, f64)]) -> Report {
    for (name, _) in values {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
    }
    report(
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
        attempted,
        failed,
        values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The program's span recorder and the process's memory high-water mark
    /// are process-wide: runs of whole workloads take turns.
    static WHOLE_RUNS: Mutex<()> = Mutex::new(());

    /// A 1%-scale run: a smoke test whose numbers mean nothing.
    fn smoke(workload: &str, trace: bool, sabotage: Option<Sabotage>) -> Report {
        let _turn = WHOLE_RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let opts = RunOpts {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.3,
            trace,
            scale: 0.01,
            out: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            sabotage,
        };
        run(&opts)
            .unwrap_or_else(|e| panic!("{workload}: {e}"))
            .report
    }

    #[test]
    fn every_workload_runs_both_passes_at_one_percent_scale() {
        for w in &WORKLOADS {
            let r = smoke(w.name, false, None);
            assert!(r.attempted >= 3 && r.correct(), "{}: {r:?}", w.name);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, spec::END_TO_END.map(|m| m.name), "{}", w.name);
            for m in &r.metrics {
                assert!(m.value > 0.0 && m.value.is_finite(), "{}: {m:?}", w.name);
            }

            let r = smoke(w.name, true, None);
            assert!(r.attempted >= 2 && r.correct(), "{}: {r:?}", w.name);
            assert_eq!(r.metrics.len(), spec::PER_LAYER.len(), "{}", w.name);
            assert!(
                r.metrics.iter().all(|m| m.value.is_finite()),
                "{}: {r:?}",
                w.name
            );
            for always in [
                "host.memcpy_mb_per_s",
                "crc.crc32c_mb_per_s",
                "frame.decode_mb_per_s",
            ] {
                assert!(r.value(always).unwrap() > 0.0, "{}: {always}", w.name);
            }
        }
        assert!(run(&RunOpts {
            workload: "no_such_workload".into(),
            seed: 1,
            seconds: 0.1,
            trace: false,
            scale: 0.01,
            out: std::env::temp_dir(),
            sabotage: None,
        })
        .is_err());
    }

    #[test]
    fn traced_passes_report_the_layers_their_workload_exercises() {
        let r = smoke("datamation_stripe_twopass", true, None);
        assert_eq!(r.value("iosim.device_bytes_per_input_byte"), Some(2.0));
        assert_eq!(r.value("scratch.device_bytes_written"), Some(1_000_000.0));
        assert_eq!(r.value("scratch.device_bytes_read"), Some(1_000_000.0));
        assert_eq!(r.value("driver.runs"), Some(10.0));
        assert!(r.value("io_file.sink_busy_s").unwrap() > 0.0);
        assert_eq!(r.value("sortd.e2e_p50_us"), Some(0.0));

        let r = smoke("datamation_paced_array", true, None);
        assert_eq!(r.value("iosim.device_bytes_per_input_byte"), Some(2.0));
        assert!(r.value("driver.overlap_efficiency").unwrap() > 0.0);
        assert!(r.value("io.stripe_source_busy_s").unwrap() > 0.0);
        assert_eq!(r.value("io_file.source_busy_s"), Some(0.0));

        let r = smoke("sortd_fleet", true, None);
        assert!(r.value("sortd.e2e_p50_us").unwrap() > 0.0);
        assert!(r.value("sortd.exec_alone_p50_us").unwrap() > 0.0);
        assert!(r.value("sortd.floor_ratio").unwrap() > 0.0);
        assert!(r.value("obs.spans_recorded").unwrap() > 0.0);
        assert_eq!(r.value("driver.runs"), Some(0.0));
    }

    /// A wrong output, or a wrong oracle, is a failed operation in the
    /// result: never a panic, never a latency sample.
    #[test]
    fn a_corrupt_output_or_oracle_is_counted_as_failed() {
        for w in [
            "datamation_file_onepass",
            "datamation_paced_array",
            "varlen_urls_onepass",
            "sortd_fleet",
        ] {
            let r = smoke(w, false, Some(Sabotage::Output));
            assert_eq!(
                r.failed, 1,
                "{w}: one flipped output byte is one failed operation"
            );
            assert!(r.attempted > r.failed && !r.correct(), "{w}: {r:?}");
            assert!(!r.to_json().dump().contains("\"correct\":true"));
        }
        for w in ["datamation_stripe_twopass", "varlen_urls_onepass"] {
            let r = smoke(w, false, Some(Sabotage::Oracle));
            assert_eq!(
                r.failed, r.attempted,
                "{w}: every output disagrees with a corrupt oracle"
            );
            assert_eq!(
                r.value("op_p50_ms"),
                Some(0.0),
                "{w}: a failed operation is no latency sample"
            );
        }
        let r = smoke("sortd_fleet", false, Some(Sabotage::Oracle));
        assert!(r.failed >= 1 && r.failed < r.attempted, "fleet: {r:?}");
    }

    #[test]
    fn timeout_error_and_panic_are_failures_not_crashes() {
        let ok = with_timeout(Duration::from_secs(5), || Ok(7));
        assert!(matches!(ok, Ok((7, _))));
        let err = with_timeout(Duration::from_secs(5), || -> io::Result<()> {
            Err(io::Error::other("disk on fire"))
        });
        assert!(matches!(err, Err(OpFailure::Error(e)) if e.contains("disk on fire")));
        let hung = with_timeout(Duration::from_millis(20), || {
            thread::sleep(Duration::from_millis(400));
            Ok(())
        });
        assert!(matches!(hung, Err(OpFailure::TimedOut)));
        let boom = with_timeout(Duration::from_secs(5), || -> io::Result<()> {
            panic!("boom")
        });
        assert!(matches!(boom, Err(OpFailure::Panicked)));
    }

    #[test]
    fn medians_are_taken_per_name() {
        let m = medians(&[
            vec![("a", 1.0), ("b", 10.0)],
            vec![("a", 3.0), ("b", 30.0)],
            vec![("a", 2.0), ("b", 20.0)],
        ]);
        assert_eq!(m, vec![("a", 2.0), ("b", 20.0)]);
        assert!(medians(&[]).is_empty());
    }

    #[test]
    fn reports_carry_every_metric_of_their_pass() {
        let r = end_to_end_report(3, 0, &[("sort_mb_per_s", 100.0)]);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, spec::END_TO_END.map(|m| m.name));
        let r = per_layer_report(1, 0, &[("crc.crc32c_mb_per_s", 5.0)]);
        assert_eq!(r.metrics.len(), spec::PER_LAYER.len());
        assert_eq!(r.value("crc.crc32c_mb_per_s"), Some(5.0));
        assert_eq!(r.value("sortd.retries"), Some(0.0));
    }
}
