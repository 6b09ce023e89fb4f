//! Daemon-owned service telemetry: uptime and per-job latency histograms.
//!
//! The obs crate's process-global metrics store only records when tracing
//! was explicitly enabled — right for near-zero-overhead CLI runs, wrong
//! for a service whose operators expect `stats` to answer "what are my
//! latencies" at any moment. So the daemon owns its histograms directly:
//! a [`Telemetry`] lives inside the server's `Core` (under the same mutex
//! the admission state already takes per job), reusing
//! [`obs::Histogram`](alphasort_obs::Histogram) as the data structure but
//! recording unconditionally. Six per-job latencies are tracked, all in
//! microseconds. `e2e_us` is the whole — request receipt (manifest parsed)
//! to result settled; the daemon-side view of what a client measures around
//! `submit`, minus connect and response streaming. The other five are the
//! stages of the submit handler, taken from the timestamps at its stage
//! boundaries, and together cover its wall time:
//!
//! * `recv_us` — manifest parsed to payload buffered,
//! * `queue_wait_us` — time parked in the admission queue (0 when admitted
//!   immediately, so the count equals jobs that ran),
//! * `journal_us` — the sum of the job's journal writes,
//! * `exec_us` — the sort itself, budget held,
//! * `reply_us` — settled to last response byte written.
//!
//! Histograms are recorded for every job that ran, successes and execution
//! failures alike, and are never reset — drain stops admission, not
//! accounting, so post-drain `stats` still reports the service's full
//! latency history (the fleet test pins this).

use std::time::{Duration, Instant};

use alphasort_minijson::Json;
use alphasort_obs::{export::histogram_summary, Histogram};

/// The histograms, as the `metrics` wire doc's `histograms` section names
/// them; the `latency` section of `stats` drops the `sortd.` prefix.
pub const HISTOGRAMS: [&str; 6] = [
    "sortd.queue_wait_us",
    "sortd.exec_us",
    "sortd.e2e_us",
    "sortd.recv_us",
    "sortd.journal_us",
    "sortd.reply_us",
];

/// The daemon's always-on metrics: start time plus latency histograms.
pub struct Telemetry {
    started: Instant,
    /// One per [`HISTOGRAMS`] name, in that order.
    hist: [Histogram; 6],
}

/// What a job's handler knows when the job settles.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    /// Manifest parsed to payload buffered.
    pub recv: Duration,
    /// Parked in the admission queue.
    pub queue_wait: Duration,
    /// The sort.
    pub exec: Duration,
    /// Manifest parsed to now.
    pub e2e: Duration,
}

impl Telemetry {
    /// Fresh telemetry; the daemon's uptime clock starts now.
    pub fn new() -> Telemetry {
        Telemetry {
            started: Instant::now(),
            hist: Default::default(),
        }
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn record(&mut self, first: usize, times: &[Duration]) {
        for (h, t) in self.hist[first..].iter_mut().zip(times) {
            h.record(t.as_micros() as u64);
        }
    }

    /// Record a job that ran, as it settles.
    pub fn record_run(&mut self, t: RunTimes) {
        self.record(0, &[t.queue_wait, t.exec, t.e2e, t.recv]);
    }

    /// Record the rest of the same job once its response is written: the
    /// time its journal writes took in total, and the reply.
    pub fn record_reply(&mut self, journal: Duration, reply: Duration) {
        self.record(4, &[journal, reply]);
    }

    /// The `latency` section of the `stats` wire doc: one
    /// count/mean/p50/p90/p99/max summary per histogram (see
    /// [`proto`](crate::proto) for the schema).
    pub fn summaries(&self) -> Json {
        let short = |name: &str| name.trim_start_matches("sortd.").to_string();
        Json::Obj(self.histograms().map(|(name, h)| (short(name), histogram_summary(h))).collect())
    }

    /// The full-fidelity histograms under their `metrics` names.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        HISTOGRAMS.into_iter().zip(&self.hist)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(queue_wait: u64, exec: u64, e2e: u64) -> RunTimes {
        RunTimes {
            recv: Duration::from_micros(40),
            queue_wait: Duration::from_micros(queue_wait),
            exec: Duration::from_micros(exec),
            e2e: Duration::from_micros(e2e),
        }
    }

    #[test]
    fn record_job_lands_in_all_three_histograms() {
        let mut t = Telemetry::new();
        t.record_run(run(100, 2_000, 2_150));
        t.record_run(run(0, 900, 950));
        let h = |name: &str| t.histograms().find(|(n, _)| *n == name).unwrap().1.clone();
        assert_eq!(h("sortd.queue_wait_us").count(), 2);
        assert_eq!(h("sortd.exec_us").count(), 2);
        assert_eq!(h("sortd.e2e_us").count(), 2);
        assert_eq!(h("sortd.recv_us").count(), 2);
        // The immediate admit recorded a true zero wait.
        assert_eq!(h("sortd.queue_wait_us").min(), Some(0));
        assert_eq!(h("sortd.exec_us").max(), Some(2_000));
        // The reply half arrives separately, after the response is written.
        assert_eq!(h("sortd.reply_us").count(), 0);
        t.record_reply(Duration::from_micros(300), Duration::from_micros(70));
        let h = |name: &str| t.histograms().find(|(n, _)| *n == name).unwrap().1.clone();
        assert_eq!((h("sortd.journal_us").max(), h("sortd.reply_us").max()), (Some(300), Some(70)));

        let doc = t.summaries();
        let e2e = doc.get("e2e_us").unwrap();
        assert_eq!(e2e.field_u64("count").unwrap(), 2);
        assert_eq!(e2e.field_u64("max").unwrap(), 2_150);
        assert!(e2e.field_f64("p50").unwrap() > 0.0);
        assert_eq!(doc.get("journal_us").unwrap().field_u64("max").unwrap(), 300);
    }

    #[test]
    fn histogram_names_are_the_wire_names() {
        let t = Telemetry::new();
        let names: Vec<&str> = t.histograms().map(|(n, _)| n).collect();
        assert_eq!(
            names[..3],
            ["sortd.queue_wait_us", "sortd.exec_us", "sortd.e2e_us"]
        );
        assert_eq!(names[3..], ["sortd.recv_us", "sortd.journal_us", "sortd.reply_us"]);
    }
}
