//! Zero-dependency tracing + metrics for the AlphaSort workspace.
//!
//! The paper's core argument is an accounting argument: §7 walks one sort
//! through phase by phase and Figure 7 decomposes elapsed time to show the
//! CPU, not the disks, is the bottleneck. `SortStats` end totals cannot
//! show *overlap* — whether writes actually hid behind merging — or where
//! waits concentrate across runs, threads and nodes. This crate supplies
//! the missing timeline, std-only like the rest of the workspace:
//!
//! * **Spans** — [`span`] returns a cheap RAII guard recording a named,
//!   thread-tagged, attribute-carrying interval into a bounded ring buffer
//!   ([`recorder`]); [`instant`] records point markers. Everything is a
//!   no-op (one relaxed atomic load) until [`enable`] is called.
//! * **Metrics** — counters, gauges and log2-bucketed histograms keyed by
//!   static names ([`metrics`]), with snapshot and diff support.
//! * **Exporters** — Chrome `trace_event` JSON loadable in
//!   `chrome://tracing`/Perfetto ([`export`]), the round-trippable metrics
//!   document ([`MetricsSnapshot::to_json`]), plus the terminal Figure 7
//!   report ([`report`]).
//!
//! The canonical span names every layer records under live in [`phase`];
//! `SortStats` can be derived back from a snapshot by summing spans per
//! phase, which is what keeps the CLI's Figure 7 table and the legacy
//! counters in agreement.
//!
//! ```
//! alphasort_obs::enable(4096);
//! {
//!     let _sort = alphasort_obs::span(alphasort_obs::phase::SORT).with("run", 0u64);
//!     alphasort_obs::metrics::observe("sort.run_us", 125);
//! }
//! alphasort_obs::disable();
//! let snap = alphasort_obs::snapshot();
//! assert_eq!(snap.events.len(), 1);
//! let json = alphasort_obs::export::chrome_trace(&snap).dump();
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use metrics::{metrics_snapshot, Histogram, MetricsSnapshot};
pub use recorder::{
    adopt_track, current_track, disable, enable, instant, is_enabled, reset, set_track, snapshot,
    span, AttrValue, Event, EventKind, SpanGuard, ThreadInfo, TraceSnapshot, DEFAULT_CAPACITY,
};
pub use report::{elapsed_of, figure7, phase_totals};

/// Canonical span names, shared by every instrumented layer.
///
/// The pipeline phases (the Figure 7 rows) are deliberately the same small
/// set `SortStats` tracks, so a trace can be folded back into stats. Layer
/// names below them (`io.*`, `file.*`, `stripe.*`, `net.*`) nest inside the
/// phases and carry the per-request detail.
pub mod phase {
    /// Whole one-pass sort (top-level driver span).
    pub const ONE_PASS: &str = "one_pass";
    /// Whole two-pass sort (top-level driver span).
    pub const TWO_PASS: &str = "two_pass";
    /// Whole distributed-sort worker (top-level netsort span).
    pub const NET_WORKER: &str = "net.worker";
    /// Reading input: blocked on the source and, in the sort drivers, the
    /// copy of each chunk into the run buffers it fills.
    pub const READ: &str = "read";
    /// Run formation, the MSD sort (one span per run, often on pool
    /// threads).
    pub const SORT: &str = "sort";
    /// Tournament merge of run pointers / run streams.
    pub const MERGE: &str = "merge";
    /// Gathering records into output buffers (one span per batch).
    pub const GATHER: &str = "gather";
    /// Blocked writing output to the sink.
    pub const WRITE: &str = "write";
    /// Two-pass only: writing and reading back scratch runs.
    pub const SPILL: &str = "spill";
    /// Distributed only: blocked on the record exchange.
    pub const EXCHANGE: &str = "exchange";

    /// netsort: sampling keys + waiting for the coordinator's splitters.
    pub const NET_SAMPLE: &str = "net.sample";
    /// netsort: one batched `Data` frame sent to a peer.
    pub const NET_SEND: &str = "net.send";
    /// netsort: one frame received from a peer.
    pub const NET_RECV: &str = "net.recv";
    /// netsort: the local AlphaSort pipeline over owned records.
    pub const NET_LOCAL: &str = "net.local";

    /// sortd: one job end to end (admission wait + execution), recorded on
    /// the job's own `job-<id>` track.
    pub const SORTD_JOB: &str = "sortd.job";
    /// sortd: time a job spent queued behind the resource pool.
    pub const SORTD_QUEUE: &str = "sortd.queue";
    /// sortd: the sort itself, running under the job's budget.
    pub const SORTD_EXEC: &str = "sortd.exec";

    /// iosim: one read serviced by a disk thread.
    pub const IO_READ: &str = "io.read";
    /// iosim: one write serviced by a disk thread.
    pub const IO_WRITE: &str = "io.write";
    /// iosim: one flush serviced by a disk thread.
    pub const IO_SYNC: &str = "io.sync";
    /// Host file system: one chunk read.
    pub const FILE_READ: &str = "file.read";
    /// Host file system: one buffered write.
    pub const FILE_WRITE: &str = "file.write";
    /// stripefs: waiting for a read-ahead stride to land.
    pub const STRIPE_READ: &str = "stripe.read";
    /// stripefs: waiting for write-behind back-pressure to clear.
    pub const STRIPE_WRITE: &str = "stripe.write";

    /// Spans whose duration is a whole sort (Figure 7's denominator).
    pub const TOP_LEVEL: &[&str] = &[ONE_PASS, TWO_PASS, NET_WORKER];

    /// Figure 7 rows in pipeline order, with display labels.
    pub const FIGURE7_ROWS: &[(&str, &str)] = &[
        (READ, "read wait"),
        (SORT, "sort"),
        (SPILL, "spill"),
        (EXCHANGE, "exchange wait"),
        (MERGE, "merge"),
        (GATHER, "gather"),
        (WRITE, "write wait"),
    ];
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The recorder is process-global; unit tests that flip it on and off
    // serialize on this lock so they cannot corrupt each other's state.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
