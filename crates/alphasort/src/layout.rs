//! What a record layout supplies to the one sort pipeline.
//!
//! The drivers, worker pools, tournament merger and partition planner are
//! written once, generic over a [`LayoutRun`]: the sorted-run type of a
//! [`RecordLayout`]. A layout supplies exactly four things —
//!
//! 1. a [`RunCutter`] that cuts a chunked byte stream into whole-record run
//!    buffers (a byte stride for Datamation, a re-framer for var-len) and
//!    counts their records, with the attributed "ends mid-record" errors;
//! 2. run formation from such a buffer and count ([`LayoutRun::form`]);
//! 3. the run's size (`len`, `bytes`) and record access at a sorted position
//!    (`key_at`, `frame_at`, and `lcp_with_prev` when formation computed the
//!    table) — the integer prefix is a function of the key
//!    ([`crate::entry::key_prefix_u64`]) under every layout;
//! 4. the [`ComparePolicy`] its merges use.
//!
//! The two implementations sit beside their run types:
//! [`crate::runform::SortedRun`] and [`crate::varlen::VarRun`].

use std::io;

use crate::driver::RecoveredRun;
use crate::entry::RecordLayout;
use crate::merge::ComparePolicy;

/// A sorted in-memory run of one record layout.
pub trait LayoutRun: Sized + Send + Sync + 'static {
    /// The registry value this run type implements.
    const LAYOUT: RecordLayout;
    /// Cuts the input stream into this layout's run buffers.
    type Cutter: RunCutter;
    /// How this layout's merges compare two heads: prefix-then-key where
    /// keys are short binary strings, offset-value codes where long shared
    /// prefixes make rescanning them the dominant cost.
    type Policy: ComparePolicy;

    /// Sort one run buffer. `buf` holds exactly `records` whole records
    /// (the cutter's guarantee: it framed and counted them).
    fn form(buf: Vec<u8>, records: usize) -> Self;

    /// Records in the run.
    fn len(&self) -> usize;

    /// Whether the run holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total record bytes — what spilling the run to scratch will write.
    fn bytes(&self) -> u64;

    /// Key bytes of the record at sorted position `pos`.
    fn key_at(&self, pos: usize) -> &[u8];

    /// The whole record at sorted position `pos`, as stored.
    fn frame_at(&self, pos: usize) -> &[u8];

    /// LCP of the keys at sorted positions `pos - 1` and `pos`, when run
    /// formation tabulated it; `None` makes an offset-value merge scan.
    fn lcp_with_prev(&self, _pos: usize) -> Option<u32> {
        None
    }
}

/// One piece of the input stream, as the cutter hands it to a driver.
pub enum Cut {
    /// A run buffer and the number of whole records it holds, ready for
    /// [`LayoutRun::form`].
    Run(Vec<u8>, usize),
    /// The input range of a recovered run has been read past; its records
    /// already sit in scratch, sorted.
    Skipped(RecoveredRun),
}

/// Cuts a chunked byte stream into run buffers of `run_records` records.
///
/// `skip` lists input ranges (sorted by start, disjoint) whose records a
/// resumed scratch already holds: they are dropped, and a run in progress
/// ends exactly where such a range starts, so re-formed runs cover
/// precisely the records the recovered ones do not.
pub trait RunCutter {
    /// Cutter at input offset 0. `input_bytes` is the source's size hint:
    /// the most a cutter may reserve ahead of the bytes arriving, so that
    /// a run size far beyond the input costs nothing.
    fn new(run_records: usize, input_bytes: Option<u64>, skip: Vec<RecoveredRun>) -> Self;

    /// Feed the next input chunk; completed cuts are appended to `out`.
    fn push(&mut self, chunk: &[u8], out: &mut Vec<Cut>) -> io::Result<()>;

    /// End of input: append the trailing partial run, or fail with an
    /// attributed `InvalidData` when the input ends mid-record or a
    /// skipped range extends past it.
    fn finish(&mut self, out: &mut Vec<Cut>) -> io::Result<()>;
}

/// The "recovered run extends past the input" error both cutters raise.
pub(crate) fn span_past_input(r: &RecoveredRun, read: u64, unit: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "recovered run covering records {}..{} extends past the input \
             ({read} {unit} read); wrong or truncated input for this scratch",
            r.start_record,
            r.start_record.saturating_add(r.records),
        ),
    )
}
