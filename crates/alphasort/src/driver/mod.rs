//! External-sort drivers: one-pass, two-pass, and the facade that picks.
//!
//! §6 frames the choice: "A two-pass sort uses less memory, but uses twice
//! the disk bandwidth. … In particular, the Datamation sort benchmark should
//! be done in one pass." [`ExternalSorter`] consults the [`Planner`] and
//! dispatches to [`one_pass`] or [`two_pass`].

mod onepass;
mod scratch;
mod twopass;

pub use onepass::one_pass;
pub use scratch::{RecoveredRun, ResumeReport, StripeScratch, INDEX_EVERY};
pub use twopass::two_pass;

use std::io;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use alphasort_obs as obs;

use crate::entry::{RecordLayout, MAX_MERGE_WORKERS, MAX_RUN_RECORDS, MAX_WORKERS};
use crate::gather::{gather_into, take_ptrs};
use crate::io::{RecordSink, RecordSource};
use crate::layout::{Cut, LayoutRun, RunCutter};
use crate::merge::{ComparePolicy, Heads, Merger, RunCursors};
use crate::parallel::SortPool;
use crate::planner::{PassPlan, Planner};
use crate::pmerge::MergePartition;
use crate::stats::{timed_phase, SortStats};

/// Tuning knobs for a sort run.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Records per QuickSort run (the paper uses 100,000 for 1 M records:
    /// "between ten and one hundred runs" in a one-pass sort).
    pub run_records: usize,
    /// Worker threads for sort and gather chores (0 = uniprocessor).
    pub workers: usize,
    /// Records per gather batch / output buffer.
    pub gather_batch: usize,
    /// Memory budget in bytes for the planner (one- vs two-pass decision).
    pub memory_budget: u64,
    /// Maximum merge fan-in for the two-pass driver. When a sort produces
    /// more runs than this, intermediate *cascade* merge passes combine
    /// groups of `max_fanin` runs until one final merge fits (classic
    /// external sorting; beyond the paper's one/two-pass regime but needed
    /// once inputs are thousands of times memory).
    pub max_fanin: usize,
    /// Key ranges for the partitioned parallel merge (0 = the classic
    /// serial tournament). With `P > 0` the final merge is cut into `P`
    /// disjoint key ranges by sampled splitters and each range merges
    /// independently — output stays byte-identical to the serial merge.
    pub merge_workers: usize,
    /// Record model the sort operates on (see [`RecordLayout`]). The
    /// layout only moves CPU time: for a given layout every configuration
    /// produces byte-identical output. Both drivers dispatch on it once,
    /// into the same pipeline instantiated for the layout's run type
    /// ([`crate::layout::LayoutRun`]).
    pub layout: RecordLayout,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            run_records: 100_000,
            workers: 0,
            gather_batch: 10_000,
            memory_budget: 256 << 20,
            max_fanin: 128,
            merge_workers: 0,
            layout: RecordLayout::Datamation,
        }
    }
}

/// Result of a sort: where the time went plus total bytes written.
#[derive(Clone, Debug)]
pub struct SortOutcome {
    /// Phase breakdown and counters.
    pub stats: SortStats,
    /// Logical bytes written to the output sink.
    pub bytes: u64,
    /// The plan that was executed.
    pub plan: PassPlan,
}

/// Both drivers' check of the sizes a caller controls. They arrive from
/// command lines and job manifests, so a bad one is an attributed error,
/// not a panic (sortd asks before it accepts a job's payload).
pub fn check_sizes(cfg: &SortConfig) -> io::Result<()> {
    let bad = |what: String| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    if cfg.run_records == 0 || cfg.gather_batch == 0 {
        return bad(format!(
            "run_records ({}) and gather_batch ({}) must be at least 1",
            cfg.run_records, cfg.gather_batch
        ));
    }
    if cfg.run_records > MAX_RUN_RECORDS {
        return bad(format!(
            "run_records ({}) exceeds the {MAX_RUN_RECORDS}-records-per-run limit of the \
             32-bit entry index",
            cfg.run_records
        ));
    }
    if cfg.workers > MAX_WORKERS {
        return bad(format!(
            "workers ({}) exceeds the limit of {MAX_WORKERS} chore threads",
            cfg.workers
        ));
    }
    if cfg.merge_workers > MAX_MERGE_WORKERS {
        return bad(format!(
            "merge_workers ({}) exceeds the limit of {MAX_MERGE_WORKERS} key ranges \
             (each range merges on its own thread)",
            cfg.merge_workers
        ));
    }
    Ok(())
}

/// Run formation, the input half of both drivers and of a netsort node:
/// `source` cut into run buffers by the one [`RunCutter`], each sorted by
/// the pool while later input arrives. `skip` lists the input ranges a
/// resumed scratch already holds; their records are read past and booked as
/// recovered runs. Each formed run is booked into `stats` (count, records,
/// length, sort time) and handed to `hand_off` in input order as soon as it
/// is sorted; `Some(buf)` gives its spent buffer back to the cutter, so the
/// next run is read into memory this sort already touched.
pub fn form_runs<R: LayoutRun>(
    source: &mut impl RecordSource,
    cfg: &SortConfig,
    skip: Vec<RecoveredRun>,
    stats: &mut SortStats,
    mut hand_off: impl FnMut(R, &mut SortStats) -> io::Result<Option<Vec<u8>>>,
) -> io::Result<()> {
    let resuming = !skip.is_empty();
    let mut cutter = RunCutter::new(R::LAYOUT, cfg.run_records, source.size_hint(), skip);
    let mut pool = SortPool::<R>::new(cfg.workers);
    let mut book = |(run, d): (R, Duration), stats: &mut SortStats| {
        stats.sort_time += d;
        stats.runs += 1;
        stats.run_lengths.push(run.len() as u64);
        stats.records += run.len() as u64;
        if resuming {
            stats.runs_reformed += 1;
            obs::metrics::counter_add("run.reformed", 1);
        }
        hand_off(run, stats)
    };
    let mut cuts = Vec::new();
    loop {
        // The read phase is the input arriving in run buffers: blocked on
        // the source, then the copy into the runs the chunk fills (the
        // first touch of each fresh run buffer is paid here).
        let mut rd = obs::span(obs::phase::READ);
        let t0 = Instant::now();
        let read = match source.next_chunk() {
            Ok(Some(chunk)) => {
                rd.attr("bytes", chunk.len() as u64);
                stats.bytes_sorted += chunk.len() as u64;
                cutter.push(&chunk, &mut cuts).map(|()| true)
            }
            Ok(None) => cutter.finish(&mut cuts).map(|()| false),
            Err(e) => Err(e),
        };
        stats.read_wait += t0.elapsed();
        drop(rd);
        let more = read?;
        for cut in cuts.drain(..) {
            match cut {
                Cut::Run(buf, records) => pool.submit(buf, records),
                Cut::Skipped(r) => {
                    stats.runs += 1;
                    stats.run_lengths.push(r.records);
                    stats.records += r.records;
                    stats.runs_recovered += 1;
                    obs::metrics::counter_add("run.recovered", 1);
                }
            }
        }
        // Hand off whatever the workers have finished, without stalling
        // input.
        while let Some(sorted) = pool.try_next_in_order() {
            if let Some(buf) = book(sorted, stats)? {
                cutter.recycle(buf);
            }
        }
        if !more {
            break;
        }
    }
    drop(cutter); // input is done: nothing takes a spare buffer any more
    while let Some(sorted) = pool.next_in_order() {
        book(sorted, stats)?;
    }
    Ok(())
}

/// The exit of both drivers, empty input included: complete the sink and
/// close the books.
fn finish(
    mut top: obs::SpanGuard,
    mut stats: SortStats,
    sink: &mut impl RecordSink,
    plan: PassPlan,
    t_start: Instant,
) -> io::Result<SortOutcome> {
    let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
    stats.elapsed = t_start.elapsed();
    obs::metrics::counter_add("sort.records", stats.records);
    obs::metrics::counter_add("sort.bytes", stats.bytes_sorted);
    top.attr("records", stats.records);
    top.attr("bytes", stats.bytes_sorted);
    Ok(SortOutcome { stats, bytes, plan })
}

/// Where a merge's staged output goes: called after every batch with the
/// staging buffer and whether the merge is spent; `false` stops the merge.
pub type Ship<'s> = dyn FnMut(&mut Vec<u8>, bool, &mut SortStats) -> io::Result<bool> + 's;

/// The stream merge, of the two-pass driver's final merge and key ranges
/// and a netsort node: `batch` records at a time appended to a staging
/// buffer and handed to `ship`. One timing/span window per batch:
/// per-record clock reads (and per-record spans) would dominate the merge
/// itself at 10M records.
fn merge_stream<H: Heads, P: ComparePolicy>(
    mut merger: Merger<H, P>,
    batch: usize,
    stats: &mut SortStats,
    ship: &mut Ship<'_>,
) -> io::Result<()> {
    let mut staging = Vec::new();
    loop {
        let done = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
            for _ in 0..batch {
                if !merger.next_into(&mut staging)? {
                    return Ok(true);
                }
            }
            Ok::<_, io::Error>(false)
        })?;
        if !ship(&mut staging, done, stats)? || done {
            return Ok(());
        }
    }
}

/// The serial merge into a sink, of the two-pass driver and a netsort node.
pub fn merge_to_sink<H: Heads, P: ComparePolicy>(
    merger: Merger<H, P>,
    sink: &mut impl RecordSink,
    batch: usize,
    stats: &mut SortStats,
) -> io::Result<()> {
    merge_stream(merger, batch, stats, &mut |staging, _, stats| {
        if !staging.is_empty() {
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || {
                sink.push(staging)
            })?;
            staging.clear();
        }
        Ok(true)
    })
}

/// The one in-memory range merge, of the one-pass partitioned merge and a
/// netsort node: `[start, end)` of each run (`bounds[r]`) merged as
/// pointers, `batch` at a time, each batch gathered onto a staging buffer
/// and handed to `ship`. Merging pointers and gathering after is faster
/// than copying each record as it wins (64–73 ms against 87–92 ms per
/// 250 k URL records, 2-core host).
pub fn merge_range<R: LayoutRun>(
    runs: &[R],
    bounds: &[(u64, u64)],
    batch: usize,
    stats: &mut SortStats,
    ship: &mut Ship<'_>,
) -> io::Result<()> {
    if runs.is_empty() {
        return Ok(());
    }
    let bounds: Vec<(u32, u32)> = bounds.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
    let mut merger = Merger::<_, R::Policy>::new(RunCursors::new(runs, Some(&bounds)), ());
    let mut staging = Vec::new();
    loop {
        let ptrs = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
            take_ptrs(&mut merger, batch)
        });
        timed_phase(obs::phase::GATHER, &mut stats.gather_time, || {
            gather_into(runs, &ptrs, &mut staging)
        });
        let done = ptrs.is_empty();
        if !ship(&mut staging, done, stats)? || done {
            return Ok(());
        }
    }
}

/// One key range of a partitioned merge: the merge that produces it, run
/// with the [`Ship`] that carries its batches to the sink, and how many
/// batches it may run ahead of the sink.
type Range<'a> = (
    Box<dyn FnOnce(&mut Ship<'_>) -> io::Result<()> + Send + 'a>,
    usize,
);

/// The partitioned merge of both drivers: `plan` cut every run into
/// disjoint ascending key ranges, each range merges (fused with its
/// gather) on its own thread, and the staged buffers stream to the sink in
/// range order. Splitter routing is a pure function of the key and every
/// range keeps the run-index tie-break, so the concatenation is
/// byte-identical to the serial merge. Books the plan's record counts and
/// the ranges' critical path into `stats`.
fn merge_ranges<Snk: RecordSink>(
    ranges: Vec<Range<'_>>,
    plan: MergePartition,
    sink: &mut Snk,
    stats: &mut SortStats,
) -> io::Result<()> {
    let track = obs::current_track();
    let durations = std::thread::scope(|scope| -> io::Result<Vec<Duration>> {
        let mut handles = Vec::with_capacity(ranges.len());
        let mut rxs = Vec::with_capacity(ranges.len());
        for (merge, ahead) in ranges {
            let (tx, rx) = sync_channel::<Vec<u8>>(ahead);
            rxs.push(rx);
            let track = track.clone();
            handles.push(scope.spawn(move || -> io::Result<Duration> {
                obs::adopt_track(track);
                let t0 = Instant::now();
                // A failed send means the root stopped draining (sink
                // error); there is nowhere for our output to go.
                merge(&mut |staging, _, _| {
                    let next = Vec::with_capacity(staging.len());
                    Ok(staging.is_empty() || tx.send(std::mem::replace(staging, next)).is_ok())
                })?;
                let d = t0.elapsed();
                obs::metrics::observe("merge.range_us", d.as_micros() as u64);
                Ok(d)
            }));
        }
        // Drain in range order: ranges cover ascending disjoint key
        // intervals, so this concatenation *is* the sorted output.
        let mut sink_err: Option<io::Error> = None;
        'drain: for rx in &rxs {
            while let Ok(buf) = rx.recv() {
                let pushed =
                    timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf));
                if let Err(e) = pushed {
                    sink_err = Some(e);
                    break 'drain;
                }
            }
        }
        drop(rxs); // unblocks any worker still sending after a sink error
        let joined: Vec<io::Result<Duration>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        // A failed range read outranks the sink error it may have induced.
        let durations = joined.into_iter().collect::<io::Result<Vec<_>>>()?;
        sink_err.map_or(Ok(durations), Err)
    })?;
    stats.merge_range_records = plan.range_records;
    stats.book_merge_ranges(durations);
    Ok(())
}

/// Facade: plan (one- vs two-pass) and run the sort.
pub struct ExternalSorter {
    cfg: SortConfig,
}

impl ExternalSorter {
    /// Sorter with the given configuration.
    pub fn new(cfg: SortConfig) -> Self {
        ExternalSorter { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Sort `source` into `sink`, spilling to `scratch` if the input does
    /// not fit the memory budget. Sources without a size hint are assumed
    /// not to fit (conservative: two-pass always works).
    pub fn sort<Src, Snk>(
        &self,
        source: &mut Src,
        sink: &mut Snk,
        scratch: &mut StripeScratch,
    ) -> io::Result<SortOutcome>
    where
        Src: RecordSource,
        Snk: RecordSink,
    {
        let planner = Planner::new(self.cfg.memory_budget);
        let plan = match source.size_hint() {
            Some(bytes) => planner.plan(bytes),
            None => PassPlan::TwoPass,
        };
        match plan {
            PassPlan::OnePass => one_pass(source, sink, &self.cfg),
            PassPlan::TwoPass => two_pass(source, sink, scratch, &self.cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::scratch::tests::mem_scratch;
    use crate::io::{MemSink, MemSource};
    use alphasort_dmgen::{generate, generate_varlen, GenConfig, TextCorpus, VarGenConfig};

    fn input(layout: RecordLayout, records: u64) -> Vec<u8> {
        match layout {
            RecordLayout::Datamation => generate(GenConfig::datamation(records, 5)).0,
            RecordLayout::VarLen => generate_varlen(VarGenConfig {
                records,
                seed: 5,
                corpus: TextCorpus::Urls,
            }),
        }
    }

    /// ROADMAP item 1: a partitioned merge books critical-path, not
    /// summed-worker, merge time — in both drivers, under both layouts. (The
    /// root's sink writes overlap the range workers, so the phase *sum* may
    /// still exceed `elapsed`; only `merge_time` is held to it.)
    #[test]
    fn partitioned_merge_time_is_the_critical_path() {
        for layout in RecordLayout::ALL {
            let data = input(layout, 20_000);
            let cfg = SortConfig {
                run_records: 2_500,
                gather_batch: 500,
                workers: 2,
                merge_workers: 4,
                layout,
                ..Default::default()
            };
            let mut source = MemSource::new(data.clone(), 1 << 16);
            let one = one_pass(&mut source, &mut MemSink::new(), &cfg).unwrap();
            let mut source = MemSource::new(data, 1 << 16);
            let mut scratch = mem_scratch(1 << 16, layout);
            let two = two_pass(&mut source, &mut MemSink::new(), &mut scratch, &cfg).unwrap();
            // The spill went to the scratch the caller passed, whatever the
            // layout (range windows consume nothing, so the runs are still
            // there to count).
            let runs = scratch.sealed_run_records().unwrap().len();
            assert_eq!(runs, 8, "{}", layout.name());
            for (driver, st) in [("one-pass", &one.stats), ("two-pass", &two.stats)] {
                let what = format!("{driver} {}", layout.name());
                assert_eq!(st.merge_range_time.len(), 4, "{what}");
                let slowest = st.merge_range_time.iter().max().expect("four ranges");
                assert!(st.merge_time >= *slowest, "{what}: {st:?}");
                assert!(st.merge_time <= st.elapsed, "{what}: {st:?}");
            }
        }
    }

    /// Sizes from outside (`sortcli --run` / `--workers` / `--merge-workers`, a job
    /// manifest) are refused as errors by both drivers under both layouts —
    /// never a panic, never an up-front allocation or thread count sized by
    /// the number alone.
    #[test]
    fn bad_sizes_are_invalid_input_errors_not_panics() {
        let over = MAX_RUN_RECORDS.saturating_add(1);
        let bad = [
            (0, 10, 0, 0),
            (10, 0, 0, 0),
            (over, 10, 0, 0),
            (usize::MAX, 10, 0, 0),
            (10, 10, MAX_MERGE_WORKERS + 1, 0),
            (10, 10, 0, MAX_WORKERS + 1),
        ];
        for layout in RecordLayout::ALL {
            for (run_records, gather_batch, merge_workers, workers) in bad {
                let cfg = SortConfig {
                    run_records,
                    gather_batch,
                    merge_workers,
                    workers,
                    layout,
                    ..Default::default()
                };
                let what = format!(
                    "{} run={run_records} batch={gather_batch} ranges={merge_workers} \
                     workers={workers}",
                    layout.name()
                );
                let (mut source, mut sink) = (MemSource::new(Vec::new(), 64), MemSink::new());
                let mut scratch = mem_scratch(64, layout);
                let outcomes = [
                    one_pass(&mut source, &mut sink, &cfg),
                    two_pass(&mut source, &mut sink, &mut scratch, &cfg),
                ];
                for outcome in outcomes {
                    let err = outcome.expect_err(&what);
                    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{what}: {err}");
                }
            }
            // The largest legal run on a small input reserves what the
            // input can fill and sorts it, over the most ranges allowed.
            let cfg = SortConfig {
                run_records: MAX_RUN_RECORDS,
                merge_workers: MAX_MERGE_WORKERS,
                layout,
                ..Default::default()
            };
            let mut source = MemSource::new(input(layout, 50), 1 << 10);
            let out = one_pass(&mut source, &mut MemSink::new(), &cfg).unwrap();
            assert_eq!(
                (out.stats.records, out.stats.runs),
                (50, 1),
                "{}",
                layout.name()
            );
        }
    }
}
