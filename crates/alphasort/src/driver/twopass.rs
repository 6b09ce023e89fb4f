//! The two-pass sort: spill runs to scratch, merge them back.
//!
//! §6: "When should the QuickSorted intermediate runs be stored on disk? A
//! two-pass sort uses less memory, but uses twice the disk bandwidth."
//! (The paper's runs are QuickSorted; this repository's are formed by
//! `runform::msd_sort`.) Pass 1 reads the input in memory-sized chunks,
//! sorts each, and streams the sorted run to a scratch file. Pass 2 opens
//! every run and merges the record streams through a tournament into the
//! output sink. Memory use is the run buffers in flight in pass 1 (one
//! filling, the others being sorted or spilled, each reused by a later run)
//! and one read-ahead buffer per run in pass 2, regardless of input size.

use std::io;
use std::time::Instant;

use alphasort_obs as obs;

use crate::driver::scratch::{StripeScratch, INDEX_EVERY};
use crate::driver::{
    check_sizes, finish, merge_batch, merge_ranges, Feed, Range, SortConfig, SortOutcome,
};
use crate::entry::RecordLayout;
use crate::io::{RecordSink, RecordSource, StripeSink, StripeSource};
use crate::layout::{Cut, LayoutRun, RunCutter};
use crate::merge::{Heads, Merger, StreamHeads};
use crate::parallel::SortPool;
use crate::planner::PassPlan;
use crate::pmerge::{plan_partitions_with, SAMPLES_PER_RANGE};
use crate::runform::SortedRun;
use crate::stats::{timed_phase, SortStats};
use crate::varlen::VarRun;

/// Sort `source` into `sink`, staging runs in `scratch` — which must have
/// been built for the configured layout.
pub fn two_pass<Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    scratch: &mut StripeScratch,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    Src: RecordSource,
    Snk: RecordSink,
{
    match cfg.layout {
        RecordLayout::Datamation => two_pass_of::<SortedRun, _, _>(source, sink, scratch, cfg),
        RecordLayout::VarLen => two_pass_of::<VarRun, _, _>(source, sink, scratch, cfg),
    }
}

/// One scratch run being written: records staged into `gather_batch`-sized
/// pushes so the spill writer's pipeline stays busy without a whole-run
/// staging copy, counted — and, without a fixed stride, sparsely indexed —
/// for [`StripeScratch::seal_run`].
struct Spill {
    writer: StripeSink,
    staging: Vec<u8>,
    /// Records in `staging`, flushed at `batch` (a counter, not a modulo
    /// of `records`: this runs once per spilled record).
    staged: usize,
    batch: usize,
    indexed: bool,
    records: u64,
    bytes: u64,
    index: Vec<u64>,
}

impl Spill {
    fn new(writer: StripeSink, layout: RecordLayout, batch: usize) -> Self {
        Spill {
            writer,
            staging: Vec::new(),
            staged: 0,
            batch,
            indexed: layout.stride().is_none(),
            records: 0,
            bytes: 0,
            index: Vec::new(),
        }
    }

    fn push(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.indexed && self.records.is_multiple_of(INDEX_EVERY) {
            self.index.push(self.bytes);
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.staging.extend_from_slice(frame);
        self.staged += 1;
        if self.staged == self.batch {
            self.writer.push(&self.staging)?;
            self.staging.clear();
            self.staged = 0;
        }
        Ok(())
    }

    fn seal(mut self, scratch: &mut StripeScratch) -> io::Result<()> {
        if !self.staging.is_empty() {
            self.writer.push(&self.staging)?;
        }
        scratch.seal_run(self.writer, self.records, self.index)
    }
}

/// Account one freshly formed run and stream it to scratch.
fn spill_run<R: LayoutRun>(
    run: &R,
    resuming: bool,
    cfg: &SortConfig,
    stats: &mut SortStats,
    scratch: &mut StripeScratch,
) -> io::Result<()> {
    stats.runs += 1;
    stats.run_lengths.push(run.len() as u64);
    stats.records += run.len() as u64;
    if resuming {
        stats.runs_reformed += 1;
        obs::metrics::counter_add("run.reformed", 1);
    }
    timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
        let mut out = Spill::new(
            scratch.create_run(run.bytes())?,
            R::LAYOUT,
            cfg.gather_batch,
        );
        for pos in 0..run.len() {
            out.push(run.frame_at(pos))?;
        }
        out.seal(scratch)
    })
}

/// The two-pass pipeline over runs of type `R`.
fn two_pass_of<R, Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    scratch: &mut StripeScratch,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    R: LayoutRun,
    Src: RecordSource,
    Snk: RecordSink,
{
    check_sizes(cfg)?;
    if scratch.layout() != R::LAYOUT {
        // A resumed manifest written for the other layout, or a caller
        // that built its scratch for the wrong one: its record-indexed
        // operations would misread every run.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "scratch holds {} runs but the sort is configured for the {} layout",
                scratch.layout().name(),
                R::LAYOUT.name()
            ),
        ));
    }
    let top = obs::span(obs::phase::TWO_PASS);
    let t_start = Instant::now();
    let mut stats = SortStats {
        one_pass: false,
        ..Default::default()
    };

    // ---- pass 1: run formation + spill, overlapped ------------------------
    // Workers sort run buffers while the root keeps reading and spills
    // completed runs — the §5 chore decomposition applied to the spill pass
    // (runs must reach scratch in submission order, so the pool hands them
    // back in order).
    //
    // A resumed scratch reports the input ranges its surviving runs cover;
    // the cutter reads past those (the sorted records already sit in
    // scratch, checksummed) and only the gaps are re-sorted and re-spilled.
    //
    // A spilled run's buffer goes back to the cutter, so the next run is
    // read into memory this pass already touched: the pass holds the same
    // run buffers throughout, instead of freeing and allocating one per run
    // in a heap that the spill writer's in-flight buffers fragment (which
    // made peak RSS differ by megabytes from one sort to the next).
    let skip = scratch.recovered_runs();
    let resuming = !skip.is_empty();
    let mut pool = SortPool::<R>::new(cfg.workers);
    let mut feed = Feed::<R::Cutter>::new(cfg.run_records, source.size_hint(), skip);
    while let Some(cuts) = feed.next_cuts(source, &mut stats)? {
        for cut in cuts {
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
        // Spill whatever the workers have finished, without stalling input.
        while let Some((run, d)) = pool.try_next_in_order() {
            stats.sort_time += d;
            spill_run(&run, resuming, cfg, &mut stats, scratch)?;
            feed.cutter.recycle(run.into_buf());
        }
    }
    drop(feed); // input is done: nothing takes a spare buffer any more
    while let Some((run, d)) = pool.next_in_order() {
        stats.sort_time += d;
        spill_run(&run, resuming, cfg, &mut stats, scratch)?;
    }
    drop(pool.finish()); // joins worker threads (no runs remain)
    if stats.records == 0 {
        return finish(top, stats, sink, PassPlan::TwoPass, t_start);
    }

    // ---- intermediate cascade passes (runs > fan-in) -----------------------
    // Beyond the paper's regime: when inputs are thousands of times memory,
    // the run count exceeds a practical merge width, so groups of `fanin`
    // runs merge into longer scratch runs until one final merge remains
    // (Knuth's cascade merge). Each extra level costs one more full
    // read+write of the data — the same bandwidth arithmetic as §6.
    let fanin = cfg.max_fanin.max(2);
    while scratch.sealed_run_records()?.len() > fanin {
        stats.merge_passes += 1;
        let level = timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
            scratch.open_runs()
        })?;
        let mut level_iter = level.into_iter().peekable();
        while level_iter.peek().is_some() {
            let group: Vec<StripeSource> = level_iter.by_ref().take(fanin).collect();
            // The merged run is as big as its inputs together; scratch
            // allocates extents from this hint.
            let group_bytes: u64 = group.iter().filter_map(|s| s.size_hint()).sum();
            let mut merger = Merger::<_, R::Policy, _>::new(StreamHeads::<_, R>::new(group)?, ());
            timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
                let writer = scratch.create_run(group_bytes)?;
                let mut out = Spill::new(writer, R::LAYOUT, cfg.gather_batch);
                while let Some(w) = merger.winner() {
                    out.push(merger.heads().frame(w))?;
                    merger.pop()?;
                }
                out.seal(scratch)
            })?;
        }
    }

    // ---- final merge into the sink -----------------------------------------
    if cfg.merge_workers > 0 {
        partitioned_final_merge::<R, _>(sink, scratch, cfg, &mut stats)?;
    } else {
        let sources = timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
            scratch.open_runs()
        })?;
        let heads = StreamHeads::<_, R>::new(sources)?;
        let mut merger = Merger::<_, R::Policy, _>::new(heads, ());
        let mut staging = Vec::new();
        loop {
            let done = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
                merge_batch(&mut merger, &mut staging, cfg.gather_batch)
            })?;
            if !staging.is_empty() {
                timed_phase(obs::phase::WRITE, &mut stats.write_wait, || {
                    sink.push(&staging)
                })?;
                staging.clear();
            }
            if done {
                break;
            }
        }
    }
    finish(top, stats, sink, PassPlan::TwoPass, t_start)
}

/// Partitioned final merge: sampled splitters (probed via
/// [`StripeScratch::key_at`]) cut every sealed run into `cfg.merge_workers`
/// disjoint key ranges, and each range's worker reads verified range
/// windows of the runs.
fn partitioned_final_merge<R, Snk>(
    sink: &mut Snk,
    scratch: &mut StripeScratch,
    cfg: &SortConfig,
    stats: &mut SortStats,
) -> io::Result<()>
where
    R: LayoutRun,
    Snk: RecordSink,
{
    let run_lens = scratch.sealed_run_records()?;
    let plan = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
        plan_partitions_with(&run_lens, cfg.merge_workers, SAMPLES_PER_RANGE, |r, pos| {
            scratch.key_at(r, pos)
        })
    })?;
    // Open every (range, run) window up front on the driver thread: the
    // scratch handle is `&mut`, but the sources it yields are `Send` and
    // move into the range workers. Empty cuts are skipped.
    let mut ranges: Vec<Range<'_, StreamHeads<StripeSource, R>>> = Vec::new();
    for row in &plan.bounds {
        let mut srcs = Vec::new();
        for (run, &(s, e)) in row.iter().enumerate() {
            if e > s {
                srcs.push(scratch.open_run_range(run, s, e - s)?);
            }
        }
        // A short pipeline per range: workers stay a few batches ahead of
        // the sink without staging whole ranges in memory.
        let open = move || match srcs.is_empty() {
            true => Ok(None),
            false => StreamHeads::new(srcs).map(Some),
        };
        ranges.push((Box::new(open), 4));
    }
    merge_ranges::<_, R::Policy, _>(ranges, plan, cfg, sink, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::scratch::tests::{crashed_with, mem_scratch};
    use crate::io::{MemSink, MemSource};
    use alphasort_dmgen::{generate, validate_records, GenConfig, KeyDistribution, RECORD_LEN};

    fn sort_two_pass(n: u64, dist: KeyDistribution, cfg: &SortConfig) {
        let (data, cs) = generate(GenConfig {
            records: n,
            seed: 0xF00D,
            dist,
        });
        let mut source = MemSource::new(data, 12_345); // deliberately ragged
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(40 * RECORD_LEN, RecordLayout::Datamation);
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, cfg).unwrap();
        assert_eq!(outcome.stats.records, n);
        assert!(!outcome.stats.one_pass);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n);
    }

    #[test]
    fn sorts_with_many_runs() {
        let cfg = SortConfig {
            run_records: 250,
            gather_batch: 100,
            ..Default::default()
        };
        sort_two_pass(5_000, KeyDistribution::Random, &cfg); // 20 runs
    }

    #[test]
    fn sorts_with_workers_overlapping_spill() {
        let cfg = SortConfig {
            run_records: 200,
            gather_batch: 64,
            workers: 3,
            ..Default::default()
        };
        sort_two_pass(6_000, KeyDistribution::Random, &cfg); // 30 runs
    }

    #[test]
    fn sorts_with_single_run() {
        let cfg = SortConfig {
            run_records: 100_000,
            gather_batch: 100,
            ..Default::default()
        };
        sort_two_pass(1_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_adversarial_distributions() {
        let cfg = SortConfig {
            run_records: 300,
            gather_batch: 64,
            ..Default::default()
        };
        for dist in [
            KeyDistribution::Sorted,
            KeyDistribution::Reverse,
            KeyDistribution::DupHeavy { cardinality: 2 },
            KeyDistribution::CommonPrefix { shared: 10 },
        ] {
            sort_two_pass(2_000, dist, &cfg);
        }
    }

    #[test]
    fn empty_input() {
        let mut source = MemSource::new(Vec::new(), 100);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(100 * RECORD_LEN, RecordLayout::Datamation);
        let outcome =
            two_pass(&mut source, &mut sink, &mut scratch, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
    }

    #[test]
    fn cascade_merge_handles_many_runs() {
        // 40 runs with fan-in 4: two intermediate levels (40 → 10 → 3),
        // then the final merge.
        let (data, cs) = generate(GenConfig::datamation(2_000, 21));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(25 * RECORD_LEN, RecordLayout::Datamation);
        let cfg = SortConfig {
            run_records: 50, // 40 runs
            gather_batch: 32,
            max_fanin: 4,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 40);
        assert_eq!(outcome.stats.merge_passes, 2);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, 2_000);
    }

    #[test]
    fn cascade_fanin_exactly_at_boundary_needs_no_extra_pass() {
        let (data, cs) = generate(GenConfig::datamation(1_000, 22));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(25 * RECORD_LEN, RecordLayout::Datamation);
        let cfg = SortConfig {
            run_records: 125, // exactly 8 runs
            gather_batch: 32,
            max_fanin: 8,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.merge_passes, 0);
        validate_records(sink.data(), cs).unwrap();
    }

    /// Serial-reference sort of `data` with `cfg` (merge_workers forced 0).
    fn serial_reference(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
        let mut source = MemSource::new(data.to_vec(), 12_345);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(40 * RECORD_LEN, RecordLayout::Datamation);
        let cfg = SortConfig {
            merge_workers: 0,
            ..cfg.clone()
        };
        two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        sink.into_inner()
    }

    #[test]
    fn partitioned_final_merge_is_byte_identical_to_serial() {
        let (data, cs) = generate(GenConfig {
            records: 4_000,
            seed: 0xD1CE,
            dist: KeyDistribution::DupHeavy { cardinality: 5 },
        });
        let base = SortConfig {
            run_records: 250,
            gather_batch: 100,
            workers: 2,
            ..Default::default()
        };
        let serial = serial_reference(&data, &base);
        for merge_workers in [1, 2, 4, 8] {
            let mut source = MemSource::new(data.clone(), 12_345);
            let mut sink = MemSink::new();
            let mut scratch = mem_scratch(40 * RECORD_LEN, RecordLayout::Datamation);
            let cfg = SortConfig {
                merge_workers,
                ..base.clone()
            };
            let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
            assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
            assert_eq!(outcome.stats.merge_range_records.iter().sum::<u64>(), 4_000);
            assert!(outcome.stats.merge_skew() >= 1.0);
            assert_eq!(sink.data(), &serial[..], "{merge_workers} ranges diverged");
            validate_records(sink.data(), cs).unwrap();
        }
    }

    #[test]
    fn partitioned_merge_after_cascade_levels() {
        let (data, cs) = generate(GenConfig::datamation(2_000, 33));
        let base = SortConfig {
            run_records: 50, // 40 runs
            gather_batch: 32,
            max_fanin: 4,
            ..Default::default()
        };
        let serial = serial_reference(&data, &base);
        let mut source = MemSource::new(data, 12_345);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(25 * RECORD_LEN, RecordLayout::Datamation);
        let cfg = SortConfig {
            merge_workers: 3,
            ..base
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.merge_passes, 2); // 40 → 10 → 3 runs
        assert_eq!(outcome.stats.merge_range_records.len(), 3);
        assert_eq!(sink.data(), &serial[..]);
        validate_records(sink.data(), cs).unwrap();
    }

    fn url_frames(records: u64, seed: u64) -> Vec<u8> {
        alphasort_dmgen::generate_varlen(alphasort_dmgen::VarGenConfig {
            records,
            seed,
            corpus: alphasort_dmgen::TextCorpus::Urls,
        })
    }

    #[test]
    fn resumed_sort_skips_recovered_spans_under_both_layouts() {
        // A previous attempt already formed the middle run (records
        // 300..600): the retry must skip that input range, re-form only the
        // flanks, and — serial or partitioned — still produce the
        // uninterrupted sort's output byte for byte.
        let (fixed, _) = generate(GenConfig::datamation(1_200, 0xAB5E));
        let strings = url_frames(1_200, 0x55);
        let frames = alphasort_dmgen::var_records_of(&strings).unwrap();
        let middle: Vec<u8> = frames[300..600]
            .iter()
            .flat_map(|r| r.frame().to_vec())
            .collect();
        let mut fixed_middle = fixed[300 * RECORD_LEN..600 * RECORD_LEN].to_vec();
        alphasort_dmgen::records_of_mut(&mut fixed_middle).sort_by_key(|r| r.key);
        for (layout, data, middle) in [
            (RecordLayout::Datamation, fixed, fixed_middle),
            (
                RecordLayout::VarLen,
                strings.clone(),
                crate::varlen::sort_var_bytes(&middle).unwrap(),
            ),
        ] {
            let base = SortConfig {
                run_records: 300,
                gather_batch: 100,
                layout,
                ..Default::default()
            };
            let mut want = MemSink::new();
            let mut scratch = mem_scratch(4_099, layout);
            two_pass(
                &mut MemSource::new(data.clone(), 4_099),
                &mut want,
                &mut scratch,
                &base,
            )
            .unwrap();
            for merge_workers in [0, 1, 3, 8] {
                let cfg = SortConfig {
                    merge_workers,
                    ..base.clone()
                };
                let mut scratch = crashed_with(4_099, layout, 300, &middle);
                let mut source = MemSource::new(data.clone(), 4_099);
                let mut sink = MemSink::new();
                let st = two_pass(&mut source, &mut sink, &mut scratch, &cfg)
                    .unwrap()
                    .stats;
                let what = format!("{} P={merge_workers}", layout.name());
                assert_eq!(
                    (st.runs, st.runs_recovered, st.runs_reformed),
                    (4, 1, 3),
                    "{what}"
                );
                assert_eq!(
                    (st.records, st.merge_range_records.len()),
                    (1_200, merge_workers),
                    "{what}"
                );
                assert_eq!(sink.data(), want.data(), "{what}");
            }
        }
    }

    #[test]
    fn varlen_bad_inputs_are_attributed_errors() {
        let cfg = SortConfig {
            run_records: 40,
            layout: RecordLayout::VarLen,
            ..Default::default()
        };
        let var_scratch = || mem_scratch(512, RecordLayout::VarLen);
        let data = url_frames(100, 0x56);
        let cut = data[..data.len() - 3].to_vec();
        let mut sink = MemSink::new();
        let mut sort = |data: &[u8], mut scratch: StripeScratch| {
            two_pass(
                &mut MemSource::new(data.to_vec(), 512),
                &mut sink,
                &mut scratch,
                &cfg,
            )
        };
        let errors = [
            // An input cut off mid-frame, through either driver.
            (sort(&cut, var_scratch()), "mid-record"),
            (
                crate::driver::one_pass(&mut MemSource::new(cut, 512), &mut MemSink::new(), &cfg),
                "mid-record",
            ),
            // A scratch built for the other layout.
            (
                sort(&data, mem_scratch(512, RecordLayout::Datamation)),
                "layout",
            ),
        ];
        for (outcome, name) in errors {
            let err = outcome.expect_err(name);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(name), "{err}");
        }
        // No input at all is not an error.
        let mut source = MemSource::new(Vec::new(), 512);
        let outcome = two_pass(&mut source, &mut sink, &mut var_scratch(), &cfg).unwrap();
        assert_eq!((outcome.stats.records, outcome.bytes), (0, 0));
    }

    #[test]
    fn run_count_matches_input_over_memory() {
        let (data, _) = generate(GenConfig::datamation(1_000, 2));
        let mut source = MemSource::new(data, 64 * 1024);
        let mut sink = MemSink::new();
        let mut scratch = mem_scratch(50 * RECORD_LEN, RecordLayout::Datamation);
        let cfg = SortConfig {
            run_records: 128,
            gather_batch: 64,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 8); // ceil(1000 / 128)
        assert_eq!(*outcome.stats.run_lengths.last().unwrap(), 1_000 % 128);
    }
}
