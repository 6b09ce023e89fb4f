//! The one-pass sort: AlphaSort's benchmark configuration.
//!
//! §7's walk-through is the template: read the input through the striped
//! source, cutting it into runs of `run_records`; sort each run's entries
//! (§4's QuickSort, here `runform::msd_sort`) *while the next run is still
//! arriving* (sort chores overlap input); then run the tournament merge,
//! handing gather chores to workers buffer-by-buffer while completed
//! buffers stream to the striped sink.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use alphasort_obs as obs;

use crate::driver::{
    check_sizes, finish, form_runs, merge_range, merge_ranges, Range, Ship, SortConfig, SortOutcome,
};
use crate::entry::RecordLayout;
use crate::gather::take_ptrs;
use crate::io::{RecordSink, RecordSource};
use crate::layout::LayoutRun;
use crate::merge::{Merger, RunCursors};
use crate::parallel::GatherPool;
use crate::planner::PassPlan;
use crate::pmerge::{plan_mem_partitions, SAMPLES_PER_RANGE};
use crate::runform::SortedRun;
use crate::stats::{timed_phase, SortStats};
use crate::varlen::VarRun;

/// How many gather batches may be in flight before the root drains one —
/// the output-side analogue of triple buffering.
const GATHER_PIPELINE: u64 = 3;

/// Sort `source` into `sink` entirely in memory (one pass over the data).
pub fn one_pass<Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    Src: RecordSource,
    Snk: RecordSink,
{
    match cfg.layout {
        RecordLayout::Datamation => one_pass_of::<SortedRun, _, _>(source, sink, cfg),
        RecordLayout::VarLen => one_pass_of::<VarRun, _, _>(source, sink, cfg),
    }
}

/// The one-pass pipeline over runs of type `R`.
fn one_pass_of<R, Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    R: LayoutRun,
    Src: RecordSource,
    Snk: RecordSink,
{
    check_sizes(cfg)?;
    let top = obs::span(obs::phase::ONE_PASS);
    let t_start = Instant::now();
    let mut stats = SortStats {
        one_pass: true,
        ..Default::default()
    };

    // ---- input + run formation, overlapped --------------------------------
    let mut runs = Vec::new();
    form_runs::<R>(source, cfg, Vec::new(), &mut stats, |run, _| {
        runs.push(run);
        Ok(None)
    })?;
    if stats.records == 0 {
        return finish(top, stats, sink, PassPlan::OnePass, t_start);
    }

    // ---- merge + gather + output, overlapped ------------------------------
    let runs = Arc::new(runs);
    if cfg.merge_workers > 0 {
        // Partitioned parallel merge: sampled splitters cut every run into
        // P disjoint key ranges; each range's merge is fused with its
        // gather on its own thread and the buffers stream out in range
        // order — byte-identical to the serial tournament below.
        let mut plan = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
            plan_mem_partitions(&runs, cfg.merge_workers, SAMPLES_PER_RANGE)
        });
        let mut ranges: Vec<Range<'_>> = Vec::new();
        let rows = std::mem::take(&mut plan.bounds);
        for (bounds, &records) in rows.into_iter().zip(&plan.range_records) {
            let (runs, batch) = (&runs[..], cfg.gather_batch);
            // The range's merge and gather spans land on its worker's
            // track; its wall time is booked as the range's, not per phase.
            let merge = move |ship: &mut Ship<'_>| {
                merge_range(runs, &bounds, batch, &mut SortStats::default(), ship)
            };
            // In-memory ranges have nothing to wait for: each worker may
            // stage its whole range while earlier ones drain.
            ranges.push((Box::new(merge), records as usize / batch + 1));
        }
        merge_ranges(ranges, plan, sink, &mut stats)?;
    } else {
        let heads = RunCursors::new(&runs, None);
        let mut merger = Merger::<_, R::Policy, _>::new(heads, ());
        let mut gather = GatherPool::new(cfg.workers, Arc::clone(&runs));
        // Inline gathers finish at submit: a parked buffer would only wait.
        let pipeline = GATHER_PIPELINE.min(cfg.workers as u64);
        loop {
            let ptrs = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
                take_ptrs(&mut merger, cfg.gather_batch)
            });
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            while gather.in_flight() > pipeline {
                let buf = gather.next_buffer().expect("in-flight batch vanished");
                timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
            }
        }
        while let Some(buf) = gather.next_buffer() {
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
        }
        stats.gather_time += gather.gather_time();
    }
    finish(top, stats, sink, PassPlan::OnePass, t_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{MemSink, MemSource};
    use alphasort_dmgen::{generate, validate_records, GenConfig, KeyDistribution, RECORD_LEN};

    fn sort_mem(n: u64, dist: KeyDistribution, cfg: &SortConfig) {
        let (data, cs) = generate(GenConfig {
            records: n,
            seed: 0xBEEF,
            dist,
        });
        let mut source = MemSource::new(data, 64 * 1024); // ragged chunks on purpose
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, cfg).unwrap();
        assert_eq!(outcome.bytes, n * RECORD_LEN as u64);
        assert_eq!(outcome.stats.records, n);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n);
    }

    #[test]
    fn sorts_uniprocessor_key_prefix() {
        let cfg = SortConfig {
            run_records: 1_000,
            gather_batch: 500,
            workers: 0,
            ..Default::default()
        };
        sort_mem(10_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_with_workers() {
        let cfg = SortConfig {
            run_records: 777,
            gather_batch: 333,
            workers: 3,
            ..Default::default()
        };
        sort_mem(10_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_adversarial_distributions() {
        let cfg = SortConfig {
            run_records: 400,
            gather_batch: 100,
            workers: 2,
            ..Default::default()
        };
        for dist in [
            KeyDistribution::Sorted,
            KeyDistribution::Reverse,
            KeyDistribution::DupHeavy { cardinality: 3 },
            KeyDistribution::CommonPrefix { shared: 9 },
            KeyDistribution::NearlySorted { permille: 100 },
        ] {
            sort_mem(4_000, dist, &cfg);
        }
    }

    #[test]
    fn partitioned_merge_is_byte_identical_to_serial() {
        let (data, cs) = generate(GenConfig {
            records: 6_000,
            seed: 0xCAFE,
            dist: KeyDistribution::DupHeavy { cardinality: 7 },
        });
        let serial = {
            let mut source = MemSource::new(data.clone(), 10_000);
            let mut sink = MemSink::new();
            let cfg = SortConfig {
                run_records: 500,
                gather_batch: 200,
                ..Default::default()
            };
            one_pass(&mut source, &mut sink, &cfg).unwrap();
            sink.into_inner()
        };
        for merge_workers in [1, 2, 4, 8] {
            let mut source = MemSource::new(data.clone(), 10_000);
            let mut sink = MemSink::new();
            let cfg = SortConfig {
                run_records: 500,
                gather_batch: 200,
                workers: 2,
                merge_workers,
                ..Default::default()
            };
            let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
            assert_eq!(
                outcome.stats.merge_range_records.len(),
                merge_workers,
                "one record count per range"
            );
            assert!(outcome.stats.merge_skew() >= 1.0);
            assert_eq!(sink.data(), &serial[..], "{merge_workers} ranges diverged");
            validate_records(sink.data(), cs).unwrap();
        }
    }

    #[test]
    fn single_run_input() {
        let cfg = SortConfig {
            run_records: 100_000,
            gather_batch: 1_000,
            ..Default::default()
        };
        sort_mem(2_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn empty_input() {
        let mut source = MemSource::new(Vec::new(), 1024);
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.stats.records, 0);
    }

    #[test]
    fn run_boundaries_land_where_configured() {
        let (data, _) = generate(GenConfig::datamation(1_050, 3));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let cfg = SortConfig {
            run_records: 100,
            gather_batch: 100,
            ..Default::default()
        };
        let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 11);
        assert_eq!(outcome.stats.run_lengths[10], 50);
    }

    #[test]
    fn ragged_input_is_an_error() {
        let (mut data, _) = generate(GenConfig::datamation(10, 3));
        data.pop();
        let mut source = MemSource::new(data, 128);
        let mut sink = MemSink::new();
        let err = one_pass(&mut source, &mut sink, &SortConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
