//! Partition-edge cases for the partitioned merge: the splitter machinery
//! cutting sorted runs into disjoint key ranges must survive adversarial
//! inputs — all-equal keys, splitters landing exactly on run boundary keys,
//! empty and single-record runs, and a single run.

use alphasort_core::merge::{Merger, PrefixThenKey, RunCursors};
use alphasort_core::pmerge::{plan_mem_partitions, SAMPLES_PER_RANGE};
use alphasort_core::runform::{form_run, SortedRun};
use alphasort_dmgen::{generate, GenConfig, KeyDistribution, SplitMix64, KEY_LEN, RECORD_LEN};

/// Slice `data` into sorted runs of `run_len` records.
fn record_runs(records: u64, seed: u64, dist: KeyDistribution, run_len: usize) -> Vec<SortedRun> {
    let (data, _) = generate(GenConfig {
        records,
        seed,
        dist,
    });
    data.chunks(run_len * RECORD_LEN)
        .map(|c| form_run(c.to_vec()))
        .collect()
}

/// The pointer stream of merging `bounds` of every run (`None` = whole).
fn ptrs(runs: &[SortedRun], bounds: Option<&[(u32, u32)]>) -> Vec<(u32, u32)> {
    Merger::<_, PrefixThenKey, _>::new(RunCursors::new(runs, bounds), ())
        .map(|p| (p.run, p.pos))
        .collect()
}

/// The serial merge's pointer stream — the reference.
fn merged_ptrs(runs: &[SortedRun]) -> Vec<(u32, u32)> {
    ptrs(runs, None)
}

/// Concatenated pointer streams of the given per-range bounds rows.
fn bounded_concat(runs: &[SortedRun], rows: &[Vec<(u32, u32)>]) -> Vec<(u32, u32)> {
    rows.iter().flat_map(|row| ptrs(runs, Some(row))).collect()
}

/// Bounds rows of a [`plan_mem_partitions`] plan, as `RunCursors` wants them.
fn plan_rows(runs: &[SortedRun], ranges: usize) -> Vec<Vec<(u32, u32)>> {
    plan_mem_partitions(runs, ranges, SAMPLES_PER_RANGE)
        .bounds
        .iter()
        .map(|row| row.iter().map(|&(s, e)| (s as u32, e as u32)).collect())
        .collect()
}

/// All keys identical: every splitter equals the one key, every range but
/// the last is empty (equal keys route right), and the concatenation still
/// reproduces the serial merge exactly.
#[test]
fn partitioned_merge_with_all_equal_keys() {
    let runs = record_runs(900, 0xE0, KeyDistribution::DupHeavy { cardinality: 1 }, 250);
    for ranges in [1, 2, 4, 8] {
        let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
        assert_eq!(*plan.range_records.last().expect("ranges >= 1"), 900);
        assert_eq!(plan.range_records.iter().sum::<u64>(), 900);
        let rows = plan_rows(&runs, ranges);
        assert_eq!(
            bounded_concat(&runs, &rows),
            merged_ptrs(&runs),
            "{ranges} ranges"
        );
    }
}

/// First position in `run` whose key is >= `key` (the partition cut).
fn cut_at(run: &SortedRun, key: &[u8; KEY_LEN]) -> u32 {
    let (mut lo, mut hi) = (0u32, run.len() as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run.record_at(mid as usize).key < *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Splitters pinned to exact run boundary keys (first/last record of a
/// run): the cut routes the boundary key and all its duplicates right, and
/// the two ranges concatenate to the full merge.
#[test]
fn splitter_equal_to_run_boundary_key() {
    let mut r = SplitMix64::new(0xE1);
    for case in 0..16 {
        let runs = record_runs(
            400,
            r.next_u64(),
            KeyDistribution::DupHeavy { cardinality: 3 },
            100,
        );
        for donor in &runs {
            for pos in [0, donor.len() - 1] {
                let splitter = donor.record_at(pos).key;
                let cuts: Vec<u32> = runs.iter().map(|run| cut_at(run, &splitter)).collect();
                let rows: Vec<Vec<(u32, u32)>> = vec![
                    runs.iter().zip(&cuts).map(|(_, &c)| (0, c)).collect(),
                    runs.iter()
                        .zip(&cuts)
                        .map(|(run, &c)| (c, run.len() as u32))
                        .collect(),
                ];
                assert_eq!(
                    bounded_concat(&runs, &rows),
                    merged_ptrs(&runs),
                    "case {case}, splitter at pos {pos}"
                );
            }
        }
    }
}

/// Arbitrary mixes of empty, single-record and tiny runs — including a
/// single run total — partitioned at several widths: always identical to
/// the serial merge.
#[test]
fn partitioned_merge_with_tiny_and_empty_runs() {
    let mut r = SplitMix64::new(0xE2);
    for case in 0..32 {
        let k = 1 + r.next_below(6) as usize;
        let lens: Vec<usize> = (0..k)
            .map(|_| [0, 1, 1, 2, 7][r.next_below(5) as usize])
            .collect();
        let total: usize = lens.iter().sum();
        let (data, _) = generate(GenConfig {
            records: total as u64,
            seed: 0xE2_00 + case,
            dist: KeyDistribution::DupHeavy { cardinality: 2 },
        });
        let mut off = 0;
        let runs: Vec<SortedRun> = lens
            .iter()
            .map(|&l| {
                let run = form_run(data[off..off + l * RECORD_LEN].to_vec());
                off += l * RECORD_LEN;
                run
            })
            .collect();
        for ranges in [1, 2, 5] {
            let rows = plan_rows(&runs, ranges);
            assert_eq!(
                bounded_concat(&runs, &rows),
                merged_ptrs(&runs),
                "case {case}, {ranges} ranges"
            );
        }
    }
}
