//! Partition planning: cutting sorted runs into key ranges, one recipe for
//! every topology (Rahn, Sanders & Singler's distributed external sort).
//!
//! Sample keys from runs that are already sorted ([`sample_runs`]), pick
//! `P - 1` quantile splitters from the pool ([`quantiles`]), and
//! binary-search every run for the splitter boundaries ([`cut_runs`]).
//! Range `j` holds exactly the records with `j` splitters at or below their
//! key, so equal keys never straddle ranges and each range's merge keeps
//! the run-index tie-break: the range outputs in order are *byte-identical*
//! to the serial merge (`tests/oracle.rs` holds the drivers to that). The
//! partitioned merge runs all three ([`plan_partitions_with`]); a netsort
//! node samples and cuts its own runs, and its coordinator picks the
//! quantiles. Probes go through `key_at(run, pos)`, so the same code cuts
//! in-memory runs of either layout and scratch runs on striped disks.

use std::convert::Infallible;

use crate::layout::LayoutRun;

/// Keys sampled per requested range when planning (the pool is
/// `ranges * SAMPLES_PER_RANGE`, spread over runs by record count).
pub const SAMPLES_PER_RANGE: usize = 32;

/// A partitioned-merge plan: P disjoint key ranges, each cutting every run.
#[derive(Clone, Debug)]
pub struct MergePartition {
    /// The `ranges - 1` quantile splitter keys, ascending byte strings
    /// (fixed-width keys are simply all the same length).
    pub splitters: Vec<Vec<u8>>,
    /// `bounds[j][r]` = record positions `[start, end)` of range `j`
    /// within sorted run `r`.
    pub bounds: Vec<Vec<(u64, u64)>>,
    /// Records each range holds (feeds the merge-skew stat).
    pub range_records: Vec<u64>,
}

impl MergePartition {
    /// Number of ranges planned.
    pub fn ranges(&self) -> usize {
        self.bounds.len()
    }
}

/// The quantile picker: `parts - 1` splitters from a pooled key sample, so
/// every part should hold about the same record count. An empty pool (no
/// data anywhere) yields default keys, which partition nothing correctly.
pub fn quantiles<K: Ord + Clone + Default>(mut pool: Vec<K>, parts: usize) -> Vec<K> {
    assert!(parts >= 1, "need at least one part");
    pool.sort_unstable();
    if pool.is_empty() {
        return vec![K::default(); parts - 1];
    }
    (1..parts)
        .map(|k| pool[k * pool.len() / parts].clone())
        .collect()
}

/// The sampler: `count` keys (at most one per record), the key at every
/// `total / count`-th position of the sorted runs laid end to end, so runs
/// give keys in proportion to their lengths. It stops before the keys'
/// bytes pass `max_bytes` (a wire payload's room): a short sample costs
/// balance, never correctness.
pub fn sample_runs<E>(
    run_lens: &[u64],
    count: usize,
    max_bytes: usize,
    mut key_at: impl FnMut(usize, u64) -> Result<Vec<u8>, E>,
) -> Result<Vec<Vec<u8>>, E> {
    let total: u64 = run_lens.iter().sum();
    let count = (count as u64).min(total);
    let mut keys = Vec::with_capacity(count as usize);
    let (mut run, mut start, mut bytes) = (0, 0u64, 0usize);
    for k in 0..count {
        let at = (k as u128 * total as u128 / count as u128) as u64;
        while at >= start + run_lens[run] {
            start += run_lens[run];
            run += 1;
        }
        let key = key_at(run, at - start)?;
        bytes = bytes.saturating_add(key.len());
        if bytes > max_bytes {
            break;
        }
        keys.push(key);
    }
    Ok(keys)
}

/// First position in sorted run `run` (length `len`) whose key is not
/// below `key` — the range boundary, probed via `key_at`.
fn lower_bound<E>(
    run: usize,
    len: u64,
    key: &[u8],
    key_at: &mut impl FnMut(usize, u64) -> Result<Vec<u8>, E>,
) -> Result<u64, E> {
    let (mut lo, mut hi) = (0u64, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(run, mid)?.as_slice() < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The cutter: cut sorted runs at ascending `splitters` into
/// `splitters.len() + 1` ranges. Duplicate splitters (dup-heavy keys)
/// make empty ranges; the cover/disjointness invariants hold regardless.
pub fn cut_runs<E>(
    run_lens: &[u64],
    splitters: Vec<Vec<u8>>,
    mut key_at: impl FnMut(usize, u64) -> Result<Vec<u8>, E>,
) -> Result<MergePartition, E> {
    // The boundary between ranges j-1 and j: records below splitters[j-1].
    let ranges = splitters.len() + 1;
    let mut cuts: Vec<Vec<u64>> = Vec::with_capacity(ranges + 1);
    cuts.push(vec![0; run_lens.len()]);
    for s in &splitters {
        let mut row = Vec::with_capacity(run_lens.len());
        for (r, &len) in run_lens.iter().enumerate() {
            row.push(lower_bound(r, len, s, &mut key_at)?);
        }
        cuts.push(row);
    }
    cuts.push(run_lens.to_vec());

    let mut bounds = Vec::with_capacity(ranges);
    let mut range_records = Vec::with_capacity(ranges);
    for j in 0..ranges {
        let row: Vec<(u64, u64)> = cuts[j]
            .iter()
            .zip(&cuts[j + 1])
            .map(|(&s, &e)| (s, e))
            .collect();
        range_records.push(row.iter().map(|&(s, e)| e - s).sum());
        bounds.push(row);
    }
    Ok(MergePartition {
        splitters,
        bounds,
        range_records,
    })
}

/// Plan `ranges` disjoint key ranges over sorted runs: sample
/// `samples_per_range` keys per range, pick the quantiles, cut every run.
pub fn plan_partitions_with<E>(
    run_lens: &[u64],
    ranges: usize,
    samples_per_range: usize,
    mut key_at: impl FnMut(usize, u64) -> Result<Vec<u8>, E>,
) -> Result<MergePartition, E> {
    assert!(ranges >= 1, "need at least one range");
    let count = if ranges > 1 {
        ranges * samples_per_range.max(1)
    } else {
        0
    };
    let pool = sample_runs(run_lens, count, usize::MAX, &mut key_at)?;
    cut_runs(run_lens, quantiles(pool, ranges), key_at)
}

/// Plan over in-memory sorted runs (the one-pass driver's case): probes
/// are free and cannot fail.
pub fn plan_mem_partitions<R: LayoutRun>(
    runs: &[R],
    ranges: usize,
    samples_per_range: usize,
) -> MergePartition {
    let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
    let key_at = |r: usize, pos: u64| Ok::<_, Infallible>(runs[r].key_at(pos as usize).to_vec());
    let Ok(plan) = plan_partitions_with(&lens, ranges, samples_per_range, key_at);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runform::{form_run, SortedRun};
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

    fn runs_of(n: u64, per_run: usize, dist: KeyDistribution, seed: u64) -> Vec<SortedRun> {
        let (data, _) = generate(GenConfig {
            records: n,
            seed,
            dist,
        });
        data.chunks(per_run * RECORD_LEN)
            .map(|c| form_run(c.to_vec()))
            .collect()
    }

    /// Disjointness + exact cover: within every run the range bounds abut
    /// and concatenate to the whole run.
    fn assert_covering(plan: &MergePartition, lens: &[u64]) {
        for (r, &len) in lens.iter().enumerate() {
            let mut pos = 0;
            for row in &plan.bounds {
                let (s, e) = row[r];
                assert_eq!(s, pos, "gap/overlap in run {r}");
                assert!(s <= e);
                pos = e;
            }
            assert_eq!(pos, len, "run {r} not fully covered");
        }
        let total: u64 = lens.iter().sum();
        assert_eq!(plan.range_records.iter().sum::<u64>(), total);
    }

    #[test]
    fn plan_covers_random_runs() {
        let runs = runs_of(4_000, 333, KeyDistribution::Random, 7);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        for ranges in [1, 2, 4, 8] {
            let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
            assert_eq!(plan.ranges(), ranges);
            assert_eq!(plan.splitters.len(), ranges - 1);
            assert_covering(&plan, &lens);
        }
    }

    #[test]
    fn quantile_splitters_bound_the_skew() {
        let runs = runs_of(20_000, 1_000, KeyDistribution::Random, 11);
        let plan = plan_mem_partitions(&runs, 8, 64);
        let ideal = 20_000.0 / 8.0;
        for &n in &plan.range_records {
            assert!((n as f64) < ideal * 1.6, "range holds {n}");
        }
    }

    #[test]
    fn all_equal_keys_collapse_to_one_nonempty_range() {
        let runs = runs_of(900, 300, KeyDistribution::DupHeavy { cardinality: 1 }, 3);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        let plan = plan_mem_partitions(&runs, 4, 16);
        assert_covering(&plan, &lens);
        // Duplicate splitters make every range but the last empty: equal
        // keys route right of every equal splitter.
        assert_eq!(plan.range_records[..3], [0, 0, 0]);
        assert_eq!(plan.range_records[3], 900);
    }

    #[test]
    fn empty_and_single_record_runs_are_cut_correctly() {
        let mut runs = runs_of(500, 100, KeyDistribution::Random, 21);
        runs.push(form_run(Vec::new()));
        let one = runs_of(1, 1, KeyDistribution::Random, 22).remove(0);
        runs.push(one);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        let plan = plan_mem_partitions(&runs, 4, 16);
        assert_covering(&plan, &lens);
    }

    #[test]
    fn zero_runs_plan_is_empty_but_well_formed() {
        let plan = plan_mem_partitions::<SortedRun>(&[], 4, 16);
        assert_eq!(plan.ranges(), 4);
        assert!(plan.bounds.iter().all(Vec::is_empty));
        assert_eq!(plan.range_records, vec![0, 0, 0, 0]);
    }

    #[test]
    fn var_plan_covers_text_runs() {
        use crate::varlen::VarRun;
        use alphasort_dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};
        let buf = generate_varlen(VarGenConfig {
            records: 2_000,
            seed: 13,
            corpus: TextCorpus::Urls,
        });
        let runs: Vec<VarRun> = var_records_of(&buf)
            .unwrap()
            .chunks(311)
            .map(|frames| {
                VarRun::from_frames(frames.iter().flat_map(|r| r.frame()).copied().collect())
                    .unwrap()
            })
            .collect();
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        for ranges in [1, 2, 4, 8] {
            let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
            assert_eq!(plan.ranges(), ranges);
            assert_eq!(plan.splitters.len(), ranges - 1);
            // Same cover/disjointness invariant as the fixed-layout plan.
            assert_covering(&plan, &lens);
        }
    }

    /// One recipe, two key types: `[u8; 10]` and the same keys as `Vec<u8>`
    /// pick the same quantiles, `parts == 1` included. An empty pool yields
    /// each type's default key (all-zero vs empty), the right count either
    /// way.
    #[test]
    fn fixed_and_byte_string_keys_pick_the_same_quantiles() {
        let runs = runs_of(3_000, 3_000, KeyDistribution::Random, 17);
        let lens = [runs[0].len() as u64];
        for (sampled, parts) in [(400, 6), (300, 5), (400, 1), (0, 4), (0, 1)] {
            let bytes = sample_runs(&lens, sampled, usize::MAX, |r, pos| {
                Ok::<_, ()>(runs[r].key_at(pos as usize).to_vec())
            })
            .unwrap();
            let fixed: Vec<[u8; 10]> = bytes.iter().map(|k| k[..].try_into().unwrap()).collect();
            let fs = quantiles(fixed, parts);
            let bs = quantiles(bytes, parts);
            assert_eq!((fs.len(), bs.len()), (parts - 1, parts - 1));
            if sampled == 0 {
                assert!(fs.iter().all(|f| *f == [0u8; 10]));
                assert!(bs.iter().all(Vec::is_empty));
                continue;
            }
            assert!(bs.windows(2).all(|w| w[0] <= w[1]));
            for (f, b) in fs.iter().zip(&bs) {
                assert_eq!(&f[..], &b[..]);
            }
        }
    }

    /// The sorted-run sample has the requested count (all records when
    /// there are fewer), spread over the runs by length, in ascending order
    /// within each run; a byte cap ends it before the keys pass the cap.
    #[test]
    fn run_sample_has_the_requested_count_under_the_byte_cap() {
        let runs = runs_of(1_000, 300, KeyDistribution::Random, 5);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        assert_eq!(lens, [300, 300, 300, 100]);
        let sample = |count, cap| {
            let mut probes = Vec::new();
            let keys = sample_runs(&lens, count, cap, |r, pos| {
                probes.push((r, pos));
                Ok::<_, ()>(runs[r].key_at(pos as usize).to_vec())
            });
            (keys.unwrap(), probes)
        };
        for count in [0, 1, 7, 64, 999, 1_000] {
            assert_eq!(sample(count, usize::MAX).0.len(), count);
        }
        assert_eq!(sample(5_000, usize::MAX).0.len(), 1_000);
        // 100 keys: every 10th record, 30 from each full run, 10 from the
        // short one.
        let (_, probes) = sample(100, usize::MAX);
        for (r, len) in lens.iter().enumerate() {
            let per_run = probes.iter().filter(|p| p.0 == r).count() as u64;
            assert_eq!(per_run, len / 10, "run {r}");
        }
        assert!(probes.windows(2).all(|w| w[0] < w[1]));
        // Ten-byte keys under a 255-byte cap: 25 of them, not 26.
        assert_eq!(sample(100, 255).0.len(), 25);
        assert_eq!(sample(100, 250).0.len(), 25);
        assert!(sample(100, 9).0.is_empty());
        let empty = sample_runs(&[], 16, usize::MAX, |_, _| Err::<Vec<u8>, _>("no probe"));
        assert_eq!(empty, Ok(Vec::new()));
    }

    /// The cut is the routing rule: a record goes to the range after every
    /// splitter at or below its key, so a key equal to a splitter goes
    /// right; prefixes and the empty key order bytewise; no splitters is
    /// one range.
    #[test]
    fn cuts_send_keys_equal_to_a_splitter_right() {
        let run: [&[u8]; 6] = [b"", b"ap", b"app", b"appl", b"apple", b"zebra"];
        let key_at = |_: usize, pos: u64| Ok::<_, ()>(run[pos as usize].to_vec());
        let splitters = vec![b"app".to_vec(), b"apple".to_vec()];
        let plan = cut_runs(&[6], splitters, key_at).unwrap();
        assert_eq!(plan.bounds, [[(0, 2)], [(2, 4)], [(4, 6)]]);
        assert_eq!(plan.range_records, [2, 2, 2]);
        let plan = cut_runs(&[6], Vec::new(), key_at).unwrap();
        assert_eq!(plan.bounds, [[(0, 6)]]);

        let fixed = [[0u8; 10], [5; 10], [7; 10], [9; 10], [255; 10]];
        let key_at = |_: usize, pos: u64| Ok::<_, ()>(fixed[pos as usize].to_vec());
        let plan = cut_runs(&[5], vec![vec![5; 10], vec![9; 10]], key_at).unwrap();
        assert_eq!(plan.bounds, [[(0, 1)], [(1, 3)], [(3, 5)]]);
    }

    #[test]
    fn empty_pool_still_produces_splitters() {
        assert_eq!(quantiles(Vec::<Vec<u8>>::new(), 4), vec![Vec::new(); 3]);
    }

    #[test]
    fn probe_errors_propagate() {
        let err = plan_partitions_with(&[10, 10], 4, 8, |_, _| Err::<Vec<u8>, _>("probe failed"));
        assert_eq!(err.unwrap_err(), "probe failed");
    }
}
