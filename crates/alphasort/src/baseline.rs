//! The shared-nothing baseline: partitioned parallel sort (§2).
//!
//! Before AlphaSort, the record holder was DeWitt, Naughton and Schneider's
//! sort on a 32-node Intel Hypercube: "They read the disks in parallel,
//! performing a preliminary sort of the data at each source, and partition
//! it into equal-sized parts. Each reader-sorter sends the partitions to
//! their respective target partitions. Each target partition processor
//! merges the many input streams into a sorted run that is stored on the
//! local disk." Their splitters came from sampling — *probabilistic
//! splitting*.
//!
//! This module implements that design over threads (nodes) and in-memory
//! exchange (the interconnect), so the paper's Table 1 comparison has an
//! executable baseline: one shared-memory machine running the AlphaSort
//! pipeline vs. the same machine pretending to be a shared-nothing
//! cluster.

use std::time::{Duration, Instant};

use alphasort_dmgen::{records_of, Record, RECORD_LEN};

use crate::io::MemSource;
use crate::merge::{Merger, PrefixThenKey, StreamHeads};
use crate::runform::{form_run, SortedRun};

/// Configuration for the partitioned sort.
#[derive(Clone, Debug)]
pub struct PartitionSortConfig {
    /// Number of nodes (reader-sorters and target partitions).
    pub nodes: usize,
    /// Sample size per node for probabilistic splitting.
    pub samples_per_node: usize,
}

impl Default for PartitionSortConfig {
    fn default() -> Self {
        PartitionSortConfig {
            nodes: 4,
            samples_per_node: 128,
        }
    }
}

/// Phase timings and balance statistics of one partitioned sort.
#[derive(Clone, Debug, Default)]
pub struct PartitionSortStats {
    /// Sampling + splitter selection.
    pub split_time: Duration,
    /// Scatter: each reader partitions its share and "sends" it.
    pub scatter_time: Duration,
    /// Per-node local sorts (max over nodes — the critical path).
    pub sort_time: Duration,
    /// Final concatenation/merge of node outputs.
    pub merge_time: Duration,
    /// Records each target node received (skew diagnostic: probabilistic
    /// splitting aims for "equal-sized parts").
    pub partition_sizes: Vec<u64>,
}

impl PartitionSortStats {
    /// Largest partition over the ideal share — 1.0 is perfect balance.
    pub fn skew(&self) -> f64 {
        let total: u64 = self.partition_sizes.iter().sum();
        if total == 0 || self.partition_sizes.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / self.partition_sizes.len() as f64;
        let max = *self.partition_sizes.iter().max().expect("non-empty") as f64;
        max / ideal
    }
}

/// Sort `input` (whole records) with the shared-nothing algorithm.
/// Returns the sorted bytes plus phase stats.
///
/// # Panics
/// If `input.len()` is not a multiple of the record length or the config
/// has zero nodes.
pub fn partition_sort(input: &[u8], cfg: &PartitionSortConfig) -> (Vec<u8>, PartitionSortStats) {
    assert!(cfg.nodes >= 1, "need at least one node");
    assert!(input.len().is_multiple_of(RECORD_LEN));
    let records = records_of(input);
    let n = records.len();
    let mut stats = PartitionSortStats::default();
    if n == 0 {
        stats.partition_sizes = vec![0; cfg.nodes];
        return (Vec::new(), stats);
    }

    // --- probabilistic splitting: sample, sort the sample, pick quantiles.
    let t0 = Instant::now();
    let sample_n = (cfg.samples_per_node * cfg.nodes).min(n.max(1));
    let mut sample: Vec<[u8; 10]> = (0..sample_n)
        .map(|i| {
            // Deterministic stride sampling with a golden-ratio hop: cheap
            // and adequate for random benchmark keys.
            let idx = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n.max(1) as u64;
            records[idx as usize].key
        })
        .collect();
    sample.sort_unstable();
    let splitters: Vec<[u8; 10]> = (1..cfg.nodes)
        .map(|k| sample[k * sample.len() / cfg.nodes])
        .collect();
    stats.split_time = t0.elapsed();

    // --- scatter: readers partition their share by binary search on the
    // splitters and append to per-target buffers (the "network send").
    let t0 = Instant::now();
    let reader_shares: Vec<&[Record]> = {
        let per = n.div_ceil(cfg.nodes.max(1));
        records.chunks(per.max(1)).collect()
    };
    let mut per_target: Vec<Vec<u8>> = vec![Vec::new(); cfg.nodes];
    let scattered: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let splitters = &splitters;
        let handles: Vec<_> = reader_shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); splitters.len() + 1];
                    for r in *share {
                        let t = splitters.partition_point(|s| *s <= r.key);
                        outs[t].extend_from_slice(r.as_bytes());
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });
    for outs in scattered {
        for (t, bytes) in outs.into_iter().enumerate() {
            per_target[t].extend_from_slice(&bytes);
        }
    }
    stats.partition_sizes = per_target
        .iter()
        .map(|p| (p.len() / RECORD_LEN) as u64)
        .collect();
    stats.scatter_time = t0.elapsed();

    // --- local sorts, one thread per target node.
    let t0 = Instant::now();
    let sorted_parts: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_target
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    let run = form_run(part);
                    let mut out = Vec::with_capacity(run.len() * RECORD_LEN);
                    for r in run.iter_sorted() {
                        out.extend_from_slice(r.as_bytes());
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sorter"))
            .collect()
    });
    stats.sort_time = t0.elapsed();

    // --- output: partitions are disjoint key ranges; concatenate in order.
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(input.len());
    for p in sorted_parts {
        out.extend_from_slice(&p);
    }
    stats.merge_time = t0.elapsed();
    (out, stats)
}

/// The target-side variant DeWitt's design actually runs: each reader
/// pre-sorts its share, targets *merge* the per-reader streams instead of
/// sorting from scratch. Exposed separately so the two strategies can be
/// compared.
pub fn partition_merge_sort(
    input: &[u8],
    cfg: &PartitionSortConfig,
) -> (Vec<u8>, PartitionSortStats) {
    assert!(cfg.nodes >= 1);
    assert!(input.len().is_multiple_of(RECORD_LEN));
    let records = records_of(input);
    let n = records.len();
    let mut stats = PartitionSortStats::default();
    if n == 0 {
        stats.partition_sizes = vec![0; cfg.nodes];
        return (Vec::new(), stats);
    }

    // Splitters as above.
    let t0 = Instant::now();
    let sample_n = (cfg.samples_per_node * cfg.nodes).min(n.max(1));
    let mut sample: Vec<[u8; 10]> = (0..sample_n)
        .map(|i| {
            let idx = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n.max(1) as u64;
            records[idx as usize].key
        })
        .collect();
    sample.sort_unstable();
    let splitters: Vec<[u8; 10]> = (1..cfg.nodes)
        .map(|k| sample[k * sample.len() / cfg.nodes])
        .collect();
    stats.split_time = t0.elapsed();

    // Readers pre-sort their share, then split it into target ranges: each
    // target receives one already-sorted stream per reader.
    let t0 = Instant::now();
    let per = n.div_ceil(cfg.nodes.max(1)).max(1);
    let mut reader_streams: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let splitters = &splitters;
        let handles: Vec<_> = records
            .chunks(per)
            .map(|share| {
                scope.spawn(move || {
                    let run = form_run(share.iter().flat_map(|r| r.as_bytes()).copied().collect());
                    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); splitters.len() + 1];
                    for r in run.iter_sorted() {
                        let t = splitters.partition_point(|s| *s <= r.key);
                        outs[t].extend_from_slice(r.as_bytes());
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });
    stats.scatter_time = t0.elapsed();

    // Targets merge their per-reader streams through the one tournament;
    // its leaf-index tie-break is reader order, as arrival order demands.
    let t0 = Instant::now();
    let streams_by_target: Vec<Vec<Vec<u8>>> = (0..cfg.nodes)
        .map(|t| {
            reader_streams
                .iter_mut()
                .map(|r| std::mem::take(&mut r[t]))
                .collect()
        })
        .collect();
    stats.partition_sizes = streams_by_target
        .iter()
        .map(|streams| streams.iter().map(|s| (s.len() / RECORD_LEN) as u64).sum())
        .collect();
    let sorted_parts: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams_by_target
            .into_iter()
            .map(|streams| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
                    let sources = streams.into_iter().map(|s| MemSource::new(s, 1 << 20));
                    let heads = StreamHeads::<_, SortedRun>::new(sources.collect())
                        .expect("in-memory streams of whole records");
                    let mut merger = Merger::<_, PrefixThenKey, _>::new(heads, ());
                    while merger.next_into(&mut out).expect("in-memory streams") {}
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("target"))
            .collect()
    });
    stats.sort_time = t0.elapsed();

    let t0 = Instant::now();
    let mut out = Vec::with_capacity(input.len());
    for p in sorted_parts {
        out.extend_from_slice(&p);
    }
    stats.merge_time = t0.elapsed();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, validate_records, GenConfig, KeyDistribution};

    fn dataset(n: u64, dist: KeyDistribution) -> (Vec<u8>, alphasort_dmgen::Checksum) {
        generate(GenConfig {
            records: n,
            seed: 0xC0BE,
            dist,
        })
    }

    #[test]
    fn partition_sort_produces_valid_output() {
        let (input, cs) = dataset(20_000, KeyDistribution::Random);
        let (out, stats) = partition_sort(&input, &PartitionSortConfig::default());
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 20_000);
        assert_eq!(stats.partition_sizes.len(), 4);
    }

    #[test]
    fn partition_merge_sort_produces_valid_output() {
        let (input, cs) = dataset(20_000, KeyDistribution::Random);
        let (out, _) = partition_merge_sort(&input, &PartitionSortConfig::default());
        validate_records(&out, cs).unwrap();
    }

    #[test]
    fn probabilistic_splitting_balances_random_keys() {
        let (input, _) = dataset(50_000, KeyDistribution::Random);
        let cfg = PartitionSortConfig {
            nodes: 8,
            samples_per_node: 256,
        };
        let (_, stats) = partition_sort(&input, &cfg);
        assert!(stats.skew() < 1.35, "skew {}", stats.skew());
    }

    #[test]
    fn skewed_keys_defeat_balance_but_not_correctness() {
        let (input, cs) = dataset(10_000, KeyDistribution::DupHeavy { cardinality: 2 });
        let cfg = PartitionSortConfig {
            nodes: 8,
            ..Default::default()
        };
        let (out, stats) = partition_sort(&input, &cfg);
        validate_records(&out, cs).unwrap();
        // Two distinct keys over 8 nodes: some node gets ≥ 4× its share.
        assert!(stats.skew() > 3.0, "skew {}", stats.skew());
    }

    #[test]
    fn single_node_degenerates_to_local_sort() {
        let (input, cs) = dataset(5_000, KeyDistribution::Random);
        let cfg = PartitionSortConfig {
            nodes: 1,
            ..Default::default()
        };
        let (out, stats) = partition_sort(&input, &cfg);
        validate_records(&out, cs).unwrap();
        assert_eq!(stats.partition_sizes, vec![5_000]);
    }

    #[test]
    fn all_distributions_sort_correctly() {
        for dist in [
            KeyDistribution::Sorted,
            KeyDistribution::Reverse,
            KeyDistribution::CommonPrefix { shared: 8 },
            KeyDistribution::RandomPrintable,
        ] {
            let (input, cs) = dataset(6_000, dist);
            let (out, _) = partition_sort(&input, &PartitionSortConfig::default());
            validate_records(&out, cs).unwrap();
            let (out2, _) = partition_merge_sort(&input, &PartitionSortConfig::default());
            validate_records(&out2, cs).unwrap();
        }
    }

    #[test]
    fn empty_input() {
        let (out, _) = partition_sort(&[], &PartitionSortConfig::default());
        assert!(out.is_empty());
    }
}
