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
//!
//! Both variants are generic over the record layout
//! ([`crate::layout::LayoutRun`]) and take the whole splitting recipe from
//! [`crate::splitter`]; they differ only in who sorts.

use std::io;

use crate::io::MemSource;
use crate::layout::LayoutRun;
use crate::merge::{Merger, StreamHeads};
use crate::splitter::{quantiles, route, sample_indices, scatter, skew};

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

/// Balance statistics of one partitioned sort.
#[derive(Clone, Debug, Default)]
pub struct PartitionSortStats {
    /// Records each target node received (skew diagnostic: probabilistic
    /// splitting aims for "equal-sized parts").
    pub partition_sizes: Vec<u64>,
}

impl PartitionSortStats {
    /// Largest partition over the ideal share — 1.0 is perfect balance.
    pub fn skew(&self) -> f64 {
        skew(&self.partition_sizes)
    }
}

/// One input record: its key and its whole frame.
type Rec<'a> = (&'a [u8], &'a [u8]);

/// The shared-nothing skeleton. Frame `input`, sample it, pick splitters;
/// every node then `read`s its contiguous share into one stream per
/// target, and every `target` turns the streams it received (one per
/// reader, in reader order) and their record count into its sorted
/// output. Targets own ascending disjoint key ranges, so their outputs
/// concatenate into the sorted whole.
fn shared_nothing<R: LayoutRun>(
    input: &[u8],
    cfg: &PartitionSortConfig,
    read: impl Fn(&[Rec<'_>], &[Vec<u8>]) -> Vec<Vec<u8>> + Sync,
    target: impl Fn(Vec<Vec<u8>>, usize) -> io::Result<Vec<u8>> + Sync,
) -> io::Result<(Vec<u8>, PartitionSortStats)> {
    let mut records: Vec<Rec<'_>> = Vec::new();
    let mut at = 0;
    while at < input.len() {
        let rest = &input[at..];
        let Some(frame) = R::LAYOUT.frame_at(rest, at as u64)? else {
            let what = format!("input ends mid-record ({} trailing bytes)", rest.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        };
        records.push((frame.key(rest), &rest[..frame.len]));
        at += frame.len;
    }
    let n = records.len();

    // Probabilistic splitting: sample, sort the sample, pick quantiles.
    let pool = sample_indices(n, cfg.samples_per_node * cfg.nodes)
        .map(|i| records[i].0.to_vec())
        .collect();
    let splitters = quantiles(pool, cfg.nodes);
    // A record's part is a function of its key, whichever node sends it.
    let mut sizes = vec![0; cfg.nodes];
    for (key, _) in &records {
        sizes[route(key, &splitters)] += 1;
    }

    // Readers scatter their share (the "network send"); shares are
    // contiguous in node order, empty past the end of a short input.
    let per = n.div_ceil(cfg.nodes);
    let (read, target, splitters) = (&read, &target, &splitters[..]);
    let mut sent: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..cfg.nodes)
            .map(|r| &records[(r * per).min(n)..((r + 1) * per).min(n)])
            .map(|share| scope.spawn(move || read(share, splitters)))
            .collect();
        readers
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });

    // Target `t` receives part `t` of every reader. Reader order is input
    // order, so keeping it keeps equal keys in input order.
    let parts: Vec<io::Result<Vec<u8>>> = std::thread::scope(|scope| {
        let targets: Vec<_> = (0..cfg.nodes)
            .map(|t| {
                let streams = sent.iter_mut().map(|s| std::mem::take(&mut s[t])).collect();
                let records = sizes[t];
                scope.spawn(move || target(streams, records))
            })
            .collect();
        targets
            .into_iter()
            .map(|h| h.join().expect("target"))
            .collect()
    });
    let mut out = Vec::with_capacity(input.len());
    for part in parts {
        out.extend_from_slice(&part?);
    }
    let partition_sizes = sizes.into_iter().map(|n| n as u64).collect();
    Ok((out, PartitionSortStats { partition_sizes }))
}

/// Sort `input` (whole records of layout `R`) with the shared-nothing
/// algorithm: readers scatter unsorted records, each target sorts what it
/// received. Returns the sorted bytes plus balance stats; input that ends
/// mid-record or carries a malformed header is `InvalidData`.
///
/// # Panics
/// If the config has zero nodes.
pub fn partition_sort<R: LayoutRun>(
    input: &[u8],
    cfg: &PartitionSortConfig,
) -> io::Result<(Vec<u8>, PartitionSortStats)> {
    shared_nothing::<R>(
        input,
        cfg,
        |share, splitters| scatter(share.iter().copied(), splitters),
        |streams, records| {
            let run = R::form(streams.concat(), records);
            let sorted: Vec<&[u8]> = (0..run.len()).map(|p| run.frame_at(p)).collect();
            Ok(sorted.concat())
        },
    )
}

/// The target-side variant DeWitt's design actually runs: each reader
/// pre-sorts its share, targets *merge* the per-reader streams through the
/// one tournament instead of sorting from scratch — its leaf-index
/// tie-break is reader order, as arrival order demands. Same contract as
/// [`partition_sort`]; exposed separately so the two strategies can be
/// compared.
pub fn partition_merge_sort<R: LayoutRun>(
    input: &[u8],
    cfg: &PartitionSortConfig,
) -> io::Result<(Vec<u8>, PartitionSortStats)> {
    shared_nothing::<R>(
        input,
        cfg,
        |share, splitters| {
            let frames: Vec<&[u8]> = share.iter().map(|r| r.1).collect();
            let run = R::form(frames.concat(), frames.len());
            let sorted = (0..run.len()).map(|p| (run.key_at(p), run.frame_at(p)));
            scatter(sorted, splitters)
        },
        |streams, _| {
            let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
            let sources = streams.into_iter().map(|s| MemSource::new(s, 1 << 20));
            let heads = StreamHeads::<_, R>::new(sources.collect())?;
            let mut merger = Merger::<_, R::Policy, _>::new(heads, ());
            while merger.next_into(&mut out)? {}
            Ok(out)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runform::SortedRun;
    use crate::varlen::VarRun;
    use alphasort_dmgen::{
        generate, generate_varlen, validate_records, GenConfig, KeyDistribution, TextCorpus,
        VarGenConfig,
    };

    fn dataset(n: u64, dist: KeyDistribution) -> (Vec<u8>, alphasort_dmgen::Checksum) {
        generate(GenConfig {
            records: n,
            seed: 0xC0BE,
            dist,
        })
    }

    fn sort(input: &[u8], cfg: &PartitionSortConfig) -> (Vec<u8>, PartitionSortStats) {
        partition_sort::<SortedRun>(input, cfg).unwrap()
    }

    #[test]
    fn partition_sort_produces_valid_output() {
        let (input, cs) = dataset(20_000, KeyDistribution::Random);
        let (out, stats) = sort(&input, &PartitionSortConfig::default());
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 20_000);
        assert_eq!(stats.partition_sizes.len(), 4);
        assert_eq!(stats.partition_sizes.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn partition_merge_sort_produces_valid_output() {
        let (input, cs) = dataset(20_000, KeyDistribution::Random);
        let cfg = PartitionSortConfig::default();
        let (out, stats) = partition_merge_sort::<SortedRun>(&input, &cfg).unwrap();
        validate_records(&out, cs).unwrap();
        // Routing is pure in the key: both variants fill targets alike.
        assert_eq!(stats.partition_sizes, sort(&input, &cfg).1.partition_sizes);
    }

    #[test]
    fn probabilistic_splitting_balances_random_keys() {
        let (input, _) = dataset(50_000, KeyDistribution::Random);
        let cfg = PartitionSortConfig {
            nodes: 8,
            samples_per_node: 256,
        };
        let (_, stats) = sort(&input, &cfg);
        assert!(stats.skew() < 1.35, "skew {}", stats.skew());
    }

    #[test]
    fn skewed_keys_defeat_balance_but_not_correctness() {
        let (input, cs) = dataset(10_000, KeyDistribution::DupHeavy { cardinality: 2 });
        let cfg = PartitionSortConfig {
            nodes: 8,
            ..Default::default()
        };
        let (out, stats) = sort(&input, &cfg);
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
        let (out, stats) = sort(&input, &cfg);
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
            let cfg = PartitionSortConfig::default();
            validate_records(&sort(&input, &cfg).0, cs).unwrap();
            let (out2, _) = partition_merge_sort::<SortedRun>(&input, &cfg).unwrap();
            validate_records(&out2, cs).unwrap();
        }
    }

    /// Empty input, and more nodes than records: trailing readers hold
    /// empty shares, every target still answers.
    #[test]
    fn empty_and_tiny_inputs() {
        let (three, _) = dataset(3, KeyDistribution::Random);
        let cfg = PartitionSortConfig::default();
        for (input, records) in [(&[][..], 0), (&three[..], 3)] {
            let (out, stats) = sort(input, &cfg);
            assert_eq!(out.len(), input.len());
            assert_eq!(stats.partition_sizes.iter().sum::<u64>(), records);
            let (merged, stats) = partition_merge_sort::<SortedRun>(input, &cfg).unwrap();
            assert_eq!(merged, out);
            assert_eq!(stats.partition_sizes.len(), 4);
        }
        let (out, _) = partition_merge_sort::<VarRun>(&[], &cfg).unwrap();
        assert!(out.is_empty());
    }

    /// Input that ends mid-record is an attributed error under both
    /// layouts and both variants, never a panic.
    #[test]
    fn ragged_input_is_invalid_data() {
        let (fixed, _) = dataset(50, KeyDistribution::Random);
        let var = generate_varlen(VarGenConfig {
            records: 50,
            seed: 7,
            corpus: TextCorpus::Urls,
        });
        let cfg = PartitionSortConfig::default();
        let outcomes = [
            partition_sort::<SortedRun>(&fixed[..fixed.len() - 1], &cfg),
            partition_merge_sort::<SortedRun>(&fixed[..fixed.len() - 1], &cfg),
            partition_sort::<VarRun>(&var[..var.len() - 3], &cfg),
            partition_merge_sort::<VarRun>(&var[..var.len() - 3], &cfg),
            // A header whose key descriptor points past its body.
            partition_sort::<VarRun>(&[4, 0, 0, 0, 9, 0, 9, 0, 1, 2, 3, 4], &cfg),
        ];
        for outcome in outcomes {
            let err = outcome.expect_err("ragged input must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }
}
