//! Bench: the merge phase — tournament merge of (key-prefix, pointer) runs,
//! the record gather, and the OVC-vs-plain merge ablation. The paper: "More
//! time is spent gathering the records than is consumed in creating, sorting
//! and merging the key-prefix/pointer pairs."

use std::hint::black_box;

use alphasort_bench::harness::BenchGroup;
use alphasort_core::gather::merge_gather_all;
use alphasort_core::merge::{ComparePolicy, MergedPtr, Merger, Ovc, PrefixThenKey, RunCursors};
use alphasort_core::runform::{form_run, SortedRun};
use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

/// The merged pointer string of `bounds` of every run (`None` = whole)
/// under compare policy `P`.
fn merge_ptrs<P: ComparePolicy>(
    runs: &[SortedRun],
    bounds: Option<&[(u32, u32)]>,
) -> Vec<MergedPtr> {
    Merger::<_, P, _>::new(RunCursors::new(runs, bounds), ()).collect()
}

fn make_runs(n: u64, per_run: usize) -> Vec<SortedRun> {
    let (data, _) = generate(GenConfig::datamation(n, 3));
    data.chunks(per_run * RECORD_LEN)
        .map(|c| form_run(c.to_vec()))
        .collect()
}

/// Ten runs, the paper's "typically ten", of `n` records in all: at 100 k
/// the runs sit in the last-level cache; at the Datamation 1 M (100 MB) a
/// tournament that read records for its prefixes would miss on every head.
fn bench_merge_and_gather(group: &str, n: u64) {
    let runs = make_runs(n, n as usize / 10);
    let mut g = BenchGroup::new(group);
    g.throughput_bytes(n * RECORD_LEN as u64);
    g.sample_size(if n > 100_000 { 5 } else { 10 });

    g.bench("merge_only", || {
        black_box(merge_ptrs::<PrefixThenKey>(&runs, None))
    });
    g.bench("merge_plus_gather", || black_box(merge_gather_all(&runs)));
}

fn bench_merge_fanin() {
    // Fan-in sweep: "in a one-pass sort there are typically between ten and
    // one hundred runs".
    let n = 100_000u64;
    let mut g = BenchGroup::new("merge_fanin");
    g.sample_size(10);
    for fanin in [2usize, 10, 100] {
        let runs = make_runs(n, (n as usize).div_ceil(fanin));
        g.bench(format!("{fanin}"), || {
            black_box(merge_ptrs::<PrefixThenKey>(&runs, None))
        });
    }
}

fn bench_partitioned_merge() {
    // Serial tournament vs the partitioned merge at 2/4/8 ranges: same
    // output bytes (the oracle enforces it), the question is wall clock.
    use alphasort_core::gather::gather_into;
    use alphasort_core::pmerge::{plan_mem_partitions, SAMPLES_PER_RANGE};

    let n = 200_000u64;
    let runs = make_runs(n, 20_000);
    let mut g = BenchGroup::new("partitioned_merge");
    g.throughput_bytes(n * RECORD_LEN as u64);
    g.sample_size(10);

    g.bench("serial", || black_box(merge_gather_all(&runs)));
    for ranges in [2usize, 4, 8] {
        g.bench(format!("ranges/{ranges}"), || {
            let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
            let outputs = std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .bounds
                    .iter()
                    .map(|row| {
                        let runs = &runs;
                        scope.spawn(move || {
                            let bounds: Vec<(u32, u32)> =
                                row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
                            let ptrs: Vec<MergedPtr> =
                                merge_ptrs::<PrefixThenKey>(runs, Some(&bounds));
                            let mut out = Vec::with_capacity(ptrs.len() * RECORD_LEN);
                            gather_into(runs, &ptrs, &mut out);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("range worker"))
                    .collect::<Vec<_>>()
            });
            black_box(outputs.concat())
        });
    }
}

fn bench_ovc() {
    let n = 100_000u64;
    let mut g = BenchGroup::new("ovc_vs_plain_merge");
    g.sample_size(10);
    for (label, dist) in [
        ("random", KeyDistribution::Random),
        ("common-prefix", KeyDistribution::CommonPrefix { shared: 6 }),
    ] {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 5,
            dist,
        });
        let runs: Vec<SortedRun> = data
            .chunks(10_000 * RECORD_LEN)
            .map(|c| form_run(c.to_vec()))
            .collect();
        g.bench(format!("plain/{label}"), || {
            black_box(merge_ptrs::<PrefixThenKey>(&runs, None))
        });
        g.bench(format!("ovc/{label}"), || {
            black_box(merge_ptrs::<Ovc>(&runs, None))
        });
    }
}

fn main() {
    bench_merge_and_gather("merge_phase", 100_000);
    bench_merge_and_gather("merge_phase_1m", 1_000_000);
    bench_merge_fanin();
    bench_partitioned_merge();
    bench_ovc();
}
