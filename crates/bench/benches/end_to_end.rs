//! Bench: the whole external sort — one-pass vs two-pass, worker scaling,
//! and the shared-nothing baseline it displaced.

use std::hint::black_box;

use alphasort_bench::harness::BenchGroup;
use alphasort_core::driver::{one_pass, two_pass, MemScratch};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::SortConfig;
use alphasort_dmgen::{generate, GenConfig, RECORD_LEN};

const N: u64 = 200_000;

fn data() -> Vec<u8> {
    generate(GenConfig::datamation(N, 9)).0
}

fn bench_drivers() {
    let input = data();
    let mut g = BenchGroup::new("external_sort");
    g.throughput_bytes(N * RECORD_LEN as u64);
    g.sample_size(10);

    g.bench("one_pass", || {
        let mut src = MemSource::new(input.clone(), 1_000_000);
        let mut sink = MemSink::new();
        let cfg = SortConfig {
            run_records: 100_000,
            gather_batch: 10_000,
            ..Default::default()
        };
        black_box(one_pass(&mut src, &mut sink, &cfg).unwrap())
    });
    g.bench("two_pass", || {
        let mut src = MemSource::new(input.clone(), 1_000_000);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(10_000 * RECORD_LEN);
        let cfg = SortConfig {
            run_records: 50_000,
            gather_batch: 10_000,
            ..Default::default()
        };
        black_box(two_pass(&mut src, &mut sink, &mut scratch, &cfg).unwrap())
    });
}

fn bench_worker_scaling() {
    // §5's shared-memory speedup: the same sort with 0, 1, 3 workers.
    let input = data();
    let mut g = BenchGroup::new("worker_scaling");
    g.throughput_bytes(N * RECORD_LEN as u64);
    g.sample_size(10);
    for workers in [0usize, 1, 3] {
        g.bench(format!("{workers}"), || {
            let mut src = MemSource::new(input.clone(), 1_000_000);
            let mut sink = MemSink::new();
            let cfg = SortConfig {
                run_records: 25_000,
                gather_batch: 10_000,
                workers,
                ..Default::default()
            };
            black_box(one_pass(&mut src, &mut sink, &cfg).unwrap())
        });
    }
}

fn bench_against_partition_baseline() {
    // AlphaSort's pipeline vs the shared-nothing design it displaced (§2).
    use alphasort_core::baseline::{partition_sort, PartitionSortConfig};
    let input = data();
    let mut g = BenchGroup::new("vs_partition_baseline");
    g.throughput_bytes(N * RECORD_LEN as u64);
    g.sample_size(10);
    g.bench("alphasort_3_workers", || {
        let mut src = MemSource::new(input.clone(), 1_000_000);
        let mut sink = MemSink::new();
        let cfg = SortConfig {
            run_records: 50_000,
            gather_batch: 10_000,
            workers: 3,
            ..Default::default()
        };
        black_box(one_pass(&mut src, &mut sink, &cfg).unwrap())
    });
    for nodes in [4usize, 8] {
        let cfg = PartitionSortConfig {
            nodes,
            samples_per_node: 256,
        };
        g.bench(format!("partition_sort/{nodes}"), || {
            black_box(partition_sort(&input, &cfg))
        });
    }
}

fn main() {
    bench_drivers();
    bench_worker_scaling();
    bench_against_partition_baseline();
}
