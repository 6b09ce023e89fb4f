//! Bench: QuickSort run formation vs replacement-selection (§4's 2.5:1
//! claim), across input distributions.

use std::hint::black_box;

use alphasort_bench::harness::BenchGroup;
use alphasort_bench::variants::key_prefix_order;
use alphasort_bench::variants::rs::generate_runs;
use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution, Record, RECORD_LEN};

fn main() {
    let n = 100_000u64;
    let mut g = BenchGroup::new("quicksort_vs_rs");
    g.throughput_bytes(n * RECORD_LEN as u64);
    g.sample_size(10);
    for (label, dist) in [
        ("random", KeyDistribution::Random),
        ("sorted", KeyDistribution::Sorted),
        ("reverse", KeyDistribution::Reverse),
    ] {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 7,
            dist,
        });
        let records: Vec<Record> = records_of(&data).to_vec();
        g.bench(format!("quicksort_prefix/{label}"), || {
            black_box(key_prefix_order(&data))
        });
        g.bench(format!("replacement_selection/{label}"), || {
            black_box(generate_runs(&records, 25_000))
        });
    }
}
