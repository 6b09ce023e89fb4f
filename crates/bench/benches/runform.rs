//! Bench: QuickSort run formation vs replacement-selection (§4's 2.5:1
//! claim), across input distributions; Datamation run formation — the
//! pipeline's MSD string sort beside the key-prefix QuickSort exhibits — in
//! records/s per distribution and run size; and var-len run formation (the
//! same MSD sort) in records/s on the corpora where prefix entries
//! degenerate.

use std::hint::black_box;

use alphasort_bench::harness::BenchGroup;
use alphasort_bench::variants::rs::generate_runs;
use alphasort_bench::variants::{key_prefix_order, partition_prefix_order};
use alphasort_cachesim::TournamentLayout::Naive;
use alphasort_core::layout::LayoutRun;
use alphasort_core::runform::form_run;
use alphasort_core::varlen::VarRun;
use alphasort_dmgen::{
    generate, generate_varlen, records_of, GenConfig, KeyDistribution, Record, TextCorpus,
    VarGenConfig, RECORD_LEN,
};

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
            black_box(key_prefix_order(&data, &mut ()))
        });
        g.bench(format!("replacement_selection/{label}"), || {
            black_box(generate_runs(&records, 25_000, Naive, &mut ()))
        });
    }

    // One run per distribution at each run size the benchmark's workloads
    // form: 100 k (the file sorts), 22.5 k and 2.25 k (sortd's 30 k- and
    // 3 k-record jobs). The pipeline consumes its buffer, so each sample
    // gets a fresh copy outside the timing; the exhibits only read theirs.
    for run in [100_000u64, 22_500, 2_250] {
        let mut g = BenchGroup::new(format!("datamation_form/{run}"));
        g.throughput_records(run);
        g.sample_size(if run > 10_000 { 15 } else { 101 });
        for (label, dist) in KeyDistribution::STRESS {
            let (data, _) = generate(GenConfig {
                records: run,
                seed: 7,
                dist,
            });
            g.bench_with(format!("{label}/form_run"), || data.clone(), form_run);
            g.bench(format!("{label}/partition_prefix_order"), || {
                partition_prefix_order(&data, &mut ())
            });
            g.bench(format!("{label}/key_prefix_order"), || {
                key_prefix_order(&data, &mut ())
            });
        }
    }

    // One 100 k-record run per corpus, as the cutter hands it over. Each
    // sample also copies the run buffer, which formation consumes.
    let mut g = BenchGroup::new("varlen_form");
    g.throughput_records(n);
    g.sample_size(10);
    for corpus in TextCorpus::ALL {
        if matches!(
            corpus,
            TextCorpus::EmptyKey | TextCorpus::AllEqualKey { .. }
        ) {
            continue;
        }
        let buf = generate_varlen(VarGenConfig {
            records: n,
            seed: 7,
            corpus,
        });
        g.bench(corpus.name(), || {
            black_box(VarRun::form(buf.clone(), n as usize))
        });
    }
}
