//! Quickstart: generate a Datamation-style dataset, sort it with AlphaSort,
//! and verify the output is a sorted permutation of the input.
//!
//! ```sh
//! cargo run --release --example quickstart [records]
//! ```

use alphasort_suite::dmgen::{generate, validate_records, GenConfig};
use alphasort_suite::sort::driver::one_pass;
use alphasort_suite::sort::io::{MemSink, MemSource};
use alphasort_suite::sort::SortConfig;

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    println!("AlphaSort quickstart: {records} records of 100 bytes");

    // 1. Generate the benchmark input (10-byte random keys, incompressible
    //    payload) and remember its fingerprint.
    let (input, checksum) = generate(GenConfig::datamation(records, 42));
    println!("generated {:.1} MB of input", input.len() as f64 / 1e6);

    // 2. Sort: QuickSort (key-prefix, pointer) runs as data arrives, then a
    //    tournament merge + gather — the heart of the paper.
    let cfg = SortConfig {
        run_records: 100_000, // the paper's run size
        workers: 2,           // sort/gather chores
        gather_batch: 10_000,
        ..Default::default()
    };
    let mut source = MemSource::new(input, 1 << 20);
    let mut sink = MemSink::new();
    let outcome = one_pass(&mut source, &mut sink, &cfg).expect("sort failed");

    let st = &outcome.stats;
    println!(
        "sorted in {:.3} s ({:.1} MB/s): {} runs, quicksort {:.3} s, \
         merge {:.3} s, gather {:.3} s",
        st.elapsed.as_secs_f64(),
        st.throughput_mbps(),
        st.runs,
        st.sort_time.as_secs_f64(),
        st.merge_time.as_secs_f64(),
        st.gather_time.as_secs_f64(),
    );

    // 3. Verify: the output must be a key-ascending permutation of the input.
    let report = validate_records(sink.data(), checksum).expect("invalid output");
    println!(
        "validated: {} records in key order, permutation intact ✓",
        report.records
    );
}
