//! The shared-nothing baseline vs AlphaSort (§2 / §9).
//!
//! The pre-AlphaSort record was a partitioned-data design (DeWitt et al.'s
//! Hypercube, 58 s with 32 cpus and 32 disks); AlphaSort beat it 8:1 on a
//! shared-memory machine. This experiment runs both designs on the same
//! host over the same data: the AlphaSort pipeline vs netsort, the
//! partition-exchange-sort cluster with probabilistic splitting, on the
//! in-process loopback transport — plus the splitting-balance diagnostics
//! DeWitt's paper is about.

use std::time::Instant;

use alphasort_bench::host_workers;
use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::SortConfig;
use alphasort_dmgen::{generate, validate_records, GenConfig, KeyDistribution};
use alphasort_netsort::{netsort_loopback, NetsortConfig};
use alphasort_perfmodel::table::Table;

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let (input, cs) = generate(GenConfig::datamation(records, 32));

    println!("== AlphaSort vs partitioned parallel sort ({records} records, host) ==\n");
    let mut t = Table::new(["algorithm", "elapsed s", "notes"]);

    // AlphaSort pipeline.
    let t0 = Instant::now();
    let mut source = MemSource::new(input.clone(), 1_000_000);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        run_records: 100_000,
        workers: host_workers(),
        gather_batch: 10_000,
        ..Default::default()
    };
    let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
    let alpha_s = t0.elapsed().as_secs_f64();
    validate_records(sink.data(), cs).unwrap();
    t.row([
        format!("AlphaSort (shared memory, workers: {})", cfg.workers),
        format!("{alpha_s:.3}"),
        format!("{} runs, merge+gather", outcome.stats.runs),
    ]);

    // The partitioned design at several node counts, each node sorting its
    // partition serially.
    let netsort = |samples_per_node: usize| NetsortConfig {
        samples_per_node,
        sort: SortConfig {
            run_records: 100_000,
            gather_batch: 10_000,
            ..Default::default()
        },
        ..Default::default()
    };
    for nodes in [4usize, 8, 16, 32] {
        let t0 = Instant::now();
        let (out, stats) = netsort_loopback(&input, nodes, &netsort(256)).unwrap();
        let part_s = t0.elapsed().as_secs_f64();
        validate_records(&out, cs).unwrap();
        t.row([
            format!("netsort loopback, {nodes} nodes"),
            format!("{part_s:.3}"),
            format!("skew {:.2}", stats.exchange_skew()),
        ]);
    }
    print!("{}", t.render());

    println!("\n== probabilistic splitting balance (8 nodes) ==\n");
    let mut b = Table::new(["samples/node", "skew (max/ideal)"]);
    for samples in [4usize, 16, 64, 256, 1024] {
        let (_, stats) = netsort_loopback(&input, 8, &netsort(samples)).unwrap();
        b.row([samples.to_string(), format!("{:.3}", stats.exchange_skew())]);
    }
    print!("{}", b.render());

    println!("\n== splitting under skewed keys ==\n");
    let (skewed, _) = generate(GenConfig {
        records: records / 4,
        seed: 33,
        dist: KeyDistribution::DupHeavy { cardinality: 3 },
    });
    let (_, stats) = netsort_loopback(&skewed, 8, &netsort(256)).unwrap();
    println!(
        "3 distinct keys over 8 nodes: skew {:.1} — sampling cannot split what\n\
         doesn't vary; AlphaSort's single-address-space merge has no such\n\
         failure mode (its shared memory is the \"interconnect\").",
        stats.exchange_skew()
    );
    println!(
        "\npaper context: the Hypercube's 58 s vs AlphaSort's 7 s was 8:1 with\n\
         comparable hardware budgets; on one host the gap compresses (the\n\
         \"network\" is in-process channels, though every record still crosses\n\
         it framed and checksummed), but the balance sensitivity above is the\n\
         structural cost the partitioned design pays."
    );
}
