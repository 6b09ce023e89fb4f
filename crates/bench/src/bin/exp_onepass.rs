//! §6 economics: one-pass vs two-pass — buy memory or buy scratch disks?
//! Sweeps sort size, prints both costs, finds the crossover, and backs the
//! dollars with an actual one-pass vs two-pass run of the same data.

use std::sync::Arc;
use std::time::Instant;

use alphasort_bench::variants::mergeplan::{level_order_cost, optimal_schedule};
use alphasort_bench::variants::rs::generate_runs;
use alphasort_cachesim::TournamentLayout::Naive;
use alphasort_core::driver::{one_pass, two_pass, StripeScratch};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::planner::{PassPlan, Planner};
use alphasort_core::SortConfig;
use alphasort_dmgen::{generate, validate_records, GenConfig};
use alphasort_perfmodel::economics::{crossover_bytes, pass_economics};
use alphasort_perfmodel::table::{dollars, Table};
use alphasort_stripefs::Volume;

fn main() {
    println!("== §6: price of one-pass memory vs two-pass scratch disks ==\n");
    let mut t = Table::new([
        "sort size",
        "memory (1-pass)",
        "scratch disks (2-pass)",
        "cheaper",
    ]);
    for mb in [10u64, 50, 100, 250, 500, 750, 1_000, 2_500, 10_000] {
        let e = pass_economics(mb * 1_000_000);
        t.row([
            if mb >= 1000 {
                format!("{:.1} GB", mb as f64 / 1000.0)
            } else {
                format!("{mb} MB")
            },
            dollars(e.memory_cost),
            format!("{} ({} disks)", dollars(e.scratch_cost), e.scratch_disks),
            if e.one_pass_wins() {
                "one-pass".to_string()
            } else {
                "two-pass".to_string()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\ncrossover: {:.0} MB (paper: one-pass for the 100 MB benchmark,\n\
         two-pass for \"multi-gigabyte sorts\", ~15% cheaper at 1 GB)\n",
        crossover_bytes() as f64 / 1e6
    );

    println!("== planner behaviour ==\n");
    let p = Planner::new(256 << 20); // the DEC 7000's 256 MB
    for mb in [100u64, 500] {
        println!(
            "  {} MB input with a 256 MB machine → {:?}",
            mb,
            p.plan(mb * 1_000_000)
        );
    }
    assert_eq!(p.plan(100_000_000), PassPlan::OnePass);

    println!("\n== the bandwidth cost: same data, one pass vs two ==\n");
    let records = 500_000u64;
    let (data, cs) = generate(GenConfig::datamation(records, 2));
    let cfg = SortConfig {
        run_records: 100_000,
        gather_batch: 10_000,
        workers: 2,
        ..Default::default()
    };

    let t0 = Instant::now();
    let mut src = MemSource::new(data.clone(), 1_000_000);
    let mut sink = MemSink::new();
    let one = one_pass(&mut src, &mut sink, &cfg).unwrap();
    let one_s = t0.elapsed().as_secs_f64();
    validate_records(sink.data(), cs).unwrap();

    let t0 = Instant::now();
    let mut src = MemSource::new(data, 1_000_000);
    let mut sink = MemSink::new();
    // Two in-memory disks: the checksummed striped store, minus the devices.
    let mut scratch = StripeScratch::new(Arc::new(Volume::in_memory(2)), 64 << 10);
    let two = two_pass(&mut src, &mut sink, &mut scratch, &cfg).unwrap();
    let two_s = t0.elapsed().as_secs_f64();
    validate_records(sink.data(), cs).unwrap();

    let mut t2 = Table::new(["driver", "elapsed s", "data moved", "spill time s"]);
    t2.row([
        "one-pass".to_string(),
        format!("{one_s:.3}"),
        format!("{} MB (in + out)", records * 200 / 1_000_000),
        format!("{:.3}", one.stats.spill_time.as_secs_f64()),
    ]);
    t2.row([
        "two-pass".to_string(),
        format!("{two_s:.3}"),
        format!(
            "{} MB (in + runs out + runs in + out)",
            records * 400 / 1_000_000
        ),
        format!("{:.3}", two.stats.spill_time.as_secs_f64()),
    ]);
    print!("{}", t2.render());
    println!(
        "\n\"A two-pass sort requires twice the disk bandwidth to carry the\n\
         runs being stored on disk and being read back in during merge phase.\"\n"
    );

    println!("== cascade scheduling for unequal runs (Knuth's optimal merge) ==\n");
    // Replacement-selection produces unequal runs (~2x memory, high
    // variance); compare the driver's level-order cascade against the
    // Huffman-optimal schedule at small fan-in.
    let (d, _) = generate(GenConfig::datamation(60_000, 77));
    let rs_runs = generate_runs(alphasort_dmgen::records_of(&d), 2_000, Naive, &mut ());
    let lengths: Vec<u64> = rs_runs.iter().map(|r| r.len() as u64).collect();
    let mut t3 = Table::new(["fan-in", "level-order moved", "optimal moved", "saving"]);
    for fanin in [2usize, 3, 4, 8] {
        let lvl = level_order_cost(&lengths, fanin);
        let opt = optimal_schedule(&lengths, fanin).total_cost;
        t3.row([
            fanin.to_string(),
            format!("{lvl} rec"),
            format!("{opt} rec"),
            format!("{:.1}%", (1.0 - opt as f64 / lvl as f64) * 100.0),
        ]);
    }
    print!("{}", t3.render());
    println!(
        "\n{} replacement-selection runs (min {}, max {} records): the wider\n\
         the fan-in, the less scheduling matters — at the one-pass regime the\n\
         paper runs in, it never does.",
        lengths.len(),
        lengths.iter().min().unwrap(),
        lengths.iter().max().unwrap()
    );
}
