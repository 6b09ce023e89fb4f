//! Table 1 / Graph 2: published Datamation results 1985–1993, plus this
//! reproduction's own points (host wall-clock, and the modeled 1993 DEC
//! 7000 from the analytic model).

use alphasort_bench::{host_sort, host_workers};
use alphasort_core::SortConfig;
use alphasort_perfmodel::chart::LogChart;
use alphasort_perfmodel::history::table1;
use alphasort_perfmodel::machines::table8;
use alphasort_perfmodel::metrics::datamation_dollars_per_sort;
use alphasort_perfmodel::phase::datamation_model;
use alphasort_perfmodel::table::{dollars, secs, Table};

fn main() {
    println!("== Table 1: time and cost to sort one million 100-byte records ==\n");
    let mut t = Table::new([
        "system", "year", "time(s)", "$/sort", "cost M$", "cpus", "disks",
    ]);
    for r in table1() {
        t.row([
            r.system.to_string(),
            r.year.to_string(),
            secs(r.time_s),
            dollars(r.dollars_per_sort),
            format!("{:.1}", r.cost_millions),
            r.cpus.to_string(),
            r.disks.to_string(),
        ]);
    }
    // Our reproduction's points.
    let workers = host_workers();
    let st = host_sort(
        1_000_000,
        &SortConfig {
            run_records: 100_000,
            workers,
            gather_batch: 10_000,
            ..Default::default()
        },
    );
    t.row([
        "this reproduction (host, in-memory)".to_string(),
        "now".to_string(),
        secs(st.elapsed.as_secs_f64()),
        "-".to_string(),
        "-".to_string(),
        (workers + 1).to_string(),
        "0".to_string(),
    ]);
    for m in table8().iter().filter(|m| m.cpus == 1 || m.cpus == 3) {
        let b = datamation_model(m, 100.0);
        t.row([
            format!("this reproduction (model, {})", m.name),
            "1993".to_string(),
            secs(b.total()),
            dollars(datamation_dollars_per_sort(m.system_price, b.total())),
            format!("{:.1}", m.system_price / 1e6),
            m.cpus.to_string(),
            "-".to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\n== Graph 2 series (chronological) ==\n");
    let mut g = Table::new(["year", "system", "time(s)", "$/sort"]);
    for r in table1() {
        g.row([
            r.year.to_string(),
            r.system.to_string(),
            secs(r.time_s),
            dollars(r.dollars_per_sort),
        ]);
    }
    print!("{}", g.render());

    println!("\n== Graph 2, rendered (o = seconds, $ = $/sort x1000) ==\n");
    let mut chart = LogChart::new("log scale", 14);
    for r in table1() {
        chart.point(r.year.to_string(), r.time_s, 'o');
        chart.point(r.year.to_string(), r.dollars_per_sort * 1000.0, '$');
    }
    print!("{}", chart.render());

    println!(
        "\nShape check: time falls ~400:1 over the decade and AlphaSort holds\n\
         both records; the Cray was fastest-before-AlphaSort but ~100x more\n\
         expensive per sort."
    );
}
