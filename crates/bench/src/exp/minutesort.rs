//! §8 MinuteSort: how much can you sort in a minute?
//!
//! Three readings: the paper's 1993 result, the analytic model of the same
//! 3-cpu 36-disk DEC 7000, and a host-measured point (in-memory sorts grown
//! until a scaled budget is exceeded, then extrapolated to a minute).

use alphasort_perfmodel::machines::minutesort_machine;
use alphasort_perfmodel::metrics::minutesort;

use super::*;

/// `budget`: host seconds the growing sort may take before it stops.
pub fn run(budget: f64) -> Report {
    let mut r = Report::default();
    let m = minutesort_machine();

    r.line("== MinuteSort (§8) ==\n");

    // Model: how many MB fit in 60 s on the paper's machine?
    let mut mb = 100.0f64;
    while datamation_model(&m, mb).total() < 60.0 {
        mb += 10.0;
    }
    let modeled = minutesort(m.system_price, (mb * 1e6) as u64);

    // Host: grow until the (scaled) budget busts, extrapolate to a minute.
    // Each sort is validated against its generator's checksum, record
    // count included. The growth stops at 8 M records (input, runs and
    // output together hold about 2.5 GB): with the clock on the sort alone,
    // a modern host would otherwise go on doubling past a small machine's
    // memory.
    let cfg = SortConfig {
        run_records: 250_000,
        workers: host_workers(),
        gather_batch: 20_000,
        ..Default::default()
    };
    let mut records = 250_000u64;
    let mut best_rate = 0.0f64; // bytes per second
    loop {
        // The sort's own clock: generating the input is not sorting it.
        let dt = host_sort(records, &cfg).elapsed.as_secs_f64();
        best_rate = best_rate.max(records as f64 * RECORD_LEN as f64 / dt);
        if dt > budget || records >= 8_000_000 {
            break;
        }
        records *= 2;
    }
    let host_minute_bytes = best_rate * 60.0;
    let host = minutesort(m.system_price, host_minute_bytes as u64);
    let paper = minutesort(m.system_price, 1_080_000_000);

    let mut t = Table::new(["entry", "GB/minute", "minute cost", "$/GB"]);
    t.row([
        "paper (DEC 7000, 3 cpu, 36 disks, 1993)".to_string(),
        format!("{:.2}", paper.sorted_gb),
        format!("{:.2}$", paper.minute_cost),
        format!("{:.2}$", paper.dollars_per_gb),
    ]);
    t.row([
        "analytic model of the same machine".to_string(),
        format!("{:.2}", modeled.sorted_gb),
        format!("{:.2}$", modeled.minute_cost),
        format!("{:.2}$", modeled.dollars_per_gb),
    ]);
    t.row([
        format!("host, extrapolated from a {budget:.0}-s budget"),
        format!("{:.2}", host.sorted_gb),
        format!("{:.2}$ (at 1993 price)", host.minute_cost),
        format!("{:.2}$", host.dollars_per_gb),
    ]);
    r.table(t);
    // "A three-processor DEC 7000 AXP sorted 1.08 GB in a minute … the
    // 1.1 GB MinuteSort would cost 51 cents … 0.47$/GB."
    r.line("");
    let (gb, price) = (modeled.sorted_gb, modeled.dollars_per_gb);
    r.claim(Model.near("minutesort.gb", 1.08, gb, 0.1, " GB"));
    r.claim(Model.near("minutesort.price", 0.47, price, 0.1, " $/GB"));
    let says = "the host sorts at least the paper's 1.08 GB in a minute";
    let range = (paper.sorted_gb, f64::INFINITY);
    r.claim(Host.between("minutesort.host", says, range, host.sorted_gb, " GB"));
    r
}
