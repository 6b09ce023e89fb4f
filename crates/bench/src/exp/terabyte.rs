//! §9's closing projection: "A terabyte-per-minute parallel sort is our
//! long-term goal (not a misprint!). That will need hundreds of fast
//! processors, gigabytes of memory, thousands of disks, and a 20 GB/s
//! interconnect."
//!
//! This experiment re-derives those magnitudes from the reproduction's own
//! calibrated constants (per-disk rates, per-byte CPU costs, §6 economics),
//! plus the nearer-term check: "At a gigabyte-per-minute, it takes more
//! than 16 hours to sort a terabyte."

use alphasort_perfmodel::economics::{disks_needed, wce_disk_saving};

use super::*;

/// "hundreds", "thousands", …: `n` within the decade starting at `lo`.
fn decade(id: &'static str, words: &str, lo: f64, n: f64, unit: &str) -> Claim {
    let hi = 10.0 * lo;
    let paper = format!("{words} (≥ {}, < {}{unit})", num(lo), num(hi));
    Model.check(id, &paper, num(n) + unit, lo <= n && n < hi)
}

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== §9: the road to a terabyte per minute ==\n");

    // The 16-hour check at 1 GB/minute.
    let hours = 1_000_000.0 / 1_000.0 / 60.0; // 1 TB at 1 GB/min, in hours
    let says = "\"more than 16 hours\" at a gigabyte per minute";
    let range = (16.0, f64::INFINITY);
    r.claim(Model.between("terabyte.hours", says, range, hours, " h"));
    r.line("");

    let tb_mb = 1_000_000.0; // 1 TB in MB
    let target_s = 60.0;

    // Disks: two-pass is mandatory at this scale (no terabyte memories in
    // 1993), so 2 TB in + 2 TB out cross the disks within the minute.
    let disk_r = 4.5; // the paper's commodity SCSI disk
    let disk_w = 3.5;
    let one_pass_disks = disks_needed(disk_r, disk_w, tb_mb, target_s);
    let two_pass_disks = 2 * one_pass_disks;

    // Interconnect: in a partitioned parallel sort (the Hypercube pattern
    // §2 describes) each record crosses the interconnect once, between its
    // reader-sorter and its target partition.
    let interconnect_gbs = tb_mb / 1e3 / target_s;

    // CPUs: the calibrated merge+gather cost is 3.9 cpu-seconds per 100 MB
    // on one 200 MHz Alpha; quicksort adds 2.1 more.
    let cpu_s_per_100mb = 2.1 + 3.9;
    let cpus = (cpu_s_per_100mb * (tb_mb / 100.0) / target_s).ceil();

    // Memory: a two-pass sort needs roughly sqrt(input × run-IO-unit)
    // buffers; with 1 GB runs a terabyte makes 1,000 runs, each needing a
    // ~1 MB merge buffer, plus the 1 GB run-formation buffer.
    let run_gb = 1.0;
    let runs = tb_mb / 1e3 / run_gb;
    let memory_gb = run_gb + runs * 1.0 / 1e3;

    let mut t = Table::new(["resource", "derived need", "paper's words"]);
    t.row([
        "disks (two-pass)".to_string(),
        format!("{two_pass_disks} commodity SCSI"),
        "\"thousands of disks\"".to_string(),
    ]);
    t.row([
        "interconnect".to_string(),
        format!("{interconnect_gbs:.0} GB/s (each record crosses once)"),
        "\"a 20 GB/s interconnect\"".to_string(),
    ]);
    t.row([
        "processors (200 MHz)".to_string(),
        format!("{cpus:.0}"),
        "\"hundreds of fast processors\"".to_string(),
    ]);
    t.row([
        "memory".to_string(),
        format!("{memory_gb:.0} GB (1 GB runs + merge buffers)"),
        "\"gigabytes of memory\"".to_string(),
    ]);
    r.table(t);

    let future_disks = 2 * disks_needed(20.0, 16.0, tb_mb, target_s);
    r.line(format!(
        "\nWith 1993's 4.5 MB/s drives the disk count is ~{two_pass_disks}; the paper's\n\
         \"thousands\" anticipated the faster drives of its 5–10 year horizon\n\
         (at 20 MB/s per drive: ~{future_disks}).\n"
    ));
    let says = "\"thousands of disks\", at 20 MB/s per drive";
    let disks = f64::from(future_disks);
    r.claim(decade("terabyte.disks", says, 1e3, disks, ""));
    let gbs = interconnect_gbs;
    r.claim(Model.near("terabyte.interconnect", 20.0, gbs, 0.25, " GB/s"));
    let says = "\"hundreds of fast processors\"";
    r.claim(decade("terabyte.cpus", says, 100.0, cpus, ""));
    let says = "\"gigabytes of memory\"";
    r.claim(decade("terabyte.memory", says, 1.0, memory_gb, " GB"));
    // §6 footnote 2: with write caching enabled "20% fewer discs would be
    // needed".
    let saving = wce_disk_saving(disk_r, disk_w) * 100.0;
    r.claim(Model.near("terabyte.wce", 20.0, saving, 0.25, "%"));
    r.line(format!(
        "\nWCE footnote applied at scale: enabling write caching would save\n\
         {saving:.0}% of those disks ({} instead of {}).",
        (f64::from(two_pass_disks) * (1.0 - saving / 100.0)).ceil(),
        two_pass_disks
    ));
    r.line(
        "\nThe paper guessed \"five or ten years off\"; the sortbenchmark.org\n\
         TeraByte Sort record fell in 1998 (still hours), and a terabyte per\n\
         minute arrived around 2009 — fifteen years out, with roughly these\n\
         resource shapes.",
    );
    r
}
