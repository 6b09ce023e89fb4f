//! §6 economics: one-pass vs two-pass — buy memory or buy scratch disks?
//! Sweeps sort size, prints both costs, finds the crossover, and backs the
//! dollars with a disk-to-disk one-pass and two-pass sort of the same data
//! on the Table 6 many-slow array (36 modeled RZ26), counting the bytes
//! each moves.

use alphasort_core::planner::{PassPlan, Planner};
use alphasort_perfmodel::economics::{crossover_bytes, pass_economics};

use super::*;
use crate::many_slow_array;

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== §6: price of one-pass memory vs two-pass scratch disks ==\n");
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
    r.table(t);
    r.line("");
    let says = "one-pass for the 100 MB benchmark, two-pass by 1 GB";
    let crossover = crossover_bytes() as f64 / 1e6;
    r.claim(Model.between("onepass.crossover", says, (100.0, 1e3), crossover, " MB"));
    // "the two-pass sort is 15% less expensive" at 1 GB.
    let gb = pass_economics(1_000_000_000);
    let saving = (1.0 - gb.scratch_cost / gb.memory_cost) * 100.0;
    r.claim(Model.near("onepass.saving", 15.0, saving, 0.1, "% cheaper at 1 GB"));

    r.line("\n== planner behaviour ==\n");
    let p = Planner::new(256 << 20); // the DEC 7000's 256 MB
    for mb in [100u64, 500] {
        r.line(format!(
            "  {} MB input with a 256 MB machine → {:?}",
            mb,
            p.plan(mb * 1_000_000)
        ));
    }
    let plan = p.plan(100_000_000);
    let says = "the 100 MB benchmark sorts in one pass on the 256 MB DEC 7000";
    let holds = plan == PassPlan::OnePass;
    r.claim(Model.check("onepass.plan", says, format!("{plan:?}"), holds));

    r.line("\n== the bandwidth cost: same data, one pass vs two, disk to disk ==\n");
    let records = 500_000u64;
    let array = many_slow_array();
    let staged = StagedSort::stage(&array, records, 2);
    let cfg = paper_cfg(2);
    let mut t2 = Table::new(["driver", "elapsed s", "disk MB moved", "spill time s"]);
    let mut moved = [0.0; 2];
    for (i, (driver, spill)) in [("one-pass", false), ("two-pass", true)]
        .into_iter()
        .enumerate()
    {
        let (st, io) = staged.sort(&cfg, 3, spill);
        moved[i] = (io.bytes_read + io.bytes_written) as f64 / 1e6;
        t2.row([
            driver.to_string(),
            format!("{:.3}", st.elapsed.as_secs_f64()),
            format!("{:.0}", moved[i]),
            format!("{:.3}", st.spill_time.as_secs_f64()),
        ]);
    }
    r.table(t2);
    r.line("");
    let ratio = moved[1] / moved[0];
    r.claim(Model.near("onepass.bandwidth", 2.0, ratio, 0.05, "x the disk bytes"));
    r.line(
        "  (\"A two-pass sort requires twice the disk bandwidth to carry the\n\
         runs being stored on disk and being read back in during merge phase.\")",
    );
    r
}
