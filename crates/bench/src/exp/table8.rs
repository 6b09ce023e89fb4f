//! Table 8: the 100 MB Datamation benchmark on five Alpha AXP
//! configurations — modeled elapsed time and $/sort vs the paper's
//! published numbers, plus a real, validated disk-to-disk run on the
//! simulated array of the walk-through machine, with its phase breakdown.

use alphasort_perfmodel::metrics::datamation_dollars_per_sort;

use super::*;

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== Table 8: 100 MB Datamation on Alpha AXP systems (modeled) ==\n");
    let mut t = Table::new([
        "system",
        "cpus",
        "drives",
        "model time(s)",
        "paper time(s)",
        "model $/sort",
        "paper $/sort",
    ]);
    let machines = table8();
    // (name, model time, model $/sort, paper time, paper $/sort)
    let mut rows: Vec<(&str, f64, f64, f64, f64)> = Vec::new();
    for m in &machines {
        let b = datamation_model(m, 100.0);
        let d = datamation_dollars_per_sort(m.system_price, b.total());
        t.row([
            m.name.clone(),
            m.cpus.to_string(),
            m.drives.clone(),
            secs(b.total()),
            secs(m.paper_time_s),
            format!("{d:.3}$"),
            format!("{:.3}$", m.paper_dollars_per_sort),
        ]);
        let paper = (m.paper_time_s, m.paper_dollars_per_sort);
        rows.push((&m.name, b.total(), d, paper.0, paper.1));
    }
    r.table(t);

    let off = |row: &(&str, f64, f64, f64, f64)| (row.1 / row.3 - 1.0).abs();
    let worst = least(&rows, |row| -off(row));
    let says = "7.0–13.7 s on the five machines (every row ±10%)";
    let measured = format!("worst row {}, {:.1}% off", worst.0, off(worst) * 100.0);
    r.line("");
    r.claim(Model.check("table8.time", says, measured, off(worst) <= 0.1));
    // The same ranking: fastest to slowest, and the $/sort leader.
    let ranking = |time: fn(&(&str, f64, f64, f64, f64)) -> f64, dollars: fn(&_) -> f64| {
        let mut order = rows.clone();
        order.sort_by(|a, b| time(a).total_cmp(&time(b)));
        let names: Vec<&str> = order.iter().map(|row| row.0).collect();
        let leader = least(&rows, dollars).0;
        format!(
            "fastest to slowest {}; {leader} leads on $/sort",
            names.join(", ")
        )
    };
    let (paper, model) = (ranking(|r| r.3, |r| r.4), ranking(|r| r.1, |r| r.2));
    let holds = model == paper;
    r.claim(Model.check("table8.order", &paper, model, holds));

    // One end-to-end run on the simulated 16-disk array of the §7
    // walk-through, full size.
    r.line("\n== disk-to-disk run on the simulated 16-disk array (modeled time) ==\n");
    let (rz28, fast_scsi) = (catalog::rz28(), catalog::fast_scsi_controller());
    let array = modeled_array(Pacing::Modeled, rz28, fast_scsi, 4, 16);
    let (st, io) = StagedSort::stage(&array, 1_000_000, 8).sort(&paper_cfg(2), 3, false);
    let mut phases = Table::new(["phase (host wall clock)", "seconds"]);
    for (phase, d) in [
        ("read wait", st.read_wait),
        ("quicksort", st.sort_time),
        ("merge", st.merge_time),
        ("gather", st.gather_time),
        ("write wait", st.write_wait),
        ("total", st.elapsed),
    ] {
        phases.row([phase.to_string(), format!("{:.3}", d.as_secs_f64())]);
    }
    r.table(phases);
    r.line(format!(
        "\nsorted and validated {} records in {} runs; modeled 1993 IO elapsed {:.1} s\n\
         ({:.1} MB/s aggregate over {} RZ28 drives)",
        st.records,
        st.runs,
        io.modeled_elapsed().as_secs_f64(),
        io.modeled_bandwidth_mbps(),
        array.width()
    ));
    r
}
