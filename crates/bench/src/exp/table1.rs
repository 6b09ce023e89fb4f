//! Table 1 / Graph 2: published Datamation results 1985–1993, plus this
//! reproduction's own points (host wall-clock, and the modeled 1993 DEC
//! 7000 from the analytic model).

use alphasort_perfmodel::chart::LogChart;
use alphasort_perfmodel::history::table1;
use alphasort_perfmodel::metrics::datamation_dollars_per_sort;

use super::*;

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== Table 1: time and cost to sort one million 100-byte records ==\n");
    let mut t = Table::new([
        "system", "year", "time(s)", "$/sort", "cost M$", "cpus", "disks",
    ]);
    let history = table1();
    for h in &history {
        t.row([
            h.system.to_string(),
            h.year.to_string(),
            secs(h.time_s),
            dollars(h.dollars_per_sort),
            format!("{:.1}", h.cost_millions),
            h.cpus.to_string(),
            h.disks.to_string(),
        ]);
    }
    // Our reproduction's points.
    let workers = host_workers();
    let st = host_sort(1_000_000, &paper_cfg(workers));
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
    r.table(t);

    r.line("\n== Graph 2, rendered (o = seconds, $ = $/sort x1000) ==\n");
    let mut chart = LogChart::new("log scale", 14);
    for h in &history {
        chart.point(h.year.to_string(), h.time_s, 'o');
        chart.point(h.year.to_string(), h.dollars_per_sort * 1000.0, '$');
    }
    r.parts.push(Part::Text(chart.render()));

    // The claims read the published rows only, so they are the same on
    // every run.
    let fastest = least(&history, |h| h.time_s);
    let cheapest = least(&history, |h| h.dollars_per_sort);
    let (t, d) = (secs(fastest.time_s), dollars(cheapest.dollars_per_sort));
    let (f, c) = (fastest.system, cheapest.system);
    let measured = format!("fastest {f} ({t} s), cheapest {c} ({d})");
    let holds = f.starts_with("AlphaSort") && c.starts_with("AlphaSort");
    let says = "AlphaSort holds both records, time and $/sort";
    r.line("");
    r.claim(Model.check("table1.records", says, measured, holds));
    // AlphaSort is "about 4×" the Cray's time and 8:1 on the Hypercube.
    for (id, system, paper) in [
        ("table1.cray", "Weinberger + Cray", 4.0),
        ("table1.hypercube", "DeWitt + Intel iPSC/2", 8.0),
    ] {
        let h = history
            .iter()
            .find(|h| h.system == system)
            .expect("a Table 1 row");
        let x = h.time_s / fastest.time_s;
        r.claim(Model.near(id, paper, x, 0.1, "x"));
    }
    r
}
