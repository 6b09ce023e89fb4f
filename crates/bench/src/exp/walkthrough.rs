//! §7: the 9.11-second uniprocessor walk-through, reconstructed as a
//! timeline from the analytic model.

use super::*;

pub fn run() -> Report {
    let mut r = Report::default();
    let m = &table8()[2]; // DEC 7000 AXP, 1 × 5 ns cpu, 16 drives
    let b = datamation_model(m, 100.0);

    r.line(format!("== §7 walk-through: {} ==\n", m.name));
    let mut t = Table::new(["t (s)", "event"]);
    let mut clock = 0.0f64;
    let mut at = |dt: f64, event: &str| {
        t.row([format!("{clock:>6.2}"), event.to_string()]);
        clock += dt;
    };
    let bound = |io_bound| if io_bound { "disk bound" } else { "cpu bound" };
    at(0.14, "launch; open stripe descriptor and input stripes");
    at(
        b.startup - 0.14,
        "create striped output file; extend address space 110 MB",
    );
    at(
        b.read_phase,
        &format!(
            "read 100 MB at {:.1} MB/s; QuickSort runs as they fill ({})",
            m.read_mbps,
            bound(b.read_io_bound)
        ),
    );
    at(
        b.last_run_sort,
        "input done; sort the last 100,000-record run (no IO active)",
    );
    at(
        b.write_phase,
        &format!(
            "tournament merge + gather; write 100 MB at {:.1} MB/s ({})",
            m.write_mbps,
            bound(b.write_io_bound)
        ),
    );
    at(b.shutdown, "close 17+17 files; return to shell");
    t.row([format!("{clock:>6.2}"), "done".to_string()]);
    r.table(t);

    r.line("");
    // The paper's timeline: reads done at 3.87 s, a 4.9 s write phase,
    // 9.11 s in all.
    for (id, paper, model) in [
        ("walkthrough.read", 3.87, b.read_phase),
        ("walkthrough.write", 4.9, b.write_phase),
        ("walkthrough.total", 9.11, b.total()),
    ] {
        r.claim(Model.near(id, paper, model, 0.1, " s"));
    }
    r.line(format!(
        "\ncpu accounting (model): quicksort {:.1} s, merge+gather {:.1} s of\n\
         cpu time — the paper reports 6.0 s of memory-to-memory sort cpu and\n\
         1.9 s of OpenVMS time within 7.9 s total cpu.",
        b.sort_cpu, b.merge_gather_cpu
    ));
    r
}
