//! Figure 7: where the time goes in the 9-second uniprocessor sort.
//!
//! Two views: the paper's hardware-monitor pie (reference constants), and
//! a reconstruction from this reproduction — the analytic phase model for
//! elapsed-time components plus the trace-driven cache simulator for the
//! processor-stall split, observing the key-prefix QuickSort exhibit and the
//! pipeline's own merge order and gather.

use alphasort_cachesim::{CycleModel, Hierarchy};
use alphasort_core::runform::form_run;
use alphasort_perfmodel::phase::figure7_paper;

use super::*;
use crate::variants::key_prefix_order;
use crate::variants::trace::merge_gather;

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== Figure 7 (paper's hardware monitor, DEC 10000/7000 AXP) ==\n");
    let mut t = Table::new(["component", "fraction"]);
    for s in figure7_paper() {
        t.row([
            s.component.to_string(),
            format!("{:.0}%", s.fraction * 100.0),
        ]);
    }
    r.table(t);

    r.line("\n== reconstruction: elapsed-time phases (analytic model) ==\n");
    let m = &table8()[2]; // the 1-cpu DEC 7000 of the §7 walk-through
    let b = datamation_model(m, 100.0);
    let mut t2 = Table::new(["phase", "seconds", "share"]);
    let total = b.total();
    for (label, secs) in [
        ("startup (load, opens, creates)", b.startup),
        ("read ∥ quicksort", b.read_phase),
        ("last-run sort", b.last_run_sort),
        ("write ∥ merge+gather", b.write_phase),
        ("shutdown (closes, return)", b.shutdown),
    ] {
        t2.row([
            label.to_string(),
            format!("{secs:.2}"),
            format!("{:.0}%", secs / total * 100.0),
        ]);
    }
    t2.row([
        "total".to_string(),
        format!("{total:.2}"),
        "100%".to_string(),
    ]);
    r.table(t2);

    r.line("\n== reconstruction: processor stall split (cache simulator) ==\n");
    // Trace the two CPU-heavy kernels of the sort at 1/10 scale and apply
    // the cycle model to split issue vs stall: the key-prefix QuickSort of
    // one run, then the gather of 10 such runs in the order the pipeline's
    // merge emits them. (The pipeline's own run formation is std's
    // sort_unstable, which is not traced.)
    let n = 100_000;
    let (data, _) = generate(GenConfig::datamation(n as u64, 7));
    let mut mem = Hierarchy::alpha_axp();
    key_prefix_order(&data, &mut mem);
    let runs: Vec<_> = data
        .chunks(n / 10 * RECORD_LEN)
        .map(|c| form_run(c.to_vec()))
        .collect();
    let (mut merge, before) = (Hierarchy::alpha_axp(), mem.stats());
    merge_gather(&runs, &mut merge, &mut mem);
    let stats = mem.stats();
    let [merge_d, _, _] = merge.stats().per_elem(n);
    let per = |after: u64, before: u64| (after - before) as f64 / n as f64;
    let (gather_d, gather_tlb) = (
        per(stats.d_misses, before.d_misses),
        per(stats.tlb_misses, before.tlb_misses),
    );
    let says = "the merge tree \"has excellent cache behavior\", the gather \"terrible \
                cache and TLB behavior\" (gather > 4x merge D-misses per record)";
    let measured = format!(
        "merge {merge_d:.2} D-misses; gather {gather_d:.2} D-misses, {gather_tlb:.2} TLB misses"
    );
    let holds = gather_d > 4.0 * merge_d;
    r.claim(Model.check("fig7.gather", says, measured, holds));
    r.line("");
    // Issue weight per data access from the paper's instruction mix: loads
    // + stores are 27% of instructions, so each access carries ~2.7
    // companions; at the measured dual-issue rate (>40% of instructions
    // dual-issued) that is ~2.6 issue cycles per access.
    let cm = CycleModel {
        issue: 2.6,
        ..CycleModel::default()
    };
    let cycles = cm.cycles(&stats);
    let issue = stats.accesses as f64 * cm.issue / cycles;
    let d_to_b = stats.d_misses.saturating_sub(stats.b_misses) as f64 * cm.d_miss / cycles;
    let b_to_mem = stats.b_misses as f64 * cm.b_miss / cycles;
    let tlb = stats.tlb_misses as f64 * cm.tlb_miss / cycles;

    let mut t3 = Table::new(["component", "modeled", "paper"]);
    for (component, share, paper) in [
        ("issuing", issue, "29%"),
        ("D-stream stall, D-to-B", d_to_b, "12%"),
        ("D-stream stall, B-to-memory", b_to_mem, "44%"),
        ("TLB fill (PAL)", tlb, "~9% PAL"),
    ] {
        let modeled = format!("{:.0}%", share * 100.0);
        t3.row([component.to_string(), modeled, paper.to_string()]);
    }
    r.table(t3);
    r.line("");
    let says = "\"the processor spends most of its time waiting for memory\"";
    let stalled = (1.0 - issue) * 100.0;
    r.claim(Model.between("fig7.stall", says, (50.0, 100.0), stalled, "% stalled"));
    r
}
