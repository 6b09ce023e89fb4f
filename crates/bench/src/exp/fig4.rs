//! Figure 4: the replacement-selection tournament thrashes the cache; the
//! QuickSort of (key-prefix, pointer) pairs is cache resident. Plus the §4
//! clustering ablation ("reduces cache misses by a factor of two or three")
//! and the §4 claim that QuickSort is ~2.5× faster than the best tournament
//! sort (measured in wall-clock on the host). Every row runs the same two
//! exhibits, `variants::rs` and `variants::key_prefix_order`: the miss rows
//! observe them through the cache simulator, the wall-clock rows time them.

use alphasort_cachesim::{Hierarchy, TournamentLayout, Within, OUT_BASE, TREE_BASE};
use alphasort_dmgen::records_of;

use super::*;
use crate::variants::key_prefix_order;
use crate::variants::rs::generate_runs;

pub fn run() -> Report {
    let mut r = Report::default();
    let n = 200_000u64;
    let w = 65_536usize;
    let (data, _) = generate(GenConfig::datamation(n, 1));
    let recs = records_of(&data);

    r.line(format!(
        "== Figure 4: cache misses, tournament vs QuickSort ({n} records) ==\n"
    ));
    let mut t = Table::new(["kernel", "D-miss/rec", "B-miss/rec", "TLB/rec"]);

    let mut rows = Vec::new();
    // Replacement-selection over records — the OpenVMS-sort approach of
    // Figure 4's left side — naive and clustered tree layouts, with and
    // without the slot and record traffic (tree-only isolates the
    // clustering claim).
    for layout in [TournamentLayout::Naive, TournamentLayout::Clustered] {
        for (traffic, range) in [("", 0..u64::MAX), (" (tree only)", TREE_BASE..OUT_BASE)] {
            let mut mem = Hierarchy::alpha_axp();
            generate_runs(recs, w, layout, &mut Within(range, &mut mem));
            let label = format!("tournament/{}{traffic}", layout.name());
            rows.push((label, mem.stats().per_elem(recs.len())));
        }
    }
    // AlphaSort's run formation: key-prefix QuickSort of one 100,000-record
    // run — the unit Figure 4's right side depicts as cache resident (the
    // 1.6 MB entry array fits the 4 MB B-cache outright).
    let run = 100_000;
    let mut mem = Hierarchy::alpha_axp();
    key_prefix_order(&data[..run * RECORD_LEN], &mut mem);
    rows.push((
        "quicksort/key-prefix (one run)".to_string(),
        mem.stats().per_elem(run),
    ));
    for (label, [d, b, tlb]) in &rows {
        t.row([
            label.clone(),
            format!("{d:.2}"),
            format!("{b:.3}"),
            format!("{tlb:.3}"),
        ]);
    }
    r.table(t);

    // D-misses per record: naive full and tree-only, clustered full and
    // tree-only, QuickSort.
    let d = |row: usize| rows[row].1[0];
    r.line("");
    let says = "clustering \"reduces cache misses by a factor of two or three\" (tree only)";
    let gain = d(1) / d(3);
    r.claim(Model.between("fig4.clustering", says, (2.0, 3.0), gain, "x"));
    let says = "the tournament over records thrashes, QuickSort's run is cache resident";
    let (fewer, range) = (d(0) / d(4), (2.0, f64::INFINITY));
    r.claim(Model.between("fig4.contrast", says, range, fewer, "x fewer D-misses"));

    r.line("\n== §4 wall-clock: QuickSort vs replacement-selection run formation ==\n");
    let records_n = 400_000u64;
    let (data, _) = generate(GenConfig::datamation(records_n, 3));
    let recs = records_of(&data);

    let t0 = Instant::now();
    let order = key_prefix_order(&data, &mut ());
    let quick_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(order);

    let t0 = Instant::now();
    let runs = generate_runs(recs, 100_000, TournamentLayout::Naive, &mut ());
    let rs_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&runs);

    let mut t2 = Table::new(["run formation", "seconds", "runs", "notes"]);
    t2.row([
        "quicksort (key-prefix)".to_string(),
        format!("{quick_s:.3}"),
        "1".to_string(),
        "one in-memory run".to_string(),
    ]);
    t2.row([
        "replacement-selection".to_string(),
        format!("{rs_s:.3}"),
        runs.len().to_string(),
        "runs ≈ 2× memory".to_string(),
    ]);
    r.table(t2);
    r.line("");
    let says = "QuickSort beats replacement-selection 2.5:1 (Knuth computed 2:1)";
    let (ratio, range) = (rs_s / quick_s, (2.0, f64::INFINITY));
    r.claim(Host.between("fig4.speed", says, range, ratio, ":1"));
    r
}
