//! Figure 4: the replacement-selection tournament thrashes the cache; the
//! QuickSort of (key-prefix, pointer) pairs is cache resident. Plus the §4
//! clustering ablation ("reduces cache misses by a factor of two or three")
//! and the §4 claim that QuickSort is ~2.5× faster than the best tournament
//! sort (measured in wall-clock on the host).

use std::time::Instant;

use alphasort_bench::variants::key_prefix_order;
use alphasort_bench::variants::rs::generate_runs;
use alphasort_cachesim::{
    traced_quicksort, traced_tournament_sort, Hierarchy, QuickSortVariant, TournamentLayout,
};
use alphasort_dmgen::{generate, records_of, GenConfig};
use alphasort_perfmodel::table::Table;

fn main() {
    let n = 200_000usize;
    let w = 65_536usize;

    println!("== Figure 4: cache misses, tournament vs QuickSort ({n} records) ==\n");
    let mut t = Table::new(["kernel", "D-miss/rec", "B-miss/rec", "TLB/rec"]);

    let mut rows = Vec::new();
    // Replacement-selection over records — the OpenVMS-sort approach of
    // Figure 4's left side — naive and clustered tree layouts, with and
    // without the record traffic (tree-only isolates the clustering claim).
    for layout in [TournamentLayout::Naive, TournamentLayout::Clustered] {
        for record_traffic in [true, false] {
            let mut mem = Hierarchy::alpha_axp();
            let r = traced_tournament_sort(n, w, 1, layout, record_traffic, &mut mem);
            let label = format!(
                "tournament/{}{}",
                layout.name(),
                if record_traffic { "" } else { " (tree only)" }
            );
            rows.push((label, record_traffic, r));
        }
    }
    // AlphaSort's run formation: key-prefix QuickSort of one 100,000-record
    // run — the unit Figure 4's right side depicts as cache resident (the
    // 1.6 MB entry array fits the 4 MB B-cache outright).
    {
        let mut mem = Hierarchy::alpha_axp();
        let r = traced_quicksort(100_000, 1, QuickSortVariant::KeyPrefix, &mut mem);
        rows.push(("quicksort/key-prefix (one run)".to_string(), true, r));
    }
    for (label, _, r) in &rows {
        t.row([
            label.clone(),
            format!("{:.2}", r.d_misses_per_elem()),
            format!("{:.3}", r.b_misses_per_elem()),
            format!("{:.3}", r.tlb_misses_per_elem()),
        ]);
    }
    print!("{}", t.render());

    let naive_full = rows[0].2.d_misses_per_elem();
    let naive_tree = rows[1].2.d_misses_per_elem();
    let clus_tree = rows[3].2.d_misses_per_elem();
    let quick = rows[4].2.d_misses_per_elem();
    println!(
        "\nclustering gain (tree only): {:.2}x fewer D-misses \
         (paper: \"a factor of two or three\")",
        naive_tree / clus_tree
    );
    println!(
        "quicksort run formation vs tournament-over-records: {:.1}x fewer \
         D-misses (Figure 4's contrast)",
        naive_full / quick
    );

    println!("\n== §4 wall-clock: QuickSort vs replacement-selection run formation ==\n");
    let records_n = 400_000u64;
    let (data, _) = generate(GenConfig::datamation(records_n, 3));
    let recs = records_of(&data).to_vec();

    let t0 = Instant::now();
    let order = key_prefix_order(&data);
    let quick_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(order);

    let t0 = Instant::now();
    let runs = generate_runs(&recs, 100_000);
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
    print!("{}", t2.render());
    println!(
        "\nspeed ratio: {:.1}:1 in QuickSort's favour \
         (paper observed 2.5:1; Knuth computed 2:1)",
        rs_s / quick_s
    );
}
