//! §4's cache claims, measured on the exhibits the experiments time: the
//! cache simulator observes `variants::Representation`, `variants::rs` and
//! the pipeline's merge and gather (`variants::trace`), and observing them
//! changes nothing they compute.

use alphasort_bench::variants::rs::generate_runs;
use alphasort_bench::variants::trace::merge_gather;
use alphasort_bench::variants::Representation;
use alphasort_cachesim::{HierStats, Hierarchy, TournamentLayout, Within, OUT_BASE, TREE_BASE};
use alphasort_core::gather::merge_gather_all;
use alphasort_core::runform::{form_run, SortedRun};
use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution, RECORD_LEN};

fn datamation(n: u64, seed: u64) -> Vec<u8> {
    generate(GenConfig::datamation(n, seed)).0
}

fn runs_of(data: &[u8], runs: usize) -> Vec<SortedRun> {
    let per = data.len() / RECORD_LEN / runs;
    data.chunks(per * RECORD_LEN)
        .map(|c| form_run(c.to_vec()))
        .collect()
}

/// D-cache misses per element.
fn d_per_elem(stats: HierStats, n: usize) -> f64 {
    stats.per_elem(n)[0]
}

fn traced_sort(rep: Representation, data: &[u8]) -> HierStats {
    let mut mem = Hierarchy::alpha_axp();
    rep.sort(&mut data.to_vec(), &mut mem);
    mem.stats()
}

fn traced_tournament(
    data: &[u8],
    w: usize,
    layout: TournamentLayout,
    tree_only: bool,
) -> HierStats {
    let mut mem = Hierarchy::alpha_axp();
    let range = if tree_only {
        TREE_BASE..OUT_BASE
    } else {
        0..u64::MAX
    };
    generate_runs(records_of(data), w, layout, &mut Within(range, &mut mem));
    mem.stats()
}

/// (merge, gather) counters of one merge and gather of `runs`.
fn traced_merge_gather(runs: &[SortedRun]) -> (HierStats, HierStats) {
    let (mut merge, mut gather) = (Hierarchy::alpha_axp(), Hierarchy::alpha_axp());
    merge_gather(runs, &mut merge, &mut gather);
    (merge.stats(), gather.stats())
}

#[test]
fn key_prefix_has_fewest_d_misses() {
    // The §4 ordering: record ≫ pointer > key ≥ key-prefix.
    let data = datamation(20_000, 7);
    let misses = |rep| traced_sort(rep, &data).d_misses;
    let rec = misses(Representation::Record);
    let ptr = misses(Representation::Pointer);
    let key = misses(Representation::Key);
    let pfx = misses(Representation::KeyPrefix);
    assert!(rec > ptr, "record {rec} vs pointer {ptr}");
    assert!(ptr > key, "pointer {ptr} vs key {key}");
    assert!(key >= pfx, "key {key} vs prefix {pfx}");
    assert!(rec as f64 > 2.0 * pfx as f64, "record/prefix < 2:1");
}

#[test]
fn clustering_reduces_tree_misses() {
    // Large tournament (working set ≫ D-cache): the clustered layout must
    // cut the tree's own D-misses noticeably.
    let (n, w) = (60_000, 16_384);
    let data = datamation(n, 5);
    let naive = traced_tournament(&data, w, TournamentLayout::Naive, true);
    let clus = traced_tournament(&data, w, TournamentLayout::Clustered, true);
    assert!(
        (naive.d_misses as f64) > 1.15 * clus.d_misses as f64,
        "naive {} vs clustered {}",
        naive.d_misses,
        clus.d_misses
    );
}

#[test]
fn quicksort_beats_tournament_on_misses() {
    // Figure 4's headline: for the same records sorted, the tournament
    // misses far more than the cache-resident QuickSort. The tournament
    // also copies its output, which the QuickSort leaves to the gather, so
    // the factor is generous.
    let n = 30_000;
    let data = datamation(n, 9);
    let t = traced_tournament(&data, 8_192, TournamentLayout::Naive, false);
    let q = traced_sort(Representation::KeyPrefix, &data);
    let (t, q) = (d_per_elem(t, n as usize), d_per_elem(q, n as usize));
    assert!(t > 2.0 * q, "tournament {t} vs quicksort {q}");
}

#[test]
fn merge_tree_is_cache_resident() {
    // §4: "Because the merge tree is small, it has excellent cache
    // behavior." 10-way merge of 50k records: well under 1 D-miss per
    // record, and orders of magnitude below the gather's.
    let n = 50_000;
    let (merge, gather) = traced_merge_gather(&runs_of(&datamation(n as u64, 3), 10));
    let (m, g) = (d_per_elem(merge, n), d_per_elem(gather, n));
    assert!(m < 1.0, "merge d/elem {m}");
    assert!(g > 4.0 * m, "gather {g} vs merge {m}");
}

#[test]
fn gather_has_terrible_tlb_behaviour() {
    // 50 k records = 5 MB, far over the TLB's 32 × 8 KB = 256 KB reach.
    let n = 50_000;
    let (_, gather) = traced_merge_gather(&runs_of(&datamation(n as u64, 11), 10));
    let [d, _, tlb] = gather.per_elem(n);
    assert!(tlb > 0.5, "tlb/elem {tlb}");
    // Random 100-byte reads over 5 MB: most of the 4 lines per record miss
    // in D.
    assert!(d > 3.0, "d/elem {d}");
}

/// Observing an exhibit changes nothing it computes: the traced run and the
/// `()` run return the same permutation, the same runs, the same output.
#[test]
fn observed_and_timed_runs_compute_the_same() {
    for (name, dist) in KeyDistribution::STRESS {
        let (data, _) = generate(GenConfig {
            records: 3_000,
            seed: 0x0B5,
            dist,
        });
        for rep in Representation::ALL {
            let (mut timed, mut traced) = (data.clone(), data.clone());
            let order = rep.sort(&mut timed, &mut ());
            let traced_order = rep.sort(&mut traced, &mut Hierarchy::alpha_axp());
            assert_eq!(order, traced_order, "{} [{name}]", rep.name());
            assert!(timed == traced, "{} [{name}]: records differ", rep.name());
        }
        for layout in [TournamentLayout::Naive, TournamentLayout::Clustered] {
            let records = records_of(&data);
            let timed = generate_runs(records, 256, layout, &mut ());
            let traced = generate_runs(records, 256, layout, &mut Hierarchy::alpha_axp());
            assert!(timed == traced, "rs/{} [{name}]", layout.name());
        }
        let runs = runs_of(&data, 7);
        let (mut merge, mut gather) = (Hierarchy::alpha_axp(), Hierarchy::alpha_axp());
        let out = merge_gather(&runs, &mut merge, &mut gather);
        assert!(out == merge_gather_all(&runs), "merge_gather [{name}]");
    }
}

/// The simulator sees addresses from region bases, never raw pointers, so
/// two observed runs give identical counters.
#[test]
fn observed_runs_are_deterministic() {
    let data = datamation(5_000, 0xCA5);
    for rep in Representation::ALL {
        assert_eq!(
            traced_sort(rep, &data),
            traced_sort(rep, &data),
            "{}",
            rep.name()
        );
    }
    for layout in [TournamentLayout::Naive, TournamentLayout::Clustered] {
        let rs = || traced_tournament(&data, 512, layout, false);
        assert_eq!(rs(), rs(), "rs/{}", layout.name());
    }
    let runs = runs_of(&data, 5);
    assert_eq!(traced_merge_gather(&runs), traced_merge_gather(&runs));
}
