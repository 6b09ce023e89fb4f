//! §4's CPU-time comparison of the QuickSort representations:
//!
//! * "record sort was 30% slower than pointer sort and 270% slower than key
//!   sort" (i.e. key sort ≈ 3.7× faster than record sort),
//! * "the QuickSort time improved by 25%" moving from full keys to
//!   prefixes,
//!
//! shown two ways from one implementation per representation: wall-clock on
//! the modern host, and miss counts on the simulated 1993 hierarchy, which
//! observes the very code that is timed — because thirty years of cache
//! growth and prefetching have *inverted* part of the 1993 ordering (see
//! the notes the report carries). Also: the footnote's 256-bucket partition
//! sort, the pipeline's own run formation (`form_run`, an MSD string sort
//! over the same prefix entries), and the merger's two compare policies
//! held against each other on merge effort.

use alphasort_cachesim::Hierarchy;
use alphasort_core::merge::{ComparePolicy, MergeEffort, Merger, Ovc, PrefixThenKey, RunCursors};
use alphasort_core::runform::{form_run, SortedRun};
use alphasort_dmgen::KeyDistribution;

use super::*;
use crate::variants::Representation;

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

pub fn run() -> Report {
    let mut r = Report::default();
    let n = 1_000_000u64;
    let (data, _) = generate(GenConfig::datamation(n, 0xA1FA));

    // The simulator replays a tenth of the host's input: one 100,000-record
    // run, the unit §4 sorts.
    let traced_n = 100_000;
    let traced_data = &data[..traced_n * RECORD_LEN];
    r.line(format!(
        "== §4 representations: host wall-clock ({n} records), \
         1993 hierarchy ({traced_n} records, cache simulator) ==\n"
    ));
    let secs = Representation::ALL.map(|rep| {
        best_of_3(
            || data.clone(),
            |mut buf| (rep.sort(&mut buf, &mut ()), buf),
        )
    });
    let misses = Representation::ALL.map(|rep| {
        let mut mem = Hierarchy::alpha_axp();
        rep.sort(&mut traced_data.to_vec(), &mut mem);
        mem.stats().per_elem(traced_n)
    });
    let [record_t, pointer_t, key_t, prefix_t, partition_t, _] = secs;
    let pipeline_t = best_of_3(|| data.clone(), form_run);

    let mut t = Table::new([
        "representation",
        "seconds",
        "speed vs record",
        "D-miss/rec",
        "B-miss/rec",
        "vs record (D)",
    ]);
    for ((rep, secs), [d, b, _]) in Representation::ALL.into_iter().zip(secs).zip(misses) {
        t.row([
            rep.name().to_string(),
            format!("{secs:.3}"),
            format!("{:.2}x", record_t / secs),
            format!("{d:.2}"),
            format!("{b:.3}"),
            format!("{:.2}x", misses[0][0] / d),
        ]);
    }
    t.row([
        "pipeline".to_string(),
        format!("{pipeline_t:.3}"),
        format!("{:.2}x", record_t / pipeline_t),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    r.table(t);
    r.line(
        "\n(the pipeline's msd_sort is std's sort_unstable over entries and is not\n\
         traced: observing it would take a third sort; its merge and gather are,\n\
         in exp fig7 and the cache-claim tests)",
    );
    let d_miss = misses.map(|m| m[0]);

    r.line("\npaper vs this reproduction:");
    // "the QuickSort time improved by 25%" from full keys to prefixes.
    r.claim(Host.near("variants.prefix", 1.25, key_t / prefix_t, 0.2, "x"));
    // "270% slower than key sort": record/key = 3.7 in cpu, set against
    // the simulated D-misses.
    let record_key = d_miss[0] / d_miss[2];
    r.claim(Model.near("variants.record_key", 3.7, record_key, 0.1, "x"));
    // "record sort was 30% slower than pointer sort": record's speed is
    // 0.77x pointer's.
    let record_speed = pointer_t / record_t;
    r.claim(Host.near("variants.pointer", 0.77, record_speed, 0.2, "x"));
    if record_speed > 1.0 {
        r.line(
            "  (record sort outruns pointer sort here: 32 MB caches and prefetchers make\n\
             200-byte exchanges cheap while pointer sort's random dereferences pay full\n\
             memory latency — the paper's own prediction, \"this trend will widen the\n\
             speed gap\", playing out.)",
        );
    }
    let says = "a 256-bucket partition sort \"might beat AlphaSort\"";
    let (gain, range) = (prefix_t / partition_t, (1.0, f64::INFINITY));
    r.claim(Host.between("variants.partition", says, range, gain, "x"));
    r.line(format!(
        "  pipeline vs partition (host): {:.2}x — the pipeline sorts the same prefixes\n\
         as plain integers and settles a prefix tie once per group, not per compare.",
        partition_t / pipeline_t
    ));

    r.line("\n== OVC merge effort (the technique the authors were evaluating) ==\n");
    let mut t2 = Table::new([
        "key distribution",
        "plain key-bytes",
        "ovc key-bytes",
        "saving",
    ]);
    let mut savings = Vec::new();
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
        let saving = (1.0 - ovc.key_bytes as f64 / plain.key_bytes as f64) * 100.0;
        t2.row([
            label.to_string(),
            plain.key_bytes.to_string(),
            ovc.key_bytes.to_string(),
            format!("{saving:.1}%"),
        ]);
        savings.push(saving);
    }
    r.table(t2);
    r.line("");
    let says = "\"For binary data, like the keys of the Datamation benchmark, offset \
                value coding will not beat AlphaSort's simpler key-prefix sort\" \
                (OVC saves least on random keys)";
    let [random, prefix, dups] = [savings[0], savings[1], savings[2]];
    let measured = format!(
        "saves {random:.1}% of key bytes on random keys, {prefix:.1}% and {dups:.1}% on skewed"
    );
    let holds = random < prefix.min(dups);
    r.claim(Model.check("variants.ovc", says, measured, holds));
    r
}
