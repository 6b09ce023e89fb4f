//! Property tests for the sort core: every driver must produce a sorted
//! permutation for arbitrary inputs and configurations.
//! Cases are driven by a seeded [`SplitMix64`] so every run is reproducible.

use std::sync::Arc;

use alphasort_core::driver::{one_pass, two_pass, StripeScratch};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::runform::form_run;
use alphasort_core::{SortConfig, SortStats};
use alphasort_dmgen::{
    generate, records_of, validate_records, GenConfig, KeyDistribution, Record, SplitMix64,
    RECORD_LEN,
};
use alphasort_stripefs::Volume;

fn any_dist(r: &mut SplitMix64) -> KeyDistribution {
    match r.next_below(7) {
        0 => KeyDistribution::Random,
        1 => KeyDistribution::RandomPrintable,
        2 => KeyDistribution::Sorted,
        3 => KeyDistribution::Reverse,
        4 => KeyDistribution::DupHeavy {
            cardinality: 1 + r.next_below(31) as u32,
        },
        5 => KeyDistribution::CommonPrefix {
            shared: r.next_below(11) as u8,
        },
        _ => KeyDistribution::NearlySorted {
            permille: r.next_below(1001) as u16,
        },
    }
}

/// One-pass sort: sorted permutation for arbitrary everything.
#[test]
fn one_pass_sorts_anything() {
    let mut r = SplitMix64::new(0xA1);
    for case in 0..64 {
        let n = r.next_below(1_200);
        let seed = r.next_u64();
        let dist = any_dist(&mut r);
        let (data, cs) = generate(GenConfig {
            records: n,
            seed,
            dist,
        });
        let mut source = MemSource::new(data, 1 + r.next_below(4_999) as usize);
        let mut sink = MemSink::new();
        let cfg = SortConfig {
            run_records: 1 + r.next_below(399) as usize,
            workers: r.next_below(4) as usize,
            gather_batch: 1 + r.next_below(199) as usize,
            ..Default::default()
        };
        let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
        assert_eq!(outcome.stats.records, n, "case {case}");
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n, "case {case}");
    }
}

/// Two-pass sort: same contract, through scratch.
#[test]
fn two_pass_sorts_anything() {
    let mut r = SplitMix64::new(0xA2);
    for case in 0..64 {
        let n = r.next_below(800);
        let seed = r.next_u64();
        let dist = any_dist(&mut r);
        let (data, cs) = generate(GenConfig {
            records: n,
            seed,
            dist,
        });
        let mut source = MemSource::new(data, 1 + r.next_below(2_999) as usize);
        let mut sink = MemSink::new();
        let volume = Arc::new(Volume::in_memory(2));
        let mut scratch = StripeScratch::new(volume, 16 * RECORD_LEN as u64);
        let cfg = SortConfig {
            run_records: 1 + r.next_below(199) as usize,
            gather_batch: 1 + r.next_below(99) as usize,
            workers: r.next_below(3) as usize,
            max_fanin: 2 + r.next_below(10) as usize,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.records, n, "case {case}");
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n, "case {case}");
    }
}

/// form_run agrees with the standard-library sort.
#[test]
fn run_formation_matches_std_sort() {
    let mut r = SplitMix64::new(0xA4);
    for case in 0..64 {
        let n = r.next_below(500);
        let seed = r.next_u64();
        let dist = any_dist(&mut r);
        let (data, _) = generate(GenConfig {
            records: n,
            seed,
            dist,
        });
        let mut expect: Vec<Record> = records_of(&data).to_vec();
        expect.sort_by_key(|a| a.key);
        let run = form_run(data);
        let got: Vec<[u8; 10]> = run.iter_sorted().map(|rec| rec.key).collect();
        let want: Vec<[u8; 10]> = expect.iter().map(|rec| rec.key).collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// The partition planner's contract, for arbitrary run sets and range
/// counts: the per-run cuts are monotone (ranges are disjoint), the union
/// of cuts covers every record of every run exactly once, and the
/// concatenated per-range merges equal the serial merge of the same runs.
#[test]
fn partition_cuts_are_disjoint_covering_and_order_preserving() {
    use alphasort_core::merge::{Merger, PrefixThenKey, RunCursors};
    use alphasort_core::pmerge::plan_mem_partitions;
    use alphasort_core::runform::SortedRun;

    fn merge<'a>(
        runs: &'a [SortedRun],
        bounds: Option<&[(u32, u32)]>,
    ) -> Merger<RunCursors<'a, SortedRun>, PrefixThenKey> {
        Merger::new(RunCursors::new(runs, bounds), ())
    }

    let mut r = SplitMix64::new(0xA5);
    for case in 0..48 {
        let k = 1 + r.next_below(8) as usize;
        let dist = any_dist(&mut r);
        let runs: Vec<SortedRun> = (0..k)
            .map(|_| {
                let n = r.next_below(300);
                let (data, _) = generate(GenConfig {
                    records: n,
                    seed: r.next_u64(),
                    dist,
                });
                form_run(data)
            })
            .collect();
        let ranges = 1 + r.next_below(9) as usize;
        let samples = 1 + r.next_below(40) as usize;
        let plan = plan_mem_partitions(&runs, ranges, samples);
        assert_eq!(plan.bounds.len(), ranges, "case {case}");
        assert_eq!(plan.range_records.len(), ranges, "case {case}");

        // Disjoint + covering, per run: range j's cut picks up exactly
        // where range j-1's left off, the first starts at 0, the last ends
        // at the run's length.
        for (run_idx, run) in runs.iter().enumerate() {
            let mut prev_end = 0u64;
            for (range_idx, row) in plan.bounds.iter().enumerate() {
                let (s, e) = row[run_idx];
                assert_eq!(s, prev_end, "case {case}: run {run_idx} range {range_idx}");
                assert!(s <= e, "case {case}");
                prev_end = e;
            }
            assert_eq!(prev_end, run.len() as u64, "case {case}: run {run_idx}");
        }
        let total: u64 = runs.iter().map(|run| run.len() as u64).sum();
        assert_eq!(plan.range_records.iter().sum::<u64>(), total, "case {case}");

        // Concatenated range merges == serial merge (pointer-identical,
        // which implies byte-identical output and preserved stability).
        let serial: Vec<(u32, u32)> = merge(&runs, None).map(|p| (p.run, p.pos)).collect();
        let concat: Vec<(u32, u32)> = plan
            .bounds
            .iter()
            .flat_map(|row| {
                let bounds: Vec<(u32, u32)> =
                    row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
                merge(&runs, Some(&bounds))
                    .map(|p| (p.run, p.pos))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(concat, serial, "case {case}");
    }
}

/// Tie-heavy byte-string keys over a tiny alphabet, deliberately including
/// keys that are strict prefixes or extensions of earlier keys — the shapes
/// LCP/OVC comparison logic gets wrong first.
fn tie_heavy_keys(r: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n);
    for _ in 0..n {
        let key = match (keys.is_empty(), r.next_below(4)) {
            (false, 0) => {
                // Prefix of an earlier key (possibly empty, possibly whole).
                let k = &keys[r.next_below(keys.len() as u64) as usize];
                k[..r.next_below(k.len() as u64 + 1) as usize].to_vec()
            }
            (false, 1) => {
                // Proper extension of an earlier key.
                let mut k = keys[r.next_below(keys.len() as u64) as usize].clone();
                for _ in 0..=r.next_below(3) {
                    k.push(b'a' + r.next_below(2) as u8);
                }
                k
            }
            _ => (0..r.next_below(7))
                .map(|_| b'a' + r.next_below(2) as u8)
                .collect(),
        };
        keys.push(key);
    }
    keys
}

/// The OVC invariant itself: relative to a base key every live head is ≥,
/// the offsets (LCP with the base) alone reconstruct comparison order when
/// they differ, and equal offsets reduce the comparison to the suffixes.
/// This is the lemma the LCP-aware loser tree's `leaf_less` rests on.
#[test]
fn ovc_codes_reconstruct_comparison_order() {
    use alphasort_core::varlen::lcp;

    let mut r = SplitMix64::new(0xA6);
    for case in 0..64 {
        let base: Vec<u8> = (0..r.next_below(10))
            .map(|_| b'a' + r.next_below(3) as u8)
            .collect();
        // Keys ≥ base, as in a live merge where base is the last emission:
        // agree with the base up to a cut, then diverge upward or extend.
        let keys: Vec<Vec<u8>> = (0..24)
            .map(|_| {
                let cut = r.next_below(base.len() as u64 + 1) as usize;
                let mut k = base[..cut].to_vec();
                if cut < base.len() {
                    k.push(base[cut] + 1 + r.next_below(2) as u8);
                }
                for _ in 0..r.next_below(4) {
                    k.push(b'a' + r.next_below(3) as u8);
                }
                k
            })
            .collect();
        for k in &keys {
            assert!(k.as_slice() >= base.as_slice(), "case {case}: construction");
        }
        let off: Vec<usize> = keys.iter().map(|k| lcp(&base, k)).collect();
        for a in 0..keys.len() {
            for b in 0..keys.len() {
                if off[a] != off[b] {
                    // Deeper agreement with the base ⇒ strictly smaller key,
                    // with zero key bytes examined.
                    assert_eq!(
                        off[a] > off[b],
                        keys[a] < keys[b],
                        "case {case}: off {}/{} keys {:?}/{:?}",
                        off[a],
                        off[b],
                        keys[a],
                        keys[b]
                    );
                } else {
                    // Equal offsets: suffix order == full-key order.
                    let o = off[a];
                    assert_eq!(
                        keys[a][o..].cmp(&keys[b][o..]),
                        keys[a].cmp(&keys[b]),
                        "case {case}: off {o} keys {:?}/{:?}",
                        keys[a],
                        keys[b]
                    );
                }
            }
        }
    }
}

/// The LCP-aware loser-tree replay returns the exact comparator result on
/// randomized tie-heavy string sets: for arbitrary run shapes the OVC merge
/// and the naive full-key merge both equal the stable sort of the arrival
/// order, byte for byte — including empty keys and keys that are strict
/// prefixes of other keys.
#[test]
fn lcp_replay_is_exact_on_tie_heavy_string_sets() {
    use alphasort_core::layout::LayoutRun;
    use alphasort_core::merge::{ComparePolicy, MergedPtr, Merger, Ovc, PrefixThenKey, RunCursors};
    use alphasort_core::varlen::VarRun;
    use alphasort_dmgen::{build_var_record, parse_var_record};

    fn merged<P: ComparePolicy>(runs: &[VarRun]) -> Vec<MergedPtr> {
        Merger::<_, P, _>::new(RunCursors::new(runs, None), ()).collect()
    }

    let mut r = SplitMix64::new(0xA7);
    for case in 0..48 {
        let n = 1 + r.next_below(400) as usize;
        let keys = tie_heavy_keys(&mut r, n);
        let per = 1 + r.next_below(60) as usize;
        let runs: Vec<VarRun> = keys
            .chunks(per)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let mut frames = Vec::new();
                for (i, k) in chunk.iter().enumerate() {
                    let seq = (chunk_idx * per + i) as u64;
                    frames.extend_from_slice(&build_var_record(k, &seq.to_le_bytes()));
                }
                VarRun::from_frames(frames).unwrap()
            })
            .collect();

        // Stable reference: arrival order is the concatenated run order.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
        let want: Vec<(Vec<u8>, u64)> = idx.iter().map(|&i| (keys[i].clone(), i as u64)).collect();

        let merges = [
            ("Ovc", merged::<Ovc>(&runs)),
            ("Naive", merged::<PrefixThenKey>(&runs)),
        ];
        for (mode, ptrs) in merges {
            let got: Vec<(Vec<u8>, u64)> = ptrs
                .into_iter()
                .map(|p| {
                    let run = &runs[p.run as usize];
                    let rec = parse_var_record(run.frame_at(p.pos as usize), 0).unwrap();
                    (rec.key().to_vec(), rec.seq().unwrap())
                })
                .collect();
            assert_eq!(got, want, "case {case} ({mode:?})");
        }
    }
}

/// Sanity: stats plumbed through a real run.
#[test]
fn stats_are_populated() {
    let (data, _) = generate(GenConfig::datamation(5_000, 1));
    let mut source = MemSource::new(data, 100 * RECORD_LEN);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        run_records: 1_000,
        gather_batch: 500,
        workers: 2,
        ..Default::default()
    };
    let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
    let st: &SortStats = &outcome.stats;
    assert_eq!(st.runs, 5);
    assert_eq!(st.avg_run_len(), 1_000.0);
    assert!(st.elapsed.as_nanos() > 0);
    assert!(st.sort_time.as_nanos() > 0);
    assert!(st.one_pass);
}

/// The run cutter is blind to chunk boundaries: for both layouts, with and
/// without resume skip spans, any chunking of an input yields the same cuts
/// as feeding it whole.
#[test]
fn any_chunking_cuts_like_the_whole_input() {
    use alphasort_core::driver::RecoveredRun;
    use alphasort_core::layout::{Cut, RunCutter};
    use alphasort_core::RecordLayout;
    use alphasort_dmgen::{generate_varlen, TextCorpus, VarGenConfig};

    fn cuts(
        layout: RecordLayout,
        run_records: usize,
        skip: &[RecoveredRun],
        pieces: &[&[u8]],
    ) -> Vec<Cut> {
        let mut cutter = RunCutter::new(layout, run_records, None, skip.to_vec());
        let mut out = Vec::new();
        for piece in pieces {
            cutter.push(piece, &mut out).unwrap();
        }
        cutter.finish(&mut out).unwrap();
        out
    }

    let mut r = SplitMix64::new(0xA9);
    for case in 0..96 {
        let layout = RecordLayout::ALL[case % 2];
        let n = r.next_below(300);
        let seed = r.next_u64();
        let data = match layout {
            RecordLayout::Datamation => generate(GenConfig::datamation(n, seed)).0,
            RecordLayout::VarLen => generate_varlen(VarGenConfig {
                records: n,
                seed,
                corpus: TextCorpus::Urls,
            }),
        };
        // Every other case skips disjoint spans between random record
        // indices, the last possibly ending the input.
        let mut skip = Vec::new();
        let mut at = 0;
        while case % 4 >= 2 && at < n {
            at += r.next_below(20);
            let records = (1 + r.next_below(30)).min(n.saturating_sub(at));
            if records == 0 {
                break;
            }
            skip.push(RecoveredRun {
                start_record: at,
                records,
            });
            at += records;
        }
        // Chunks of 1 to 600 bytes, a new size for every chunk.
        let mut pieces = Vec::new();
        let mut rest = &data[..];
        while !rest.is_empty() {
            let len = (1 + r.next_below(600) as usize).min(rest.len());
            let (piece, tail) = rest.split_at(len);
            pieces.push(piece);
            rest = tail;
        }
        let run_records = 1 + r.next_below(60) as usize;
        let whole = cuts(layout, run_records, &skip, &[&data]);
        let chunked = cuts(layout, run_records, &skip, &pieces);
        assert!(
            whole == chunked,
            "case {case}: {} n={n} run={run_records} skip={skip:?}",
            layout.name()
        );
    }
}
