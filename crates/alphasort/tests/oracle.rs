//! Differential sort oracle: every driver configuration must produce
//! **byte-identical** output for the same input.
//!
//! The ground truth is Rust's stable slice sort by full key. Because every
//! dmgen record embeds a unique sequence number in its payload, the stable
//! sort's output is *unique*: any two correct stable sorts agree on every
//! byte. Each case below therefore checks the one-pass AlphaSort pipeline
//! (serial and partitioned merge) and the two-pass driver (serial,
//! partitioned, cascade, and crash-resumed) against the same reference
//! bytes — a divergence anywhere, including equal-key order on dup-heavy
//! inputs, fails with the first differing record.
//!
//! Both record layouts run every time, and every partitioned merge runs at
//! 1, 2, 4 and 8 workers. The shared-nothing topology (§2's partitioned
//! sort) is held to the same reference over the same inputs by netsort's
//! own oracle, `crates/netsort/tests/oracle.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use alphasort_core::driver::{one_pass, two_pass, StripeScratch, INDEX_EVERY};
use alphasort_core::io::{MemSink, MemSource, RecordSink};
use alphasort_core::varlen::sort_var_bytes;
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, records_of, records_of_mut, var_records_of, GenConfig,
    KeyDistribution, TextCorpus, VarGenConfig, RECORD_LEN,
};
use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};
use alphasort_minijson::Json;
use alphasort_stripefs::Volume;

/// Ground truth: stable sort by full key, concatenated back to bytes.
fn stable_reference(data: &[u8]) -> Vec<u8> {
    let mut recs = records_of(data).to_vec();
    recs.sort_by_key(|r| r.key); // slice::sort_by_key is stable
    let mut out = Vec::with_capacity(data.len());
    for r in &recs {
        out.extend_from_slice(r.as_bytes());
    }
    out
}

/// Merge-worker counts every partitioned driver is held to.
const MERGE_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Index of the first differing record, for a readable failure.
fn assert_identical(got: &[u8], want: &[u8], what: &str) {
    if got == want {
        return;
    }
    assert_eq!(got.len(), want.len(), "{what}: output length diverged");
    let at = got
        .chunks(RECORD_LEN)
        .zip(want.chunks(RECORD_LEN))
        .position(|(g, w)| g != w)
        .expect("unequal outputs must differ somewhere");
    panic!(
        "{what}: first divergence at record {at}: got key {:?}, want key {:?}",
        &got[at * RECORD_LEN..at * RECORD_LEN + 10],
        &want[at * RECORD_LEN..at * RECORD_LEN + 10],
    );
}

fn run_one_pass(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 9_973); // ragged chunks
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, cfg).unwrap();
    sink.into_inner()
}

fn run_two_pass(data: &[u8], cfg: &SortConfig, mut scratch: StripeScratch) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 9_973);
    let mut sink = MemSink::new();
    two_pass(&mut source, &mut sink, &mut scratch, cfg).unwrap();
    sink.into_inner()
}

/// The store every two-pass cell spills to: striped over two in-memory
/// disks in `chunk`-byte chunks.
fn mem_scratch(chunk: usize, layout: RecordLayout) -> StripeScratch {
    StripeScratch::new(Arc::new(Volume::in_memory(2)), chunk as u64).with_layout(layout)
}

/// Where a case's crashed scratch keeps its run manifest.
fn case_manifest(seed: u64) -> PathBuf {
    let name = format!("alphasort-oracle-{}-{seed:#x}.manifest", std::process::id());
    std::env::temp_dir().join(name)
}

/// A scratch that survived a crash holding one pre-formed run, `run`
/// (`records` records, sparse `index`): sealed through a store like
/// [`mem_scratch`]'s, manifested at `manifest`, dropped undisposed, and
/// resumed over the same volume —
/// the in-process restart sortd performs. The run is sealed as its sort's
/// first; the manifest edit puts it at input record `start`, where the
/// crashed sort had it.
fn crashed_scratch(
    (chunk, layout): (usize, RecordLayout),
    manifest: &Path,
    start: u64,
    (run, records, index): (Vec<u8>, u64, Vec<u64>),
) -> StripeScratch {
    let volume = Arc::new(Volume::in_memory(2));
    let mut s = StripeScratch::new(Arc::clone(&volume), chunk as u64).with_layout(layout);
    s.attach_manifest(manifest, 0, records).unwrap();
    let mut w = s.create_run(run.len() as u64).unwrap();
    w.push(&run).unwrap();
    s.seal_run(w, records, index).unwrap();
    drop(s);
    let text = std::fs::read_to_string(manifest).unwrap();
    let text = text.replace("\"start\": 0", &format!("\"start\": {start}"));
    std::fs::write(manifest, text).unwrap();
    let (s, report) = StripeScratch::resume(volume, manifest).unwrap();
    assert_eq!(report.recovered.len(), 1, "{report:?}");
    s
}

/// A scratch whose middle run survived a crash: the run covering records
/// `[run_records, 2*run_records)` is pre-formed (stable sort — exactly what
/// pass 1 would have spilled) and resumed, driving the resume path of the
/// two-pass driver.
fn resumed_scratch(data: &[u8], run_records: usize, manifest: &Path) -> StripeScratch {
    assert!(data.len() / RECORD_LEN >= 3 * run_records, "need 3+ runs");
    let mut middle = data[run_records * RECORD_LEN..2 * run_records * RECORD_LEN].to_vec();
    records_of_mut(&mut middle).sort_by_key(|r| r.key);
    let run = (middle, run_records as u64, Vec::new());
    let store = (40 * RECORD_LEN, RecordLayout::Datamation);
    crashed_scratch(store, manifest, run_records as u64, run)
}

/// Run every driver configuration over one seeded input and compare all
/// outputs against the stable reference.
fn oracle_case(records: u64, seed: u64, dist: KeyDistribution) {
    let what = format!("{records} records, seed {seed:#x}, {dist:?}");
    let manifest = case_manifest(seed);
    let (data, _) = generate(GenConfig {
        records,
        seed,
        dist,
    });
    let want = stable_reference(&data);
    let fresh = || mem_scratch(40 * RECORD_LEN, RecordLayout::Datamation);

    let run_records = (records as usize / 7).max(1);
    let base = SortConfig {
        run_records,
        gather_batch: 128,
        workers: 2,
        ..Default::default()
    };

    // One-pass, serial tournament merge.
    let got = run_one_pass(&data, &base);
    assert_identical(&got, &want, &format!("one-pass serial [{what}]"));

    // One-pass, partitioned merge at every worker count.
    for p in MERGE_WORKER_COUNTS {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_one_pass(&data, &cfg);
        assert_identical(&got, &want, &format!("one-pass P={p} [{what}]"));
    }

    // Two-pass, serial final merge.
    let got = run_two_pass(&data, &base, fresh());
    assert_identical(&got, &want, &format!("two-pass serial [{what}]"));

    // Two-pass, partitioned final merge at every worker count.
    for p in MERGE_WORKER_COUNTS {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_two_pass(&data, &cfg, fresh());
        assert_identical(&got, &want, &format!("two-pass P={p} [{what}]"));

        // Same, with cascade levels forced in front of the final merge.
        let cascade = SortConfig {
            max_fanin: 3,
            ..cfg
        };
        let got = run_two_pass(&data, &cascade, fresh());
        assert_identical(&got, &want, &format!("two-pass cascade P={p} [{what}]"));

        // Same, resuming over a scratch with a surviving middle run.
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_two_pass(&data, &cfg, resumed_scratch(&data, run_records, &manifest));
        assert_identical(&got, &want, &format!("two-pass resumed P={p} [{what}]"));
    }

    // Resumed two-pass with the serial merge, for completeness.
    let got = run_two_pass(&data, &base, resumed_scratch(&data, run_records, &manifest));
    assert_identical(&got, &want, &format!("two-pass resumed serial [{what}]"));
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn oracle_random_keys() {
    oracle_case(3_000, 0xAC1E1, KeyDistribution::Random);
}

#[test]
fn oracle_dup_heavy_stability() {
    // Few distinct keys: every driver must keep equal keys in input order
    // or the embedded sequence numbers diverge from the reference.
    oracle_case(3_000, 0xAC1E2, KeyDistribution::DupHeavy { cardinality: 5 });
}

#[test]
fn oracle_two_distinct_keys() {
    oracle_case(2_000, 0xAC1E3, KeyDistribution::DupHeavy { cardinality: 2 });
}

#[test]
fn oracle_presorted_input() {
    oracle_case(2_000, 0xAC1E4, KeyDistribution::Sorted);
}

#[test]
fn oracle_reversed_input() {
    oracle_case(2_000, 0xAC1E5, KeyDistribution::Reverse);
}

#[test]
fn oracle_common_prefix_keys() {
    oracle_case(2_000, 0xAC1E6, KeyDistribution::CommonPrefix { shared: 9 });
}

#[test]
fn oracle_nearly_sorted_input() {
    oracle_case(
        2_000,
        0xAC1E7,
        KeyDistribution::NearlySorted { permille: 50 },
    );
}

// ---------------------------------------------------------------------------
// Variable-length layout: the same oracle over string-keyed frames.
// ---------------------------------------------------------------------------

/// Ground truth for the var-len layout: stable sort of the parsed frames by
/// key bytes, concatenated back. Unique because every generated body embeds
/// a sequence number right after the key.
fn var_stable_reference(data: &[u8]) -> Vec<u8> {
    let recs = var_records_of(data).expect("generated corpus parses");
    let mut idx: Vec<usize> = (0..recs.len()).collect();
    idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
    let mut out = Vec::with_capacity(data.len());
    for i in idx {
        out.extend_from_slice(recs[i].frame());
    }
    out
}

/// First differing frame, for a readable var-len failure.
fn var_assert_identical(got: &[u8], want: &[u8], what: &str) {
    if got == want {
        return;
    }
    assert_eq!(got.len(), want.len(), "{what}: output length diverged");
    let g = var_records_of(got).expect("output parses");
    let w = var_records_of(want).expect("reference parses");
    let at = g
        .iter()
        .zip(&w)
        .position(|(a, b)| a.frame() != b.frame())
        .expect("unequal outputs must differ somewhere");
    panic!(
        "{what}: first divergence at record {at}: got key {:?} seq {:?}, \
         want key {:?} seq {:?}",
        g[at].key(),
        g[at].seq(),
        w[at].key(),
        w[at].seq(),
    );
}

fn var_one_pass(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 997); // ragged, frame-straddling
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, cfg).unwrap();
    sink.into_inner()
}

fn var_two_pass(data: &[u8], cfg: &SortConfig, scratch: &mut StripeScratch) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 997);
    let mut sink = MemSink::new();
    two_pass(&mut source, &mut sink, scratch, cfg).unwrap();
    sink.into_inner()
}

/// An empty in-memory scratch for var-len runs, striped in ragged
/// frame-straddling chunks.
fn var_scratch() -> StripeScratch {
    mem_scratch(997, RecordLayout::VarLen)
}

/// A var-len scratch whose middle run survived a crash: frames for records
/// `[run_records, 2*run_records)` pre-sorted exactly as pass 1 would have
/// spilled them.
fn resumed_var_scratch(data: &[u8], run_records: usize, manifest: &Path) -> StripeScratch {
    let recs = var_records_of(data).expect("corpus parses");
    assert!(recs.len() >= 3 * run_records, "need 3+ runs");
    let window = &recs[run_records..2 * run_records];
    let mut idx: Vec<usize> = (0..window.len()).collect();
    idx.sort_by(|&a, &b| window[a].key().cmp(window[b].key()).then(a.cmp(&b)));
    let (mut bytes, mut index) = (Vec::new(), Vec::new());
    for (n, i) in idx.into_iter().enumerate() {
        if (n as u64).is_multiple_of(INDEX_EVERY) {
            index.push(bytes.len() as u64);
        }
        bytes.extend_from_slice(window[i].frame());
    }
    let run = (bytes, run_records as u64, index);
    let store = (997, RecordLayout::VarLen);
    crashed_scratch(store, manifest, run_records as u64, run)
}

/// Run every var-len driver configuration over one corpus and compare all
/// outputs against the stable reference — mirrors [`oracle_case`].
fn var_oracle_case(records: u64, seed: u64, corpus: TextCorpus) {
    let what = format!("{records} records, seed {seed:#x}, {}", corpus.name());
    let manifest = case_manifest(seed);
    let data = generate_varlen(VarGenConfig {
        records,
        seed,
        corpus,
    });
    let want = var_stable_reference(&data);

    // In-memory baseline: single-partition sort.
    let got = sort_var_bytes(&data).unwrap();
    var_assert_identical(&got, &want, &format!("sort_var_bytes [{what}]"));

    let run_records = (records as usize / 7).max(1);
    let resumed = || resumed_var_scratch(&data, run_records, &manifest);
    let base = SortConfig {
        run_records,
        gather_batch: 128,
        workers: 2,
        layout: RecordLayout::VarLen,
        ..Default::default()
    };

    // One-pass, serial tournament merge (through the layout dispatch).
    let got = var_one_pass(&data, &base);
    var_assert_identical(&got, &want, &format!("one-pass serial [{what}]"));

    // One-pass, partitioned merge at every worker count.
    for p in MERGE_WORKER_COUNTS {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = var_one_pass(&data, &cfg);
        var_assert_identical(&got, &want, &format!("one-pass P={p} [{what}]"));
    }

    // Two-pass, serial final merge.
    let got = var_two_pass(&data, &base, &mut var_scratch());
    var_assert_identical(&got, &want, &format!("two-pass serial [{what}]"));

    // Two-pass, partitioned + resumed at every worker count.
    for p in MERGE_WORKER_COUNTS {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = var_two_pass(&data, &cfg, &mut var_scratch());
        var_assert_identical(&got, &want, &format!("two-pass P={p} [{what}]"));

        let got = var_two_pass(&data, &cfg, &mut resumed());
        var_assert_identical(&got, &want, &format!("two-pass resumed P={p} [{what}]"));
    }

    // Resumed two-pass with the serial merge, for completeness.
    let got = var_two_pass(&data, &base, &mut resumed());
    var_assert_identical(&got, &want, &format!("two-pass resumed serial [{what}]"));
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn var_oracle_urls() {
    var_oracle_case(1_200, 0xB0, TextCorpus::Urls);
}

#[test]
fn var_oracle_log_lines() {
    var_oracle_case(1_200, 0xB1, TextCorpus::LogLines);
}

#[test]
fn var_oracle_zipfian_words() {
    var_oracle_case(1_200, 0xB2, TextCorpus::ZipfianWords { max_words: 5 });
}

#[test]
fn var_oracle_single_word_zipf() {
    // max_words = 1: shortest keys, maximal duplication.
    var_oracle_case(1_000, 0xB3, TextCorpus::ZipfianWords { max_words: 1 });
}

#[test]
fn var_oracle_random_bytes() {
    var_oracle_case(
        1_200,
        0xB4,
        TextCorpus::RandomBytes {
            min_key: 0,
            max_key: 40,
        },
    );
}

#[test]
fn var_oracle_short_random_bytes() {
    // Keys at or under the 8-byte prefix-entry width.
    var_oracle_case(
        1_000,
        0xB5,
        TextCorpus::RandomBytes {
            min_key: 1,
            max_key: 8,
        },
    );
}

#[test]
fn var_oracle_empty_keys() {
    var_oracle_case(1_000, 0xB6, TextCorpus::EmptyKey);
}

#[test]
fn var_oracle_all_equal_keys() {
    var_oracle_case(1_000, 0xB7, TextCorpus::AllEqualKey { key_len: 16 });
}

#[test]
fn var_oracle_shared_megaprefix() {
    var_oracle_case(
        1_000,
        0xB8,
        TextCorpus::SharedMegaPrefix {
            prefix: 48,
            suffix: 8,
        },
    );
}

#[test]
fn var_oracle_deep_shared_prefix() {
    // Prefix far beyond any cached entry width, near-tying suffixes.
    var_oracle_case(
        800,
        0xB9,
        TextCorpus::SharedMegaPrefix {
            prefix: 200,
            suffix: 4,
        },
    );
}

#[test]
fn var_oracle_prefix_chain() {
    var_oracle_case(1_000, 0xBA, TextCorpus::PrefixChain { max_len: 32 });
}

/// A 2-disk striped volume over `storages` — rebuilt over the same
/// storages, it is the scratch a restarted process would find.
fn striped_volume(storages: &[Arc<MemStorage>]) -> Arc<Volume> {
    let disks = storages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SimDisk::new(
                format!("s{i}"),
                catalog::uncapped(),
                s.clone(),
                Pacing::Modeled,
                None,
            )
        })
        .collect();
    Arc::new(Volume::new(Arc::new(IoEngine::new(disks))))
}

/// Var-len runs on real scratch: the striped, checksummed, manifested
/// store the fixed layout spills to — serial, partitioned at every worker
/// count, and resumed after one sealed run's stride went bad on disk (the
/// run is discarded, its input range re-formed, the bytes identical).
#[test]
fn var_oracle_on_striped_scratch() {
    let data = generate_varlen(VarGenConfig {
        records: 1_500,
        seed: 0xBC,
        corpus: TextCorpus::Urls,
    });
    let want = var_stable_reference(&data);
    let base = SortConfig {
        run_records: 200,
        gather_batch: 128,
        workers: 2,
        layout: RecordLayout::VarLen,
        ..Default::default()
    };
    let manifest =
        std::env::temp_dir().join(format!("alphasort-oracle-{}.manifest", std::process::id()));
    let fresh = |storages: &[Arc<MemStorage>]| {
        let mut s =
            StripeScratch::new(striped_volume(storages), 1_024).with_layout(RecordLayout::VarLen);
        s.attach_manifest(&manifest, data.len() as u64, 200)
            .unwrap();
        s
    };
    let storages =
        || -> Vec<Arc<MemStorage>> { (0..2).map(|_| Arc::new(MemStorage::new())).collect() };

    let got = var_two_pass(&data, &base, &mut fresh(&storages()));
    var_assert_identical(&got, &want, "striped serial");

    for p in MERGE_WORKER_COUNTS {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let disks = storages();
        let got = var_two_pass(&data, &cfg, &mut fresh(&disks));
        var_assert_identical(&got, &want, &format!("striped P={p}"));

        // The partitioned merge reads windows and consumes nothing, so the
        // manifest still lists every pass-1 run: this is the state a crash
        // mid-merge leaves. Flip one byte of the second run behind the
        // stripe layer, then resume over the same disks.
        let doc = Json::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let def = doc.field_arr("runs").unwrap()[1].get("def").unwrap();
        let member = &def.field_arr("members").unwrap()[0];
        let disk = member.field_u64("disk").unwrap() as usize;
        let at = member.field_u64("base").unwrap();
        let engine = striped_volume(&disks).engine().clone();
        let byte = engine.read(disk, at, 1).wait().unwrap()[0];
        engine.write(disk, at, vec![!byte]).wait().unwrap();

        let (mut resumed, report) =
            StripeScratch::resume(striped_volume(&disks), &manifest).unwrap();
        assert_eq!(report.corrupt.len(), 1, "{:?}", report.corrupt);
        assert_eq!(report.recovered.len(), 7, "8 runs sealed, 1 discarded");
        let mut source = MemSource::new(data.clone(), 997);
        let mut sink = MemSink::new();
        let outcome = two_pass(&mut source, &mut sink, &mut resumed, &cfg).unwrap();
        assert_eq!(
            (outcome.stats.runs_recovered, outcome.stats.runs_reformed),
            (7, 1)
        );
        var_assert_identical(sink.data(), &want, &format!("striped resumed P={p}"));
    }
    let _ = std::fs::remove_file(&manifest);
}

/// The range plumbing the partitioned merge relies on: windows opened
/// through [`StripeScratch::open_run_range`] reassemble each sealed run
/// exactly.
#[test]
fn oracle_scratch_windows_reassemble_runs() {
    let (data, _) = generate(GenConfig {
        records: 600,
        seed: 0xAC1E8,
        dist: KeyDistribution::Random,
    });
    let mut scratch = mem_scratch(512, RecordLayout::Datamation);
    for chunk in data.chunks(200 * RECORD_LEN) {
        let mut w = scratch.create_run(chunk.len() as u64).unwrap();
        w.push(chunk).unwrap();
        scratch.seal_run(w, 200, Vec::new()).unwrap();
    }
    let lens = scratch.sealed_run_records().unwrap();
    assert_eq!(lens, vec![200, 200, 200]);
    for (run, &len) in lens.iter().enumerate() {
        let mut got = Vec::new();
        // Reassemble from three uneven windows.
        for (s, e) in [(0, len / 3), (len / 3, len / 2), (len / 2, len)] {
            use alphasort_core::io::RecordSource;
            let mut src = scratch.open_run_range(run, s, e - s).unwrap();
            while let Some(c) = src.next_chunk().unwrap() {
                got.extend_from_slice(&c);
            }
        }
        let lo = run * 200 * RECORD_LEN;
        assert_eq!(&got, &data[lo..lo + 200 * RECORD_LEN], "run {run}");
    }
}
