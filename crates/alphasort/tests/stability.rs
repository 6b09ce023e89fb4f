//! Stability: the full one-pass sort keeps equal-keyed records in input
//! order (run-local index tie-break + the merge's run-number tie-break). §4
//! credits replacement-selection with
//! stability; this shows the QuickSort pipeline matches it — and that the
//! variable-length pipeline matches it too, across serial, partitioned,
//! and crash-resumed merges.

use std::path::Path;
use std::sync::Arc;

use alphasort_core::driver::{one_pass, two_pass, StripeScratch, INDEX_EVERY};
use alphasort_core::io::{MemSink, MemSource, RecordSink};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, records_of, var_records_of, GenConfig, KeyDistribution, SplitMix64,
    TextCorpus, VarGenConfig,
};
use alphasort_stripefs::Volume;

fn assert_stable(records: u64, run_records: usize, cardinality: u32) {
    let (data, _) = generate(GenConfig {
        records,
        seed: 0x57AB,
        dist: KeyDistribution::DupHeavy { cardinality },
    });
    let mut source = MemSource::new(data, 4_096);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        run_records,
        gather_batch: 128,
        workers: 2,
        ..Default::default()
    };
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    let out = records_of(sink.data());
    for w in out.windows(2) {
        assert!(w[0].key <= w[1].key);
        if w[0].key == w[1].key {
            assert!(
                w[0].seq() < w[1].seq(),
                "equal keys out of arrival order: {} then {}",
                w[0].seq(),
                w[1].seq()
            );
        }
    }
}

#[test]
fn key_prefix_pipeline_is_stable() {
    assert_stable(3_000, 250, 7);
}

// ---------------------------------------------------------------------------
// Variable-length layout: equal string keys stay in arrival order.
// ---------------------------------------------------------------------------

/// Every record of `out` must carry a key ≤ its successor's, and equal keys
/// must keep ascending sequence numbers (arrival order).
fn assert_var_stable(out: &[u8], what: &str) {
    let recs = var_records_of(out).expect("output parses");
    for w in recs.windows(2) {
        assert!(w[0].key() <= w[1].key(), "{what}: keys out of order");
        if w[0].key() == w[1].key() {
            assert!(
                w[0].seq().unwrap() < w[1].seq().unwrap(),
                "{what}: equal keys out of arrival order: {:?} then {:?}",
                w[0].seq(),
                w[1].seq()
            );
        }
    }
}

/// A var-len scratch with the middle run pre-formed (stable-sorted), as a
/// crash-resumed pass 2 sees it: sealed through a store manifested at
/// `manifest`, dropped undisposed, and resumed over the same in-memory
/// volume. The run is sealed as its sort's first; the manifest edit puts it
/// at record `run_records`, where the crashed sort had it.
fn resumed_var_scratch(data: &[u8], run_records: usize, manifest: &Path) -> StripeScratch {
    let recs = var_records_of(data).expect("corpus parses");
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
    let volume = Arc::new(Volume::in_memory(2));
    let mut s = StripeScratch::new(Arc::clone(&volume), 1_003).with_layout(RecordLayout::VarLen);
    s.attach_manifest(manifest, 0, run_records as u64).unwrap();
    let mut w = s.create_run(bytes.len() as u64).unwrap();
    w.push(&bytes).unwrap();
    s.seal_run(w, run_records as u64, index).unwrap();
    drop(s);
    let text = std::fs::read_to_string(manifest).unwrap();
    let text = text.replace("\"start\": 0", &format!("\"start\": {run_records}"));
    std::fs::write(manifest, text).unwrap();
    StripeScratch::resume(volume, manifest).unwrap().0
}

/// Duplicate-heavy string corpora through one-pass serial, one-pass
/// partitioned (1/2/4/8 ranges), and two-pass resumed merges: arrival order
/// of equal keys survives every merge topology.
#[test]
fn varlen_pipeline_is_stable() {
    for corpus in [
        TextCorpus::EmptyKey,
        TextCorpus::AllEqualKey { key_len: 16 },
        TextCorpus::ZipfianWords { max_words: 2 },
    ] {
        let data = generate_varlen(VarGenConfig {
            records: 1_200,
            seed: 0x57A8,
            corpus,
        });
        let run_records = 170;
        let base = SortConfig {
            run_records,
            gather_batch: 96,
            workers: 2,
            layout: RecordLayout::VarLen,
            ..Default::default()
        };
        let name = corpus.name();
        let manifest = std::env::temp_dir().join(format!(
            "alphasort-stability-{}-{name}.manifest",
            std::process::id()
        ));

        // Serial merge.
        let mut source = MemSource::new(data.clone(), 1_003);
        let mut sink = MemSink::new();
        one_pass(&mut source, &mut sink, &base).unwrap();
        assert_var_stable(sink.data(), &format!("{name} serial"));

        for p in [1usize, 2, 4, 8] {
            // Partitioned merge at every worker count.
            let cfg = SortConfig {
                merge_workers: p,
                ..base.clone()
            };
            let mut source = MemSource::new(data.clone(), 1_003);
            let mut sink = MemSink::new();
            one_pass(&mut source, &mut sink, &cfg).unwrap();
            assert_var_stable(sink.data(), &format!("{name} P={p}"));

            // Resumed two-pass: the recovered middle run merges back into
            // arrival order even though it was formed "before the crash".
            let mut source = MemSource::new(data.clone(), 1_003);
            let mut sink = MemSink::new();
            let mut scratch = resumed_var_scratch(&data, run_records, &manifest);
            two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
            assert_var_stable(sink.data(), &format!("{name} resumed P={p}"));
        }

        // Resumed two-pass with the serial merge.
        let mut source = MemSource::new(data.clone(), 1_003);
        let mut sink = MemSink::new();
        let mut scratch = resumed_var_scratch(&data, run_records, &manifest);
        two_pass(&mut source, &mut sink, &mut scratch, &base).unwrap();
        assert_var_stable(sink.data(), &format!("{name} resumed serial"));
        let _ = std::fs::remove_file(&manifest);
    }
}

/// Stability holds across arbitrary run sizes and key cardinalities.
#[test]
fn stability_holds_for_arbitrary_configs() {
    let mut r = SplitMix64::new(0xD1);
    for _ in 0..32 {
        let records = 10 + r.next_below(790);
        let run_records = 1 + r.next_below(299) as usize;
        let cardinality = 1 + r.next_below(9) as u32;
        assert_stable(records, run_records, cardinality);
    }
}
