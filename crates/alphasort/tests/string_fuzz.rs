//! Boundary fuzz for the variable-length layout: zero-length keys, keys
//! wider than the 8-byte prefix entry, frames straddling chunk and run
//! boundaries, and malformed inputs. Malformed bytes must surface as an
//! attributed `InvalidData` error — never a panic, never a silent drop —
//! and every well-formed input must sort byte-identically to stable sort
//! no matter where the boundaries land.

use std::io;

use std::sync::Arc;

use alphasort_core::driver::{one_pass, two_pass, StripeScratch};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    encode_var_record, generate_varlen, var_records_of, SplitMix64, TextCorpus, VarGenConfig,
    MAX_VAR_BODY,
};
use alphasort_stripefs::Volume;

/// Stable sort of the parsed frames by key, concatenated back.
fn stable_reference(data: &[u8]) -> Vec<u8> {
    let recs = var_records_of(data).expect("input parses");
    let mut idx: Vec<usize> = (0..recs.len()).collect();
    idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
    let mut out = Vec::with_capacity(data.len());
    for i in idx {
        out.extend_from_slice(recs[i].frame());
    }
    out
}

fn var_cfg(run_records: usize) -> SortConfig {
    SortConfig {
        run_records,
        gather_batch: 32,
        workers: 2,
        layout: RecordLayout::VarLen,
        ..Default::default()
    }
}

fn sort_one_pass(data: &[u8], chunk: usize, cfg: &SortConfig) -> io::Result<Vec<u8>> {
    let mut source = MemSource::new(data.to_vec(), chunk);
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, cfg)?;
    Ok(sink.into_inner())
}

fn sort_two_pass(data: &[u8], chunk: usize, cfg: &SortConfig) -> io::Result<Vec<u8>> {
    let mut source = MemSource::new(data.to_vec(), chunk);
    let mut sink = MemSink::new();
    let volume = Arc::new(Volume::in_memory(2));
    let mut scratch = StripeScratch::new(volume, chunk as u64).with_layout(RecordLayout::VarLen);
    two_pass(&mut source, &mut sink, &mut scratch, cfg)?;
    Ok(sink.into_inner())
}

/// Zero-length keys: every record compares equal, so the output must be the
/// input in arrival order — through every chunking, including 1-byte reads.
#[test]
fn zero_length_keys_survive_every_boundary() {
    let data = generate_varlen(VarGenConfig {
        records: 300,
        seed: 0xF0,
        corpus: TextCorpus::EmptyKey,
    });
    let want = stable_reference(&data);
    for chunk in [1usize, 7, 8, 9, 997] {
        let got = sort_one_pass(&data, chunk, &var_cfg(37)).unwrap();
        assert_eq!(got, want, "one-pass chunk {chunk}");
        let got = sort_two_pass(&data, chunk, &var_cfg(37)).unwrap();
        assert_eq!(got, want, "two-pass chunk {chunk}");
    }
}

/// Keys wider than the 8-byte prefix entry: every prefix ties, forcing the
/// full-key overflow path in run formation and deep suffix scans in the
/// merge. Prefix exactly at the entry width is the off-by-one case.
#[test]
fn keys_longer_than_prefix_width_tie_correctly() {
    for prefix in [8u16, 9, 48] {
        let data = generate_varlen(VarGenConfig {
            records: 400,
            seed: 0xF1 + prefix as u64,
            corpus: TextCorpus::SharedMegaPrefix { prefix, suffix: 6 },
        });
        let want = stable_reference(&data);
        let got = sort_one_pass(&data, 311, &var_cfg(53)).unwrap();
        assert_eq!(got, want, "prefix {prefix}");
    }
}

/// Randomized boundary fuzz: arbitrary chunk sizes put frame boundaries
/// anywhere (mid-header, mid-key, mid-body), arbitrary run cuts put record
/// boundaries anywhere, and the output must be byte-identical regardless.
#[test]
fn frames_straddle_chunk_and_run_boundaries() {
    let mut r = SplitMix64::new(0xF2);
    for case in 0..32 {
        let corpus = TextCorpus::ALL[r.next_below(TextCorpus::ALL.len() as u64) as usize];
        let data = generate_varlen(VarGenConfig {
            records: 50 + r.next_below(200),
            seed: r.next_u64(),
            corpus,
        });
        let want = stable_reference(&data);
        let chunk = 1 + r.next_below(120) as usize;
        let cfg = SortConfig {
            merge_workers: r.next_below(4) as usize,
            ..var_cfg(1 + r.next_below(40) as usize)
        };
        let got = sort_one_pass(&data, chunk, &cfg).unwrap();
        assert_eq!(
            got,
            want,
            "case {case} one-pass {} chunk {chunk}",
            corpus.name()
        );
        let got = sort_two_pass(&data, chunk, &cfg).unwrap();
        assert_eq!(
            got,
            want,
            "case {case} two-pass {} chunk {chunk}",
            corpus.name()
        );
    }
}

/// A truncated trailing record is an attributed error from both drivers.
#[test]
fn truncated_trailing_record_is_attributed() {
    let data = generate_varlen(VarGenConfig {
        records: 40,
        seed: 0xF3,
        corpus: TextCorpus::Urls,
    });
    let cut = data.len() - 5;
    for sorter in [sort_one_pass, sort_two_pass] {
        let err = sorter(&data[..cut], 64, &var_cfg(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("input ends mid-record"),
            "unattributed error: {err}"
        );
    }
}

/// Cut the input at every kind of position: on a frame boundary the prefix
/// must sort cleanly; anywhere else the sort must fail with `InvalidData`.
/// No panics, and no case where bytes are silently dropped.
#[test]
fn random_truncation_fuzz_never_panics() {
    let mut r = SplitMix64::new(0xF4);
    let data = generate_varlen(VarGenConfig {
        records: 120,
        seed: 0xF5,
        corpus: TextCorpus::RandomBytes {
            min_key: 0,
            max_key: 24,
        },
    });
    let boundaries: Vec<usize> = {
        let mut acc = vec![0usize];
        for rec in var_records_of(&data).unwrap() {
            acc.push(acc.last().unwrap() + rec.len());
        }
        acc
    };
    for case in 0..64 {
        let cut = r.next_below(data.len() as u64 + 1) as usize;
        let chunk = 1 + r.next_below(99) as usize;
        match sort_one_pass(&data[..cut], chunk, &var_cfg(13)) {
            Ok(got) => {
                assert!(
                    boundaries.contains(&cut),
                    "case {case}: cut {cut} mid-frame sorted"
                );
                assert_eq!(got, stable_reference(&data[..cut]), "case {case}");
            }
            Err(err) => {
                assert!(
                    !boundaries.contains(&cut),
                    "case {case}: clean cut {cut} rejected"
                );
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}");
                assert!(
                    err.to_string().contains("mid-record"),
                    "case {case}: unattributed error: {err}"
                );
            }
        }
    }
}

/// Structural corruption mid-stream — an oversized body length and a key
/// descriptor past the body — fails fast with the frame's byte offset.
#[test]
fn corrupt_headers_are_rejected_with_offset() {
    let prefix = generate_varlen(VarGenConfig {
        records: 10,
        seed: 0xF6,
        corpus: TextCorpus::LogLines,
    });

    // Oversized body: a flipped length byte must not demand a huge read.
    let mut oversized = prefix.clone();
    oversized.extend_from_slice(&(MAX_VAR_BODY as u32 + 1).to_le_bytes());
    oversized.extend_from_slice(&[0u8; 8]);
    let err = sort_one_pass(&oversized, 256, &var_cfg(4)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains(&format!("byte {}", prefix.len())),
        "{err}"
    );

    // Key descriptor exceeding the body.
    let mut bad_key = prefix.clone();
    bad_key.extend_from_slice(&4u32.to_le_bytes());
    bad_key.extend_from_slice(&2u16.to_le_bytes());
    bad_key.extend_from_slice(&3u16.to_le_bytes()); // 2 + 3 > 4
    bad_key.extend_from_slice(&[0u8; 4]);
    let err = sort_one_pass(&bad_key, 256, &var_cfg(4)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("key descriptor"), "{err}");
}

/// Non-zero key offsets (a pad before the key) sort by the key alone, and
/// a key at the very end of its body round-trips.
#[test]
fn key_descriptor_edges_sort_by_key_only() {
    let mut data = Vec::new();
    let keys: [&[u8]; 5] = [b"delta", b"", b"alpha", b"alphaa", b"alph"];
    for (i, key) in keys.iter().enumerate() {
        let pad = vec![0xEEu8; i]; // growing pad → varying key_off
        encode_var_record(&mut data, &pad, key, &(i as u64).to_le_bytes());
    }
    let got = sort_one_pass(&data, 3, &var_cfg(2)).unwrap();
    assert_eq!(got, stable_reference(&data));
    let order: Vec<Vec<u8>> = var_records_of(&got)
        .unwrap()
        .iter()
        .map(|r| r.key().to_vec())
        .collect();
    assert_eq!(
        order,
        vec![
            b"".to_vec(),
            b"alph".to_vec(),
            b"alpha".to_vec(),
            b"alphaa".to_vec(),
            b"delta".to_vec()
        ]
    );
}
