//! Property tests for stripe geometry and striped IO, driven by a seeded
//! [`SplitMix64`] so every case is reproducible.

use std::sync::Arc;

use alphasort_dmgen::SplitMix64;
use alphasort_stripefs::{Member, StripeDef, StripedFile, StripedReader, StripedWriter, Volume};

fn any_def(r: &mut SplitMix64) -> StripeDef {
    let chunk = 1 + r.next_below(63);
    let width = 1 + r.next_below(7) as usize;
    let members = (0..width)
        .map(|i| Member {
            disk: i,
            base: (i as u64) * 1_000_000,
        })
        .collect();
    StripeDef::new("p", chunk, members)
}

/// plan() covers the requested range exactly: contiguous buffer offsets,
/// each segment inside one chunk, total length preserved.
#[test]
fn plan_partitions_range() {
    let mut r = SplitMix64::new(0x5F1);
    for case in 0..256 {
        let def = any_def(&mut r);
        let offset = r.next_below(10_000);
        let len = r.next_below(5_000) as usize;
        let segs = def.plan(offset, len);
        let mut expect_buf = 0usize;
        for s in &segs {
            assert_eq!(s.buf_off, expect_buf, "case {case}");
            assert!(s.len > 0, "case {case}");
            assert!(s.len as u64 <= def.chunk, "case {case}");
            expect_buf += s.len;
        }
        assert_eq!(expect_buf, len, "case {case}");
    }
}

/// locate() agrees with plan(): single-byte plans land where locate says.
#[test]
fn locate_matches_plan() {
    let mut r = SplitMix64::new(0x5F2);
    for case in 0..256 {
        let def = any_def(&mut r);
        let offset = r.next_below(10_000);
        let (member, phys) = def.locate(offset);
        let segs = def.plan(offset, 1);
        assert_eq!(segs.len(), 1, "case {case}");
        assert_eq!(segs[0].member, member, "case {case}");
        assert_eq!(segs[0].phys, phys, "case {case}");
    }
}

/// Distinct logical offsets never map to the same physical byte.
#[test]
fn no_two_offsets_collide() {
    let mut r = SplitMix64::new(0x5F3);
    for case in 0..256 {
        let def = any_def(&mut r);
        let a = r.next_below(2_000);
        let b = r.next_below(2_000);
        if a == b {
            continue;
        }
        let (ma, pa) = def.locate(a);
        let (mb, pb) = def.locate(b);
        assert!(
            (ma, pa) != (mb, pb),
            "case {case}: offsets {a} and {b} collide"
        );
    }
}

/// Writing then reading arbitrary ranges through a striped file is an
/// identity, for arbitrary geometry.
#[test]
fn striped_io_roundtrip() {
    let mut r = SplitMix64::new(0x5F4);
    for case in 0..64 {
        let chunk = 1 + r.next_below(127);
        let width = 1 + r.next_below(5) as usize;
        let len = r.next_below(4_000) as usize;
        let offset = r.next_below(1_000);
        let engine = Arc::clone(Volume::in_memory(width).engine());
        let members = (0..width).map(|i| Member { disk: i, base: 0 }).collect();
        let f = StripedFile::new(StripeDef::new("io", chunk, members), engine);

        let mut data = vec![0u8; len];
        r.fill_bytes(&mut data);
        f.write_at(offset, &data).unwrap();
        assert_eq!(f.read_at(offset, len).unwrap(), data, "case {case}");
    }
}

/// Streaming writer + reader is an identity for arbitrary chunking of the
/// pushes.
#[test]
fn stream_roundtrip() {
    let mut r = SplitMix64::new(0x5F5);
    for case in 0..64 {
        let chunk = 16 + r.next_below(240);
        let width = 1 + r.next_below(4) as usize;
        let pieces: Vec<usize> = (0..r.next_below(12))
            .map(|_| r.next_below(700) as usize)
            .collect();
        let v = Volume::in_memory(width);
        let total: usize = pieces.iter().sum();
        let f = Arc::new(v.create_across_all("s", chunk, total as u64));

        let mut data = Vec::new();
        let mut w = StripedWriter::new(Arc::clone(&f));
        let mut b: u8 = 0;
        for &p in &pieces {
            let piece: Vec<u8> = (0..p)
                .map(|_| {
                    b = b.wrapping_add(17);
                    b
                })
                .collect();
            w.push(&piece).unwrap();
            data.extend_from_slice(&piece);
        }
        assert_eq!(w.finish().unwrap(), total as u64, "case {case}");

        let mut rd = StripedReader::new(f);
        let mut got = Vec::new();
        std::io::Read::read_to_end(&mut rd, &mut got).unwrap();
        assert_eq!(got, data, "case {case}");
    }
}
