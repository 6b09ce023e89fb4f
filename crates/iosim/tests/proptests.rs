//! Property tests for the disk simulator: storage semantics, accounting
//! invariants, and fault-plan behaviour under arbitrary operation mixes.
//! Cases are driven by a seeded [`SplitMix64`] so every run is reproducible.

use std::sync::Arc;

use alphasort_dmgen::SplitMix64;
use alphasort_iosim::{
    catalog, Dir, Fault, FaultPlan, FaultyStorage, IoEngine, MemStorage, Pacing, SimDisk, Storage,
    When,
};

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: usize },
}

fn any_op(r: &mut SplitMix64) -> Op {
    let offset = r.next_below(4_096);
    if r.next_below(2) == 0 {
        let mut data = vec![0u8; 1 + r.next_below(127) as usize];
        r.fill_bytes(&mut data);
        Op::Write { offset, data }
    } else {
        Op::Read {
            offset,
            len: 1 + r.next_below(127) as usize,
        }
    }
}

fn any_ops(r: &mut SplitMix64, max: u64) -> Vec<Op> {
    let n = 1 + r.next_below(max - 1);
    (0..n).map(|_| any_op(r)).collect()
}

/// MemStorage behaves like a sparse byte array with zero fill.
#[test]
fn mem_storage_matches_shadow_model() {
    let mut r = SplitMix64::new(0xF1);
    for case in 0..128 {
        let ops = any_ops(&mut r, 60);
        let storage = MemStorage::new();
        let mut shadow = vec![0u8; 8_192];
        let mut high_water = 0usize;
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    storage.write_at(*offset, data).unwrap();
                    let off = *offset as usize;
                    shadow[off..off + data.len()].copy_from_slice(data);
                    high_water = high_water.max(off + data.len());
                }
                Op::Read { offset, len } => {
                    let mut buf = vec![0xFFu8; *len];
                    storage.read_at(*offset, &mut buf).unwrap();
                    let off = *offset as usize;
                    assert_eq!(&buf[..], &shadow[off..off + len], "case {case}");
                }
            }
            assert_eq!(storage.len() as usize, high_water, "case {case}");
        }
    }
}

/// Disk stats account every operation and byte exactly.
#[test]
fn disk_stats_account_everything() {
    let mut r = SplitMix64::new(0xF2);
    for case in 0..128 {
        let ops = any_ops(&mut r, 60);
        let disk = SimDisk::new(
            "p0",
            catalog::rz28(),
            Arc::new(MemStorage::new()),
            Pacing::Modeled,
            None,
        );
        let (mut reads, mut writes, mut br, mut bw) = (0u64, 0u64, 0u64, 0u64);
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    disk.write(*offset, data).unwrap();
                    writes += 1;
                    bw += data.len() as u64;
                }
                Op::Read { offset, len } => {
                    disk.read(*offset, *len).unwrap();
                    reads += 1;
                    br += *len as u64;
                }
            }
        }
        let st = disk.stats();
        assert_eq!(st.reads, reads, "case {case}");
        assert_eq!(st.writes, writes, "case {case}");
        assert_eq!(st.bytes_read, br, "case {case}");
        assert_eq!(st.bytes_written, bw, "case {case}");
        assert!(st.seeks <= reads + writes, "case {case}");
        // Modeled busy time is monotone in work done.
        assert!(st.busy_ns > 0 || (br + bw == 0), "case {case}");
    }
}

/// Async engine results equal synchronous execution of the same ops, per
/// disk (FIFO order per disk is guaranteed).
#[test]
fn engine_matches_sync_disk() {
    let mut r = SplitMix64::new(0xF3);
    for case in 0..128 {
        let ops = any_ops(&mut r, 40);
        // Sync reference.
        let sync_disk = SimDisk::new(
            "s",
            catalog::uncapped(),
            Arc::new(MemStorage::new()),
            Pacing::Modeled,
            None,
        );
        let mut expected = Vec::new();
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    sync_disk.write(*offset, data).unwrap();
                }
                Op::Read { offset, len } => {
                    expected.push(sync_disk.read(*offset, *len).unwrap());
                }
            }
        }
        // Async run.
        let async_disk = SimDisk::new(
            "a",
            catalog::uncapped(),
            Arc::new(MemStorage::new()),
            Pacing::Modeled,
            None,
        );
        let engine = IoEngine::new(vec![async_disk]);
        let mut handles = Vec::new();
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    engine.write(0, *offset, data.clone()).wait().unwrap();
                }
                Op::Read { offset, len } => {
                    handles.push(engine.read(0, *offset, *len));
                }
            }
        }
        let got: Vec<Vec<u8>> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(got, expected, "case {case}");
    }
}

/// A fault plan fires each injected fault exactly once, at the right
/// operation index, and everything else passes through untouched.
#[test]
fn fault_plan_fires_exactly_once() {
    let mut r = SplitMix64::new(0xF4);
    for case in 0..64 {
        let fail_at = r.next_below(20);
        let total_reads = 21 + r.next_below(19);
        let storage = FaultyStorage::new(
            Arc::new(MemStorage::new()),
            FaultPlan::new().on(
                Dir::In,
                When::Nth(fail_at),
                Fault::Fail(std::io::ErrorKind::TimedOut),
            ),
        );
        storage.write_at(0, &[7u8; 64]).unwrap();
        let mut failures = Vec::new();
        for i in 0..total_reads {
            let mut buf = [0u8; 8];
            if storage.read_at(0, &mut buf).is_err() {
                failures.push(i);
            } else {
                assert_eq!(buf, [7u8; 8], "case {case}");
            }
        }
        assert_eq!(failures, vec![fail_at], "case {case}");
    }
}
