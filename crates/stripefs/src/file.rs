//! Random-access striped file IO.
//!
//! Member operations that fail with a *transient* error kind (see
//! [`crate::retry::is_transient`]) are reissued up to the file's
//! [`RetryPolicy`] budget with linear backoff; errors that survive the
//! budget come back wrapped with the disk, physical offset, file name and
//! logical offset they happened at, preserving the original error kind.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alphasort_iosim::{IoEngine, IoHandle};
use alphasort_obs as obs;

use crate::geometry::{Segment, StripeDef};
use crate::retry::{is_transient, IoPolicy, RetryPolicy};

/// An open striped file: geometry plus the engine that reaches its disks.
pub struct StripedFile {
    def: StripeDef,
    engine: Arc<IoEngine>,
    len: AtomicU64,
    /// Reserved logical capacity, if known (files created through a
    /// [`Volume`](crate::Volume) know their extent reservation). Writes
    /// past it fail instead of silently bleeding into a neighbouring
    /// file's extents.
    capacity: Option<u64>,
    /// Retry budget and per-disk health, shared volume-wide for files a
    /// [`Volume`](crate::Volume) creates.
    policy: Arc<IoPolicy>,
}

/// Completion context one in-flight striped op needs to retry and to
/// attribute errors: the engine to reissue on, the policy to consult, and
/// the identity (file name + logical base offset) to name in messages.
struct OpCtx {
    engine: Arc<IoEngine>,
    policy: Arc<IoPolicy>,
    file: String,
    base: u64,
}

impl OpCtx {
    fn attribute(
        &self,
        e: io::Error,
        verb: &str,
        seg: &Segment,
        disk: usize,
        attempts: u32,
    ) -> io::Error {
        let dname = self.engine.disks()[disk].name().to_string();
        io::Error::new(
            e.kind(),
            format!(
                "{verb} on disk {disk} ({dname}) failed at phys offset {} \
                 (file '{}', logical offset {}, {attempts} attempt(s)): {e}",
                seg.phys,
                self.file,
                self.base + seg.buf_off as u64,
            ),
        )
    }

    /// Wait for one member read, retrying transient errors in place.
    fn complete_read(
        &self,
        seg: &Segment,
        disk: usize,
        h: IoHandle<Vec<u8>>,
    ) -> io::Result<Vec<u8>> {
        let max = self.policy.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        let mut res = h.wait();
        loop {
            match res {
                Ok(data) => {
                    self.policy.record_success(disk);
                    return Ok(data);
                }
                Err(e) => {
                    self.policy.record_failure(disk);
                    if is_transient(e.kind()) && attempt < max {
                        obs::metrics::counter_add("io.retry", 1);
                        std::thread::sleep(self.policy.retry.backoff.saturating_mul(attempt));
                        attempt += 1;
                        res = self.engine.read(disk, seg.phys, seg.len).wait();
                    } else {
                        obs::metrics::counter_add("io.giveup", 1);
                        return Err(self.attribute(e, "read", seg, disk, attempt));
                    }
                }
            }
        }
    }

    /// Wait for one member write, retrying transient errors (including
    /// short writes) in place. `data` is the op's full logical buffer, kept
    /// for reissue; `None` means retries were disabled at issue time.
    fn complete_write(
        &self,
        seg: &Segment,
        disk: usize,
        h: IoHandle<usize>,
        data: Option<&[u8]>,
    ) -> io::Result<usize> {
        let max = self.policy.retry.max_attempts.max(1);
        let short = |n: usize| {
            io::Error::new(
                io::ErrorKind::WriteZero,
                format!("short write ({n} of {} bytes)", seg.len),
            )
        };
        let mut attempt = 1u32;
        let mut res = h.wait();
        loop {
            match res {
                Ok(n) if n == seg.len => {
                    self.policy.record_success(disk);
                    return Ok(n);
                }
                Ok(n) => res = Err(short(n)),
                Err(e) => {
                    self.policy.record_failure(disk);
                    if let Some(data) = data.filter(|_| is_transient(e.kind()) && attempt < max) {
                        obs::metrics::counter_add("io.retry", 1);
                        std::thread::sleep(self.policy.retry.backoff.saturating_mul(attempt));
                        attempt += 1;
                        let payload = data[seg.buf_off..seg.buf_off + seg.len].to_vec();
                        res = self.engine.write(disk, seg.phys, payload).wait();
                    } else {
                        obs::metrics::counter_add("io.giveup", 1);
                        return Err(self.attribute(e, "write", seg, disk, attempt));
                    }
                }
            }
        }
    }
}

/// An in-flight striped read: per-segment handles plus assembly information.
pub struct StripedRead {
    ctx: OpCtx,
    segs: Vec<(Segment, usize, IoHandle<Vec<u8>>)>,
    total: usize,
    /// Immediate rejection (e.g. a failed member disk), reported at wait().
    early_error: Option<io::Error>,
}

impl StripedRead {
    /// Wait for all member reads and assemble the logical buffer.
    /// Transient member errors are retried per the file's [`RetryPolicy`].
    pub fn wait(self) -> io::Result<Vec<u8>> {
        let StripedRead {
            ctx,
            segs,
            total,
            early_error,
        } = self;
        if let Some(e) = early_error {
            return Err(e);
        }
        let mut out = vec![0u8; total];
        for (seg, disk, h) in segs {
            let data = ctx.complete_read(&seg, disk, h)?;
            out[seg.buf_off..seg.buf_off + seg.len].copy_from_slice(&data);
        }
        Ok(out)
    }

    /// Whether every member read has completed.
    pub fn is_ready(&self) -> bool {
        self.segs.iter().all(|(_, _, h)| h.is_ready())
    }
}

/// An in-flight striped write.
pub struct StripedWrite {
    ctx: OpCtx,
    segs: Vec<(Segment, usize, IoHandle<usize>)>,
    /// Retained logical buffer for reissuing failed segments; absent when
    /// the policy allows only one attempt (no copy needed).
    data: Option<Vec<u8>>,
    total: usize,
    /// Immediate rejection (e.g. capacity overflow), reported at wait().
    early_error: Option<io::Error>,
}

impl StripedWrite {
    /// Wait for all member writes; returns the logical byte count written.
    /// Transient member errors are retried per the file's [`RetryPolicy`].
    pub fn wait(self) -> io::Result<usize> {
        let StripedWrite {
            ctx,
            segs,
            data,
            total,
            early_error,
        } = self;
        if let Some(e) = early_error {
            return Err(e);
        }
        for (seg, disk, h) in segs {
            ctx.complete_write(&seg, disk, h, data.as_deref())?;
        }
        Ok(total)
    }

    /// Whether every member write has completed.
    pub fn is_ready(&self) -> bool {
        self.segs.iter().all(|(_, _, h)| h.is_ready())
    }
}

impl StripedFile {
    /// Open a file from its definition over `engine`.
    ///
    /// # Panics
    /// If a member references a disk index the engine does not have.
    pub fn new(def: StripeDef, engine: Arc<IoEngine>) -> Self {
        for m in &def.members {
            assert!(
                m.disk < engine.width(),
                "member references disk {} but engine has {}",
                m.disk,
                engine.width()
            );
        }
        let len = AtomicU64::new(def.len);
        let policy = Arc::new(IoPolicy::new(RetryPolicy::default(), engine.width()));
        StripedFile {
            def,
            engine,
            len,
            capacity: None,
            policy,
        }
    }

    /// Like [`new`](Self::new), but with a reserved logical capacity that
    /// writes may not exceed.
    pub fn with_capacity(def: StripeDef, engine: Arc<IoEngine>, capacity: u64) -> Self {
        let mut f = Self::new(def, engine);
        f.capacity = Some(capacity);
        f
    }

    /// The reserved logical capacity, if known.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Replace this file's retry policy (fresh per-disk health). Files
    /// opened through a [`Volume`](crate::Volume) share the volume's
    /// policy instead; prefer configuring retries there.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.policy = Arc::new(IoPolicy::new(retry, self.engine.width()));
    }

    /// Attach a shared (volume-wide) policy.
    pub(crate) fn attach_policy(&mut self, policy: Arc<IoPolicy>) {
        self.policy = policy;
    }

    /// The engine driving this file's member disks.
    pub(crate) fn engine(&self) -> &Arc<IoEngine> {
        &self.engine
    }

    fn op_ctx(&self, base: u64) -> OpCtx {
        OpCtx {
            engine: Arc::clone(&self.engine),
            policy: Arc::clone(&self.policy),
            file: self.def.name.clone(),
            base,
        }
    }

    /// If any member disk the planned segments touch has tripped the
    /// failure latch, the error to fail fast with.
    fn failed_disk_error(&self, verb: &str, plan: &[Segment], offset: u64) -> Option<io::Error> {
        for seg in plan {
            let d = self.def.members[seg.member].disk;
            if self.policy.is_failed(d) {
                return Some(io::Error::other(format!(
                    "{verb} of file '{}' at logical offset {offset} refused: disk {d} ({}) \
                     marked failed after repeated errors",
                    self.def.name,
                    self.engine.disks()[d].name(),
                )));
            }
        }
        None
    }

    /// The stripe definition (geometry).
    pub fn def(&self) -> &StripeDef {
        &self.def
    }

    /// Stripe width.
    pub fn width(&self) -> usize {
        self.def.width()
    }

    /// One full stride in bytes (`width × chunk`).
    pub fn stride(&self) -> u64 {
        self.def.stride()
    }

    /// Current logical length.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the definition with the current length (for persisting).
    pub fn def_snapshot(&self) -> StripeDef {
        let mut d = self.def.clone();
        d.len = self.len();
        d
    }

    /// Start an asynchronous read of `len` bytes at logical `offset`.
    /// Member requests are issued to every involved disk before returning,
    /// so they proceed in parallel (the paper's Figure 5).
    pub fn read_at_async(&self, offset: u64, len: usize) -> StripedRead {
        let plan = self.def.plan(offset, len);
        if let Some(e) = self.failed_disk_error("read", &plan, offset) {
            return StripedRead {
                ctx: self.op_ctx(offset),
                segs: Vec::new(),
                total: 0,
                early_error: Some(e),
            };
        }
        let segs = plan
            .into_iter()
            .map(|seg| {
                let disk = self.def.members[seg.member].disk;
                let h = self.engine.read(disk, seg.phys, seg.len);
                (seg, disk, h)
            })
            .collect();
        StripedRead {
            ctx: self.op_ctx(offset),
            segs,
            total: len,
            early_error: None,
        }
    }

    /// Synchronous striped read.
    pub fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.read_at_async(offset, len).wait()
    }

    /// Start an asynchronous write of `data` at logical `offset`.
    ///
    /// Writing past a known reserved capacity fails (at `wait()`): extents
    /// on the member disks are allocated back-to-back, so overflowing one
    /// file would corrupt its neighbour.
    pub fn write_at_async(&self, offset: u64, data: &[u8]) -> StripedWrite {
        let reject = |e: io::Error| StripedWrite {
            ctx: self.op_ctx(offset),
            segs: Vec::new(),
            data: None,
            total: 0,
            early_error: Some(e),
        };
        if let Some(cap) = self.capacity {
            let end = offset + data.len() as u64;
            if end > cap {
                return reject(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "write to {} past reserved capacity ({} > {} bytes); \
                         create the file with a larger size hint",
                        self.def.name, end, cap
                    ),
                ));
            }
        }
        let plan = self.def.plan(offset, data.len());
        if let Some(e) = self.failed_disk_error("write", &plan, offset) {
            return reject(e);
        }
        let segs = plan
            .into_iter()
            .map(|seg| {
                let disk = self.def.members[seg.member].disk;
                let h = self.engine.write(
                    disk,
                    seg.phys,
                    data[seg.buf_off..seg.buf_off + seg.len].to_vec(),
                );
                (seg, disk, h)
            })
            .collect();
        // Extend logical length eagerly; failed writes surface at wait().
        let end = offset + data.len() as u64;
        self.len.fetch_max(end, Ordering::AcqRel);
        // Keep one copy of the logical buffer only if retries can reissue.
        let retained = (self.policy.retry.max_attempts > 1).then(|| data.to_vec());
        StripedWrite {
            ctx: self.op_ctx(offset),
            segs,
            data: retained,
            total: data.len(),
            early_error: None,
        }
    }

    /// Synchronous striped write.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<usize> {
        self.write_at_async(offset, data).wait()
    }

    /// Flush every member disk; a failure names the disk and this file.
    pub fn sync(&self) -> io::Result<()> {
        let handles: Vec<_> = self
            .member_disks()
            .into_iter()
            .map(|d| (d, self.engine.sync(d)))
            .collect();
        for (d, h) in handles {
            h.wait().map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "sync on disk {d} ({}) failed (file '{}'): {e}",
                        self.engine.disks()[d].name(),
                        self.def.name,
                    ),
                )
            })?;
        }
        Ok(())
    }

    fn member_disks(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.def.members.iter().map(|m| m.disk).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Member;
    use crate::volume::Volume;
    use alphasort_iosim::{
        catalog, Dir, Fault, FaultPlan, FaultyStorage, MemStorage, Pacing, SimDisk, When,
    };

    fn make_engine(n: usize) -> Arc<IoEngine> {
        Arc::clone(Volume::in_memory(n).engine())
    }

    fn file(width: usize, chunk: u64) -> (StripedFile, Arc<IoEngine>) {
        let engine = make_engine(width);
        let members = (0..width).map(|i| Member { disk: i, base: 0 }).collect();
        let def = StripeDef::new("f", chunk, members);
        (StripedFile::new(def, Arc::clone(&engine)), engine)
    }

    #[test]
    fn roundtrip_across_stripes() {
        let (f, _e) = file(4, 16);
        let data: Vec<u8> = (0..200u8).collect();
        f.write_at(0, &data).unwrap();
        assert_eq!(f.read_at(0, 200).unwrap(), data);
        assert_eq!(f.len(), 200);
    }

    #[test]
    fn unaligned_reads_and_writes() {
        let (f, _e) = file(3, 10);
        let data: Vec<u8> = (0..=255u8).cycle().take(97).collect();
        f.write_at(7, &data).unwrap();
        assert_eq!(f.read_at(7, 97).unwrap(), data);
        // A sub-range of the write.
        assert_eq!(f.read_at(30, 20).unwrap(), data[23..43]);
    }

    #[test]
    fn data_actually_spreads_across_disks() {
        let (f, e) = file(4, 8);
        f.write_at(0, &[1u8; 64]).unwrap(); // 8 chunks over 4 disks
        for d in e.disks() {
            let st = d.stats();
            assert_eq!(st.bytes_written, 16, "disk {} got {st:?}", d.name());
        }
    }

    #[test]
    fn async_read_overlaps_members() {
        let (f, _e) = file(4, 8);
        f.write_at(0, &[9u8; 64]).unwrap();
        let r = f.read_at_async(0, 64);
        assert_eq!(r.wait().unwrap(), vec![9u8; 64]);
    }

    #[test]
    fn width_one_degenerates_to_plain_file() {
        let (f, _e) = file(1, 32);
        let data = vec![5u8; 100];
        f.write_at(0, &data).unwrap();
        assert_eq!(f.read_at(0, 100).unwrap(), data);
    }

    #[test]
    fn len_tracks_high_water_mark() {
        let (f, _e) = file(2, 10);
        f.write_at(50, &[1u8; 10]).unwrap();
        assert_eq!(f.len(), 60);
        f.write_at(0, &[1u8; 5]).unwrap();
        assert_eq!(f.len(), 60); // earlier write does not shrink
    }

    fn faulty_engine(width: usize, plans: Vec<FaultPlan<Fault>>) -> Arc<IoEngine> {
        let disks = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let storage = Arc::new(FaultyStorage::new(Arc::new(MemStorage::new()), plan));
                SimDisk::new(
                    format!("d{i}"),
                    catalog::uncapped(),
                    storage,
                    Pacing::Modeled,
                    None,
                )
            })
            .collect::<Vec<_>>();
        assert_eq!(disks.len(), width);
        Arc::new(IoEngine::new(disks))
    }

    fn two_disk_file(plans: Vec<FaultPlan<Fault>>) -> StripedFile {
        let engine = faulty_engine(2, plans);
        let members = (0..2).map(|i| Member { disk: i, base: 0 }).collect();
        StripedFile::new(StripeDef::new("chaos", 16, members), engine)
    }

    #[test]
    fn transient_read_fault_is_retried_to_success() {
        let f = two_disk_file(vec![
            FaultPlan::new().on(Dir::In, When::Nth(0), Fault::Fail(io::ErrorKind::TimedOut)),
            FaultPlan::new(),
        ]);
        let data: Vec<u8> = (0..96u8).collect();
        f.write_at(0, &data).unwrap();
        // Disk 0's first read faults transiently; the default policy
        // reissues and the striped read still completes.
        assert_eq!(f.read_at(0, 96).unwrap(), data);
    }

    #[test]
    fn transient_write_fault_is_retried_to_success() {
        let f = two_disk_file(vec![
            FaultPlan::new().on(
                Dir::Out,
                When::Nth(0),
                Fault::Fail(io::ErrorKind::WriteZero),
            ),
            FaultPlan::new(),
        ]);
        let data: Vec<u8> = (0..96u8).collect();
        f.write_at(0, &data).unwrap();
        assert_eq!(f.read_at(0, 96).unwrap(), data);
    }

    #[test]
    fn recurring_fault_exhausts_budget_with_attribution() {
        let f = two_disk_file(vec![
            FaultPlan::new().on(
                Dir::In,
                When::Every(1),
                Fault::Fail(io::ErrorKind::TimedOut),
            ),
            FaultPlan::new(),
        ]);
        f.write_at(0, &[7u8; 64]).unwrap();
        let err = f.read_at(0, 64).unwrap_err();
        // Original kind preserved; disk, file and offsets named.
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("disk 0 (d0)"), "{msg}");
        assert!(msg.contains("file 'chaos'"), "{msg}");
        assert!(msg.contains("3 attempt(s)"), "{msg}");
    }

    #[test]
    fn non_transient_fault_is_not_retried() {
        let f = two_disk_file(vec![
            FaultPlan::new().on(
                Dir::In,
                When::Nth(0),
                Fault::Fail(io::ErrorKind::PermissionDenied),
            ),
            FaultPlan::new(),
        ]);
        f.write_at(0, &[1u8; 64]).unwrap();
        let err = f.read_at(0, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert!(err.to_string().contains("1 attempt(s)"), "{err}");
        // The one-shot fault was the only one; an undisturbed reissue
        // would have succeeded — proof the budget was not spent on it.
        assert_eq!(f.read_at(0, 64).unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn failing_disk_trips_latch_and_fails_fast() {
        use crate::retry::RetryPolicy;
        let mut f = two_disk_file(vec![
            FaultPlan::new().on(
                Dir::In,
                When::After(0),
                Fault::Fail(io::ErrorKind::TimedOut),
            ),
            FaultPlan::new(),
        ]);
        f.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff: std::time::Duration::ZERO,
            disk_fail_threshold: 3,
        });
        f.write_at(0, &[2u8; 64]).unwrap();
        // Two striped reads × 2 attempts each = 4 strikes ≥ threshold 3.
        assert!(f.read_at(0, 64).is_err());
        assert!(f.read_at(0, 64).is_err());
        // The latch now rejects before reaching the disk.
        let err = f.read_at(0, 64).unwrap_err();
        assert!(err.to_string().contains("marked failed"), "{err}");
        let err = f.write_at(0, &[0u8; 64]).unwrap_err();
        assert!(err.to_string().contains("marked failed"), "{err}");
    }

    #[test]
    fn members_with_bases_do_not_collide() {
        // Two files on the same disks at different bases.
        let engine = make_engine(2);
        let f1 = StripedFile::new(
            StripeDef::new(
                "a",
                8,
                vec![Member { disk: 0, base: 0 }, Member { disk: 1, base: 0 }],
            ),
            Arc::clone(&engine),
        );
        let f2 = StripedFile::new(
            StripeDef::new(
                "b",
                8,
                vec![
                    Member {
                        disk: 0,
                        base: 1024,
                    },
                    Member {
                        disk: 1,
                        base: 1024,
                    },
                ],
            ),
            Arc::clone(&engine),
        );
        f1.write_at(0, &[0xAA; 64]).unwrap();
        f2.write_at(0, &[0xBB; 64]).unwrap();
        assert_eq!(f1.read_at(0, 64).unwrap(), vec![0xAA; 64]);
        assert_eq!(f2.read_at(0, 64).unwrap(), vec![0xBB; 64]);
    }
}
