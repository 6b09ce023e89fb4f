//! A minimal extent allocator over a disk array.
//!
//! The paper's striping layer sits on the OpenVMS file system: member files
//! live wherever the FS puts them and the `.str` descriptor names them. Our
//! disks are raw byte spaces, so the [`Volume`] supplies the one FS facility
//! striping needs — allocating a contiguous extent per member disk — with a
//! simple bump allocator. A [`StripeDef`] plays the descriptor's role: the
//! scratch run manifest persists it as JSON on the *host* file system, and
//! [`Volume::try_open`] reopens the file it describes.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};

use crate::file::StripedFile;
use crate::geometry::{Member, StripeDef};
use crate::retry::{IoPolicy, RetryPolicy};

/// Extent allocator + file factory over an engine's disks.
///
/// Allocation is bump-with-free-list: fresh extents come off each disk's
/// watermark; [`Volume::delete`] returns a file's extents to per-disk free
/// lists, and later creations reuse a freed extent when one is big enough
/// (first-fit). Two-pass sorts with cascade merges recycle scratch space
/// this way instead of growing the disks level after level.
///
/// All files a volume creates or opens share its [`RetryPolicy`] and the
/// per-disk health accounting behind it: a member disk that keeps failing
/// while one file retries is already avoided when the next file opens.
pub struct Volume {
    engine: Arc<IoEngine>,
    /// Next free byte on each disk.
    next_free: Vec<AtomicU64>,
    /// Freed extents per disk: (base, size), unordered, first-fit reuse.
    free: Vec<Mutex<Vec<(u64, u64)>>>,
    /// Per-disk allocation ceiling; [`allocate`](Self::allocate) fails with
    /// [`io::ErrorKind::StorageFull`] past it. `None` = unbounded.
    disk_limit: Option<u64>,
    /// Retry budget + per-disk health shared by this volume's files.
    policy: Arc<IoPolicy>,
}

/// Mutex lock that survives a poisoned peer (an IO thread that panicked
/// mid-allocation must not wedge every later create on this volume).
fn lock_free(m: &Mutex<Vec<(u64, u64)>>) -> std::sync::MutexGuard<'_, Vec<(u64, u64)>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Volume {
    /// Wrap an engine; all disks start empty.
    pub fn new(engine: Arc<IoEngine>) -> Self {
        let next_free = (0..engine.width()).map(|_| AtomicU64::new(0)).collect();
        let free = (0..engine.width())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let policy = Arc::new(IoPolicy::new(RetryPolicy::default(), engine.width()));
        Volume {
            engine,
            next_free,
            free,
            disk_limit: None,
            policy,
        }
    }

    /// A volume over `width` fresh uncapped in-memory disks at modeled
    /// pacing: scratch that lives only as long as the process, on the same
    /// striped, checksummed path as disk images.
    pub fn in_memory(width: usize) -> Self {
        let disk = |i| {
            let storage = Arc::new(MemStorage::new());
            SimDisk::new(
                format!("d{i}"),
                catalog::uncapped(),
                storage,
                Pacing::Modeled,
                None,
            )
        };
        Volume::new(Arc::new(IoEngine::new((0..width).map(disk).collect())))
    }

    /// Replace the volume's retry policy (fresh per-disk health). Applies
    /// to files created or opened afterwards.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.policy = Arc::new(IoPolicy::new(retry, self.engine.width()));
    }

    /// Builder form of [`set_retry_policy`](Self::set_retry_policy).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.set_retry_policy(retry);
        self
    }

    /// The volume's current retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.policy.retry
    }

    /// Cap every disk at `limit` bytes of allocated extents; allocations
    /// that would cross it fail with [`io::ErrorKind::StorageFull`].
    pub fn set_disk_limit(&mut self, limit: Option<u64>) {
        self.disk_limit = limit;
    }

    /// Builder form of [`set_disk_limit`](Self::set_disk_limit).
    pub fn with_disk_limit(mut self, limit: u64) -> Self {
        self.disk_limit = Some(limit);
        self
    }

    /// Allocate `extent` bytes on disk `d`: reuse a freed extent when one
    /// fits (first-fit, splitting the remainder back), else bump — failing
    /// with `StorageFull` if the bump would cross the disk limit.
    fn allocate(&self, d: usize, extent: u64) -> io::Result<u64> {
        {
            let mut free = lock_free(&self.free[d]);
            if let Some(i) = free.iter().position(|&(_, size)| size >= extent) {
                let (base, size) = free[i];
                if size == extent {
                    free.remove(i);
                } else {
                    free[i] = (base + extent, size - extent);
                }
                return Ok(base);
            }
        }
        // Unbounded disks still end at `u64::MAX`: a watermark an opened
        // file put near it must not wrap the next allocation onto live data.
        let limit = self.disk_limit.unwrap_or(u64::MAX);
        self.next_free[d]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(extent).filter(|&end| end <= limit)
            })
            .map_err(|cur| {
                io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!(
                        "disk {d} ({}) full: needed {extent} bytes, had {}",
                        self.engine.disks()[d].name(),
                        limit.saturating_sub(cur),
                    ),
                )
            })
    }

    /// Return a file's member extents to the free lists, coalescing with
    /// adjacent free extents (consecutive same-size files — e.g. a cascade
    /// level's runs — merge back into one big block a bigger later file can
    /// use). The caller must be done with the file: reads of freed space
    /// see whatever a later file writes there.
    pub fn delete(&self, file: &StripedFile) {
        let def = file.def();
        let per_member = match file.capacity() {
            Some(cap) => cap / def.width() as u64,
            // Opened files (no recorded reservation): free what the length
            // implies.
            None => def.member_extent(file.len()),
        };
        if per_member == 0 {
            return;
        }
        for m in &def.members {
            let mut free = lock_free(&self.free[m.disk]);
            let (mut base, mut size) = (m.base, per_member);
            // Merge any free neighbour touching the new extent, repeatedly
            // (kept simple: the lists are short).
            while let Some(i) = free
                .iter()
                .position(|&(b, s)| b + s == base || base + size == b)
            {
                let (b, s) = free.remove(i);
                base = base.min(b);
                size += s;
            }
            free.push((base, size));
        }
    }

    /// Total bytes currently sitting on free lists (diagnostics).
    pub fn free_bytes(&self) -> u64 {
        self.free
            .iter()
            .map(|f| lock_free(f).iter().map(|&(_, s)| s).sum::<u64>())
            .sum()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Arc<IoEngine> {
        &self.engine
    }

    /// Number of disks in the volume.
    pub fn width(&self) -> usize {
        self.engine.width()
    }

    /// Create a striped file across `disks` with the given chunk size,
    /// reserving member extents big enough for `size_hint` logical bytes
    /// (the paper pre-extends the output file the same way).
    ///
    /// # Panics
    /// If `disks` is empty, repeats a disk, references an unknown disk, or
    /// a disk limit is set and the allocation does not fit (use
    /// [`try_create`](Self::try_create) to handle full disks as an error).
    pub fn create(
        &self,
        name: impl Into<String>,
        disks: &[usize],
        chunk: u64,
        size_hint: u64,
    ) -> StripedFile {
        self.try_create(name, disks, chunk, size_hint)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`create`](Self::create), but a full disk surfaces as
    /// [`io::ErrorKind::StorageFull`] naming the disk and the shortfall,
    /// instead of panicking. Partially allocated member extents are
    /// returned to the free lists on failure.
    ///
    /// # Panics
    /// Still panics on caller bugs: an empty, duplicated or unknown disk
    /// set.
    pub fn try_create(
        &self,
        name: impl Into<String>,
        disks: &[usize],
        chunk: u64,
        size_hint: u64,
    ) -> io::Result<StripedFile> {
        let name = name.into();
        assert!(!disks.is_empty(), "striped file needs at least one disk");
        {
            let mut sorted = disks.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), disks.len(), "duplicate disk in stripe set");
        }
        // Geometry first (bases filled below) to size the member extents.
        let probe = StripeDef::new(
            name.clone(),
            chunk,
            disks.iter().map(|&d| Member { disk: d, base: 0 }).collect(),
        );
        let extent = probe.member_extent(size_hint).max(chunk);
        let mut members: Vec<Member> = Vec::with_capacity(disks.len());
        for &d in disks {
            assert!(d < self.width(), "unknown disk {d}");
            match self.allocate(d, extent) {
                Ok(base) => members.push(Member { disk: d, base }),
                Err(e) => {
                    // Roll back the extents already taken for this file.
                    for m in &members {
                        lock_free(&self.free[m.disk]).push((m.base, extent));
                    }
                    return Err(e);
                }
            }
        }
        let capacity = extent * disks.len() as u64;
        let mut file = StripedFile::with_capacity(
            StripeDef::new(name, chunk, members),
            Arc::clone(&self.engine),
            capacity,
        );
        file.attach_policy(Arc::clone(&self.policy));
        Ok(file)
    }

    /// Create a file striped across *all* the volume's disks.
    pub fn create_across_all(
        &self,
        name: impl Into<String>,
        chunk: u64,
        size_hint: u64,
    ) -> StripedFile {
        let disks: Vec<usize> = (0..self.width()).collect();
        self.create(name, &disks, chunk, size_hint)
    }

    /// Fallible form of [`create_across_all`](Self::create_across_all).
    pub fn try_create_across_all(
        &self,
        name: impl Into<String>,
        chunk: u64,
        size_hint: u64,
    ) -> io::Result<StripedFile> {
        let disks: Vec<usize> = (0..self.width()).collect();
        self.try_create(name, &disks, chunk, size_hint)
    }

    /// Open a file from a definition this process obtained itself.
    ///
    /// # Panics
    /// If the definition does not fit the volume (see
    /// [`try_open`](Self::try_open), the form for definitions read back
    /// from outside).
    pub fn open(&self, def: StripeDef) -> StripedFile {
        self.try_open(def).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Open a file from a previously obtained definition. A member on a
    /// disk the volume does not have, or whose extent ends past `u64`, is
    /// `InvalidData`: definitions come back from descriptor and manifest
    /// files, so they never index a disk or size an extent unchecked.
    pub fn try_open(&self, def: StripeDef) -> io::Result<StripedFile> {
        let extent = def.member_extent(def.len);
        let fits = |m: &&Member| m.disk < self.width() && m.base.checked_add(extent).is_some();
        if let Some(m) = def.members.iter().find(|m| !fits(m)) {
            let (name, width) = (&def.name, self.width());
            let what = format!(
                "stripe file '{name}' puts {extent} bytes at {} on disk {} of a {width}-disk volume",
                m.base, m.disk
            );
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        // Openers must not allocate over the file: bump each member's
        // watermark past its extent's in-use region.
        for m in &def.members {
            self.next_free[m.disk].fetch_max(m.base + extent, Ordering::AcqRel);
        }
        let mut file = StripedFile::new(def, Arc::clone(&self.engine));
        file.attach_policy(Arc::clone(&self.policy));
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_files_on_shared_disks_do_not_overlap() {
        let v = Volume::in_memory(4);
        let a = v.create("a", &[0, 1, 2, 3], 64, 4096);
        let b = v.create("b", &[0, 1, 2, 3], 64, 4096);
        a.write_at(0, &vec![0xAA; 4096]).unwrap();
        b.write_at(0, &vec![0xBB; 4096]).unwrap();
        assert_eq!(a.read_at(0, 4096).unwrap(), vec![0xAA; 4096]);
        assert_eq!(b.read_at(0, 4096).unwrap(), vec![0xBB; 4096]);
    }

    #[test]
    fn subset_striping() {
        let v = Volume::in_memory(4);
        let f = v.create("half", &[1, 3], 32, 1024);
        f.write_at(0, &vec![7u8; 1024]).unwrap();
        let stats: Vec<u64> = v
            .engine()
            .disks()
            .iter()
            .map(|d| d.stats().bytes_written)
            .collect();
        assert_eq!(stats[0], 0);
        assert_eq!(stats[2], 0);
        assert_eq!(stats[1], 512);
        assert_eq!(stats[3], 512);
    }

    #[test]
    fn open_bumps_allocator_past_existing_data() {
        let v = Volume::in_memory(2);
        let f = v.create("old", &[0, 1], 16, 256);
        f.write_at(0, &vec![1u8; 256]).unwrap();
        let def = f.def_snapshot();

        // A second volume over the same engine (fresh allocator) must not
        // allocate over the opened file.
        let v2 = Volume::new(Arc::clone(v.engine()));
        let reopened = v2.open(def);
        let newfile = v2.create("new", &[0, 1], 16, 256);
        newfile.write_at(0, &vec![2u8; 256]).unwrap();
        assert_eq!(reopened.read_at(0, 256).unwrap(), vec![1u8; 256]);
    }

    #[test]
    fn definitions_that_do_not_fit_the_volume_are_errors() {
        let v = Volume::in_memory(2);
        let f = v.create("f", &[0, 1], 64, 256);
        f.write_at(0, &[5u8; 256]).unwrap();
        let mut def = f.def_snapshot();
        def.members[1].disk = 9;
        let e = v.try_open(def.clone()).err().expect("disk 9 of 2 opened");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string().contains("on disk 9 of a 2-disk volume"),
            "{e}"
        );
        def.members[1] = Member {
            disk: 1,
            base: u64::MAX - 64,
        };
        let e = v
            .try_open(def.clone())
            .err()
            .expect("extent past u64 opened");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // The refused opens reserved nothing: the next file follows `f`.
        let next = v.create("next", &[0, 1], 64, 256);
        assert!(
            next.def().members.iter().all(|m| m.base == 128),
            "{:?}",
            next.def()
        );
        // One that ends just short of `u64::MAX` opens, and the allocation
        // after it is a full disk — not a watermark wrapped onto `f`.
        def.members[1].base = u64::MAX - 256;
        v.try_open(def).unwrap();
        let e = v.try_create("wraps", &[1], 64, 256).err().expect("wrapped");
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn deleted_extents_are_reused() {
        let v = Volume::in_memory(2);
        let a = v.create("a", &[0, 1], 64, 1_024);
        let a_bases: Vec<u64> = a.def().members.iter().map(|m| m.base).collect();
        a.write_at(0, &[1u8; 1_024]).unwrap();
        v.delete(&a);
        assert!(v.free_bytes() > 0);

        // Same-size file lands on the freed extents.
        let b = v.create("b", &[0, 1], 64, 1_024);
        let b_bases: Vec<u64> = b.def().members.iter().map(|m| m.base).collect();
        assert_eq!(a_bases, b_bases);
        assert_eq!(v.free_bytes(), 0);
        b.write_at(0, &[2u8; 1_024]).unwrap();
        assert_eq!(b.read_at(0, 1_024).unwrap(), vec![2u8; 1_024]);
    }

    #[test]
    fn smaller_reuse_splits_the_extent() {
        let v = Volume::in_memory(1);
        let big = v.create("big", &[0], 64, 4_096);
        v.delete(&big);
        let free_before = v.free_bytes();
        let small = v.create("small", &[0], 64, 128);
        // Small file carved from the freed extent; remainder stays free.
        assert_eq!(small.def().members[0].base, big.def().members[0].base);
        assert!(v.free_bytes() < free_before);
        assert!(v.free_bytes() > 0);
        // A fresh big file must NOT overlap the small one.
        let big2 = v.create("big2", &[0], 64, 4_096);
        small.write_at(0, &[7u8; 128]).unwrap();
        big2.write_at(0, &[9u8; 4_096]).unwrap();
        assert_eq!(small.read_at(0, 128).unwrap(), vec![7u8; 128]);
    }

    #[test]
    fn writes_past_reserved_capacity_are_rejected() {
        // Files allocate back-to-back on the member disks; overflowing one
        // would corrupt the next, so it must error instead (the bug class
        // the cascade merge hit before size hints were threaded through).
        let v = Volume::in_memory(2);
        let small = v.create("small", &[0, 1], 64, 256);
        let neighbour = v.create("neighbour", &[0, 1], 64, 256);
        neighbour.write_at(0, &[0xEE; 256]).unwrap();

        let cap = small.capacity().unwrap();
        assert!(cap >= 256);
        let err = small.write_at(0, &vec![1u8; cap as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // The neighbour is untouched.
        assert_eq!(neighbour.read_at(0, 256).unwrap(), vec![0xEE; 256]);
    }

    #[test]
    fn disk_limit_surfaces_storage_full() {
        let mut v = Volume::in_memory(2);
        v.set_disk_limit(Some(1_024));
        let a = v.try_create("fits", &[0, 1], 64, 1_024).unwrap();
        assert!(a.capacity().unwrap() >= 1_024);
        let err = match v.try_create("toobig", &[0, 1], 64, 4_096) {
            Ok(_) => panic!("expected StorageFull"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        let msg = err.to_string();
        assert!(msg.contains("full: needed"), "{msg}");
        assert!(msg.contains("had"), "{msg}");
    }

    #[test]
    fn failed_try_create_rolls_back_partial_allocations() {
        // Disk 0 has freed space but disk 1 is full: the file cannot be
        // created, and disk 0's extent must return to the free list.
        let mut v = Volume::in_memory(2);
        v.set_disk_limit(Some(512));
        let _fill1 = v.try_create("fill1", &[1], 64, 512).unwrap(); // disk 1 full
        let a = v.try_create("a", &[0], 64, 512).unwrap();
        v.delete(&a); // disk 0: 512 B on the free list, watermark at limit
        let free_before = v.free_bytes();
        // Needs 512 B per member: disk 0 reuses the freed extent, disk 1
        // has nothing left → the whole create fails and rolls back.
        let err = match v.try_create("b", &[0, 1], 64, 1_024) {
            Ok(_) => panic!("expected StorageFull"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(v.free_bytes(), free_before);
        // The rolled-back extent is still usable.
        v.try_create("c", &[0], 64, 512).unwrap();
    }

    #[test]
    fn volume_files_share_the_retry_policy() {
        use crate::retry::RetryPolicy;
        let mut v = Volume::in_memory(2);
        v.set_retry_policy(RetryPolicy {
            max_attempts: 5,
            backoff: std::time::Duration::ZERO,
            disk_fail_threshold: 0,
        });
        assert_eq!(v.retry_policy().max_attempts, 5);
        // Files created after the change carry it (smoke: IO still works).
        let f = v.create("p", &[0, 1], 64, 256);
        f.write_at(0, &[9u8; 256]).unwrap();
        assert_eq!(f.read_at(0, 256).unwrap(), vec![9u8; 256]);
    }

    #[test]
    #[should_panic(expected = "duplicate disk")]
    fn duplicate_disks_rejected() {
        let v = Volume::in_memory(2);
        v.create("dup", &[0, 0], 16, 64);
    }

    #[test]
    fn create_across_all_uses_every_disk() {
        let v = Volume::in_memory(5);
        let f = v.create_across_all("wide", 16, 0);
        assert_eq!(f.width(), 5);
    }
}
