//! Buffered sequential striped reading with read-ahead.
//!
//! Keeps `depth` stride-sized reads in flight (default 3 — the paper's
//! triple buffering), so member disks stream at their spiral rate instead of
//! stalling between requests.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::sync::Arc;

use alphasort_crc::crc32c;
use alphasort_obs as obs;

use crate::file::{StripedFile, StripedRead};
use crate::integrity::RunChecksums;

/// Sequential reader over a [`StripedFile`] with N-deep read-ahead.
pub struct StripedReader {
    file: Arc<StripedFile>,
    depth: usize,
    /// Next logical offset to *issue* a read for.
    issue_pos: u64,
    /// First logical offset this reader covers (0 for whole-file readers).
    start: u64,
    /// Exclusive logical end offset (the file length snapshot for
    /// whole-file readers; a stride boundary for ranged ones).
    len: u64,
    inflight: VecDeque<(u64, StripedRead)>,
    /// Left-over bytes for the `Read` impl.
    spill: Vec<u8>,
    spill_off: usize,
    /// Expected stride fingerprints; every delivered stride is verified
    /// against them when present.
    checks: Option<RunChecksums>,
}

impl StripedReader {
    /// Default number of strides kept in flight.
    pub const DEFAULT_DEPTH: usize = 3;

    /// Start reading `file` from offset 0 with the default depth.
    pub fn new(file: Arc<StripedFile>) -> Self {
        Self::with_depth(file, Self::DEFAULT_DEPTH)
    }

    /// Start reading `file` from offset 0, keeping `depth` strides in flight.
    pub fn with_depth(file: Arc<StripedFile>, depth: usize) -> Self {
        let len = file.len();
        Self::ranged_with_depth(file, 0, len, depth)
    }

    /// Read only the logical range `[start, end)` of `file` with the
    /// default depth. `start` must be stride-aligned; `end` is rounded up
    /// to the next stride boundary (capped at the file length) so every
    /// delivered stride keeps its whole-stride checksum index — callers
    /// wanting a byte-exact window trim the first and last strides
    /// themselves.
    ///
    /// # Panics
    /// If `start` is not stride-aligned or the range is outside the file.
    pub fn ranged(file: Arc<StripedFile>, start: u64, end: u64) -> Self {
        Self::ranged_with_depth(file, start, end, Self::DEFAULT_DEPTH)
    }

    /// [`ranged`](Self::ranged) with an explicit read-ahead depth.
    pub fn ranged_with_depth(file: Arc<StripedFile>, start: u64, end: u64, depth: usize) -> Self {
        assert!(depth > 0, "read-ahead depth must be positive");
        let stride = file.stride();
        let flen = file.len();
        assert!(
            start.is_multiple_of(stride),
            "range start {start} not aligned to stride {stride}"
        );
        assert!(
            start <= end && end <= flen,
            "range {start}..{end} outside file of {flen} bytes"
        );
        let end = if end.is_multiple_of(stride) {
            end
        } else {
            ((end / stride + 1) * stride).min(flen)
        };
        let mut r = StripedReader {
            file,
            depth,
            issue_pos: start,
            start,
            len: end,
            inflight: VecDeque::new(),
            spill: Vec::new(),
            spill_off: 0,
            checks: None,
        };
        r.pump();
        r
    }

    /// Like [`ranged`](Self::ranged), verifying every delivered stride
    /// against `checks` (a whole-file manifest — stride checksums are
    /// indexed by absolute offset, so a range verifies with the same
    /// fingerprints as a full read).
    pub fn verified_ranged(
        file: Arc<StripedFile>,
        checks: RunChecksums,
        start: u64,
        end: u64,
    ) -> io::Result<Self> {
        if checks.bytes != file.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checksum manifest for file '{}' covers {} bytes but the file has {}",
                    file.def().name,
                    checks.bytes,
                    file.len()
                ),
            ));
        }
        let mut r = Self::ranged(file, start, end);
        r.checks = Some(checks);
        Ok(r)
    }

    /// Like [`new`](Self::new), but every delivered stride is verified
    /// against `checks` (recorded at write time by
    /// [`StripedWriter::with_checksums`](crate::StripedWriter::with_checksums)).
    /// A mismatching segment surfaces as [`io::ErrorKind::InvalidData`]
    /// naming the member disk, physical offset and logical position.
    ///
    /// Fails up front if `checks` does not cover the file's current length
    /// (a truncated or over-extended file is corruption too).
    pub fn verified(file: Arc<StripedFile>, checks: RunChecksums) -> io::Result<Self> {
        if checks.bytes != file.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checksum manifest for file '{}' covers {} bytes but the file has {}",
                    file.def().name,
                    checks.bytes,
                    file.len()
                ),
            ));
        }
        let mut r = Self::new(file);
        r.checks = Some(checks);
        Ok(r)
    }

    /// Verify one delivered stride against the recorded fingerprints.
    fn verify_stride(&self, off: u64, data: &[u8]) -> io::Result<()> {
        let Some(checks) = &self.checks else {
            return Ok(());
        };
        let def = self.file.def();
        let idx = (off / def.stride()) as usize;
        let expected = checks.strides.get(idx).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "file '{}' has no recorded checksums for stride {idx} \
                     (logical offset {off}); manifest is truncated",
                    def.name
                ),
            )
        })?;
        let plan = def.plan(off, data.len());
        if plan.len() != expected.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "file '{}' stride {idx}: {} segments planned but {} checksums recorded",
                    def.name,
                    plan.len(),
                    expected.len()
                ),
            ));
        }
        for (seg, &want) in plan.iter().zip(expected) {
            let got = crc32c(&data[seg.buf_off..seg.buf_off + seg.len]);
            if got != want {
                let disk = def.members[seg.member].disk;
                obs::metrics::counter_add("stripe.crc_error", 1);
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checksum mismatch on disk {disk} ({}) at phys offset {}: \
                         file '{}' stride {idx}, logical offset {}: \
                         expected {want:#010x}, got {got:#010x}",
                        self.file.engine().disks()[disk].name(),
                        seg.phys,
                        def.name,
                        off + seg.buf_off as u64,
                    ),
                ));
            }
        }
        Ok(())
    }

    fn pump(&mut self) {
        while self.inflight.len() < self.depth && self.issue_pos < self.len {
            let stride = self.file.stride();
            let n = stride.min(self.len - self.issue_pos) as usize;
            let rd = self.file.read_at_async(self.issue_pos, n);
            self.inflight.push_back((self.issue_pos, rd));
            self.issue_pos += n as u64;
        }
    }

    /// Total logical bytes this reader will deliver.
    pub fn total_len(&self) -> u64 {
        self.len - self.start
    }

    /// Fetch the next stride's bytes, or `None` at end of file.
    ///
    /// Strides arrive in order; while the caller processes one, up to
    /// `depth - 1` more are already moving on the disks.
    pub fn next_stride(&mut self) -> Option<io::Result<Vec<u8>>> {
        let (off, rd) = self.inflight.pop_front()?;
        // The span covers only the wait for the already-issued read to
        // land — with read-ahead working, it should be near zero.
        let mut g = obs::span(obs::phase::STRIPE_READ);
        g.attr("offset", off);
        let data = rd.wait().and_then(|d| {
            self.verify_stride(off, &d)?;
            Ok(d)
        });
        if let Ok(d) = &data {
            g.attr("bytes", d.len() as u64);
            obs::metrics::counter_add("stripe.read.bytes", d.len() as u64);
        }
        drop(g);
        self.pump();
        Some(data)
    }
}

impl Read for StripedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.spill_off >= self.spill.len() {
            match self.next_stride() {
                None => return Ok(0),
                Some(stride) => {
                    self.spill = stride?;
                    self.spill_off = 0;
                }
            }
        }
        let avail = &self.spill[self.spill_off..];
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.spill_off += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Volume;
    use alphasort_iosim::{IoEngine, MemStorage, Pacing, SimDisk};

    fn filled_file(v: &Volume, len: usize, chunk: u64) -> (Arc<StripedFile>, Vec<u8>) {
        let f = v.create_across_all("data", chunk, len as u64);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data).unwrap();
        (Arc::new(f), data)
    }

    #[test]
    fn strides_arrive_in_order_and_complete() {
        let v = Volume::in_memory(4);
        let (f, data) = filled_file(&v, 10_000, 256); // stride = 1024
        let mut r = StripedReader::new(Arc::clone(&f));
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            got.extend_from_slice(&s.unwrap());
        }
        assert_eq!(got, data);
    }

    #[test]
    fn final_partial_stride_is_clamped() {
        let v = Volume::in_memory(2);
        let (f, data) = filled_file(&v, 1000, 128); // stride 256; 1000 = 3×256 + 232
        let mut r = StripedReader::new(f);
        let mut sizes = Vec::new();
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            let s = s.unwrap();
            sizes.push(s.len());
            got.extend_from_slice(&s);
        }
        assert_eq!(sizes, vec![256, 256, 256, 232]);
        assert_eq!(got, data);
    }

    #[test]
    fn read_trait_delivers_identical_bytes() {
        let v = Volume::in_memory(3);
        let (f, data) = filled_file(&v, 5_000, 100);
        let mut r = StripedReader::new(f);
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn depth_one_still_correct() {
        let v = Volume::in_memory(2);
        let (f, data) = filled_file(&v, 3_000, 64);
        let mut r = StripedReader::with_depth(f, 1);
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            got.extend_from_slice(&s.unwrap());
        }
        assert_eq!(got, data);
    }

    #[test]
    fn empty_file_yields_nothing() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("empty", 64, 0));
        let mut r = StripedReader::new(f);
        assert!(r.next_stride().is_none());
    }

    #[test]
    fn ranged_reader_delivers_exactly_the_aligned_window() {
        let v = Volume::in_memory(4);
        let (f, data) = filled_file(&v, 10_000, 256); // stride = 1024
        // Aligned start, unaligned end: rounded up to the next stride.
        let mut r = StripedReader::ranged(Arc::clone(&f), 2_048, 5_000);
        assert_eq!(r.total_len(), 5_120 - 2_048);
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            got.extend_from_slice(&s.unwrap());
        }
        assert_eq!(got, data[2_048..5_120]);
        // End at the file's (partial-stride) tail stays capped to the file.
        let mut r = StripedReader::ranged(Arc::clone(&f), 8_192, 10_000);
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            got.extend_from_slice(&s.unwrap());
        }
        assert_eq!(got, data[8_192..]);
        // Empty range.
        let mut r = StripedReader::ranged(f, 1_024, 1_024);
        assert!(r.next_stride().is_none());
        assert_eq!(r.total_len(), 0);
    }

    #[test]
    #[should_panic(expected = "not aligned to stride")]
    fn ranged_reader_rejects_unaligned_start() {
        let v = Volume::in_memory(2);
        let (f, _) = filled_file(&v, 1_000, 128);
        let _ = StripedReader::ranged(f, 100, 500);
    }

    #[test]
    fn verified_ranged_reader_checks_mid_file_strides() {
        let v = Volume::in_memory(3);
        let f = Arc::new(v.create_across_all("vr", 64, 5_000));
        let data: Vec<u8> = (0..5_000).map(|i| (i % 247) as u8).collect();
        let mut w = crate::StripedWriter::with_checksums(Arc::clone(&f));
        w.push(&data).unwrap();
        let (_, checks) = w.finish_checksummed().unwrap();
        let stride = f.stride();

        // A clean mid-file range verifies with the whole-file manifest.
        let (s, e) = (stride * 3, stride * 7);
        let mut r =
            StripedReader::verified_ranged(Arc::clone(&f), checks.clone(), s, e).unwrap();
        let mut got = Vec::new();
        while let Some(x) = r.next_stride() {
            got.extend_from_slice(&x.unwrap());
        }
        assert_eq!(got, data[s as usize..e as usize]);

        // Corrupt a byte inside the range: the ranged read catches it.
        let base = f.def().members[0].base;
        v.engine()
            .write(0, base + stride * 4 / 3, vec![0xEE])
            .wait()
            .unwrap();
        let mut r = StripedReader::verified_ranged(f, checks, s, e).unwrap();
        let mut saw_err = false;
        while let Some(x) = r.next_stride() {
            if x.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "corruption inside the range went unnoticed");
    }

    #[test]
    fn verified_reader_accepts_clean_data() {
        let v = Volume::in_memory(3);
        let f = Arc::new(v.create_across_all("ok", 64, 5_000));
        let data: Vec<u8> = (0..5_000).map(|i| (i % 249) as u8).collect();
        let mut w = crate::StripedWriter::with_checksums(Arc::clone(&f));
        w.push(&data).unwrap();
        let (n, checks) = w.finish_checksummed().unwrap();
        assert_eq!(n, 5_000);
        assert_eq!(checks.bytes, 5_000);
        assert!(!checks.strides.is_empty());

        let mut r = StripedReader::verified(Arc::clone(&f), checks).unwrap();
        let mut got = Vec::new();
        while let Some(s) = r.next_stride() {
            got.extend_from_slice(&s.unwrap());
        }
        assert_eq!(got, data);
    }

    #[test]
    fn verified_reader_names_the_corrupt_disk() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("tamper", 64, 2_000));
        let data = vec![0x33u8; 2_000];
        let mut w = crate::StripedWriter::with_checksums(Arc::clone(&f));
        w.push(&data).unwrap();
        let (_, checks) = w.finish_checksummed().unwrap();

        // Flip one byte on disk 1 behind the stripe layer's back (stride =
        // 128, so logical offset 64 lives in chunk 1 → disk 1 at phys base).
        let base = f.def().members[1].base;
        v.engine().write(1, base, vec![0xCC]).wait().unwrap();

        let mut r = StripedReader::verified(Arc::clone(&f), checks).unwrap();
        let err = r.next_stride().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch on disk 1 (d1)"), "{msg}");
        assert!(msg.contains("file 'tamper'"), "{msg}");
        assert!(msg.contains("stride 0"), "{msg}");
    }

    #[test]
    fn verified_reader_rejects_wrong_length_up_front() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("short", 64, 1_000));
        let mut w = crate::StripedWriter::with_checksums(Arc::clone(&f));
        w.push(&[1u8; 500]).unwrap();
        let (_, mut checks) = w.finish_checksummed().unwrap();
        checks.bytes = 400; // manifest lies about coverage
        let err = match StripedReader::verified(f, checks) {
            Ok(_) => panic!("expected length mismatch"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("covers 400 bytes"), "{err}");
    }

    #[test]
    fn read_ahead_keeps_multiple_requests_outstanding() {
        // With paced disks, reading N strides with depth 3 must beat
        // depth 1 because transfers overlap with the caller's "processing".
        let spec = alphasort_iosim::DiskSpec {
            name: "slow".into(),
            read_mbps: 5.0,
            write_mbps: 5.0,
            seek_ms: 0.0,
            capacity_gb: 1.0,
            price_dollars: 0.0,
        };
        let disks: Vec<_> = (0..2)
            .map(|i| {
                SimDisk::new(
                    format!("s{i}"),
                    spec.clone(),
                    Arc::new(MemStorage::new()),
                    Pacing::RealTime { speedup: 1.0 },
                    None,
                )
            })
            .collect();
        let v = Volume::new(Arc::new(IoEngine::new(disks)));
        let (f, _) = {
            let f = v.create_across_all("paced", 64 * 1024, 2_000_000);
            let data = vec![3u8; 2_000_000];
            f.write_at(0, &data).unwrap();
            (Arc::new(f), data)
        };
        // Warm: drain token-bucket burst credit.
        let mut warm = StripedReader::with_depth(Arc::clone(&f), 1);
        while warm.next_stride().is_some() {}

        let t0 = std::time::Instant::now();
        let mut r = StripedReader::with_depth(Arc::clone(&f), 3);
        let mut strides = 0;
        while let Some(s) = r.next_stride() {
            s.unwrap();
            strides += 1;
            // Simulate per-stride compute.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let with_overlap = t0.elapsed();
        assert!(strides > 10);
        // 2 MB over 2×5 MB/s = ~0.2 s of IO; ~0.08 s of compute. Overlapped
        // total must stay well under the serial sum plus slack.
        assert!(
            with_overlap.as_secs_f64() < 0.5,
            "no overlap: {with_overlap:?}"
        );
    }
}
