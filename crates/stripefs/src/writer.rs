//! Buffered sequential striped writing with write-behind.
//!
//! Full strides are issued asynchronously as soon as they are staged; up to
//! `depth` strides stay in flight (default 3), so the writer returns to the
//! caller while member disks drain — the output-side half of the paper's
//! triple buffering.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::Arc;

use alphasort_crc::{crc32c, Crc32c};
use alphasort_obs as obs;

use crate::file::{StripedFile, StripedWrite};
use crate::integrity::RunChecksums;

/// Accumulated fingerprints for a checksummed writer: one CRC per issued
/// physical segment (grouped by stride), plus the whole-stream CRC.
struct ChecksumState {
    strides: Vec<Vec<u32>>,
    total: Crc32c,
}

impl ChecksumState {
    /// Fingerprint one issued write (`chunk` at logical `pos`) before it
    /// leaves the staging buffer.
    fn record(&mut self, file: &StripedFile, pos: u64, chunk: &[u8]) {
        let segs = file
            .def()
            .plan(pos, chunk.len())
            .into_iter()
            .map(|seg| crc32c(&chunk[seg.buf_off..seg.buf_off + seg.len]))
            .collect();
        self.strides.push(segs);
        self.total.update(chunk);
    }
}

/// Sequential writer over a [`StripedFile`] with N-deep write-behind.
pub struct StripedWriter {
    file: Arc<StripedFile>,
    depth: usize,
    /// Logical offset of the next issued write.
    pos: u64,
    staging: Vec<u8>,
    inflight: VecDeque<StripedWrite>,
    finished: bool,
    /// Present when created via [`with_checksums`](Self::with_checksums).
    checks: Option<ChecksumState>,
}

impl StripedWriter {
    /// Default number of strides kept in flight.
    pub const DEFAULT_DEPTH: usize = 3;

    /// Start writing `file` at offset 0 with the default depth.
    pub fn new(file: Arc<StripedFile>) -> Self {
        Self::with_depth(file, Self::DEFAULT_DEPTH)
    }

    /// Start writing `file` at offset 0, keeping `depth` strides in flight.
    pub fn with_depth(file: Arc<StripedFile>, depth: usize) -> Self {
        assert!(depth > 0, "write-behind depth must be positive");
        StripedWriter {
            file,
            depth,
            pos: 0,
            staging: Vec::new(),
            inflight: VecDeque::new(),
            finished: false,
            checks: None,
        }
    }

    /// Like [`new`](Self::new), but every issued stride is fingerprinted
    /// (one CRC32C per physical segment) as it goes out; collect the result
    /// with [`finish_checksummed`](Self::finish_checksummed).
    pub fn with_checksums(file: Arc<StripedFile>) -> Self {
        let mut w = Self::new(file);
        w.checks = Some(ChecksumState {
            strides: Vec::new(),
            total: Crc32c::new(),
        });
        w
    }

    /// Whether this writer was created by
    /// [`with_checksums`](Self::with_checksums).
    pub fn is_checksummed(&self) -> bool {
        self.checks.is_some()
    }

    /// Bytes accepted so far (issued + staged).
    pub fn position(&self) -> u64 {
        self.pos + self.staging.len() as u64
    }

    fn reap(&mut self, down_to: usize) -> io::Result<()> {
        if self.inflight.len() <= down_to {
            return Ok(());
        }
        // The span is the write-behind back-pressure wait: how long the
        // caller stalls for issued strides to drain below `down_to`.
        let mut g = obs::span(obs::phase::STRIPE_WRITE);
        let mut reaped = 0u64;
        while self.inflight.len() > down_to {
            let Some(w) = self.inflight.pop_front() else {
                break;
            };
            w.wait()?;
            reaped += 1;
        }
        g.attr("writes", reaped);
        obs::metrics::counter_add("stripe.writes.reaped", reaped);
        Ok(())
    }

    fn issue_full_strides(&mut self) -> io::Result<()> {
        let stride = self.file.stride() as usize;
        let mut issued = 0;
        while self.staging.len() - issued >= stride {
            // Block if the pipeline is full (backpressure).
            self.reap(self.depth - 1)?;
            let chunk = &self.staging[issued..issued + stride];
            if let Some(cs) = &mut self.checks {
                cs.record(&self.file, self.pos, chunk);
            }
            let w = self.file.write_at_async(self.pos, chunk);
            obs::metrics::counter_add("stripe.write.bytes", stride as u64);
            self.inflight.push_back(w);
            self.pos += stride as u64;
            issued += stride;
        }
        if issued > 0 {
            self.staging.drain(..issued);
        }
        Ok(())
    }

    /// Append bytes; full strides are issued asynchronously behind the call.
    pub fn push(&mut self, data: &[u8]) -> io::Result<()> {
        assert!(!self.finished, "writer already finished");
        self.staging.extend_from_slice(data);
        self.issue_full_strides()
    }

    /// Flush the final partial stride and wait for everything in flight.
    /// Returns the total logical bytes written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.finish_inner()
    }

    /// Like [`finish`](Self::finish), additionally returning the stride
    /// fingerprints accumulated since [`with_checksums`](Self::with_checksums).
    ///
    /// # Panics
    /// If the writer was not created with `with_checksums`.
    pub fn finish_checksummed(mut self) -> io::Result<(u64, RunChecksums)> {
        let bytes = self.finish_inner()?;
        let cs = self
            .checks
            .take()
            .expect("finish_checksummed on a writer created without with_checksums");
        Ok((
            bytes,
            RunChecksums {
                strides: cs.strides,
                total: cs.total.finish(),
                bytes,
            },
        ))
    }

    fn finish_inner(&mut self) -> io::Result<u64> {
        self.finished = true;
        self.issue_full_strides()?;
        if !self.staging.is_empty() {
            let tail = std::mem::take(&mut self.staging);
            if let Some(cs) = &mut self.checks {
                cs.record(&self.file, self.pos, &tail);
            }
            let w = self.file.write_at_async(self.pos, &tail);
            obs::metrics::counter_add("stripe.write.bytes", tail.len() as u64);
            self.pos += tail.len() as u64;
            self.inflight.push_back(w);
        }
        self.reap(0)?;
        Ok(self.pos)
    }
}

/// Dropping without [`finish`](StripedWriter::finish) must not leave
/// already-issued strides dangling: in-flight writes are reaped (waited
/// for, errors swallowed — there is nobody left to report them to) so the
/// data the caller was told is "behind the call" actually lands. A
/// non-empty staging buffer at that point is a partial tail the caller
/// abandoned; it is counted in `stripe.write.abandoned_bytes` rather than
/// silently discarded without trace. After a successful `finish` both
/// queues are empty and this is a no-op.
impl Drop for StripedWriter {
    fn drop(&mut self) {
        for w in self.inflight.drain(..) {
            let _ = w.wait();
        }
        if !self.staging.is_empty() {
            obs::metrics::counter_add("stripe.write.abandoned_bytes", self.staging.len() as u64);
        }
    }
}

impl Write for StripedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.push(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Only whole-stride granularity is flushed here; the partial tail
        // goes out in `finish()`.
        self.issue_full_strides()?;
        self.reap(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StripedReader;
    use crate::volume::Volume;

    #[test]
    fn write_read_roundtrip_via_streams() {
        let v = Volume::in_memory(4);
        let f = Arc::new(v.create_across_all("out", 128, 20_000));
        let data: Vec<u8> = (0..20_000).map(|i| (i % 253) as u8).collect();

        let mut w = StripedWriter::new(Arc::clone(&f));
        for chunk in data.chunks(777) {
            w.push(chunk).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 20_000);

        let mut r = StripedReader::new(f);
        let mut got = Vec::new();
        std::io::Read::read_to_end(&mut r, &mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn tiny_pushes_coalesce_into_strides() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("tiny", 64, 1_000));
        let mut w = StripedWriter::new(Arc::clone(&f));
        for i in 0..1_000u32 {
            w.push(&[(i % 251) as u8]).unwrap();
        }
        w.finish().unwrap();
        let back = f.read_at(0, 1_000).unwrap();
        assert!(back.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }

    #[test]
    fn finish_flushes_partial_tail() {
        let v = Volume::in_memory(3);
        let f = Arc::new(v.create_across_all("tail", 100, 500));
        let mut w = StripedWriter::new(Arc::clone(&f));
        w.push(&[9u8; 50]).unwrap(); // less than one chunk
        assert_eq!(w.finish().unwrap(), 50);
        assert_eq!(f.read_at(0, 50).unwrap(), vec![9u8; 50]);
        assert_eq!(f.len(), 50);
    }

    #[test]
    fn position_tracks_accepted_bytes() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("pos", 64, 1024));
        let mut w = StripedWriter::new(f);
        w.push(&[0u8; 100]).unwrap();
        assert_eq!(w.position(), 100);
        w.push(&[0u8; 29]).unwrap();
        assert_eq!(w.position(), 129);
    }

    #[test]
    fn io_write_trait_works() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("wtrait", 64, 1024));
        let mut w = StripedWriter::new(Arc::clone(&f));
        std::io::Write::write_all(&mut w, &[5u8; 300]).unwrap();
        std::io::Write::flush(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(f.read_at(0, 300).unwrap(), vec![5u8; 300]);
    }

    #[test]
    fn drop_without_finish_keeps_issued_strides() {
        // Regression: dropping the writer mid-stream used to abandon its
        // in-flight strides (and silently discard the staged tail). The
        // full strides were issued behind `push` — they must be durable
        // even if the caller forgets `finish`.
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("dropped", 100, 4_000));
        let data: Vec<u8> = (0..1_250).map(|i| (i % 241) as u8).collect();
        {
            let mut w = StripedWriter::new(Arc::clone(&f));
            w.push(&data).unwrap(); // 6 full 200-byte strides + 50-byte tail
        } // dropped without finish
        let strides = (data.len() / 200) * 200;
        assert_eq!(f.read_at(0, strides).unwrap(), data[..strides]);
        // The abandoned tail is visible in metrics, not silently lost.
        alphasort_obs::enable(alphasort_obs::DEFAULT_CAPACITY);
        let before = abandoned_bytes();
        {
            let mut w = StripedWriter::new(Arc::clone(&f));
            w.push(&[7u8; 30]).unwrap(); // all tail, nothing issued
        }
        assert_eq!(abandoned_bytes() - before, 30);
        alphasort_obs::disable();
    }

    fn abandoned_bytes() -> u64 {
        alphasort_obs::metrics_snapshot()
            .counters
            .get("stripe.write.abandoned_bytes")
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn empty_finish_is_zero_bytes() {
        let v = Volume::in_memory(2);
        let f = Arc::new(v.create_across_all("none", 64, 0));
        let w = StripedWriter::new(f);
        assert_eq!(w.finish().unwrap(), 0);
    }
}
