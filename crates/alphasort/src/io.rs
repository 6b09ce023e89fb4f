//! Record sources and sinks: what the external sort reads and writes.
//!
//! The drivers are generic over [`RecordSource`] / [`RecordSink`] for their
//! input and output, so the same sort reads and writes striped simulated
//! disks ([`StripeSource`] / [`StripeSink`]), host files
//! ([`io_file`](crate::io_file): one-disk stripes over the same pair) or
//! plain memory ([`MemSource`] / [`MemSink`]). Two-pass scratch runs always
//! move through the stripe pair: [`StripeScratch`](crate::driver::StripeScratch)
//! is the one scratch store.

use std::io;
use std::sync::Arc;

use alphasort_stripefs::{RunChecksums, StripedFile, StripedReader, StripedWriter};

/// A sequential supplier of the input's bytes, in chunks.
pub trait RecordSource: Send {
    /// The next chunk, or `None` at end. Chunk sizes are the source's
    /// choice (a striped source hands out strides), so a record may be
    /// split across chunks: the run cutter reassembles it.
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Total bytes this source will deliver, if known up front (a striped
    /// file knows; a pipe would not).
    fn size_hint(&self) -> Option<u64>;
}

/// A sequential consumer of whole-record byte chunks.
pub trait RecordSink: Send {
    /// Append `data` (a whole number of records).
    fn push(&mut self, data: &[u8]) -> io::Result<()>;

    /// Flush everything and return the total byte count accepted.
    fn complete(&mut self) -> io::Result<u64>;
}

/// In-memory source: hands out the buffer in fixed-size chunks.
pub struct MemSource {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl MemSource {
    /// Serve `data` in `chunk`-byte pieces (the final piece may be short).
    pub fn new(data: Vec<u8>, chunk: usize) -> Self {
        assert!(chunk > 0);
        MemSource {
            data,
            pos: 0,
            chunk,
        }
    }
}

impl RecordSource for MemSource {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        let end = (self.pos + self.chunk).min(self.data.len());
        let chunk = self.data[self.pos..end].to_vec();
        self.pos = end;
        Ok(Some(chunk))
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.data.len() as u64)
    }
}

/// In-memory sink: accumulates everything into one buffer.
#[derive(Default)]
pub struct MemSink {
    data: Vec<u8>,
}

impl MemSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated output.
    pub fn into_inner(self) -> Vec<u8> {
        self.data
    }

    /// Borrow the accumulated output.
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

impl RecordSink for MemSink {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        self.data.extend_from_slice(data);
        Ok(())
    }

    fn complete(&mut self) -> io::Result<u64> {
        Ok(self.data.len() as u64)
    }
}

/// Source over a striped file, with the reader's N-deep read-ahead.
/// Optionally restricted to a byte window of the file
/// ([`verified_window`](Self::verified_window)): the reader fetches whole
/// (checksum-indexed) strides and this adapter trims the window edges.
pub struct StripeSource {
    reader: StripedReader,
    /// Leading bytes of the first stride to drop (window start within its
    /// stride); 0 for whole-file sources.
    skip: usize,
    /// Window bytes still to deliver (the whole file for plain sources).
    remaining: u64,
    /// Window length, for `size_hint`.
    total: u64,
}

/// Everything `reader` delivers, as configured (its range, its depth).
impl From<StripedReader> for StripeSource {
    fn from(reader: StripedReader) -> Self {
        let total = reader.total_len();
        StripeSource {
            reader,
            skip: 0,
            remaining: total,
            total,
        }
    }
}

impl StripeSource {
    /// Read `file` sequentially with the default (triple-buffer) depth.
    pub fn new(file: Arc<StripedFile>) -> Self {
        StripedReader::new(file).into()
    }

    /// Read `file` sequentially, verifying every delivered stride against
    /// `checks`; a corrupt segment surfaces as `InvalidData` naming the
    /// member disk and offsets.
    pub fn verified(file: Arc<StripedFile>, checks: RunChecksums) -> io::Result<Self> {
        Ok(StripedReader::verified(file, checks)?.into())
    }

    /// Read only the byte window `[off, off + len)` of `file`, verifying
    /// the strides it touches against the whole-file `checks`. The first
    /// and last strides are fetched whole (checksums are per stride) and
    /// trimmed here, so callers see exactly the window — the partitioned
    /// merge reads one key range of a scratch run through this.
    pub fn verified_window(
        file: Arc<StripedFile>,
        checks: RunChecksums,
        off: u64,
        len: u64,
    ) -> io::Result<Self> {
        let stride = file.stride();
        let aligned = off - off % stride;
        let reader = StripedReader::verified_ranged(file, checks, aligned, off + len)?;
        Ok(StripeSource {
            reader,
            skip: (off - aligned) as usize,
            remaining: len,
            total: len,
        })
    }
}

impl RecordSource for StripeSource {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        while self.remaining > 0 {
            let Some(mut chunk) = self.reader.next_stride().transpose()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "striped source ended {} bytes short of its window",
                        self.remaining
                    ),
                ));
            };
            if self.skip >= chunk.len() {
                self.skip -= chunk.len();
                continue;
            }
            if self.skip > 0 {
                chunk.drain(..self.skip);
                self.skip = 0;
            }
            if chunk.len() as u64 > self.remaining {
                chunk.truncate(self.remaining as usize);
            }
            self.remaining -= chunk.len() as u64;
            return Ok(Some(chunk));
        }
        Ok(None)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Sink over a striped file, with the writer's N-deep write-behind.
pub struct StripeSink {
    writer: Option<StripedWriter>,
    written: u64,
    /// Fingerprints collected by `complete()` on a checksummed sink.
    checks: Option<RunChecksums>,
}

/// Everything pushed goes to `writer`, as configured (its depth, its
/// checksums).
impl From<StripedWriter> for StripeSink {
    fn from(writer: StripedWriter) -> Self {
        StripeSink {
            writer: Some(writer),
            written: 0,
            checks: None,
        }
    }
}

impl StripeSink {
    /// Write `file` sequentially with the default (triple-buffer) depth.
    pub fn new(file: Arc<StripedFile>) -> Self {
        StripedWriter::new(file).into()
    }

    /// Like [`new`](Self::new), but every issued stride is fingerprinted;
    /// after `complete()`, [`take_checksums`](Self::take_checksums) yields
    /// the recorded [`RunChecksums`].
    pub fn checksummed(file: Arc<StripedFile>) -> Self {
        StripedWriter::with_checksums(file).into()
    }

    /// The fingerprints recorded by a [`checksummed`](Self::checksummed)
    /// sink, available once after `complete()`.
    pub fn take_checksums(&mut self) -> Option<RunChecksums> {
        self.checks.take()
    }
}

impl RecordSink for StripeSink {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        match self.writer.as_mut() {
            Some(w) => w.push(data),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "push on a stripe sink that was already completed",
            )),
        }
    }

    fn complete(&mut self) -> io::Result<u64> {
        if let Some(w) = self.writer.take() {
            if w.is_checksummed() {
                let (n, checks) = w.finish_checksummed()?;
                self.written = n;
                self.checks = Some(checks);
            } else {
                self.written = w.finish()?;
            }
        }
        Ok(self.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_stripefs::Volume;

    #[test]
    fn mem_source_chunks_and_hints() {
        let mut s = MemSource::new((0..=99u8).collect(), 40);
        assert_eq!(s.size_hint(), Some(100));
        assert_eq!(s.next_chunk().unwrap().unwrap().len(), 40);
        assert_eq!(s.next_chunk().unwrap().unwrap().len(), 40);
        assert_eq!(s.next_chunk().unwrap().unwrap().len(), 20);
        assert!(s.next_chunk().unwrap().is_none());
    }

    #[test]
    fn mem_sink_accumulates() {
        let mut k = MemSink::new();
        k.push(b"ab").unwrap();
        k.push(b"cd").unwrap();
        assert_eq!(k.complete().unwrap(), 4);
        assert_eq!(k.into_inner(), b"abcd");
    }

    #[test]
    fn stripe_source_and_sink_roundtrip() {
        let v = Volume::in_memory(3);
        let data: Vec<u8> = (0..5_000).map(|i| (i % 241) as u8).collect();

        let out = Arc::new(v.create_across_all("out", 256, data.len() as u64));
        let mut sink = StripeSink::new(Arc::clone(&out));
        for c in data.chunks(333) {
            sink.push(c).unwrap();
        }
        assert_eq!(sink.complete().unwrap(), 5_000);

        let mut src = StripeSource::new(out);
        assert_eq!(src.size_hint(), Some(5_000));
        let mut got = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            got.extend_from_slice(&c);
        }
        assert_eq!(got, data);
    }
}
