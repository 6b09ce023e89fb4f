//! Plain host-file sources and sinks.
//!
//! The paper distinguishes "a program like AlphaSort, designed to sort
//! exactly the Datamation test data" from "an industrial-strength sort"
//! (their Daytona category). These adapters are the industrial face: the
//! same drivers run over ordinary files on the host file system, buffered
//! reads and writes, no simulation anywhere.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use alphasort_obs as obs;

use crate::io::{RecordSink, RecordSource};

/// Buffered sequential source over a host file.
pub struct FileSource {
    file: File,
    remaining: Option<u64>,
}

impl FileSource {
    /// Bytes per chunk: 1 MB of whole records.
    pub const DEFAULT_CHUNK: usize = 10_000 * alphasort_dmgen::RECORD_LEN;

    /// Open `path` for sequential reading in [`Self::DEFAULT_CHUNK`] pieces.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::open(path)?;
        let remaining = file.metadata().ok().map(|m| m.len());
        Ok(FileSource { file, remaining })
    }
}

impl RecordSource for FileSource {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut g = obs::span(obs::phase::FILE_READ);
        let mut buf = vec![0u8; Self::DEFAULT_CHUNK];
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.file.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        g.attr("bytes", filled as u64);
        obs::metrics::counter_add("file.read.bytes", filled as u64);
        if filled == 0 {
            return Ok(None);
        }
        buf.truncate(filled);
        Ok(Some(buf))
    }

    fn size_hint(&self) -> Option<u64> {
        self.remaining
    }
}

/// Buffered sequential sink over a host file.
pub struct FileSink {
    writer: Option<BufWriter<File>>,
    written: u64,
}

impl FileSink {
    /// Create (truncate) `path` for sequential writing.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Some(BufWriter::with_capacity(1 << 20, file)),
            written: 0,
        })
    }
}

impl RecordSink for FileSink {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        let _g = obs::span(obs::phase::FILE_WRITE).with("bytes", data.len() as u64);
        let Some(w) = self.writer.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "push on a file sink that was already completed",
            ));
        };
        w.write_all(data)?;
        self.written += data.len() as u64;
        obs::metrics::counter_add("file.write.bytes", data.len() as u64);
        Ok(())
    }

    fn complete(&mut self) -> io::Result<u64> {
        if let Some(mut w) = self.writer.take() {
            let _g = obs::span(obs::phase::FILE_WRITE).with("sync", 1u64);
            w.flush()?;
            w.into_inner()
                .map_err(|e| io::Error::other(e.to_string()))?
                .sync_all()?;
        }
        Ok(self.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::one_pass;
    use crate::SortConfig;
    use alphasort_dmgen::{validate_reader, GenConfig, Generator, RECORD_LEN};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "alphasort-io-file-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_roundtrip_through_the_sort() {
        let dir = tmpdir();
        let input_path = dir.join("input.dat");
        let output_path = dir.join("output.dat");

        // Write the benchmark input to a real file, larger than one chunk so
        // the read crosses chunk boundaries and run cuts fall inside chunks.
        let records = 25_000;
        let bytes = records * RECORD_LEN as u64;
        assert!(bytes > FileSource::DEFAULT_CHUNK as u64);
        let mut gen = Generator::new(GenConfig::datamation(records, 77));
        {
            let mut sink = FileSink::create(&input_path).unwrap();
            let mut buf = vec![0u8; 500 * RECORD_LEN];
            loop {
                let n = gen.fill(&mut buf);
                if n == 0 {
                    break;
                }
                sink.push(&buf[..n]).unwrap();
            }
            assert_eq!(sink.complete().unwrap(), bytes);
        }

        // Sort file → file.
        let mut source = FileSource::open(&input_path).unwrap();
        assert_eq!(source.size_hint(), Some(bytes));
        let mut sink = FileSink::create(&output_path).unwrap();
        let cfg = SortConfig {
            run_records: 1_500,
            gather_batch: 300,
            workers: 2,
            ..Default::default()
        };
        let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
        assert_eq!(outcome.stats.records, records);

        // Validate from disk.
        let mut f = std::fs::File::open(&output_path).unwrap();
        let report = validate_reader(&mut f, gen.checksum()).unwrap().unwrap();
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_sorts_to_empty_file() {
        let dir = tmpdir();
        let input = dir.join("empty.dat");
        std::fs::write(&input, b"").unwrap();
        let mut source = FileSource::open(&input).unwrap();
        let mut sink = FileSink::create(dir.join("out.dat")).unwrap();
        let outcome = one_pass(&mut source, &mut sink, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(FileSource::open("/nonexistent/alphasort/input").is_err());
    }
}
