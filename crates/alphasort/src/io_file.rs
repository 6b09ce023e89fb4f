//! Host-file sources and sinks.
//!
//! The paper distinguishes "a program like AlphaSort, designed to sort
//! exactly the Datamation test data" from "an industrial-strength sort"
//! (their Daytona category). These adapters are the industrial face: the
//! same drivers over ordinary host files, through the striping layer that
//! does the rest of the sort's IO (§3, §7). A host file is a one-disk
//! stripe, so it gets read-ahead, write-behind, retry, `stripe.*`/`io.*`
//! spans and errors that name the file and offset.

use std::io;
use std::path::Path;
use std::sync::Arc;

use alphasort_iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk};
use alphasort_stripefs::{Member, StripeDef, StripedFile};

use crate::io::{RecordSink, RecordSource, StripeSink, StripeSource};

/// Bytes per stride, so per read-ahead or write-behind request.
const CHUNK: u64 = 256 << 10;

/// `storage`, the file at `path`, as a one-disk striped file of `len` bytes.
fn host_stripe(path: &Path, storage: FileStorage, len: u64) -> Arc<StripedFile> {
    let disk = SimDisk::new(
        "host",
        catalog::uncapped(),
        Arc::new(storage),
        Pacing::Modeled,
        None,
    );
    let mut def = StripeDef::new(
        path.display().to_string(),
        CHUNK,
        vec![Member { disk: 0, base: 0 }],
    );
    def.len = len;
    Arc::new(StripedFile::new(def, Arc::new(IoEngine::new(vec![disk]))))
}

/// Sequential source over a host file, opened read-only.
pub struct FileSource(StripeSource);

impl FileSource {
    /// Open the regular file at `path` for sequential reading. Anything
    /// else (a directory, a pipe) is an error, never an empty input.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        let meta = std::fs::metadata(path)?;
        if !meta.is_file() {
            let msg = format!("{}: not a regular file", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let file = host_stripe(path, FileStorage::open_read_only(path)?, meta.len());
        Ok(FileSource(StripeSource::new(file)))
    }
}

impl RecordSource for FileSource {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.0.next_chunk()
    }

    fn size_hint(&self) -> Option<u64> {
        self.0.size_hint()
    }
}

/// Sequential sink over a host file; `complete` returns once the file is
/// on stable storage (`fsync`).
pub struct FileSink {
    sink: StripeSink,
    file: Arc<StripedFile>,
}

impl FileSink {
    /// Create (truncate) `path` for sequential writing.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = host_stripe(path.as_ref(), FileStorage::create(path.as_ref())?, 0);
        let sink = StripeSink::new(Arc::clone(&file));
        Ok(FileSink { sink, file })
    }
}

impl RecordSink for FileSink {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        self.sink.push(data)
    }

    fn complete(&mut self) -> io::Result<u64> {
        let written = self.sink.complete()?;
        self.file.sync()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::one_pass;
    use crate::SortConfig;
    use alphasort_dmgen::{validate_reader, Checksum, GenConfig, Generator, RECORD_LEN};
    use std::path::PathBuf;

    fn tmpdir() -> PathBuf {
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

    /// Write `records` Datamation records to `path` through a `FileSink`;
    /// returns the input fingerprint.
    fn write_input(path: &Path, records: u64, seed: u64) -> Checksum {
        let mut gen = Generator::new(GenConfig::datamation(records, seed));
        let mut sink = FileSink::create(path).unwrap();
        let mut buf = vec![0u8; 500 * RECORD_LEN];
        loop {
            let n = gen.fill(&mut buf);
            if n == 0 {
                break;
            }
            sink.push(&buf[..n]).unwrap();
        }
        assert_eq!(sink.complete().unwrap(), records * RECORD_LEN as u64);
        gen.checksum()
    }

    /// Sort `input` into `output`, file to file, and validate from disk.
    fn sort_and_validate(input: &Path, output: &Path, checksum: Checksum, cfg: &SortConfig) {
        let mut source = FileSource::open(input).unwrap();
        assert_eq!(source.size_hint(), Some(checksum.count * RECORD_LEN as u64));
        let mut sink = FileSink::create(output).unwrap();
        let outcome = one_pass(&mut source, &mut sink, cfg).unwrap();
        assert_eq!(outcome.stats.records, checksum.count);
        let mut f = std::fs::File::open(output).unwrap();
        let report = validate_reader(&mut f, checksum).unwrap().unwrap();
        assert_eq!(report.records, checksum.count);
    }

    #[test]
    fn file_roundtrip_through_the_sort() {
        // Larger than several strides, so the read crosses stride
        // boundaries (none of which falls on a record boundary: 100 does
        // not divide the chunk) and run cuts fall inside strides.
        let dir = tmpdir();
        let records = 25_000;
        assert!(records * RECORD_LEN as u64 > 3 * CHUNK);
        let checksum = write_input(&dir.join("input.dat"), records, 77);
        let cfg = SortConfig {
            run_records: 1_500,
            gather_batch: 300,
            workers: 2,
            ..Default::default()
        };
        sort_and_validate(
            &dir.join("input.dat"),
            &dir.join("output.dat"),
            checksum,
            &cfg,
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_input_sorts() {
        // The input is opened read-only. Permission bits do not bind a
        // privileged process, so `iosim`'s `read_only_storage_refuses_writes`
        // pins the open mode itself.
        use std::os::unix::fs::PermissionsExt;
        let dir = tmpdir();
        let input = dir.join("input.dat");
        let checksum = write_input(&input, 3_000, 5);
        std::fs::set_permissions(&input, std::fs::Permissions::from_mode(0o444)).unwrap();
        let cfg = SortConfig {
            run_records: 1_000,
            ..Default::default()
        };
        sort_and_validate(&input, &dir.join("output.dat"), checksum, &cfg);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_is_an_error_naming_it_not_an_empty_input() {
        let dir = tmpdir();
        let err = FileSource::open(&dir)
            .err()
            .expect("a directory is no input");
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "{err}"
        );
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
