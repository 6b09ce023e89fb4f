//! Backing stores for simulated disks.
//!
//! A [`Storage`] holds the actual bytes of one simulated disk. Two
//! implementations: [`MemStorage`] (a growable in-memory image, used by unit
//! tests and fast experiments) and [`FileStorage`] (a real file with
//! positioned reads/writes, used by disk images and host files).

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::RwLock;

/// Byte-addressed random-access store.
///
/// Implementations must support concurrent calls (they sit behind `Arc` and
/// are hit from IO threads).
pub trait Storage: Send + Sync {
    /// Read exactly `buf.len()` bytes starting at `offset`. Reading past the
    /// end of written data yields zero bytes (disks have no "length").
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Write all of `data` starting at `offset`, growing the store if needed.
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Bytes currently backed (high-water mark of writes).
    fn len(&self) -> u64;

    /// Whether nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush data and metadata to durable media (no-op for memory).
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory backing store.
#[derive(Default)]
pub struct MemStorage {
    data: RwLock<Vec<u8>>,
}

impl MemStorage {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy out the full current image (tests).
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().unwrap().clone()
    }
}

impl Storage for MemStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let data = self.data.read().unwrap();
        let off = offset as usize;
        let end = off.saturating_add(buf.len());
        if off >= data.len() {
            buf.fill(0);
            return Ok(());
        }
        let avail = data.len().min(end) - off;
        buf[..avail].copy_from_slice(&data[off..off + avail]);
        buf[avail..].fill(0);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut img = self.data.write().unwrap();
        let off = offset as usize;
        let end = off + data.len();
        if img.len() < end {
            img.resize(end, 0);
        }
        img[off..end].copy_from_slice(data);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.read().unwrap().len() as u64
    }
}

/// File-backed store using positioned IO (`pread`/`pwrite`), so concurrent
/// operations need no shared cursor.
pub struct FileStorage {
    file: File,
}

impl FileStorage {
    /// Create (or truncate) the backing file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStorage { file })
    }

    /// Open an existing backing file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(FileStorage { file })
    }

    /// Open an existing file at `path` for reading only: writes fail.
    pub fn open_read_only<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(FileStorage {
            file: File::open(path)?,
        })
    }
}

impl Storage for FileStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            let n = self.file.read_at(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                // Past EOF: disks return zeros, like MemStorage.
                buf[done..].fill(0);
                break;
            }
            done += n;
        }
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(data, offset)
    }

    fn len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn Storage) {
        store.write_at(10, b"hello").unwrap();
        assert_eq!(store.len(), 15);

        let mut buf = [0u8; 5];
        store.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");

        // Read spanning unwritten prefix returns zeros there.
        let mut buf2 = [0xFFu8; 12];
        store.read_at(8, &mut buf2).unwrap();
        assert_eq!(&buf2[..2], &[0, 0]);
        assert_eq!(&buf2[2..7], b"hello");
        assert_eq!(&buf2[7..], &[0, 0, 0, 0, 0]);

        // Read wholly past EOF is all zeros.
        let mut buf3 = [0xAAu8; 4];
        store.read_at(1000, &mut buf3).unwrap();
        assert_eq!(buf3, [0; 4]);

        // Overwrite in place.
        store.write_at(12, b"LLO").unwrap();
        let mut buf4 = [0u8; 5];
        store.read_at(10, &mut buf4).unwrap();
        assert_eq!(&buf4, b"heLLO");
    }

    #[test]
    fn mem_storage_semantics() {
        let s = MemStorage::new();
        exercise(&s);
    }

    #[test]
    fn file_storage_semantics() {
        let dir = std::env::temp_dir().join(format!("iosim-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk0.img");
        let s = FileStorage::create(&path).unwrap();
        exercise(&s);
        s.sync().unwrap();
        drop(s);
        // Reopen preserves contents.
        let s2 = FileStorage::open(&path).unwrap();
        let mut buf = [0u8; 5];
        s2.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"heLLO");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_storage_refuses_writes() {
        let dir = std::env::temp_dir().join(format!("iosim-ro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.dat");
        std::fs::write(&path, b"hello").unwrap();
        let s = FileStorage::open_read_only(&path).unwrap();
        let mut buf = [0u8; 5];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(s.write_at(0, b"HELLO").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_storage_concurrent_writers() {
        use std::sync::Arc;
        let s = Arc::new(MemStorage::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let off = (t * 100 + i) * 8;
                    s.write_at(off, &(t * 1000 + i).to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..100u64 {
                let mut buf = [0u8; 8];
                s.read_at((t * 100 + i) * 8, &mut buf).unwrap();
                assert_eq!(u64::from_le_bytes(buf), t * 1000 + i);
            }
        }
    }
}
