//! What the harness needs from the host: a scratch directory that goes away,
//! the process's memory high-water mark, and bandwidth ceilings measured
//! with `std` only, so each layer's rate can be read as a fraction of what
//! this box could not exceed.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use crate::stats;

/// A per-run directory under the benchmark's `out/`, removed on drop, so a
/// failed run leaves nothing behind either.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `<out>/run-<pid>-<nanos>`.
    pub fn create(out: &Path) -> io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = out.join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Cores the load generator may use.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reset the process's resident-set high-water mark (`VmHWM`), so that what
/// is read later is the peak since now and set-up memory does not count.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the heap's free memory back to the kernel (glibc's `malloc_trim`),
/// so that resident memory measured from here on belongs to work done from
/// here on. Elsewhere than glibc it does nothing and the measurement keeps
/// whatever the allocator kept.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers, only releases memory the
        // allocator holds as free, and is documented thread-safe; it is the
        // libc this process's allocator already comes from.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident-set high-water mark in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Time `f` `reps` times and return the median rate in units of `work` per
/// second.
pub fn median_rate(
    work: f64,
    reps: usize,
    mut f: impl FnMut() -> io::Result<()>,
) -> io::Result<f64> {
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        rates.push(work / t0.elapsed().as_secs_f64());
    }
    Ok(stats::median(&rates).unwrap_or(0.0))
}

/// Bandwidth ceilings of this box, MB/s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ceilings {
    /// `copy_from_slice` between two buffers far larger than the caches.
    pub memcpy: f64,
    /// 1 MB `write_all` calls into a fresh file, then `sync_all`.
    pub file_write: f64,
    /// Reading that file back (from the page cache, on this sandbox).
    pub file_read: f64,
    /// Job payloads echoed over one TCP loopback connection; each payload
    /// is counted once though it crosses the socket twice, the way a job's
    /// input and output do.
    pub loopback: f64,
}

const MB: usize = 1_000_000;
/// Buffer size of the memory and file ceilings at full scale: far beyond
/// any cache of the box.
pub const CEILING_BYTES: usize = 64 * MB;

/// Measure every ceiling over `bytes`-sized buffers. `payloads` are the
/// sizes the loopback echo sends, in order.
pub fn ceilings(dir: &Path, bytes: usize, payloads: &[usize]) -> io::Result<Ceilings> {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    let mb = bytes as f64 / 1e6;
    let memcpy = median_rate(mb, 5, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        Ok(())
    })?;

    let path = dir.join("ceiling.dat");
    let file_write = median_rate(mb, 3, || {
        let mut f = File::create(&path)?;
        for chunk in src.chunks(MB) {
            f.write_all(chunk)?;
        }
        f.sync_all()
    })?;
    let file_read = median_rate(mb, 3, || {
        let mut f = File::open(&path)?;
        let mut got = 0;
        while got < dst.len() {
            match f.read(&mut dst[got..(got + MB).min(bytes)])? {
                0 => break,
                n => got += n,
            }
        }
        Ok(())
    })?;
    fs::remove_file(&path)?;

    Ok(Ceilings {
        memcpy,
        file_write,
        file_read,
        loopback: loopback_echo(payloads)?,
    })
}

/// Echo each payload over one loopback connection: the peer reads a whole
/// payload before it answers, as sortd needs a job's whole input before its
/// output exists.
fn loopback_echo(payloads: &[usize]) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let sizes = payloads.to_vec();
    let server = thread::spawn(move || -> io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; sizes.iter().copied().max().unwrap_or(0)];
        for n in sizes {
            s.read_exact(&mut buf[..n])?;
            s.write_all(&buf[..n])?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut buf = vec![0xA5u8; payloads.iter().copied().max().unwrap_or(0)];
    let t0 = Instant::now();
    for &n in payloads {
        s.write_all(&buf[..n])?;
        s.read_exact(&mut buf[..n])?;
    }
    let secs = t0.elapsed().as_secs_f64();
    server
        .join()
        .map_err(|_| io::Error::other("loopback echo server panicked"))??;
    Ok(payloads.iter().sum::<usize>() as f64 / 1e6 / secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let kept;
        {
            let t = TempDir::create(&out).unwrap();
            kept = t.path().to_path_buf();
            fs::write(kept.join("x"), b"x").unwrap();
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn loopback_echo_moves_every_payload() {
        assert!(loopback_echo(&[300_000, 3_000, 1]).unwrap() > 0.0);
    }
}
