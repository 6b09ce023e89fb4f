//! Each layer a byte crosses, timed alone through its public functions.
//!
//! The traced pass of every workload runs these before its operations, so a
//! layer's rate, the host ceiling it is read against and the workload that
//! depends on it are all measured in one process on one box.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::Arc;

use alphasort_crc::crc32c;
use alphasort_iosim::{catalog, FileStorage, IoEngine, MemStorage, Pacing, SimDisk, Storage};
use alphasort_minijson::Json;
use alphasort_netsort::Frame;
use alphasort_sortd::{JobSpec, Journal, JournalRecord};
use alphasort_stripefs::{RunChecksums, StripedFile, StripedReader, StripedWriter, Volume};

use alphasort_dmgen::{GenConfig, Generator};

use crate::adapters::Trace;
use crate::host::{self, median_rate, Ceilings};
use crate::workloads::fleet;

/// Request and stripe-chunk size of the IO layers: 64 KB, the scratch
/// volume's chunk.
pub const CHUNK: usize = 64 * 1024;
const REPS: usize = 3;
/// Requests kept in flight against one simulated disk.
const WINDOW: usize = 4;

/// An uncapped simulated disk over `storage`: runs at host speed.
pub fn uncapped_disk(name: String, storage: Arc<dyn Storage>) -> Arc<SimDisk> {
    SimDisk::new(name, catalog::uncapped(), storage, Pacing::Modeled, None)
}

/// A volume over `width` uncapped in-memory disks.
fn mem_volume(width: usize) -> Volume {
    let disks = (0..width)
        .map(|i| uncapped_disk(format!("m{i}"), Arc::new(MemStorage::new())))
        .collect();
    Volume::new(Arc::new(IoEngine::new(disks)))
}

/// Write `data` to disk 0 of `engine` as `CHUNK`-byte requests, `WINDOW` in
/// flight.
fn engine_write(engine: &IoEngine, data: &[u8]) -> io::Result<()> {
    let mut inflight = VecDeque::new();
    for (i, chunk) in data.chunks(CHUNK).enumerate() {
        if inflight.len() == WINDOW {
            let h: alphasort_iosim::IoHandle<usize> = inflight.pop_front().expect("window is full");
            h.wait()?;
        }
        inflight.push_back(engine.write(0, (i * CHUNK) as u64, chunk.to_vec()));
    }
    inflight.into_iter().try_for_each(|h| h.wait().map(drop))
}

fn engine_read(engine: &IoEngine, len: usize) -> io::Result<()> {
    let mut inflight = VecDeque::new();
    for off in (0..len).step_by(CHUNK) {
        if inflight.len() == WINDOW {
            let h: alphasort_iosim::IoHandle<Vec<u8>> =
                inflight.pop_front().expect("window is full");
            std::hint::black_box(h.wait()?);
        }
        inflight.push_back(engine.read(0, off as u64, CHUNK.min(len - off)));
    }
    inflight.into_iter().try_for_each(|h| h.wait().map(drop))
}

/// Rates of sequential striped IO over `width` uncapped memory members:
/// (write, read) MB/s, checksummed and verified when `checked`.
fn stripefs_rates(
    data: &[u8],
    width: usize,
    checked: bool,
    trace: &Trace,
) -> io::Result<(f64, f64)> {
    let mb = data.len() as f64 / 1e6;
    let volume = mem_volume(width);
    let mut last: Option<(Arc<StripedFile>, Option<RunChecksums>)> = None;
    let write = median_rate(mb, REPS, || {
        trace.time("stripefs.write", || {
            let file = Arc::new(volume.create_across_all("bench", CHUNK as u64, data.len() as u64));
            let mut w = if checked {
                StripedWriter::with_checksums(Arc::clone(&file))
            } else {
                StripedWriter::new(Arc::clone(&file))
            };
            for piece in data.chunks(1_000_000) {
                w.push(piece)?;
            }
            let checks = if checked {
                Some(w.finish_checksummed()?.1)
            } else {
                w.finish()?;
                None
            };
            if let Some((old, _)) = last.replace((file, checks)) {
                volume.delete(&old);
            }
            Ok(())
        })
    })?;
    let (file, checks) = last.expect("the last written file is kept");
    let read = median_rate(mb, REPS, || {
        trace.time("stripefs.read", || {
            let mut r = match &checks {
                Some(c) => StripedReader::verified(Arc::clone(&file), c.clone())?,
                None => StripedReader::new(Arc::clone(&file)),
            };
            let mut got = 0;
            while let Some(stride) = r.next_stride() {
                got += stride?.len();
            }
            if got != data.len() {
                return Err(io::Error::other(format!(
                    "striped read returned {got} bytes"
                )));
            }
            Ok(())
        })
    })?;
    Ok((write, read))
}

/// Records the layers are timed over at full scale: 32 MB.
const SAMPLE_RECORDS: f64 = 320_000.0;

/// Measure the host's ceilings, then time every layer alone over Datamation
/// records generated from `seed`. Returns the ceilings and the per-layer
/// metrics that do not depend on the workload.
pub fn bench_layers(
    dir: &Path,
    seed: u64,
    scale: f64,
    trace: &Trace,
) -> io::Result<(Ceilings, Vec<(&'static str, f64)>)> {
    let scale = scale.min(1.0);
    let bytes = (host::CEILING_BYTES as f64 * scale).max(1e6) as usize;
    let host = host::ceilings(dir, bytes, &fleet::echo_payloads())?;
    let records = (SAMPLE_RECORDS * scale).max(1_000.0) as u64;
    let data = Generator::new(GenConfig::datamation(records, seed)).generate_vec();
    let data = &data[..];
    let mb = data.len() as f64 / 1e6;
    let mut out = vec![
        ("host.memcpy_mb_per_s", host.memcpy),
        ("host.file_write_mb_per_s", host.file_write),
        ("host.file_read_mb_per_s", host.file_read),
        ("host.loopback_mb_per_s", host.loopback),
    ];

    let crc = median_rate(mb, REPS, || {
        trace.time("crc.crc32c", || {
            std::hint::black_box(crc32c(std::hint::black_box(data)))
        });
        Ok(())
    })?;
    out.push(("crc.crc32c_mb_per_s", crc));
    out.push(("crc.memcpy_fraction", crc / host.memcpy));

    let mem = IoEngine::new(vec![uncapped_disk(
        "mem".into(),
        Arc::new(MemStorage::new()),
    )]);
    let w = median_rate(mb, REPS, || {
        trace.time("iosim.engine_write", || engine_write(&mem, data))
    })?;
    let r = median_rate(mb, REPS, || {
        trace.time("iosim.engine_read", || engine_read(&mem, data.len()))
    })?;
    out.push(("iosim.engine_write_mb_per_s", w));
    out.push(("iosim.engine_read_mb_per_s", r));
    let image = dir.join("layer-disk.img");
    let file = IoEngine::new(vec![uncapped_disk(
        "file".into(),
        Arc::new(FileStorage::create(&image)?),
    )]);
    let fw = median_rate(mb, REPS, || {
        trace.time("iosim.file_write", || {
            engine_write(&file, data)?;
            file.sync(0).wait().map(drop)
        })
    })?;
    drop(file);
    std::fs::remove_file(&image)?;
    out.push(("iosim.file_write_mb_per_s", fw));

    let (w1, r1) = stripefs_rates(data, 1, false, trace)?;
    let (w4, r4) = stripefs_rates(data, 4, false, trace)?;
    let (cw2, vr2) = stripefs_rates(data, 2, true, trace)?;
    out.push(("stripefs.write_mb_per_s.w1", w1));
    out.push(("stripefs.write_mb_per_s.w4", w4));
    out.push(("stripefs.read_mb_per_s.w1", r1));
    out.push(("stripefs.read_mb_per_s.w4", r4));
    out.push(("stripefs.checksummed_write_mb_per_s.w2", cw2));
    out.push(("stripefs.verified_read_mb_per_s.w2", vr2));
    out.push(("stripefs.memcpy_fraction", w4 / host.memcpy));

    // Frame codec over 64 KB payloads, the size sortd ships data in.
    let frames: Vec<Frame> = data
        .chunks(CHUNK)
        .map(|c| Frame::Data {
            from: 0,
            records: c.to_vec(),
        })
        .collect();
    let mut wire = Vec::with_capacity(data.len() + frames.len() * 16);
    let enc = median_rate(mb, REPS, || {
        trace.time("frame.encode", || {
            wire.clear();
            frames.iter().try_for_each(|f| f.write_to(&mut wire))
        })
    })?;
    let dec = median_rate(mb, REPS, || {
        trace.time("frame.decode", || {
            let mut rd = &wire[..];
            let mut n = 0;
            while let Some(f) = Frame::read_from(&mut rd)? {
                std::hint::black_box(&f);
                n += 1;
            }
            if n != frames.len() {
                return Err(io::Error::other(format!(
                    "decoded {n} of {} frames",
                    frames.len()
                )));
            }
            Ok(())
        })
    })?;
    out.push(("frame.encode_mb_per_s", enc));
    out.push(("frame.decode_mb_per_s", dec));

    // One job manifest: render, parse, decode.
    let spec = JobSpec {
        name: "fleet-small-0017".into(),
        input_bytes: 300_000,
        mem_budget: 900_000,
        ..JobSpec::default()
    };
    const DOCS: usize = 20_000;
    let docs = median_rate(DOCS as f64, REPS, || {
        trace.time("minijson.manifest", || {
            for _ in 0..DOCS {
                let doc = Json::parse(&spec.to_json().dump()).map_err(io::Error::other)?;
                std::hint::black_box(JobSpec::from_json(&doc).map_err(io::Error::other)?);
            }
            Ok(())
        })
    })?;
    out.push(("minijson.manifest_docs_per_s", docs));

    // The journal: three transitions per key, then a replay of every key.
    const KEYS: usize = 150;
    let jdir = dir.join("layer-journal");
    let journal = Journal::open(&jdir)?;
    let rec_rate = median_rate((3 * KEYS) as f64, REPS, || {
        trace.time("sortd.journal_record", || {
            for k in 0..KEYS {
                let mut rec =
                    JournalRecord::accepted(format!("bench-{k}"), k as u64 + 1, spec.clone());
                journal.record(&rec)?;
                rec.state = "running".into();
                journal.record(&rec)?;
                rec.state = "done".into();
                rec.records = 3_000;
                journal.record(&rec)?;
            }
            Ok(())
        })
    })?;
    let replay_rate = median_rate(KEYS as f64, REPS, || {
        trace.time("sortd.journal_replay", || {
            let replay = journal.replay()?;
            if replay.records.len() != KEYS || !replay.corrupt.is_empty() {
                return Err(io::Error::other("journal replay lost or corrupted records"));
            }
            Ok(())
        })
    })?;
    std::fs::remove_dir_all(&jdir)?;
    out.push(("sortd.journal_records_per_s", rec_rate));
    out.push(("sortd.journal_replay_records_per_s", replay_rate));
    Ok((host, out))
}
