//! The four batch workloads: one operation is one complete disk-to-disk
//! sort, validated afterwards outside the timed region.

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alphasort_core::driver::{one_pass, two_pass, StripeScratch};
use alphasort_core::io::{StripeSink, StripeSource};
use alphasort_core::io_file::{FileSink, FileSource};
use alphasort_core::{RecordLayout, SortConfig, SortStats};
use alphasort_dmgen::{
    generate_varlen, validate_reader, var_records_of, Checksum, GenConfig, Generator, TextCorpus,
    VarGenConfig, RECORD_LEN,
};
use alphasort_iosim::{
    catalog, ControllerShare, FileStorage, IoEngine, MemStorage, Pacing, SimDisk, Storage,
};
use alphasort_obs as obs;
use alphasort_stripefs::{StripeDef, StripedFile, StripedReader, StripedWriter, Volume};

use super::{
    end_to_end_report, in_span, latency_note, medians, per_layer_report, with_timeout, OpFailure,
    RunOpts, RunOutput, Sabotage, OP_TIMEOUT, SETUP_REPS,
};
use crate::adapters::{IoTime, TimedSink, TimedSource, Trace};
use crate::host::{self, Ceilings, TempDir};
use crate::layers::{self, uncapped_disk, CHUNK};
use crate::spans::{self, Recorder, Under};
use crate::stats;

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `datamation_file_onepass`
    FileOnePass,
    /// `datamation_stripe_twopass`
    StripeTwoPass,
    /// `datamation_paced_array`
    PacedArray,
    /// `varlen_urls_onepass`
    VarlenUrls,
}

impl Kind {
    /// Look a batch workload up by its name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "datamation_file_onepass" => Some(Kind::FileOnePass),
            "datamation_stripe_twopass" => Some(Kind::StripeTwoPass),
            "datamation_paced_array" => Some(Kind::PacedArray),
            "varlen_urls_onepass" => Some(Kind::VarlenUrls),
            _ => None,
        }
    }
}

/// The Datamation benchmark's size; `--scale` multiplies it.
const RECORDS: f64 = 1_000_000.0;
/// "Between ten and one hundred runs": 100 000-record runs for 1 M records.
const RUN_RECORDS: f64 = 100_000.0;
/// Two-pass memory budget at full scale.
const TWO_PASS_MEMORY: f64 = 20e6;
/// Members of the two-pass scratch volume, as `sortcli --scratch-dir` builds it.
const SCRATCH_DISKS: usize = 2;
/// The paced array: 2 SCSI controllers with 4 RZ26 drives each, ten times
/// faster than 1993 with every ratio kept.
const ARRAY_CONTROLLERS: usize = 2;
const DISKS_PER_CONTROLLER: usize = 4;
const ARRAY_SPEEDUP: f64 = 10.0;

/// Time spent inside dmgen's generators during set-up.
#[derive(Default)]
struct GenTime {
    busy: Duration,
    bytes: u64,
}

/// Counters of the simulated devices one operation used.
#[derive(Clone, Copy, Debug, Default)]
struct Device {
    bytes_read: u64,
    bytes_written: u64,
    /// Largest modeled busy time of any one disk, seconds.
    busy_max_s: f64,
}

impl Device {
    fn of(disks: &[Arc<SimDisk>]) -> Device {
        let mut d = Device::default();
        for disk in disks {
            let st = disk.stats();
            d.bytes_read += st.bytes_read;
            d.bytes_written += st.bytes_written;
            d.busy_max_s = d.busy_max_s.max(st.busy().as_secs_f64());
        }
        d
    }
}

/// What one operation hands back besides its elapsed time.
struct OpOut {
    stats: SortStats,
    source: IoTime,
    sink: IoTime,
    device: Option<Device>,
}

/// One batch workload after set-up.
trait Batch: Send + Sync + 'static {
    /// Bytes one operation sorts.
    fn input_bytes(&self) -> u64;
    /// One complete sort, input to output. Timed by the caller.
    fn op(&self, trace: Option<&Trace>) -> io::Result<OpOut>;
    /// Check the output the last operation left, then discard it.
    fn validate(&self) -> Result<(), String>;
    /// Inject a fault (tests only).
    fn sabotage(&self, what: Sabotage) -> io::Result<()>;
    /// Layer metrics only this workload has, from one operation.
    fn own_layers(&self, out: &OpOut, elapsed_s: f64) -> Vec<(&'static str, f64)>;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every value guarded here is replaced whole, so it is valid even if a
    // panicking operation poisoned the lock.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn scaled(full: f64, scale: f64, floor: f64) -> u64 {
    (full * scale).max(floor).round() as u64
}

fn flip_byte(path: &Path, at: u64) -> io::Result<()> {
    let mut f = fs::OpenOptions::new().read(true).write(true).open(path)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(at))?;
    f.read_exact(&mut b)?;
    f.seek(SeekFrom::Start(at))?;
    f.write_all(&[b[0] ^ 0x40])
}

/// Write Datamation records for `seed` through `push`, timing only the
/// generator; returns the input's checksum.
fn generate_datamation(
    records: u64,
    seed: u64,
    gen_time: &mut GenTime,
    mut push: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<Checksum> {
    let mut gen = Generator::new(GenConfig::datamation(records, seed));
    let mut buf = vec![0u8; 10_000 * RECORD_LEN];
    loop {
        let t0 = Instant::now();
        let n = gen.fill(&mut buf);
        gen_time.busy += t0.elapsed();
        gen_time.bytes += n as u64;
        if n == 0 {
            return Ok(gen.checksum());
        }
        push(&buf[..n])?;
    }
}

// ---- file to file: one-pass, two-pass and var-len --------------------------

/// What a file workload's output is checked against.
enum Check {
    /// The generator's checksum: sorted, and a permutation of the input.
    Datamation(Mutex<Checksum>),
    /// A stable-sort oracle written during set-up: byte equality.
    Oracle(PathBuf),
}

struct FileSort {
    dir: PathBuf,
    input: PathBuf,
    output: PathBuf,
    input_bytes: u64,
    cfg: SortConfig,
    two_pass: bool,
    check: Check,
}

impl FileSort {
    fn setup(
        kind: Kind,
        dir: &Path,
        seed: u64,
        scale: f64,
        gen_time: &mut GenTime,
    ) -> io::Result<FileSort> {
        fs::create_dir_all(dir)?;
        let records = scaled(RECORDS, scale, 1_000.0);
        let input = dir.join("input.dat");
        let mut cfg = SortConfig {
            run_records: scaled(RUN_RECORDS, scale, 100.0) as usize,
            workers: 0,
            merge_workers: 0,
            ..Default::default()
        };
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&input)?);
        let check = if kind == Kind::VarlenUrls {
            cfg.layout = RecordLayout::VarLen;
            let t0 = Instant::now();
            let data = generate_varlen(VarGenConfig {
                records,
                seed,
                corpus: TextCorpus::Urls,
            });
            gen_time.busy += t0.elapsed();
            gen_time.bytes += data.len() as u64;
            w.write_all(&data)?;
            let mut recs = var_records_of(&data).map_err(|e| io::Error::other(e.to_string()))?;
            recs.sort_by(|a, b| a.key().cmp(b.key()));
            let oracle = dir.join("oracle.dat");
            let mut o = BufWriter::with_capacity(1 << 20, File::create(&oracle)?);
            for r in &recs {
                o.write_all(r.frame())?;
            }
            o.flush()?;
            Check::Oracle(oracle)
        } else {
            let sum = generate_datamation(records, seed, gen_time, |b| w.write_all(b))?;
            Check::Datamation(Mutex::new(sum))
        };
        w.flush()?;
        drop(w);
        if kind == Kind::StripeTwoPass {
            cfg.memory_budget = scaled(TWO_PASS_MEMORY, scale, 1e5);
        }
        Ok(FileSort {
            dir: dir.to_path_buf(),
            output: dir.join("output.dat"),
            input_bytes: fs::metadata(&input)?.len(),
            input,
            cfg,
            two_pass: kind == Kind::StripeTwoPass,
            check,
        })
    }

    fn scratch_dir(&self) -> PathBuf {
        self.dir.join("scratch")
    }

    /// A scratch volume built the way `sortcli --two-pass --scratch-dir`
    /// builds it: striped over disk images in files, with a run manifest.
    fn build_scratch(&self) -> io::Result<(StripeScratch, Vec<Arc<SimDisk>>)> {
        let sdir = self.scratch_dir();
        fs::create_dir_all(&sdir)?;
        let disks = (0..SCRATCH_DISKS)
            .map(|i| {
                let image = FileStorage::create(sdir.join(format!("disk{i}.img")))?;
                Ok(uncapped_disk(format!("scratch{i}"), Arc::new(image)))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(disks.clone()))));
        let scratch = StripeScratch::with_manifest(
            volume,
            CHUNK as u64,
            sdir.join("scratch.manifest"),
            self.input_bytes,
            self.cfg.run_records as u64,
        )?;
        Ok((scratch, disks))
    }
}

impl Batch for FileSort {
    fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// File to file through `one_pass`, or through `two_pass` with a scratch
    /// volume created and disposed inside the operation.
    fn op(&self, trace: Option<&Trace>) -> io::Result<OpOut> {
        let mut spill = match self.two_pass {
            true => Some(in_span(trace, "scratch.build", |_| self.build_scratch())?),
            false => None,
        };
        let driver = if self.two_pass {
            "driver.two_pass"
        } else {
            "driver.one_pass"
        };
        let sorted = in_span(trace, driver, |t| -> io::Result<_> {
            let mut src =
                TimedSource::new(FileSource::open(&self.input)?, "io_file.source", t.clone());
            let mut sink = TimedSink::new(FileSink::create(&self.output)?, "io_file.sink", t);
            let outcome = match &mut spill {
                Some((scratch, _)) => two_pass(&mut src, &mut sink, scratch, &self.cfg),
                None => one_pass(&mut src, &mut sink, &self.cfg),
            }?;
            Ok((outcome.stats, src.io, sink.io))
        });
        let device = match spill {
            Some((scratch, disks)) => {
                let device = Device::of(&disks);
                in_span(trace, "scratch.dispose", |_| {
                    scratch.dispose();
                    fs::remove_dir_all(self.scratch_dir())
                })?;
                Some(device)
            }
            None => None,
        };
        let (stats, source, sink) = sorted?;
        Ok(OpOut {
            stats,
            source,
            sink,
            device,
        })
    }

    fn validate(&self) -> Result<(), String> {
        let mut out = File::open(&self.output).map_err(|e| format!("no output: {e}"))?;
        let verdict = match &self.check {
            Check::Datamation(sum) => sorted_permutation(&mut out, *lock(sum)),
            Check::Oracle(path) => same_bytes(&mut out, path),
        };
        let _ = fs::remove_file(&self.output);
        verdict
    }

    fn sabotage(&self, what: Sabotage) -> io::Result<()> {
        match (what, &self.check) {
            (Sabotage::Output, _) => flip_byte(&self.output, self.input_bytes / 2),
            (Sabotage::Oracle, Check::Oracle(path)) => flip_byte(path, self.input_bytes / 2),
            (Sabotage::Oracle, Check::Datamation(sum)) => {
                lock(sum).xor ^= 1;
                Ok(())
            }
        }
    }

    fn own_layers(&self, out: &OpOut, _elapsed_s: f64) -> Vec<(&'static str, f64)> {
        let mut m = vec![
            ("io_file.source_busy_s", out.source.busy.as_secs_f64()),
            ("io_file.sink_busy_s", out.sink.busy.as_secs_f64()),
            ("io_file.read_mb_per_s", out.source.mb_per_s()),
            ("io_file.write_mb_per_s", out.sink.mb_per_s()),
        ];
        if let Some(d) = out.device {
            let spill_s = out.stats.spill_time.as_secs_f64();
            m.extend([
                (
                    "iosim.device_bytes_per_input_byte",
                    (d.bytes_read + d.bytes_written) as f64 / self.input_bytes as f64,
                ),
                (
                    "scratch.spill_mb_per_s",
                    rate(d.bytes_read + d.bytes_written, spill_s) / 1e6,
                ),
                ("scratch.device_bytes_written", d.bytes_written as f64),
                ("scratch.device_bytes_read", d.bytes_read as f64),
            ]);
        }
        m
    }
}

/// Whether `out` is sorted and holds exactly the records `input_sum` was
/// taken over (dmgen's validator).
fn sorted_permutation(out: &mut impl Read, input_sum: Checksum) -> Result<(), String> {
    match validate_reader(out, input_sum) {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(e) => Err(format!("cannot read output: {e}")),
    }
}

/// Whether `out` holds exactly the bytes of the file at `oracle`.
fn same_bytes(out: &mut File, oracle: &Path) -> Result<(), String> {
    let mut want = File::open(oracle).map_err(|e| format!("no oracle: {e}"))?;
    let len = |f: &File| f.metadata().map(|m| m.len()).map_err(|e| e.to_string());
    let (got_len, want_len) = (len(out)?, len(&want)?);
    if got_len != want_len {
        return Err(format!("output has {got_len} bytes, the oracle {want_len}"));
    }
    let (mut a, mut b) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    let mut at = 0u64;
    while at < want_len {
        let n = (want_len - at).min(a.len() as u64) as usize;
        out.read_exact(&mut a[..n]).map_err(|e| e.to_string())?;
        want.read_exact(&mut b[..n]).map_err(|e| e.to_string())?;
        if a[..n] != b[..n] {
            let i = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(0);
            return Err(format!(
                "output differs from the stable-sort oracle at byte {}",
                at + i as u64
            ));
        }
        at += n as u64;
    }
    Ok(())
}

// ---- the paced array --------------------------------------------------------

struct PacedArray {
    /// The array the sort sees: paced RZ26 drives behind SCSI controllers.
    paced: Volume,
    paced_disks: Vec<Arc<SimDisk>>,
    /// The same platters through uncapped disks, for loading the input and
    /// reading the output back, so neither waits on 1993 hardware.
    fast: Volume,
    input: StripeDef,
    input_bytes: u64,
    cfg: SortConfig,
    checksum: Mutex<Checksum>,
    /// Bytes over the paced read rate plus bytes over the paced write rate.
    ideal_s: f64,
    output: Mutex<Option<Arc<StripedFile>>>,
}

impl PacedArray {
    fn setup(seed: u64, scale: f64, gen_time: &mut GenTime) -> io::Result<PacedArray> {
        let pacing = Pacing::RealTime {
            speedup: ARRAY_SPEEDUP,
        };
        let (disk, ctrl) = (catalog::rz26(), catalog::scsi_controller());
        let (mut paced_disks, mut fast_disks) = (Vec::new(), Vec::new());
        for c in 0..ARRAY_CONTROLLERS {
            let share = ControllerShare::new(ctrl.clone(), pacing);
            for d in 0..DISKS_PER_CONTROLLER {
                let platter: Arc<dyn Storage> = Arc::new(MemStorage::new());
                let name = format!("c{c}-rz26-{d}");
                paced_disks.push(SimDisk::new(
                    name.clone(),
                    disk.clone(),
                    Arc::clone(&platter),
                    pacing,
                    Some(Arc::clone(&share)),
                ));
                fast_disks.push(uncapped_disk(name, platter));
            }
        }
        let per_controller =
            |mbps: f64| (mbps * DISKS_PER_CONTROLLER as f64).min(ctrl.bandwidth_mbps);
        let array_rate =
            |mbps: f64| per_controller(mbps) * ARRAY_CONTROLLERS as f64 * ARRAY_SPEEDUP * 1e6;

        let fast = Volume::new(Arc::new(IoEngine::new(fast_disks)));
        let paced = Volume::new(Arc::new(IoEngine::new(paced_disks.clone())));
        let records = scaled(RECORDS, scale, 1_000.0);
        let input_bytes = records * RECORD_LEN as u64;
        let file = Arc::new(fast.create_across_all("input", CHUNK as u64, input_bytes));
        let mut w = StripedWriter::new(Arc::clone(&file));
        let sum = generate_datamation(records, seed, gen_time, |b| w.push(b))?;
        w.finish()?;
        Ok(PacedArray {
            paced,
            paced_disks,
            fast,
            input: file.def_snapshot(),
            input_bytes,
            cfg: SortConfig {
                run_records: scaled(RUN_RECORDS, scale, 100.0) as usize,
                workers: 2,
                merge_workers: 0,
                ..Default::default()
            },
            checksum: Mutex::new(sum),
            ideal_s: input_bytes as f64 / array_rate(disk.read_mbps)
                + input_bytes as f64 / array_rate(disk.write_mbps),
            output: Mutex::new(None),
        })
    }
}

impl Batch for PacedArray {
    fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    fn op(&self, trace: Option<&Trace>) -> io::Result<OpOut> {
        self.paced_disks.iter().for_each(|d| d.reset_stats());
        let input = Arc::new(self.paced.open(self.input.clone()));
        let output = Arc::new(self.paced.try_create_across_all(
            "output",
            CHUNK as u64,
            self.input_bytes,
        )?);
        *lock(&self.output) = Some(Arc::clone(&output));
        in_span(trace, "driver.one_pass", |t| {
            let mut src = TimedSource::new(StripeSource::new(input), "io.stripe_source", t.clone());
            let mut sink = TimedSink::new(StripeSink::new(output), "io.stripe_sink", t);
            let outcome = one_pass(&mut src, &mut sink, &self.cfg)?;
            Ok(OpOut {
                stats: outcome.stats,
                source: src.io,
                sink: sink.io,
                device: Some(Device::of(&self.paced_disks)),
            })
        })
    }

    fn validate(&self) -> Result<(), String> {
        let Some(output) = lock(&self.output).take() else {
            return Err("the operation left no output file".into());
        };
        let mut reader = StripedReader::new(Arc::new(self.fast.open(output.def_snapshot())));
        let verdict = sorted_permutation(&mut reader, *lock(&self.checksum));
        self.paced.delete(&output);
        verdict
    }

    fn sabotage(&self, what: Sabotage) -> io::Result<()> {
        match what {
            Sabotage::Oracle => lock(&self.checksum).xor ^= 1,
            Sabotage::Output => {
                let Some(output) = lock(&self.output).clone() else {
                    return Err(io::Error::other("no output to corrupt"));
                };
                let file = self.fast.open(output.def_snapshot());
                let at = self.input_bytes / 2;
                let b = file.read_at(at, 1)?;
                file.write_at(at, &[b[0] ^ 0x40])?;
            }
        }
        Ok(())
    }

    fn own_layers(&self, out: &OpOut, elapsed_s: f64) -> Vec<(&'static str, f64)> {
        let d = out.device.unwrap_or_default();
        vec![
            ("io.stripe_source_busy_s", out.source.busy.as_secs_f64()),
            ("io.stripe_sink_busy_s", out.sink.busy.as_secs_f64()),
            (
                "iosim.device_bytes_per_input_byte",
                (d.bytes_read + d.bytes_written) as f64 / self.input_bytes as f64,
            ),
            ("iosim.paced_ideal_s", self.ideal_s),
            ("iosim.disk_busy_max_s", d.busy_max_s),
            ("driver.overlap_efficiency", self.ideal_s / elapsed_s),
        ]
    }
}

// ---- running a batch workload ----------------------------------------------

fn setup(
    kind: Kind,
    dir: &Path,
    seed: u64,
    scale: f64,
    gen_time: &mut GenTime,
) -> io::Result<Arc<dyn Batch>> {
    Ok(match kind {
        Kind::PacedArray => Arc::new(PacedArray::setup(seed, scale, gen_time)?),
        _ => Arc::new(FileSort::setup(kind, dir, seed, scale, gen_time)?),
    })
}

fn rate(work: u64, secs: f64) -> f64 {
    if secs == 0.0 {
        return 0.0;
    }
    work as f64 / secs
}

/// Layer metrics every batch workload has, from the `SortStats` the driver
/// returned for one operation.
fn driver_layers(
    st: &SortStats,
    elapsed_s: f64,
    bytes: u64,
    host: &Ceilings,
) -> Vec<(&'static str, f64)> {
    let s = |d: Duration| d.as_secs_f64();
    let gather_mb = rate(bytes, s(st.gather_time)) / 1e6;
    let attributed = s(st.read_wait)
        + s(st.sort_time)
        + s(st.merge_time)
        + s(st.gather_time)
        + s(st.write_wait)
        + s(st.spill_time);
    vec![
        ("runform.busy_s", s(st.sort_time)),
        ("runform.records_per_s", rate(st.records, s(st.sort_time))),
        ("merge.busy_s", s(st.merge_time)),
        ("merge.records_per_s", rate(st.records, s(st.merge_time))),
        ("gather.busy_s", s(st.gather_time)),
        ("gather.mb_per_s", gather_mb),
        ("gather.memcpy_fraction", gather_mb / host.memcpy),
        ("driver.read_wait_s", s(st.read_wait)),
        ("driver.write_wait_s", s(st.write_wait)),
        ("driver.spill_s", s(st.spill_time)),
        ("driver.runs", st.runs as f64),
        ("driver.attributed_pct", 100.0 * attributed / elapsed_s),
    ]
}

/// What one good operation measured.
struct Sample {
    out: OpOut,
    elapsed: Duration,
    /// The process's resident-set high-water mark over this operation alone.
    peak_rss_mb: f64,
}

/// One operation on its own thread under the timeout, then its validation.
fn attempt(
    state: &Arc<dyn Batch>,
    trace: Option<Trace>,
    sabotage: Option<Sabotage>,
) -> Result<Sample, OpFailure> {
    let (st, tr) = (Arc::clone(state), trace.clone());
    // Restart the high-water mark at every operation, so each has its own.
    host::reset_peak_rss();
    let ran = with_timeout(OP_TIMEOUT, move || st.op(tr.as_ref()));
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    if let Some(what) = sabotage {
        state
            .sabotage(what)
            .map_err(|e| OpFailure::Error(format!("sabotage: {e}")))?;
    }
    // Validate (and discard the output) even after a failure, so the next
    // operation starts clean.
    let valid = in_span(trace.as_ref(), "bench.validate", |_| state.validate());
    let (out, elapsed) = ran?;
    valid.map_err(OpFailure::Invalid)?;
    Ok(Sample {
        out,
        elapsed,
        peak_rss_mb,
    })
}

/// Run batch workload `kind`.
pub fn run(kind: Kind, opts: &RunOpts) -> io::Result<RunOutput> {
    let tmp = TempDir::create(&opts.out)?;
    let rec = Arc::new(Recorder::new());
    let mut notes = Vec::new();
    let mut gen_time = GenTime::default();

    // Set up in `<tmp>/setup-<k>`; returns the workload and the seconds taken.
    let mut set_up = |k: usize| -> io::Result<(Arc<dyn Batch>, f64)> {
        let dir = tmp.path().join(format!("setup-{k}"));
        let t0 = Instant::now();
        let built = rec.time("bench.setup", Under::default(), || {
            setup(kind, &dir, opts.seed, opts.scale, &mut gen_time)
        })?;
        Ok((built, t0.elapsed().as_secs_f64()))
    };
    let (state, first_setup_s) = set_up(0)?;
    let mut setup_s = vec![first_setup_s];
    let bytes = state.input_bytes();

    // The warm-up operation doubles as the memory measurement. It starts
    // from a heap trimmed of what set-up left behind, so its high-water mark
    // is what one sort needs; the mark of a whole run also holds whatever the
    // allocator kept from earlier operations, which varies run to run.
    host::trim_heap();
    if !host::reset_peak_rss() {
        notes.push("the kernel refused to reset VmHWM: peak_rss_mb includes set-up".into());
    }
    let warm_up = attempt(&state, None, None)
        .map_err(|e| io::Error::other(format!("the warm-up operation failed: {e}")))?;
    if opts.sabotage == Some(Sabotage::Oracle) {
        state.sabotage(Sabotage::Oracle)?;
    }

    let budget = Duration::from_secs_f64(opts.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Count a failed operation; a hung one still owns its thread and its
    // files, so the run stops there.
    let fail = |e: OpFailure, failed: &mut u64| {
        *failed += 1;
        eprintln!("operation failed: {e}");
        matches!(e, OpFailure::TimedOut)
    };

    if !opts.trace {
        let (mut lat_ms, mut rss_mb) = (Vec::new(), Vec::new());
        let t_run = Instant::now();
        while t_run.elapsed() < budget || attempted < 3 {
            let sabotage = opts
                .sabotage
                .filter(|&s| s == Sabotage::Output && attempted == 0);
            attempted += 1;
            match attempt(&state, None, sabotage) {
                Ok(s) => {
                    lat_ms.push(s.elapsed.as_secs_f64() * 1e3);
                    rss_mb.push(s.peak_rss_mb);
                }
                Err(e) => {
                    if fail(e, &mut failed) {
                        break;
                    }
                }
            }
        }
        notes.push(latency_note(&lat_ms));
        notes.push(format!(
            "peak RSS of each timed operation, MB: {rss_mb:.0?}"
        ));
        // `setup_s` is a median over several set-ups. The others run here,
        // after the operations, so that what they leave in the heap and in
        // the page cache is in neither the memory nor the latency figures.
        for k in 1..SETUP_REPS {
            let (extra, secs) = set_up(k)?;
            setup_s.push(secs);
            drop(extra);
            let _ = fs::remove_dir_all(tmp.path().join(format!("setup-{k}")));
        }
        let p50_ms = stats::median(&lat_ms);
        let report = end_to_end_report(
            attempted,
            failed,
            &[
                ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
                (
                    "sort_mb_per_s",
                    p50_ms.map_or(0.0, |ms| bytes as f64 / 1e3 / ms),
                ),
                ("op_p50_ms", p50_ms.unwrap_or(0.0)),
                ("peak_rss_mb", warm_up.peak_rss_mb),
            ],
        );
        return Ok(RunOutput { report, notes });
    }

    // Traced pass: each layer alone first, then untraced and traced
    // operations in turn, so the cost of tracing is measured inside one run.
    // The layers' time counts towards the seconds asked for.
    let t_run = Instant::now();
    let root = Trace {
        rec: Arc::clone(&rec),
        under: Under::default(),
    };
    let (host, mut values) = layers::bench_layers(tmp.path(), opts.seed, opts.scale, &root)?;
    values.push((
        "dmgen.generate_mb_per_s",
        rate(gen_time.bytes, gen_time.busy.as_secs_f64()) / 1e6,
    ));

    let (mut plain_ms, mut traced_ms, mut layer_samples) = (Vec::new(), Vec::new(), Vec::new());
    let (mut recorded, mut dropped) = (Vec::new(), Vec::new());
    let mut last_snapshot = None;
    let mut traced_first = false;
    'run: while t_run.elapsed() < budget || traced_ms.len() < 2 {
        // One untraced and one traced operation, taking turns at going first
        // so that neither kind always inherits the other's leftovers.
        for traced in [traced_first, !traced_first] {
            attempted += 1;
            if !traced {
                match attempt(&state, None, None) {
                    Ok(s) => plain_ms.push(s.elapsed.as_secs_f64() * 1e3),
                    Err(e) => {
                        if fail(e, &mut failed) {
                            break 'run;
                        }
                    }
                }
                continue;
            }
            let under = Under {
                op: attempted,
                parent: None,
            };
            let op = rec.enter("bench.op", under);
            obs::enable(obs::DEFAULT_CAPACITY);
            let ran = attempt(&state, Some(root.under(op).for_op(attempted)), None);
            obs::disable();
            rec.exit(op);
            let snap = obs::snapshot();
            match ran {
                Ok(s) => {
                    let secs = s.elapsed.as_secs_f64();
                    traced_ms.push(secs * 1e3);
                    let mut m = driver_layers(&s.out.stats, secs, bytes, &host);
                    m.extend(state.own_layers(&s.out, secs));
                    layer_samples.push(m);
                    recorded.push(snap.events.len() as f64);
                    dropped.push(snap.dropped as f64);
                    last_snapshot = Some(snap);
                }
                Err(e) => {
                    if fail(e, &mut failed) {
                        break 'run;
                    }
                }
            }
        }
        traced_first = !traced_first;
    }
    notes.push(format!("untraced operations, ms: {plain_ms:.0?}"));
    notes.push(format!("traced operations, ms: {traced_ms:.0?}"));
    values.extend(medians(&layer_samples));
    if let (Some(plain), Some(traced)) = (stats::median(&plain_ms), stats::median(&traced_ms)) {
        values.push(("obs.trace_overhead_pct", 100.0 * (traced / plain - 1.0)));
    }
    values.push((
        "obs.spans_recorded",
        stats::median(&recorded).unwrap_or(0.0),
    ));
    values.push(("obs.spans_dropped", stats::median(&dropped).unwrap_or(0.0)));

    let spans = rec.spans();
    print!("{}", spans::self_time_table(&spans));
    if opts.scale == 1.0 {
        let path = opts.out.join(format!("trace-{}.json", opts.workload));
        spans::write_chrome_trace(&path, &spans, last_snapshot.as_ref())?;
        notes.push(format!("trace written to {}", path.display()));
    }
    Ok(RunOutput {
        report: per_layer_report(attempted, failed, &values),
        notes,
    })
}
