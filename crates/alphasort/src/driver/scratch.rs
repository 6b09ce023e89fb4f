//! Scratch storage for two-pass sorts.
//!
//! §6: "A two-pass sort requires twice the disk bandwidth to carry the runs
//! being stored on disk and being read back in during merge phase."
//! [`StripeScratch`] supplies per-run writers during run formation and
//! per-run sources during the merge, putting each run on striped disks.
//! It is the one store: over disk images it survives a crash, and over
//! [`Volume::in_memory`] it is the scratch of a process that keeps nothing
//! — the same striped, checksummed code either way.
//!
//! Writers and sources carry bytes; only the record-indexed operations
//! (`sealed_run_records`, `key_at`, `open_run_range`, recovered spans)
//! need to know where records start. A store is built for one
//! [`RecordLayout`]: under a fixed stride a position is a multiplication,
//! under var-len frames [`StripeScratch::seal_run`] is handed a **sparse**
//! index — the byte offset of every [`INDEX_EVERY`]-th record, 8 bytes per
//! 64 records — and a probe reads at most `INDEX_EVERY` frames forward
//! from the nearest entry.
//!
//! # Crash safety
//!
//! A [`StripeScratch`] created with [`StripeScratch::with_manifest`]
//! persists a *run manifest* (JSON, written atomically via temp-file +
//! rename) recording the layout and every sealed run: its input position,
//! record count, stripe geometry and per-stride CRC32C fingerprints. After
//! a crash, [`StripeScratch::resume`] reloads the manifest, re-opens each
//! run, verifies it end to end against the recorded checksums (rebuilding
//! a var-len run's index from the same read), and discards anything
//! corrupt. The driver then consults [`StripeScratch::recovered_runs`] and
//! re-forms only the input ranges that are missing — pass-1 work completed
//! before the crash is not repeated. Cascade-merge outputs are not
//! manifested: recovery granularity is the pass-1 run, and merge progress
//! is redone on resume.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alphasort_dmgen::KEY_LEN;
use alphasort_minijson::Json;
use alphasort_obs as obs;
use alphasort_stripefs::{RunChecksums, StripeDef, StripedFile, Volume};

use crate::entry::{Frame, RecordLayout};
use crate::io::{RecordSink, RecordSource, StripeSink, StripeSource};

/// A scratch run surviving from a previous attempt, described by the input
/// range it covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveredRun {
    /// Absolute record index (within the input) where the run starts.
    pub start_record: u64,
    /// Records the run holds.
    pub records: u64,
}

/// Records between two entries of a var-len run's sparse index.
pub const INDEX_EVERY: u64 = 64;

fn invalid(kind: io::ErrorKind, msg: String) -> io::Error {
    io::Error::new(kind, msg)
}

/// Fetches `len` bytes of a run from byte offset `off`.
type ReadAt<'a> = &'a mut dyn FnMut(u64, u64) -> io::Result<Vec<u8>>;

/// Where the records of one sealed run start: nothing but the totals under
/// a fixed stride, plus the sparse offset table for var-len frames.
#[derive(Clone, Debug)]
struct RunShape {
    layout: RecordLayout,
    records: u64,
    bytes: u64,
    /// `index[i]` = byte offset of record `i * INDEX_EVERY`.
    index: Vec<u64>,
}

impl RunShape {
    /// The shape `seal_run` was told, checked against the bytes written.
    fn told(layout: RecordLayout, records: u64, bytes: u64, index: Vec<u64>) -> io::Result<Self> {
        let fits = match layout.stride() {
            Some(stride) => index.is_empty() && records.checked_mul(stride as u64) == Some(bytes),
            None => index.len() as u64 == records.div_ceil(INDEX_EVERY),
        };
        if !fits {
            let (name, entries) = (layout.name(), index.len());
            return Err(invalid(
                io::ErrorKind::InvalidInput,
                format!("{records} {name} records with {entries} index entries in {bytes} bytes"),
            ));
        }
        Ok(RunShape {
            layout,
            records,
            bytes,
            index,
        })
    }

    /// Read a whole run through `source`, counting its records and
    /// rebuilding its index. A run that ends mid-record is `InvalidData`.
    fn scan(layout: RecordLayout, source: &mut impl RecordSource) -> io::Result<Self> {
        let mut shape = RunShape {
            layout,
            records: 0,
            bytes: 0,
            index: Vec::new(),
        };
        let mut pending: Vec<u8> = Vec::new();
        while let Some(chunk) = source.next_chunk()? {
            pending.extend_from_slice(&chunk);
            let mut at = 0;
            while let Some(frame) = layout.frame_at(&pending[at..], shape.bytes)? {
                if layout.stride().is_none() && shape.records.is_multiple_of(INDEX_EVERY) {
                    shape.index.push(shape.bytes);
                }
                shape.records += 1;
                shape.bytes += frame.len as u64;
                at += frame.len;
            }
            pending.drain(..at);
        }
        match pending.len() {
            0 => Ok(shape),
            n => Err(invalid(
                io::ErrorKind::InvalidData,
                format!("run ends mid-record ({n} trailing bytes)"),
            )),
        }
    }

    /// The whole record at the start of `bytes` (run offset `at`).
    fn frame(&self, bytes: &[u8], at: u64) -> io::Result<Frame> {
        self.layout.frame_at(bytes, at)?.ok_or_else(|| {
            let what = format!("scratch run does not hold a whole record at byte {at}");
            invalid(io::ErrorKind::InvalidData, what)
        })
    }

    /// Byte offset of record `pos` (`records` = one past the end), plus
    /// whatever was read from that offset on to find it — nothing under a
    /// fixed stride, which needs no read.
    fn seek(&self, pos: u64, read: ReadAt<'_>) -> io::Result<(u64, Vec<u8>)> {
        assert!(
            pos <= self.records,
            "record {pos} is past the end of its run"
        );
        if let Some(stride) = self.layout.stride() {
            return Ok((pos * stride as u64, Vec::new()));
        }
        if pos == self.records {
            return Ok((self.bytes, Vec::new()));
        }
        let slot = (pos / INDEX_EVERY) as usize;
        let lo = self.index[slot];
        let hi = self.index.get(slot + 1).copied().unwrap_or(self.bytes);
        let mut window = read(lo, hi - lo)?;
        let mut at = 0usize;
        for _ in 0..pos % INDEX_EVERY {
            at += self.frame(&window[at..], lo + at as u64)?.len;
        }
        window.drain(..at);
        Ok((lo + at as u64, window))
    }

    /// Key bytes of record `pos`.
    fn key_at(&self, pos: u64, read: ReadAt<'_>) -> io::Result<Vec<u8>> {
        assert!(
            pos < self.records,
            "record {pos} is past the end of its run"
        );
        let (off, window) = self.seek(pos, read)?;
        match self.layout.stride() {
            Some(_) => read(off, KEY_LEN as u64),
            None => Ok(self.frame(&window, off)?.key(&window).to_vec()),
        }
    }

    /// Byte window `(offset, length)` of records `[start, start + records)`.
    fn window(&self, start: u64, records: u64, read: ReadAt<'_>) -> io::Result<(u64, u64)> {
        let lo = self.seek(start, read)?.0;
        let hi = self.seek(start + records, read)?.0;
        Ok((lo, hi - lo))
    }
}

/// Recovered-span bookkeeping: freshly formed runs pack the gaps between
/// the spans a previous attempt left behind.
#[derive(Default)]
struct SpanPacker {
    /// Record cursor assigning start offsets to sealed runs.
    cursor: u64,
    /// Recovered spans the cursor has not passed yet, sorted by start.
    pending: VecDeque<RecoveredRun>,
    /// Spans reported through [`StripeScratch::recovered_runs`].
    recovered: Vec<RecoveredRun>,
}

impl SpanPacker {
    /// Sort `spans` by start and check they can all be real: non-empty,
    /// ending inside `u64`, and disjoint. These values come from a manifest
    /// file; overlapping entries would make pass 1 skip too little input
    /// and the output carry records twice.
    fn new(mut spans: Vec<RecoveredRun>) -> io::Result<Self> {
        spans.sort_by_key(|s| s.start_record);
        let mut covered = 0u64;
        for s in &spans {
            let end = s
                .start_record
                .checked_add(s.records)
                .filter(|_| s.records > 0);
            match end {
                Some(end) if s.start_record >= covered => covered = end,
                _ => {
                    return Err(invalid(
                        io::ErrorKind::InvalidData,
                        format!(
                            "recovered run at record {} with {} records is empty, \
                             overflows, or overlaps the run before it",
                            s.start_record, s.records
                        ),
                    ))
                }
            }
        }
        Ok(SpanPacker {
            cursor: 0,
            pending: spans.iter().copied().collect(),
            recovered: spans,
        })
    }

    /// The start record of a freshly sealed run of `records` records: when
    /// the cursor reaches a recovered span, that range is already covered —
    /// jump over it.
    fn place(&mut self, records: u64) -> u64 {
        while self
            .pending
            .front()
            .is_some_and(|s| s.start_record == self.cursor)
        {
            self.cursor += self.pending.pop_front().expect("front exists").records;
        }
        let start = self.cursor;
        self.cursor += records;
        start
    }

    /// Cascade outputs restart the ordering cursor per level.
    fn restart(&mut self) {
        self.cursor = 0;
        self.pending.clear();
    }
}

/// One sealed (or recovered) run living on the scratch volume.
struct RunMeta {
    file: Arc<StripedFile>,
    /// Absolute record index where this run starts (within the input for
    /// pass-1 runs; within the level for cascade outputs).
    start: u64,
    shape: RunShape,
    checks: RunChecksums,
}

impl RunMeta {
    /// Fetch `[off, off + len)` of the run through its checksums: a point
    /// probe reads (and checks) only the strides covering those bytes.
    fn reader(&self) -> impl FnMut(u64, u64) -> io::Result<Vec<u8>> + '_ {
        |off, len| {
            let mut src = StripeSource::verified_window(
                Arc::clone(&self.file),
                self.checks.clone(),
                off,
                len,
            )?;
            let mut out = Vec::with_capacity(len as usize);
            while let Some(chunk) = src.next_chunk()? {
                out.extend_from_slice(&chunk);
            }
            Ok(out)
        }
    }
}

/// Read and parse the manifest at `path`; the closure attributes any
/// later schema error to the file.
fn load_manifest(
    path: &Path,
) -> io::Result<(Json, impl Fn(&dyn std::fmt::Display) -> io::Error + '_)> {
    let bad = move |e: &dyn std::fmt::Display| {
        invalid(
            io::ErrorKind::InvalidData,
            format!("scratch manifest '{}': {e}", path.display()),
        )
    };
    let doc = Json::parse(&std::fs::read_to_string(path)?).map_err(|e| bad(&e))?;
    Ok((doc, bad))
}

/// The stripe geometry of one manifested run.
fn run_def(entry: &Json) -> Result<StripeDef, String> {
    let def = entry.get("def").ok_or("run entry missing `def`")?;
    StripeDef::from_json(def).map_err(|e| e.to_string())
}

/// Host-side persistence for the run manifest.
struct ManifestState {
    path: PathBuf,
    input_bytes: u64,
    run_records: u64,
    /// Rendered entries for runs still live on the volume, keyed by the
    /// run's file name so deletions can drop them.
    entries: Vec<(String, Json)>,
}

/// What [`StripeScratch::resume`] found in a previous attempt's scratch.
#[derive(Clone, Debug, Default)]
pub struct ResumeReport {
    /// Runs that verified end to end and will be reused, in input order.
    pub recovered: Vec<RecoveredRun>,
    /// Runs discarded as corrupt or unreadable (name plus the reason).
    pub corrupt: Vec<String>,
    /// Input length the manifest was written for.
    pub input_bytes: u64,
    /// Run size (in records) the manifest was written for.
    pub run_records: u64,
}

/// Scratch on striped simulated disks: each run is its own striped file
/// across the scratch volume's disks, fingerprinted at write-behind and
/// verified at merge read-ahead.
pub struct StripeScratch {
    volume: Arc<Volume>,
    layout: RecordLayout,
    chunk: u64,
    runs: Vec<RunMeta>,
    next_id: usize,
    open_writers: Vec<(usize, Arc<StripedFile>)>,
    /// Runs handed out by `open_runs`, freed when the next level creates.
    pending_free: Vec<Arc<StripedFile>>,
    /// Present when the scratch persists a run manifest.
    manifest: Option<ManifestState>,
    /// Runs inherited from a previous attempt via [`resume`](Self::resume),
    /// and the cursor packing fresh runs around them.
    spans: SpanPacker,
    /// Flipped at the first `open_runs`: later seals are cascade outputs
    /// and are not manifested.
    merging: bool,
    /// Run-name namespace: runs are created as `{prefix}-{id}`. Two
    /// scratches sharing one volume (two jobs in one process) must use
    /// distinct prefixes or their run files collide.
    prefix: String,
}

impl StripeScratch {
    /// Scratch over `volume`, striping each run across all its disks with
    /// the given chunk size, holding Datamation runs. No manifest: a crash
    /// loses the scratch.
    pub fn new(volume: Arc<Volume>, chunk: u64) -> Self {
        StripeScratch {
            volume,
            layout: RecordLayout::Datamation,
            chunk,
            runs: Vec::new(),
            next_id: 0,
            open_writers: Vec::new(),
            pending_free: Vec::new(),
            manifest: None,
            spans: SpanPacker::default(),
            merging: false,
            prefix: "scratch-run".to_string(),
        }
    }

    /// Set the run-name namespace (default `scratch-run`). Every scratch
    /// sharing a volume with another concurrently-live scratch — `sortd`
    /// runs one per job on one shared volume — needs its own prefix; with
    /// the default, a second scratch's `scratch-run-0` would collide with
    /// the first's. The prefix is persisted in the manifest so resume
    /// keeps fresh run ids clear of surviving names.
    pub fn named(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Hold runs of `layout` instead of Datamation. Like the prefix, set it
    /// before [`attach_manifest`](Self::attach_manifest): the manifest
    /// records it, and [`resume`](Self::resume) restores it.
    pub fn with_layout(mut self, layout: RecordLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Delete every file this scratch still tracks (sealed runs, handed-out
    /// merge sources, abandoned writers) from the volume, releasing their
    /// extents for other users of a shared volume.
    ///
    /// This is deliberately *not* `Drop`: a crash-style drop must leave
    /// manifested runs on disk for [`resume`](Self::resume). A daemon that
    /// owns the job lifecycle calls `dispose` when the job is done.
    pub fn dispose(mut self) {
        for f in self.pending_free.drain(..) {
            self.volume.delete(&f);
        }
        for r in self.runs.drain(..) {
            self.volume.delete(&r.file);
        }
        for (_, f) in self.open_writers.drain(..) {
            self.volume.delete(&f);
        }
    }

    /// Like [`new`](Self::new), additionally persisting a run manifest at
    /// `path` (host file system) after every sealed pass-1 run, so a
    /// crashed sort can [`resume`](Self::resume). `input_bytes` and
    /// `run_records` describe the sort the manifest belongs to; resume
    /// callers check them against the retry's parameters.
    pub fn with_manifest(
        volume: Arc<Volume>,
        chunk: u64,
        path: impl Into<PathBuf>,
        input_bytes: u64,
        run_records: u64,
    ) -> io::Result<Self> {
        let mut s = Self::new(volume, chunk);
        s.attach_manifest(path, input_bytes, run_records)?;
        Ok(s)
    }

    /// Attach a run manifest to an existing (possibly [`named`](Self::named))
    /// scratch — the builder-order-friendly form of
    /// [`with_manifest`](Self::with_manifest): the prefix is already set
    /// when the first manifest is written, so a crash before any seal still
    /// resumes under the right namespace. `sortd` uses this to manifest its
    /// per-job namespaced scratches.
    pub fn attach_manifest(
        &mut self,
        path: impl Into<PathBuf>,
        input_bytes: u64,
        run_records: u64,
    ) -> io::Result<()> {
        self.manifest = Some(ManifestState {
            path: path.into(),
            input_bytes,
            run_records,
            entries: Vec::new(),
        });
        // Write the empty manifest up front: a crash before the first seal
        // must still resume (recovering nothing) rather than error.
        self.write_manifest()
    }

    /// Re-open on `volume` every run the manifest at `path` lists, reading
    /// none of them.
    fn open_manifested(volume: &Arc<Volume>, path: &Path) -> io::Result<Vec<StripedFile>> {
        let (doc, bad) = load_manifest(path)?;
        let runs = doc.field_arr("runs").map_err(|e| bad(&e))?;
        let open = |entry| {
            let def = run_def(entry).map_err(|e| bad(&e))?;
            volume.try_open(def).map_err(|e| bad(&e))
        };
        runs.iter().map(open).collect()
    }

    /// Free a dead scratch's extents from its manifest at `path` without
    /// validating run contents: every manifested run file is deleted from
    /// `volume`, then the manifest itself is removed. Checksums are not
    /// read — this is for scratch nobody will ever resume (a journaling
    /// daemon sweeping a crashed job whose client never came back), so the
    /// only thing worth reclaiming is the space. Returns how many run
    /// files were deleted.
    pub fn dispose_at(volume: &Arc<Volume>, path: &Path) -> io::Result<u64> {
        let files = Self::open_manifested(volume, path)?;
        for file in &files {
            volume.delete(file);
        }
        std::fs::remove_file(path)?;
        Ok(files.len() as u64)
    }

    /// Put `volume`'s allocator past every run the manifest at `path`
    /// lists, touching neither the runs nor the manifest. A volume built
    /// fresh over surviving disks knows nothing of what a killed process
    /// sealed there; until [`resume`](Self::resume) re-opens those runs,
    /// anyone else allocating on the volume would be handed their extents.
    /// A daemon sharing one volume between jobs calls this for every
    /// pending manifest before it admits a job. Returns how many runs
    /// were reserved.
    pub fn reserve_at(volume: &Arc<Volume>, path: &Path) -> io::Result<u64> {
        Ok(Self::open_manifested(volume, path)?.len() as u64)
    }

    /// Reload a previous attempt's scratch from its manifest at `path`.
    ///
    /// Every manifested run is re-opened on `volume` (which must sit over
    /// the same disks) and read end to end against its recorded checksums.
    /// Intact runs are kept and later skipped by the driver; corrupt or
    /// truncated runs are deleted, counted in `run.corrupt`, and re-formed
    /// from the input. Returns the scratch plus a [`ResumeReport`].
    pub fn resume(volume: Arc<Volume>, path: &Path) -> io::Result<(Self, ResumeReport)> {
        let (doc, bad) = load_manifest(path)?;
        let version = doc.field_u64("version").map_err(|e| bad(&e))?;
        if version != 1 {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let input_bytes = doc.field_u64("input_bytes").map_err(|e| bad(&e))?;
        let run_records = doc.field_u64("run_records").map_err(|e| bad(&e))?;
        let chunk = doc.field_u64("chunk").map_err(|e| bad(&e))?;
        if chunk == 0 {
            // Re-forming a lost run would stripe it over zero-byte chunks.
            return Err(bad(&"zero stripe chunk"));
        }
        let mut s = Self::new(volume, chunk);
        // Manifests from before the var-len layout carry no layout field;
        // they could only hold Datamation runs.
        if let Some(name) = doc.get("layout").and_then(Json::as_str) {
            s.layout = RecordLayout::from_name(name)
                .ok_or_else(|| bad(&format!("unknown layout {name:?}")))?;
        }
        // Manifests from before namespacing carry no prefix; they used the
        // default.
        if let Some(p) = doc.get("prefix").and_then(Json::as_str) {
            s.prefix = p.to_string();
        }
        let mut report = ResumeReport {
            input_bytes,
            run_records,
            ..Default::default()
        };
        for entry in doc.field_arr("runs").map_err(|e| bad(&e))? {
            let start = entry.field_u64("start").map_err(|e| bad(&e))?;
            let records = entry.field_u64("records").map_err(|e| bad(&e))?;
            let def = run_def(entry).map_err(|e| bad(&e))?;
            let checks = entry
                .get("checks")
                .ok_or_else(|| bad(&"run entry missing `checks`"))
                .and_then(|v| RunChecksums::from_json(v).map_err(|e| bad(&e)))?;
            let name = def.name.clone();
            let file = Arc::new(s.volume.try_open(def).map_err(|e| bad(&e))?);
            match Self::validate_run(s.layout, &file, &checks, records) {
                Ok(shape) => {
                    // Keep fresh run ids clear of every surviving name.
                    if let Some(id) = name
                        .strip_prefix(&format!("{}-", s.prefix))
                        .and_then(|n| n.parse::<usize>().ok())
                    {
                        s.next_id = s.next_id.max(id + 1);
                    }
                    report.recovered.push(RecoveredRun {
                        start_record: start,
                        records,
                    });
                    s.runs.push(RunMeta {
                        file,
                        start,
                        shape,
                        checks,
                    });
                }
                Err(e) => {
                    obs::metrics::counter_add("run.corrupt", 1);
                    s.volume.delete(&file);
                    report.corrupt.push(format!("{name}: {e}"));
                }
            }
        }
        s.runs.sort_by_key(|r| r.start);
        s.spans = SpanPacker::new(std::mem::take(&mut report.recovered)).map_err(|e| bad(&e))?;
        report.recovered = s.spans.recovered.clone();
        s.manifest = Some(ManifestState {
            path: path.to_path_buf(),
            input_bytes,
            run_records,
            entries: s
                .runs
                .iter()
                .map(|m| (m.file.def().name.clone(), Self::render_entry(m)))
                .collect(),
        });
        // Drop corrupt entries (and any stale "merging" phase) right away.
        s.write_manifest()?;
        Ok((s, report))
    }

    /// Read a recovered run end to end through its checksums, framing it
    /// on the way: the manifest's record count is outside data and must
    /// match what the bytes actually hold.
    fn validate_run(
        layout: RecordLayout,
        file: &Arc<StripedFile>,
        checks: &RunChecksums,
        records: u64,
    ) -> io::Result<RunShape> {
        if let Some(stride) = layout.stride() {
            // Before the read: a torn count fails without touching a disk.
            if records.checked_mul(stride as u64) != Some(checks.bytes) {
                return Err(invalid(
                    io::ErrorKind::InvalidData,
                    format!(
                        "manifest claims {records} records but checksums cover {} bytes",
                        checks.bytes
                    ),
                ));
            }
        }
        let mut source = StripeSource::verified(Arc::clone(file), checks.clone())?;
        let shape = RunShape::scan(layout, &mut source)?;
        if shape.bytes != checks.bytes || shape.records != records {
            return Err(invalid(
                io::ErrorKind::InvalidData,
                format!(
                    "manifest claims {records} records in {} bytes but the run \
                     holds {} records in {} bytes",
                    checks.bytes, shape.records, shape.bytes
                ),
            ));
        }
        Ok(shape)
    }

    fn render_entry(meta: &RunMeta) -> Json {
        Json::Obj(vec![
            ("start".into(), Json::from(meta.start)),
            ("records".into(), Json::from(meta.shape.records)),
            ("def".into(), meta.file.def_snapshot().to_json()),
            ("checks".into(), meta.checks.to_json()),
        ])
    }

    /// Persist the manifest atomically (temp file + rename): readers see
    /// either the previous state or the new one, never a torn write.
    fn write_manifest(&self) -> io::Result<()> {
        let Some(m) = &self.manifest else {
            return Ok(());
        };
        let doc = Json::Obj(vec![
            ("version".into(), Json::from(1u64)),
            (
                "phase".into(),
                Json::from(if self.merging { "merging" } else { "forming" }),
            ),
            ("input_bytes".into(), Json::from(m.input_bytes)),
            ("run_records".into(), Json::from(m.run_records)),
            ("layout".into(), Json::from(self.layout.name())),
            ("chunk".into(), Json::from(self.chunk)),
            ("prefix".into(), Json::from(self.prefix.as_str())),
            (
                "runs".into(),
                Json::Arr(m.entries.iter().map(|(_, j)| j.clone()).collect()),
            ),
        ]);
        let mut tmp = m.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, doc.dump_pretty())?;
        std::fs::rename(&tmp, &m.path)
    }

    /// The record layout of the runs this store holds.
    pub fn layout(&self) -> RecordLayout {
        self.layout
    }

    /// Start a new scratch run of roughly `size_hint` bytes.
    pub fn create_run(&mut self, size_hint: u64) -> io::Result<StripeSink> {
        let id = self.next_id;
        self.next_id += 1;
        let file = match self.volume.try_create_across_all(
            format!("{}-{id}", self.prefix),
            self.chunk,
            size_hint,
        ) {
            Ok(f) => Arc::new(f),
            Err(e) if e.kind() == io::ErrorKind::StorageFull => {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("scratch volume full (needed {size_hint} bytes for run {id}): {e}"),
                ));
            }
            Err(e) => return Err(e),
        };
        self.open_writers.push((id, Arc::clone(&file)));
        Ok(StripeSink::checksummed(file))
    }

    /// Finish a run's writer, recording it for the merge pass. `records`
    /// is how many records were written; `index[i]` is the byte offset of
    /// record `i * INDEX_EVERY` for a var-len run and empty under a fixed
    /// stride. A count or index that cannot describe the bytes written is
    /// `InvalidInput`.
    pub fn seal_run(
        &mut self,
        mut writer: StripeSink,
        records: u64,
        index: Vec<u64>,
    ) -> io::Result<()> {
        writer.complete()?;
        let checks = writer.take_checksums().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "sealed writer was not created by this scratch store",
            )
        })?;
        // Writers seal in creation order in the two-pass driver.
        if self.open_writers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seal_run without a matching create_run",
            ));
        }
        let shape = RunShape::told(self.layout, records, checks.bytes, index)?;
        let (_, file) = self.open_writers.remove(0);
        let meta = RunMeta {
            file,
            start: self.spans.place(records),
            shape,
            checks,
        };
        if !self.merging {
            if let Some(m) = &mut self.manifest {
                m.entries
                    .push((meta.file.def().name.clone(), Self::render_entry(&meta)));
            }
            self.runs.push(meta);
            // Persisting after every pass-1 seal is the crash-safety point:
            // everything the manifest lists survives a kill right here.
            self.write_manifest()?;
        } else {
            self.runs.push(meta);
        }
        Ok(())
    }

    /// Open every sealed run for reading, in input order.
    pub fn open_runs(&mut self) -> io::Result<Vec<StripeSource>> {
        // The *previous* batch handed out by open_runs has been fully
        // consumed by now (the driver merges an entire cascade level before
        // asking for the next), so its extents can be recycled for the
        // runs the coming level will create. Freeing any earlier — while a
        // level is still reading them — would let create_run() hand live
        // extents to a new writer.
        let mut manifest_dirty = !self.merging; // phase flips below
        for f in self.pending_free.drain(..) {
            if let Some(m) = &mut self.manifest {
                let name = &f.def().name;
                let before = m.entries.len();
                m.entries.retain(|(n, _)| n != name);
                manifest_dirty |= m.entries.len() != before;
            }
            self.volume.delete(&f);
        }
        self.merging = true;
        self.spans.restart();
        // Input order, not creation order: a resumed pass 1 seals re-formed
        // runs after the recovered ones even though they interleave in the
        // input, and the merge's tie-break (stream index) must follow input
        // order for the sort to stay stable.
        self.runs.sort_by_key(|r| r.start);
        let sources = self
            .runs
            .iter()
            .map(|r| StripeSource::verified(Arc::clone(&r.file), r.checks.clone()))
            .collect::<io::Result<Vec<_>>>()?;
        self.pending_free
            .extend(self.runs.drain(..).map(|r| r.file));
        if manifest_dirty {
            self.write_manifest()?;
        }
        Ok(sources)
    }

    /// Record counts of the sealed runs, in input order — the order
    /// [`open_runs`](Self::open_runs) and
    /// [`open_run_range`](Self::open_run_range) will use. The partitioned
    /// merge plans its key-range cuts from these lengths without opening
    /// anything.
    pub fn sealed_run_records(&mut self) -> io::Result<Vec<u64>> {
        // Input order, for the same stability reason as open_runs.
        self.runs.sort_by_key(|r| r.start);
        Ok(self.runs.iter().map(|r| r.shape.records).collect())
    }

    /// The key bytes of record `pos` within sealed run `run` (same
    /// input-order indexing as
    /// [`sealed_run_records`](Self::sealed_run_records)). A point probe:
    /// the partitioned merge samples splitter candidates and
    /// binary-searches cut positions through this.
    pub fn key_at(&mut self, run: usize, pos: u64) -> io::Result<Vec<u8>> {
        let meta = &self.runs[run];
        meta.shape.key_at(pos, &mut meta.reader())
    }

    /// Open records `[start, start + records)` of sealed run `run` for
    /// reading. Unlike [`open_runs`](Self::open_runs) this does not consume
    /// the run: every key range of the partitioned merge opens its own
    /// window of the same run.
    pub fn open_run_range(
        &mut self,
        run: usize,
        start: u64,
        records: u64,
    ) -> io::Result<StripeSource> {
        let meta = &self.runs[run];
        let (off, len) = meta.shape.window(start, records, &mut meta.reader())?;
        StripeSource::verified_window(Arc::clone(&meta.file), meta.checks.clone(), off, len)
    }

    /// Runs already present from a previous attempt (a
    /// [`resume`](Self::resume)d scratch), sorted by start and disjoint. The
    /// driver skips their input ranges during run formation instead of
    /// re-sorting them.
    pub fn recovered_runs(&self) -> Vec<RecoveredRun> {
        self.spans.recovered.clone()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
    use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};

    use crate::io::{MemSink, MemSource};

    /// A volume over `storages` — rebuilt over the same storages, it is the
    /// scratch a restarted process would find.
    fn volume_over(storages: &[Arc<MemStorage>]) -> Arc<Volume> {
        let disk = |(i, s): (usize, &Arc<MemStorage>)| {
            let spec = catalog::uncapped();
            SimDisk::new(format!("s{i}"), spec, s.clone(), Pacing::Modeled, None)
        };
        let disks = storages.iter().enumerate().map(disk).collect();
        Arc::new(Volume::new(Arc::new(IoEngine::new(disks))))
    }

    fn tmp_manifest(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "alphasort-scratch-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d.join("scratch.manifest")
    }

    /// In-memory scratch for `layout` runs, striped over two disks in
    /// `chunk`-byte chunks.
    pub(crate) fn mem_scratch(chunk: usize, layout: RecordLayout) -> StripeScratch {
        StripeScratch::new(Arc::new(Volume::in_memory(2)), chunk as u64).with_layout(layout)
    }

    /// A scratch that survived a crash holding one run, `run` (whole
    /// `layout` records), at input record `start`: sealed through a
    /// manifested store that is dropped undisposed, then resumed over the
    /// same volume — the in-process restart a daemon performs. The run is
    /// sealed as its sort's first; the manifest edit puts it where the
    /// crashed sort had it.
    pub(crate) fn crashed_with(
        chunk: usize,
        layout: RecordLayout,
        start: u64,
        run: &[u8],
    ) -> StripeScratch {
        let shape = RunShape::scan(layout, &mut MemSource::new(run.to_vec(), 1 << 16)).unwrap();
        let path = tmp_manifest("crashed");
        let mut s = mem_scratch(chunk, layout);
        let volume = Arc::clone(&s.volume);
        s.attach_manifest(&path, 0, shape.records).unwrap();
        let mut w = s.create_run(shape.bytes).unwrap();
        w.push(run).unwrap();
        s.seal_run(w, shape.records, shape.index).unwrap();
        drop(s);
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.replace("\"start\": 0", &format!("\"start\": {start}"));
        std::fs::write(&path, text).unwrap();
        let (s, report) = StripeScratch::resume(volume, &path).unwrap();
        assert_eq!(report.recovered.len(), 1, "{report:?}");
        s
    }

    #[test]
    fn stripe_scratch_probes_and_range_windows() {
        let mut s = StripeScratch::new(Arc::new(Volume::in_memory(3)), 256);
        let run_a = run_payload(60, 31);
        let run_b = run_payload(45, 32);
        for payload in [&run_a, &run_b] {
            let mut w = s.create_run(payload.len() as u64).unwrap();
            w.push(payload).unwrap();
            s.seal_run(w, (payload.len() / RECORD_LEN) as u64, Vec::new())
                .unwrap();
        }
        assert_eq!(s.sealed_run_records().unwrap(), vec![60, 45]);
        for pos in [0u64, 1, 17, 59] {
            let off = pos as usize * RECORD_LEN;
            assert_eq!(&s.key_at(0, pos).unwrap(), &run_a[off..off + KEY_LEN]);
        }
        assert_eq!(&s.key_at(1, 44).unwrap(), &run_b[4_400..4_410]);
        // Windows at awkward (non-stride-aligned) record offsets.
        for (start, records) in [(0u64, 60u64), (13, 9), (59, 1), (20, 0)] {
            let mut src = s.open_run_range(0, start, records).unwrap();
            assert_eq!(src.size_hint(), Some(records * RECORD_LEN as u64));
            let mut got = Vec::new();
            while let Some(c) = src.next_chunk().unwrap() {
                got.extend_from_slice(&c);
            }
            let lo = start as usize * RECORD_LEN;
            assert_eq!(got, &run_a[lo..lo + records as usize * RECORD_LEN]);
        }
    }

    #[test]
    fn stripe_scratch_roundtrip() {
        let mut s = StripeScratch::new(Arc::new(Volume::in_memory(4)), 512);

        let payload: Vec<u8> = (0..3_000).map(|i| (i % 7) as u8).collect();
        let mut w = s.create_run(3_000).unwrap();
        w.push(&payload).unwrap();
        s.seal_run(w, 30, Vec::new()).unwrap();
        assert!(s.recovered_runs().is_empty());

        let mut sources = s.open_runs().unwrap();
        let mut got = Vec::new();
        while let Some(c) = sources[0].next_chunk().unwrap() {
            got.extend_from_slice(&c);
        }
        assert_eq!(got, payload);
    }

    /// One sorted run of `records` records with predictable payloads.
    fn run_payload(records: usize, salt: u8) -> Vec<u8> {
        let (mut data, _) = generate(GenConfig::datamation(records as u64, salt as u64));
        records_of_mut(&mut data).sort_by_key(|r| r.key);
        data
    }

    #[test]
    fn namespaced_scratches_share_a_volume_without_colliding() {
        // Two concurrently-live scratches on ONE volume — the sortd
        // situation. With the default prefix both would create
        // "scratch-run-0"; named scratches must stay disjoint, and
        // dispose() must return the extents to the volume.
        let volume = Arc::new(Volume::in_memory(2));
        let run_a = run_payload(30, 41);
        let run_b = run_payload(30, 42);
        let mut sa = StripeScratch::new(Arc::clone(&volume), 256).named("job1-run");
        let mut sb = StripeScratch::new(Arc::clone(&volume), 256).named("job2-run");
        for (s, payload) in [(&mut sa, &run_a), (&mut sb, &run_b)] {
            let mut w = s.create_run(payload.len() as u64).unwrap();
            w.push(payload).unwrap();
            s.seal_run(w, (payload.len() / RECORD_LEN) as u64, Vec::new())
                .unwrap();
        }
        // Each scratch reads back its own bytes, not the other job's.
        for (s, want) in [(&mut sa, &run_a), (&mut sb, &run_b)] {
            let mut sources = s.open_runs().unwrap();
            assert_eq!(sources.len(), 1);
            let mut got = Vec::new();
            while let Some(c) = sources[0].next_chunk().unwrap() {
                got.extend_from_slice(&c);
            }
            assert_eq!(&got, want);
        }
        sa.dispose();
        sb.dispose();
        // Both runs' extents are back on the free lists (free_bytes counts
        // only freed extents, so it starts at 0 and ends at everything the
        // two scratches reserved).
        assert!(
            volume.free_bytes() >= (run_a.len() + run_b.len()) as u64,
            "dispose must free all extents, freed only {}",
            volume.free_bytes()
        );
    }

    #[test]
    fn manifest_resume_recovers_intact_runs() {
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let path = tmp_manifest("resume");
        let run_a = run_payload(40, 1);
        let run_b = run_payload(40, 2);
        {
            let volume = volume_over(&storages);
            let mut s = StripeScratch::with_manifest(
                volume,
                256,
                &path,
                (run_a.len() + run_b.len()) as u64,
                40,
            )
            .unwrap();
            for payload in [&run_a, &run_b] {
                let mut w = s.create_run(payload.len() as u64).unwrap();
                w.push(payload).unwrap();
                s.seal_run(w, (payload.len() / RECORD_LEN) as u64, Vec::new())
                    .unwrap();
            }
            // "Crash": scratch dropped without open_runs; storages survive.
        }
        let volume = volume_over(&storages);
        let (mut s, report) = StripeScratch::resume(volume, &path).unwrap();
        assert_eq!(report.run_records, 40);
        assert!(report.corrupt.is_empty());
        assert_eq!(
            report.recovered,
            vec![
                RecoveredRun {
                    start_record: 0,
                    records: 40
                },
                RecoveredRun {
                    start_record: 40,
                    records: 40
                },
            ]
        );
        assert_eq!(s.recovered_runs(), report.recovered);
        let mut sources = s.open_runs().unwrap();
        assert_eq!(sources.len(), 2);
        for (src, want) in sources.iter_mut().zip([&run_a, &run_b]) {
            let mut got = Vec::new();
            while let Some(c) = src.next_chunk().unwrap() {
                got.extend_from_slice(&c);
            }
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn resume_discards_corrupt_run_and_reforms_its_slot() {
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let path = tmp_manifest("corrupt");
        let run_a = run_payload(30, 3);
        let run_b = run_payload(30, 4);
        let b_base;
        {
            let volume = volume_over(&storages);
            let mut s =
                StripeScratch::with_manifest(volume.clone(), 128, &path, 6_000, 30).unwrap();
            for payload in [&run_a, &run_b] {
                let mut w = s.create_run(payload.len() as u64).unwrap();
                w.push(payload).unwrap();
                s.seal_run(w, (payload.len() / RECORD_LEN) as u64, Vec::new())
                    .unwrap();
            }
            // Corrupt run B (second file) on disk 0 behind the stripe layer.
            b_base = s.runs[1].file.def().members[0].base;
        }
        {
            let volume = volume_over(&storages);
            volume.engine().write(0, b_base, vec![0xAB]).wait().unwrap();
        }
        let volume = volume_over(&storages);
        let (mut s, report) = StripeScratch::resume(volume, &path).unwrap();
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.recovered[0].start_record, 0);
        assert_eq!(report.corrupt.len(), 1);
        assert!(
            report.corrupt[0].contains("scratch-run-1"),
            "{:?}",
            report.corrupt
        );
        // The driver re-forms the gap: seal a replacement run; it must land
        // at start 30 (after the recovered run 0..30).
        let mut w = s.create_run(run_b.len() as u64).unwrap();
        w.push(&run_b).unwrap();
        s.seal_run(w, 30, Vec::new()).unwrap();
        let starts: Vec<u64> = s.runs.iter().map(|r| r.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 30]);
    }

    /// Bytes from outside never size arithmetic or an index unchecked: every
    /// hostile edit of a real manifest ends in an attributed `InvalidData`
    /// (from `resume`, from the run's verification, or from the sort that
    /// tries to use it) — never a panic, never records sorted twice.
    #[test]
    fn hostile_manifests_are_errors_not_panics() {
        use crate::driver::{two_pass, SortConfig};
        use alphasort_dmgen::{generate_varlen, TextCorpus, VarGenConfig};
        const D: RecordLayout = RecordLayout::Datamation;
        const V: RecordLayout = RecordLayout::VarLen;
        // Layout sealed, field edited, its value before and after, the
        // stage that must catch the edit, and what its message names.
        let table = [
            (
                D,
                "records",
                "40",
                "9223372036854775807",
                "verify",
                "claims",
            ),
            (
                D,
                "start",
                "40",
                "9223372036854775807",
                "sort",
                "extends past the input",
            ),
            (D, "start", "40", "20", "resume", "overlaps"),
            (D, "start", "40", "18446744073709551616", "resume", "start"),
            (
                D,
                "layout",
                "\"datamation\"",
                "\"parquet\"",
                "resume",
                "unknown layout",
            ),
            (
                D,
                "layout",
                "\"datamation\"",
                "\"varlen\"",
                "sort",
                "layout",
            ),
            (D, "disk", "1", "9", "resume", "disk 9 of a 2-disk volume"),
            (D, "chunk", "256", "0", "resume", "zero stripe chunk"),
            (V, "records", "40", "39", "verify", "holds 40 records"),
            (V, "start", "40", "500", "sort", "extends past the input"),
        ];
        for (row, (layout, field, before, after, stage, names)) in table.into_iter().enumerate() {
            let disks: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
            let path = tmp_manifest(&format!("hostile{row}"));
            let input = match layout {
                D => generate(GenConfig::datamation(80, 7)).0,
                V => generate_varlen(VarGenConfig {
                    records: 80,
                    seed: 7,
                    corpus: TextCorpus::Urls,
                }),
            };
            {
                let volume = volume_over(&disks);
                let mut s = StripeScratch::new(volume, 256).with_layout(layout);
                s.attach_manifest(&path, input.len() as u64, 40).unwrap();
                for seed in [1, 2] {
                    let corpus = TextCorpus::Urls;
                    let frames = generate_varlen(VarGenConfig {
                        records: 40,
                        seed,
                        corpus,
                    });
                    let (payload, index) = match layout {
                        D => (run_payload(40, seed as u8), Vec::new()),
                        V => (crate::varlen::sort_var_bytes(&frames).unwrap(), vec![0]),
                    };
                    let mut w = s.create_run(payload.len() as u64).unwrap();
                    w.push(&payload).unwrap();
                    s.seal_run(w, 40, index).unwrap();
                }
            }
            // Edit the second entry's `start`, the first of anything else.
            let text = std::fs::read_to_string(&path).unwrap();
            let from = format!("\"{field}\": {before}");
            let found = if field == "start" {
                text.rfind(&from)
            } else {
                text.find(&from)
            };
            let at = found.unwrap_or_else(|| panic!("row {row}: no {from} to edit"));
            let hostile = format!(
                "{}\"{field}\": {after}{}",
                &text[..at],
                &text[at + from.len()..]
            );
            std::fs::write(&path, hostile).unwrap();

            let resumed = StripeScratch::resume(volume_over(&disks), &path);
            let message = match (resumed, stage) {
                (Err(e), "resume") => e,
                (Ok((_, report)), "verify") => {
                    assert_eq!(report.recovered.len(), 1, "row {row}: {report:?}");
                    invalid(io::ErrorKind::InvalidData, report.corrupt.concat())
                }
                (Ok((mut scratch, _)), "sort") => {
                    let cfg = SortConfig {
                        run_records: 40,
                        layout,
                        ..Default::default()
                    };
                    let mut source = MemSource::new(input, 1_000);
                    two_pass(&mut source, &mut MemSink::new(), &mut scratch, &cfg)
                        .expect_err("sorted over a hostile manifest")
                }
                (Err(e), _) => panic!("row {row}: resume failed early: {e}"),
                (Ok(_), _) => panic!("row {row}: resume accepted the manifest"),
            };
            assert_eq!(message.kind(), io::ErrorKind::InvalidData, "row {row}");
            assert!(message.to_string().contains(names), "row {row}: {message}");
        }
    }

    #[test]
    fn dispose_at_frees_manifested_runs_without_reading_them() {
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let path = tmp_manifest("dispose");
        let run_a = run_payload(40, 5);
        let run_b = run_payload(40, 6);
        {
            let volume = volume_over(&storages);
            let mut s = StripeScratch::new(volume, 256).named("jobX-run");
            s.attach_manifest(&path, (run_a.len() + run_b.len()) as u64, 40)
                .unwrap();
            for payload in [&run_a, &run_b] {
                let mut w = s.create_run(payload.len() as u64).unwrap();
                w.push(payload).unwrap();
                s.seal_run(w, (payload.len() / RECORD_LEN) as u64, Vec::new())
                    .unwrap();
            }
            // "Crash": scratch dropped; manifest and run files survive.
        }
        // A fresh volume over the same disks would allocate from offset 0,
        // over the runs — until their manifest is reserved on it.
        let volume = volume_over(&storages);
        assert_eq!(StripeScratch::reserve_at(&volume, &path).unwrap(), 2);
        let probe = volume.create_across_all("probe", 256, 1);
        assert!(
            probe.def().members.iter().all(|m| m.base > 0),
            "allocated over a sealed run"
        );
        assert!(path.exists(), "reserving leaves the manifest for resume");

        let volume = volume_over(&storages);
        let freed = StripeScratch::dispose_at(&volume, &path).unwrap();
        assert_eq!(freed, 2);
        assert!(!path.exists(), "manifest removed after disposal");
        assert!(
            volume.free_bytes() >= (run_a.len() + run_b.len()) as u64,
            "extents back on the free lists, freed only {}",
            volume.free_bytes()
        );
    }

    /// A manifest naming a disk the volume does not have is refused by
    /// every reader of manifests — a daemon reserving at start, the sweep
    /// disposing at grace — and leaves the manifest where it was.
    #[test]
    fn reserve_and_dispose_refuse_a_manifest_off_the_volume() {
        let path = tmp_manifest("offvolume");
        let volume = Arc::new(Volume::in_memory(2));
        let mut s = StripeScratch::new(Arc::clone(&volume), 256);
        s.attach_manifest(&path, 4_000, 40).unwrap();
        let mut w = s.create_run(4_000).unwrap();
        w.push(&run_payload(40, 9)).unwrap();
        s.seal_run(w, 40, Vec::new()).unwrap();
        drop(s);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"disk\": 1", "\"disk\": 9")).unwrap();
        let reserved = StripeScratch::reserve_at(&volume, &path);
        let disposed = StripeScratch::dispose_at(&volume, &path);
        for e in [reserved.map(drop), disposed.map(drop)].map(Result::unwrap_err) {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains("disk 9 of a 2-disk volume"), "{e}");
        }
        assert!(path.exists(), "a refused manifest is not removed");
    }

    #[test]
    fn scratch_full_names_the_shortfall() {
        let volume = Arc::new(Volume::in_memory(2).with_disk_limit(256));
        let mut s = StripeScratch::new(volume, 128);
        let err = match s.create_run(1 << 20) {
            Ok(_) => panic!("expected StorageFull"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let msg = err.to_string();
        assert!(msg.contains("scratch volume full (needed"), "{msg}");
        assert!(msg.contains("had"), "{msg}");
    }
}
