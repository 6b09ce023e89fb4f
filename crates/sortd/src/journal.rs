//! Write-ahead job journal: the daemon's durable memory of every job it
//! accepted, keyed by idempotency key.
//!
//! One minijson file per job, rewritten **atomically** (temp file + rename,
//! the same discipline as stripefs run manifests) as the job moves through
//! its lifecycle, so a SIGKILL at any instant leaves each job's record
//! either at its previous state or its new one — never torn. That is the
//! whole promise: atomic per record against a *process* kill. Nothing here
//! calls `fsync`, so a power loss may take recent records with it. The
//! states are [`JobState`]'s names (a queued job is still `accepted`):
//!
//! ```text
//! accepted ──▶ running ──▶ done | failed | canceled     (terminal)
//!     │            │
//!     └────────────┴──▶ interrupted       (stamped at restart replay)
//! ```
//!
//! The server derives every record from its job table at write time and
//! funnels the writes through [`Journal::in_order`], so a stale record can
//! never land on top of a later one or resurrect a removed key.
//!
//! `running` records of two-pass jobs carry a `scratch_manifest` pointer:
//! the per-job stripefs run manifest that lists every **sealed** run with
//! its per-stride checksums. The journal itself never records individual
//! runs — "sealed-runs(prefix)" granularity lives in the scratch manifest,
//! which is also written atomically after every seal. Between the two
//! files, restart recovery knows exactly which jobs were in flight and
//! which of their pass-1 runs survived.
//!
//! # Record schema (wire-stable contract, version 1)
//!
//! ```text
//! { "version": 1,
//!   "key": "...",                  // idempotency key (client or synthetic)
//!   "job_id": N,
//!   "state": "accepted" | "running" | "done" | "failed" | "canceled"
//!          | "interrupted",
//!   "spec": { ...job manifest... },// JobSpec::to_json, for resume checks
//!   "records": N,                  // sorted records (done only)
//!   "error": "code",               // stable error code (failed/canceled)
//!   "scratch_manifest": "path" }   // two-pass runs manifest (if any)
//! ```
//!
//! Renaming a field is a breaking change: a restarted daemon must be able
//! to replay a journal written by the previous binary.
//!
//! Keys are arbitrary client strings; the journal never trusts them as
//! file names. Each record lives at `job-<sanitized>-<fnv64>.json` where
//! the FNV-1a hash of the *full* key disambiguates keys that sanitize
//! identically. Keys starting with `anon-` are reserved for the daemon's
//! synthetic keys (jobs submitted without an `idem_key` still journal, so
//! their scratch can be swept after a crash — they just can't dedupe).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use alphasort_minijson::Json;

use crate::job::{JobSpec, JobState};

/// Journal schema version; bump only with a replay-compatible migration.
const VERSION: u64 = 1;

/// One job's journaled lifecycle state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Idempotency key (client-supplied, or synthetic `anon-job-<id>`).
    pub key: String,
    /// Daemon-assigned job id (ids keep rising across restarts).
    pub job_id: u64,
    /// Lifecycle state: a [`JobState`] name, as in the module doc.
    pub state: String,
    /// The manifest the job was accepted with; resume validates the
    /// re-submitted spec against this before reattaching scratch.
    pub spec: JobSpec,
    /// Records sorted (meaningful for `done`).
    pub records: u64,
    /// Stable error code (`failed`/`canceled` states).
    pub error: Option<String>,
    /// Path of the job's stripefs scratch manifest, when the job spilled
    /// pass-1 runs that could survive a kill.
    pub scratch_manifest: Option<PathBuf>,
}

impl JournalRecord {
    /// A fresh `accepted` record for `key`/`job_id` under `spec`.
    pub fn accepted(key: String, job_id: u64, spec: JobSpec) -> JournalRecord {
        JournalRecord {
            key,
            job_id,
            state: JobState::Accepted.name().into(),
            spec,
            records: 0,
            error: None,
            scratch_manifest: None,
        }
    }

    /// Whether this record's state is terminal (the job can be answered
    /// from the journal alone — the at-most-once dedupe set).
    pub fn terminal(&self) -> bool {
        JobState::from_name(&self.state).is_some_and(JobState::terminal)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version".into(), Json::from(VERSION)),
            ("key".into(), Json::from(self.key.as_str())),
            ("job_id".into(), Json::from(self.job_id)),
            ("state".into(), Json::from(self.state.as_str())),
            ("spec".into(), self.spec.to_json()),
            ("records".into(), Json::from(self.records)),
        ];
        if let Some(code) = &self.error {
            fields.push(("error".into(), Json::from(code.as_str())));
        }
        if let Some(p) = &self.scratch_manifest {
            fields.push((
                "scratch_manifest".into(),
                Json::from(p.display().to_string().as_str()),
            ));
        }
        Json::Obj(fields)
    }

    fn from_json(doc: &Json) -> Result<JournalRecord, String> {
        let version = doc.field_u64("version").map_err(|e| e.to_string())?;
        if version != VERSION {
            return Err(format!("unsupported journal record version {version}"));
        }
        let spec = doc
            .get("spec")
            .ok_or("record missing `spec`")
            .and_then(|v| JobSpec::from_json(v).map_err(|_| "bad `spec`"))
            .map_err(|e| e.to_string())?;
        Ok(JournalRecord {
            key: doc.field_str("key").map_err(|e| e.to_string())?.to_string(),
            job_id: doc.field_u64("job_id").map_err(|e| e.to_string())?,
            state: doc.field_str("state").map_err(|e| e.to_string())?.to_string(),
            spec,
            records: doc.field_u64("records").unwrap_or(0),
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            scratch_manifest: doc
                .get("scratch_manifest")
                .and_then(Json::as_str)
                .map(PathBuf::from),
        })
    }
}

/// What a replay found on disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every parseable record, terminal and interrupted alike.
    pub records: Vec<JournalRecord>,
    /// Files that would not parse (corrupt or foreign); left untouched on
    /// disk, reported so the operator can inspect them.
    pub corrupt: Vec<String>,
}

/// The write-ahead journal: a directory of per-job record files.
pub struct Journal {
    dir: PathBuf,
    /// Per key, the sequence number of the last effect
    /// [`in_order`](Self::in_order) let through. One entry per key ever
    /// journaled by this process, like the server's job table.
    applied: Mutex<HashMap<String, Arc<Mutex<u64>>>>,
}

impl Journal {
    /// Open (creating if needed) the journal directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Journal {
            dir,
            applied: Mutex::default(),
        })
    }

    /// Run `effect` — the writes and removals one job transition calls for
    /// on `key` — unless an effect with a later `seq` already ran for that
    /// key: then it is stale, and dropped. Sequence numbers are handed out
    /// (from 1) under the lock that decided the transition; the effects run
    /// outside it, one at a time per key, so what is on disk for a key is
    /// always what its latest transition asked for.
    pub fn in_order(
        &self,
        key: &str,
        seq: u64,
        effect: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        const POISONED: &str = "a journal effect panicked";
        let mut applied = self.applied.lock().expect(POISONED);
        let slot = Arc::clone(applied.entry(key.to_string()).or_default());
        drop(applied);
        let mut last = slot.lock().expect(POISONED);
        if seq <= *last {
            return Ok(());
        }
        *last = seq;
        effect()
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// FNV-1a over the full key: disambiguates keys whose sanitized forms
    /// collide, and bounds the file-name length contribution of the key.
    fn fnv64(key: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    fn file_stem(key: &str) -> String {
        let safe: String = key
            .chars()
            .take(48)
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect();
        format!("job-{safe}-{:016x}", Self::fnv64(key))
    }

    /// Path of `key`'s record file.
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", Self::file_stem(key)))
    }

    /// Path where `key`'s job should put its stripefs scratch manifest —
    /// next to the journal record, so journal dir + scratch volume are the
    /// whole durable state.
    pub fn scratch_manifest_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.scratch.json", Self::file_stem(key)))
    }

    /// Forget `key` entirely — used when a job settles *without* an
    /// execution outcome (load-shed, drain, client gone before running):
    /// the key stays reusable and a replay must not see the job at all.
    /// Removing a record that was never written is not an error.
    pub fn remove(&self, key: &str) -> io::Result<()> {
        for path in [self.record_path(key), self.scratch_manifest_path(key)] {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Persist `rec`, atomically replacing any previous state for its key.
    pub fn record(&self, rec: &JournalRecord) -> io::Result<()> {
        let path = self.record_path(&rec.key);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, rec.to_json().dump_pretty())?;
        std::fs::rename(&tmp, &path)
    }

    /// Read every record back. Corrupt files are reported, not fatal: one
    /// torn foreign file must not brick the daemon's restart. `.tmp`
    /// leftovers from a kill mid-rename are ignored (their final rename
    /// never happened, so the previous state of that key is authoritative).
    pub fn replay(&self) -> io::Result<Replay> {
        let mut out = Replay::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("job-") || !name.ends_with(".json") {
                continue;
            }
            if name.ends_with(".scratch.json") {
                continue;
            }
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
                .and_then(|doc| JournalRecord::from_json(&doc));
            match parsed {
                Ok(rec) => out.records.push(rec),
                Err(e) => out.corrupt.push(format!("{name}: {e}")),
            }
        }
        // Deterministic replay order regardless of directory iteration.
        out.records.sort_by_key(|r| r.job_id);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sortd-journal-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn spec() -> JobSpec {
        JobSpec {
            name: "j".into(),
            input_bytes: 1_000,
            mem_budget: 1 << 20,
            scratch_budget: 2_000,
            deadline_ms: 750,
            ..JobSpec::default()
        }
    }

    #[test]
    fn record_roundtrips_through_every_transition() {
        let j = Journal::open(tmp_dir("roundtrip")).unwrap();
        let mut rec = JournalRecord::accepted("k-1".into(), 7, spec());
        j.record(&rec).unwrap();
        rec.state = "running".into();
        rec.scratch_manifest = Some(j.scratch_manifest_path("k-1"));
        j.record(&rec).unwrap();
        rec.state = "done".into();
        rec.records = 10;
        j.record(&rec).unwrap();

        let replay = j.replay().unwrap();
        assert!(replay.corrupt.is_empty());
        assert_eq!(replay.records, vec![rec.clone()]);
        assert!(replay.records[0].terminal());
        // The failure shape keeps its code too.
        rec.state = "failed".into();
        rec.error = Some("deadline_exceeded".into());
        j.record(&rec).unwrap();
        let replay = j.replay().unwrap();
        assert_eq!(replay.records[0].error.as_deref(), Some("deadline_exceeded"));
    }

    #[test]
    fn a_stale_effect_is_dropped_per_key() {
        let j = Journal::open(tmp_dir("order")).unwrap();
        let mut rec = JournalRecord::accepted("k".into(), 1, spec());
        let accepted = rec.clone();
        rec.state = "canceled".into();
        // The cancel (seq 2) lands before the accept (seq 1) it overtook.
        j.in_order("k", 2, || j.record(&rec)).unwrap();
        j.in_order("k", 1, || j.record(&accepted)).unwrap();
        assert_eq!(j.replay().unwrap().records, vec![rec]);
        // Another key has its own order.
        j.in_order("other", 1, || j.record(&JournalRecord::accepted("other".into(), 2, spec())))
            .unwrap();
        assert_eq!(j.replay().unwrap().records.len(), 2);
    }

    #[test]
    fn records_written_with_a_kernel_field_replay_unchanged() {
        // Journals from before run formation became one path carry
        // `"kernel"` in every spec; a restart over them must see the jobs
        // it would see without the field, whatever the name.
        let j = Journal::open(tmp_dir("kernel-field")).unwrap();
        let rec = JournalRecord::accepted("k-old".into(), 3, spec());
        for name in ["scalar", "warp-drive"] {
            j.record(&rec).unwrap();
            let path = j.record_path("k-old");
            let new = std::fs::read_to_string(&path).unwrap();
            let old = new.replacen("\"name\"", &format!("\"kernel\": \"{name}\", \"name\""), 1);
            assert_ne!(old, new, "the spec's first key moved; patch another");
            std::fs::write(&path, old).unwrap();
            let replay = j.replay().unwrap();
            assert!(replay.corrupt.is_empty(), "{:?}", replay.corrupt);
            assert_eq!(replay.records, vec![rec.clone()], "{name}");
        }
    }

    #[test]
    fn hostile_keys_stay_inside_the_journal_dir_and_stay_distinct() {
        let j = Journal::open(tmp_dir("hostile")).unwrap();
        // Path-traversal characters sanitize away; the hash keeps keys
        // that sanitize identically from sharing a file.
        let a = "../../etc/passwd";
        let b = "..%..%etc%passwd";
        for (id, key) in [(1u64, a), (2, b)] {
            j.record(&JournalRecord::accepted(key.into(), id, spec())).unwrap();
        }
        for key in [a, b] {
            let p = j.record_path(key);
            assert!(p.starts_with(j.dir()), "{p:?} escaped the journal dir");
            assert!(p.exists());
        }
        assert_ne!(j.record_path(a), j.record_path(b));
        assert_eq!(j.replay().unwrap().records.len(), 2);
    }

    #[test]
    fn corrupt_records_are_reported_not_fatal() {
        let j = Journal::open(tmp_dir("corrupt")).unwrap();
        j.record(&JournalRecord::accepted("ok".into(), 1, spec())).unwrap();
        std::fs::write(j.dir().join("job-torn-0000.json"), "{ not json").unwrap();
        // A stale .tmp from a kill mid-rename is ignored entirely.
        std::fs::write(j.dir().join("job-x-1.json.tmp"), "garbage").unwrap();
        let replay = j.replay().unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.corrupt.len(), 1);
        assert!(replay.corrupt[0].contains("job-torn"), "{:?}", replay.corrupt);
    }
}
