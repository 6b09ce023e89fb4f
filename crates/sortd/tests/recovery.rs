//! Restart recovery over the wire: a daemon pointed at the journal and
//! scratch directory of a killed predecessor must
//!
//! * answer re-submitted keys of *settled* jobs from the record (at most
//!   once — no re-run, `duplicate: true` on the wire),
//! * re-run re-submitted keys of *interrupted* jobs with their surviving
//!   pass-1 runs resumed, so only the lost tail re-forms,
//! * sweep interrupted scratch whose client never returns, after the
//!   configured grace,
//! * enforce per-job deadlines with the typed, non-retryable
//!   `deadline_exceeded` error.
//!
//! The "kill" is staged, not delivered: the predecessor's durable state —
//! journal records, the scratch run manifest, sealed run bytes on the
//! striped volume's disk images — is built exactly as a SIGKILL would
//! leave it, then a fresh daemon starts over the same files. The CI chaos
//! job covers the real-signal version of the same contract.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alphasort_core::driver::{ScratchStore, StripeScratch};
use alphasort_core::io::RecordSink as _;
use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk, Storage};
use alphasort_sortd::{
    AdmissionConfig, Client, ClientError, JobSpec, Journal, JournalRecord, PoolConfig,
    ScratchBacking, Sortd, SortdConfig,
};
use alphasort_stripefs::Volume;

const CHUNK: u64 = 64 << 10;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sortd-recovery-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The striped scratch volume over disk-image files, reopened the way a
/// restarted `sortd serve --scratch-dir` reopens them.
fn file_volume(dir: &Path) -> Arc<Volume> {
    let disks = (0..2)
        .map(|i| {
            let img = dir.join(format!("disk{i}.img"));
            let storage: Arc<dyn Storage> = Arc::new(if img.exists() {
                FileStorage::open(&img).unwrap()
            } else {
                FileStorage::create(&img).unwrap()
            });
            SimDisk::new(format!("s{i}"), catalog::uncapped(), storage, Pacing::Modeled, None)
        })
        .collect();
    Arc::new(Volume::new(Arc::new(IoEngine::new(disks))))
}

fn oracle(mut data: Vec<u8>) -> Vec<u8> {
    records_of_mut(&mut data).sort_by_key(|r| r.key);
    data
}

fn spec(name: &str, key: &str, input: u64, mem: u64, scratch: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        input_bytes: input,
        mem_budget: mem,
        scratch_budget: scratch,
        idem_key: Some(key.into()),
        ..JobSpec::default()
    }
}

fn start(journal: &Path, scratch: &Path, grace: Duration) -> Sortd {
    Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool: PoolConfig {
            mem_total: 64 << 20,
            scratch_total: 256 << 20,
        },
        admission: AdmissionConfig::default(),
        backing: ScratchBacking::SharedVolume(file_volume(scratch), CHUNK),
        journal: Some(journal.to_path_buf()),
        recovered_grace: grace,
        ..SortdConfig::default()
    })
    .expect("daemon starts")
}

fn counter(daemon: &Sortd, name: &str) -> u64 {
    daemon.stats().get("counters").unwrap().field_u64(name).unwrap()
}

/// Poll a counter until it reaches `want` (5 s cap) — for watchdog-driven
/// transitions that have no client to block on.
fn wait_counter(daemon: &Sortd, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter(daemon, name) < want {
        assert!(
            Instant::now() < deadline,
            "{name} never reached {want}; stats: {}",
            daemon.stats().dump()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn restart_dedupes_settled_keys_and_resumes_interrupted_scratch() {
    let journal_dir = tmp_dir("restart-journal");
    let scratch_dir = tmp_dir("restart-scratch");

    // ---- Life 1: a settled small job, then a staged kill mid-elephant.
    let (little, _) = generate(GenConfig::datamation(500, 21));
    let little_records;
    {
        let daemon = start(&journal_dir, &scratch_dir, Duration::from_secs(60));
        let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));
        let res = client
            .submit(&spec("little", "key-little", little.len() as u64, 4 << 20, 0), &little)
            .expect("small job completes");
        assert_eq!(res.output, oracle(little.clone()));
        little_records = res.records;
        daemon.drain();
    }

    // The elephant: journaled `running` with one sealed pass-1 run on the
    // volume — the exact durable residue of a SIGKILL mid two-pass sort.
    let (elephant, _) = generate(GenConfig::datamation(4_000, 22));
    let e_spec = spec(
        "elephant",
        "key-elephant",
        elephant.len() as u64,
        128 << 10,
        elephant.len() as u64,
    );
    // Mirror of the executor's run-length derivation (mem/4 per record,
    // clamped); resume validates this geometry before reusing runs.
    let run_records = (e_spec.mem_budget / 4 / RECORD_LEN as u64).clamp(256, 100_000);
    let journal = Journal::open(&journal_dir).unwrap();
    let manifest = journal.scratch_manifest_path("key-elephant");
    {
        let volume = file_volume(&scratch_dir);
        let mut scratch = StripeScratch::new(volume, CHUNK).named("job77-run");
        scratch
            .attach_manifest(&manifest, e_spec.input_bytes, run_records)
            .unwrap();
        let run_bytes = (run_records as usize) * RECORD_LEN;
        let mut first = elephant[..run_bytes].to_vec();
        records_of_mut(&mut first).sort_by_key(|r| r.key);
        let mut w = scratch.create_run(run_bytes as u64).unwrap();
        w.push(&first).unwrap();
        scratch.seal_run(w, run_records, Vec::new()).unwrap();
        // Dropped without dispose: the kill.
    }
    let mut rec = JournalRecord::accepted("key-elephant".into(), 77, e_spec.clone());
    rec.state = "running".into();
    rec.scratch_manifest = Some(manifest.clone());
    journal.record(&rec).unwrap();
    // Life 1 may have been a daemon from before run formation became one
    // path: its records carry `"kernel"` in the spec.
    let path = journal.record_path("key-elephant");
    let new = std::fs::read_to_string(&path).unwrap();
    let old = new.replacen("\"name\"", "\"kernel\": \"scalar\", \"name\"", 1);
    assert_ne!(old, new);
    std::fs::write(&path, old).unwrap();

    // ---- Life 2: same journal, same disk images.
    let daemon = start(&journal_dir, &scratch_dir, Duration::from_secs(60));
    assert_eq!(counter(&daemon, "jobs_recovered"), 1, "the elephant replays as interrupted");
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));

    // The settled key answers from the journal: no re-run, no payload.
    let dup = client
        .submit(&spec("little", "key-little", little.len() as u64, 4 << 20, 0), &little)
        .expect("duplicate answered");
    assert!(dup.duplicate, "settled key must dedupe across restart");
    assert_eq!(dup.plan, "cached");
    assert_eq!(dup.records, little_records);
    assert!(dup.output.is_empty());

    // The interrupted key re-runs with the sealed run reattached.
    let res = client.submit(&e_spec, &elephant).expect("resumed elephant completes");
    assert!(!res.duplicate);
    assert_eq!(res.output, oracle(elephant.clone()), "resumed output diverged");
    assert_eq!(counter(&daemon, "runs_recovered"), 1, "sealed run must be reused");
    assert!(counter(&daemon, "runs_reformed") >= 1, "lost ranges must re-form");
    assert!(!manifest.exists(), "manifest removed after completion");

    // Now settled: a third submit of the same key dedupes without running.
    let dup = client.submit(&e_spec, &elephant).expect("dedupe after resume");
    assert!(dup.duplicate);
    assert_eq!(counter(&daemon, "duplicates"), 2);

    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");
}

#[test]
fn unclaimed_interrupted_scratch_is_swept_after_the_grace_period() {
    let journal_dir = tmp_dir("sweep-journal");
    let scratch_dir = tmp_dir("sweep-scratch");

    // Durable residue of a killed job whose client will never return: a
    // `running` record plus an (empty) scratch manifest.
    let orphan = spec("orphan", "key-orphan", 400 * RECORD_LEN as u64, 1 << 20, 400 * RECORD_LEN as u64);
    let journal = Journal::open(&journal_dir).unwrap();
    let manifest = journal.scratch_manifest_path("key-orphan");
    {
        let volume = file_volume(&scratch_dir);
        let mut scratch = StripeScratch::new(volume, CHUNK).named("job5-run");
        scratch.attach_manifest(&manifest, orphan.input_bytes, 256).unwrap();
        // Dropped without dispose.
    }
    let mut rec = JournalRecord::accepted("key-orphan".into(), 5, orphan.clone());
    rec.state = "running".into();
    rec.scratch_manifest = Some(manifest.clone());
    journal.record(&rec).unwrap();

    let daemon = start(&journal_dir, &scratch_dir, Duration::from_millis(1));
    wait_counter(&daemon, "scratch_disposed", 1);
    assert!(!manifest.exists(), "swept manifest must be deleted");
    assert!(!journal.record_path("key-orphan").exists(), "swept record must be deleted");

    // The key is free again: re-submitting it runs a brand-new job.
    let (data, _) = generate(GenConfig::datamation(400, 23));
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));
    let res = client.submit(&spec("orphan", "key-orphan", data.len() as u64, 1 << 20, data.len() as u64 + RECORD_LEN as u64), &data).expect("swept key is reusable");
    assert!(!res.duplicate, "a swept key must not dedupe");
    assert_eq!(res.output, oracle(data));

    daemon.drain();
    assert!(daemon.pool_idle());
}

#[test]
fn deadline_exceeded_is_typed_terminal_and_deduped() {
    let journal_dir = tmp_dir("deadline-journal");
    let scratch_dir = tmp_dir("deadline-scratch");
    let daemon = start(&journal_dir, &scratch_dir, Duration::from_secs(60));
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));

    // A sort big enough to outlive a 30 ms deadline by a wide margin.
    let (data, _) = generate(GenConfig::datamation(300_000, 24));
    let mut s = spec(
        "doomed",
        "key-doomed",
        data.len() as u64,
        2 << 20,
        data.len() as u64 + RECORD_LEN as u64,
    );
    s.deadline_ms = 30;
    match client.submit(&s, &data) {
        Err(ClientError::Remote { code, retryable, .. }) => {
            assert_eq!(code, "deadline_exceeded");
            assert!(!retryable, "a blown deadline must not invite a verbatim retry");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    assert_eq!(counter(&daemon, "deadline_kills"), 1);

    // The failure is a settled outcome: the key dedupes to the same code.
    match client.submit(&s, &data) {
        Err(ClientError::Remote { code, retryable, .. }) => {
            assert_eq!(code, "deadline_exceeded");
            assert!(!retryable);
        }
        other => panic!("expected deduped deadline_exceeded, got {other:?}"),
    }
    assert_eq!(counter(&daemon, "duplicates"), 1);

    daemon.drain();
    assert!(daemon.pool_idle(), "deadline kill leaked pool budget");
}
