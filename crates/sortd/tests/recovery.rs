//! Restart recovery over the wire: a daemon pointed at the journal and
//! scratch directory of a killed predecessor must
//!
//! * answer re-submitted keys of *settled* jobs from the record (at most
//!   once — no re-run, `duplicate: true` on the wire),
//! * re-run re-submitted keys of *interrupted* jobs with their surviving
//!   pass-1 runs resumed, so only the lost tail re-forms,
//! * sweep interrupted scratch whose client never returns, after the
//!   configured grace,
//! * put a resumed key back exactly as replay left it whenever its new job
//!   leaves unrun (upload abandoned, load-shed, drain, client gone), and
//!   dispose the claimed scratch when it is canceled instead,
//! * enforce per-job deadlines with the typed, non-retryable
//!   `deadline_exceeded` error.
//!
//! The "kill" is staged, not delivered: the predecessor's durable state —
//! journal records, the scratch run manifest, sealed run bytes on the
//! striped volume's disk images — is built exactly as a SIGKILL would
//! leave it, then a fresh daemon starts over the same files. The CI chaos
//! job covers the real-signal version of the same contract.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alphasort_core::driver::StripeScratch;
use alphasort_core::io::RecordSink as _;
use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk, Storage};
use alphasort_minijson::Json;
use alphasort_sortd::{
    proto, AdmissionConfig, Client, ClientError, JobSpec, Journal, JournalRecord, PoolConfig,
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
    start_on(file_volume(scratch), journal, grace, 64 << 20, AdmissionConfig::default())
}

fn start_on(
    volume: Arc<Volume>,
    journal: &Path,
    grace: Duration,
    mem_total: u64,
    admission: AdmissionConfig,
) -> Sortd {
    Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool: PoolConfig {
            mem_total,
            scratch_total: 256 << 20,
        },
        admission,
        backing: ScratchBacking::SharedVolume(volume, CHUNK),
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
    let (e_spec, elephant, manifest) =
        stage_killed_elephant(&journal_dir, &scratch_dir, "key-elephant", 1);
    let journal = Journal::open(&journal_dir).unwrap();
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

/// A restarted daemon's volume must know of every pending manifest's runs
/// before it admits anyone: a two-pass job that runs ahead of the
/// re-submitted key allocates scratch on the same disks, and must not be
/// handed the extents the sealed runs live in.
#[test]
fn a_job_ahead_of_the_resubmitted_key_cannot_overwrite_its_sealed_runs() {
    let journal_dir = tmp_dir("ahead-journal");
    let scratch_dir = tmp_dir("ahead-scratch");
    // Killed between the passes: every run sealed, none merged.
    let (e_spec, elephant, manifest) =
        stage_killed_elephant(&journal_dir, &scratch_dir, "key-elephant", usize::MAX);

    let daemon = start(&journal_dir, &scratch_dir, Duration::from_secs(60));
    assert_eq!(counter(&daemon, "jobs_recovered"), 1);
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));

    // Someone else's forced two-pass job gets there first, spilling runs
    // of the same size through the same allocator.
    let (intruder, _) = generate(GenConfig::datamation(4_000, 23));
    let len = intruder.len() as u64;
    let res = client
        .submit(&spec("intruder", "key-intruder", len, 128 << 10, len), &intruder)
        .expect("the job ahead completes");
    assert_eq!(res.plan, "TwoPass", "the job ahead must spill to the shared volume");
    assert_eq!(res.output, oracle(intruder));

    let res = client.submit(&e_spec, &elephant).expect("resumed elephant completes");
    assert_eq!(res.output, oracle(elephant), "resumed output diverged");
    assert!(counter(&daemon, "runs_recovered") >= 1, "the sealed runs must be reused");
    assert_eq!(counter(&daemon, "runs_reformed"), 0, "a sealed run was overwritten and re-formed");
    assert!(!manifest.exists(), "manifest removed after completion");

    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");
}

/// A manifest naming a disk the volume does not have — torn, edited, or
/// left by a wider volume — costs its own key the surviving runs, not the
/// daemon its start: replay refuses to reserve it, stats answers, and the
/// re-submitted key re-forms every run.
#[test]
fn a_manifest_off_the_volume_does_not_stop_the_daemon() {
    let journal_dir = tmp_dir("offvolume-journal");
    let scratch_dir = tmp_dir("offvolume-scratch");
    let (e_spec, elephant, manifest) =
        stage_killed_elephant(&journal_dir, &scratch_dir, "key-offvolume", 1);
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replace("\"disk\": 1", "\"disk\": 9")).unwrap();

    let daemon = start(&journal_dir, &scratch_dir, Duration::from_secs(60));
    assert_eq!(counter(&daemon, "jobs_recovered"), 1);
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));
    let res = client.submit(&e_spec, &elephant).expect("the key re-runs");
    assert_eq!(res.output, oracle(elephant), "re-run output diverged");
    let reused = counter(&daemon, "runs_recovered");
    assert_eq!(reused, 0, "a run off the volume was reused");
    assert!(!manifest.exists(), "manifest removed after completion");

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

/// How a resumed key's new job ends before it ever executes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ending {
    /// The client sends the manifest and hangs up mid-upload.
    PayloadNeverArrives,
    /// Same, on a daemon whose grace period is short: the sweep must still
    /// find the scratch.
    PayloadNeverArrivesThenGrace,
    /// Admission sheds it: the queue is at its bound.
    Backpressure,
    /// It is queued behind a blocker when the daemon drains.
    Drain,
    /// It is queued behind a blocker when its client hangs up.
    ClientGoneWhileQueued,
    /// It is queued behind a blocker when a client cancels it.
    Cancel,
}

/// The durable residue of a SIGKILL mid two-pass sort: a `running` record
/// (job 77) for `key` plus the first `sealed_runs` pass-1 runs (at most all
/// of them) manifested on the volume. Returns the job's spec, input and
/// manifest path.
fn stage_killed_elephant(
    journal_dir: &Path,
    scratch_dir: &Path,
    key: &str,
    sealed_runs: usize,
) -> (JobSpec, Vec<u8>, PathBuf) {
    let (elephant, _) = generate(GenConfig::datamation(4_000, 22));
    let len = elephant.len() as u64;
    let e_spec = spec("elephant", key, len, 128 << 10, len);
    // Mirror of the executor's run-length derivation (mem/4 per record,
    // clamped); resume validates this geometry before reusing runs.
    let run_records = (e_spec.mem_budget / 4 / RECORD_LEN as u64).clamp(256, 100_000);
    let journal = Journal::open(journal_dir).unwrap();
    let manifest = journal.scratch_manifest_path(key);
    let mut scratch = StripeScratch::new(file_volume(scratch_dir), CHUNK).named("job77-run");
    scratch.attach_manifest(&manifest, len, run_records).unwrap();
    for chunk in elephant.chunks(run_records as usize * RECORD_LEN).take(sealed_runs) {
        let mut run = chunk.to_vec();
        records_of_mut(&mut run).sort_by_key(|r| r.key);
        let mut w = scratch.create_run(run.len() as u64).unwrap();
        w.push(&run).unwrap();
        scratch.seal_run(w, (run.len() / RECORD_LEN) as u64, Vec::new()).unwrap();
    }
    drop(scratch); // without dispose: the kill
    let mut rec = JournalRecord::accepted(key.into(), 77, e_spec.clone());
    rec.state = "running".into();
    rec.scratch_manifest = Some(manifest.clone());
    journal.record(&rec).unwrap();
    (e_spec, elephant, manifest)
}

/// Open a submit conversation by hand: manifest, then the payload if
/// there is one to send. The caller reads the answers — or hangs up.
fn raw_submit(daemon: &Sortd, spec: &JobSpec, payload: Option<&[u8]>) -> TcpStream {
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    proto::send_ctrl(&mut s, &spec.to_json()).unwrap();
    if let Some(bytes) = payload {
        proto::send_payload(&mut s, bytes).unwrap();
    }
    s
}

fn read_doc(s: &mut TcpStream, want_type: &str) -> Json {
    let doc = proto::read_ctrl(s).expect("the daemon answers");
    assert_eq!(doc.field_str("type").unwrap(), want_type, "{}", doc.dump());
    doc
}

/// Defects 1 and 2. A re-submitted interrupted key claims its surviving
/// scratch at the gate; if the new job then leaves *unrun*, the key, its
/// `interrupted` record and its manifest must be exactly where replay left
/// them — resumable by the next submit (or a restarted daemon), sweepable
/// after the grace — and if it is *canceled* instead, the settled key must
/// not strand the runs it will never use.
#[test]
fn a_resumed_key_survives_every_unrun_exit_and_a_cancel_frees_its_scratch() {
    use Ending::*;
    // The blocker's input: a one-pass sort (it stays off the scratch
    // volume, whose free list the assertions below read as the elephant's
    // alone) long enough to outlast the few requests each case makes while
    // it holds the pool.
    let (big, _) = generate(GenConfig::datamation(600_000, 25));
    for ending in [PayloadNeverArrives, PayloadNeverArrivesThenGrace, Backpressure, Drain, ClientGoneWhileQueued, Cancel] {
        let case = format!("{ending:?}");
        let journal_dir = tmp_dir("unrun-journal");
        let scratch_dir = tmp_dir("unrun-scratch");
        let key = "key-elephant";
        let (e_spec, elephant, manifest) = stage_killed_elephant(&journal_dir, &scratch_dir, key, 1);
        let record = Journal::open(&journal_dir).unwrap().record_path(key);

        // A pool one blocker fills, so the resumed job has to queue.
        let grace = match ending {
            PayloadNeverArrivesThenGrace => Duration::from_millis(1_000),
            _ => Duration::from_secs(60),
        };
        let admission = AdmissionConfig {
            queue_bound: if ending == Backpressure { 1 } else { 256 },
            ..AdmissionConfig::default()
        };
        let volume = file_volume(&scratch_dir);
        let daemon = start_on(Arc::clone(&volume), &journal_dir, grace, 1 << 30, admission);
        assert_eq!(counter(&daemon, "jobs_recovered"), 1, "{case}");
        let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));

        // The blocker holds all of the pool's memory until the test hangs
        // up on it (the watchdog then cancels it).
        let mut held = Vec::new();
        if !matches!(ending, PayloadNeverArrives | PayloadNeverArrivesThenGrace) {
            let blocker = spec("blocker", "key-blocker", big.len() as u64, 1 << 30, 0);
            let mut s = raw_submit(&daemon, &blocker, Some(&big));
            assert_eq!(read_doc(&mut s, "ack").field_str("state").unwrap(), "running", "{case}");
            held.push(s);
        }
        if ending == Backpressure {
            // Fill the one queue slot.
            let (small, _) = generate(GenConfig::datamation(100, 26));
            let filler = spec("filler", "key-filler", small.len() as u64, 128 << 10, 0);
            let mut s = raw_submit(&daemon, &filler, Some(&small));
            assert_eq!(read_doc(&mut s, "ack").field_str("state").unwrap(), "queued", "{case}");
            held.push(s);
        }

        // The resume, and how it ends.
        let payload = (!matches!(ending, PayloadNeverArrives | PayloadNeverArrivesThenGrace))
            .then_some(&elephant[..]);
        let mut resume = raw_submit(&daemon, &e_spec, payload);
        let failed_before = counter(&daemon, "failed");
        match ending {
            // Nothing tells a client when the daemon noticed the hang-up;
            // the next submit below waits out `in flight`.
            PayloadNeverArrives | PayloadNeverArrivesThenGrace => drop(resume),
            Backpressure => {
                let err = read_doc(&mut resume, "error");
                assert_eq!(err.field_str("code").unwrap(), "backpressure", "{case}");
                assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(true), "{case}");
            }
            Drain | ClientGoneWhileQueued | Cancel => {
                let ack = read_doc(&mut resume, "ack");
                assert_eq!(ack.field_str("state").unwrap(), "queued", "{case}");
                let id = ack.field_u64("job_id").unwrap();
                if ending == ClientGoneWhileQueued {
                    drop(resume);
                    wait_counter(&daemon, "failed", failed_before + 1);
                } else if ending == Cancel {
                    assert!(client.cancel(id).unwrap(), "{case}: the job is queued, cancel must land");
                    let err = read_doc(&mut resume, "error");
                    assert_eq!(err.field_str("code").unwrap(), "canceled", "{case}");
                } else {
                    // Drain fails the queue first, then waits for the
                    // blocker: answer the queued client, then release it.
                    let drainer = std::thread::spawn(move || client.drain().expect("drain request"));
                    let err = read_doc(&mut resume, "error");
                    assert_eq!(err.field_str("code").unwrap(), "draining", "{case}");
                    assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(true), "{case}");
                    held.clear();
                    let drained = drainer.join().expect("drain thread");
                    assert_eq!(drained.field_u64("failed_queued").unwrap(), 1, "{case}");
                }
            }
        }

        if ending == Cancel {
            // Settled: the key dedupes to `canceled`, and the runs it
            // claimed but will never merge are back on the free list.
            assert!(!manifest.exists(), "{case}: a settled key must not keep its manifest");
            assert!(volume.free_bytes() > 0, "{case}: the sealed run's extents were orphaned");
            match Client::new(daemon.addr()).submit(&e_spec, &elephant) {
                Err(ClientError::Remote { code, retryable, .. }) => {
                    assert_eq!((code.as_str(), retryable), ("canceled", false), "{case}");
                }
                other => panic!("{case}: expected the canceled duplicate, got {other:?}"),
            }
            assert_eq!(counter(&daemon, "duplicates"), 1, "{case}");
            assert_eq!(counter(&daemon, "runs_recovered"), 0, "{case}");
        } else {
            // Unrun: exactly as replay left it.
            let on_disk = std::fs::read_to_string(&record).expect("the interrupted record survives");
            assert!(on_disk.contains("\"interrupted\""), "{case}: {on_disk}");
            assert!(on_disk.contains("\"job_id\": 77"), "{case}: {on_disk}");
            assert!(manifest.exists(), "{case}: the manifest of a resumable job was deleted");
            assert_eq!(volume.free_bytes(), 0, "{case}: resumable runs were freed");
        }
        held.clear();

        match ending {
            Cancel => {}
            PayloadNeverArrivesThenGrace => {
                // Nobody comes back: the grace sweep still finds it.
                wait_counter(&daemon, "scratch_disposed", 1);
                assert!(!manifest.exists() && !record.exists(), "{case}");
                assert!(volume.free_bytes() > 0, "{case}");
            }
            _ => {
                // The next submit of the key — against a restarted daemon
                // when this one drained — resumes the sealed run.
                let daemon = if ending == Drain {
                    drop((daemon, volume));
                    start(&journal_dir, &scratch_dir, grace)
                } else {
                    daemon
                };
                // The blocker (and the filler) the test hung up on are
                // canceled by the watchdog, not instantly.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !daemon.pool_idle() || daemon.stats().get("queue").unwrap().field_u64("depth").unwrap() > 0 {
                    assert!(Instant::now() < deadline, "{case}: the blocker never let go");
                    std::thread::sleep(Duration::from_millis(5));
                }
                let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));
                let res = loop {
                    match client.submit(&e_spec, &elephant) {
                        Err(ClientError::Remote { message, .. })
                            if message.contains("in flight") && Instant::now() < deadline =>
                        {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        res => break res.expect("the resumed elephant completes"),
                    }
                };
                assert!(!res.duplicate, "{case}");
                assert_eq!(res.output, oracle(elephant.clone()), "{case}: resumed output diverged");
                assert_eq!(counter(&daemon, "runs_recovered"), 1, "{case}: the sealed run must be reused");
                assert!(!manifest.exists(), "{case}: manifest removed after completion");
                daemon.drain();
                assert!(daemon.pool_idle(), "{case}: pool accounting did not return to zero");
                continue;
            }
        }
        daemon.drain();
        assert!(daemon.pool_idle(), "{case}: pool accounting did not return to zero");
    }
}
