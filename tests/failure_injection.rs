//! Failure injection across the stack — the storage chaos matrix.
//!
//! Transient disk faults must be retried to success (and show up in the
//! `io.retry` counter, not in the output); recurring faults must exhaust the
//! retry budget promptly and surface an error naming the disk; corrupt
//! scratch strides must be caught by checksums naming disk, run and offset;
//! and a crash partway through a two-pass sort must be recoverable with
//! `StripeScratch::resume`, re-forming only the runs that were lost.
//!
//! Tests that assert on observability counters serialize on a process-wide
//! lock (the metrics store is global) and only make monotone `>= n` claims,
//! so unrelated tests bumping the same counters cannot break them.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use alphasort_suite::dmgen::{generate, validate_reader, GenConfig, Generator, RECORD_LEN};
use alphasort_suite::iosim::{
    catalog, Dir, Fault, FaultPlan, FaultyStorage, IoEngine, MemStorage, Pacing, SimDisk, Storage,
    When,
};
use alphasort_suite::obs;
use alphasort_suite::sort::driver::{one_pass, two_pass, StripeScratch};
use alphasort_suite::sort::io::{MemSink, MemSource, StripeSink, StripeSource};
use alphasort_suite::sort::SortConfig;
use alphasort_suite::stripefs::{RetryPolicy, StripedReader, StripedWriter, Volume};

/// Serializes tests that enable observability and read global counters.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn counter(snap: &obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Build a 4-disk volume where disk 0's storage carries `plan`.
fn faulty_volume(plan: FaultPlan<Fault>) -> Volume {
    let disks = (0..4)
        .map(|i| {
            let base: Arc<dyn Storage> = Arc::new(MemStorage::new());
            let storage: Arc<dyn Storage> = if i == 0 {
                Arc::new(FaultyStorage::new(base, plan.clone()))
            } else {
                base
            };
            SimDisk::new(
                format!("d{i}"),
                catalog::uncapped(),
                storage,
                Pacing::Modeled,
                None,
            )
        })
        .collect();
    Volume::new(Arc::new(IoEngine::new(disks)))
}

/// A 2-disk scratch volume whose disk 0 carries `plan`, plus the underlying
/// storages so a test can simulate a restart: rebuild a clean volume over
/// the same bytes with [`clean_scratch_volume`].
fn faulty_scratch_volume(plan: FaultPlan<Fault>) -> (Vec<Arc<MemStorage>>, Arc<Volume>) {
    let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
    let disks = storages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let base: Arc<dyn Storage> = s.clone();
            let storage: Arc<dyn Storage> = if i == 0 {
                Arc::new(FaultyStorage::new(base, plan.clone()))
            } else {
                base
            };
            SimDisk::new(
                format!("s{i}"),
                catalog::uncapped(),
                storage,
                Pacing::Modeled,
                None,
            )
        })
        .collect();
    let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(disks))));
    (storages, volume)
}

/// Rebuild a fault-free volume over storages that survived a "crash".
fn clean_scratch_volume(storages: &[Arc<MemStorage>]) -> Arc<Volume> {
    let disks = storages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SimDisk::new(
                format!("s{i}"),
                catalog::uncapped(),
                s.clone(),
                Pacing::Modeled,
                None,
            )
        })
        .collect();
    Arc::new(Volume::new(Arc::new(IoEngine::new(disks))))
}

fn manifest_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "alphasort-chaos-{tag}-{}.manifest",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn load_input(
    volume: &Volume,
    records: u64,
) -> (
    Arc<alphasort_suite::stripefs::StripedFile>,
    alphasort_suite::dmgen::Checksum,
) {
    let bytes = records * RECORD_LEN as u64;
    let input = Arc::new(volume.create_across_all("input", 4 * 1024, bytes));
    let mut gen = Generator::new(GenConfig::datamation(records, 3));
    let mut w = StripedWriter::new(Arc::clone(&input));
    let mut buf = vec![0u8; 500 * RECORD_LEN];
    loop {
        let n = gen.fill(&mut buf);
        if n == 0 {
            break;
        }
        w.push(&buf[..n]).unwrap();
    }
    w.finish().unwrap();
    (input, gen.checksum())
}

fn cfg() -> SortConfig {
    SortConfig {
        run_records: 1_000,
        gather_batch: 250,
        ..Default::default()
    }
}

fn validate_mem(output: Vec<u8>, cs: alphasort_suite::dmgen::Checksum) {
    let mut cursor = std::io::Cursor::new(output);
    let report = validate_reader(&mut cursor, cs).unwrap();
    report.expect("output failed validation");
}

#[test]
fn transient_read_fault_is_retried_to_success() {
    let _g = obs_lock();
    obs::enable(obs::DEFAULT_CAPACITY);
    let before = obs::metrics_snapshot();
    // Input loading does some writes; the fault is a *read* midway through
    // the sort's input scan. TimedOut is transient: the volume's default
    // retry policy must absorb it and produce a fully valid output.
    let volume =
        faulty_volume(FaultPlan::new().on(Dir::In, When::Nth(5), Fault::Fail(ErrorKind::TimedOut)));
    let (input, cs) = load_input(&volume, 10_000);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg()).expect("transient read fault was not retried");
    let delta = obs::metrics_snapshot().diff(&before);
    obs::disable();
    assert!(counter(&delta, "io.retry") >= 1, "no retry recorded");
    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, 10_000);
}

#[test]
fn transient_write_fault_is_retried_to_success() {
    let _g = obs_lock();
    obs::enable(obs::DEFAULT_CAPACITY);
    let before = obs::metrics_snapshot();
    let records = 10_000u64;
    // Let the input-load writes to disk 0 succeed; fail one later, during
    // the sort's output phase. WriteZero (a short write) is transient.
    let load_writes_to_disk0 = (records as usize * RECORD_LEN).div_ceil(4 * 4096);
    let volume = faulty_volume(FaultPlan::new().on(
        Dir::Out,
        When::Nth(load_writes_to_disk0 as u64 + 10),
        Fault::Fail(ErrorKind::WriteZero),
    ));
    let (input, cs) = load_input(&volume, records);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg()).expect("transient write fault was not retried");
    let delta = obs::metrics_snapshot().diff(&before);
    obs::disable();
    assert!(counter(&delta, "io.retry") >= 1, "no retry recorded");
    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, records);
}

#[test]
fn recurring_fault_exhausts_retry_budget_with_attributed_error() {
    let _g = obs_lock();
    obs::enable(obs::DEFAULT_CAPACITY);
    let before = obs::metrics_snapshot();
    // Every read from disk 0 fails: the retry budget must be spent promptly
    // and the surfaced error must say which disk and where.
    let volume = faulty_volume(FaultPlan::new().on(
        Dir::In,
        When::Every(1),
        Fault::Fail(ErrorKind::TimedOut),
    ));
    let (input, _) = load_input(&volume, 5_000);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(output);
    let err = match one_pass(&mut source, &mut sink, &cfg()) {
        Ok(_) => panic!("sort succeeded with a permanently failing disk"),
        Err(e) => e,
    };
    let delta = obs::metrics_snapshot().diff(&before);
    obs::disable();
    assert_eq!(err.kind(), ErrorKind::TimedOut);
    let msg = err.to_string();
    assert!(msg.contains("read on disk 0 (d0) failed"), "{msg}");
    assert!(msg.contains("attempt(s)"), "{msg}");
    assert!(counter(&delta, "io.giveup") >= 1, "no giveup recorded");
}

#[test]
fn recurring_fault_trips_the_disk_failed_latch() {
    let _g = obs_lock();
    obs::enable(obs::DEFAULT_CAPACITY);
    let before = obs::metrics_snapshot();
    let mut volume = faulty_volume(FaultPlan::new().on(
        Dir::Out,
        When::Every(1),
        Fault::Fail(ErrorKind::TimedOut),
    ));
    // Tight budget so one striped operation's worth of strikes trips it.
    volume.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        backoff: std::time::Duration::ZERO,
        disk_fail_threshold: 2,
    });
    let file = Arc::new(volume.create_across_all("w", 4 * 1024, 1 << 20));
    let mut w = StripedWriter::new(file);
    let data = vec![7u8; 64 * 1024];
    let res = w.push(&data).and_then(|()| w.finish().map(|_| ()));
    let delta = obs::metrics_snapshot().diff(&before);
    obs::disable();
    assert!(res.is_err(), "writes to a dead disk succeeded");
    assert!(
        counter(&delta, "stripe.disk_failed") >= 1,
        "disk never latched failed"
    );
}

#[test]
fn corrupt_scratch_stride_fails_merge_naming_disk_run_offset() {
    // Pass 1 writes checksummed runs; a silently corrupted stride on the
    // scratch volume must be caught when the merge reads it back, and the
    // error must say which disk, which run, and where.
    let (_storages, volume) = faulty_scratch_volume(FaultPlan::new().on(
        Dir::Out,
        When::Nth(5),
        Fault::Corrupt { byte: 100 },
    ));
    let path = manifest_path("corrupt");
    let (input, _cs) = generate(GenConfig::datamation(6_000, 11));
    let mut scratch = StripeScratch::with_manifest(
        Arc::clone(&volume),
        4 * 1024,
        &path,
        input.len() as u64,
        1_000,
    )
    .unwrap();
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let err = match two_pass(&mut source, &mut sink, &mut scratch, &cfg()) {
        Ok(_) => panic!("corrupt scratch stride went unnoticed"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("checksum mismatch on disk 0 (s0)"), "{msg}");
    assert!(msg.contains("scratch-run-"), "{msg}");
    assert!(msg.contains("phys offset"), "{msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_during_run_formation_resumes_reforming_only_missing_runs() {
    let path = manifest_path("crash-pass1");
    let (input, cs) = generate(GenConfig::datamation(6_000, 23));

    // Phase A: scratch disk 0 dies (non-transient) after 20 writes — a few
    // runs seal, then the sort crashes mid-pass-1.
    let (storages, volume) = faulty_scratch_volume(FaultPlan::new().on(
        Dir::Out,
        When::After(20),
        Fault::Fail(ErrorKind::Other),
    ));
    let mut scratch = StripeScratch::with_manifest(
        Arc::clone(&volume),
        4 * 1024,
        &path,
        input.len() as u64,
        1_000,
    )
    .unwrap();
    let mut source = MemSource::new(input.clone(), 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    two_pass(&mut source, &mut sink, &mut scratch, &cfg())
        .expect_err("sort survived a dead scratch disk");
    drop(scratch);

    // Phase B: "restart" — same media, clean disks, resume from the
    // manifest. Only the lost runs may be re-formed.
    let volume = clean_scratch_volume(&storages);
    let (mut scratch, report) = StripeScratch::resume(volume, &path).unwrap();
    assert!(
        !report.recovered.is_empty(),
        "no runs survived the crash (fault fired too early for this test)"
    );
    assert!(
        report.recovered.len() < 6,
        "all runs survived the crash (fault never fired)"
    );
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg()).unwrap();
    assert_eq!(outcome.stats.runs, 6);
    assert!(outcome.stats.runs_recovered >= 1, "nothing recovered");
    assert!(outcome.stats.runs_reformed >= 1, "nothing re-formed");
    assert_eq!(
        outcome.stats.runs_recovered + outcome.stats.runs_reformed,
        outcome.stats.runs as u64
    );
    validate_mem(sink.into_inner(), cs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_during_merge_resumes_recovering_every_run() {
    let path = manifest_path("crash-merge");
    let (input, cs) = generate(GenConfig::datamation(6_000, 31));

    // Phase A: every scratch *read* fails — pass 1 completes and seals all
    // runs, then the merge crashes on its first read-back.
    let (storages, volume) = faulty_scratch_volume(FaultPlan::new().on(
        Dir::In,
        When::After(0),
        Fault::Fail(ErrorKind::Other),
    ));
    let mut scratch = StripeScratch::with_manifest(
        Arc::clone(&volume),
        4 * 1024,
        &path,
        input.len() as u64,
        1_000,
    )
    .unwrap();
    let mut source = MemSource::new(input.clone(), 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    two_pass(&mut source, &mut sink, &mut scratch, &cfg())
        .expect_err("merge read a dead scratch disk");
    drop(scratch);

    // Phase B: all pass-1 work survives; resume re-forms nothing and only
    // redoes the merge.
    let volume = clean_scratch_volume(&storages);
    let (mut scratch, report) = StripeScratch::resume(volume, &path).unwrap();
    assert_eq!(report.recovered.len(), 6);
    assert!(report.corrupt.is_empty(), "{:?}", report.corrupt);
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg()).unwrap();
    assert_eq!(outcome.stats.runs_recovered, 6);
    assert_eq!(outcome.stats.runs_reformed, 0);
    validate_mem(sink.into_inner(), cs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scratch_volume_full_is_an_error_not_a_panic() {
    // A scratch volume too small for even one run: the two-pass sort must
    // fail with an attributed "scratch volume full" error, not panic.
    let volume = Arc::new(Volume::in_memory(2).with_disk_limit(16 * 1024));
    let (input, _cs) = generate(GenConfig::datamation(6_000, 41));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 4 * 1024);
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let err = match two_pass(&mut source, &mut sink, &mut scratch, &cfg()) {
        Ok(_) => panic!("sort fit in a 32 KB scratch volume"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), ErrorKind::StorageFull);
    let msg = err.to_string();
    assert!(msg.contains("scratch volume full (needed"), "{msg}");
    assert!(msg.contains("had"), "{msg}");
}

#[test]
fn silent_output_corruption_is_caught_by_validator() {
    let records = 10_000u64;
    let load_writes_to_disk0 = (records as usize * RECORD_LEN).div_ceil(4 * 4096) as u64;
    // Corrupt a byte of some output-phase write on disk 0.
    let volume = faulty_volume(FaultPlan::new().on(
        Dir::Out,
        When::Nth(load_writes_to_disk0 + 7),
        Fault::Corrupt { byte: 123 },
    ));
    let (input, cs) = load_input(&volume, records);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    // The sort itself cannot see the corruption: it must succeed…
    one_pass(&mut source, &mut sink, &cfg()).unwrap();
    // …and the validator must reject the output.
    let mut reader = StripedReader::new(output);
    let verdict = validate_reader(&mut reader, cs).unwrap();
    assert!(verdict.is_err(), "corrupted output passed validation");
}

#[test]
fn corrupt_read_of_input_produces_invalid_output() {
    let records = 5_000u64;
    let volume =
        faulty_volume(FaultPlan::new().on(Dir::In, When::Nth(3), Fault::Corrupt { byte: 50 }));
    let (input, cs) = load_input(&volume, records);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg()).unwrap();
    let mut reader = StripedReader::new(output);
    let verdict = validate_reader(&mut reader, cs).unwrap();
    assert!(verdict.is_err(), "input corruption went unnoticed");
}

#[test]
fn fault_free_control_case_passes() {
    // Sanity for the fault tests above: same setup, no faults, must pass.
    let volume = faulty_volume(FaultPlan::new());
    let (input, cs) = load_input(&volume, 10_000);
    let output = Arc::new(volume.create_across_all("output", 4 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg()).unwrap();
    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, 10_000);
}

#[test]
fn striped_writer_propagates_member_write_faults() {
    // A non-transient fault on a member disk must surface through the
    // buffered writer's pipeline (at push-backpressure or finish) without
    // being retried away or vanishing.
    let volume =
        faulty_volume(FaultPlan::new().on(Dir::Out, When::Nth(2), Fault::Fail(ErrorKind::Other)));
    let file = Arc::new(volume.create_across_all("w", 4 * 1024, 1 << 20));
    let mut w = StripedWriter::new(file);
    let data = vec![1u8; 256 * 1024];
    let res = w.push(&data).and_then(|()| w.finish().map(|_| ()));
    assert!(res.is_err(), "injected write fault was swallowed");
}

#[test]
fn validator_rejects_truncated_stream() {
    let (input, cs) = generate(GenConfig::datamation(100, 1));
    let mut sorted = input.clone();
    alphasort_suite::dmgen::records_of_mut(&mut sorted).sort_by_key(|a| a.key);
    sorted.truncate(50 * RECORD_LEN);
    let mut cursor = std::io::Cursor::new(&sorted);
    assert!(validate_reader(&mut cursor, cs).unwrap().is_err());
}

#[test]
fn transient_fault_during_partitioned_merge_is_retried_to_success() {
    let _g = obs_lock();
    obs::enable(obs::DEFAULT_CAPACITY);
    let before = obs::metrics_snapshot();
    // The input is in memory and pass 1 only writes, so every scratch
    // *read* belongs to the partitioned merge: splitter probes and the
    // range workers' window reads. A transient fault on the 50th read
    // lands inside that phase and must be absorbed by the retry policy.
    let (_storages, volume) = faulty_scratch_volume(FaultPlan::new().on(
        Dir::In,
        When::Nth(50),
        Fault::Fail(ErrorKind::TimedOut),
    ));
    let (input, cs) = generate(GenConfig::datamation(6_000, 51));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 4 * 1024);
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        merge_workers: 4,
        ..cfg()
    };
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg)
        .expect("transient fault during the partitioned merge was not retried");
    let delta = obs::metrics_snapshot().diff(&before);
    obs::disable();
    assert!(counter(&delta, "io.retry") >= 1, "no retry recorded");
    assert_eq!(outcome.stats.merge_range_records.len(), 4);
    assert_eq!(outcome.stats.merge_range_records.iter().sum::<u64>(), 6_000);
    validate_mem(sink.into_inner(), cs);
}

#[test]
fn corrupt_stride_fails_partitioned_merge_with_attributed_error() {
    // A stride silently corrupted during pass 1 sits in some range
    // worker's read window. The checksummed window read must catch it,
    // the error must propagate out of the worker through the scoped-thread
    // join (no hang: the root stops draining, sibling workers unblock),
    // and the message must still name disk and run.
    let (_storages, volume) = faulty_scratch_volume(FaultPlan::new().on(
        Dir::Out,
        When::Nth(70),
        Fault::Corrupt { byte: 100 },
    ));
    let (input, _cs) = generate(GenConfig::datamation(6_000, 52));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 4 * 1024);
    let mut source = MemSource::new(input, 250 * RECORD_LEN);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        merge_workers: 4,
        ..cfg()
    };
    let err = match two_pass(&mut source, &mut sink, &mut scratch, &cfg) {
        Ok(_) => panic!("corrupt scratch stride went unnoticed by the partitioned merge"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("checksum mismatch on disk 0 (s0)"), "{msg}");
    assert!(msg.contains("scratch-run-"), "{msg}");
}
