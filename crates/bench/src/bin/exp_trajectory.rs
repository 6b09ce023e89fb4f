//! The perf-trajectory driver (ROADMAP item 4): one canonical set of
//! kernel + service workloads, one JSON snapshot per PR, one gate.
//!
//! Usage: `exp_trajectory [--json OUT.json] [--records N] [--jobs N]
//! [--repeat N]` (defaults: 400 000-record kernel runs, 120-job service
//! fleet, best-of-5 kernel timing).
//!
//! Kernel rates are **best-of-N** (`--repeat`): each kernel runs N times
//! and the snapshot keeps the fastest. On a shared/noisy box the slow
//! runs measure the neighbor, not the sort — best-of converges to the
//! machine's actual speed, which is what a trajectory should track. The
//! service fleet runs once (its wall clock is 120 jobs wide and
//! self-averaging).
//!
//! Three kernel shapes cover the hot paths the repo has grown so far —
//! the serial one-pass sort, the forced two-pass spill, and the
//! partitioned parallel merge (4 ranges, 4 workers) — plus the sortd
//! service fleet whose latency quantiles come from the *daemon's* own
//! histograms over the `metrics` channel, not client-side stopwatches.
//! Every output is oracle- or fingerprint-checked; a wrong sort never
//! produces a number.
//!
//! PR 9 adds a **restart recovery** probe: the time from `Sortd::start`
//! over a journal populated with 200 job records (replay included) to a
//! probe job admitted and completed, tracked as
//! `service_restart_recovery_ms` (lower is better) so journal replay can
//! never silently turn into a boot-time cliff.
//!
//! PR 10 adds a **string merge** group: the LCP/OVC-aware tournament merge
//! against naive full-key comparison on the shared-megaprefix corpus,
//! tracked as `string_{ovc,naive}_records_per_sec` plus the deterministic
//! `string_ovc_key_bytes_saved_pct` (how many key bytes OVC never touches).
//!
//! The emitted document ends with a `tracked` section. Most entries are
//! higher-is-better rates; the exceptions (daemon e2e p99 latency) are
//! declared in the sibling `tracked_meta` object as `lower_is_better`,
//! which `benchdiff` honors when gating. That section is the trajectory
//! contract: `benchdiff OLD NEW` compares only `tracked` and fails CI
//! past 10% regression, so the other fields can grow freely without
//! becoming accidental gates.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use alphasort_core::driver::{one_pass, two_pass, MemScratch};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::stats::SortStats;
use alphasort_core::layout::LayoutRun;
use alphasort_core::merge::{
    ComparePolicy, MergeEffort, MergedPtr, Merger, Ovc, PrefixThenKey, RunCursors,
};
use alphasort_core::varlen::VarRun;
use alphasort_core::SortConfig;
use alphasort_dmgen::{
    generate, generate_varlen, records_of_mut, validate_records, var_records_of, GenConfig,
    TextCorpus, VarGenConfig, RECORD_LEN,
};
use alphasort_minijson::Json;
use alphasort_obs::MetricsSnapshot;
use alphasort_sortd::{
    AdmissionConfig, Client, JobSpec, Journal, JournalRecord, PoolConfig, ScratchBacking,
    Sortd, SortdConfig,
};

fn kernel_doc(name: &str, st: &SortStats, elapsed_s: f64) -> (f64, Json) {
    let bytes = st.records * RECORD_LEN as u64;
    let rps = st.records as f64 / elapsed_s;
    let doc = Json::Obj(vec![
        ("records".into(), Json::from(st.records)),
        ("bytes".into(), Json::from(bytes)),
        ("elapsed_s".into(), Json::Float(elapsed_s)),
        ("records_per_sec".into(), Json::Float(rps)),
        (
            "mb_per_sec".into(),
            Json::Float(bytes as f64 / 1e6 / elapsed_s),
        ),
        (
            "phases_s".into(),
            Json::Obj(vec![
                ("read_wait".into(), Json::Float(st.read_wait.as_secs_f64())),
                ("sort".into(), Json::Float(st.sort_time.as_secs_f64())),
                ("merge".into(), Json::Float(st.merge_time.as_secs_f64())),
                ("gather".into(), Json::Float(st.gather_time.as_secs_f64())),
                ("write_wait".into(), Json::Float(st.write_wait.as_secs_f64())),
                ("spill".into(), Json::Float(st.spill_time.as_secs_f64())),
            ]),
        ),
    ]);
    println!(
        "  {name:<8} {:>9.0} records/s  ({:.1} MB/s, {:.3} s)",
        rps,
        bytes as f64 / 1e6 / elapsed_s,
        elapsed_s
    );
    (rps, doc)
}

/// Run `run` `repeat` times and report the fastest attempt (highest
/// records/sec). Slow attempts on a contended box measure the neighbor,
/// not the kernel.
fn best_of(
    repeat: usize,
    name: &str,
    mut run: impl FnMut() -> (SortStats, f64),
) -> (f64, Json) {
    let mut best: Option<(SortStats, f64)> = None;
    for _ in 0..repeat.max(1) {
        let (st, elapsed_s) = run();
        let faster = best
            .as_ref()
            .map(|(b_st, b_s)| st.records as f64 / elapsed_s > b_st.records as f64 / *b_s)
            .unwrap_or(true);
        if faster {
            best = Some((st, elapsed_s));
        }
    }
    let (st, elapsed_s) = best.expect("at least one attempt ran");
    kernel_doc(name, &st, elapsed_s)
}

/// Merge `runs` to exhaustion under compare policy `P`, handing every
/// pointer to `each`; returns the comparison effort.
fn string_merge<P: ComparePolicy>(runs: &[VarRun], mut each: impl FnMut(MergedPtr)) -> MergeEffort {
    let heads = RunCursors::new(runs, None);
    let mut m = Merger::<_, P, _>::new(heads, MergeEffort::default());
    for p in m.by_ref() {
        each(p);
    }
    m.effort
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_out = flag("--json");
    let records: u64 = flag("--records").and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let jobs: u64 = flag("--jobs").and_then(|s| s.parse().ok()).unwrap_or(120);
    let repeat: usize = flag("--repeat").and_then(|s| s.parse().ok()).unwrap_or(5);

    println!("== perf trajectory: canonical kernel + service workloads ==\n");
    let (data, cs) = generate(GenConfig::datamation(records, 7));

    // Kernel 1: the serial one-pass sort (the paper's core loop).
    println!("kernel ({records} records, best of {repeat}):");
    let cfg = SortConfig {
        run_records: 100_000,
        gather_batch: 10_000,
        ..Default::default()
    };
    let (onepass_rps, onepass_doc) = best_of(repeat, "onepass", || {
        let t0 = Instant::now();
        let mut src = MemSource::new(data.clone(), 1 << 20);
        let mut sink = MemSink::new();
        let one = one_pass(&mut src, &mut sink, &cfg).expect("one-pass sorts");
        let elapsed_s = t0.elapsed().as_secs_f64();
        validate_records(sink.data(), cs).expect("one-pass output validates");
        (one.stats, elapsed_s)
    });

    // Kernel 2: the forced two-pass spill through memory scratch.
    let (twopass_rps, twopass_doc) = best_of(repeat, "twopass", || {
        let t0 = Instant::now();
        let mut src = MemSource::new(data.clone(), 1 << 20);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(10_000 * RECORD_LEN);
        let two = two_pass(&mut src, &mut sink, &mut scratch, &cfg).expect("two-pass sorts");
        let elapsed_s = t0.elapsed().as_secs_f64();
        validate_records(sink.data(), cs).expect("two-pass output validates");
        (two.stats, elapsed_s)
    });

    // Kernel 3: the partitioned parallel merge (PR 5) — 4 key ranges,
    // 4 sort/gather workers, same data, byte-identical output.
    let pcfg = SortConfig {
        workers: 4,
        merge_workers: 4,
        ..cfg
    };
    let (pmerge_rps, pmerge_doc) = best_of(repeat, "pmerge4", || {
        let t0 = Instant::now();
        let mut src = MemSource::new(data.clone(), 1 << 20);
        let mut sink = MemSink::new();
        let pm = one_pass(&mut src, &mut sink, &pcfg).expect("partitioned merge sorts");
        let elapsed_s = t0.elapsed().as_secs_f64();
        validate_records(sink.data(), cs).expect("partitioned-merge output validates");
        (pm.stats, elapsed_s)
    });

    drop(data);

    // String sort (PR 10): the LCP/OVC-aware tournament merge against
    // naive full-key comparison on the adversarial shared-megaprefix
    // corpus (48 identical leading bytes per key). Wall-clock rates are
    // best-of; the key-bytes-examined counters are deterministic, so the
    // "OVC beats naive" claim is machine-noise-proof.
    let string_records = (records / 4).max(20_000);
    let sdata = generate_varlen(VarGenConfig {
        records: string_records,
        seed: 10,
        corpus: TextCorpus::SharedMegaPrefix {
            prefix: 48,
            suffix: 8,
        },
    });
    let srecs = var_records_of(&sdata).expect("string corpus parses");
    let per = srecs.len().div_ceil(8);
    let string_runs: Vec<VarRun> = srecs
        .chunks(per)
        .map(|c| {
            let mut buf = Vec::new();
            for r in c {
                buf.extend_from_slice(r.frame());
            }
            VarRun::from_frames(buf).expect("string run forms")
        })
        .collect();
    drop(srecs);

    // Untimed correctness pass: both policies must emit the identical
    // pointer sequence, in key order. A wrong merge never gets a number.
    {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        string_merge::<Ovc>(&string_runs, |p| a.push(p));
        string_merge::<PrefixThenKey>(&string_runs, |p| b.push(p));
        assert_eq!(a, b, "OVC and naive merges diverged");
        assert_eq!(a.len() as u64, string_records);
        let mut prev: &[u8] = b"";
        for p in &a {
            let key = string_runs[p.run as usize].key_at(p.pos as usize);
            assert!(prev <= key, "string merge output out of order");
            prev = key;
        }
    }

    println!(
        "\nstring merge ({string_records} shared-megaprefix records, {} runs, best of {repeat}):",
        string_runs.len()
    );
    let mut string_modes: Vec<(&str, f64, u64, u64)> = Vec::new();
    for name in ["ovc", "naive"] {
        let mut best_rps = 0.0f64;
        let mut effort = (0u64, 0u64);
        for _ in 0..repeat.max(1) {
            let mut n = 0u64;
            let count = |p: MergedPtr| {
                std::hint::black_box(p);
                n += 1;
            };
            let t0 = Instant::now();
            let e = match name {
                "ovc" => string_merge::<Ovc>(&string_runs, count),
                _ => string_merge::<PrefixThenKey>(&string_runs, count),
            };
            let elapsed_s = t0.elapsed().as_secs_f64();
            assert_eq!(n, string_records);
            best_rps = best_rps.max(n as f64 / elapsed_s);
            effort = (e.key_bytes, e.compares);
        }
        println!(
            "  {name:<8} {best_rps:>9.0} records/s  ({} key bytes, {} compares)",
            effort.0, effort.1
        );
        string_modes.push((name, best_rps, effort.0, effort.1));
    }
    let (ovc_rps, ovc_bytes) = (string_modes[0].1, string_modes[0].2);
    let (naive_rps, naive_bytes) = (string_modes[1].1, string_modes[1].2);
    assert!(
        ovc_bytes * 2 < naive_bytes,
        "OVC must examine far fewer key bytes than naive on shared prefixes \
         ({ovc_bytes} vs {naive_bytes})"
    );
    let string_saved_pct = 100.0 * (1.0 - ovc_bytes as f64 / naive_bytes as f64);
    println!("  ovc examines {string_saved_pct:.1}% fewer key bytes than naive");
    drop(string_runs);

    // Service: an in-process sortd under a contended pool; throughput is
    // client-side wall clock, latency quantiles are daemon-reported.
    const THREADS: u64 = 8;
    const JOB_RECORDS: u64 = 3_000;
    println!("\nservice ({jobs} x {JOB_RECORDS}-record jobs, {THREADS} client threads):");
    let pool = PoolConfig {
        mem_total: 4 << 20,
        scratch_total: 64 << 20,
    };
    let daemon = Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool,
        admission: AdmissionConfig {
            queue_bound: 1024,
            bypass_limit: 16,
        },
        backing: ScratchBacking::Memory,
        client_read_timeout: Duration::from_secs(300),
        ..SortdConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.addr();
    let client_lat_ms = Arc::new(Mutex::new(Vec::<f64>::new()));
    let wall = Instant::now();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let lat = Arc::clone(&client_lat_ms);
        handles.push(thread::spawn(move || {
            let client = Client::new(addr).with_timeout(Duration::from_secs(300));
            for j in (t..jobs).step_by(THREADS as usize) {
                let (mut data, _) = generate(GenConfig::datamation(JOB_RECORDS, 11_000 + j));
                let spec = JobSpec {
                    name: format!("traj-{j}"),
                    input_bytes: data.len() as u64,
                    mem_budget: 1 << 20,
                    scratch_budget: 0,
                    merge_workers: 0,
                    ..JobSpec::default()
                };
                let t0 = Instant::now();
                let res = client.submit(&spec, &data).expect("submit succeeds");
                lat.lock().unwrap().push(t0.elapsed().as_secs_f64() * 1e3);
                records_of_mut(&mut data).sort_by_key(|r| r.key);
                assert_eq!(res.output, data, "traj-{j} diverged from oracle");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let jobs_per_sec = jobs as f64 / wall_s;

    // Daemon-side quantiles over the metrics wire channel, before drain
    // closes the listener.
    let wire = Client::new(addr).metrics().expect("metrics request answers");
    let snap = MetricsSnapshot::from_json(&wire).expect("metrics doc decodes");
    let q = |name: &str, p: f64| {
        snap.histograms
            .get(name)
            .and_then(|h| h.quantile(p))
            .unwrap_or(0.0)
    };
    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting not zero after drain");

    let mut lat = client_lat_ms.lock().unwrap().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
    println!(
        "  fleet    {jobs_per_sec:>9.1} jobs/s     (client p99 {:.1} ms, daemon e2e p99 {:.1} ms)",
        pct(&lat, 0.99),
        q("sortd.e2e_us", 0.99) / 1e3,
    );

    // Restart recovery (PR 9): time from `Sortd::start` over a populated
    // journal — replay included — to a probe job admitted and completed.
    // The journal is staged directly with the durable residue of a killed
    // daemon: mostly settled records (the dedupe set a long-lived daemon
    // accumulates) plus a kill-interrupted tail. Best-of for the same
    // noisy-neighbor reason as the kernels.
    const JOURNAL_JOBS: u64 = 200;
    let jdir = std::env::temp_dir().join(format!(
        "exp-trajectory-journal-{}",
        std::process::id()
    ));
    let mut recovery_ms = f64::INFINITY;
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&jdir);
        let journal = Journal::open(&jdir).expect("journal opens");
        for i in 0..JOURNAL_JOBS {
            let spec = JobSpec {
                name: format!("stale-{i}"),
                input_bytes: JOB_RECORDS * RECORD_LEN as u64,
                mem_budget: 1 << 20,
                scratch_budget: 0,
                idem_key: Some(format!("stale-key-{i}")),
                ..JobSpec::default()
            };
            let mut rec = JournalRecord::accepted(format!("stale-key-{i}"), i + 1, spec);
            // One in twenty died mid-run; the rest settled.
            rec.state = if i % 20 == 0 { "running" } else { "done" }.into();
            rec.records = JOB_RECORDS;
            journal.record(&rec).expect("journal record");
        }
        let t0 = Instant::now();
        let daemon = Sortd::start(SortdConfig {
            listen: "127.0.0.1:0".into(),
            pool,
            backing: ScratchBacking::Memory,
            journal: Some(jdir.clone()),
            ..SortdConfig::default()
        })
        .expect("recovery daemon starts");
        let (mut probe, _) = generate(GenConfig::datamation(JOB_RECORDS, 99));
        let spec = JobSpec {
            name: "probe".into(),
            input_bytes: probe.len() as u64,
            mem_budget: 1 << 20,
            scratch_budget: 0,
            ..JobSpec::default()
        };
        let res = Client::new(daemon.addr())
            .submit(&spec, &probe)
            .expect("probe admitted after replay");
        recovery_ms = recovery_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        records_of_mut(&mut probe).sort_by_key(|r| r.key);
        assert_eq!(res.output, probe, "probe diverged from oracle");
        daemon.drain();
    }
    let _ = std::fs::remove_dir_all(&jdir);
    println!(
        "  restart  {recovery_ms:>9.1} ms to first admission ({JOURNAL_JOBS} journaled jobs)"
    );

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::from("perf trajectory")),
        ("schema".into(), Json::from(1u64)),
        ("kernel_best_of".into(), Json::from(repeat as u64)),
        (
            "kernel".into(),
            Json::Obj(vec![
                ("onepass".into(), onepass_doc),
                ("twopass".into(), twopass_doc),
                ("pmerge4".into(), pmerge_doc),
            ]),
        ),
        (
            "string".into(),
            Json::Obj(vec![
                ("records".into(), Json::from(string_records)),
                ("corpus".into(), Json::from("shared-megaprefix 48+8")),
                ("runs".into(), Json::from(8u64)),
                (
                    "modes".into(),
                    Json::Obj(
                        string_modes
                            .iter()
                            .map(|(name, rps, key_bytes, compares)| {
                                (
                                    (*name).to_string(),
                                    Json::Obj(vec![
                                        ("records_per_sec".into(), Json::Float(*rps)),
                                        ("key_bytes".into(), Json::from(*key_bytes)),
                                        ("compares".into(), Json::from(*compares)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "ovc_key_bytes_saved_pct".into(),
                    Json::Float(string_saved_pct),
                ),
            ]),
        ),
        (
            "service".into(),
            Json::Obj(vec![
                ("jobs".into(), Json::from(jobs)),
                ("client_threads".into(), Json::from(THREADS)),
                ("records_per_job".into(), Json::from(JOB_RECORDS)),
                ("pool_mem_bytes".into(), Json::from(pool.mem_total)),
                ("wall_s".into(), Json::Float(wall_s)),
                ("jobs_per_sec".into(), Json::Float(jobs_per_sec)),
                ("client_p50_ms".into(), Json::Float(pct(&lat, 0.50))),
                ("client_p99_ms".into(), Json::Float(pct(&lat, 0.99))),
                (
                    "daemon".into(),
                    Json::Obj(vec![
                        ("e2e_p50_us".into(), Json::Float(q("sortd.e2e_us", 0.50))),
                        ("e2e_p99_us".into(), Json::Float(q("sortd.e2e_us", 0.99))),
                        ("exec_p50_us".into(), Json::Float(q("sortd.exec_us", 0.50))),
                        ("exec_p99_us".into(), Json::Float(q("sortd.exec_us", 0.99))),
                        (
                            "queue_wait_p99_us".into(),
                            Json::Float(q("sortd.queue_wait_us", 0.99)),
                        ),
                    ]),
                ),
                ("all_outputs_oracle_checked".into(), Json::Bool(true)),
            ]),
        ),
        (
            "restart_recovery".into(),
            Json::Obj(vec![
                ("journaled_jobs".into(), Json::from(JOURNAL_JOBS)),
                ("best_of".into(), Json::from(3u64)),
                ("first_admission_ms".into(), Json::Float(recovery_ms)),
            ]),
        ),
        // The gated contract. benchdiff compares exactly these keys;
        // directions for the non-rate entries live in `tracked_meta`.
        (
            "tracked".into(),
            Json::Obj(vec![
                ("onepass_records_per_sec".into(), Json::Float(onepass_rps)),
                ("twopass_records_per_sec".into(), Json::Float(twopass_rps)),
                ("pmerge4_records_per_sec".into(), Json::Float(pmerge_rps)),
                ("service_jobs_per_sec".into(), Json::Float(jobs_per_sec)),
                ("string_ovc_records_per_sec".into(), Json::Float(ovc_rps)),
                (
                    "string_naive_records_per_sec".into(),
                    Json::Float(naive_rps),
                ),
                (
                    "string_ovc_key_bytes_saved_pct".into(),
                    Json::Float(string_saved_pct),
                ),
                (
                    "service_e2e_p99_ms".into(),
                    Json::Float(q("sortd.e2e_us", 0.99) / 1e3),
                ),
                (
                    "service_restart_recovery_ms".into(),
                    Json::Float(recovery_ms),
                ),
            ]),
        ),
        // Per-metric gate directions; anything absent here is
        // higher-is-better (the rate default).
        (
            "tracked_meta".into(),
            Json::Obj(vec![
                ("service_e2e_p99_ms".into(), Json::from("lower_is_better")),
                (
                    "service_restart_recovery_ms".into(),
                    Json::from("lower_is_better"),
                ),
            ]),
        ),
    ]);
    if let Some(path) = json_out {
        std::fs::write(&path, doc.dump_pretty()).expect("write JSON snapshot");
        println!("\nwrote {path}");
    }
}
