//! Fleet stress: hundreds of small sorts racing a few huge ones through
//! one daemon, every output byte-identical to the stable-sort oracle.
//!
//! This is the acceptance test for the service as a whole: admission must
//! interleave small jobs around the big ones without starving either, the
//! pool must account every byte back to zero, and no output may be
//! corrupted by the concurrency.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};
use alphasort_obs::MetricsSnapshot;
use alphasort_sortd::{
    AdmissionConfig, Client, JobSpec, PoolConfig, ScratchBacking, Sortd, SortdConfig,
};
use alphasort_stripefs::Volume;

fn oracle(mut data: Vec<u8>) -> Vec<u8> {
    records_of_mut(&mut data).sort_by_key(|r| r.key);
    data
}

fn start_daemon(pool: PoolConfig, admission: AdmissionConfig, backing: ScratchBacking) -> Sortd {
    Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool,
        admission,
        backing,
        client_read_timeout: Duration::from_secs(120),
        ..SortdConfig::default()
    })
    .expect("daemon starts")
}

fn submit_data(
    addr: SocketAddr,
    name: &str,
    data: Vec<u8>,
    mem: u64,
    scratch: u64,
) -> (Vec<u8>, Vec<u8>, bool) {
    let spec = JobSpec {
        name: name.into(),
        input_bytes: data.len() as u64,
        mem_budget: mem,
        scratch_budget: scratch,
        merge_workers: 0,
        ..JobSpec::default()
    };
    let client = Client::new(addr).with_timeout(Duration::from_secs(120));
    let mut delay = Duration::from_millis(5);
    // Honest retry loop: only retryable (backpressure) errors are retried.
    loop {
        match client.submit(&spec, &data) {
            Ok(res) => return (res.output, oracle(data), res.queued),
            Err(e) if e.retryable() => {
                thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
            Err(e) => panic!("job {name} failed non-retryably: {e}"),
        }
    }
}

fn submit_one(
    addr: SocketAddr,
    name: &str,
    records: u64,
    seed: u64,
    mem: u64,
    scratch: u64,
) -> (Vec<u8>, Vec<u8>, bool) {
    let (data, _) = generate(GenConfig::datamation(records, seed));
    submit_data(addr, name, data, mem, scratch)
}

/// ≥200 small jobs race a few huge two-pass jobs; everything must match
/// the oracle and the pool must return to zero.
#[test]
fn fleet_of_small_jobs_races_huge_ones() {
    // A pool that fits one huge job (2 MB) plus two small ones (512 KB
    // each) at a time: with two huge jobs and eight small-job streams in
    // flight, admission *must* queue and interleave. The huge jobs spill
    // to a paced volume — two RZ28s at 8x, ~64 MB/s — so how long huge-0
    // holds its budget has a floor set by the device model (its 60 MB of
    // scratch traffic: about a second), not by how fast this build sorts:
    // the gates below find it still running in any profile.
    let disks = (0..2)
        .map(|i| {
            SimDisk::new(
                format!("paced{i}"),
                catalog::rz28(),
                Arc::new(MemStorage::new()),
                Pacing::RealTime { speedup: 8.0 },
                None,
            )
        })
        .collect();
    let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(disks))));
    let daemon = start_daemon(
        PoolConfig {
            mem_total: 3 << 20,
            scratch_total: 64 << 20,
        },
        AdmissionConfig {
            queue_bound: 512,
            bypass_limit: 16,
        },
        ScratchBacking::SharedVolume(volume, 64 << 10),
    );
    let addr = daemon.addr();

    const SMALL_JOBS: u64 = 200;
    const CLIENT_THREADS: u64 = 8;
    let queued_seen = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // Both huge inputs exist before either is submitted: how long huge-0
    // sorts must not race how long huge-1 takes to generate — or to
    // upload, so huge-1 is huge in budget (3 MB against 2 MB is still a
    // forced two-pass sort) but quick to send.
    let (data, _) = generate(GenConfig::datamation(300_000, 1_000));
    let (data_1, _) = generate(GenConfig::datamation(30_000, 1_001));
    // Huge job 0: 30 MB of input against a 2 MB budget — a forced two-pass
    // sort that occupies two-thirds of the pool for the second its paced
    // scratch takes, long enough for the whole small fleet to race it.
    {
        let q = Arc::clone(&queued_seen);
        handles.push(thread::spawn(move || {
            let scratch = data.len() as u64 + RECORD_LEN as u64;
            let (out, want, queued) = submit_data(addr, "huge-0", data, 2 << 20, scratch);
            if queued {
                q.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(out, want, "huge-0 output diverged from oracle");
        }));
    }
    // Gate on *observed* state, not sleeps: huge-0 must be running before
    // huge-1 is submitted, and huge-1 must be queued (2 MB cannot fit
    // beside huge-0's 2 MB in a 3 MB pool) before the fleet starts. Every
    // small job admitted after that point backfills past queued huge-1 and
    // must age it rather than starve it.
    wait_for(&daemon, |s| s.field_u64("running").unwrap() >= 1);
    {
        let q = Arc::clone(&queued_seen);
        handles.push(thread::spawn(move || {
            let scratch = data_1.len() as u64 + RECORD_LEN as u64;
            let (out, want, queued) = submit_data(addr, "huge-1", data_1, 2 << 20, scratch);
            if queued {
                q.fetch_add(1, Ordering::Relaxed);
            }
            assert_eq!(out, want, "huge-1 output diverged from oracle");
        }));
    }
    wait_for(&daemon, |s| {
        s.get("queue").unwrap().field_u64("depth").unwrap() >= 1
    });
    // Hundreds of small one-pass jobs from a pool of client threads so the
    // daemon sees sustained concurrent load while the huge jobs run.
    for t in 0..CLIENT_THREADS {
        let q = Arc::clone(&queued_seen);
        handles.push(thread::spawn(move || {
            for j in 0..(SMALL_JOBS / CLIENT_THREADS) {
                let id = t * (SMALL_JOBS / CLIENT_THREADS) + j;
                let (data, _) = generate(GenConfig::datamation(200 + id, 2_000 + id));
                let (out, want, queued) =
                    submit_data(addr, &format!("small-{id}"), data, 512 << 10, 0);
                if queued {
                    q.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(out, want, "small-{id} output diverged from oracle");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }

    // Service-level invariants after the storm.
    const ALL_JOBS: u64 = SMALL_JOBS + 2;
    let (total_done, failed_queued) = daemon.drain();
    assert_eq!(failed_queued, 0, "no jobs were left queued at drain");
    assert_eq!(total_done, ALL_JOBS, "every job completed");
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");

    let stats = daemon.stats();
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.field_u64("done").unwrap(), ALL_JOBS);
    assert_eq!(counters.field_u64("failed").unwrap(), 0);
    let pool = stats.get("pool").unwrap();
    assert_eq!(pool.field_u64("mem_in_use").unwrap(), 0);
    assert_eq!(pool.field_u64("scratch_in_use").unwrap(), 0);
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.field_u64("done").unwrap(), ALL_JOBS);
    assert_eq!(jobs.field_u64("queued").unwrap(), 0);
    assert_eq!(jobs.field_u64("running").unwrap(), 0);
    // The pool was actually contended: its high-water mark exceeds any
    // single job's budget (a small ran beside a huge), at least one job
    // queued, and the fleet backfilled past the queued huge job.
    assert!(pool.field_u64("mem_hwm").unwrap() > (2 << 20));
    assert!(
        queued_seen.load(Ordering::Relaxed) > 0,
        "the fleet never contended for the pool; the test is too easy"
    );
    assert!(
        stats.get("queue").unwrap().field_u64("bypasses").unwrap() > 0,
        "no small job ever backfilled past the queued huge one"
    );
}

/// Poll the daemon's stats snapshot until `pred` holds (10 s cap).
fn wait_for(daemon: &Sortd, pred: impl Fn(&alphasort_minijson::Json) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if pred(&daemon.stats()) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never reached the expected state; last stats: {}",
            daemon.stats().dump()
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// Two-pass jobs spilling to one shared striped volume must not collide:
/// per-job namespaces keep their run files apart.
#[test]
fn concurrent_two_pass_jobs_share_a_striped_volume() {
    let volume = Arc::new(Volume::in_memory(2));
    let daemon = start_daemon(
        PoolConfig {
            mem_total: 4 << 20,
            scratch_total: 64 << 20,
        },
        AdmissionConfig::default(),
        ScratchBacking::SharedVolume(volume, 64 << 10),
    );
    let addr = daemon.addr();

    let mut handles = Vec::new();
    for j in 0..6u64 {
        handles.push(thread::spawn(move || {
            let (out, want, _) = submit_one(
                addr,
                &format!("striped-{j}"),
                4_000,
                5_000 + j,
                512 << 10,
                (4_000 * RECORD_LEN as u64) + RECORD_LEN as u64,
            );
            assert_eq!(out, want, "striped-{j} output diverged from oracle");
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }
    daemon.drain();
    assert!(daemon.pool_idle());
}

/// The daemon's own latency histograms must agree with what clients
/// measure from the outside, and must survive drain.
///
/// Each client thread times its `submit` calls wall-clock; the daemon
/// records `e2e_us` from manifest-parsed to result-settled. The daemon's
/// window is a strict subset of the client's (connect, payload upload,
/// and response download are outside it) and log2 buckets bound quantile
/// accuracy at a factor of two — so the assertion is agreement within a
/// band, not equality.
#[test]
fn daemon_latency_quantiles_agree_with_clients() {
    // A pool that runs one 512 KB job at a time under eight client threads
    // that submit in lockstep rounds, so every round races eight submits
    // at one slot. Whether a given round overlaps depends on the build's
    // speed, so the fleet does not run a fixed number of rounds: it runs
    // until a client has *seen* `queued` in an ack (and at least
    // `MIN_ROUNDS`, for the quantiles), which puts queue wait inside both
    // sides' e2e windows by observation rather than by luck.
    let daemon = start_daemon(
        PoolConfig {
            mem_total: 512 << 10,
            scratch_total: 1 << 20,
        },
        AdmissionConfig {
            queue_bound: 512, // deep enough that nothing hits backpressure
            bypass_limit: 16,
        },
        ScratchBacking::Memory,
    );
    let addr = daemon.addr();

    const THREADS: u64 = 8;
    const MIN_ROUNDS: u64 = 8;
    const MAX_ROUNDS: u64 = 200;
    let rendezvous = Arc::new(Barrier::new(THREADS as usize));
    let queued_seen = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let (rendezvous, queued_seen, stop) =
            (Arc::clone(&rendezvous), Arc::clone(&queued_seen), Arc::clone(&stop));
        handles.push(thread::spawn(move || {
            let mut lat_us = Vec::new();
            for round in 0.. {
                // One thread decides for all, between two barriers, so
                // every thread leaves after the same round.
                if rendezvous.wait().is_leader() {
                    let contended = queued_seen.load(Ordering::Relaxed) > 0;
                    stop.store((round >= MIN_ROUNDS && contended) || round >= MAX_ROUNDS, Ordering::Relaxed);
                }
                rendezvous.wait();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let id = round * THREADS + t;
                let (data, _) = generate(GenConfig::datamation(1_500 + id % 64, 9_000 + id));
                let spec = JobSpec {
                    name: format!("lat-{id}"),
                    input_bytes: data.len() as u64,
                    mem_budget: 512 << 10,
                    scratch_budget: 0,
                    merge_workers: 0,
                    ..JobSpec::default()
                };
                let client = Client::new(addr).with_timeout(Duration::from_secs(120));
                let start = std::time::Instant::now();
                let res = client.submit(&spec, &data).expect("submit succeeds");
                lat_us.push(start.elapsed().as_micros() as f64);
                if res.queued {
                    queued_seen.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(res.output, oracle(data), "lat-{id} diverged from oracle");
            }
            lat_us
        }));
    }
    let mut client_us: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    client_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let jobs = client_us.len() as u64;
    assert!(jobs >= MIN_ROUNDS * THREADS);

    // The wire `metrics` request, asked before drain closes the listener.
    let wire = Client::new(addr).metrics().expect("metrics request answers");
    assert_eq!(wire.field_str("type").unwrap(), "metrics");
    assert!(wire.field_u64("uptime_ms").is_ok());
    let snap = MetricsSnapshot::from_json(&wire).expect("decodes as a MetricsSnapshot");
    assert_eq!(snap.counters["sortd.jobs.submitted"], jobs);
    assert_eq!(snap.counters["sortd.jobs.done"], jobs);
    let e2e = &snap.histograms["sortd.e2e_us"];
    assert_eq!(e2e.count(), jobs, "one e2e sample per job that ran");
    // Contention actually happened: somebody waited in the queue.
    assert!(
        snap.histograms["sortd.queue_wait_us"].max().unwrap() > 0,
        "no job ever queued; the test is too easy"
    );

    let pct = |v: &[f64], q: f64| v[((v.len() - 1) as f64 * q) as usize];
    for q in [0.50, 0.99] {
        let daemon_q = e2e.quantile(q).unwrap();
        let client_q = pct(&client_us, q);
        assert!(
            daemon_q <= client_q * 2.5 + 5_000.0 && daemon_q >= client_q / 3.0 - 5_000.0,
            "q{q}: daemon {daemon_q:.0}µs vs client {client_q:.0}µs out of band"
        );
    }

    // Histograms survive drain: accounting stops admitting, not counting.
    daemon.drain();
    let stats = daemon.stats();
    let e2e_summary = stats.get("latency").unwrap().get("e2e_us").unwrap();
    assert_eq!(e2e_summary.field_u64("count").unwrap(), jobs);
    assert!(e2e_summary.field_f64("p99").unwrap() > 0.0);
}

/// Oversized manifests are rejected immediately with a non-retryable
/// typed error, not queued forever.
#[test]
fn hopeless_manifest_is_rejected_not_queued() {
    let daemon = start_daemon(
        PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        },
        AdmissionConfig::default(),
        ScratchBacking::Memory,
    );
    let (data, _) = generate(GenConfig::datamation(100, 7));
    let spec = JobSpec {
        name: "hopeless".into(),
        input_bytes: data.len() as u64,
        mem_budget: 8 << 20, // eight times the pool total
        scratch_budget: 0,
        merge_workers: 0,
        ..JobSpec::default()
    };
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(10));
    let err = client.submit(&spec, &data).expect_err("must be rejected");
    assert_eq!(err.code(), Some("budget_too_large"));
    assert!(!err.retryable());
    // A range count that would spawn 200,000 merge threads is refused at
    // the gate too, and the daemon is still there to say so.
    let spec = JobSpec {
        mem_budget: 1 << 20,
        merge_workers: 200_000,
        ..spec
    };
    let err = client.submit(&spec, &data).expect_err("must be rejected");
    assert_eq!(err.code(), Some("bad_manifest"));
    assert!(err.to_string().contains("merge_workers (200000)"), "{err}");
    let stats = daemon.stats();
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.field_u64("rejected").unwrap(), 2);
}

/// Backpressure convergence under the bounded retry policy: a queue bound
/// of 1 and a pool that fits one job at a time, hammered by more clients
/// than slots. Every client retries `backpressure` through
/// `submit_with_retry` with its own idempotency key; the fleet must
/// converge with every job completing **exactly once** — no duplicate
/// executions (the dedupe counter stays zero because no first attempt ever
/// both succeeded and got retried), no lost jobs, pool back to zero.
#[test]
fn backpressure_fleet_converges_exactly_once_under_bounded_retry() {
    let daemon = start_daemon(
        PoolConfig {
            mem_total: 1 << 20, // exactly one job's budget
            scratch_total: 1 << 20,
        },
        AdmissionConfig {
            queue_bound: 1,
            bypass_limit: 4,
        },
        ScratchBacking::Memory,
    );
    let addr = daemon.addr();

    const CLIENTS: u64 = 8;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        handles.push(thread::spawn(move || {
            let (data, _) = generate(GenConfig::datamation(2_000, 9_100 + c));
            let spec = JobSpec {
                name: format!("bp-{c}"),
                input_bytes: data.len() as u64,
                mem_budget: 1 << 20,
                scratch_budget: 0,
                idem_key: Some(format!("bp-key-{c}")),
                ..JobSpec::default()
            };
            let client = Client::new(addr).with_timeout(Duration::from_secs(120));
            let policy = alphasort_sortd::RetryPolicy {
                attempts: 200,
                base_backoff: Duration::from_millis(1),
                seed: 0xbead + c,
            };
            let res = client
                .submit_with_retry(&spec, &data, &policy)
                .expect("fleet job must converge through backpressure");
            assert!(!res.duplicate, "no retry may observe a completed twin");
            assert_eq!(res.output, oracle(data), "output diverged under backpressure churn");
        }));
    }
    for h in handles {
        h.join().expect("backpressure client panicked");
    }

    let stats = daemon.stats();
    let counters = stats.get("counters").unwrap();
    assert_eq!(
        counters.field_u64("done").unwrap(),
        CLIENTS,
        "every job exactly once; stats: {}",
        stats.dump()
    );
    assert_eq!(counters.field_u64("duplicates").unwrap(), 0);
    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting did not converge to zero");
}
