//! `sortd_fleet`: a closed loop of clients against an in-process sortd. One
//! operation is one submit-to-result job whose output was then compared
//! with a stable-sort oracle.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::SortConfig;
use alphasort_dmgen::{records_of_mut, GenConfig, Generator, SplitMix64, RECORD_LEN};
use alphasort_obs as obs;
use alphasort_sortd::{
    Client, JobSpec, PoolConfig, ScratchBacking, Sortd, SortdConfig, MIN_JOB_MEM,
};

use super::{
    end_to_end_report, in_span, per_layer_report, RunOpts, RunOutput, Sabotage, OP_TIMEOUT,
    SETUP_REPS,
};
use crate::adapters::Trace;
use crate::host::{self, TempDir};
use crate::layers;
use crate::spans::{Recorder, Under};
use crate::stats;

/// Records in a job of the small class (80% of jobs) and of the large class.
const SMALL_RECORDS: f64 = 3_000.0;
const LARGE_RECORDS: f64 = 30_000.0;
/// One job in `LARGE_EVERY` is large.
const LARGE_EVERY: u64 = 5;
/// Distinct inputs per class; each job draws one.
const SMALL_INPUTS: usize = 16;
const LARGE_INPUTS: usize = 8;
/// Jobs run before the clock starts, over all clients.
const WARMUP_JOBS: usize = 100;
/// Closed-loop clients; never more than the box has cores.
const CLIENTS: usize = 2;
const POOL_MEM: u64 = 64 << 20;

/// The job sizes in bytes, in the mix the clients draw them: what the
/// loopback ceiling echoes.
pub fn echo_payloads() -> Vec<usize> {
    let (small, large) = (
        SMALL_RECORDS as usize * RECORD_LEN,
        LARGE_RECORDS as usize * RECORD_LEN,
    );
    let mut round = vec![small; LARGE_EVERY as usize - 1];
    round.push(large);
    round.repeat(8)
}

/// One generated job: its manifest, its input and the expected output.
struct Job {
    spec: JobSpec,
    input: Vec<u8>,
    oracle: Vec<u8>,
}

struct Inputs {
    small: Vec<Job>,
    large: Vec<Job>,
    gen_busy: Duration,
    gen_bytes: u64,
}

impl Inputs {
    fn generate(seed: u64, scale: f64) -> Inputs {
        let mut seeds = SplitMix64::new(seed);
        let (mut gen_busy, mut gen_bytes) = (Duration::ZERO, 0);
        let mut class = |records: f64, count: usize| -> Vec<Job> {
            let records = (records * scale).max(100.0).round() as u64;
            (0..count)
                .map(|_| {
                    let t0 = Instant::now();
                    let input = Generator::new(GenConfig::datamation(records, seeds.next_u64()))
                        .generate_vec();
                    gen_busy += t0.elapsed();
                    gen_bytes += input.len() as u64;
                    let mut oracle = input.clone();
                    records_of_mut(&mut oracle).sort_by_key(|r| r.key);
                    let spec = JobSpec {
                        input_bytes: input.len() as u64,
                        mem_budget: (3 * input.len() as u64).max(MIN_JOB_MEM),
                        ..JobSpec::default()
                    };
                    Job {
                        spec,
                        input,
                        oracle,
                    }
                })
                .collect()
        };
        let small = class(SMALL_RECORDS, SMALL_INPUTS);
        let large = class(LARGE_RECORDS, LARGE_INPUTS);
        Inputs {
            small,
            large,
            gen_busy,
            gen_bytes,
        }
    }
}

fn start_daemon(journal: &Path) -> io::Result<Sortd> {
    Sortd::start(SortdConfig {
        pool: PoolConfig {
            mem_total: POOL_MEM,
            ..PoolConfig::default()
        },
        backing: ScratchBacking::Memory,
        journal: Some(journal.to_path_buf()),
        client_read_timeout: OP_TIMEOUT,
        ..SortdConfig::default()
    })
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    retries: u64,
    /// Payload bytes of the jobs that succeeded.
    bytes: u64,
    small_ms: Vec<f64>,
    large_ms: Vec<f64>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.bytes += other.bytes;
        self.small_ms.extend(other.small_ms);
        self.large_ms.extend(other.large_ms);
    }

    fn all_ms(&self) -> Vec<f64> {
        self.small_ms
            .iter()
            .chain(&self.large_ms)
            .copied()
            .collect()
    }
}

/// Submit one job, retrying while the daemon says the failure is
/// retryable; returns the sorted bytes and how often it had to retry.
fn submit(client: &Client, job: &Job, name: String) -> Result<(Vec<u8>, u64), String> {
    let spec = JobSpec {
        name,
        ..job.spec.clone()
    };
    let t0 = Instant::now();
    let mut retries = 0;
    loop {
        match client.submit(&spec, &job.input) {
            Ok(res) => return Ok((res.output, retries)),
            Err(e) if e.retryable() && t0.elapsed() < OP_TIMEOUT => {
                retries += 1;
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// One closed-loop client: the next job goes out when the last came back.
fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    mut draws: SplitMix64,
    stop: Stop,
    first_op: u64,
    corrupt_first_output: bool,
    trace: Option<&Trace>,
) -> ClientLog {
    let client = Client::new(addr).with_timeout(OP_TIMEOUT);
    let mut log = ClientLog::default();
    loop {
        match stop {
            Stop::After(n) if log.attempted as usize >= n => break,
            Stop::At(t) if Instant::now() >= t => break,
            _ => {}
        }
        let large = draws.next_below(LARGE_EVERY) == 0;
        let class = if large { &inputs.large } else { &inputs.small };
        let job = &class[draws.next_below(class.len() as u64) as usize];
        let op = first_op + log.attempted;
        log.attempted += 1;
        let job_trace = trace.map(|t| t.clone().for_op(op));
        let verdict = in_span(job_trace.as_ref(), "bench.job", |t| {
            let t0 = Instant::now();
            let answer = in_span(t.as_ref(), "sortd.submit", |_| {
                submit(&client, job, format!("job-{op}"))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (mut output, retries) = answer?;
            log.retries += retries;
            if corrupt_first_output && log.attempted == 1 {
                let mid = output.len() / 2;
                output[mid] ^= 0x40;
            }
            let same = in_span(t.as_ref(), "bench.validate", |_| output == job.oracle);
            if same {
                Ok(ms)
            } else {
                Err("output differs from the stable-sort oracle".to_string())
            }
        });
        match verdict {
            Ok(ms) => {
                log.bytes += job.input.len() as u64;
                if large {
                    log.large_ms.push(ms);
                } else {
                    log.small_ms.push(ms);
                }
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("job {op} failed: {e}");
            }
        }
    }
    log
}

/// Run `CLIENTS` closed-loop clients until `stop`; returns what they saw and
/// the wall time of the loop.
fn run_clients(
    addr: SocketAddr,
    inputs: &Inputs,
    draws: &mut SplitMix64,
    stop: Stop,
    first_op: u64,
    corrupt_first_output: bool,
    trace: Option<&Trace>,
) -> (ClientLog, f64) {
    let clients = CLIENTS.min(host::nproc());
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rng = draws.split();
                let stop = match stop {
                    Stop::After(n) => Stop::After(n.div_ceil(clients)),
                    at => at,
                };
                // Operation ids of different clients never collide.
                let first = first_op + c as u64 * 10_000_000;
                s.spawn(move || {
                    client_loop(
                        addr,
                        inputs,
                        rng,
                        stop,
                        first,
                        corrupt_first_output && c == 0,
                        trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    attempted: 1,
                    failed: 1,
                    ..Default::default()
                })
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut total = ClientLog::default();
    logs.into_iter().for_each(|l| total.absorb(l));
    (total, wall)
}

/// The daemon's latency histograms as served by its `metrics` request.
fn daemon_metrics(addr: SocketAddr) -> io::Result<obs::MetricsSnapshot> {
    let doc = Client::new(addr)
        .metrics()
        .map_err(|e| io::Error::other(e.to_string()))?;
    obs::MetricsSnapshot::from_json(&doc).map_err(io::Error::other)
}

/// `one_pass` alone on one job's input, in this process, sized the way
/// sortd sizes a job (runs of a quarter of the memory budget): what the
/// sort itself costs with no service around it.
fn exec_alone_us(job: &Job) -> io::Result<f64> {
    let run_records = (job.spec.mem_budget / 4 / RECORD_LEN as u64).clamp(256, 100_000) as usize;
    let cfg = SortConfig {
        run_records,
        gather_batch: run_records.min(10_000),
        memory_budget: job.spec.mem_budget,
        ..Default::default()
    };
    let mut src = MemSource::new(job.input.clone(), cfg.gather_batch * RECORD_LEN);
    let mut sink = MemSink::new();
    let t0 = Instant::now();
    one_pass(&mut src, &mut sink, &cfg)?;
    let us = t0.elapsed().as_secs_f64() * 1e6;
    if sink.data() != job.oracle {
        return Err(io::Error::other(
            "in-process one_pass disagrees with the oracle",
        ));
    }
    Ok(us)
}

/// Drain the daemon and hold it to its post-drain invariant.
fn drain(daemon: Sortd) -> io::Result<()> {
    daemon.drain();
    if !daemon.pool_idle() {
        return Err(io::Error::other("sortd's pool is not idle after drain"));
    }
    Ok(())
}

/// Run the fleet workload.
pub fn run(opts: &RunOpts) -> io::Result<RunOutput> {
    let tmp = TempDir::create(&opts.out)?;
    let rec = Arc::new(Recorder::new());
    let mut notes = Vec::new();

    // Generate the jobs and start a daemon journaling to `<tmp>/journal-<k>`;
    // returns both and the seconds taken.
    let set_up = |k: usize| -> io::Result<(Inputs, Sortd, f64)> {
        let t0 = Instant::now();
        let inputs = Inputs::generate(opts.seed, opts.scale);
        let daemon = start_daemon(&tmp.path().join(format!("journal-{k}")))?;
        Ok((inputs, daemon, t0.elapsed().as_secs_f64()))
    };
    let (mut inputs, daemon, first_setup_s) = set_up(0)?;
    let mut setup_s = vec![first_setup_s];
    let addr = daemon.addr();
    let mut draws = SplitMix64::new(opts.seed ^ 0x5EED_F1EE7);

    if !host::reset_peak_rss() {
        notes.push("the kernel refused to reset VmHWM: peak_rss_mb includes set-up".into());
    }
    let (warm, _) = run_clients(
        addr,
        &inputs,
        &mut draws,
        Stop::After(WARMUP_JOBS),
        0,
        false,
        None,
    );
    if warm.failed > 0 {
        return Err(io::Error::other(format!(
            "{} warm-up jobs failed",
            warm.failed
        )));
    }
    if opts.sabotage == Some(Sabotage::Oracle) {
        // Every small job now disagrees with its oracle; large jobs still pass.
        for job in &mut inputs.small {
            job.oracle[0] ^= 0x40;
        }
    }
    let budget = Duration::from_secs_f64(opts.seconds);

    if !opts.trace {
        let corrupt = opts.sabotage == Some(Sabotage::Output);
        let stop = Stop::At(Instant::now() + budget);
        let (log, wall) = run_clients(addr, &inputs, &mut draws, stop, 1, corrupt, None);
        drain(daemon)?;
        let peak_rss_mb = host::peak_rss_mb()?;
        // `setup_s` is a median over several set-ups; the others run here,
        // after the loop, so that they are in none of its figures.
        for k in 1..SETUP_REPS {
            let (_, extra, secs) = set_up(k)?;
            setup_s.push(secs);
            drain(extra)?;
        }
        let all = log.all_ms();
        notes.push(super::latency_note(&all));
        notes.push(match stats::tail(&all, 0.99) {
            Some(p99) => format!("op_p99_ms {p99:.3} over {} samples", all.len()),
            None => format!(
                "op_p99_ms not reported: {} samples leave fewer than ten beyond it",
                all.len()
            ),
        });
        let p50 = stats::median(&all).unwrap_or(0.0);
        let report = end_to_end_report(
            log.attempted,
            log.failed,
            &[
                ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
                ("sort_mb_per_s", log.bytes as f64 / 1e6 / wall),
                ("op_p50_ms", p50),
                ("peak_rss_mb", peak_rss_mb),
            ],
        );
        return Ok(RunOutput { report, notes });
    }

    // Traced pass: the layers alone, then the loop with the program's
    // recorder off (the service's own split of a job's latency), then with
    // it on (what tracing costs, and the program's spans for the trace).
    // The two loops share the seconds asked for; the layers come on top, or
    // too few jobs would be left to report a 99th percentile.
    let root = Trace {
        rec: Arc::clone(&rec),
        under: Under::default(),
    };
    let (host, mut values) = layers::bench_layers(tmp.path(), opts.seed, opts.scale, &root)?;
    values.push((
        "dmgen.generate_mb_per_s",
        inputs.gen_bytes as f64 / 1e6 / inputs.gen_busy.as_secs_f64(),
    ));
    let phase = budget / 2;

    let before = daemon_metrics(addr)?;
    let stop = Stop::At(Instant::now() + phase);
    let (plain, wall) = run_clients(addr, &inputs, &mut draws, stop, 1, false, Some(&root));
    let served = daemon_metrics(addr)?.diff(&before);

    obs::enable(obs::DEFAULT_CAPACITY);
    let stop = Stop::At(Instant::now() + phase);
    let (traced, _) = run_clients(
        addr,
        &inputs,
        &mut draws,
        stop,
        5_000_000,
        false,
        Some(&root),
    );
    obs::disable();
    let snap = obs::snapshot();
    drain(daemon)?;

    let quantile = |name: &str, q: f64| {
        served
            .histograms
            .get(name)
            .and_then(|h| h.quantile(q))
            .unwrap_or(0.0)
    };
    for (name, hist, q) in [
        ("sortd.queue_wait_p50_us", "sortd.queue_wait_us", 0.50),
        ("sortd.queue_wait_p99_us", "sortd.queue_wait_us", 0.99),
        ("sortd.exec_p50_us", "sortd.exec_us", 0.50),
        ("sortd.exec_p99_us", "sortd.exec_us", 0.99),
        ("sortd.e2e_p50_us", "sortd.e2e_us", 0.50),
        ("sortd.e2e_p99_us", "sortd.e2e_us", 0.99),
    ] {
        values.push((name, quantile(hist, q)));
    }
    let all = plain.all_ms();
    let p50_ms = stats::median(&all).unwrap_or(0.0);
    let small_p50_ms = stats::median(&plain.small_ms).unwrap_or(0.0);
    let alone: Vec<f64> = inputs
        .small
        .iter()
        .map(exec_alone_us)
        .collect::<io::Result<_>>()?;
    let alone_us = stats::median(&alone).unwrap_or(0.0);
    let transfer_us = inputs.small[0].input.len() as f64 / host.loopback;
    let daemon_us = quantile("sortd.queue_wait_us", 0.5) + quantile("sortd.exec_us", 0.5);
    // The tail is taken over both loops: half a pass alone leaves too few
    // jobs beyond the 99th percentile to report one.
    let both: Vec<f64> = all.iter().chain(&traced.all_ms()).copied().collect();
    values.extend([
        ("sortd.small_p50_ms", small_p50_ms),
        (
            "sortd.large_p50_ms",
            stats::median(&plain.large_ms).unwrap_or(0.0),
        ),
        (
            "sortd.client_p99_ms",
            stats::tail(&both, 0.99).unwrap_or(0.0),
        ),
        (
            "sortd.jobs_per_s",
            (plain.attempted - plain.failed) as f64 / wall,
        ),
        ("sortd.retries", plain.retries as f64),
        ("sortd.exec_alone_p50_us", alone_us),
        ("sortd.transfer_floor_p50_us", transfer_us),
        (
            "sortd.floor_ratio",
            small_p50_ms * 1e3 / (transfer_us + alone_us),
        ),
        (
            "sortd.unattributed_pct",
            100.0 * (p50_ms * 1e3 - daemon_us) / (p50_ms * 1e3),
        ),
        ("obs.spans_recorded", snap.events.len() as f64),
        ("obs.spans_dropped", snap.dropped as f64),
    ]);
    if let Some(traced_p50) = stats::median(&traced.all_ms()) {
        values.push((
            "obs.trace_overhead_pct",
            100.0 * (traced_p50 / p50_ms - 1.0),
        ));
    }

    let spans = rec.spans();
    print!("{}", crate::spans::self_time_table(&spans));
    if opts.scale == 1.0 {
        let path = opts.out.join(format!("trace-{}.json", opts.workload));
        crate::spans::write_chrome_trace(&path, &spans, Some(&snap))?;
        notes.push(format!("trace written to {}", path.display()));
    }
    Ok(RunOutput {
        report: per_layer_report(
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &values,
        ),
        notes,
    })
}
