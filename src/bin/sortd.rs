//! `sortd` — the sort-as-a-service daemon and its command-line client.
//!
//! ```text
//! sortd serve  [--listen ADDR] [--pool-mem BYTES] [--pool-scratch BYTES]
//!              [--queue-bound N] [--bypass-limit N] [--scratch-dir DIR]
//!              [--journal DIR] [--trace-out TRACE.json] [--metrics-out METRICS.json]
//!              [--client-timeout-secs N] [--client-write-timeout-secs N]
//!              [--recovered-grace-ms MS]
//! sortd submit --addr ADDR (--in FILE | --gen RECORDS[:SEED]) [--out FILE]
//!              [--mem BYTES] [--scratch BYTES] [--merge-workers N] [--name NAME]
//!              [--idem-key KEY] [--deadline-ms N]
//! sortd fleet  --addr ADDR [--jobs N] [--threads N] [--records N] [--mem BYTES]
//!              [--retries N]
//! sortd stats  --addr ADDR
//! sortd top    --addr ADDR [--interval-ms N] [--iters N]
//! sortd status --addr ADDR --job ID
//! sortd cancel --addr ADDR --job ID
//! sortd drain  --addr ADDR
//! ```
//!
//! Each subcommand has its own flag table (`sortd --help` prints them all);
//! a flag that belongs to another subcommand is refused, not ignored. The
//! command-line rules are `alphasort_suite::cli`'s.
//!
//! `serve` prints `sortd listening on ADDR` (with the resolved port) and
//! runs until a client sends `drain`. With `--scratch-dir`, two-pass jobs
//! spill to one shared striped volume of disk-image files in DIR, each
//! job under its own run-file namespace; without it, scratch lives in
//! memory. With `--journal DIR`, every job lifecycle transition is
//! journaled to DIR and a restarted daemon pointed at the same journal
//! (and scratch dir) recovers: settled jobs answer re-submitted
//! idempotency keys from the record, interrupted two-pass jobs reattach
//! their surviving scratch runs so only the lost tail re-forms.
//!
//! `submit` streams a file (or a freshly generated Datamation input) to
//! the daemon and writes the sorted bytes to `--out`. With `--gen` it
//! prints the input fingerprint as `checksum COUNT:SUM:XOR` — feed that to
//! `valsort --expect` to validate the output end to end.
//!
//! `fleet` is a synthetic client fleet for smoke tests: N generated jobs
//! over T client threads, every output checked against an in-process
//! stable sort; exits non-zero on any mismatch or non-retryable failure.
//!
//! `top` polls the daemon's `metrics` wire document and diffs successive
//! snapshots into interval rates: jobs/s by outcome, admission
//! bypass/aging rates, pool utilization, and live p50/p99 latencies from
//! the histogram delta. With `--iters 0` (the default) it refreshes the
//! terminal forever; a finite `--iters` prints that many plain blocks and
//! exits — the scriptable form CI uses.
//!
//! `serve --trace-out`/`--metrics-out` mirror sortcli and netsort: the
//! daemon runs with tracing enabled and writes a Chrome trace and/or the
//! obs metrics document — the `MetricsSnapshot` form its own `metrics`
//! request answers with — when it drains.

use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use alphasort_suite::cli::Arg::{Req, Val};
use alphasort_suite::cli::{self, failed, Artifacts, Command, Flag, Flags, Stop};
use alphasort_suite::dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_suite::obs;
use alphasort_suite::obs::MetricsSnapshot;
use alphasort_suite::sortd::{
    AdmissionConfig, Client, JobSpec, PoolConfig, RetryPolicy, ScratchBacking, Sortd, SortdConfig,
};

const ADDR: Flag = Flag("--addr", Req("ADDR"));
const JOB: Flag = Flag("--job", Req("ID"));

/// A subcommand: flags only, no positionals.
const fn sub(
    name: &'static str,
    flags: &'static [Flag],
    run: fn(&Flags) -> Result<(), Stop>,
) -> Command {
    Command {
        name,
        positionals: &[],
        flags,
        run,
    }
}

const COMMANDS: [Command; 8] = [
    sub(
        "sortd serve",
        &[
            Flag("--listen", Val("ADDR")),
            Flag("--pool-mem", Val("BYTES")),
            Flag("--pool-scratch", Val("BYTES")),
            Flag("--queue-bound", Val("N")),
            Flag("--bypass-limit", Val("N")),
            Flag("--scratch-dir", Val("DIR")),
            Flag("--journal", Val("DIR")),
            Flag("--trace-out", Val("TRACE.json")),
            Flag("--metrics-out", Val("METRICS.json")),
            Flag("--client-timeout-secs", Val("N")),
            Flag("--client-write-timeout-secs", Val("N")),
            Flag("--recovered-grace-ms", Val("MS")),
        ],
        cmd_serve,
    ),
    sub(
        "sortd submit",
        &[
            ADDR,
            Flag("--in", Val("FILE")),
            Flag("--gen", Val("RECORDS[:SEED]")),
            Flag("--out", Val("FILE")),
            Flag("--mem", Val("BYTES")),
            Flag("--scratch", Val("BYTES")),
            Flag("--merge-workers", Val("N")),
            Flag("--name", Val("NAME")),
            Flag("--idem-key", Val("KEY")),
            Flag("--deadline-ms", Val("N")),
        ],
        cmd_submit,
    ),
    sub(
        "sortd fleet",
        &[
            ADDR,
            Flag("--jobs", Val("N")),
            Flag("--threads", Val("N")),
            Flag("--records", Val("N")),
            Flag("--mem", Val("BYTES")),
            Flag("--retries", Val("N")),
        ],
        cmd_fleet,
    ),
    sub("sortd stats", &[ADDR], cmd_stats),
    sub(
        "sortd top",
        &[
            ADDR,
            Flag("--interval-ms", Val("N")),
            Flag("--iters", Val("N")),
        ],
        cmd_top,
    ),
    sub("sortd status", &[ADDR, JOB], cmd_status),
    sub("sortd cancel", &[ADDR, JOB], cmd_cancel),
    sub("sortd drain", &[ADDR], cmd_drain),
];

fn main() -> ExitCode {
    cli::main(&COMMANDS)
}

/// The daemon a client subcommand talks to.
fn addr(flags: &Flags) -> Result<SocketAddr, Stop> {
    let a = flags.get("--addr").expect("--addr is a required flag");
    let resolved = a.to_socket_addrs().ok().and_then(|mut it| it.next());
    resolved.ok_or_else(|| Stop::usage(format!("cannot resolve {a}")))
}

fn cmd_serve(flags: &Flags) -> Result<(), Stop> {
    let pool = PoolConfig {
        mem_total: flags.num("--pool-mem", 256u64 << 20)?,
        scratch_total: flags.num("--pool-scratch", 1u64 << 30)?,
    };
    let admission = AdmissionConfig {
        queue_bound: flags.num("--queue-bound", 256usize)?,
        bypass_limit: flags.num("--bypass-limit", 8u32)?,
    };
    let client_read_timeout = Duration::from_secs(flags.num("--client-timeout-secs", 120)?);
    let client_write_timeout = Duration::from_secs(flags.num("--client-write-timeout-secs", 30)?);
    let recovered_grace = Duration::from_millis(flags.num("--recovered-grace-ms", 60_000)?);
    let backing = match flags.get("--scratch-dir") {
        Some(dir) => ScratchBacking::SharedVolume(
            cli::scratch_volume(Path::new(dir), cli::SCRATCH_DISKS, Default::default())?,
            cli::SCRATCH_CHUNK,
        ),
        None => ScratchBacking::Memory,
    };
    // Parity with sortcli/netsort: record the daemon's whole lifetime and
    // write the artifacts at drain. (Daemon latency *histograms* are
    // always on regardless; these flags add span traces + obs metrics.)
    let artifacts = Artifacts::record(flags);
    let daemon = Sortd::start(SortdConfig {
        listen: flags.get("--listen").unwrap_or("127.0.0.1:0").to_string(),
        pool,
        admission,
        backing,
        client_read_timeout,
        client_write_timeout,
        journal: flags.get("--journal").map(Into::into),
        recovered_grace,
        ..SortdConfig::default()
    })
    .map_err(failed("cannot start daemon"))?;
    // The resolved-port line is the startup handshake scripts wait for.
    println!("sortd listening on {}", daemon.addr());
    std::io::stdout().flush().ok();
    // Serve until a client drains us. The handle blocks here; all work
    // happens on the daemon's connection threads.
    daemon.wait_drained();
    eprintln!("sortd drained: {}", daemon.stats().dump());
    artifacts.write(false)?;
    if !daemon.pool_idle() {
        return Err(Stop::Failed("pool accounting not zero after drain".into()));
    }
    Ok(())
}

fn cmd_submit(flags: &Flags) -> Result<(), Stop> {
    let addr = addr(flags)?;
    let (data, fingerprint) = match (flags.get("--in"), flags.get("--gen")) {
        (Some(path), None) => {
            let data = std::fs::read(path).map_err(failed(format!("cannot read {path}")))?;
            (data, None)
        }
        (None, Some(spec)) => {
            let (records, seed) = cli::parse_gen(spec)?;
            let (data, checksum) = generate(GenConfig::datamation(records, seed));
            (data, Some(checksum))
        }
        _ => return Err(Stop::usage("exactly one of --in or --gen is required")),
    };
    let spec = JobSpec {
        name: flags.get("--name").unwrap_or("cli").to_string(),
        input_bytes: data.len() as u64,
        mem_budget: flags.num("--mem", 64u64 << 20)?,
        scratch_budget: flags.num("--scratch", data.len() as u64 + RECORD_LEN as u64)?,
        merge_workers: flags.num("--merge-workers", 0usize)?,
        idem_key: flags.get("--idem-key").map(Into::into),
        deadline_ms: flags.num("--deadline-ms", 0u64)?,
        ..JobSpec::default()
    };
    let client = Client::new(addr).with_timeout(Duration::from_secs(600));
    let started = Instant::now();
    let res = client
        .submit(&spec, &data)
        .map_err(failed("submit failed"))?;
    if res.duplicate {
        eprintln!(
            "job {}: duplicate of a settled job — {} records, answered from the journal",
            res.job_id, res.records
        );
        return Ok(());
    }
    eprintln!(
        "job {} ({}): {} records sorted in {:.3} s ({}{})",
        res.job_id,
        res.plan,
        res.records,
        started.elapsed().as_secs_f64(),
        if res.queued { "queued, then ran" } else { "ran immediately" },
        if res.queued {
            format!(" at depth {}", res.queue_depth)
        } else {
            String::new()
        },
    );
    if let Some(path) = flags.get("--out") {
        std::fs::write(path, &res.output).map_err(failed(format!("cannot write {path}")))?;
        eprintln!("wrote {} bytes to {path}", res.output.len());
    }
    if let Some(c) = fingerprint {
        // The line valsort --expect consumes.
        println!("checksum {}:{}:{}", c.count, c.sum, c.xor);
    }
    Ok(())
}

fn cmd_fleet(flags: &Flags) -> Result<(), Stop> {
    let addr = addr(flags)?;
    let jobs: u64 = flags.num("--jobs", 64)?;
    let threads: u64 = flags.num("--threads", 8)?;
    let records: u64 = flags.num("--records", 1_000)?;
    let mem: u64 = flags.num("--mem", 1u64 << 20)?;
    // --retries N switches the fleet to the client's bounded, idempotent
    // retry policy (N attempts, jittered linear backoff, one key per job).
    // Without it the fleet keeps its historical unbounded exponential loop.
    let retries: u32 = flags.num("--retries", 0)?;
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        handles.push(thread::spawn(move || -> Result<u64, String> {
            let client = Client::new(addr).with_timeout(Duration::from_secs(600));
            let mut ran = 0;
            for j in (t..jobs).step_by(threads.max(1) as usize) {
                let (data, _) = generate(GenConfig::datamation(records, 7_000 + j));
                let spec = JobSpec {
                    name: format!("fleet-{j}"),
                    input_bytes: data.len() as u64,
                    mem_budget: mem,
                    scratch_budget: data.len() as u64 + RECORD_LEN as u64,
                    merge_workers: 0,
                    idem_key: (retries > 0).then(|| format!("fleet-job-{j}")),
                    ..JobSpec::default()
                };
                let res = if retries > 0 {
                    let policy = RetryPolicy {
                        attempts: retries,
                        base_backoff: Duration::from_millis(5),
                        seed: 0xf1ee7 ^ j,
                    };
                    match client.submit_with_retry(&spec, &data, &policy) {
                        Ok(r) => r,
                        Err(e) => return Err(format!("fleet-{j}: {e}")),
                    }
                } else {
                    let mut delay = Duration::from_millis(5);
                    loop {
                        match client.submit(&spec, &data) {
                            Ok(r) => break r,
                            Err(e) if e.retryable() => {
                                thread::sleep(delay);
                                delay = (delay * 2).min(Duration::from_millis(250));
                            }
                            Err(e) => return Err(format!("fleet-{j}: {e}")),
                        }
                    }
                };
                if res.duplicate {
                    // A retry raced a completed first attempt; the bytes
                    // already reached that attempt, nothing to re-check.
                    ran += 1;
                    continue;
                }
                let mut want = data.clone();
                records_of_mut(&mut want).sort_by_key(|r| r.key);
                if res.output != want {
                    return Err(format!("fleet-{j}: output diverged from oracle"));
                }
                ran += 1;
            }
            Ok(ran)
        }));
    }
    let mut total = 0;
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("fleet thread panicked") {
            Ok(n) => total += n,
            Err(e) => failures.push(e),
        }
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "fleet: {total}/{jobs} jobs ok in {secs:.3} s ({:.1} jobs/s), all outputs oracle-checked",
        total as f64 / secs
    );
    if !failures.is_empty() || total != jobs {
        return Err(Stop::Failed(format!(
            "fleet: {} of {jobs} jobs did not succeed",
            jobs - total
        )));
    }
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), Stop> {
    let client = Client::new(addr(flags)?);
    let doc = client.stats().map_err(failed("stats failed"))?;
    println!("{}", doc.dump_pretty());
    Ok(())
}

/// `sortd top`: poll the `metrics` wire doc, diff successive snapshots
/// into interval rates, render. Counter deltas over the *daemon's* uptime
/// delta (not local wall clock) so rates are immune to poll jitter;
/// latency quantiles come from the histogram diff, so they describe only
/// the jobs that finished in the interval.
fn cmd_top(flags: &Flags) -> Result<(), Stop> {
    let addr = addr(flags)?;
    let interval = Duration::from_millis(flags.num("--interval-ms", 1_000u64)?.max(10));
    let iters: u64 = flags.num("--iters", 0)?; // 0 = refresh forever
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let fetch = || -> Result<(MetricsSnapshot, u64), Stop> {
        let doc = client.metrics().map_err(failed("metrics request failed"))?;
        let uptime = doc.field_u64("uptime_ms").unwrap_or(0);
        let snap = MetricsSnapshot::from_json(&doc).map_err(failed("cannot decode metrics doc"))?;
        Ok((snap, uptime))
    };
    let (mut prev, mut prev_uptime) = fetch()?;
    let mut shown = 0u64;
    loop {
        thread::sleep(interval);
        let (cur, uptime) = fetch()?;
        let dt_s = uptime.saturating_sub(prev_uptime).max(1) as f64 / 1_000.0;
        let delta = cur.diff(&prev);
        if iters == 0 {
            // Clear screen + home: a live refreshing view.
            print!("\x1b[2J\x1b[H");
        }
        render_top(addr, &cur, &delta, dt_s, uptime);
        std::io::stdout().flush().ok();
        (prev, prev_uptime) = (cur, uptime);
        shown += 1;
        if iters > 0 && shown >= iters {
            return Ok(());
        }
    }
}

fn render_top(addr: SocketAddr, cur: &MetricsSnapshot, delta: &MetricsSnapshot, dt_s: f64, uptime_ms: u64) {
    let rate = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64 / dt_s;
    let gauge = |name: &str| cur.gauges.get(name).copied().unwrap_or(0);
    let pct_of = |used: i64, total: i64| {
        if total > 0 { 100.0 * used as f64 / total as f64 } else { 0.0 }
    };
    let mb = |v: i64| v as f64 / (1 << 20) as f64;
    println!(
        "sortd top — {addr} · up {:.1} s · interval {dt_s:.1} s",
        uptime_ms as f64 / 1_000.0
    );
    println!(
        "jobs      {:.1} jobs/s done · {:.1}/s submitted · {:.1}/s failed · {:.1}/s rejected · {:.1}/s canceled",
        rate("sortd.jobs.done"),
        rate("sortd.jobs.submitted"),
        rate("sortd.jobs.failed"),
        rate("sortd.jobs.rejected"),
        rate("sortd.jobs.canceled"),
    );
    println!(
        "admission {:.1}/s bypasses · {:.1}/s aged barriers · queue {}/{} · running {} · draining {}",
        rate("sortd.admission.bypasses"),
        rate("sortd.admission.aged_barriers"),
        gauge("sortd.queue.depth"),
        gauge("sortd.queue.bound"),
        gauge("sortd.running"),
        if gauge("sortd.draining") != 0 { "yes" } else { "no" },
    );
    // Durability counters are lifetime totals, not rates: recovery happens
    // once at startup and deadline kills are rare, so totals read better.
    let total = |name: &str| cur.counters.get(name).copied().unwrap_or(0);
    println!(
        "recovery  {} jobs recovered · {} runs reattached · {} re-formed · {} scratch disposed · {} deadline kills · {} duplicates answered",
        total("sortd.recovery.jobs_recovered"),
        total("sortd.recovery.runs_recovered"),
        total("sortd.recovery.runs_reformed"),
        total("sortd.recovery.scratch_disposed"),
        total("sortd.deadline.kills"),
        total("sortd.jobs.duplicates"),
    );
    println!(
        "pool      mem {:.1}/{:.1} MB ({:.0}%) · scratch {:.1}/{:.1} MB ({:.0}%)",
        mb(gauge("sortd.pool.mem_in_use")),
        mb(gauge("sortd.pool.mem_total")),
        pct_of(gauge("sortd.pool.mem_in_use"), gauge("sortd.pool.mem_total")),
        mb(gauge("sortd.pool.scratch_in_use")),
        mb(gauge("sortd.pool.scratch_total")),
        pct_of(gauge("sortd.pool.scratch_in_use"), gauge("sortd.pool.scratch_total")),
    );
    // Interval quantiles: only jobs finished this interval. A quiet
    // interval has no samples, so show dashes rather than stale numbers.
    let q = |h: Option<&obs::Histogram>, p: f64| h.and_then(|h| h.quantile(p));
    let fmt_q = |v: Option<f64>| match v {
        Some(us) => format!("{us:.0} µs"),
        None => "-".to_string(),
    };
    let e2e = delta.histograms.get("sortd.e2e_us");
    let exec = delta.histograms.get("sortd.exec_us");
    let wait = delta.histograms.get("sortd.queue_wait_us");
    println!(
        "latency   e2e p50 {} · p99 {} · exec p50 {} · queue-wait p99 {} ({} jobs this interval)",
        fmt_q(q(e2e, 0.50)),
        fmt_q(q(e2e, 0.99)),
        fmt_q(q(exec, 0.50)),
        fmt_q(q(wait, 0.99)),
        e2e.map(|h| h.count()).unwrap_or(0),
    );
}

fn cmd_status(flags: &Flags) -> Result<(), Stop> {
    let job = flags.num("--job", 0)?;
    let client = Client::new(addr(flags)?);
    let doc = client.status(job).map_err(failed("status failed"))?;
    println!("{}", doc.dump_pretty());
    Ok(())
}

fn cmd_cancel(flags: &Flags) -> Result<(), Stop> {
    let job = flags.num("--job", 0)?;
    let client = Client::new(addr(flags)?);
    if !client.cancel(job).map_err(failed("cancel failed"))? {
        return Err(Stop::Failed(format!(
            "job {job} was not queued (already running, done, or unknown)"
        )));
    }
    eprintln!("job {job} canceled");
    Ok(())
}

fn cmd_drain(flags: &Flags) -> Result<(), Stop> {
    let client = Client::new(addr(flags)?).with_timeout(Duration::from_secs(600));
    let doc = client.drain().map_err(failed("drain failed"))?;
    println!("{}", doc.dump());
    Ok(())
}
