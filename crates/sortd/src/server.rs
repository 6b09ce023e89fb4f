//! The daemon: accept loop, per-connection request dispatch, the job
//! lifecycle, crash recovery, watchdog, and graceful drain.
//!
//! Threading model — one thread per connection, and the job *runs on the
//! connection thread that submitted it*, as a straight line of stages
//! (`handle_submit`): **parse** the manifest → **gate** (validate,
//! idempotency check, id assigned: `accepted`) → **receive** the payload →
//! **admit** (`running` or `queued`; journal, then ack) → **wait** (parked
//! on a channel if queued) → **execute** → **settle** → **reply**.
//! Admission is the concurrency limiter: a job holds a thread while queued
//! (parked, not spinning) and while running. Pool *budget* is held only
//! while running, but a queued job is not free: its full input payload
//! already sits in daemon memory (the payload is read before the admission
//! offer, so a slow client can never stall the admission lock), and that
//! residency is outside pool accounting. Per job it is bounded by manifest
//! validation (an input can't exceed the larger pool total), so the worst
//! case is `queue_bound × max input size` — size `queue_bound` with that
//! product in mind, not just queue-depth taste.
//! The shared `Core` behind one mutex holds the admission state machine,
//! the job table, and the waiter channels; neither the sort nor any
//! journal IO runs under the lock.
//!
//! **Lifecycle** — `State::transition` is the only code that moves a job
//! between [`JobState`]s. Every way out — the sort's own result, an
//! admission reject, a failed ack write, cancel, drain, the watchdog — is
//! an `Event::Exit` handed to it; it reads what the job holds off the
//! job's *current* state and owns every effect of the move (the table is
//! in DESIGN.md, "Durability & recovery"). Settling a settled job does
//! nothing, so racing exits are benign.
//!
//! **Durability** (`journal` configured): every accepted job has a
//! write-ahead record (see [`crate::journal`]), keyed by its idempotency
//! key. A record is always derived from the job table under the lock and
//! written outside it, in sequence order per key, so it only moves
//! forward; a write that fails is logged against its job and counted
//! (`journal_write_errors`). Restart replays the journal: terminal jobs
//! become the dedupe set (re-submitting their key answers from the record
//! without re-executing — at-most-once), non-terminal jobs are stamped
//! `interrupted` and, when their scratch manifest survived, wait in a
//! pending-recovery set. Re-submitting an interrupted key re-runs the job
//! with its scratch *resumed*, so only lost runs re-form; interrupted
//! scratch nobody reclaims within `recovered_grace` is disposed by the
//! watchdog (no surviving client).
//!
//! **Watchdog** — a single daemon thread that, each tick, (1) ends jobs
//! past their `deadline_ms` or whose submitting connection died (a queued
//! job exits at once; a running one gets a cooperative [`CancelToken`] the
//! executor polls at chunk granularity and exits through its own thread),
//! and (2) disposes unreclaimed recovered scratch after the grace period.
//!
//! Drain (`drain()` on the handle, or a `{"type":"drain"}` request):
//! 1. stop admitting — every queued job fails with the retryable
//!    `draining` error and its waiter wakes,
//! 2. running jobs finish normally,
//! 3. the accept loop stops and the listener closes (new connects are
//!    refused),
//! 4. drain returns once the pool is back to zero.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use alphasort_core::driver::StripeScratch;
use alphasort_core::SortStats;
use alphasort_minijson::Json;
use alphasort_netsort::AcceptLoop;
use alphasort_obs as obs;
use alphasort_stripefs::Volume;

use crate::admission::{Admission, AdmissionConfig, Offer};
use crate::executor::{run_job, CancelReason, CancelToken, ScratchBacking};
use crate::job::{JobSpec, JobState, SortdError};
use crate::journal::{Journal, JournalRecord};
use crate::pool::PoolConfig;
use crate::proto;
use crate::telemetry::{RunTimes, Telemetry};

/// Daemon configuration.
#[derive(Clone)]
pub struct SortdConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub listen: String,
    /// Resource pool capacities.
    pub pool: PoolConfig,
    /// Queue bound and aging limit.
    pub admission: AdmissionConfig,
    /// Where two-pass jobs spill.
    pub backing: ScratchBacking,
    /// Socket read timeout, so a stalled client cannot pin a connection
    /// thread forever mid-request.
    pub client_read_timeout: Duration,
    /// Socket write timeout, so a peer that stops *reading* cannot pin a
    /// connection thread mid-response (large result/stats writes block
    /// once the kernel send buffer fills).
    pub client_write_timeout: Duration,
    /// Write-ahead journal directory; `None` runs the daemon volatile
    /// (in-memory idempotency only, no crash recovery).
    pub journal: Option<PathBuf>,
    /// Watchdog tick interval (deadlines, dead-client sweep, scratch
    /// grace sweep).
    pub watchdog_interval: Duration,
    /// How long recovered (interrupted) scratch waits for its key to be
    /// re-submitted before the watchdog disposes it.
    pub recovered_grace: Duration,
}

impl Default for SortdConfig {
    fn default() -> Self {
        SortdConfig {
            listen: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            admission: AdmissionConfig::default(),
            backing: ScratchBacking::Memory,
            client_read_timeout: Duration::from_secs(30),
            client_write_timeout: Duration::from_secs(30),
            journal: None,
            watchdog_interval: Duration::from_millis(25),
            recovered_grace: Duration::from_secs(60),
        }
    }
}

/// What a parked submitter is woken with: `Ok` — budget reserved, go run;
/// `Err` — the job will never run (shed, drain, cancel, deadline, dead
/// client), and why.
type Wake = Result<(), SortdError>;

/// Everything the service remembers about one job.
struct JobRecord {
    /// The manifest it was accepted with: its name, the budgets it holds
    /// while running, and the `spec` of its journal record.
    spec: JobSpec,
    state: JobState,
    /// Error code, for status responses and duplicate answers after
    /// failure (`scratch_disposed` annotates a swept interrupted job).
    error: Option<String>,
    /// Records sorted (terminal `done` jobs) — the duplicate answer.
    records: u64,
    /// The key it is journaled and deduped under: the client's, or the
    /// synthetic `anon-job-<id>` so keyless jobs still journal (their
    /// scratch must be sweepable after a kill — they just can't dedupe).
    key: String,
    /// The interrupted job whose key, record and surviving scratch this
    /// job took over at the gate (a resume).
    claimed: Option<u64>,
}

/// Service counters, reported in the stats snapshot.
#[derive(Clone, Copy, Default)]
struct Counters {
    submitted: u64,
    done: u64,
    failed: u64,
    rejected: u64,
    canceled: u64,
    /// Submits answered from a terminal record without executing.
    duplicates: u64,
    /// Journaled jobs found non-terminal at restart.
    jobs_recovered: u64,
    /// Sealed pass-1 runs reused from recovered scratch.
    runs_recovered: u64,
    /// Input ranges re-formed because their runs did not survive.
    runs_reformed: u64,
    /// Recovered scratch volumes disposed unreclaimed (no surviving client).
    scratch_disposed: u64,
    /// Jobs the watchdog canceled past their deadline.
    deadline_kills: u64,
    /// Journal effects that failed: durability promised and not delivered.
    journal_write_errors: u64,
}

/// Watchdog-visible state of one live (accepted, queued or running) job.
#[derive(Default)]
struct JobWatch {
    /// Absolute deadline, set at admission when the manifest has a
    /// `deadline_ms`. Cleared when it fires so it is counted once.
    deadline: Option<Instant>,
    /// The submitting connection, registered after the ack write, so the
    /// watchdog can detect a dead client with a nonblocking peek. The
    /// submit thread never touches the socket while this is set (it is
    /// parked or sorting, and settling removes the watch under the lock
    /// before the result write), so the peek's nonblocking toggle cannot
    /// race a blocking write.
    conn: Option<TcpStream>,
    /// The cooperative cancel path once the job is running; a queued job
    /// is ended through [`State::transition`] instead.
    token: CancelToken,
}

/// What moves a job through its lifecycle.
enum Event {
    /// Offer an accepted job to admission. The sender is parked as the
    /// job's waiter if it queues — or is shed: its submitter hears either
    /// way through the same channel.
    Admit(Sender<Wake>),
    /// The job leaves: with what its sort produced, or with the error that
    /// ended it. `ran` carries the stage times of a job that executed.
    Exit {
        outcome: Result<Box<SortStats>, SortdError>,
        ran: Option<RunTimes>,
    },
}

/// The exit of a job that did not execute.
fn unrun(err: SortdError) -> Event {
    Event::Exit { outcome: Err(err), ran: None }
}

/// What a transition did.
#[derive(Default)]
struct Moved {
    /// The job's state now; `None` when the event does not apply to the
    /// state it was in (already settled, unknown id) and nothing changed.
    to: Option<JobState>,
    /// Queue position of a job that queued (1 = next in line).
    depth: usize,
    /// For [`State::journal`], once the core lock is dropped.
    journal: Option<JournalOp>,
}

/// One journal effect of a transition, decided under the core lock.
struct JournalOp {
    /// Order among the effects on `key`: a later one supersedes this.
    seq: u64,
    job: u64,
    key: String,
    /// The record to write; `None` removes the key's record.
    record: Option<JournalRecord>,
    /// Free the key's scratch runs and manifest first: nobody will resume
    /// them (claimed by a job that settled unexecuted, or past the grace).
    dispose_scratch: bool,
}

/// Shared mutable state.
struct Core {
    admission: Admission,
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    running: usize,
    /// Connection-handler threads currently alive; `wait_drained` holds
    /// the process open until responses (the drain ack included) flush.
    active_conns: usize,
    counters: Counters,
    waiters: HashMap<u64, Sender<Wake>>,
    /// Idempotency key → the job that owns it: a live job (the key is in
    /// flight), a settled one (the dedupe answer) or an interrupted one
    /// (the next submit resumes it).
    idem: HashMap<String, u64>,
    /// Live jobs the watchdog oversees.
    watch: HashMap<u64, JobWatch>,
    /// Interrupted keys with surviving scratch, waiting to be re-claimed;
    /// the value is when recovery saw them (grace-sweep clock).
    recovered: HashMap<String, Instant>,
    /// Always-on service telemetry: uptime + latency histograms.
    telemetry: Telemetry,
    /// Last sequence number handed to a [`JournalOp`].
    journal_seq: u64,
}

impl Core {
    fn new(admission: Admission) -> Core {
        Core {
            admission,
            jobs: BTreeMap::new(),
            next_id: 1,
            running: 0,
            active_conns: 0,
            counters: Counters::default(),
            waiters: HashMap::new(),
            idem: HashMap::new(),
            watch: HashMap::new(),
            recovered: HashMap::new(),
            telemetry: Telemetry::new(),
            journal_seq: 0,
        }
    }

    /// Mark `promoted` jobs running and wake their parked submitters.
    fn start(&mut self, promoted: Vec<u64>) {
        for id in promoted {
            if let Some(rec) = self.jobs.get_mut(&id) {
                rec.state = JobState::Running;
            }
            self.running += 1;
            if let Some(tx) = self.waiters.remove(&id) {
                let _ = tx.send(Ok(()));
            }
        }
    }
}

struct State {
    core: Mutex<Core>,
    /// Signaled when `running` drops — drain waits here.
    cv: Condvar,
    /// The one volume two-pass jobs spill to and its stripe chunk, resolved
    /// from the configured [`ScratchBacking`] once, at start.
    scratch: (Arc<Volume>, u64),
    /// Whether runs on that volume outlive the process (`SharedVolume`):
    /// only then are they manifested, reserved at start and disposed from
    /// their manifests.
    durable_scratch: bool,
    read_timeout: Duration,
    write_timeout: Duration,
    /// The write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// The acceptor, stoppable from drain on any thread.
    acceptor: Mutex<Option<AcceptLoop>>,
}

impl State {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("a handler panicked holding the core lock")
    }

    /// The one transition function: apply `event` to job `id` from
    /// whatever state the table says it is in, with every effect of the
    /// move (module doc, "Lifecycle"). An event that does not apply to that
    /// state — an exit for a settled job — changes nothing and says so.
    fn transition(&self, core: &mut Core, id: u64, event: Event) -> Moved {
        let Some(rec) = core.jobs.get(&id) else { return Moved::default() };
        let (from, mem, scratch) = (rec.state, rec.spec.mem_budget, rec.spec.scratch_budget);
        let (outcome, ran) = match (from, event) {
            (JobState::Accepted, Event::Admit(waker)) => {
                let deadline_ms = rec.spec.deadline_ms;
                let mut promoted = Vec::new();
                let depth = match core.admission.offer(id, mem, scratch, &mut promoted) {
                    Offer::Rejected(err) => {
                        // Shed: out through the same exit as everyone else.
                        core.waiters.insert(id, waker);
                        return self.transition(core, id, unrun(err));
                    }
                    Offer::Admitted => {
                        promoted.push(id);
                        0
                    }
                    Offer::Queued { depth } => {
                        core.waiters.insert(id, waker);
                        core.jobs.get_mut(&id).expect("looked up above").state = JobState::Queued;
                        depth
                    }
                };
                core.start(promoted);
                if let (Some(w), true) = (core.watch.get_mut(&id), deadline_ms > 0) {
                    w.deadline = Some(Instant::now() + Duration::from_millis(deadline_ms));
                }
                return Moved {
                    to: core.jobs.get(&id).map(|r| r.state),
                    depth,
                    journal: self.journal_op(core, id, true, false),
                };
            }
            (
                JobState::Accepted | JobState::Queued | JobState::Running,
                Event::Exit { outcome, ran },
            ) => (outcome, ran),
            _ => return Moved::default(),
        };

        // Give back what the job held in the state it leaves from.
        if from == JobState::Queued {
            core.admission.cancel_queued(id);
        }
        if from == JobState::Running {
            let mut promoted = Vec::new();
            core.admission.release(mem, scratch, &mut promoted);
            core.start(promoted);
            core.running -= 1;
            self.cv.notify_all();
        }
        core.watch.remove(&id);
        if let (Some(tx), Err(err)) = (core.waiters.remove(&id), &outcome) {
            let _ = tx.send(Err(err.clone()));
        }
        // Every job that ran — success or exec failure — lands in the
        // latency histograms; jobs that never ran do not.
        if let Some(times) = ran {
            core.telemetry.record_run(times);
        }

        // The policy: where the job ends, which counter it moves, and
        // whether its outcome pins the key (at-most-once only pins keys
        // whose jobs reached an outcome; leaving unrun must not poison the
        // client's retry of the same key).
        let counters = &mut core.counters;
        let (state, pins_key, counter) = match &outcome {
            Ok(sorted) => {
                counters.runs_recovered += sorted.runs_recovered;
                counters.runs_reformed += sorted.runs_reformed;
                (JobState::Done, true, &mut counters.done)
            }
            Err(SortdError::Canceled) => (JobState::Canceled, true, &mut counters.canceled),
            Err(e) if e.retryable() && from == JobState::Accepted => {
                (JobState::Failed, false, &mut counters.rejected)
            }
            Err(e) if e.retryable() || *e == SortdError::ClientGone => {
                (JobState::Failed, false, &mut counters.failed)
            }
            Err(_) => (JobState::Failed, true, &mut counters.failed),
        };
        *counter += 1;
        let rec = core.jobs.get_mut(&id).expect("looked up above");
        rec.state = state;
        rec.error = outcome.as_ref().err().map(|e| e.code().to_string());
        rec.records = outcome.map_or(0, |stats| stats.records);
        // Scratch claimed from an interrupted job and never executed on is
        // still exactly as replay found it.
        let unused_claim = rec.claimed.filter(|_| ran.is_none());
        let key = rec.key.clone();
        let journal = if pins_key {
            self.journal_op(core, id, true, unused_claim.is_some())
        } else if let Some(prior) = unused_claim {
            // Back to how replay left it: the interrupted job owns the
            // key again, with a fresh grace clock.
            core.idem.insert(key.clone(), prior);
            core.recovered.insert(key, Instant::now());
            self.journal_op(core, prior, true, false)
        } else {
            core.idem.remove(&key);
            self.journal_op(core, id, false, false)
        };
        Moved {
            to: Some(state),
            depth: 0,
            journal,
        }
    }

    /// The journal effect for `job`'s key: write the record the job's
    /// *current* state calls for, or (`write == false`) remove it.
    fn journal_op(&self, core: &mut Core, job: u64, write: bool, dispose_scratch: bool) -> Option<JournalOp> {
        let journal = self.journal.as_ref()?;
        let rec = core.jobs.get(&job)?;
        // Journal schema v1 has no `queued`: a queued job is `accepted`.
        let state = match rec.state {
            JobState::Queued => JobState::Accepted,
            other => other,
        };
        let record = write.then(|| JournalRecord {
            key: rec.key.clone(),
            job_id: job,
            state: state.name().into(),
            spec: rec.spec.clone(),
            records: rec.records,
            error: rec.error.clone(),
            // From `running` on, a kill leaves a resumable job: point at
            // where its sealed runs are manifested.
            scratch_manifest: (state != JobState::Accepted)
                .then(|| journal.scratch_manifest_path(&rec.key)),
        });
        core.journal_seq += 1;
        Some(JournalOp {
            seq: core.journal_seq,
            job,
            key: rec.key.clone(),
            record,
            dispose_scratch,
        })
    }

    /// Carry out journal effects with the core lock *not* held; returns the
    /// time it took. The one place a journal IO error is handled: logged
    /// against its job and counted — the job's outcome stands in memory.
    fn journal(&self, ops: impl IntoIterator<Item = JournalOp>) -> Duration {
        let Some(journal) = &self.journal else { return Duration::ZERO };
        let started = Instant::now();
        for op in ops {
            let effect = || {
                let manifest = journal.scratch_manifest_path(&op.key);
                let dispose = op.dispose_scratch && manifest.exists();
                let disposed = match (dispose, self.durable_scratch) {
                    (false, _) => Ok(()),
                    (true, true) => StripeScratch::dispose_at(&self.scratch.0, &manifest).map(drop),
                    (true, false) => std::fs::remove_file(&manifest),
                };
                let written = match &op.record {
                    Some(rec) => journal.record(rec),
                    None => journal.remove(&op.key),
                };
                disposed.and(written)
            };
            if let Err(e) = journal.in_order(&op.key, op.seq, effect) {
                eprintln!("sortd: journal: job {} (key {:?}): {e}", op.job, op.key);
                obs::metrics::counter_add("sortd.journal.write_errors", 1);
                self.lock().counters.journal_write_errors += 1;
            }
        }
        started.elapsed()
    }

    /// A transition from a thread that holds no lock: lock, apply, unlock,
    /// journal. Returns what moved and the journal time.
    fn drive(&self, id: u64, event: Event) -> (Moved, Duration) {
        let mut moved = self.transition(&mut self.lock(), id, event);
        let spent = self.journal(moved.journal.take());
        (moved, spent)
    }
}

/// Handle to a running daemon.
pub struct Sortd {
    state: Arc<State>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    watchdog: Option<thread::JoinHandle<()>>,
}

impl Sortd {
    /// Bind, replay the journal (when configured), spawn the watchdog and
    /// the accept loop, and return the handle.
    pub fn start(cfg: SortdConfig) -> io::Result<Sortd> {
        let journal = cfg.journal.clone().map(Journal::open).transpose()?;
        let mut core = Core::new(Admission::new(cfg.pool, cfg.admission));
        let scratch = cfg.backing.volume();
        let durable_scratch = matches!(cfg.backing, ScratchBacking::SharedVolume(..));
        if let Some(j) = &journal {
            replay_journal(j, &mut core)?;
            // This volume's allocator has never heard of the runs a killed
            // daemon sealed on its disks: put it past them before any job
            // is admitted, or a two-pass job running ahead of the
            // re-submitted key is handed their extents. An unreadable
            // manifest reserves nothing — resume will discard it too.
            if durable_scratch {
                for key in core.recovered.keys() {
                    let manifest = j.scratch_manifest_path(key);
                    if let Err(e) = StripeScratch::reserve_at(&scratch.0, &manifest) {
                        eprintln!("sortd: replay: key {key:?}: {e}");
                    }
                }
            }
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let state = Arc::new(State {
            core: Mutex::new(core),
            cv: Condvar::new(),
            scratch,
            durable_scratch,
            read_timeout: cfg.client_read_timeout,
            write_timeout: cfg.client_write_timeout,
            journal,
            acceptor: Mutex::new(None),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let wd_state = Arc::clone(&state);
        let wd_stop = Arc::clone(&shutdown);
        let (interval, grace) = (cfg.watchdog_interval, cfg.recovered_grace);
        let watchdog = thread::spawn(move || {
            while !wd_stop.load(Ordering::Relaxed) {
                thread::sleep(interval);
                if wd_stop.load(Ordering::Relaxed) {
                    break;
                }
                watchdog_pass(&wd_state, grace);
            }
        });
        let for_conns = Arc::clone(&state);
        let acceptor = AcceptLoop::spawn(listener, move |stream| {
            let st = Arc::clone(&for_conns);
            st.lock().active_conns += 1;
            thread::spawn(move || {
                let _ = serve_connection(stream, &st);
                st.lock().active_conns -= 1;
                st.cv.notify_all();
            });
        })?;
        let addr = acceptor.addr();
        *state.acceptor.lock().unwrap() = Some(acceptor);
        Ok(Sortd {
            state,
            addr,
            shutdown,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (resolved port when `listen` used port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful drain; returns `(total_done, failed_queued)` once every
    /// running job has finished and the pool is idle. `total_done` is the
    /// daemon's *lifetime* completed-job count (not just jobs that
    /// finished during this drain); `failed_queued` is how many queued
    /// jobs this drain failed with the retryable `draining` error.
    pub fn drain(&self) -> (u64, u64) {
        drain_impl(&self.state)
    }

    /// Block until some client (or another thread on this handle) drains
    /// the daemon — the `serve` subcommand's main-thread park.
    pub fn wait_drained(&self) {
        let mut core = self.state.lock();
        while !(core.admission.draining() && core.running == 0 && core.active_conns == 0) {
            core = self.state.cv.wait(core).unwrap();
        }
    }

    /// Whether the pool is fully released (post-drain invariant).
    pub fn pool_idle(&self) -> bool {
        self.state.lock().admission.pool().idle()
    }

    /// Stats snapshot (same document the wire `stats` request returns).
    pub fn stats(&self) -> Json {
        stats_doc(&self.state.lock())
    }

    /// Full metrics snapshot (same document the wire `metrics` request
    /// returns); see [`proto`] for the schema.
    pub fn metrics(&self) -> Json {
        metrics_doc(&self.state.lock())
    }
}

impl Drop for Sortd {
    fn drop(&mut self) {
        // Stop accepting; don't wait for jobs (drain() is the graceful path).
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(mut a) = self.state.acceptor.lock().unwrap().take() {
            a.stop();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

/// Rebuild the job table, dedupe map, and pending-recovery set from the
/// journal. Terminal records become the at-most-once dedupe set;
/// non-terminal records are stamped `interrupted` (counted in
/// `jobs_recovered`) and, when their scratch manifest survived the kill,
/// parked in the recovered set awaiting re-submission or the grace sweep.
/// A stamp that cannot be written fails the start: a daemon that cannot
/// write its journal has no durability to offer.
fn replay_journal(journal: &Journal, core: &mut Core) -> io::Result<()> {
    let replay = journal.replay()?;
    if !replay.corrupt.is_empty() {
        obs::metrics::counter_add("sortd.journal.corrupt", replay.corrupt.len() as u64);
    }
    for mut rec in replay.records {
        core.next_id = core.next_id.max(rec.job_id + 1);
        let state = match JobState::from_name(&rec.state) {
            Some(settled) if settled.terminal() => settled,
            _ => {
                core.counters.jobs_recovered += 1;
                rec.state = JobState::Interrupted.name().into();
                journal.record(&rec)?;
                if journal.scratch_manifest_path(&rec.key).exists() {
                    core.recovered.insert(rec.key.clone(), Instant::now());
                }
                JobState::Interrupted
            }
        };
        core.idem.insert(rec.key.clone(), rec.job_id);
        core.jobs.insert(
            rec.job_id,
            JobRecord {
                spec: rec.spec,
                state,
                error: rec.error,
                records: rec.records,
                key: rec.key,
                claimed: None,
            },
        );
    }
    Ok(())
}

fn drain_impl(state: &State) -> (u64, u64) {
    let mut core = state.lock();
    // Draining is retryable, so each queued job leaves unrun: its key
    // stays reusable and the journal will not replay it as interrupted.
    let dumped = core.admission.drain();
    let failed_queued = dumped.len() as u64;
    let mut effects = Vec::new();
    for id in dumped {
        effects.extend(state.transition(&mut core, id, unrun(SortdError::Draining)).journal);
    }
    drop(core);
    state.journal(effects);
    let mut core = state.lock();
    while core.running > 0 {
        core = state.cv.wait(core).unwrap();
    }
    let total_done = core.counters.done;
    drop(core);
    if let Some(mut a) = state.acceptor.lock().unwrap().take() {
        a.stop();
    }
    // Wake wait_drained() parkers (nothing else re-checks after the last
    // running job's own notify when the queue was already empty).
    state.cv.notify_all();
    obs::metrics::counter_add("sortd.drained", 1);
    (total_done, failed_queued)
}

/// The typed error a cooperative cancel surfaces as.
fn cancel_error(reason: CancelReason, limit_ms: u64) -> SortdError {
    match reason {
        CancelReason::Deadline => SortdError::DeadlineExceeded { limit_ms },
        CancelReason::ClientGone => SortdError::ClientGone,
    }
}

/// One watchdog tick; the crate's tests call it directly so deadline and
/// sweep behavior can be driven deterministically without sleeping.
fn watchdog_pass(state: &State, grace: Duration) {
    let mut guard = state.lock();
    let core = &mut *guard;
    let now = Instant::now();
    let mut effects = Vec::new();

    // 1. Deadlines and dead submitters. A running job gets a cooperative
    // cancel (the executor errors at its next chunk and the job exits
    // through its own thread); a queued one exits here.
    let live: Vec<u64> = core.watch.keys().copied().collect();
    for id in live {
        let Some(w) = core.watch.get_mut(&id) else { continue };
        let reason = if w.deadline.is_some_and(|d| d <= now) {
            w.deadline = None; // fire once
            core.counters.deadline_kills += 1;
            CancelReason::Deadline
        } else if w.conn.as_ref().is_some_and(conn_dead) {
            w.conn = None;
            CancelReason::ClientGone
        } else {
            continue;
        };
        let Some(rec) = core.jobs.get(&id) else { continue };
        if rec.state == JobState::Running {
            w.token.cancel(reason);
        } else {
            let exit = unrun(cancel_error(reason, rec.spec.deadline_ms));
            effects.extend(state.transition(core, id, exit).journal);
        }
    }

    // 2. Recovered scratch nobody re-claimed within the grace period: the
    // submitting clients died with the old process, so dispose the runs
    // and free the key for a fresh submit.
    let due: Vec<String> = core
        .recovered
        .iter()
        .filter(|(_, since)| since.elapsed() >= grace)
        .map(|(k, _)| k.clone())
        .collect();
    let swept = due.len() as u64;
    for key in due {
        core.recovered.remove(&key);
        // Everything in `recovered` is an interrupted job's key.
        let Some(job) = core.idem.remove(&key) else { continue };
        effects.extend(state.journal_op(core, job, false, true));
        if let Some(rec) = core.jobs.get_mut(&job) {
            rec.error = Some("scratch_disposed".to_string());
        }
    }
    drop(guard);
    state.journal(effects);
    // Counted once the scratch is really gone: pollers read this counter
    // as "the sweep happened".
    if swept > 0 {
        state.lock().counters.scratch_disposed += swept;
    }
}

/// Nonblocking 1-byte peek on a submit connection the server has finished
/// reading: EOF or a hard error means the client is gone; `WouldBlock`
/// means it is still there, waiting for its response.
fn conn_dead(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return true;
    }
    let mut b = [0u8; 1];
    let dead = match conn.peek(&mut b) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = conn.set_nonblocking(false);
    dead
}

/// Every service counter and pool/queue level, once: the `stats` section
/// and key it appears under (an empty section: `metrics` only), its
/// `metrics` name, whether it is a counter there (or a gauge), and its
/// value. Both documents render from this, so they cannot drift.
fn service_table(core: &Core) -> Vec<(&'static str, &'static str, &'static str, bool, u64)> {
    const COUNTER: bool = true;
    const GAUGE: bool = false;
    let (c, a, pool) = (&core.counters, &core.admission, core.admission.pool());
    vec![
        ("pool", "mem_total", "sortd.pool.mem_total", GAUGE, pool.mem_total()),
        ("pool", "mem_in_use", "sortd.pool.mem_in_use", GAUGE, pool.mem_used()),
        ("pool", "mem_hwm", "sortd.pool.mem_hwm", GAUGE, pool.mem_hwm()),
        ("pool", "scratch_total", "sortd.pool.scratch_total", GAUGE, pool.scratch_total()),
        ("pool", "scratch_in_use", "sortd.pool.scratch_in_use", GAUGE, pool.scratch_used()),
        ("pool", "scratch_hwm", "sortd.pool.scratch_hwm", GAUGE, pool.scratch_hwm()),
        ("queue", "depth", "sortd.queue.depth", GAUGE, a.queue_depth() as u64),
        ("queue", "bound", "sortd.queue.bound", GAUGE, a.queue_bound() as u64),
        ("queue", "bypasses", "sortd.admission.bypasses", COUNTER, a.bypasses),
        ("queue", "aged_barriers", "sortd.admission.aged_barriers", COUNTER, a.aged_barriers),
        ("", "running", "sortd.running", GAUGE, core.running as u64),
        ("", "draining", "sortd.draining", GAUGE, a.draining() as u64),
        ("", "pending", "sortd.recovery.pending", GAUGE, core.recovered.len() as u64),
        ("counters", "submitted", "sortd.jobs.submitted", COUNTER, c.submitted),
        ("counters", "done", "sortd.jobs.done", COUNTER, c.done),
        ("counters", "failed", "sortd.jobs.failed", COUNTER, c.failed),
        ("counters", "rejected", "sortd.jobs.rejected", COUNTER, c.rejected),
        ("counters", "canceled", "sortd.jobs.canceled", COUNTER, c.canceled),
        ("counters", "duplicates", "sortd.jobs.duplicates", COUNTER, c.duplicates),
        ("counters", "jobs_recovered", "sortd.recovery.jobs_recovered", COUNTER, c.jobs_recovered),
        ("counters", "runs_recovered", "sortd.recovery.runs_recovered", COUNTER, c.runs_recovered),
        ("counters", "runs_reformed", "sortd.recovery.runs_reformed", COUNTER, c.runs_reformed),
        ("counters", "scratch_disposed", "sortd.recovery.scratch_disposed", COUNTER, c.scratch_disposed),
        ("counters", "deadline_kills", "sortd.deadline.kills", COUNTER, c.deadline_kills),
        ("counters", "journal_write_errors", "sortd.journal.write_errors", COUNTER, c.journal_write_errors),
    ]
}

fn stats_doc(core: &Core) -> Json {
    let table = service_table(core);
    let section = |name: &str| {
        let rows = table.iter().filter(|row| row.0 == name);
        Json::Obj(rows.map(|row| (row.1.into(), Json::from(row.4))).collect())
    };
    // Jobs in the table counted by lifecycle state, in one pass.
    let mut counts = [0u64; JobState::ALL.len()];
    core.jobs.values().for_each(|rec| counts[rec.state as usize] += 1);
    let jobs = JobState::ALL.map(|s| (s.name().into(), Json::from(counts[s as usize])));
    Json::Obj(vec![
        ("type".into(), Json::from("stats")),
        ("uptime_ms".into(), Json::from(core.telemetry.uptime_ms())),
        ("pool".into(), section("pool")),
        ("queue".into(), section("queue")),
        ("running".into(), Json::from(core.running as u64)),
        ("draining".into(), Json::Bool(core.admission.draining())),
        ("jobs".into(), Json::Obj(jobs.into())),
        ("counters".into(), section("counters")),
        ("latency".into(), core.telemetry.summaries()),
    ])
}

/// The `metrics` wire doc: the whole service state as one
/// [`obs::MetricsSnapshot`] (counters/gauges/full-fidelity histograms)
/// under a `type`/`uptime_ms` envelope, so a client can decode it with
/// `MetricsSnapshot::from_json` and diff successive polls — `sortd top`'s
/// whole input. Field names are a stable wire contract; see [`proto`].
fn metrics_doc(core: &Core) -> Json {
    let mut snap = obs::MetricsSnapshot::default();
    for (_, _, name, is_counter, v) in service_table(core) {
        if is_counter {
            snap.counters.insert(name.to_string(), v);
        } else {
            snap.gauges.insert(name.to_string(), v as i64);
        }
    }
    let histograms = core.telemetry.histograms();
    snap.histograms.extend(histograms.map(|(name, h)| (name.to_string(), h.clone())));
    let mut fields = vec![
        ("type".into(), Json::from("metrics")),
        ("uptime_ms".into(), Json::from(core.telemetry.uptime_ms())),
    ];
    if let Json::Obj(inner) = snap.to_json() {
        fields.extend(inner);
    }
    Json::Obj(fields)
}

/// Dispatch one client connection: read the request document, route it.
fn serve_connection(mut stream: TcpStream, state: &State) -> io::Result<()> {
    stream.set_read_timeout(Some(state.read_timeout))?;
    stream.set_write_timeout(Some(state.write_timeout))?;
    stream.set_nodelay(true).ok();
    let doc = proto::read_ctrl(&mut stream)?;
    match doc.field_str("type").map_err(|e| bad(&e.to_string()))? {
        "submit" => {
            let conn = stream.try_clone().ok();
            handle_submit(&mut stream, state, &doc, conn)
        }
        "status" => handle_status(&mut stream, state, &doc),
        kind @ ("stats" | "metrics") => {
            let render = if kind == "stats" { stats_doc } else { metrics_doc };
            let out = render(&state.lock());
            proto::send_ctrl(&mut stream, &out)
        }
        "cancel" => handle_cancel(&mut stream, state, &doc),
        "drain" => {
            let (total_done, failed_queued) = drain_impl(state);
            proto::send_ctrl(
                &mut stream,
                &Json::Obj(vec![
                    ("type".into(), Json::from("drained")),
                    ("total_done".into(), Json::from(total_done)),
                    ("failed_queued".into(), Json::from(failed_queued)),
                ]),
            )
        }
        other => {
            let err = SortdError::BadManifest(format!("unknown request type {other:?}"));
            proto::send_ctrl(&mut stream, &proto::error_doc(None, &err))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A response document of type `ty` about job `id`, with `more` fields.
fn job_doc(ty: &str, id: u64, more: Vec<(&str, Json)>) -> Json {
    let head = [("type", Json::from(ty)), ("job_id", Json::from(id))];
    Json::Obj(head.into_iter().chain(more).map(|(k, v)| (k.into(), v)).collect())
}

/// Answer a duplicate submit from the terminal record: a `done` original
/// replays as an ack + result (`duplicate: true`, no output payload — the
/// journal stores outcomes, not output bytes); a failed/canceled original
/// replays its error code, never retryable (retrying cannot change a
/// settled outcome).
fn send_duplicate(
    stream: &mut impl io::Write,
    id: u64,
    (dup_state, error, records): (JobState, Option<String>, u64),
) -> io::Result<()> {
    if dup_state == JobState::Done {
        send_ack(stream, id, JobState::Done, 0)?;
        proto::send_ctrl(stream, &result_doc(id, records, 0, "cached", true))?;
        return proto::send_payload(stream, &[]);
    }
    let code = error.unwrap_or_else(|| "exec_failed".into());
    let message = format!("duplicate of settled job {id} ({code})");
    let more = vec![
        ("code", Json::from(code.as_str())),
        ("retryable", Json::Bool(false)),
        ("message", Json::from(message.as_str())),
        ("duplicate", Json::Bool(true)),
    ];
    proto::send_ctrl(stream, &job_doc("error", id, more))
}

/// The key a job is journaled under: the client's, or a synthetic one.
fn job_key(spec: &JobSpec, id: u64) -> String {
    (spec.idem_key.clone()).unwrap_or_else(|| format!("anon-job-{id}"))
}

/// What the gate decided about a parsed manifest.
enum Gate {
    /// A new job, `accepted` under this id; its payload may be received.
    Accepted(u64, CancelToken),
    /// The key's job already settled: answer from its record.
    Duplicate(u64, (JobState, Option<String>, u64)),
    /// Not a job: hopeless manifest, or a key whose job is still live.
    Refused(SortdError),
}

/// The gate stage, before the payload is buffered. The manifest is
/// validated against pool totals, so a hopeless one is rejected without
/// the input transfer counting toward anything. Then idempotency: a
/// terminal key is answered from its record, a live key is refused, an
/// interrupted key is claimed for a resume, and the job — fresh or
/// resuming — owns its key from here until it settles.
fn gate(state: &State, spec: &JobSpec) -> Gate {
    let mut guard = state.lock();
    let core = &mut *guard;
    let pool = core.admission.pool();
    if let Err(err) = spec.validate(pool.mem_total(), pool.scratch_total()) {
        core.counters.rejected += 1;
        return Gate::Refused(err);
    }
    let prior = (spec.idem_key.as_ref())
        .and_then(|key| core.idem.get(key))
        .and_then(|id| core.jobs.get(id).map(|rec| (*id, rec)));
    let claimed = match prior {
        None => None,
        // The kill-interrupted original: re-run it, resuming whatever
        // scratch survived.
        Some((id, rec)) if rec.state == JobState::Interrupted => Some(id),
        Some((id, rec)) if rec.state.terminal() => {
            core.counters.duplicates += 1;
            obs::metrics::counter_add("sortd.jobs.duplicates", 1);
            return Gate::Duplicate(id, (rec.state, rec.error.clone(), rec.records));
        }
        Some((_, rec)) => {
            core.counters.rejected += 1;
            let msg = format!("idem_key {:?} is already in flight", rec.key);
            return Gate::Refused(SortdError::BadManifest(msg));
        }
    };
    let id = core.next_id;
    core.next_id += 1;
    core.counters.submitted += 1;
    let key = job_key(spec, id);
    // A claimed key leaves the pending-recovery set: the grace sweep must
    // leave its scratch alone while this job is live.
    core.recovered.remove(&key);
    core.idem.insert(key.clone(), id);
    core.jobs.insert(
        id,
        JobRecord {
            spec: spec.clone(),
            state: JobState::Accepted,
            error: None,
            records: 0,
            key,
            claimed,
        },
    );
    Gate::Accepted(id, core.watch.entry(id).or_default().token.clone())
}

/// One submit as a straight line of stages (module doc). From the gate
/// on, every way out hands the job to [`State::transition`].
fn handle_submit(
    stream: &mut (impl io::Read + io::Write),
    state: &State,
    doc: &Json,
    conn: Option<TcpStream>,
) -> io::Result<()> {
    let _span = obs::span(obs::phase::SORTD_JOB);
    // e2e clock: manifest parsed to result settled (telemetry's `e2e_us`).
    let submit_start = Instant::now();

    // Parse.
    let spec = match JobSpec::from_json(doc) {
        Ok(s) => s,
        Err(e) => {
            state.lock().counters.rejected += 1;
            let err = SortdError::BadManifest(e);
            return proto::send_ctrl(stream, &proto::error_doc(None, &err));
        }
    };

    // Gate. A refusal or a duplicate drains the payload the client is
    // already streaming so its writes don't die on a reset before it reads
    // our answer. The declared length is untrusted (or unwanted): discard
    // under a fixed cap, buffer nothing.
    let (id, token) = match gate(state, &spec) {
        Gate::Accepted(id, token) => (id, token),
        Gate::Duplicate(id, answer) => {
            let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
            return send_duplicate(stream, id, answer);
        }
        Gate::Refused(err) => {
            let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
            return proto::send_ctrl(stream, &proto::error_doc(None, &err));
        }
    };

    // Receive.
    let input = match proto::read_payload(stream, spec.input_bytes) {
        Ok(v) => v,
        Err(e) => {
            // The payload never arrived; nothing ran.
            state.drive(id, unrun(SortdError::ClientGone));
            return Err(e);
        }
    };
    let recv = submit_start.elapsed();

    // Admit: `running`, `queued`, or shed (then the reason is already in
    // `parked`). The record is journaled before the ack — write-ahead.
    let (waker, parked) = channel();
    let (admitted, mut journal_time) = state.drive(id, Event::Admit(waker));
    if let Some(st @ (JobState::Running | JobState::Queued)) = admitted.to {
        if let Err(e) = send_ack(stream, id, st, admitted.depth) {
            // The ack cannot reach the client. Whatever the job holds by
            // now — a queue slot, or budget and a `running` count if it
            // was promoted meanwhile — its state says, and the exit undoes.
            state.drive(id, unrun(SortdError::ClientGone));
            return Err(e);
        }
        // Only after the ack write succeeded, so the watchdog's nonblocking
        // peek can never race one of this thread's own blocking writes.
        if let (Some(c), Some(w)) = (conn, state.lock().watch.get_mut(&id)) {
            w.conn = Some(c);
        }
    }

    // Wait (unless admitted at once: a true zero queue wait). The channel
    // never hangs: promotion and every exit wake it under the core lock.
    let mut queue_wait = Duration::ZERO;
    if admitted.to != Some(JobState::Running) {
        let _q = obs::span(obs::phase::SORTD_QUEUE);
        let parked_at = Instant::now();
        let wake = parked.recv();
        queue_wait = parked_at.elapsed();
        let gone = |_| Err(SortdError::Exec("daemon shut down while job was queued".into()));
        // Whoever failed us settled the job.
        if let Err(err) = wake.unwrap_or_else(gone) {
            return proto::send_ctrl(stream, &proto::error_doc(Some(id), &err));
        }
        // Promoted: journal `running` — from here to the terminal record,
        // a kill leaves a resumable job.
        let running = state.journal_op(&mut state.lock(), id, true, false);
        journal_time += state.journal(running);
    }

    // Execute — no lock held.
    let exec_start = Instant::now();
    let (outcome, answer, sorted) = execute(state, id, &spec, input, &token);
    let exec = exec_start.elapsed();

    // Settle. The terminal record is journaled *before* answering: a kill
    // between the two still dedupes (the answer is re-sendable; the
    // execution is not).
    let ran = Some(RunTimes {
        recv,
        queue_wait,
        exec,
        e2e: submit_start.elapsed(),
    });
    journal_time += state.drive(id, Event::Exit { outcome, ran }).1;

    // Reply.
    let settled = Instant::now();
    let sent = proto::send_ctrl(stream, &answer).and_then(|()| match sorted {
        Some(bytes) => proto::send_payload(stream, &bytes),
        None => Ok(()),
    });
    state.lock().telemetry.record_reply(journal_time, settled.elapsed());
    sent
}

/// The execute stage: run the sort and turn what came back into the job's
/// outcome and the client's answer — the document, and for a `result` the
/// sorted bytes that follow it.
fn execute(
    state: &State,
    id: u64,
    spec: &JobSpec,
    input: Vec<u8>,
    token: &CancelToken,
) -> (Result<Box<SortStats>, SortdError>, Json, Option<Vec<u8>>) {
    let journal = state.journal.as_ref().filter(|_| state.durable_scratch);
    let manifest = journal.map(|j| j.scratch_manifest_path(&job_key(spec, id)));
    let scratch = (&state.scratch.0, state.scratch.1);
    match run_job(id, spec, input, scratch, token, manifest.as_deref()) {
        Ok((sorted, stats, plan)) => {
            let plan = format!("{plan:?}");
            let doc = result_doc(id, stats.records, sorted.len() as u64, &plan, false);
            (Ok(Box::new(stats)), doc, Some(sorted))
        }
        Err(e) => {
            let err = match token.reason() {
                Some(why) if e.kind() == io::ErrorKind::Interrupted => {
                    cancel_error(why, spec.deadline_ms)
                }
                _ => SortdError::Exec(e.to_string()),
            };
            let doc = proto::error_doc(Some(id), &err);
            (Err(err), doc, None)
        }
    }
}

fn result_doc(id: u64, records: u64, output_bytes: u64, plan: &str, duplicate: bool) -> Json {
    let mut more = vec![
        ("state", Json::from(JobState::Done.name())),
        ("records", Json::from(records)),
        ("output_bytes", Json::from(output_bytes)),
        ("plan", Json::from(plan)),
    ];
    if duplicate {
        more.push(("duplicate", Json::Bool(true)));
    }
    job_doc("result", id, more)
}

fn send_ack(stream: &mut impl io::Write, id: u64, st: JobState, depth: usize) -> io::Result<()> {
    let more = vec![("state", Json::from(st.name())), ("queue_depth", Json::from(depth as u64))];
    proto::send_ctrl(stream, &job_doc("ack", id, more))
}

fn handle_status(stream: &mut TcpStream, state: &State, doc: &Json) -> io::Result<()> {
    let id = doc.field_u64("job_id").map_err(|e| bad(&e.to_string()))?;
    let out = match state.lock().jobs.get(&id) {
        Some(rec) => {
            let mut more = vec![
                ("name", Json::from(rec.spec.name.as_str())),
                ("state", Json::from(rec.state.name())),
            ];
            if let Some(code) = &rec.error {
                more.push(("error", Json::from(code.as_str())));
            }
            job_doc("status", id, more)
        }
        None => proto::error_doc(Some(id), &SortdError::BadManifest(format!("no job {id}"))),
    };
    proto::send_ctrl(stream, &out)
}

fn handle_cancel(stream: &mut TcpStream, state: &State, doc: &Json) -> io::Result<()> {
    let id = doc.field_u64("job_id").map_err(|e| bad(&e.to_string()))?;
    let mut core = state.lock();
    // Cancel only reaches queued jobs; running, finished, or unknown ones
    // are refused with the state they are in.
    let st = core.jobs.get(&id).map(|r| r.state);
    if st != Some(JobState::Queued) {
        drop(core);
        let st = Json::from(st.map_or("unknown", JobState::name));
        return proto::send_ctrl(stream, &job_doc("cancel_refused", id, vec![("state", st)]));
    }
    // A client cancel is a settled intent: the exit journals it terminal
    // so the key dedupes to `canceled` even across a restart.
    let moved = state.transition(&mut core, id, unrun(SortdError::Canceled));
    drop(core);
    state.journal(moved.journal);
    proto::send_ctrl(stream, &job_doc("canceled", id, vec![]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MIN_JOB_MEM;
    use alphasort_dmgen::RECORD_LEN;

    /// A client whose connection died: the request is readable, but every
    /// response write fails — the shape of a peer that hung up after
    /// streaming its payload.
    struct BrokenClient {
        input: io::Cursor<Vec<u8>>,
    }

    impl io::Read for BrokenClient {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            io::Read::read(&mut self.input, buf)
        }
    }

    impl io::Write for BrokenClient {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A live loopback client: request in, responses collected.
    struct LoopClient {
        input: io::Cursor<Vec<u8>>,
        out: Vec<u8>,
    }

    impl io::Read for LoopClient {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            io::Read::read(&mut self.input, buf)
        }
    }

    impl io::Write for LoopClient {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn test_state(pool: PoolConfig) -> Arc<State> {
        test_state_journaling(pool, None)
    }

    fn test_state_journaling(pool: PoolConfig, journal: Option<Journal>) -> Arc<State> {
        Arc::new(State {
            core: Mutex::new(Core::new(Admission::new(pool, AdmissionConfig::default()))),
            cv: Condvar::new(),
            scratch: ScratchBacking::Memory.volume(),
            durable_scratch: false,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            journal,
            acceptor: Mutex::new(None),
        })
    }

    /// A job put straight into the table in `state`, as the gate (or
    /// replay) would have left it.
    fn job_in(state: JobState, spec: JobSpec, key: &str) -> JobRecord {
        JobRecord {
            spec,
            state,
            error: None,
            records: 0,
            key: key.into(),
            claimed: None,
        }
    }

    fn watch(deadline: Option<Instant>, token: &CancelToken) -> JobWatch {
        JobWatch {
            deadline,
            conn: None,
            token: token.clone(),
        }
    }

    fn one_record_spec(mem: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            input_bytes: RECORD_LEN as u64,
            mem_budget: mem,
            scratch_budget: 0,
            ..JobSpec::default()
        }
    }

    fn submit_via_broken_client(state: &Arc<State>, spec: &JobSpec) -> io::Result<()> {
        let mut wire = Vec::new();
        proto::send_payload(&mut wire, &vec![0u8; spec.input_bytes as usize]).unwrap();
        let mut client = BrokenClient {
            input: io::Cursor::new(wire),
        };
        handle_submit(&mut client, state, &spec.to_json(), None)
    }

    fn submit_via_loop_client(state: &Arc<State>, spec: &JobSpec) -> io::Result<Vec<u8>> {
        let mut wire = Vec::new();
        proto::send_payload(&mut wire, &vec![0u8; spec.input_bytes as usize]).unwrap();
        let mut client = LoopClient {
            input: io::Cursor::new(wire),
            out: Vec::new(),
        };
        handle_submit(&mut client, state, &spec.to_json(), None)?;
        Ok(client.out)
    }

    #[test]
    fn failed_ack_after_admission_releases_budget_and_running() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let err = submit_via_broken_client(&state, &one_record_spec(MIN_JOB_MEM)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let core = state.core.lock().unwrap();
        assert_eq!(core.running, 0, "running count must unwind");
        assert!(core.admission.pool().idle(), "budget must be released");
        assert!(core.waiters.is_empty());
        assert!(core.watch.is_empty(), "no stale watchdog entry");
        assert_eq!(core.counters.failed, 1);
        let rec = core.jobs.get(&1).expect("job recorded");
        assert_eq!(rec.state, JobState::Failed);
        assert_eq!(rec.error.as_deref(), Some("client_gone"));
    }

    #[test]
    fn failed_ack_of_a_queued_job_leaves_no_stranded_waiter() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        // A resident job holds the whole pool, so the submit must queue.
        {
            let mut core = state.core.lock().unwrap();
            let mut promoted = Vec::new();
            assert_eq!(
                core.admission.offer(999, 1 << 20, 0, &mut promoted),
                Offer::Admitted
            );
            core.running += 1;
        }
        let err = submit_via_broken_client(&state, &one_record_spec(MIN_JOB_MEM)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        {
            let core = state.core.lock().unwrap();
            assert_eq!(core.admission.queue_depth(), 0, "job removed from queue");
            assert!(core.waiters.is_empty(), "no orphaned waiter");
            assert_eq!(core.counters.failed, 1);
            let rec = core.jobs.get(&1).expect("job recorded");
            assert_eq!(rec.state, JobState::Failed);
            assert_eq!(rec.error.as_deref(), Some("client_gone"));
        }
        // The resident's release finds nothing to promote — the stranded
        // job is truly gone — and the pool zeroes out.
        let mut core = state.core.lock().unwrap();
        let mut promoted = Vec::new();
        core.admission.release(1 << 20, 0, &mut promoted);
        core.running -= 1;
        assert!(promoted.is_empty(), "no ghost promotion");
        assert!(core.admission.pool().idle());
    }

    #[test]
    fn duplicate_key_is_answered_from_the_record_without_rerunning() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let spec = JobSpec {
            idem_key: Some("dup-1".into()),
            ..one_record_spec(MIN_JOB_MEM)
        };
        submit_via_loop_client(&state, &spec).unwrap();
        {
            let core = state.core.lock().unwrap();
            assert_eq!(core.counters.done, 1);
            assert_eq!(core.counters.duplicates, 0);
        }
        // Same key again: answered from the record, no second execution.
        let wire = submit_via_loop_client(&state, &spec).unwrap();
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.done, 1, "the sort must not run twice");
        assert_eq!(core.counters.duplicates, 1);
        assert_eq!(core.counters.submitted, 1, "duplicates are not submissions");
        assert!(core.admission.pool().idle());
        drop(core);
        // The duplicate's result doc says so on the wire.
        let mut r = io::Cursor::new(wire);
        let ack = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(ack.field_str("state").unwrap(), "done");
        let result = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(result.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(result.field_u64("output_bytes").unwrap(), 0);
    }

    #[test]
    fn in_flight_key_is_rejected_and_reject_does_not_poison_the_key() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let spec = JobSpec {
            idem_key: Some("live-1".into()),
            ..one_record_spec(MIN_JOB_MEM)
        };
        // Simulate an in-flight key: a concurrent submit of it is past the
        // gate and still receiving its payload.
        {
            let mut core = state.core.lock().unwrap();
            core.jobs.insert(900, job_in(JobState::Accepted, spec.clone(), "live-1"));
            core.idem.insert("live-1".into(), 900);
        }
        let wire = submit_via_loop_client(&state, &spec).unwrap();
        let mut r = io::Cursor::new(wire);
        let err = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(err.field_str("type").unwrap(), "error");
        assert!(err.field_str("message").unwrap().contains("in flight"));
        // Clearing the reservation (as the owning submit's failure path
        // would) lets the key run.
        state.core.lock().unwrap().idem.remove("live-1");
        submit_via_loop_client(&state, &spec).unwrap();
        assert_eq!(state.core.lock().unwrap().counters.done, 1);
    }

    #[test]
    fn watchdog_kills_an_expired_queued_job() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        // A resident job holds the whole pool; queue a watched job whose
        // deadline has already passed.
        let (id, rx) = {
            let mut core = state.core.lock().unwrap();
            let mut promoted = Vec::new();
            assert_eq!(core.admission.offer(999, 1 << 20, 0, &mut promoted), Offer::Admitted);
            core.running += 1;
            let id = core.next_id;
            core.next_id += 1;
            let spec = JobSpec {
                deadline_ms: 5,
                ..one_record_spec(MIN_JOB_MEM)
            };
            core.jobs.insert(id, job_in(JobState::Queued, spec, "anon-job-dl"));
            assert!(matches!(
                core.admission.offer(id, MIN_JOB_MEM, 0, &mut promoted),
                Offer::Queued { .. }
            ));
            let (tx, rx) = channel();
            core.waiters.insert(id, tx);
            core.watch.insert(id, watch(Some(Instant::now()), &CancelToken::new()));
            (id, rx)
        };
        watchdog_pass(&state, Duration::from_secs(60));
        match rx.try_recv() {
            Ok(Err(SortdError::DeadlineExceeded { limit_ms })) => {
                assert_eq!(limit_ms, 5)
            }
            other => panic!("expected deadline wake, got {:?}", other.is_ok()),
        }
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.deadline_kills, 1);
        assert_eq!(core.admission.queue_depth(), 0);
        assert!(core.watch.is_empty());
        assert_eq!(
            core.jobs.get(&id).unwrap().error.as_deref(),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn watchdog_deadline_on_a_running_job_fires_the_token_once() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let token = CancelToken::new();
        {
            let mut core = state.core.lock().unwrap();
            let spec = one_record_spec(MIN_JOB_MEM);
            core.jobs.insert(7, job_in(JobState::Running, spec, "anon-job-7"));
            core.watch.insert(7, watch(Some(Instant::now()), &token));
        }
        watchdog_pass(&state, Duration::from_secs(60));
        watchdog_pass(&state, Duration::from_secs(60));
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.deadline_kills, 1, "deadline counted once");
        assert!(core.watch.contains_key(&7), "running watch stays until settle");
    }

    // ---- The transition table, enumerated -------------------------------

    const POOL: u64 = 1 << 20;
    const KEY: &str = "k";

    fn tmp_journal(tag: &str) -> Journal {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("sortd-table-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::open(dir).unwrap()
    }

    /// One job brought to a state the way the handler brings it there, on
    /// a journaling `test_state`.
    struct Fixture {
        state: Arc<State>,
        id: u64,
        /// The interrupted job whose key this one claimed, if it resumes.
        prior: Option<u64>,
        parked: std::sync::mpsc::Receiver<Wake>,
        /// The admission's journal effect, not yet carried out.
        held: Option<JournalOp>,
    }

    impl Fixture {
        /// `claimed`: the key belongs to an interrupted job with a scratch
        /// manifest, exactly as a replay leaves it. `from == Queued` holds
        /// the whole pool with a blocker (id 999) first.
        fn new(from: JobState, claimed: bool) -> Fixture {
            let journal = tmp_journal("fx");
            let spec = JobSpec {
                idem_key: Some(KEY.into()),
                ..one_record_spec(MIN_JOB_MEM)
            };
            let mut prior = None;
            if claimed {
                let mut rec = JournalRecord::accepted(KEY.into(), 41, spec.clone());
                rec.state = "running".into();
                journal.record(&rec).unwrap();
                std::fs::write(journal.scratch_manifest_path(KEY), "{}").unwrap();
                prior = Some(41);
            }
            let pool = PoolConfig {
                mem_total: POOL,
                scratch_total: POOL,
            };
            let state = test_state_journaling(pool, Some(journal));
            {
                let mut core = state.core.lock().unwrap();
                replay_journal(state.journal.as_ref().unwrap(), &mut core).unwrap();
                assert_eq!(core.recovered.contains_key(KEY), claimed);
                if from == JobState::Queued {
                    let mut promoted = Vec::new();
                    assert_eq!(core.admission.offer(999, POOL, 0, &mut promoted), Offer::Admitted);
                    core.running += 1;
                }
            }
            let Gate::Accepted(id, _) = gate(&state, &spec) else {
                panic!("the gate refused a fresh or interrupted key")
            };
            let (waker, parked) = channel();
            let mut held = None;
            if from != JobState::Accepted {
                let mut core = state.core.lock().unwrap();
                let moved = state.transition(&mut core, id, Event::Admit(waker));
                assert_eq!(moved.to, Some(from));
                assert_eq!(moved.depth, (from == JobState::Queued) as usize);
                held = moved.journal;
            }
            Fixture {
                state,
                id,
                prior,
                parked,
                held,
            }
        }

        fn journal(&self) -> &Journal {
            self.state.journal.as_ref().unwrap()
        }

        fn flush_held(&mut self) {
            self.state.journal(self.held.take());
        }

        /// Apply `event` the way every caller does: transition under the
        /// lock, journal after it.
        fn apply(&self, event: Event) -> Option<JobState> {
            self.state.drive(self.id, event).0.to
        }

        /// The key's record on disk, if any.
        fn on_disk(&self) -> Option<JournalRecord> {
            let mut found = self.journal().replay().unwrap().records;
            assert!(found.len() <= 1, "one key, one record: {found:?}");
            found.pop()
        }

        /// Everything a transition may touch, for "nothing moved" checks.
        fn snapshot(&self) -> String {
            let core = self.state.core.lock().unwrap();
            let c = &core.counters;
            let pool = core.admission.pool();
            format!(
                "{:?} {:?} | {:?} | idem {:?} recovered {} | waiters {} watch {} | pool {}/{} running {} queue {} | {:?} manifest {}",
                core.jobs[&self.id].state,
                core.jobs[&self.id].error,
                [c.done, c.failed, c.rejected, c.canceled, c.journal_write_errors],
                core.idem.get(KEY),
                core.recovered.contains_key(KEY),
                core.waiters.len(),
                core.watch.len(),
                pool.mem_used(),
                pool.scratch_used(),
                core.running,
                core.admission.queue_depth(),
                self.on_disk(),
                self.journal().scratch_manifest_path(KEY).exists(),
            )
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        Done,
        ExecFailed,
        Deadline,
        ClientGone,
        Cancel,
        Drain,
        Reject,
        AckWriteFailed,
    }

    const EXITS: [Ev; 8] = [
        Ev::Done,
        Ev::ExecFailed,
        Ev::Deadline,
        Ev::ClientGone,
        Ev::Cancel,
        Ev::Drain,
        Ev::Reject,
        Ev::AckWriteFailed,
    ];

    impl Ev {
        /// Whether the job executed before this exit: only a running job's
        /// sort can finish, fail, or be cooperatively canceled.
        fn executed(self, from: JobState) -> bool {
            from == JobState::Running
                && matches!(self, Ev::Done | Ev::ExecFailed | Ev::Deadline | Ev::ClientGone)
        }

        fn event(self, from: JobState) -> Event {
            let outcome = match self {
                Ev::Done => Ok(Box::new(SortStats {
                    records: 1,
                    ..SortStats::default()
                })),
                Ev::ExecFailed => Err(SortdError::Exec("boom".into())),
                Ev::Deadline => Err(SortdError::DeadlineExceeded { limit_ms: 5 }),
                Ev::ClientGone | Ev::AckWriteFailed => Err(SortdError::ClientGone),
                Ev::Cancel => Err(SortdError::Canceled),
                Ev::Drain => Err(SortdError::Draining),
                Ev::Reject => Err(SortdError::Backpressure { depth: 1, bound: 1 }),
            };
            let ran = self.executed(from).then(RunTimes::default);
            Event::Exit { outcome, ran }
        }
    }

    #[test]
    fn every_state_event_pair_settles_the_whole_invariant_exactly_once() {
        use JobState::{Accepted, Canceled, Done, Failed, Interrupted, Queued, Running};
        for claimed in [false, true] {
            for from in [Accepted, Queued, Running] {
                for ev in EXITS {
                    let case = format!("{from:?}{} x {ev:?}", if claimed { " (resuming)" } else { "" });
                    let mut fx = Fixture::new(from, claimed);
                    fx.flush_held();
                    let before = fx.state.core.lock().unwrap().counters;
                    assert!(fx.apply(ev.event(from)).is_some(), "{case}");

                    // What the table says this pair does.
                    let executed = ev.executed(from);
                    let pins = matches!(ev, Ev::Done | Ev::ExecFailed | Ev::Deadline | Ev::Cancel);
                    let restored = claimed && !pins && !executed;
                    let (want_state, want_code) = match ev {
                        Ev::Done => (Done, None),
                        Ev::Cancel => (Canceled, Some("canceled")),
                        Ev::ExecFailed => (Failed, Some("exec_failed")),
                        Ev::Deadline => (Failed, Some("deadline_exceeded")),
                        Ev::ClientGone | Ev::AckWriteFailed => (Failed, Some("client_gone")),
                        Ev::Drain => (Failed, Some("draining")),
                        Ev::Reject => (Failed, Some("backpressure")),
                    };
                    // [done, failed, rejected, canceled]
                    let want_counter = match ev {
                        Ev::Done => 0,
                        Ev::Cancel => 3,
                        Ev::Drain | Ev::Reject if from == Accepted => 2,
                        _ => 1,
                    };

                    {
                        let core = fx.state.core.lock().unwrap();
                        let rec = &core.jobs[&fx.id];
                        assert_eq!((rec.state, rec.error.as_deref()), (want_state, want_code), "{case}");
                        let c = &core.counters;
                        let moved = [
                            c.done - before.done,
                            c.failed - before.failed,
                            c.rejected - before.rejected,
                            c.canceled - before.canceled,
                        ];
                        let mut want = [0; 4];
                        want[want_counter] = 1;
                        assert_eq!(moved, want, "{case}: exactly one counter, by one");
                        assert_eq!(c.journal_write_errors, 0, "{case}");
                        // The key: pinned, handed back, or free.
                        let owner = core.idem.get(KEY).copied();
                        if pins {
                            assert_eq!(owner, Some(fx.id), "{case}: outcome must pin the key");
                        } else if restored {
                            assert_eq!(owner, fx.prior, "{case}: key goes back to the interrupted job");
                            assert_eq!(core.jobs[&fx.prior.unwrap()].state, Interrupted, "{case}");
                        } else {
                            assert_eq!(owner, None, "{case}: leaving unrun frees the key");
                        }
                        assert_eq!(core.recovered.contains_key(KEY), restored, "{case}");
                        // Nothing live is left, and what was held is back.
                        assert!(!core.watch.contains_key(&fx.id), "{case}: stale watch");
                        assert!(!core.waiters.contains_key(&fx.id), "{case}: stale waiter");
                        let blocker = (from == Queued) as u64;
                        assert_eq!(core.admission.pool().mem_used(), blocker * POOL, "{case}");
                        assert_eq!(core.admission.pool().scratch_used(), 0, "{case}");
                        assert_eq!(core.running as u64, blocker, "{case}");
                        assert_eq!(core.admission.queue_depth(), 0, "{case}");
                        assert_eq!(core.telemetry.histograms().nth(2).unwrap().1.count(), executed as u64, "{case}");
                    }
                    // A parked submitter hears exactly once why it will not run.
                    let heard: Vec<Wake> = fx.parked.try_iter().collect();
                    let parked_and_failed = from == Queued && ev != Ev::Done;
                    assert_eq!(heard.len(), parked_and_failed as usize, "{case}");
                    assert!(heard.iter().all(Result::is_err), "{case}");
                    // The record on disk: terminal, `interrupted`, or absent.
                    let disk = fx.on_disk().map(|r| (r.job_id, r.state));
                    if pins {
                        assert_eq!(disk, Some((fx.id, want_state.name().to_string())), "{case}");
                    } else if restored {
                        assert_eq!(disk, Some((41, "interrupted".to_string())), "{case}");
                    } else {
                        assert_eq!(disk, None, "{case}: an unrun job leaves no record");
                    }
                    // Claimed scratch: untouched if handed back (or if the
                    // executor had it), disposed by a terminal exit that
                    // never executed.
                    let manifest = fx.journal().scratch_manifest_path(KEY).exists();
                    assert_eq!(manifest, claimed && (restored || (pins && executed)), "{case}");

                    // The same event again: nothing moves.
                    let settled = fx.snapshot();
                    assert_eq!(fx.apply(ev.event(from)), None, "{case}: second exit must be a no-op");
                    let (waker, _) = channel();
                    assert_eq!(fx.apply(Event::Admit(waker)), None, "{case}: admit after exit");
                    assert_eq!(fx.snapshot(), settled, "{case}: second application moved something");
                }
            }
        }
    }

    #[test]
    fn admit_runs_queues_or_sheds_and_only_from_accepted() {
        for claimed in [false, true] {
            // Free pool: running, budget held, journaled `running`.
            let fx = Fixture::new(JobState::Accepted, claimed);
            let (waker, parked) = channel();
            assert_eq!(fx.apply(Event::Admit(waker)), Some(JobState::Running));
            {
                let core = fx.state.core.lock().unwrap();
                assert_eq!((core.running, core.admission.pool().mem_used()), (1, MIN_JOB_MEM));
                assert!(core.waiters.is_empty() && core.watch.contains_key(&fx.id));
                assert_eq!(core.idem.get(KEY), Some(&fx.id));
            }
            assert!(parked.try_recv().is_err(), "an immediate admit wakes nobody");
            let disk = fx.on_disk().unwrap();
            assert_eq!((disk.job_id, disk.state.as_str()), (fx.id, "running"));
            assert!(disk.scratch_manifest.is_some());
            // Admit applies to `accepted` alone.
            let settled = fx.snapshot();
            for _ in 0..2 {
                let (waker, _) = channel();
                assert_eq!(fx.apply(Event::Admit(waker)), None);
            }
            assert_eq!(fx.snapshot(), settled);

            // Full pool: queued at depth 1, journaled `accepted`, parked.
            let mut fx = Fixture::new(JobState::Queued, claimed);
            fx.flush_held();
            assert_eq!(fx.on_disk().unwrap().state, "accepted");
            assert!(fx.state.core.lock().unwrap().waiters.contains_key(&fx.id));
            let (waker, _) = channel();
            assert_eq!(fx.apply(Event::Admit(waker)), None);
            // The blocker's release promotes it: running, woken once.
            {
                let mut core = fx.state.core.lock().unwrap();
                let mut promoted = Vec::new();
                core.admission.release(POOL, 0, &mut promoted);
                core.running -= 1;
                assert_eq!(promoted, vec![fx.id]);
                core.start(promoted);
                assert_eq!(core.jobs[&fx.id].state, JobState::Running);
                assert_eq!(core.running, 1);
            }
            assert!(matches!(fx.parked.try_recv(), Ok(Ok(()))));
            assert!(fx.parked.try_recv().is_err());

            // Draining daemon: shed through the exit, reason in the channel.
            let fx = Fixture::new(JobState::Accepted, claimed);
            fx.state.core.lock().unwrap().admission.drain();
            let (waker, parked) = channel();
            assert_eq!(fx.apply(Event::Admit(waker)), Some(JobState::Failed));
            assert!(matches!(parked.try_recv(), Ok(Err(SortdError::Draining))));
            let core = fx.state.core.lock().unwrap();
            assert_eq!((core.counters.rejected, core.counters.failed), (1, 0));
            assert_eq!(core.idem.get(KEY).copied(), fx.prior, "shed must not poison the key");
            assert!(core.admission.pool().idle() && core.running == 0);
        }
        // An interrupted job nobody claimed is not live: no event moves it.
        let fx = Fixture::new(JobState::Accepted, true);
        let prior = fx.prior.unwrap();
        for ev in EXITS {
            let moved = fx.state.drive(prior, ev.event(JobState::Queued)).0;
            assert_eq!(moved.to, None, "{ev:?}");
        }
        assert_eq!(fx.state.core.lock().unwrap().jobs[&prior].state, JobState::Interrupted);
    }

    /// Defect 3: `Offer::Queued` drops the core lock before `accepted` is
    /// written. A cancel or a drain that settles the job in that window
    /// writes (or removes) first; the stale `accepted` must not land on top.
    #[test]
    fn a_stale_accepted_write_never_follows_a_terminal_record_or_a_removal() {
        for (ev, want) in [(Ev::Cancel, Some("canceled")), (Ev::Drain, None)] {
            for claimed in [false, true] {
                let mut fx = Fixture::new(JobState::Queued, claimed);
                assert!(fx.held.is_some(), "the accepted write is still pending");
                assert!(fx.apply(ev.event(JobState::Queued)).is_some());
                fx.flush_held();
                let disk = fx.on_disk().map(|r| r.state);
                let want = want.or(claimed.then_some("interrupted"));
                assert_eq!(disk.as_deref(), want, "{ev:?} claimed={claimed}");
                // And a restart agrees: nothing to resurrect but what was
                // interrupted before.
                let mut core = Core::new(Admission::new(PoolConfig::default(), AdmissionConfig::default()));
                replay_journal(fx.journal(), &mut core).unwrap();
                let resurrected = ev == Ev::Drain && claimed;
                assert_eq!(core.counters.jobs_recovered, resurrected as u64, "{ev:?} claimed={claimed}");
            }
        }
    }

    #[test]
    fn a_failed_journal_write_is_counted_and_the_job_still_settles() {
        let mut fx = Fixture::new(JobState::Running, false);
        fx.flush_held();
        // The journal directory vanishes under the daemon.
        std::fs::remove_dir_all(fx.journal().dir()).unwrap();
        assert_eq!(fx.apply(Ev::Done.event(JobState::Running)), Some(JobState::Done));
        let core = fx.state.core.lock().unwrap();
        assert_eq!(core.counters.journal_write_errors, 1);
        assert_eq!((core.counters.done, core.running), (1, 0));
        let doc = stats_doc(&core);
        assert_eq!(doc.get("counters").unwrap().field_u64("journal_write_errors").unwrap(), 1);
        let metrics = obs::MetricsSnapshot::from_json(&metrics_doc(&core)).unwrap();
        assert_eq!(metrics.counters["sortd.journal.write_errors"], 1);
    }

    #[test]
    fn stats_and_metrics_render_the_same_values_under_both_names() {
        let state = test_state(PoolConfig {
            mem_total: POOL,
            scratch_total: POOL,
        });
        submit_via_loop_client(&state, &one_record_spec(MIN_JOB_MEM)).unwrap();
        let core = state.core.lock().unwrap();
        let (stats, metrics) = (stats_doc(&core), metrics_doc(&core));
        let snap = obs::MetricsSnapshot::from_json(&metrics).unwrap();
        let mut rows = 0;
        for (section, key, name, is_counter, v) in service_table(&core) {
            let in_metrics = match is_counter {
                true => snap.counters[name],
                false => snap.gauges[name] as u64,
            };
            assert_eq!(in_metrics, v, "{name}");
            if !section.is_empty() {
                assert_eq!(stats.get(section).unwrap().field_u64(key).unwrap(), v, "{section}.{key}");
                rows += 1;
            }
        }
        // The stats sections hold the table's rows and nothing else.
        let listed = |s: &str| match stats.get(s) {
            Some(Json::Obj(fields)) => fields.len(),
            _ => 0,
        };
        assert_eq!(listed("pool") + listed("queue") + listed("counters"), rows);
        assert_eq!(stats.get("counters").unwrap().field_u64("done").unwrap(), 1);
        assert_eq!(stats.get("pool").unwrap().field_u64("mem_hwm").unwrap(), MIN_JOB_MEM);
    }

    /// The five stage histograms cover the handler: a job's stages sum to
    /// at least 95% of the wall time `handle_submit` took.
    #[test]
    fn stage_histograms_cover_the_submit_handler() {
        let records = 20_000u64;
        let (data, _) = alphasort_dmgen::generate(alphasort_dmgen::GenConfig::datamation(records, 7));
        let spec = JobSpec {
            input_bytes: data.len() as u64,
            ..one_record_spec(8 << 20)
        };
        let state = test_state_journaling(
            PoolConfig {
                mem_total: 16 << 20,
                scratch_total: 16 << 20,
            },
            Some(tmp_journal("stages")),
        );
        let mut wire = Vec::new();
        proto::send_payload(&mut wire, &data).unwrap();
        let mut client = LoopClient {
            input: io::Cursor::new(wire),
            out: Vec::new(),
        };
        let started = Instant::now();
        handle_submit(&mut client, &state, &spec.to_json(), None).unwrap();
        let wall_us = started.elapsed().as_micros() as u64;

        let core = state.core.lock().unwrap();
        let h = |name: &str| core.telemetry.histograms().find(|(n, _)| *n == name).unwrap().1;
        let stages = ["recv_us", "queue_wait_us", "journal_us", "exec_us", "reply_us"]
            .map(|stage| h(&format!("sortd.{stage}")));
        assert!(stages.iter().all(|h| h.count() == 1), "one sample per stage");
        assert_eq!(h("sortd.e2e_us").count(), 1);
        // Admitted at once: a true zero wait; every other stage took time.
        assert_eq!(stages.iter().filter(|h| h.sum() > 0).count(), 4);
        assert_eq!(h("sortd.queue_wait_us").sum(), 0);
        let covered: u64 = stages.iter().map(|h| h.sum()).sum();
        assert!(
            covered * 100 >= wall_us * 95,
            "stages cover {covered} of {wall_us} us"
        );
        assert!(covered <= wall_us, "stages overlap: {covered} of {wall_us} us");
        assert!(h("sortd.e2e_us").sum() <= wall_us);
    }
}
