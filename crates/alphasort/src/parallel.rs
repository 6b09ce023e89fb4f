//! Shared-memory multiprocessor decomposition (§5).
//!
//! "The root process breaks up the sorting work into independent chores
//! that can be handled by the workers. Chores during the QuickSort phase
//! consist of QuickSorting a data run. … During the merge phase, the root
//! merges all the (key-prefix, pointer) pairs to produce a sorted string of
//! record pointers. Workers perform the memory-intensive chores of
//! gathering records into output buffers."
//!
//! [`SortPool`] is the QuickSort-chore pool, [`GatherPool`] the gather-chore
//! pool: one ordered chore pool with two chores, generic over the layout's
//! run type. Both degrade to inline execution with zero workers (the
//! paper's uniprocessor case, where the root does sorting "in its spare
//! time"). The partitioned merge's range workers live with the drivers
//! ([`crate::driver`]), which stream their output instead of parking it.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alphasort_obs as obs;

use crate::gather::gather_into;
use crate::layout::LayoutRun;
use crate::merge::MergedPtr;

/// Workers running `chore(id, job)` on submitted jobs, results handed back
/// **in submission order** so the root can stream them on. With zero
/// workers the chore runs on the caller's thread at submit.
struct ChorePool<J, O> {
    chore: Arc<dyn Fn(usize, J) -> O + Send + Sync>,
    tx: Option<Sender<(usize, J)>>,
    rx: Receiver<(usize, O)>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<usize, O>,
    submitted: usize,
    delivered: usize,
}

impl<J: Send + 'static, O: Send + 'static> ChorePool<J, O> {
    fn new(
        workers: usize,
        name: &str,
        chore: impl Fn(usize, J) -> O + Send + Sync + 'static,
    ) -> Self {
        let chore: Arc<dyn Fn(usize, J) -> O + Send + Sync> = Arc::new(chore);
        let (tx, work_rx) = channel::<(usize, J)>();
        // std mpsc receivers are single-consumer; workers share one behind a
        // mutex, holding the lock only while dequeuing (MPMC work queue).
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (res_tx, rx) = channel();
        // Workers inherit the submitting thread's trace track so per-node
        // traces (netsort) keep their pool spans on the right lane.
        let track = obs::current_track();
        let handles = (0..workers)
            .map(|w| {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                let chore = Arc::clone(&chore);
                let track = track.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{w}"))
                    .spawn(move || {
                        obs::adopt_track(track);
                        loop {
                            let msg = work_rx.lock().expect("work queue lock").recv();
                            let Ok((id, job)) = msg else { break };
                            let _ = res_tx.send((id, chore(id, job)));
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ChorePool {
            chore,
            tx: (workers > 0).then_some(tx),
            rx,
            handles,
            parked: BTreeMap::new(),
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submit the next job (jobs are implicitly numbered).
    fn submit(&mut self, job: J) {
        let id = self.submitted;
        self.submitted += 1;
        match &self.tx {
            Some(tx) => tx.send((id, job)).expect("pool workers gone"),
            None => {
                let out = (self.chore)(id, job);
                self.parked.insert(id, out);
            }
        }
    }

    /// Jobs submitted but not yet delivered.
    fn outstanding(&self) -> usize {
        self.submitted - self.delivered
    }

    /// The next result in submission order if it is already done; never
    /// blocks.
    fn try_next(&mut self) -> Option<O> {
        while let Ok((id, out)) = self.rx.try_recv() {
            self.parked.insert(id, out);
        }
        let out = self.parked.remove(&self.delivered)?;
        self.delivered += 1;
        Some(out)
    }

    /// The next result in submission order, blocking until it is done.
    /// `None` once everything submitted has been delivered.
    fn next(&mut self) -> Option<O> {
        if self.delivered >= self.submitted {
            return None;
        }
        while !self.parked.contains_key(&self.delivered) {
            let (id, out) = self.rx.recv().expect("pool worker died");
            self.parked.insert(id, out);
        }
        self.delivered += 1;
        self.parked.remove(&(self.delivered - 1))
    }
}

impl<J, O> Drop for ChorePool<J, O> {
    /// Dropping mid-stream (e.g. on an IO error mid-sort) still closes the
    /// work queue and joins the workers, so no threads outlive the pool.
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pool of workers QuickSorting run buffers as they arrive from input.
pub struct SortPool<R> {
    pool: ChorePool<(Vec<u8>, usize), (R, Duration)>,
}

impl<R: LayoutRun> SortPool<R> {
    /// Create a pool with `workers` threads (0 = sort inline on submit).
    pub fn new(workers: usize) -> Self {
        let pool = ChorePool::new(workers, "sort", move |id, (buf, records)| {
            let mut g = obs::span(obs::phase::SORT);
            g.attr("run", id as u64);
            let t0 = Instant::now();
            let run = R::form(buf, records);
            let d = t0.elapsed();
            g.attr("records", run.len() as u64);
            obs::metrics::observe("sort.run_us", d.as_micros() as u64);
            (run, d)
        });
        SortPool { pool }
    }

    /// Submit one run buffer of `records` whole records for sorting. With
    /// zero workers this sorts immediately on the caller's thread.
    pub fn submit(&mut self, buf: Vec<u8>, records: usize) {
        self.pool.submit((buf, records));
    }

    /// The next run in submission order if it has already been sorted;
    /// never blocks. Use during input so handing runs on overlaps reading.
    pub fn try_next_in_order(&mut self) -> Option<(R, Duration)> {
        self.pool.try_next()
    }

    /// The next run in submission order, blocking until it is sorted.
    /// `None` once everything submitted has been delivered.
    pub fn next_in_order(&mut self) -> Option<(R, Duration)> {
        self.pool.next()
    }
}

/// Pool of workers gathering records into output buffers from a merged
/// pointer string. The root submits pointer batches; completed buffers come
/// back **in submission order** so the writer can stream them out.
pub struct GatherPool {
    pool: ChorePool<Vec<MergedPtr>, (Vec<u8>, Duration)>,
    /// Gather CPU across delivered batches.
    gather_time: Duration,
}

impl GatherPool {
    /// Create a pool with `workers` threads (0 = gather inline).
    pub fn new<R: LayoutRun>(workers: usize, runs: Arc<Vec<R>>) -> Self {
        let pool = ChorePool::new(workers, "gather", move |id, ptrs: Vec<MergedPtr>| {
            let mut g = obs::span(obs::phase::GATHER);
            g.attr("batch", id as u64);
            g.attr("records", ptrs.len() as u64);
            let t0 = Instant::now();
            let mut buf = Vec::new();
            gather_into(&runs, &ptrs, &mut buf);
            let d = t0.elapsed();
            obs::metrics::observe("gather.batch_us", d.as_micros() as u64);
            (buf, d)
        });
        GatherPool {
            pool,
            gather_time: Duration::ZERO,
        }
    }

    /// Submit the next pointer batch (batches are implicitly numbered).
    pub fn submit(&mut self, ptrs: Vec<MergedPtr>) {
        self.pool.submit(ptrs);
    }

    /// Gather CPU across the batches delivered so far.
    pub fn gather_time(&self) -> Duration {
        self.gather_time
    }

    /// Number of batches submitted but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.pool.outstanding() as u64
    }

    /// Block for the next buffer in submission order. `None` once every
    /// submitted batch has been delivered.
    pub fn next_buffer(&mut self) -> Option<Vec<u8>> {
        let (buf, d) = self.pool.next()?;
        self.gather_time += d;
        Some(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{Merger, PrefixThenKey, RunCursors};
    use crate::runform::SortedRun;
    use alphasort_dmgen::{generate, validate_records, GenConfig, RECORD_LEN};

    fn whole_merge(runs: &[SortedRun]) -> Merger<RunCursors<'_, SortedRun>, PrefixThenKey> {
        Merger::new(RunCursors::new(runs, None), ())
    }

    fn run_buffers(n: u64, per_run: usize) -> (alphasort_dmgen::Checksum, Vec<Vec<u8>>) {
        let (data, cs) = generate(GenConfig::datamation(n, 55));
        let bufs = data
            .chunks(per_run * RECORD_LEN)
            .map(|c| c.to_vec())
            .collect();
        (cs, bufs)
    }

    /// Submit every buffer, then wait for the runs in submission order.
    fn sorted_runs(workers: usize, bufs: Vec<Vec<u8>>) -> Vec<SortedRun> {
        let mut pool = SortPool::<SortedRun>::new(workers);
        for b in bufs {
            let n = b.len() / RECORD_LEN;
            pool.submit(b, n);
        }
        std::iter::from_fn(|| pool.next_in_order())
            .map(|(run, _)| run)
            .collect()
    }

    fn sort_with_pool(workers: usize) {
        let (cs, bufs) = run_buffers(3_000, 256);
        let runs = sorted_runs(workers, bufs);
        assert_eq!(runs.len(), 12);
        assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), 3_000);

        let runs = Arc::new(runs);
        let mut merger = whole_merge(&runs);
        let mut gather = GatherPool::new(workers, Arc::clone(&runs));
        let mut out = Vec::new();
        loop {
            let ptrs = crate::gather::take_ptrs(&mut merger, 500);
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            // Keep at most 3 batches in flight (triple buffering analogue).
            while gather.in_flight() > 3 {
                out.extend_from_slice(&gather.next_buffer().unwrap());
            }
        }
        while let Some(buf) = gather.next_buffer() {
            out.extend_from_slice(&buf);
        }
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 3_000);
    }

    #[test]
    fn inline_pools_sort_correctly() {
        sort_with_pool(0);
    }

    #[test]
    fn one_worker_pools_sort_correctly() {
        sort_with_pool(1);
    }

    #[test]
    fn many_worker_pools_sort_correctly() {
        sort_with_pool(4);
    }

    #[test]
    fn sort_pool_preserves_submission_order() {
        let (_, bufs) = run_buffers(1_000, 100);
        let firsts: Vec<u64> = bufs
            .iter()
            .map(|b| alphasort_dmgen::records_of(b)[0].seq())
            .collect();
        let runs = sorted_runs(3, bufs);
        // Run i must still hold the records of chunk i (identified by the
        // sequence number stamped at generation).
        for (i, run) in runs.iter().enumerate() {
            let seqs: Vec<u64> = run.records().iter().map(|r| r.seq()).collect();
            let lo = firsts[i];
            assert!(
                seqs.iter().all(|&s| s / 100 == lo / 100),
                "run {i} shuffled"
            );
        }
    }

    #[test]
    fn pools_can_be_dropped_mid_stream_without_hanging() {
        // Submit work, deliver some of it, then drop both pools: Drop must
        // close queues and join workers (a hang here fails the test by
        // timeout).
        let (_, bufs) = run_buffers(1_000, 100);
        let mut pool = SortPool::<SortedRun>::new(2);
        for b in bufs {
            let n = b.len() / RECORD_LEN;
            pool.submit(b, n);
        }
        let _ = pool.next_in_order();
        drop(pool);

        let (_, bufs) = run_buffers(500, 100);
        let runs = Arc::new(sorted_runs(1, bufs));
        let mut merger = whole_merge(&runs);
        let mut gather = GatherPool::new(2, Arc::clone(&runs));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        let _ = gather.next_buffer();
        drop(gather); // one batch still parked/in flight
    }

    #[test]
    fn gather_pool_delivers_in_order_despite_racing_workers() {
        let (_, bufs) = run_buffers(2_000, 200);
        let runs = Arc::new(sorted_runs(2, bufs));
        let mut merger = whole_merge(&runs);
        let mut gather = GatherPool::new(4, Arc::clone(&runs));
        let mut batches = 0;
        loop {
            let ptrs = crate::gather::take_ptrs(&mut merger, 37);
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            batches += 1;
        }
        let mut out = Vec::new();
        while let Some(buf) = gather.next_buffer() {
            out.extend_from_slice(&buf);
        }
        assert!(batches > 10);
        let recs = alphasort_dmgen::records_of(&out);
        assert_eq!(recs.len(), 2_000);
        assert!(recs.windows(2).all(|w| w[0].key <= w[1].key));
    }
}
