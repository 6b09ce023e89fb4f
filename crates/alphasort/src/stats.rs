//! Phase timing and counters for a sort run.
//!
//! The paper reports a phase-by-phase walk-through (§7) and a "where the
//! time goes" breakdown (Figure 7); [`SortStats`] captures the same
//! decomposition so experiments can print it.
//!
//! Timing is accumulated through [`timed_phase`], which both adds the
//! closure's duration to a stats slot *and* records an `alphasort_obs`
//! span under the matching [`alphasort_obs::phase`] name. That single
//! entry point is what keeps the legacy counters and the exported trace
//! in agreement.

use std::time::{Duration, Instant};

use alphasort_obs as obs;

use crate::splitter::skew;

/// Timings and counters accumulated over one external sort.
#[derive(Clone, Debug, Default)]
pub struct SortStats {
    /// Records sorted.
    pub records: u64,
    /// Bytes actually read and sorted (the sum of input chunk lengths).
    /// When 0 (older callers), derived figures fall back to assuming
    /// `records` × `RECORD_LEN`.
    pub bytes_sorted: u64,
    /// Number of runs formed.
    pub runs: u64,
    /// Lengths of the formed runs, in records.
    pub run_lengths: Vec<u64>,
    /// Wall time spent reading input: blocked on the source and, in the
    /// sort drivers, copying each chunk into the run buffers it fills.
    pub read_wait: Duration,
    /// Wall time spent in run formation (entry extraction and the MSD
    /// sort, `runform::msd_sort`).
    pub sort_time: Duration,
    /// Wall time spent merging pointers.
    pub merge_time: Duration,
    /// Wall time spent gathering records into output buffers.
    pub gather_time: Duration,
    /// Wall time spent writing output (blocked on the sink).
    pub write_wait: Duration,
    /// Wall time for the whole sort, launch to completion.
    pub elapsed: Duration,
    /// For two-pass sorts: time writing and reading back scratch runs.
    pub spill_time: Duration,
    /// Whether the sort ran in one pass.
    pub one_pass: bool,
    /// Intermediate cascade merge passes performed (0 unless the run count
    /// exceeded the configured merge fan-in).
    pub merge_passes: u32,
    /// For distributed sorts: bytes shipped to peer nodes during the
    /// exchange phase (0 for single-node sorts).
    pub exchange_bytes_out: u64,
    /// For distributed sorts: bytes received from peer nodes during the
    /// exchange phase.
    pub exchange_bytes_in: u64,
    /// For distributed sorts: wall time blocked waiting on the exchange
    /// (sends that back-pressured plus receives with nothing pending).
    pub exchange_wait: Duration,
    /// For distributed sorts: records each node owned after the exchange
    /// (empty for single-node sorts). Feed [`SortStats::exchange_skew`].
    pub partition_sizes: Vec<u64>,
    /// For resumed two-pass sorts: runs recovered intact from a previous
    /// attempt's scratch manifest (counted in `runs` too).
    pub runs_recovered: u64,
    /// For resumed two-pass sorts: runs re-formed from the input because
    /// they were missing or corrupt in the previous attempt's scratch.
    pub runs_reformed: u64,
    /// For partitioned merges: records each key range merged (empty for
    /// serial merges). Feed [`SortStats::merge_skew`].
    pub merge_range_records: Vec<u64>,
    /// For partitioned merges: wall time each range's merge took, indexed
    /// like `merge_range_records`.
    pub merge_range_time: Vec<Duration>,
}

impl SortStats {
    /// The identity element of [`SortStats::merge`]: all-zero except
    /// `one_pass`, which must start `true` so ANDing worker flags works.
    /// Fold worker stats starting from this, never from `Default`.
    pub fn neutral() -> SortStats {
        SortStats {
            one_pass: true,
            ..Default::default()
        }
    }

    /// Combine stats from another worker (a pool thread or a cluster
    /// node) into `self`.
    ///
    /// Field policy, chosen so the result reads like one sort:
    /// * **compute phases** (`sort_time`, `merge_time`, `gather_time`)
    ///   *sum* — they are CPU busy time and can legitimately exceed the
    ///   wall clock on a multiprocessor (that excess is Figure 7's
    ///   overlap);
    /// * **waits and wall clock** (`read_wait`, `write_wait`,
    ///   `spill_time`, `exchange_wait`, `elapsed`, `merge_passes`)
    ///   *max* — workers wait concurrently, so the critical path is the
    ///   slowest worker, not the total;
    /// * **counters** (`records`, `bytes_sorted`, `runs`,
    ///   `exchange_bytes_*`) *sum*; run/partition vectors concatenate;
    /// * `one_pass` ANDs: the combined sort was one-pass only if every
    ///   worker's was.
    pub fn merge(&mut self, other: &SortStats) {
        self.records += other.records;
        self.bytes_sorted += other.bytes_sorted;
        self.runs += other.runs;
        self.run_lengths.extend_from_slice(&other.run_lengths);
        self.sort_time += other.sort_time;
        self.merge_time += other.merge_time;
        self.gather_time += other.gather_time;
        self.read_wait = self.read_wait.max(other.read_wait);
        self.write_wait = self.write_wait.max(other.write_wait);
        self.spill_time = self.spill_time.max(other.spill_time);
        self.exchange_wait = self.exchange_wait.max(other.exchange_wait);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.merge_passes = self.merge_passes.max(other.merge_passes);
        self.one_pass = self.one_pass && other.one_pass;
        self.exchange_bytes_out += other.exchange_bytes_out;
        self.exchange_bytes_in += other.exchange_bytes_in;
        self.partition_sizes
            .extend_from_slice(&other.partition_sizes);
        self.runs_recovered += other.runs_recovered;
        self.runs_reformed += other.runs_reformed;
        self.merge_range_records
            .extend_from_slice(&other.merge_range_records);
        self.merge_range_time.extend_from_slice(&other.merge_range_time);
    }

    /// Book a partitioned merge's per-range wall times. The ranges run
    /// concurrently, so the merge phase lasted as long as the slowest one:
    /// `merge_time` gains the critical path (the maximum), not the sum,
    /// and the per-range values stay in `merge_range_time`.
    pub fn book_merge_ranges(&mut self, times: Vec<Duration>) {
        self.merge_time += times.iter().copied().max().unwrap_or_default();
        self.merge_range_time = times;
    }

    /// Average run length in records (0 when no runs).
    pub fn avg_run_len(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.records as f64 / self.runs as f64
        }
    }

    /// Largest post-exchange partition over the ideal share
    /// ([`crate::splitter::skew`]).
    pub fn exchange_skew(&self) -> f64 {
        skew(&self.partition_sizes)
    }

    /// Largest merged key range over the ideal share; 1.0 for serial
    /// merges (no ranges recorded).
    pub fn merge_skew(&self) -> f64 {
        skew(&self.merge_range_records)
    }

    /// Bytes this sort actually processed: `bytes_sorted` when counted,
    /// else the historical estimate of `records` fixed-length records.
    pub fn bytes_processed(&self) -> u64 {
        if self.bytes_sorted > 0 {
            self.bytes_sorted
        } else {
            self.records * alphasort_dmgen::RECORD_LEN as u64
        }
    }

    /// Sort throughput in MB/s over total elapsed time, based on bytes
    /// actually processed (not an assumed record size).
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes_processed() as f64 / 1e6 / secs
    }
}

/// Tiny helper: time a closure, adding its duration to `slot`.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// Time a closure, adding its duration to `slot` *and* recording an obs
/// span named `name` over the same interval. The single timing point for
/// pipeline phases: stats and trace cannot drift apart because they are
/// measured by the same call.
pub fn timed_phase<T>(name: &'static str, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let _g = obs::span(name);
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_accumulates() {
        let mut d = Duration::ZERO;
        let x = timed(&mut d, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(x, 42);
        assert!(d >= Duration::from_millis(4));
        timed(&mut d, || ());
        assert!(d >= Duration::from_millis(4));
    }

    #[test]
    fn timed_phase_accumulates_like_timed() {
        // Recorder disabled: must still time correctly (span is a no-op).
        let mut d = Duration::ZERO;
        let x = timed_phase(obs::phase::SORT, &mut d, || {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(x, 7);
        assert!(d >= Duration::from_millis(4));
    }

    #[test]
    fn derived_metrics() {
        let st = SortStats {
            records: 1000,
            runs: 10,
            elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        assert_eq!(st.avg_run_len(), 100.0);
        assert!((st.throughput_mbps() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn throughput_uses_actual_bytes_when_counted() {
        // 1000 records but only 50 kB actually processed (e.g. a future
        // variable-length format): throughput must follow real bytes, not
        // records × RECORD_LEN.
        let st = SortStats {
            records: 1000,
            bytes_sorted: 50_000,
            elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((st.throughput_mbps() - 0.05).abs() < 1e-9);
        assert_eq!(st.bytes_processed(), 50_000);
    }

    #[test]
    fn zero_division_is_safe() {
        let st = SortStats::default();
        assert_eq!(st.avg_run_len(), 0.0);
        assert_eq!(st.throughput_mbps(), 0.0);
        assert_eq!(st.exchange_skew(), 1.0);
    }

    #[test]
    fn merge_skew_is_max_over_ideal_and_concatenates_across_workers() {
        let st = SortStats {
            merge_range_records: vec![50, 150, 100, 100],
            merge_range_time: vec![Duration::from_secs(1); 4],
            ..Default::default()
        };
        // Ideal share is 100; the largest range holds 150.
        assert!((st.merge_skew() - 1.5).abs() < 1e-12);
        let mut m = SortStats::neutral();
        m.merge(&st);
        m.merge(&st);
        assert_eq!(m.merge_range_records.len(), 8);
        assert_eq!(m.merge_range_time.len(), 8);
        // Serial sorts record no ranges: skew reads as balanced.
        assert_eq!(SortStats::default().merge_skew(), 1.0);
    }

    #[test]
    fn exchange_skew_is_max_over_ideal() {
        let st = SortStats {
            partition_sizes: vec![100, 300, 100, 100],
            ..Default::default()
        };
        // Ideal share is 150; the largest partition holds 300.
        assert!((st.exchange_skew() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_compute_maxes_waits() {
        let a = SortStats {
            records: 100,
            bytes_sorted: 10_000,
            runs: 2,
            run_lengths: vec![60, 40],
            sort_time: Duration::from_millis(5),
            merge_time: Duration::from_millis(2),
            gather_time: Duration::from_millis(1),
            read_wait: Duration::from_millis(7),
            write_wait: Duration::from_millis(3),
            exchange_wait: Duration::from_millis(9),
            elapsed: Duration::from_millis(20),
            one_pass: true,
            exchange_bytes_out: 11,
            partition_sizes: vec![100],
            ..Default::default()
        };
        let b = SortStats {
            records: 50,
            bytes_sorted: 5_000,
            runs: 1,
            run_lengths: vec![50],
            sort_time: Duration::from_millis(8),
            merge_time: Duration::from_millis(1),
            gather_time: Duration::from_millis(4),
            read_wait: Duration::from_millis(2),
            write_wait: Duration::from_millis(6),
            exchange_wait: Duration::from_millis(4),
            elapsed: Duration::from_millis(30),
            spill_time: Duration::from_millis(12),
            one_pass: false,
            merge_passes: 1,
            exchange_bytes_in: 7,
            partition_sizes: vec![50],
            ..Default::default()
        };
        let mut m = SortStats::neutral();
        m.merge(&a);
        m.merge(&b);
        // Counters sum, vectors concatenate.
        assert_eq!(m.records, 150);
        assert_eq!(m.bytes_sorted, 15_000);
        assert_eq!(m.runs, 3);
        assert_eq!(m.run_lengths, vec![60, 40, 50]);
        assert_eq!(m.partition_sizes, vec![100, 50]);
        assert_eq!(m.exchange_bytes_out, 11);
        assert_eq!(m.exchange_bytes_in, 7);
        // Compute phases sum (CPU busy time across workers)...
        assert_eq!(m.sort_time, Duration::from_millis(13));
        assert_eq!(m.merge_time, Duration::from_millis(3));
        assert_eq!(m.gather_time, Duration::from_millis(5));
        // ...waits and wall clock take the critical path (max).
        assert_eq!(m.read_wait, Duration::from_millis(7));
        assert_eq!(m.write_wait, Duration::from_millis(6));
        assert_eq!(m.exchange_wait, Duration::from_millis(9));
        assert_eq!(m.spill_time, Duration::from_millis(12));
        assert_eq!(m.elapsed, Duration::from_millis(30));
        assert_eq!(m.merge_passes, 1);
        // one_pass only if every worker was one-pass.
        assert!(!m.one_pass);
    }

    #[test]
    fn neutral_is_merge_identity() {
        let a = SortStats {
            records: 9,
            one_pass: true,
            elapsed: Duration::from_millis(4),
            ..Default::default()
        };
        let mut m = SortStats::neutral();
        m.merge(&a);
        assert_eq!(m.records, a.records);
        assert_eq!(m.elapsed, a.elapsed);
        assert!(m.one_pass);
        // Folding nothing keeps the identity's one_pass=true, matching the
        // historical "empty cluster is trivially one-pass" behavior.
        assert!(SortStats::neutral().one_pass);
    }
}
