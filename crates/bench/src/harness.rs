//! A minimal bench harness: named groups, per-benchmark timing with median
//! and min over a fixed sample count, optional bytes/s throughput.
//!
//! The criterion dependency could not survive the offline, std-only rule, so
//! the `benches/*.rs` targets (all `harness = false`) drive this instead.
//! Statistics are deliberately simple — each sample is one full closure call
//! timed with [`Instant`]; the report prints the median, the min and, when a
//! throughput is declared, MB/s or M records/s at the median.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One named group of benchmarks, mirroring criterion's `benchmark_group`.
pub struct BenchGroup {
    name: String,
    samples: usize,
    /// Units processed per iteration, and their rate's label (per 10⁶).
    throughput: Option<(u64, &'static str)>,
}

impl BenchGroup {
    /// Start a group; the name prefixes every benchmark line.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("\n== {name} ==");
        BenchGroup {
            name,
            samples: 10,
            throughput: None,
        }
    }

    /// Samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Declare bytes processed per iteration, enabling MB/s in the report.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput = Some((bytes, "MB/s"));
        self
    }

    /// Declare records processed per iteration, enabling M records/s.
    pub fn throughput_records(&mut self, records: u64) -> &mut Self {
        self.throughput = Some((records, "Mrec/s"));
        self
    }

    /// Run one benchmark: a warm-up call, then `samples` timed calls.
    pub fn bench<R>(&mut self, id: impl AsRef<str>, mut f: impl FnMut() -> R) {
        self.bench_with(id, || (), |()| f());
    }

    /// [`bench`](Self::bench) for a routine that consumes its input:
    /// `setup` builds a fresh one before each call, outside the timing.
    pub fn bench_with<I, R>(
        &mut self,
        id: impl AsRef<str>,
        mut setup: impl FnMut() -> I,
        mut f: impl FnMut(I) -> R,
    ) {
        black_box(f(setup())); // warm-up (page in data, fill caches)
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let input = setup();
                let t0 = Instant::now();
                black_box(f(input));
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        let min = times[0];
        let rate = self
            .throughput
            .map(|(n, unit)| format!(", {:7.1} {unit}", n as f64 / 1e6 / median.as_secs_f64()))
            .unwrap_or_default();
        println!(
            "{}/{:<40} median {:>10.3?}  min {:>10.3?}{}",
            self.name,
            id.as_ref(),
            median,
            min,
            rate
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure_samples_plus_warmup_times() {
        let mut calls = 0u32;
        let mut g = BenchGroup::new("t");
        g.sample_size(3).throughput_bytes(1);
        g.bench("count", || calls += 1);
        assert_eq!(calls, 4); // 1 warm-up + 3 samples
    }

    #[test]
    fn bench_with_hands_each_call_a_fresh_input() {
        let (mut made, mut seen) = (0u32, Vec::new());
        let mut g = BenchGroup::new("t");
        g.sample_size(2);
        g.bench_with(
            "consume",
            || {
                made += 1;
                made
            },
            |i| seen.push(i),
        );
        assert_eq!(seen, [1, 2, 3]);
    }
}
