//! §5: shared-memory multiprocessor speedup.
//!
//! "If multiprocessors are available, AlphaSort breaks the QuickSort and
//! Merge jobs into smaller chores that are executed by worker processors
//! while the root process performs all IO. … It also demonstrates speedup
//! using multiple processors on a shared memory." Table 8's 3-cpu row is
//! 1.3× the 1-cpu row because the paper's runs were disk-bound; with IO out
//! of the way the chore decomposition itself shows its scaling — that is
//! what this experiment measures on the host.

use super::*;

pub fn run(records: u64) -> Report {
    let mut r = Report::default();
    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(1)
        .clamp(1, 7);

    r.line(format!(
        "== §5: worker scaling, in-memory sort of {records} records (host) ==\n"
    ));
    let mut t = Table::new([
        "workers",
        "elapsed s",
        "speedup",
        "sort cpu s",
        "gather cpu s",
    ]);
    let mut base = 0.0f64;
    for workers in 0..=max_workers {
        let cfg = paper_cfg(workers);
        // Median of 3 for noise; the sort's own clock, not generation.
        let mut times: Vec<(f64, f64, f64)> = (0..3)
            .map(|_| {
                let st = host_sort(records, &cfg);
                (
                    st.elapsed.as_secs_f64(),
                    st.sort_time.as_secs_f64(),
                    st.gather_time.as_secs_f64(),
                )
            })
            .collect();
        times.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (elapsed, sort_cpu, gather_cpu) = times[1];
        if workers == 0 {
            base = elapsed;
        }
        t.row([
            workers.to_string(),
            format!("{elapsed:.3}"),
            format!("{:.2}x", base / elapsed),
            format!("{sort_cpu:.3}"),
            format!("{gather_cpu:.3}"),
        ]);
    }
    r.table(t);

    r.line("\n== the paper's regime: same machine, 1 vs 3 cpus (model) ==\n");
    let mut one = table8()[2].clone(); // 1-cpu DEC 7000
    let b1 = datamation_model(&one, 100.0);
    one.cpus = 3;
    let b3 = datamation_model(&one, 100.0);
    r.line(format!(
        "1 cpu: {:.2} s   3 cpus (same disks): {:.2} s",
        b1.total(),
        b3.total()
    ));
    let says = "disk-bound, so extra cpus help little (the 3-cpu record also doubled the disks)";
    let (gain, unit) = (b1.total() / b3.total(), "x from 3 cpus");
    r.claim(Model.between("speedup.disk_bound", says, (1.0, 1.1), gain, unit));
    r.line("\nwith fast enough disks the model turns cpu-bound and 3 cpus pay:\n");
    let mut fast = table8()[2].clone();
    fast.read_mbps = 200.0;
    fast.write_mbps = 200.0;
    let mut totals = Vec::new();
    for cpus in [1u32, 2, 3] {
        fast.cpus = cpus;
        let b = datamation_model(&fast, 100.0);
        r.line(format!("  {cpus} cpu(s): {:.2} s", b.total()));
        totals.push(b.total());
    }
    let says = "\"demonstrates speedup using multiple processors on a shared memory\"";
    let gain = totals[0] / totals[2];
    r.claim(Model.between("speedup.cpu_bound", says, (1.5, 3.0), gain, unit));
    r
}
