//! Figure 3: "How far away is the data?" — the memory-hierarchy distance
//! scale, plus a live pointer-chase measurement of the host's hierarchy.

use alphasort_cachesim::latency::figure3;

use super::*;

/// Dependent-load pointer chase over a `size`-byte ring; returns ns/load.
fn pointer_chase_ns(size: usize) -> f64 {
    let n = size / 8;
    // Random cycle (Sattolo's algorithm) so the prefetcher can't help.
    let mut next: Vec<usize> = (0..n).collect();
    let mut s = 0x9E37_79B9u64;
    for i in (1..n).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (s >> 33) as usize % i;
        next.swap(i, j);
    }
    let iters = 4_000_000usize;
    let mut idx = 0usize;
    // Warm.
    for _ in 0..n {
        idx = next[idx];
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        idx = next[idx];
    }
    let dt = t0.elapsed();
    std::hint::black_box(idx);
    dt.as_nanos() as f64 / iters as f64
}

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== Figure 3 (paper scale, 5 ns clock ticks) ==\n");
    let mut t = Table::new([
        "level",
        "clock ticks",
        "latency",
        "human analogy (1 tick = 1 min)",
    ]);
    let rows = figure3();
    for row in &rows {
        let ns = row.nanoseconds();
        let lat = if ns >= 1e9 {
            format!("{:.0} s", ns / 1e9)
        } else if ns >= 1e3 {
            format!("{:.0} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        };
        t.row([
            row.level.to_string(),
            format!("{:.0}", row.clock_ticks),
            lat,
            row.analogy.to_string(),
        ]);
    }
    r.table(t);

    r.line("\n== host pointer-chase (dependent loads, random cycle) ==\n");
    let mut h = Table::new(["working set", "ns/load"]);
    let sizes_kb = [4usize, 16, 64, 256, 1024, 4 * 1024, 32 * 1024, 128 * 1024];
    let ns: Vec<f64> = sizes_kb
        .iter()
        .map(|kb| pointer_chase_ns(kb << 10))
        .collect();
    for (kb, ns) in sizes_kb.iter().zip(&ns) {
        let label = if *kb >= 1024 {
            format!("{} MB", kb / 1024)
        } else {
            format!("{kb} KB")
        };
        h.row([label, format!("{ns:.1}")]);
    }
    r.table(h);
    r.line(
        "\nThe staircase in ns/load is the host's L1/L2/L3/DRAM hierarchy —\n\
         the same cliff structure Figure 3 dramatizes.\n",
    );
    // The paper predicted the gap would widen: memory further away, in
    // units of the nearest cache, than 1993's 100 ticks against 2.
    let ticks = |level| {
        rows.iter()
            .find(|row| row.level == level)
            .expect("a Figure 3 level")
            .clock_ticks
    };
    let paper = ticks("memory") / ticks("on-chip cache");
    let says = format!(
        "memory {}x as far as the on-chip cache, and the gap widens \
         (host: 128 MB vs 4 KB loads)",
        num(paper)
    );
    let (range, host) = ((paper, f64::INFINITY), ns[ns.len() - 1] / ns[0]);
    r.claim(Host.between("fig3.distance", &says, range, host, "x"));
    r
}
