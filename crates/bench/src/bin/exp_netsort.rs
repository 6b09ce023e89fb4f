//! Distributed netsort vs single-node AlphaSort.
//!
//! The paper's §2 baseline is a shared-nothing cluster: partition by
//! probabilistic splitting, exchange, sort locally. netsort is that design
//! — N worker threads behind a transport, coordinator-sampled splitters,
//! an all-to-all record exchange, and the AlphaSort pipeline per node.
//! This experiment runs it at 1/2/4/8 nodes over loopback channels and at
//! 2/4 over real TCP sockets, against the single-node AlphaSort reference;
//! `exp_baseline` sets it against AlphaSort at up to 32 nodes.
//!
//! Usage: `exp_netsort [RECORDS]` (default 500_000 = 50 MB).
//!
//! The 4-node loopback run is traced: one Chrome `trace_event` file per
//! node (each node's spans live on its own `nodeK` track) lands in the
//! system temp directory, ready for Perfetto / `chrome://tracing`.

use std::time::Instant;

use alphasort_obs as obs;

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::SortConfig;
use alphasort_dmgen::{generate, validate_records, GenConfig};
use alphasort_netsort::{netsort_loopback, netsort_tcp, NetsortConfig, RetryPolicy};
use alphasort_perfmodel::table::Table;

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);
    let (input, cs) = generate(GenConfig::datamation(records, 61));
    let mb = (records * 100) as f64 / 1e6;

    println!("== netsort: distributed shared-nothing sort ({records} records, {mb:.0} MB) ==\n");
    let mut t = Table::new([
        "configuration",
        "elapsed s",
        "MB/s",
        "shipped MB",
        "exch wait s",
        "skew",
    ]);

    // Single-node AlphaSort: the number the cluster has to beat.
    let cfg = SortConfig {
        run_records: 100_000,
        gather_batch: 10_000,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut source = MemSource::new(input.clone(), 1_000_000);
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    let s = t0.elapsed().as_secs_f64();
    validate_records(sink.data(), cs).unwrap();
    t.row([
        "AlphaSort, 1 node (reference)".to_string(),
        format!("{s:.3}"),
        format!("{:.1}", mb / s),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);

    let ncfg = NetsortConfig {
        sort: cfg.clone(),
        ..Default::default()
    };
    let mut traced = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        // Trace the 4-node run: one Chrome trace file per node, split by track.
        let trace_this = nodes == 4;
        if trace_this {
            obs::enable(obs::DEFAULT_CAPACITY);
        }
        let t0 = Instant::now();
        let (out, st) = netsort_loopback(&input, nodes, &ncfg).unwrap();
        let s = t0.elapsed().as_secs_f64();
        if trace_this {
            obs::disable();
            let snap = obs::snapshot();
            for node in 0..nodes {
                let track = format!("node{node}");
                let per = snap.filter_track(Some(&track));
                let path = std::env::temp_dir().join(format!("exp_netsort.{track}.trace.json"));
                std::fs::write(&path, obs::export::chrome_trace(&per).dump()).unwrap();
                traced.push((track, per.events.len(), path));
            }
            obs::reset();
        }
        validate_records(&out, cs).unwrap();
        t.row([
            format!("netsort loopback, {nodes} node(s)"),
            format!("{s:.3}"),
            format!("{:.1}", mb / s),
            format!("{:.1}", st.exchange_bytes_out as f64 / 1e6),
            format!("{:.3}", st.exchange_wait.as_secs_f64()),
            format!("{:.2}", st.exchange_skew()),
        ]);
    }
    for nodes in [2usize, 4] {
        let t0 = Instant::now();
        let (out, st) = netsort_tcp(&input, nodes, &ncfg, &RetryPolicy::default()).unwrap();
        let s = t0.elapsed().as_secs_f64();
        validate_records(&out, cs).unwrap();
        t.row([
            format!("netsort tcp, {nodes} node(s)"),
            format!("{s:.3}"),
            format!("{:.1}", mb / s),
            format!("{:.1}", st.exchange_bytes_out as f64 / 1e6),
            format!("{:.3}", st.exchange_wait.as_secs_f64()),
            format!("{:.2}", st.exchange_skew()),
        ]);
    }
    print!("{}", t.render());

    if !traced.is_empty() {
        println!("\nper-node traces from the 4-node loopback run (Perfetto / chrome://tracing):");
        for (track, events, path) in &traced {
            println!("  {track}: {events} events -> {}", path.display());
        }
    }

    println!(
        "\nnetsort pays for real exchange (sampling, framing, {}-record data \
         batches, a CRC per frame); the win it buys is the one §2 describes — \
         each node sorts 1/N of the data with its own cpu, memory and disks.",
        ncfg.batch_records
    );
}
