//! Distributed netsort vs single-node AlphaSort.
//!
//! The paper's §2 baseline is a shared-nothing cluster: partition by
//! probabilistic splitting, exchange, sort locally. netsort keeps that
//! cluster — N worker threads behind a transport, coordinator-picked
//! splitters, an all-to-all exchange — but each node sorts the way
//! AlphaSort does: it forms runs while its share arrives, samples and cuts
//! the sorted runs, merges each key range onto the wire, and merges the
//! sorted streams it receives. This experiment runs it at 1/2/4/8 nodes
//! over loopback channels and at 2/4 over real TCP sockets, against the
//! single-node AlphaSort reference; [`baseline`] sets it against AlphaSort
//! at up to 32 nodes.
//!
//! The 4-node loopback run is traced: one Chrome `trace_event` file per
//! node (each node's spans live on its own `nodeK` track) lands in the
//! system temp directory, ready for Perfetto / `chrome://tracing`.

use alphasort_netsort::{netsort_loopback, netsort_tcp, NetsortConfig, RetryPolicy};
use alphasort_obs as obs;

use super::*;

pub fn run(records: u64) -> Report {
    let mut r = Report::default();
    let (input, cs) = generate(GenConfig::datamation(records, 61));
    let mb = (records * 100) as f64 / 1e6;

    r.line(format!(
        "== netsort: distributed shared-nothing sort ({records} records, {mb:.0} MB) ==\n"
    ));
    let mut t = Table::new([
        "configuration",
        "elapsed s",
        "MB/s",
        "shipped MB",
        "exch wait s",
        "skew",
    ]);

    // Single-node AlphaSort: the number the cluster has to beat.
    let cfg = paper_cfg(0);
    let s = sort_in_memory(input.clone(), cs, &cfg)
        .elapsed
        .as_secs_f64();
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
    let loopback = [1usize, 2, 4, 8].map(|nodes| ("loopback", nodes));
    for (transport, nodes) in loopback.into_iter().chain([("tcp", 2), ("tcp", 4)]) {
        // Trace the 4-node loopback run: one Chrome trace file per node,
        // split by track.
        let trace_this = (transport, nodes) == ("loopback", 4);
        if trace_this {
            obs::enable(obs::DEFAULT_CAPACITY);
        }
        let t0 = Instant::now();
        let (out, st) = match transport {
            "tcp" => netsort_tcp(&input, nodes, &ncfg, &RetryPolicy::default()),
            _ => netsort_loopback(&input, nodes, &ncfg),
        }
        .expect("netsort");
        let s = t0.elapsed().as_secs_f64();
        if trace_this {
            obs::disable();
            let snap = obs::snapshot();
            for node in 0..nodes {
                let track = format!("node{node}");
                let per = snap.filter_track(Some(&track));
                let path = std::env::temp_dir().join(format!("exp_netsort.{track}.trace.json"));
                let trace = obs::export::chrome_trace(&per).dump();
                std::fs::write(&path, trace).expect("write the node's trace");
                traced.push((track, per.events.len(), path));
            }
            obs::reset();
        }
        validate_records(&out, cs).expect("netsort output invalid");
        t.row([
            format!("netsort {transport}, {nodes} node(s)"),
            format!("{s:.3}"),
            format!("{:.1}", mb / s),
            format!("{:.1}", st.exchange_bytes_out as f64 / 1e6),
            format!("{:.3}", st.exchange_wait.as_secs_f64()),
            format!("{:.2}", st.exchange_skew()),
        ]);
    }
    r.table(t);

    if !traced.is_empty() {
        r.line("\nper-node traces from the 4-node loopback run (Perfetto / chrome://tracing):");
        for (track, events, path) in &traced {
            r.line(format!("  {track}: {events} events -> {}", path.display()));
        }
    }

    r.line(format!(
        "\nnetsort pays for real exchange (sampling, framing, {}-record data \
         batches, a CRC per frame) and a second merge per node; the win it \
         buys is the one §2 describes — each node sorts 1/N of the data with \
         its own cpu, memory and disks.",
        ncfg.batch_records
    ));
    r
}
