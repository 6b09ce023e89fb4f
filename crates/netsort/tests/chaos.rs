//! Chaos matrix for the distributed sort: 2/4-node clusters, loopback and
//! TCP transports, one fault class per test, every case under both record
//! layouts. Every case must end in one of
//! exactly two ways — a correct sorted output, or a prompt and correctly
//! attributed error on every node. Never a hang (each cluster runs under a
//! watchdog), never silently mis-sorted output.
//!
//! Fault injection comes from two layers: [`FaultyTransport`] wraps any
//! transport with a [`FaultPlan`] of [`NetFault`]s — iosim's rule engine,
//! so a frame can be dropped, delayed, corrupted or followed by a crash
//! once (`When::Nth`) or from some send on (`When::After`) — and
//! `TcpTransport::kill_connection` cuts a live socket mid-protocol.

use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, validate_records, var_records_of, GenConfig, RunningChecksum,
    TextCorpus, VarGenConfig,
};
use alphasort_iosim::fault::{Dir, FaultPlan, When};
use alphasort_netsort::{
    bind_cluster, remote_abort_of, run_worker, split_shares, FaultyTransport, NetFault,
    NetsortConfig, RetryPolicy, TcpTransport, Transport,
};

/// Watchdog ceiling: no single chaos cluster may run longer than this.
const WATCHDOG: Duration = Duration::from_secs(20);

/// The deadline the faulty clusters run under; "prompt" in the assertions
/// below means within 2× this (the acceptance bound) plus scheduling slack.
const DEADLINE: Duration = Duration::from_millis(500);

fn chaos_cfg(recv_timeout: Option<Duration>) -> NetsortConfig {
    NetsortConfig {
        samples_per_node: 32,
        batch_records: 64,
        recv_timeout,
        sort: SortConfig {
            run_records: 500,
            gather_batch: 200,
            ..Default::default()
        },
    }
}

/// [`chaos_cfg`] sorting records of `layout`.
fn layout_cfg(recv_timeout: Option<Duration>, layout: RecordLayout) -> NetsortConfig {
    let mut cfg = chaos_cfg(recv_timeout);
    cfg.sort.layout = layout;
    cfg
}

/// `records` records of `layout` — Datamation, or URLs for var-len.
fn layout_input(layout: RecordLayout, records: u64, seed: u64) -> Vec<u8> {
    match layout {
        RecordLayout::Datamation => generate(GenConfig::datamation(records, seed)).0,
        RecordLayout::VarLen => generate_varlen(VarGenConfig {
            records,
            seed,
            corpus: TextCorpus::Urls,
        }),
    }
}

/// Var-len frames stably sorted by key: what a var-len cluster must output
/// byte for byte.
fn var_stable_reference(input: &[u8]) -> Vec<u8> {
    let mut recs = var_records_of(input).unwrap();
    recs.sort_by(|a, b| a.key().cmp(b.key())); // stable
    recs.iter().flat_map(|r| r.frame()).copied().collect()
}

/// Hold a cluster's concatenated `output` to its `input`: a sorted
/// permutation (the input's checksum) for Datamation records, the stable
/// sort byte for byte for var-len ones.
fn assert_sorted(layout: RecordLayout, input: &[u8], output: &[u8]) {
    match layout {
        RecordLayout::Datamation => {
            let mut cs = RunningChecksum::new();
            cs.update_bytes(input);
            validate_records(output, cs.finish()).unwrap();
        }
        RecordLayout::VarLen => assert!(output == var_stable_reference(input)),
    }
}

/// One node's fate after a chaos run.
struct NodeResult {
    node: usize,
    result: io::Result<Vec<u8>>,
    elapsed: Duration,
}

/// Run an N-node cluster where node `i` uses `transports[i]` (already
/// wrapped in whatever fault injection the case wants), under a watchdog:
/// a node that neither finishes nor errors within [`WATCHDOG`] fails the
/// test instead of hanging it.
fn run_cluster<T: Transport + 'static>(
    transports: Vec<T>,
    shares: Vec<Vec<u8>>,
    cfg: &NetsortConfig,
) -> Vec<NodeResult> {
    let (tx, rx) = mpsc::channel();
    for (node, (mut transport, share)) in transports.into_iter().zip(shares).enumerate() {
        let tx = tx.clone();
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let source = MemSource::new(share, 1 << 20);
            let mut sink = MemSink::new();
            let result =
                run_worker(&mut transport, source, &mut sink, &cfg).map(|_| sink.into_inner());
            let _ = tx.send(NodeResult {
                node,
                result,
                elapsed: t0.elapsed(),
            });
        });
    }
    drop(tx);
    let mut results = Vec::new();
    let deadline = Instant::now() + WATCHDOG;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(r) => results.push(r),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let done: Vec<usize> = results.iter().map(|r| r.node).collect();
                panic!("cluster hung: only nodes {done:?} finished within {WATCHDOG:?}");
            }
        }
    }
    results.sort_by_key(|r| r.node);
    results
}

fn loopback_faulty(
    nodes: usize,
    mut plans: Vec<(usize, FaultPlan<NetFault>)>,
) -> Vec<FaultyTransport<alphasort_netsort::LoopbackTransport>> {
    alphasort_netsort::loopback_cluster(nodes)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let plan = plans
                .iter()
                .position(|(n, _)| *n == i)
                .map(|at| plans.swap_remove(at).1)
                .unwrap_or_default();
            FaultyTransport::new(t, plan)
        })
        .collect()
}

fn tcp_cluster(nodes: usize) -> Vec<TcpTransport> {
    let (listeners, addrs) = bind_cluster(nodes).unwrap();
    let policy = RetryPolicy::default();
    std::thread::scope(|scope| {
        let addrs = &addrs;
        let policy = &policy;
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(node, l)| scope.spawn(move || TcpTransport::establish(node, l, addrs, policy)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect()
    })
}

/// Is `err` one of the clean teardown kinds the acceptance criteria allow?
fn is_clean_teardown(err: &io::Error) -> bool {
    remote_abort_of(err).is_some()
        || matches!(
            err.kind(),
            io::ErrorKind::TimedOut
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
        )
}

fn assert_all_fail_promptly(results: &[NodeResult], survivors: &[usize]) {
    for r in results {
        if !survivors.contains(&r.node) {
            continue;
        }
        let err = match &r.result {
            Err(e) => e,
            Ok(_) => panic!("node {} must not succeed under this fault", r.node),
        };
        assert!(is_clean_teardown(err), "node {}: {err}", r.node);
        // Pre-exchange work (read/sample) runs before the deadline clock
        // can start; the bound is 2× the deadline plus that lead-in.
        assert!(
            r.elapsed < 2 * DEADLINE + Duration::from_secs(2),
            "node {} took {:?} to fail (deadline {DEADLINE:?})",
            r.node,
            r.elapsed
        );
    }
}

// ---------------------------------------------------------------------------
// Fault class: none (control) — both layouts, both node counts.
// ---------------------------------------------------------------------------

#[test]
fn control_no_faults_sorts_correctly() {
    for layout in RecordLayout::ALL {
        for nodes in [2usize, 4] {
            // Success-path cases use a generous deadline: they assert
            // sorting, not promptness, and must not flake under parallel
            // test load.
            let cfg = layout_cfg(Some(Duration::from_secs(10)), layout);
            let seed = 0xC0_u64 + nodes as u64;
            let input = layout_input(layout, 2_000, seed);
            let results = run_cluster(
                loopback_faulty(nodes, Vec::new()),
                split_shares(&input, nodes, layout).unwrap(),
                &cfg,
            );
            let output: Vec<u8> = results
                .iter()
                .flat_map(|r| r.result.as_ref().unwrap().clone())
                .collect();
            assert_sorted(layout, &input, &output);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault class: crashed node (TCP socket kill + loopback crash emulation).
// ---------------------------------------------------------------------------

/// Acceptance shape: a 4-node TCP cluster with one node killed mid-exchange
/// terminates on every surviving node within 2× the deadline — each with a
/// `TimedOut`/connection/`RemoteAbort` error, never a hang.
#[test]
fn tcp_node_killed_mid_exchange_fails_promptly_on_survivors() {
    for (layout, nodes) in RecordLayout::ALL
        .into_iter()
        .flat_map(|l| [(l, 2usize), (l, 4)])
    {
        let input = layout_input(layout, 2_000, 0xDEAD);
        // Node `nodes-1` crashes after its 2nd frame (Sample + one more):
        // mid-exchange, after splitters went out. On TCP its sockets stay
        // open (the process "hangs" rather than closing), so survivors hit
        // the deadline or an abort, not an EOF.
        let killer = nodes - 1;
        let transports: Vec<_> = tcp_cluster(nodes)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let plan = if i == killer {
                    FaultPlan::new().on(Dir::Out, When::Nth(2), NetFault::Kill)
                } else {
                    FaultPlan::new()
                };
                FaultyTransport::new(t, plan)
            })
            .collect();
        let survivors: Vec<usize> = (0..nodes).filter(|&i| i != killer).collect();
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(DEADLINE), layout),
        );
        assert_all_fail_promptly(&results, &survivors);
        // The killed node itself reports its injected crash.
        assert!(results[killer].result.is_err());
    }
}

#[test]
fn tcp_connection_cut_by_kill_connection_fails_cleanly() {
    let nodes = 4;
    for layout in RecordLayout::ALL {
        let input = layout_input(layout, 2_000, 0xC07);
        let mut transports = tcp_cluster(nodes);
        // Hard-cut node 3's link to node 0 before the protocol starts: node
        // 0 never hears node 3's Sample on a live connection; the reader
        // sees the RST as ConnectionAborted, or the sample phase times out.
        assert!(transports[3].kill_connection(0));
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(DEADLINE), layout),
        );
        // Node 3's own failure is a local send error (`NotConnected`); the
        // others must see a clean teardown: node 0 the EOF-without-Bye from
        // the cut socket, nodes 1 and 2 node 3's abort broadcast.
        assert!(results[3].result.is_err(), "{}", layout.name());
        assert_all_fail_promptly(&results, &[0, 1, 2]);
    }
}

#[test]
fn loopback_silent_node_times_out_naming_phase_and_node() {
    for (layout, nodes) in RecordLayout::ALL
        .into_iter()
        .flat_map(|l| [(l, 2usize), (l, 4)])
    {
        let input = layout_input(layout, 1_000, 0x51);
        // The last node drops every frame it ever sends — a live process
        // whose network goes nowhere (grey failure).
        let plan = FaultPlan::new().on(Dir::Out, When::After(0), NetFault::Drop);
        let transports = loopback_faulty(nodes, vec![(nodes - 1, plan)]);
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(DEADLINE), layout),
        );
        // The coordinator times out collecting samples and names both the
        // phase and the missing node in its error.
        let coord_err = results[0].result.as_ref().unwrap_err();
        if coord_err.kind() == io::ErrorKind::TimedOut {
            let msg = coord_err.to_string();
            assert!(msg.contains("sample"), "{msg}");
            assert!(msg.contains(&format!("{}", nodes - 1)), "{msg}");
        } else {
            // It may instead see another survivor's abort first.
            assert!(remote_abort_of(coord_err).is_some(), "{coord_err}");
        }
        assert_all_fail_promptly(&results, &(0..nodes).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// Fault class: dropped frame.
// ---------------------------------------------------------------------------

#[test]
fn dropped_done_frame_times_out_in_exchange_phase() {
    let nodes = 2;
    for layout in RecordLayout::ALL {
        let input = layout_input(layout, 1_000, 0xD0);
        // Node 1's op 0 is its Sample, op 1.. are Data batches then Done, so
        // dropping every send after the sample loses the Done while node 0
        // still gets its splitters (coordinator is node 0).
        let plan = FaultPlan::new().on(Dir::Out, When::After(1), NetFault::Drop);
        let transports = loopback_faulty(nodes, vec![(1, plan)]);
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(DEADLINE), layout),
        );
        let err0 = results[0].result.as_ref().unwrap_err();
        if err0.kind() == io::ErrorKind::TimedOut {
            assert!(err0.to_string().contains("exchange"), "{err0}");
        } else {
            assert!(remote_abort_of(err0).is_some(), "{err0}");
        }
        // Node 1 received everything *it* needed before its sends started
        // vanishing, so it legitimately completes its own share; only node
        // 0 is starved. The cluster-level driver still reports node 0's
        // error.
        assert_all_fail_promptly(&results, &[0]);
    }
}

// ---------------------------------------------------------------------------
// Fault class: delayed frame (slow link, within deadline) — must still sort.
// ---------------------------------------------------------------------------

#[test]
fn delay_within_deadline_still_sorts_correctly() {
    for (layout, nodes) in RecordLayout::ALL
        .into_iter()
        .flat_map(|l| [(l, 2usize), (l, 4)])
    {
        let input = layout_input(layout, 1_000, 0xDE1A);
        let plan = FaultPlan::new()
            .on(
                Dir::Out,
                When::Nth(0),
                NetFault::Delay(Duration::from_millis(50)),
            )
            .on(
                Dir::Out,
                When::Nth(2),
                NetFault::Delay(Duration::from_millis(50)),
            );
        let transports = loopback_faulty(nodes, vec![(nodes - 1, plan)]);
        // Deadline well above the injected delay: slow is not dead.
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(Duration::from_secs(10)), layout),
        );
        let output: Vec<u8> = results
            .iter()
            .flat_map(|r| r.result.as_ref().unwrap().clone())
            .collect();
        assert_sorted(layout, &input, &output);
    }
}

// ---------------------------------------------------------------------------
// Fault class: corrupted frame — CRC must catch it, naming the sender;
// never a silently mis-sorted output.
// ---------------------------------------------------------------------------

#[test]
fn corrupt_frame_is_crc_error_naming_peer_never_bad_output() {
    for layout in RecordLayout::ALL {
        for nodes in [2usize, 4] {
            let seed = 0xBAD_u64 + nodes as u64;
            let input = layout_input(layout, 2_000, seed);
            // Node 0 (the coordinator) sees its 3rd received frame corrupted
            // on the wire: with `nodes` samples arriving first, frame 2 is a
            // Sample or early Data either way — always CRC-covered.
            let transports = loopback_faulty(
                nodes,
                vec![(
                    0,
                    FaultPlan::new().on(Dir::In, When::Nth(2), NetFault::Corrupt { byte: 5 }),
                )],
            );
            let results = run_cluster(
                transports,
                split_shares(&input, nodes, layout).unwrap(),
                &layout_cfg(Some(DEADLINE), layout),
            );
            let err0 = results[0].result.as_ref().unwrap_err();
            assert_eq!(err0.kind(), io::ErrorKind::InvalidData, "{err0}");
            assert!(err0.to_string().contains("CRC"), "{err0}");
            assert!(err0.to_string().contains("node"), "{err0}");
            // No node may emit output sorted from corrupt data; the others
            // tear down via node 0's abort broadcast (or their own deadline).
            assert_all_fail_promptly(&results, &(1..nodes).collect::<Vec<_>>());
        }
    }
}

#[test]
fn tcp_corrupt_frame_is_detected_over_real_sockets() {
    let nodes = 2;
    for layout in RecordLayout::ALL {
        let input = layout_input(layout, 1_000, 0x7CB);
        let transports: Vec<_> = tcp_cluster(nodes)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let plan = if i == 1 {
                    FaultPlan::new().on(Dir::In, When::Nth(1), NetFault::Corrupt { byte: 9 })
                } else {
                    FaultPlan::new()
                };
                FaultyTransport::new(t, plan)
            })
            .collect();
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(DEADLINE), layout),
        );
        let err1 = results[1].result.as_ref().unwrap_err();
        assert_eq!(err1.kind(), io::ErrorKind::InvalidData, "{err1}");
        assert!(err1.to_string().contains("CRC"), "{err1}");
        // Node 0 races node 1's abort against its own completion: node 1
        // sent its Data and Done before hitting the corrupt frame, so node 0
        // may finish cleanly (its share is fine) or see the abort. Both are
        // acceptable; what is not is a hang (watchdog) or node 1 accepting
        // the corrupt frame (asserted above).
        if let Err(e) = &results[0].result {
            assert!(is_clean_teardown(e), "node 0: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Fault class: local failure — abort must propagate well before deadlines.
// ---------------------------------------------------------------------------

#[test]
fn local_failure_aborts_whole_cluster_before_any_deadline() {
    let nodes = 4;
    for layout in RecordLayout::ALL {
        let input = layout_input(layout, 2_000, 0xAB07);
        // Node 2's very first send (its Sample) fails locally — a NIC-level
        // error. With a *long* deadline, the only way the others can stop
        // quickly is node 2's Abort broadcast.
        let long = Duration::from_secs(15);
        let transports = loopback_faulty(
            nodes,
            vec![(
                2,
                FaultPlan::new().on(Dir::Out, When::Nth(0), NetFault::Fail(io::ErrorKind::Other)),
            )],
        );
        let t0 = Instant::now();
        let results = run_cluster(
            transports,
            split_shares(&input, nodes, layout).unwrap(),
            &layout_cfg(Some(long), layout),
        );
        let wall = t0.elapsed();
        assert!(
            wall < long,
            "survivors must stop via abort propagation, not deadline ({wall:?})"
        );
        for r in &results {
            let err = match &r.result {
                Err(e) => e,
                Ok(_) => panic!("node {} must not succeed", r.node),
            };
            // Survivors either see node 2's abort or the cascade teardown of
            // an already-stopped peer's transport — both clean, both prompt.
            if r.node != 2 {
                assert!(is_clean_teardown(err), "node {}: {err}", r.node);
            }
        }
        // The coordinator is guaranteed the attributed form: node 2's Abort
        // sits in its inbox and its sample gather can only end by pulling it.
        let err0 = results[0].result.as_ref().unwrap_err();
        let abort = remote_abort_of(err0)
            .unwrap_or_else(|| panic!("coordinator: expected remote abort, got {err0}"));
        assert_eq!(abort.from, 2, "abort must name the failed node");
        assert!(
            abort.reason.contains("injected send fault"),
            "{}",
            abort.reason
        );
    }
}
