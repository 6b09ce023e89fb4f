//! The per-node worker and whole-cluster drivers.
//!
//! Protocol, from each worker's point of view:
//!
//! 1. **Sample** — read the local input, sample keys with the golden-ratio
//!    stride, send them to the coordinator (node 0; a self-send when we
//!    *are* node 0).
//! 2. **Split** — the coordinator pools all samples, picks the quantile
//!    splitters and broadcasts them; everyone else waits, stashing any
//!    early `Data` frames from faster peers (frames from different peers
//!    have no cross-ordering).
//! 3. **Exchange** — partition the local records by the splitters, stream
//!    each foreign partition to its owner in batched `Data` frames, then
//!    tell every peer `Done`. Drain the inbox until all peers said `Done`.
//! 4. **Local sort** — run the ordinary AlphaSort one-pass pipeline over
//!    the records this node now owns and write them to the local sink.
//!    Concatenating the node outputs in node order is the sorted dataset.
//!
//! Every blocking receive in steps 1–3 runs under the configurable
//! [`NetsortConfig::recv_timeout`] deadline, so a hung or crashed peer
//! surfaces as a `TimedOut` error naming the protocol phase and the nodes
//! still being waited on — never an indefinite hang. A worker that fails
//! locally broadcasts [`Frame::Abort`] before returning, so the other N−1
//! nodes stop promptly with a [`RemoteAbort`] error instead of each
//! riding out its own deadline.

use std::error::Error as StdError;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use alphasort_core::io::{MemSink, MemSource, RecordSink, RecordSource};
use alphasort_core::splitter::{compute_splitters, decode_keys, partition_records, sample_keys};
use alphasort_core::stats::timed_phase;
use alphasort_core::{driver::one_pass, SortConfig, SortStats};
use alphasort_dmgen::{KEY_LEN, RECORD_LEN};
use alphasort_obs as obs;

use crate::frame::Frame;
use crate::transport::{loopback_cluster, Transport};

/// Coordinator node id.
pub const COORDINATOR: usize = 0;

/// Configuration shared by every worker of a distributed sort.
#[derive(Clone, Debug)]
pub struct NetsortConfig {
    /// Keys each node samples for the coordinator's splitter computation.
    pub samples_per_node: usize,
    /// Records per `Data` frame during the exchange (640 records = 64 kB
    /// payloads, large enough to amortize framing, small enough to pipeline).
    pub batch_records: usize,
    /// Deadline for every blocking receive in the protocol. A peer that
    /// sends nothing for this long surfaces as a `TimedOut` error naming
    /// the phase and the missing node(s); `None` waits forever (the
    /// pre-fault-tolerance behaviour).
    pub recv_timeout: Option<Duration>,
    /// The local AlphaSort pipeline's configuration.
    pub sort: SortConfig,
}

impl NetsortConfig {
    /// Default [`recv_timeout`](Self::recv_timeout): far above any healthy
    /// exchange stall, far below "operator walks over to check".
    pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);
}

impl Default for NetsortConfig {
    fn default() -> Self {
        NetsortConfig {
            samples_per_node: 256,
            batch_records: 640,
            recv_timeout: Some(Self::DEFAULT_RECV_TIMEOUT),
            sort: SortConfig::default(),
        }
    }
}

/// The error payload a worker returns when a *peer* reported a local
/// failure via [`Frame::Abort`]: the cluster is going down because of
/// `from`'s problem, not ours. Carried inside an `io::Error` of kind
/// `ConnectionAborted`; use [`remote_abort_of`] to recover it.
#[derive(Clone, Debug)]
pub struct RemoteAbort {
    /// The node that failed and broadcast the abort.
    pub from: u32,
    /// Its (already formatted) local error.
    pub reason: String,
}

impl fmt::Display for RemoteAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remote abort from node {}: {}", self.from, self.reason)
    }
}

impl StdError for RemoteAbort {}

/// The [`RemoteAbort`] inside `err`, if that is what it carries.
pub fn remote_abort_of(err: &io::Error) -> Option<&RemoteAbort> {
    err.get_ref().and_then(|e| e.downcast_ref::<RemoteAbort>())
}

fn remote_abort_err(from: u32, reason: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionAborted,
        RemoteAbort { from, reason },
    )
}

/// One worker's result: its share of the sorted output lives in its sink;
/// `stats` covers the whole worker including the exchange phase.
#[derive(Clone, Debug)]
pub struct WorkerOutcome {
    /// Phase breakdown; exchange counters filled in.
    pub stats: SortStats,
    /// Bytes this node wrote to its local sink.
    pub bytes: u64,
}

fn protocol_error(what: &str, frame: &Frame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "protocol error: expected {what}, got {frame:?} from node {}",
            frame.from()
        ),
    )
}

/// A CRC-valid key payload is still bytes the peer chose: refuse one that is
/// not whole keys — or, where the protocol fixes the count, not exactly
/// `expect` of them — before a decoder asserts on it or its length sizes the
/// partition table.
fn check_keys(what: &str, from: u32, keys: &[u8], expect: Option<usize>) -> io::Result<()> {
    let (ok, want) = match expect {
        Some(n) => (keys.len() == n * KEY_LEN, format!("exactly {n}")),
        None => (keys.len().is_multiple_of(KEY_LEN), "whole".to_string()),
    };
    if ok {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{what} frame from node {from} carries {} bytes, not {want} {KEY_LEN}-byte keys",
            keys.len()
        ),
    ))
}

/// Render the nodes still being waited on (`present[i] == false`) for a
/// timeout message.
fn missing_nodes(present: &[bool]) -> String {
    let missing: Vec<String> = present
        .iter()
        .enumerate()
        .filter(|&(_, &p)| !p)
        .map(|(i, _)| i.to_string())
        .collect();
    format!("node(s) [{}]", missing.join(", "))
}

/// Receive one frame under the configured deadline. A timeout is attributed
/// to the protocol `phase` and the nodes named by `missing`; a peer's
/// [`Frame::Abort`] becomes the [`RemoteAbort`] error right here, so no
/// caller ever has to treat it as data.
fn recv_in_phase<T: Transport>(
    transport: &mut T,
    cfg: &NetsortConfig,
    stats: &mut SortStats,
    phase: &str,
    missing: &dyn Fn() -> String,
) -> io::Result<Frame> {
    let frame = timed_phase(obs::phase::EXCHANGE, &mut stats.exchange_wait, || match cfg
        .recv_timeout
    {
        Some(deadline) => transport.recv_timeout(deadline).map_err(|e| {
            if e.kind() == io::ErrorKind::TimedOut {
                obs::metrics::counter_add("net.recv.timeout", 1);
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{phase} phase timed out after {deadline:?} waiting for {}",
                        missing()
                    ),
                )
            } else {
                e
            }
        }),
        None => transport.recv(),
    })?;
    if let Frame::Abort { from, reason } = frame {
        obs::metrics::counter_add("net.frames.abort_received", 1);
        return Err(remote_abort_err(from, reason));
    }
    Ok(frame)
}

/// Run one node of the distributed sort. Blocks until this node's share of
/// the output is fully written to `sink` — or until the configured receive
/// deadline or a peer's abort ends the run with an error. On a local
/// failure the worker broadcasts [`Frame::Abort`] (best effort) before
/// returning, so the rest of the cluster tears down promptly too.
pub fn run_worker<T, Src, Snk>(
    transport: &mut T,
    source: &mut Src,
    sink: &mut Snk,
    cfg: &NetsortConfig,
) -> io::Result<WorkerOutcome>
where
    T: Transport,
    Src: RecordSource,
    Snk: RecordSink,
{
    match run_worker_inner(transport, source, sink, cfg) {
        Ok(outcome) => Ok(outcome),
        Err(err) => {
            // Going down: tell every peer why, unless the failure *is* a
            // peer's abort (its originator already told the cluster).
            // Best effort on every send — peers may already be gone.
            if remote_abort_of(&err).is_none() {
                let me = transport.node() as u32;
                let reason = err.to_string();
                obs::metrics::counter_add("net.frames.abort_sent", 1);
                for peer in 0..transport.nodes() {
                    if peer != transport.node() {
                        let _ = transport.send(
                            peer,
                            Frame::Abort {
                                from: me,
                                reason: reason.clone(),
                            },
                        );
                    }
                }
            }
            let _ = transport.shutdown();
            Err(err)
        }
    }
}

fn run_worker_inner<T, Src, Snk>(
    transport: &mut T,
    source: &mut Src,
    sink: &mut Snk,
    cfg: &NetsortConfig,
) -> io::Result<WorkerOutcome>
where
    T: Transport,
    Src: RecordSource,
    Snk: RecordSink,
{
    let t_start = Instant::now();
    let node = transport.node();
    let nodes = transport.nodes();
    let me = node as u32;
    let mut stats = SortStats::default();

    // Tag everything this worker (and the pools it spawns) records onto a
    // per-node track, so one process's trace splits into one per node.
    obs::set_track(&format!("node{node}"));
    let mut top = obs::span(obs::phase::NET_WORKER).with("node", node as u64);

    // ---- read the local input ---------------------------------------------
    let mut input: Vec<u8> = Vec::new();
    loop {
        let chunk = timed_phase(obs::phase::READ, &mut stats.read_wait, || {
            source.next_chunk()
        })?;
        let Some(chunk) = chunk else { break };
        input.extend_from_slice(&chunk);
    }
    if !input.len().is_multiple_of(RECORD_LEN) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "node {node} input ends mid-record ({} trailing bytes)",
                input.len() % RECORD_LEN
            ),
        ));
    }

    // ---- sample + splitters -----------------------------------------------
    let sample_span = obs::span(obs::phase::NET_SAMPLE);
    transport.send(
        COORDINATOR,
        Frame::Sample {
            from: me,
            keys: sample_keys(&input, cfg.samples_per_node),
        },
    )?;
    if node == COORDINATOR {
        let mut samples: Vec<Option<Vec<u8>>> = vec![None; nodes];
        while samples.iter().any(Option::is_none) {
            let frame = recv_in_phase(transport, cfg, &mut stats, "sample", &|| {
                missing_nodes(&samples.iter().map(Option::is_some).collect::<Vec<_>>())
            })?;
            match frame {
                Frame::Sample { from, keys } => {
                    let sender = from as usize;
                    if sender >= nodes {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("Sample frame from unknown node {sender}"),
                        ));
                    }
                    check_keys("Sample", from, &keys, None)?;
                    if samples[sender].replace(keys).is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("duplicate Sample from node {sender}"),
                        ));
                    }
                }
                other => return Err(protocol_error("Sample", &other)),
            }
        }
        let samples: Vec<Vec<u8>> = samples.into_iter().flatten().collect();
        let payload = compute_splitters(&samples, nodes).concat();
        for peer in 0..nodes {
            transport.send(
                peer,
                Frame::Splitters {
                    from: me,
                    keys: payload.clone(),
                },
            )?;
        }
    }
    // Everyone (coordinator included — it self-sent) waits for the
    // splitters, stashing early exchange traffic from faster peers.
    let mut pending: Vec<Frame> = Vec::new();
    let splitters = loop {
        let frame = recv_in_phase(transport, cfg, &mut stats, "splitter", &|| {
            format!("the coordinator (node {COORDINATOR})")
        })?;
        match frame {
            Frame::Splitters { from, keys } => {
                check_keys("Splitters", from, &keys, Some(nodes - 1))?;
                break decode_keys(&keys);
            }
            data @ (Frame::Data { .. } | Frame::Done { .. }) => pending.push(data),
            other => return Err(protocol_error("Splitters", &other)),
        }
    };
    drop(sample_span);

    // ---- exchange: scatter ours, gather ours ------------------------------
    let mut partitions = partition_records(&input, &splitters);
    drop(input);
    // Gather received records per sender, not in arrival order: shares are
    // contiguous in node order, so concatenating the per-sender buffers in
    // node order restores the global input order within this partition.
    // With a stable local sort that makes the distributed output
    // byte-identical to a single-node stable sort, ties included.
    let mut gather: Vec<Vec<u8>> = vec![Vec::new(); nodes];
    gather[node] = std::mem::take(&mut partitions[node]);
    for (target, part) in partitions.into_iter().enumerate() {
        if target == node {
            continue;
        }
        for batch in part.chunks(cfg.batch_records * RECORD_LEN) {
            stats.exchange_bytes_out += batch.len() as u64;
            let _send = obs::span(obs::phase::NET_SEND)
                .with("peer", target as u64)
                .with("bytes", batch.len() as u64);
            obs::metrics::observe("net.frame.bytes", batch.len() as u64);
            obs::metrics::counter_add("net.bytes_out", batch.len() as u64);
            timed_phase(obs::phase::EXCHANGE, &mut stats.exchange_wait, || {
                transport.send(
                    target,
                    Frame::Data {
                        from: me,
                        records: batch.to_vec(),
                    },
                )
            })?;
        }
        transport.send(target, Frame::Done { from: me })?;
    }
    // `done[i]` once node i said it has no more Data for us; we never send
    // Done to ourselves, so our own slot starts satisfied.
    let mut done = vec![false; nodes];
    done[node] = true;
    let absorb =
        |frame: Frame, gather: &mut Vec<Vec<u8>>, done: &mut Vec<bool>, stats: &mut SortStats| {
            match frame {
                Frame::Data { from, records } => {
                    let sender = from as usize;
                    if sender >= nodes {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("Data frame from unknown node {sender}"),
                        ));
                    }
                    let _recv = obs::span(obs::phase::NET_RECV)
                        .with("peer", sender as u64)
                        .with("bytes", records.len() as u64);
                    obs::metrics::observe("net.frame.bytes", records.len() as u64);
                    obs::metrics::counter_add("net.bytes_in", records.len() as u64);
                    stats.exchange_bytes_in += records.len() as u64;
                    gather[sender].extend_from_slice(&records);
                }
                Frame::Done { from } => {
                    let sender = from as usize;
                    if sender >= nodes || done[sender] {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected Done from node {sender}"),
                        ));
                    }
                    done[sender] = true;
                }
                other => return Err(protocol_error("Data or Done", &other)),
            }
            Ok(())
        };
    for frame in pending {
        absorb(frame, &mut gather, &mut done, &mut stats)?;
    }
    while done.iter().any(|d| !d) {
        let frame = recv_in_phase(transport, cfg, &mut stats, "exchange", &|| {
            missing_nodes(&done)
        })?;
        absorb(frame, &mut gather, &mut done, &mut stats)?;
    }
    transport.shutdown()?;
    let local = gather.concat();

    // ---- local AlphaSort pipeline over what we now own --------------------
    stats.partition_sizes = vec![(local.len() / RECORD_LEN) as u64];
    let mut local_source = MemSource::new(local, 1 << 20);
    let outcome = {
        let _local = obs::span(obs::phase::NET_LOCAL);
        one_pass(&mut local_source, sink, &cfg.sort)?
    };

    // Fold the local pipeline's stats into the worker-level ones.
    let exchange = stats;
    let mut stats = outcome.stats;
    stats.read_wait += exchange.read_wait;
    stats.exchange_bytes_out = exchange.exchange_bytes_out;
    stats.exchange_bytes_in = exchange.exchange_bytes_in;
    stats.exchange_wait = exchange.exchange_wait;
    stats.partition_sizes = exchange.partition_sizes;
    stats.elapsed = t_start.elapsed();
    top.attr("records", stats.records);
    top.attr("bytes_in", stats.exchange_bytes_in);
    top.attr("bytes_out", stats.exchange_bytes_out);
    Ok(WorkerOutcome {
        stats,
        bytes: outcome.bytes,
    })
}

/// Split `input` into `nodes` contiguous record-aligned shares (the last
/// may be short) — each node's "local disk" in the in-process drivers.
pub fn split_shares(input: &[u8], nodes: usize) -> Vec<Vec<u8>> {
    assert!(nodes >= 1);
    assert!(input.len().is_multiple_of(RECORD_LEN));
    let records = input.len() / RECORD_LEN;
    let per = records.div_ceil(nodes).max(1) * RECORD_LEN;
    let mut shares: Vec<Vec<u8>> = input.chunks(per).map(<[u8]>::to_vec).collect();
    shares.resize(nodes, Vec::new());
    shares
}

/// Combine per-node worker stats into one cluster-level view — a fold over
/// [`SortStats::merge`], so the field policy is identical to the in-process
/// pools: counters sum, compute phases (sort/merge/gather) sum into cluster
/// CPU-busy totals, waits and elapsed take the per-node maximum (the
/// critical path), and `partition_sizes` lists every node's post-exchange
/// share in node order.
pub fn merge_cluster_stats(per_node: &[SortStats]) -> SortStats {
    let mut out = SortStats::neutral();
    for st in per_node {
        out.merge(st);
    }
    out
}

/// Sort `input` on an in-process cluster of `nodes` workers connected by
/// the loopback transport. Returns the concatenated (globally sorted)
/// output and the merged cluster stats.
pub fn netsort_loopback(
    input: &[u8],
    nodes: usize,
    cfg: &NetsortConfig,
) -> io::Result<(Vec<u8>, SortStats)> {
    let shares = split_shares(input, nodes);
    let transports = loopback_cluster(nodes);
    let results: Vec<io::Result<(Vec<u8>, SortStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .zip(shares)
            .map(|(mut transport, share)| {
                scope.spawn(move || {
                    let mut source = MemSource::new(share, 1 << 20);
                    let mut sink = MemSink::new();
                    let outcome = run_worker(&mut transport, &mut source, &mut sink, cfg)?;
                    Ok((sink.into_inner(), outcome.stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut output = Vec::with_capacity(input.len());
    let mut stats = Vec::with_capacity(nodes);
    for r in results {
        let (part, st) = r?;
        output.extend_from_slice(&part);
        stats.push(st);
    }
    Ok((output, merge_cluster_stats(&stats)))
}

/// Sort `input` on a cluster of `nodes` workers connected by real TCP
/// sockets on 127.0.0.1 (each worker a thread with its own listener).
pub fn netsort_tcp(
    input: &[u8],
    nodes: usize,
    cfg: &NetsortConfig,
    policy: &crate::tcp::RetryPolicy,
) -> io::Result<(Vec<u8>, SortStats)> {
    let shares = split_shares(input, nodes);
    let (listeners, addrs) = crate::tcp::bind_cluster(nodes)?;
    let results: Vec<io::Result<(Vec<u8>, SortStats)>> = std::thread::scope(|scope| {
        let addrs = &addrs;
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(shares)
            .enumerate()
            .map(|(node, (listener, share))| {
                scope.spawn(move || {
                    let mut transport =
                        crate::tcp::TcpTransport::establish(node, listener, addrs, policy)?;
                    let mut source = MemSource::new(share, 1 << 20);
                    let mut sink = MemSink::new();
                    let outcome = run_worker(&mut transport, &mut source, &mut sink, cfg)?;
                    Ok((sink.into_inner(), outcome.stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut output = Vec::with_capacity(input.len());
    let mut stats = Vec::with_capacity(nodes);
    for r in results {
        let (part, st) = r?;
        output.extend_from_slice(&part);
        stats.push(st);
    }
    Ok((output, merge_cluster_stats(&stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, validate_records, GenConfig};

    #[test]
    fn split_shares_covers_input_exactly() {
        let (input, _) = generate(GenConfig::datamation(103, 1));
        let shares = split_shares(&input, 4);
        assert_eq!(shares.len(), 4);
        assert!(shares.iter().all(|s| s.len() % RECORD_LEN == 0));
        assert_eq!(shares.concat(), input);
        // More nodes than records: trailing shares are empty, none lost.
        let tiny = split_shares(&input[..2 * RECORD_LEN], 8);
        assert_eq!(tiny.len(), 8);
        assert_eq!(tiny.concat(), &input[..2 * RECORD_LEN]);
    }

    #[test]
    fn loopback_cluster_sorts_and_validates() {
        let (input, cs) = generate(GenConfig::datamation(10_000, 42));
        let cfg = NetsortConfig {
            sort: SortConfig {
                run_records: 1_000,
                gather_batch: 500,
                ..Default::default()
            },
            ..Default::default()
        };
        let (output, stats) = netsort_loopback(&input, 4, &cfg).unwrap();
        let report = validate_records(&output, cs).unwrap();
        assert_eq!(report.records, 10_000);
        assert_eq!(stats.records, 10_000);
        assert_eq!(stats.partition_sizes.len(), 4);
        assert_eq!(stats.partition_sizes.iter().sum::<u64>(), 10_000);
        assert!(stats.exchange_bytes_out > 0);
        // Everything shipped is received by someone.
        assert_eq!(stats.exchange_bytes_out, stats.exchange_bytes_in);
    }

    #[test]
    fn single_node_cluster_ships_nothing() {
        let (input, cs) = generate(GenConfig::datamation(2_000, 7));
        let (output, stats) = netsort_loopback(&input, 1, &NetsortConfig::default()).unwrap();
        validate_records(&output, cs).unwrap();
        assert_eq!(stats.exchange_bytes_out, 0);
        assert_eq!(stats.partition_sizes, vec![2_000]);
    }

    #[test]
    fn empty_input_runs_clean() {
        let (output, stats) = netsort_loopback(&[], 3, &NetsortConfig::default()).unwrap();
        assert!(output.is_empty());
        assert_eq!(stats.records, 0);
    }

    /// Run node `node` of a 2-node loopback cluster against a scripted
    /// peer that sends `hostile`; the worker must end in an `InvalidData`
    /// error naming the sender, not a panic.
    fn worker_against(node: usize, hostile: Frame) -> io::Error {
        let (input, _) = generate(GenConfig::datamation(500, 3));
        let mut cluster = loopback_cluster(2);
        let mut peer = cluster.remove(1 - node);
        let mut worker = cluster.remove(0);
        let sender = hostile.from();
        peer.send(node, hostile).unwrap();
        let err = run_worker(
            &mut worker,
            &mut MemSource::new(input, 1 << 20),
            &mut MemSink::new(),
            &NetsortConfig::default(),
        )
        .expect_err("a hostile key payload must fail the worker");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("node {sender}")), "{err}");
        err
    }

    #[test]
    fn ragged_sample_payload_is_an_attributed_error_not_a_panic() {
        let err = worker_against(
            COORDINATOR,
            Frame::Sample {
                from: 1,
                keys: vec![7; KEY_LEN + 3],
            },
        );
        assert!(err.to_string().contains("Sample"), "{err}");
    }

    #[test]
    fn splitters_payload_of_the_wrong_shape_is_an_attributed_error_not_a_panic() {
        // Ragged; no keys (one partition: `partitions[1]` is out of bounds);
        // three keys (four partitions: a send to node 2 of 2).
        for len in [KEY_LEN - 1, 0, 3 * KEY_LEN] {
            let err = worker_against(
                1,
                Frame::Splitters {
                    from: 0,
                    keys: vec![7; len],
                },
            );
            assert!(err.to_string().contains("Splitters"), "{err}");
        }
    }

    #[test]
    fn merged_stats_sum_compute_and_take_critical_path_waits() {
        use std::time::Duration;
        let a = SortStats {
            records: 10,
            sort_time: Duration::from_millis(5),
            exchange_wait: Duration::from_millis(9),
            partition_sizes: vec![10],
            one_pass: true,
            ..Default::default()
        };
        let b = SortStats {
            records: 20,
            sort_time: Duration::from_millis(8),
            exchange_wait: Duration::from_millis(2),
            partition_sizes: vec![20],
            one_pass: true,
            ..Default::default()
        };
        let m = merge_cluster_stats(&[a, b]);
        assert_eq!(m.records, 30);
        // Compute time is CPU-busy across the cluster: it sums.
        assert_eq!(m.sort_time, Duration::from_millis(13));
        // Waits are concurrent: the cluster waits as long as the slowest node.
        assert_eq!(m.exchange_wait, Duration::from_millis(9));
        assert_eq!(m.partition_sizes, vec![10, 20]);
        assert!(m.one_pass);
        // The empty cluster is the fold identity (trivially one-pass).
        assert!(merge_cluster_stats(&[]).one_pass);
    }
}
