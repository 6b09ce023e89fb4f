//! The per-node worker and whole-cluster drivers.
//!
//! A node is the partitioned merge with its key ranges on other nodes
//! (Rahn, Sanders & Singler's distributed external sort). Protocol, from
//! each worker's point of view:
//!
//! 1. **Form runs** from the local input with the drivers' [`form_runs`],
//!    formation overlapped with input, then drop the input: the runs hold
//!    every record.
//! 2. **Sample** the sorted runs ([`sample_runs`]) and send the keys,
//!    length-prefixed and capped under [`MAX_PAYLOAD`], to the coordinator
//!    (node 0; a self-send when we *are* node 0).
//! 3. **Split** — the coordinator pools all samples, picks the quantile
//!    splitters and broadcasts them; everyone else waits, stashing any
//!    early `Data` frames from faster peers.
//! 4. **Exchange** — cut the runs at the splitters ([`cut_runs`]), merge
//!    each peer's key range into `Data` frames of `batch_records × 100`
//!    bytes (a record may straddle two) and send `Done`; append each
//!    sender's frames to its stream until every peer said `Done`.
//! 5. **Merge** the senders' streams, ours among them, into the sink. Runs
//!    tie-break by run index and streams by sender, whose shares are in
//!    node order: the outputs in node order are the stable sort.
//!
//! Every blocking receive in steps 2–4 runs under the configurable
//! [`NetsortConfig::recv_timeout`] deadline, so a hung or crashed peer
//! surfaces as a `TimedOut` error naming the protocol phase and the nodes
//! still being waited on — never an indefinite hang. A worker that fails
//! locally broadcasts [`Frame::Abort`] before returning, so the other N−1
//! nodes stop promptly with a [`RemoteAbort`] error instead of each
//! riding out its own deadline.

use std::convert::Infallible;
use std::error::Error as StdError;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use alphasort_core::driver::{check_sizes, form_runs, merge_range, merge_to_sink};
use alphasort_core::io::{MemSink, MemSource, RecordSink, RecordSource};
use alphasort_core::layout::LayoutRun;
use alphasort_core::merge::{Merger, StreamHeads};
use alphasort_core::pmerge::{cut_runs, quantiles, sample_runs};
use alphasort_core::stats::timed_phase;
use alphasort_core::varlen::VarRun;
use alphasort_core::{RecordLayout, SortConfig, SortStats, SortedRun};
use alphasort_dmgen::RECORD_LEN;
use alphasort_obs as obs;

use crate::frame::{decode_keys, encode_keys, Frame, MAX_PAYLOAD};
use crate::transport::{loopback_cluster, Transport};

/// Coordinator node id.
pub const COORDINATOR: usize = 0;

/// Configuration shared by every worker of a distributed sort.
#[derive(Clone, Debug)]
pub struct NetsortConfig {
    /// Keys each node samples for the coordinator's splitter computation.
    pub samples_per_node: usize,
    /// `Data` frame size during the exchange, in 100-byte records of stream
    /// (640 = 64 kB payloads, large enough to amortize framing, small
    /// enough to pipeline), whatever the layout.
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

/// One worker's result: its share of the sorted output lives in its sink;
/// `stats` covers the whole worker including the exchange phase.
#[derive(Clone, Debug)]
pub struct WorkerOutcome {
    /// Phase breakdown; exchange counters filled in.
    pub stats: SortStats,
    /// Bytes this node wrote to its local sink.
    pub bytes: u64,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn protocol_error(what: &str, frame: &Frame) -> io::Error {
    invalid(format!(
        "protocol error: expected {what}, got {frame:?} from node {}",
        frame.from()
    ))
}

/// A CRC-valid key payload is still bytes the peer chose: decode it, and
/// refuse one that is not whole length-prefixed keys — or, where the
/// protocol fixes the count, not exactly `n` of them — before its length
/// sizes the partition table.
fn check_keys(what: &str, from: u32, keys: &[u8], n: Option<usize>) -> io::Result<Vec<Vec<u8>>> {
    let bad = |why| invalid(format!("{what} frame from node {from} {why}"));
    let keys = decode_keys(keys).map_err(|e| bad(format!("is malformed: {e}")))?;
    match n {
        Some(n) if keys.len() != n => Err(bad(format!("carries {} keys, not {n}", keys.len()))),
        _ => Ok(keys),
    }
}

/// `err`, attributed to `node`.
fn at_node(node: usize, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("node {node}: {err}"))
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
    let recv = || match cfg.recv_timeout {
        None => transport.recv(),
        Some(deadline) => transport.recv_timeout(deadline).map_err(|e| {
            if e.kind() != io::ErrorKind::TimedOut {
                return e;
            }
            obs::metrics::counter_add("net.recv.timeout", 1);
            let what = format!("{phase} phase timed out after {deadline:?} waiting for");
            io::Error::new(io::ErrorKind::TimedOut, format!("{what} {}", missing()))
        }),
    };
    let frame = timed_phase(obs::phase::EXCHANGE, &mut stats.exchange_wait, recv)?;
    if let Frame::Abort { from, reason } = frame {
        obs::metrics::counter_add("net.frames.abort_received", 1);
        let abort = RemoteAbort { from, reason };
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, abort));
    }
    Ok(frame)
}

/// Run one node of the distributed sort. Blocks until this node's share of
/// the output is fully written to `sink` — or until the configured receive
/// deadline or a peer's abort ends the run with an error. On a local
/// failure the worker broadcasts [`Frame::Abort`] (best effort) before
/// returning, so the rest of the cluster tears down promptly too. `source`
/// is dropped as soon as the node's runs are formed.
pub fn run_worker<T, Src, Snk>(
    transport: &mut T,
    source: Src,
    sink: &mut Snk,
    cfg: &NetsortConfig,
) -> io::Result<WorkerOutcome>
where
    T: Transport,
    Src: RecordSource,
    Snk: RecordSink,
{
    let run = match cfg.sort.layout {
        RecordLayout::Datamation => run_worker_inner::<SortedRun, _, _, _>,
        RecordLayout::VarLen => run_worker_inner::<VarRun, _, _, _>,
    };
    match run(transport, source, sink, cfg) {
        Ok(outcome) => Ok(outcome),
        Err(err) => {
            // Going down: tell every peer why, unless the failure *is* a
            // peer's abort (its originator already told the cluster).
            // Best effort on every send — peers may already be gone.
            if remote_abort_of(&err).is_none() {
                let me = transport.node();
                let abort = Frame::Abort {
                    from: me as u32,
                    reason: err.to_string(),
                };
                obs::metrics::counter_add("net.frames.abort_sent", 1);
                for peer in (0..transport.nodes()).filter(|&peer| peer != me) {
                    let _ = transport.send(peer, abort.clone());
                }
            }
            let _ = transport.shutdown();
            Err(err)
        }
    }
}

fn run_worker_inner<R, T, Src, Snk>(
    transport: &mut T,
    mut source: Src,
    sink: &mut Snk,
    cfg: &NetsortConfig,
) -> io::Result<WorkerOutcome>
where
    R: LayoutRun,
    T: Transport,
    Src: RecordSource,
    Snk: RecordSink,
{
    check_sizes(&cfg.sort)?;
    let t_start = Instant::now();
    let node = transport.node();
    let nodes = transport.nodes();
    let me = node as u32;
    let mut stats = SortStats::neutral();

    // Tag everything this worker (and the pools it spawns) records onto a
    // per-node track, so one process's trace splits into one per node.
    obs::set_track(&format!("node{node}"));
    let mut top = obs::span(obs::phase::NET_WORKER).with("node", node as u64);

    // ---- sorted runs, formed while the local input arrives ---------------
    let mut runs: Vec<R> = Vec::new();
    form_runs(&mut source, &cfg.sort, Vec::new(), &mut stats, |run, _| {
        runs.push(run);
        Ok(None)
    })
    .map_err(|e| at_node(node, e))?;
    // The runs hold every record now: free the share before the exchange.
    drop(source);
    let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
    let key_at = |r: usize, pos: u64| Ok::<_, Infallible>(runs[r].key_at(pos as usize).to_vec());

    // ---- sample + splitters -----------------------------------------------
    let sample_span = obs::span(obs::phase::NET_SAMPLE);
    // The Sample payload holds each key behind a 4-byte length.
    let count = cfg.samples_per_node.min(stats.records as usize);
    let room = MAX_PAYLOAD.saturating_sub(count.saturating_mul(4));
    let Ok(sample) = sample_runs(&lens, count, room, key_at);
    let keys = encode_keys(&sample);
    transport.send(COORDINATOR, Frame::Sample { from: me, keys })?;
    if node == COORDINATOR {
        let mut samples: Vec<Option<Vec<Vec<u8>>>> = vec![None; nodes];
        while samples.iter().any(Option::is_none) {
            let frame = recv_in_phase(transport, cfg, &mut stats, "sample", &|| {
                missing_nodes(&samples.iter().map(Option::is_some).collect::<Vec<_>>())
            })?;
            match frame {
                Frame::Sample { from, keys } => {
                    let sender = from as usize;
                    if sender >= nodes {
                        return Err(invalid(format!("Sample frame from unknown node {sender}")));
                    }
                    let keys = check_keys("Sample", from, &keys, None)?;
                    if samples[sender].replace(keys).is_some() {
                        return Err(invalid(format!("duplicate Sample from node {sender}")));
                    }
                }
                other => return Err(protocol_error("Sample", &other)),
            }
        }
        let pool: Vec<Vec<u8>> = samples.into_iter().flatten().flatten().collect();
        let splitters = Frame::Splitters {
            from: me,
            keys: encode_keys(&quantiles(pool, nodes)),
        };
        for peer in 0..nodes {
            transport.send(peer, splitters.clone())?;
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
                let splitters = check_keys("Splitters", from, &keys, Some(nodes - 1))?;
                if splitters.is_sorted() {
                    break splitters;
                }
                let what = format!("Splitters from node {from} are not ascending");
                return Err(invalid(what));
            }
            data @ (Frame::Data { .. } | Frame::Done { .. }) => pending.push(data),
            other => return Err(protocol_error("Splitters", &other)),
        }
    };
    drop(sample_span);

    // ---- exchange: each peer's key range, merged onto the wire ------------
    let Ok(plan) = cut_runs(&lens, splitters, key_at);
    // Each sender's sorted stream of our key range, in node order; our own
    // range never touches the transport.
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); nodes];
    let batch = cfg.batch_records;
    for (target, bounds) in plan.bounds.iter().enumerate() {
        if target == node {
            merge_range(&runs, bounds, batch, &mut stats, &mut |staging, _, _| {
                streams[node].append(staging);
                Ok(true)
            })?;
            continue;
        }
        // Exact-size pieces of `batch_records × 100` bytes: a frame may wait
        // in a peer's inbox.
        let piece = batch * RECORD_LEN;
        merge_range(
            &runs,
            bounds,
            batch,
            &mut stats,
            &mut |staging, done, stats| {
                while staging.len() >= piece || (done && !staging.is_empty()) {
                    let records: Vec<u8> = staging.drain(..piece.min(staging.len())).collect();
                    let bytes = records.len() as u64;
                    stats.exchange_bytes_out += bytes;
                    let _send = obs::span(obs::phase::NET_SEND)
                        .with("peer", target as u64)
                        .with("bytes", bytes);
                    obs::metrics::observe("net.frame.bytes", bytes);
                    obs::metrics::counter_add("net.bytes_out", bytes);
                    timed_phase(obs::phase::EXCHANGE, &mut stats.exchange_wait, || {
                        transport.send(target, Frame::Data { from: me, records })
                    })?;
                }
                Ok(true)
            },
        )?;
        transport.send(target, Frame::Done { from: me })?;
    }
    drop(runs);
    // `done[i]` once node i said it has no more Data for us; we never send
    // Done to ourselves, so our own slot starts satisfied.
    let mut done = vec![false; nodes];
    done[node] = true;
    let mut pending = pending.into_iter();
    while pending.len() > 0 || done.iter().any(|d| !d) {
        let frame = match pending.next() {
            Some(frame) => frame,
            None => recv_in_phase(transport, cfg, &mut stats, "exchange", &|| {
                missing_nodes(&done)
            })?,
        };
        match frame {
            Frame::Data { from, records } => {
                let sender = from as usize;
                if sender >= nodes {
                    return Err(invalid(format!("Data frame from unknown node {sender}")));
                }
                let _recv = obs::span(obs::phase::NET_RECV)
                    .with("peer", sender as u64)
                    .with("bytes", records.len() as u64);
                obs::metrics::observe("net.frame.bytes", records.len() as u64);
                obs::metrics::counter_add("net.bytes_in", records.len() as u64);
                stats.exchange_bytes_in += records.len() as u64;
                streams[sender].extend_from_slice(&records);
            }
            Frame::Done { from } => {
                let sender = from as usize;
                if sender >= nodes || done[sender] {
                    return Err(invalid(format!("unexpected Done from node {sender}")));
                }
                done[sender] = true;
            }
            other => return Err(protocol_error("Data or Done", &other)),
        }
    }
    transport.shutdown()?;

    // ---- merge the senders' sorted streams into the sink ------------------
    let local = obs::span(obs::phase::NET_LOCAL);
    let mut owned = 0;
    for (sender, stream) in streams.iter().enumerate() {
        let mut at = 0;
        while at < stream.len() {
            let what = |e| invalid(format!("Data stream from node {sender}: {e}"));
            at += record_len(R::LAYOUT, stream, at).map_err(what)?;
            owned += 1;
        }
    }
    let sources = streams.into_iter().map(|s| MemSource::new(s, 1 << 20));
    let heads = StreamHeads::<_, R>::new(sources.collect())?;
    let merger = Merger::<_, R::Policy>::new(heads, ());
    merge_to_sink(merger, sink, cfg.sort.gather_batch, &mut stats)?;
    let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
    drop(local);

    stats.partition_sizes = vec![owned];
    stats.elapsed = t_start.elapsed();
    top.attr("records", owned);
    top.attr("bytes_in", stats.exchange_bytes_in);
    top.attr("bytes_out", stats.exchange_bytes_out);
    Ok(WorkerOutcome { stats, bytes })
}

/// Bytes of the whole record of `layout` at `input[at..]`. Input that ends
/// mid-record or carries a malformed var-len header is `InvalidData`.
fn record_len(layout: RecordLayout, input: &[u8], at: usize) -> io::Result<usize> {
    let rest = &input[at..];
    let ragged = || {
        invalid(format!(
            "input ends mid-record ({} trailing bytes)",
            rest.len()
        ))
    };
    layout
        .frame_at(rest, at as u64)?
        .map(|f| f.len)
        .ok_or_else(ragged)
}

/// Split `input`, whole records of `layout`, into `nodes` contiguous shares
/// of about equal bytes, cut on record boundaries (trailing shares may be
/// empty) — each node's "local disk" in the in-process drivers. Input that
/// ends mid-record or carries a malformed header is `InvalidData` naming the
/// node whose share holds it.
pub fn split_shares(input: &[u8], nodes: usize, layout: RecordLayout) -> io::Result<Vec<Vec<u8>>> {
    assert!(nodes >= 1, "need at least one node");
    let mut shares = Vec::with_capacity(nodes);
    let (mut start, mut at) = (0, 0);
    for node in 0..nodes {
        let end = input.len() * (node + 1) / nodes;
        while at < end {
            at += record_len(layout, input, at).map_err(|e| at_node(node, e))?;
        }
        shares.push(input[start..at].to_vec());
        start = at;
    }
    Ok(shares)
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

/// Sort `input` with one worker thread per endpoint, which `connect` turns
/// into node `i`'s transport on that thread (TCP establishment blocks until
/// every peer dials in); returns the node outputs in node order, merged.
fn run_cluster<E: Send, T: Transport>(
    input: &[u8],
    endpoints: Vec<E>,
    cfg: &NetsortConfig,
    connect: impl Fn(usize, E) -> io::Result<T> + Sync,
) -> io::Result<(Vec<u8>, SortStats)> {
    let shares = split_shares(input, endpoints.len(), cfg.sort.layout)?;
    let connect = &connect;
    let results: io::Result<Vec<(Vec<u8>, SortStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(shares)
            .enumerate()
            .map(|(node, (endpoint, share))| {
                scope.spawn(move || {
                    let mut transport = connect(node, endpoint)?;
                    let source = MemSource::new(share, 1 << 20);
                    let mut sink = MemSink::new();
                    let outcome = run_worker(&mut transport, source, &mut sink, cfg)?;
                    Ok((sink.into_inner(), outcome.stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    // Append and free one node's output at a time.
    let mut output = Vec::with_capacity(input.len());
    let mut stats = Vec::new();
    for (part, st) in results? {
        output.extend_from_slice(&part);
        stats.push(st);
    }
    Ok((output, merge_cluster_stats(&stats)))
}

/// Sort `input` (whole records of `cfg.sort.layout`) on an in-process
/// cluster of `nodes` workers connected by the loopback transport. Returns
/// the concatenated (globally sorted) output and the merged cluster stats.
pub fn netsort_loopback(
    input: &[u8],
    nodes: usize,
    cfg: &NetsortConfig,
) -> io::Result<(Vec<u8>, SortStats)> {
    run_cluster(input, loopback_cluster(nodes), cfg, |_, t| Ok(t))
}

/// Sort `input` on a cluster of `nodes` workers connected by real TCP
/// sockets on 127.0.0.1 (each worker a thread with its own listener).
pub fn netsort_tcp(
    input: &[u8],
    nodes: usize,
    cfg: &NetsortConfig,
    policy: &crate::tcp::RetryPolicy,
) -> io::Result<(Vec<u8>, SortStats)> {
    let (listeners, addrs) = crate::tcp::bind_cluster(nodes)?;
    run_cluster(input, listeners, cfg, |node, listener| {
        crate::tcp::TcpTransport::establish(node, listener, &addrs, policy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{
        generate, generate_varlen, validate_records, var_records_of, GenConfig, TextCorpus,
        VarGenConfig, KEY_LEN,
    };

    #[test]
    fn split_shares_covers_input_exactly() {
        let (input, _) = generate(GenConfig::datamation(103, 1));
        let shares = split_shares(&input, 4, RecordLayout::Datamation).unwrap();
        assert_eq!(shares.len(), 4);
        assert!(shares.iter().all(|s| s.len() % RECORD_LEN == 0));
        assert_eq!(shares.concat(), input);
        // More nodes than records: some shares are empty, none lost.
        let tiny = split_shares(&input[..2 * RECORD_LEN], 8, RecordLayout::Datamation).unwrap();
        assert_eq!(tiny.len(), 8);
        assert_eq!(tiny.concat(), &input[..2 * RECORD_LEN]);
    }

    /// Var-len shares are cut on frame boundaries: every share frames whole.
    #[test]
    fn split_shares_cuts_var_len_input_on_frames() {
        let input = generate_varlen(VarGenConfig {
            records: 301,
            seed: 2,
            corpus: TextCorpus::Urls,
        });
        for nodes in [1, 3, 5, 400] {
            let shares = split_shares(&input, nodes, RecordLayout::VarLen).unwrap();
            assert_eq!(shares.len(), nodes);
            assert_eq!(shares.concat(), input);
            let framed: usize = shares
                .iter()
                .map(|s| var_records_of(s).unwrap().len())
                .sum();
            assert_eq!(framed, 301, "nodes={nodes}");
        }
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

    /// Run node `node` of an N-node loopback cluster against a scripted
    /// peer that sends `hostile`; the worker must end in an `InvalidData`
    /// error naming the sender, not a panic.
    fn worker_against(nodes: usize, node: usize, hostile: Frame) -> io::Error {
        let (input, _) = generate(GenConfig::datamation(500, 3));
        let mut peers = loopback_cluster(nodes);
        let mut worker = peers.remove(node);
        let sender = hostile.from();
        peers[0].send(node, hostile).unwrap();
        let err = run_worker(
            &mut worker,
            MemSource::new(input, 1 << 20),
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
            2,
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
        // Prefixes past the payload; no keys (one partition: `partitions[1]`
        // is out of bounds); three keys (four partitions: a send to node 2
        // of 2), raw and well encoded.
        let three = encode_keys(&[[7u8; KEY_LEN]; 3]);
        for keys in [
            vec![7; KEY_LEN - 1],
            Vec::new(),
            vec![7; 3 * KEY_LEN],
            three,
        ] {
            let err = worker_against(2, 1, Frame::Splitters { from: 0, keys });
            assert!(err.to_string().contains("Splitters"), "{err}");
        }
        // Well encoded, the right count, but descending: the cut would
        // make ranges that end before they start.
        let keys = encode_keys(&[[9u8; KEY_LEN], [1u8; KEY_LEN]]);
        let err = worker_against(3, 1, Frame::Splitters { from: 0, keys });
        assert!(err.to_string().contains("not ascending"), "{err}");
    }

    /// A sender's stream that does not frame whole — CRC-valid frames, but
    /// 7 bytes of Datamation stream — is `InvalidData` naming the sender,
    /// before the final merge reads it.
    #[test]
    fn ragged_data_stream_is_an_attributed_error_not_a_panic() {
        let (input, _) = generate(GenConfig::datamation(500, 3));
        let mut peers = loopback_cluster(2);
        let mut worker = peers.remove(1);
        let splitters = encode_keys(&[[0x80u8; KEY_LEN]]);
        for frame in [
            Frame::Splitters {
                from: 0,
                keys: splitters,
            },
            Frame::Data {
                from: 0,
                records: vec![7; 7],
            },
            Frame::Done { from: 0 },
        ] {
            peers[0].send(1, frame).unwrap();
        }
        let err = run_worker(
            &mut worker,
            MemSource::new(input, 1 << 20),
            &mut MemSink::new(),
            &NetsortConfig::default(),
        )
        .expect_err("a ragged stream must fail the worker");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("Data stream from node 0"), "{msg}");
        assert!(msg.contains("7 trailing bytes"), "{msg}");
    }

    /// Input that ends mid-record, under either layout, and a var-len header
    /// whose key runs past its body: `InvalidData` naming the node, from the
    /// worker (node 1 of 2 frames its input before it receives anything) and
    /// from `split_shares` (the node whose share holds the bad record).
    #[test]
    fn ragged_input_is_invalid_data_naming_the_node() {
        let (fixed, _) = generate(GenConfig::datamation(50, 3));
        let var = generate_varlen(VarGenConfig {
            records: 50,
            seed: 7,
            corpus: TextCorpus::Urls,
        });
        let bad_key = vec![4, 0, 0, 0, 9, 0, 9, 0, 1, 2, 3, 4];
        // (layout, input, the share `split_shares` finds the bad record in)
        let cases = [
            (
                RecordLayout::Datamation,
                fixed[..fixed.len() - 1].to_vec(),
                2,
            ),
            (RecordLayout::VarLen, var[..var.len() - 3].to_vec(), 2),
            (RecordLayout::VarLen, [&var[..], &bad_key].concat(), 2),
            (RecordLayout::VarLen, bad_key, 0),
        ];
        for (layout, input, share) in cases {
            let cfg = NetsortConfig {
                sort: SortConfig {
                    layout,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut worker = loopback_cluster(2).remove(1);
            let source = MemSource::new(input.clone(), 1 << 20);
            let err = run_worker(&mut worker, source, &mut MemSink::new(), &cfg)
                .expect_err("ragged input must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().starts_with("node 1: "), "{err}");

            let err = split_shares(&input, 3, layout).expect_err("ragged input must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(
                err.to_string().starts_with(&format!("node {share}: ")),
                "{err}"
            );
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
