//! The per-node worker and whole-cluster drivers.
//!
//! Protocol, from each worker's point of view:
//!
//! 1. **Sample** — read the local input, frame it by the configured record
//!    layout (`cfg.sort.layout`: Datamation or var-len), sample keys with
//!    the golden-ratio stride, and send them, length-prefixed, to the
//!    coordinator (node 0; a self-send when we *are* node 0).
//! 2. **Split** — the coordinator pools all samples, picks the quantile
//!    splitters and broadcasts them; everyone else waits, stashing any
//!    early `Data` frames from faster peers (frames from different peers
//!    have no cross-ordering).
//! 3. **Exchange** — partition the local records by the splitters, stream
//!    each foreign partition to its owner in `Data` frames, then tell every
//!    peer `Done`. Drain the inbox until all peers said `Done`. A `Data`
//!    frame is a slice of the sender's stream, not whole records: the
//!    receiver concatenates each sender's frames before framing records.
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
use alphasort_core::splitter::{frames, quantiles, record_at, sample_indices, scatter};
use alphasort_core::stats::timed_phase;
use alphasort_core::{driver::one_pass, RecordLayout, SortConfig, SortStats};
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

/// Up to `samples_per_node` keys of `input` (whole records of the layout) as
/// a `Sample` payload, cut before it would pass [`MAX_PAYLOAD`] (splitters
/// need not be sampled keys: that costs balance, never correctness). No
/// table: one walk over the frames checks and counts them, one picks keys.
fn sample_keys(input: &[u8], cfg: &NetsortConfig) -> io::Result<Vec<u8>> {
    let (layout, count) = (cfg.sort.layout, cfg.samples_per_node);
    let n = frames(layout, input).try_fold(0, |n, rec| rec.map(|_| n + 1))?;
    let mut picks: Vec<(usize, usize)> = sample_indices(n, count).zip(0..).collect();
    picks.sort_unstable();
    let mut picks = picks.into_iter().peekable();
    let mut keys = vec![&input[..0]; count.min(n)];
    for (i, (key, _)) in frames(layout, input).map_while(Result::ok).enumerate() {
        while let Some((_, j)) = picks.next_if(|&(at, _)| at == i) {
            keys[j] = key;
        }
    }
    let mut bytes = 0;
    keys.retain(|key| {
        bytes += 4 + key.len();
        bytes <= MAX_PAYLOAD
    });
    Ok(encode_keys(&keys))
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
    let keys = sample_keys(&input, cfg).map_err(|e| at_node(node, e))?;

    // ---- sample + splitters -----------------------------------------------
    let sample_span = obs::span(obs::phase::NET_SAMPLE);
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
                break check_keys("Splitters", from, &keys, Some(nodes - 1))?;
            }
            data @ (Frame::Data { .. } | Frame::Done { .. }) => pending.push(data),
            other => return Err(protocol_error("Splitters", &other)),
        }
    };
    drop(sample_span);

    // ---- exchange: scatter ours, gather ours ------------------------------
    let framed = frames(cfg.sort.layout, &input).map_while(Result::ok);
    let mut partitions = scatter(framed, &splitters);
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
                gather[sender].extend_from_slice(&records);
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
    let local = gather.concat();

    // ---- local AlphaSort pipeline over what we now own --------------------
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
    stats.partition_sizes = vec![stats.records];
    stats.elapsed = t_start.elapsed();
    top.attr("records", stats.records);
    top.attr("bytes_in", stats.exchange_bytes_in);
    top.attr("bytes_out", stats.exchange_bytes_out);
    Ok(WorkerOutcome {
        stats,
        bytes: outcome.bytes,
    })
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
            let (_, frame) = record_at(layout, input, at).map_err(|e| at_node(node, e))?;
            at += frame.len();
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
        generate, generate_varlen, validate_records, GenConfig, TextCorpus, VarGenConfig, KEY_LEN,
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

    /// The table-free sampler sends, in order, the keys a lookup table of
    /// the records would give for the same indices — repeated indices
    /// included (7 records sampled 256 times), under both layouts.
    #[test]
    fn sampled_keys_are_the_keys_at_the_sampled_indices() {
        let (fixed, _) = generate(GenConfig::datamation(2_000, 4));
        let var = generate_varlen(VarGenConfig {
            records: 301,
            seed: 9,
            corpus: TextCorpus::Urls,
        });
        let cases = [
            (RecordLayout::Datamation, &fixed[..]),
            (RecordLayout::Datamation, &fixed[..7 * RECORD_LEN]),
            (RecordLayout::VarLen, &var[..]),
        ];
        for (layout, input) in cases {
            let mut cfg = NetsortConfig::default();
            cfg.sort.layout = layout;
            let table: Vec<_> = frames(layout, input).map(Result::unwrap).collect();
            let picked = sample_indices(table.len(), cfg.samples_per_node);
            let want: Vec<&[u8]> = picked.map(|i| table[i].0).collect();
            let got = decode_keys(&sample_keys(input, &cfg).unwrap()).unwrap();
            assert_eq!(got, want, "{layout:?}, {} records", table.len());
        }
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
                .map(|s| frames(RecordLayout::VarLen, s).map(Result::unwrap).count())
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
            let err = worker_against(1, Frame::Splitters { from: 0, keys });
            assert!(err.to_string().contains("Splitters"), "{err}");
        }
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
            let mut source = MemSource::new(input.clone(), 1 << 20);
            let err = run_worker(&mut worker, &mut source, &mut MemSink::new(), &cfg)
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
