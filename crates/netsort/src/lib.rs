//! netsort: a distributed shared-nothing sort over the AlphaSort pipeline.
//!
//! §2 of the paper describes the design AlphaSort displaced: a
//! shared-nothing cluster where every node reads its local disk, the
//! records are exchanged so each node owns one key range, and each node
//! sorts locally (DeWitt, Naughton & Schneider's Hypercube sort with
//! *probabilistic splitting*). This crate keeps that cluster but sorts the
//! way AlphaSort does, forming runs and then merging, and is the
//! repository's one shared-nothing sort, for either record layout
//! (`cfg.sort.layout`):
//!
//! - **per-node runs** from [`alphasort_core::driver::form_runs`], sampled
//!   for the coordinator's quantile splitters and cut at them with
//!   [`alphasort_core::pmerge`]'s sampler and cutter (keys travel
//!   length-prefixed, [`encode_keys`]),
//! - an **all-to-all exchange** over a pluggable [`Transport`] (the
//!   in-process [`loopback_cluster`] or TCP with retry/backoff, [`tcp`]):
//!   every peer's key range merged straight into `Data` frames ([`frame`]),
//! - a **per-node merge** ([`worker`]) of the sorted streams received, so
//!   the node outputs in node order are the stable sort of the input,
//! - **fault tolerance**: every frame carries a CRC32C trailer (verified
//!   on receive — corruption is an `InvalidData` error naming the peer,
//!   never silently mis-sorted output), every blocking receive runs under
//!   the configurable [`NetsortConfig::recv_timeout`] deadline (a hung or
//!   crashed peer surfaces as `TimedOut` naming the phase and node), and a
//!   worker that fails locally broadcasts [`Frame::Abort`] so the rest of
//!   the cluster stops promptly with a [`RemoteAbort`] error. The
//!   [`faulty`] module's [`FaultyTransport`] injects drop/delay/corrupt/
//!   crash faults, one-shot or recurring, from the same `FaultPlan` rule
//!   engine iosim's disks use, to prove all of this under test.
//!
//! Exchange-phase counters (bytes shipped, wait time, partition skew) land
//! in the shared [`SortStats`](alphasort_core::SortStats).
//!
//! ```
//! use alphasort_netsort::{netsort_loopback, NetsortConfig};
//! use alphasort_dmgen::{generate, validate_records, GenConfig};
//!
//! let (input, checksum) = generate(GenConfig::datamation(5_000, 42));
//! let (output, stats) = netsort_loopback(&input, 4, &NetsortConfig::default())?;
//! validate_records(&output, checksum).expect("sorted permutation");
//! assert_eq!(stats.partition_sizes.len(), 4);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod faulty;
pub mod frame;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use faulty::{FaultyTransport, NetFault};
pub use frame::{crc32c, decode_keys, encode_keys, Frame, MAX_PAYLOAD};
pub use tcp::{bind_cluster, connect_with_retry, AcceptLoop, RetryPolicy, TcpTransport};
pub use transport::{loopback_cluster, LoopbackTransport, Transport};
pub use worker::{
    merge_cluster_stats, netsort_loopback, netsort_tcp, remote_abort_of, run_worker, split_shares,
    NetsortConfig, RemoteAbort, WorkerOutcome, COORDINATOR,
};
