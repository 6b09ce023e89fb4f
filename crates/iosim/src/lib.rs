//! Simulated disk arrays with asynchronous IO.
//!
//! The AlphaSort paper's IO story depends on 1993 device characteristics: a
//! commodity SCSI disk that reads at ~4.5 MB/s and writes at ~3.5 MB/s, so a
//! 100 MB sort on one disk is stuck behind a *one-minute barrier* (§6), and
//! striping across many such disks buys near-linear bandwidth until a
//! controller saturates. A modern host device is thousands of times faster,
//! which would make every one of those effects invisible. This crate restores
//! the paper's regime:
//!
//! * [`DiskSpec`]/[`ControllerSpec`] describe devices by bandwidth, seek
//!   time, capacity and 1993 list price; [`catalog`] has the paper's disks
//!   (RZ26, RZ28, IPI Velocitor) and controllers (SCSI, fast SCSI, Genroco).
//! * [`SimDisk`] executes reads/writes against a memory or temp-file backing
//!   store, *models* each operation's duration (seek + transfer, gated by
//!   both the disk and its controller), and can optionally *pace* execution
//!   in real time so a simulated RZ26 really does deliver 1.8 MB/s.
//! * [`IoEngine`] provides asynchronous submission with per-disk IO threads
//!   and completion handles — the same NoWait-QIO pattern AlphaSort uses on
//!   OpenVMS to overlap IO with sorting.
//! * [`fault`] holds the one fault-injection rule engine, [`FaultPlan`],
//!   which netsort's transport shares, and wraps a backing store with
//!   programmable read and write failures for robustness testing.
//!
//! Modeled time vs. paced time: every operation always accrues *modeled* busy
//! time on its disk and controller (deterministic, independent of the host).
//! With [`Pacing::RealTime`] the disk additionally sleeps so wall-clock
//! throughput matches the model — used when an experiment needs genuine
//! overlap behaviour rather than analytic numbers.
//!
//! ```
//! use std::sync::Arc;
//! use alphasort_iosim::{catalog, MemStorage, Pacing, SimDisk};
//!
//! // A simulated RZ26: writes run at host speed, but the model knows the
//! // 1993 cost — 1.4 MB at 1.4 MB/s ≈ one second of drive time.
//! let disk = SimDisk::new(
//!     "rz26-0", catalog::rz26(),
//!     Arc::new(MemStorage::new()), Pacing::Modeled, None,
//! );
//! disk.write(0, &vec![0u8; 1_400_000])?;
//! let busy = disk.stats().busy().as_secs_f64();
//! assert!((busy - 1.0).abs() < 0.05, "modeled {busy} s");
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod array;
pub mod backend;
pub mod catalog;
pub mod disk;
pub mod engine;
pub mod fault;
pub mod spec;
pub mod throttle;

pub use array::{ArrayStats, BackendKind, DiskArray, DiskArrayBuilder};
pub use backend::{FileStorage, MemStorage, Storage};
pub use disk::{ControllerShare, DiskStats, Pacing, SimDisk};
pub use engine::{IoEngine, IoHandle};
pub use fault::{Dir, Fault, FaultPlan, FaultyStorage, When};
pub use spec::{ControllerSpec, DiskSpec};
