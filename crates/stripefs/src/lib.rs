//! Software file striping, after §6 of the AlphaSort paper.
//!
//! "Disk striping spreads the input and output file across many disks. This
//! allows parallel disk reads and writes to give the sum of the individual
//! disk bandwidths." AlphaSort implements striping *in the application*,
//! above the file system, driven by a *stripe definition file* (`.str`) that
//! names the member files and the blocks-per-stride; `stripeopen()` opens
//! every member asynchronously and in parallel.
//!
//! This crate reproduces that layer over [`alphasort_iosim`] disks:
//!
//! * [`StripeDef`] — the stripe geometry: member extents and the chunk size
//!   each disk contributes to a stride ([`geometry`] has the address math).
//! * [`Volume`] — a minimal extent allocator over a disk array; creates and
//!   opens striped files from their definitions (which the scratch run
//!   manifest persists as JSON, where the paper keeps `.str` files).
//! * [`StripedFile`] — random-access striped reads/writes, synchronous or
//!   asynchronous (each member request runs on its disk's IO thread, so a
//!   stride moves at the sum of the member disks' bandwidths — Figure 5).
//! * [`StripedReader`] / [`StripedWriter`] — sequential access keeping N
//!   strides in flight; N = 3 is the paper's triple buffering, which "keeps
//!   the disks transferring at their spiral read and write rates".
//!
//! ```
//! use std::sync::Arc;
//! use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};
//! use alphasort_stripefs::{StripedReader, StripedWriter, Volume};
//!
//! // Four simulated disks behind an async engine, wrapped in a volume.
//! let disks = (0..4)
//!     .map(|i| SimDisk::new(
//!         format!("d{i}"), catalog::rz26(),
//!         Arc::new(MemStorage::new()), Pacing::Modeled, None,
//!     ))
//!     .collect();
//! let volume = Volume::new(Arc::new(IoEngine::new(disks)));
//!
//! // A file striped across all four disks with 4 KB chunks.
//! let file = Arc::new(volume.create_across_all("data", 4096, 1 << 20));
//! let mut w = StripedWriter::new(Arc::clone(&file));
//! w.push(&vec![7u8; 100_000])?;
//! w.finish()?;
//!
//! let mut r = StripedReader::new(file);
//! let mut total = 0;
//! while let Some(stride) = r.next_stride() {
//!     total += stride?.len();
//! }
//! assert_eq!(total, 100_000);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod file;
pub mod geometry;
pub mod integrity;
pub mod reader;
pub mod retry;
pub mod volume;
pub mod writer;

pub use file::{StripedFile, StripedRead, StripedWrite};
pub use geometry::{Member, Segment, StripeDef};
pub use integrity::RunChecksums;
pub use reader::StripedReader;
pub use retry::RetryPolicy;
pub use volume::Volume;
pub use writer::StripedWriter;
