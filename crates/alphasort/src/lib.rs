//! AlphaSort: a cache-conscious external sort (SIGMOD 1994).
//!
//! The paper's central observation is that on RISC processors "reducing
//! cache misses has replaced reducing instructions as the most important
//! processor optimization". AlphaSort therefore:
//!
//! 1. sorts *(key-prefix, pointer)* pairs instead of records or bare
//!    pointers, keeping the inner loop inside the on-chip cache (§4) —
//!    [`runform`] is that one path, for both layouts (the representations
//!    it beat are exhibits in `alphasort_bench::variants`, where the
//!    paper's 3:1 CPU comparisons are measured);
//! 2. generates runs by sorting record groups as they arrive from disk,
//!    overlapping sort with input (§7), rather than with
//!    replacement-selection (the OpenVMS-sort approach — an exhibit in
//!    `alphasort_bench::variants::rs`);
//! 3. merges the sorted runs with a small, cache-resident tournament
//!    tree ([`merge`] — one merger, generic over where run heads come from
//!    and how two heads compare) and *gathers* each record exactly once
//!    into the output buffers ([`gather`]);
//! 4. runs one-pass when memory allows and two-pass otherwise
//!    ([`driver`], [`planner`]), striping both input and output;
//! 5. on multiprocessors, splits run formation and gather work into chores
//!    for worker threads while the root does all IO ([`parallel`]).
//!
//! The record layout is a parameter of that one pipeline, not a copy of
//! it: [`layout`] states what a layout supplies, and the fixed Datamation
//! records ([`runform`]) and length-prefixed string-keyed records
//! ([`varlen`]) are its two implementations.
//!
//! Extensions the paper discusses but does not adopt: offset-value coding
//! (the DFsort/SyncSort technique) is the [`merge::Ovc`] compare policy,
//! the 256-bucket distributive sort "that might beat AlphaSort" is an
//! exhibit, `alphasort_bench::variants::partition_prefix_order`, and
//! [`condition`] does key conditioning for floats, signed integers and
//! non-standard collations. The shared-nothing partitioned sort AlphaSort
//! displaced (§2's Hypercube design) is the `alphasort-netsort` crate, whose
//! nodes form runs ([`driver::form_runs`]) and cut them ([`pmerge`]), and
//! [`io_file`] + the `sortcli`/`gensort`/`valsort` binaries are the
//! "street-legal" productized face (§8's Daytona category).
//!
//! ```
//! use alphasort_core::driver::one_pass;
//! use alphasort_core::io::{MemSink, MemSource};
//! use alphasort_core::SortConfig;
//! use alphasort_dmgen::{generate, validate_records, GenConfig};
//!
//! let (input, checksum) = generate(GenConfig::datamation(10_000, 42));
//! let mut source = MemSource::new(input, 64 * 1024);
//! let mut sink = MemSink::new();
//! let cfg = SortConfig { run_records: 2_000, workers: 2, ..Default::default() };
//!
//! let outcome = one_pass(&mut source, &mut sink, &cfg)?;
//! assert_eq!(outcome.stats.records, 10_000);
//! assert_eq!(outcome.stats.runs, 5);
//! validate_records(sink.data(), checksum).expect("sorted permutation");
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod condition;
pub mod driver;
pub mod entry;
pub mod gather;
pub mod io;
pub mod io_file;
pub mod layout;
pub mod merge;
pub mod parallel;
pub mod planner;
pub mod pmerge;
pub mod runform;
pub mod stats;
pub mod varlen;

pub use driver::{ExternalSorter, SortConfig, SortOutcome};
pub use entry::{key_prefix_u64, RecordLayout};
pub use io::{MemSink, MemSource, RecordSink, RecordSource};
pub use planner::{PassPlan, Planner};
pub use runform::SortedRun;
pub use stats::SortStats;
