//! Trace-driven cache-hierarchy simulation.
//!
//! The AlphaSort paper's processor-side claims are statements about memory
//! *access patterns*: replacement-selection's tournament "thrashes on the
//! bottom levels" (Figure 4) while key-prefix QuickSort "fits entirely in
//! the on-board cache, and partially in the on-chip cache"; clustering
//! tournament nodes so parent/child share a cache line "reduces cache
//! misses by a factor of two or three"; the merge-phase gather "has
//! terrible cache and TLB behavior". Those patterns are hardware
//! independent, so a trace-driven simulator measures them exactly — the
//! substitute for the Alpha hardware event monitor the authors used.
//!
//! * [`cache`] — a set-associative cache model with LRU replacement,
//! * [`hier`] — the Alpha-AXP-like hierarchy: 8 KB direct-mapped on-chip
//!   D-cache (32 B lines) → 4 MB board B-cache → memory, plus a 32-entry
//!   data TLB, and a stall-cycle model for Figure-7-style breakdowns,
//! * [`observe`] — the [`Observer`] the §4 exhibits of `alphasort-bench`
//!   report their loads and stores to (`()` when timed, a [`Hierarchy`]
//!   when traced), the address regions they report in, and the naive and
//!   clustered tournament layouts,
//! * [`latency`] — the Figure 3 "how far away is the data" scale.
//!
//! ```
//! use alphasort_cachesim::{Hierarchy, Observer, ENTRY_BASE, RECORD_BASE};
//!
//! // Scan 20k 100-byte records, then the 16-byte entries §4 sorts in their
//! // place: the entry array misses about 100/16 times less (§4).
//! let n = 20_000u64;
//! let mut records = Hierarchy::alpha_axp();
//! (0..n).for_each(|i| records.read(RECORD_BASE + i * 100, 100));
//! let mut entries = Hierarchy::alpha_axp();
//! (0..n).for_each(|i| entries.read(ENTRY_BASE + i * 16, 16));
//! assert!(records.stats().d_misses > 5 * entries.stats().d_misses);
//! ```

pub mod cache;
pub mod hier;
pub mod latency;
pub mod observe;

pub use cache::{Cache, CacheConfig};
pub use hier::{CycleModel, HierStats, Hierarchy};
pub use observe::{
    node_addr, replay_path, Observer, TournamentLayout, Within, ENTRY_BASE, NODE_SIZE, OUT_BASE,
    RECORD_BASE, TREE_BASE,
};
