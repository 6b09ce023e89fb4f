//! The modeled memory hierarchy: D-cache → B-cache → memory, plus TLB.
//!
//! The geometry is the DEC 7000 AXP of the paper: an 8 KB direct-mapped
//! on-chip data cache with 32-byte lines ("the entire cache line of 32 bytes
//! is brought into the on-chip cache"), a 4 MB unified board cache ("the
//! on-board cache (4MB in the case of the DEC 7000 AXP)"), and a small data
//! translation buffer whose misses the paper's PAL-code time (9%, "mostly
//! handling address translation buffer (DTB) misses") reflects.

use crate::cache::{Cache, CacheConfig};

/// Line size of both caches, bytes.
const LINE: usize = 32;
/// Page size the TLB maps, bytes.
const PAGE: usize = 8 * 1024;
/// TLB entries (fully associative).
const TLB_ENTRIES: usize = 32;

/// Per-level counters after a traced workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Total accesses (each may touch several lines).
    pub accesses: u64,
    /// Line probes that missed the D-cache (went to the B-cache).
    pub d_misses: u64,
    /// Line probes that also missed the B-cache (went to memory).
    pub b_misses: u64,
    /// Page probes that missed the TLB.
    pub tlb_misses: u64,
    /// Total line probes issued.
    pub line_probes: u64,
}

impl HierStats {
    /// D-cache, B-cache and TLB misses per element of an `n`-element
    /// workload.
    pub fn per_elem(&self, n: usize) -> [f64; 3] {
        [self.d_misses, self.b_misses, self.tlb_misses].map(|m| m as f64 / n.max(1) as f64)
    }
}

/// Stall-cycle weights. Defaults follow the paper's flavor of machine: a
/// D-miss serviced from the B-cache costs ~10 cycles, a B-miss from main
/// memory ~50, a DTB miss ~40 (PAL-code fill).
#[derive(Clone, Copy, Debug)]
pub struct CycleModel {
    /// Cycles per executed access when everything hits (issue cost).
    pub issue: f64,
    /// Extra cycles per D-cache miss serviced by the B-cache.
    pub d_miss: f64,
    /// Extra cycles per B-cache miss serviced by memory.
    pub b_miss: f64,
    /// Extra cycles per TLB miss.
    pub tlb_miss: f64,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            issue: 1.0,
            d_miss: 10.0,
            b_miss: 50.0,
            tlb_miss: 40.0,
        }
    }
}

impl CycleModel {
    /// Estimated cycles for a traced workload.
    pub fn cycles(&self, s: &HierStats) -> f64 {
        s.accesses as f64 * self.issue
            + s.d_misses as f64 * self.d_miss
            + s.b_misses as f64 * self.b_miss
            + s.tlb_misses as f64 * self.tlb_miss
    }
}

/// The full modeled hierarchy.
pub struct Hierarchy {
    dcache: Cache,
    bcache: Cache,
    /// TLB modeled as a fully associative cache of pages.
    tlb: Cache,
    stats: HierStats,
}

impl Hierarchy {
    /// The paper's DEC 7000 AXP (Alpha 21064) hierarchy, empty.
    pub fn alpha_axp() -> Self {
        let cache = |size, line, ways| Cache::new(CacheConfig { size, line, ways });
        Hierarchy {
            dcache: cache(8 * 1024, LINE, 1),
            bcache: cache(4 * 1024 * 1024, LINE, 1),
            tlb: cache(PAGE * TLB_ENTRIES, PAGE, TLB_ENTRIES),
            stats: HierStats::default(),
        }
    }

    /// Issue one data access of `size` bytes at `addr`; reads and writes
    /// go through [`Observer`](crate::Observer).
    pub(crate) fn access(&mut self, addr: u64, size: u64) {
        debug_assert!(size > 0);
        self.stats.accesses += 1;
        let line = LINE as u64;
        for l in addr / line..=(addr + size - 1) / line {
            self.stats.line_probes += 1;
            if !self.dcache.access_line(l * line) {
                self.stats.d_misses += 1;
                if !self.bcache.access_line(l * line) {
                    self.stats.b_misses += 1;
                }
            }
        }
        // TLB: probe each page the access touches.
        let page = PAGE as u64;
        for p in addr / page..=(addr + size - 1) / page {
            if !self.tlb.access_line(p * page) {
                self.stats.tlb_misses += 1;
            }
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> HierStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    #[test]
    fn miss_cascades_d_then_b() {
        let mut h = Hierarchy::alpha_axp();
        h.read(0, 8);
        let s = h.stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.d_misses, 1);
        assert_eq!(s.b_misses, 1);
        assert_eq!(s.tlb_misses, 1);

        h.read(0, 8); // now resident everywhere
        let s = h.stats();
        assert_eq!(s.d_misses, 1);
        assert_eq!(s.b_misses, 1);
        assert_eq!(s.tlb_misses, 1);
    }

    #[test]
    fn working_set_between_caches_hits_b_only() {
        let mut h = Hierarchy::alpha_axp();
        // 64 KB working set: way over the 8 KB D-cache, well under 4 MB B.
        for pass in 0..2 {
            for i in 0..2048u64 {
                h.read(i * 32, 8);
            }
            if pass == 0 {
                let s = h.stats();
                assert_eq!(s.d_misses, 2048);
                assert_eq!(s.b_misses, 2048);
            }
        }
        let s = h.stats();
        // Second pass: D still misses (conflict), B all hits.
        assert_eq!(s.b_misses, 2048);
        assert_eq!(s.d_misses, 4096);
    }

    #[test]
    fn small_working_set_lives_in_dcache() {
        let mut h = Hierarchy::alpha_axp();
        for _ in 0..10 {
            for i in 0..128u64 {
                h.read(i * 32, 8); // 4 KB
            }
        }
        let s = h.stats();
        assert_eq!(s.d_misses, 128); // cold only
    }

    #[test]
    fn access_spanning_lines_probes_each() {
        let mut h = Hierarchy::alpha_axp();
        h.read(30, 8); // crosses a 32 B boundary
        assert_eq!(h.stats().line_probes, 2);
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut h = Hierarchy::alpha_axp();
        // Touch 64 distinct pages: 32-entry TLB must miss on a second
        // round-robin pass too.
        for round in 0..2 {
            for p in 0..64u64 {
                h.read(p * 8192, 8);
            }
            let _ = round;
        }
        assert_eq!(h.stats().tlb_misses, 128);
    }

    #[test]
    fn cycle_model_breakdown() {
        let m = CycleModel::default();
        let s = HierStats {
            accesses: 100,
            d_misses: 10,
            b_misses: 5,
            tlb_misses: 1,
            line_probes: 100,
        };
        let cycles = m.cycles(&s);
        assert!((cycles - (100.0 + 100.0 + 250.0 + 40.0)).abs() < 1e-9);
    }
}
