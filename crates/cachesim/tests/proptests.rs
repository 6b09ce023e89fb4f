//! Property tests for the cache model: the set-associative simulator must
//! agree with a naive reference implementation, and the hierarchy's
//! counters must obey their structural invariants. Cases are driven by a
//! seeded [`SplitMix64`] so every run is reproducible.

use alphasort_cachesim::{Cache, CacheConfig, Hierarchy, Observer};
use alphasort_dmgen::SplitMix64;

/// A deliberately naive LRU cache to check the real one against.
struct ReferenceCache {
    line: u64,
    sets: usize,
    ways: usize,
    /// Per set: (tag, last-use tick).
    contents: Vec<Vec<(u64, u64)>>,
    tick: u64,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> Self {
        ReferenceCache {
            line: cfg.line as u64,
            sets: cfg.sets(),
            ways: cfg.ways,
            contents: vec![Vec::new(); cfg.sets()],
            tick: 0,
        }
    }

    fn access_line(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tag = addr / self.line;
        let set = &mut self.contents[(tag % self.sets as u64) as usize];
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.tick;
            return true;
        }
        if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty");
            set.remove(lru);
        }
        set.push((tag, self.tick));
        false
    }
}

fn any_config(r: &mut SplitMix64) -> CacheConfig {
    let line = 1usize << (3 + r.next_below(4)); // 8..64
    let sets = 1usize << r.next_below(4); // 1..8
    let ways = 1 + r.next_below(4) as usize;
    CacheConfig {
        size: line * sets * ways,
        line,
        ways,
    }
}

/// Hit/miss sequence matches the reference exactly, access by access.
#[test]
fn cache_matches_reference_lru() {
    let mut r = SplitMix64::new(0xCA1);
    for case in 0..256 {
        let cfg = any_config(&mut r);
        let addrs: Vec<u64> = (0..1 + r.next_below(299))
            .map(|_| r.next_below(1_024))
            .collect();
        let mut real = Cache::new(cfg);
        let mut reference = ReferenceCache::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let got = real.access_line(a);
            let expect = reference.access_line(a);
            assert_eq!(got, expect, "case {case}: access #{i} (addr {a}) diverged");
        }
    }
}

/// Accesses to a working set no larger than the cache never miss after the
/// first touch of each line.
#[test]
fn small_working_set_has_cold_misses_only() {
    let mut r = SplitMix64::new(0xCA2);
    for case in 0..256 {
        let cfg = any_config(&mut r);
        let seq: Vec<usize> = (0..1 + r.next_below(399))
            .map(|_| r.next_below(64) as usize)
            .collect();
        let mut cache = Cache::new(cfg);
        let lines = cfg.size / cfg.line; // exactly fills the cache
        let distinct: Vec<u64> = (0..lines as u64).map(|i| i * cfg.line as u64).collect();
        for &s in &seq {
            cache.access_line(distinct[s % distinct.len()]);
        }
        let touched: std::collections::HashSet<usize> =
            seq.iter().map(|s| s % distinct.len()).collect();
        assert!(cache.misses() as usize <= touched.len(), "case {case}");
    }
}

/// Hierarchy counter invariants: line probes ≥ accesses, misses can't
/// exceed probes, and B-misses can't exceed D-misses.
#[test]
fn hierarchy_counters_are_consistent() {
    let mut r = SplitMix64::new(0xCA3);
    for case in 0..128 {
        let ops: Vec<(u64, u64)> = (0..1 + r.next_below(199))
            .map(|_| (r.next_below(1_000_000), 1 + r.next_below(255)))
            .collect();
        let mut h = Hierarchy::alpha_axp();
        for &(addr, size) in &ops {
            h.read(addr, size);
        }
        let s = h.stats();
        assert_eq!(s.accesses, ops.len() as u64, "case {case}");
        assert!(s.line_probes >= s.accesses, "case {case}");
        assert!(s.d_misses <= s.line_probes, "case {case}");
        assert!(s.b_misses <= s.d_misses, "case {case}");
    }
}

/// Replaying the same trace twice gives identical counters: the model is
/// deterministic.
#[test]
fn hierarchy_is_deterministic() {
    let mut r = SplitMix64::new(0xCA4);
    for case in 0..128 {
        let ops: Vec<(u64, u64)> = (0..1 + r.next_below(99))
            .map(|_| (r.next_below(100_000), 1 + r.next_below(63)))
            .collect();
        let run = |h: &mut Hierarchy| {
            for &(addr, size) in &ops {
                h.read(addr, size);
            }
            h.stats()
        };
        let first = run(&mut Hierarchy::alpha_axp());
        let second = run(&mut Hierarchy::alpha_axp());
        assert_eq!(first, second, "case {case}");
    }
}
