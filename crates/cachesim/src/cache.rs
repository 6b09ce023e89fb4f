//! A set-associative cache model with LRU replacement.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.line * self.ways)
    }
}

/// One cache level. Tags are full line addresses; replacement is true LRU
/// (fine for the small associativities modeled here).
pub struct Cache {
    cfg: CacheConfig,
    /// Per set: resident line addresses, most recently used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    /// If the geometry is inconsistent (size not divisible by line × ways,
    /// or line not a power of two).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two(), "line must be a power of two");
        assert!(cfg.ways >= 1, "need at least one way");
        assert!(
            cfg.size.is_multiple_of(cfg.line * cfg.ways) && cfg.size > 0,
            "size {} not divisible by line {} × ways {}",
            cfg.size,
            cfg.line,
            cfg.ways
        );
        let sets = vec![Vec::with_capacity(cfg.ways); cfg.sets()];
        Cache {
            cfg,
            sets,
            hits: 0,
            misses: 0,
        }
    }

    /// Probe one *line* (addr may be any byte in it). Returns `true` on hit;
    /// on miss the line is filled (possibly evicting the set's LRU line).
    pub fn access_line(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.cfg.line as u64;
        let set_idx = (line_addr % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            set.remove(pos);
            set.insert(0, line_addr);
            self.hits += 1;
            true
        } else {
            set.insert(0, line_addr);
            if set.len() > self.cfg.ways {
                set.pop();
            }
            self.misses += 1;
            false
        }
    }

    /// Total line hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total line misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
#[allow(clippy::erasing_op, clippy::identity_op)] // 0 * 16 etc. keep set math legible
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 16 B lines = 128 B.
        Cache::new(CacheConfig {
            size: 128,
            line: 16,
            ways: 2,
        })
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access_line(0));
        assert!(c.access_line(0));
        assert!(c.access_line(15)); // same line
        assert!(!c.access_line(16)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny(); // 4 sets: line_addr % 4 selects set
                            // Three lines mapping to set 0: line addresses 0, 4, 8.
        assert!(!c.access_line(0 * 16));
        assert!(!c.access_line(4 * 16));
        assert!(!c.access_line(8 * 16)); // evicts line 0 (LRU)
        assert!(!c.access_line(0 * 16)); // line 0 gone
        assert!(c.access_line(8 * 16)); // line 8 still resident
    }

    #[test]
    fn lru_order_updates_on_hit() {
        let mut c = tiny();
        c.access_line(0 * 16);
        c.access_line(4 * 16);
        c.access_line(0 * 16); // touch 0 → 4 becomes LRU
        c.access_line(8 * 16); // evicts 4
        assert!(c.access_line(0 * 16));
        assert!(!c.access_line(4 * 16));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size: 64,
            line: 16,
            ways: 1,
        }); // 4 sets
        assert!(!c.access_line(0));
        assert!(!c.access_line(64)); // same set, evicts
        assert!(!c.access_line(0));
    }

    #[test]
    fn sequential_scan_miss_ratio_is_line_rate() {
        let mut c = Cache::new(CacheConfig {
            size: 8 * 1024,
            line: 32,
            ways: 1,
        });
        // Scan 64 KB in 8-byte reads: 1 miss per 32 B line = 25% of probes.
        for i in 0..8192u64 {
            c.access_line(i * 8);
        }
        assert_eq!((c.misses(), c.hits()), (2048, 6144));
    }

    #[test]
    fn working_set_smaller_than_cache_stays_resident() {
        let mut c = Cache::new(CacheConfig {
            size: 8 * 1024,
            line: 32,
            ways: 1,
        });
        // Touch 4 KB twice: second pass must be all hits.
        for i in 0..128u64 {
            c.access_line(i * 32);
        }
        let misses_before = c.misses();
        for i in 0..128u64 {
            c.access_line(i * 32);
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig {
            size: 100,
            line: 16,
            ways: 2,
        });
    }
}
