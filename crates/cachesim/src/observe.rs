//! The seam between the sort exhibits and the simulator.
//!
//! The §4 exhibits (`alphasort_bench::variants`) are generic over an
//! [`Observer`] they report every load and store of their arrays to. The
//! timed runs pass `()`, which compiles to nothing; the traced runs pass a
//! [`Hierarchy`], which counts the misses. One implementation is both timed
//! and traced.
//!
//! Addresses are never raw pointers, which would make miss counts depend on
//! the allocator: each array is given a region base below plus a byte
//! offset. Records live at [`RECORD_BASE`], sort-entry arrays and prefix
//! tables at [`ENTRY_BASE`], tournament nodes at [`TREE_BASE`] (laid out by
//! [`node_addr`]) and gather output at [`OUT_BASE`]; no two overlap.

use std::ops::Range;

use crate::hier::Hierarchy;

/// Base address of the record buffer.
pub const RECORD_BASE: u64 = 0x1000_0000;
/// Base address of sort-entry arrays and prefix tables.
pub const ENTRY_BASE: u64 = 0x4000_0000;
/// Base address of tournament-tree nodes.
pub const TREE_BASE: u64 = 0x8000_0000;
/// Base address of the gather output buffer.
pub const OUT_BASE: u64 = 0xC000_0000;

/// Where a kernel reports its memory traffic: `len` bytes at `addr`.
pub trait Observer {
    /// A load.
    fn read(&mut self, addr: u64, len: u64);
    /// A store.
    fn write(&mut self, addr: u64, len: u64);
}

/// The timed runs' observer: sees nothing, costs nothing.
impl Observer for () {
    #[inline(always)]
    fn read(&mut self, _addr: u64, _len: u64) {}
    #[inline(always)]
    fn write(&mut self, _addr: u64, _len: u64) {}
}

/// The traced runs' observer. Both fill lines alike (write-allocate).
impl Observer for Hierarchy {
    fn read(&mut self, addr: u64, len: u64) {
        self.access(addr, len);
    }
    fn write(&mut self, addr: u64, len: u64) {
        self.access(addr, len);
    }
}

/// Passes on only the accesses that start inside one address range: a
/// tournament's own node traffic, say, apart from the records it moves.
pub struct Within<'m, O>(pub Range<u64>, pub &'m mut O);

impl<O: Observer> Observer for Within<'_, O> {
    fn read(&mut self, addr: u64, len: u64) {
        if self.0.contains(&addr) {
            self.1.read(addr, len);
        }
    }
    fn write(&mut self, addr: u64, len: u64) {
        if self.0.contains(&addr) {
            self.1.write(addr, len);
        }
    }
}

/// Tournament node layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TournamentLayout {
    /// Heap order: node `i` at `TREE_BASE + 8 i`. Parent and child are far
    /// apart except near the root — Figure 4's thrashing case.
    Naive,
    /// Height-2 subtree blocks: a parent and both children share one
    /// 32-byte-aligned block, so every odd-depth node is in its parent's
    /// cache line.
    Clustered,
}

impl TournamentLayout {
    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            TournamentLayout::Naive => "naive",
            TournamentLayout::Clustered => "clustered",
        }
    }
}

/// Bytes per tournament node: the paper's 8-byte (prefix, pointer) pair.
pub const NODE_SIZE: u64 = 8;

/// Map a 1-based heap node index to its address under `layout`.
pub fn node_addr(layout: TournamentLayout, node: usize) -> u64 {
    match layout {
        TournamentLayout::Naive => TREE_BASE + node as u64 * NODE_SIZE,
        TournamentLayout::Clustered => {
            // Anchors are nodes at even depth; an anchor owns the 32-byte
            // block {anchor, left child, right child} (3 × 8 = 24 B ≤ 32 B).
            let depth = node.ilog2();
            let (anchor, slot) = if depth.is_multiple_of(2) {
                (node, 0u64)
            } else {
                (node / 2, 1 + (node & 1) as u64)
            };
            // Rank of `anchor` among even-depth nodes in index order:
            // depths 0, 2, …: node ranges [4^k, 2·4^k) hold 4^k anchors.
            let k = anchor.ilog2() / 2;
            let base_rank = ((4u64.pow(k)) - 1) / 3; // 1 + 4 + 16 + …
            let rank = base_rank + (anchor as u64 - 4u64.pow(k));
            TREE_BASE + rank * 32 + slot * NODE_SIZE
        }
    }
}

/// Report the node reads of a loser-tree replay from `leaf` of a
/// `leaves`-leaf tree: one node per level, on the path to the root.
pub fn replay_path<O: Observer>(mem: &mut O, layout: TournamentLayout, leaves: usize, leaf: usize) {
    let mut node = (leaves.next_power_of_two() + leaf) / 2;
    while node >= 1 {
        mem.read(node_addr(layout, node), NODE_SIZE);
        node /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_addresses_share_lines_with_parents() {
        // Every odd-depth node must land in the same 32-byte line as its
        // parent.
        for node in 2..2048usize {
            let depth = node.ilog2();
            if depth % 2 == 1 {
                let a = node_addr(TournamentLayout::Clustered, node);
                let p = node_addr(TournamentLayout::Clustered, node / 2);
                assert_eq!(a / 32, p / 32, "node {node} not with parent");
            }
        }
    }

    #[test]
    fn clustered_addresses_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for node in 1..4096usize {
            let a = node_addr(TournamentLayout::Clustered, node);
            assert!(seen.insert(a), "node {node} collides at {a:#x}");
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn within_passes_on_only_its_range() {
        let mut h = Hierarchy::alpha_axp();
        let mut tree = Within(TREE_BASE..OUT_BASE, &mut h);
        tree.read(RECORD_BASE, 100);
        tree.write(OUT_BASE, 100);
        tree.read(node_addr(TournamentLayout::Naive, 1), NODE_SIZE);
        assert_eq!(h.stats().accesses, 1);
    }
}
