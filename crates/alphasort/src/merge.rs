//! The merge phase: one small tournament over the sorted runs.
//!
//! "AlphaSort runs a tournament scanning the ten QuickSorted runs of the
//! (key-prefix, pointer) pairs in sequential order, picking the minimum
//! key-prefix among the runs. If there is a tie, it examines the full keys
//! in the records." (§7). Because the tree has one node per *run* — ten to
//! a hundred, not a million — it stays cache resident; the expensive part
//! is the gather that follows ([`crate::gather`]).
//!
//! A head's key-prefix is never read out of its record. In-memory runs
//! answer from a formation-time table ([`LayoutRun::prefix_at`]): a
//! Datamation run keeps its sorted depth-0 prefixes beside its order, so
//! the tournament reads sequential arrays and touches a record only when
//! two prefixes tie. Streams from scratch cache the prefix when they frame
//! the head.
//!
//! There is one [`Merger`], generic over two things:
//!
//! * **where heads come from** ([`Heads`]): [`RunCursors`] walk `[start,
//!   end)` windows of in-memory runs (the one-pass sort and its
//!   partitioned ranges), [`StreamHeads`] re-frame runs coming back from
//!   scratch through any [`RecordSource`] (the two-pass sort);
//! * **how two heads compare** ([`ComparePolicy`]): [`PrefixThenKey`] is
//!   the paper's rule, [`Ovc`] is the offset-value coding of DFsort and
//!   SyncSort that §4 says "will not beat AlphaSort's simpler key-prefix
//!   sort" on binary keys — and that wins on string keys, where every
//!   whole-key compare rescans a long shared prefix.
//!
//! Under [`Ovc`] every head carries the exact LCP of its key with the
//! **last emitted key** (the base). Every live head is ≥ the base, so a
//! deeper agreement with it means a smaller key — no byte compares at all
//! — and equal offsets compare bytes only from the offset onward. After a
//! winner is emitted the other heads re-code for free by the `min` rule
//! when their offset differs from the winner's old one; equal-offset heads
//! extend by scanning from it. The winner's *successor* codes against its
//! in-run predecessor — the record just emitted — which is a table lookup
//! when run formation kept [`LayoutRun::lcp_with_prev`], a scan otherwise.
//!
//! The policy is a type parameter, monomorphised into the replay loop;
//! each [`LayoutRun`] names the one its merges use. An [`Effort`] sink —
//! `()` in the drivers, [`MergeEffort`] in experiments — counts comparisons
//! and key bytes under either, so the two can be held against each other
//! on any corpus at no cost to the sort.

use std::io;
use std::marker::PhantomData;

use crate::entry::{checked_run_len, key_prefix_u64, Frame};
use crate::io::RecordSource;
use crate::layout::LayoutRun;
use crate::varlen::lcp;

/// Merged pointer: run index and sorted position within that run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedPtr {
    /// Which run the record comes from.
    pub run: u32,
    /// Sorted position within the run.
    pub pos: u32,
}

/// Where a merge reports its comparison work. The drivers pass `()`, which
/// counts nothing and compiles to nothing; experiments pass a
/// [`MergeEffort`] to hold the compare policies against each other.
pub trait Effort {
    /// One head-to-head comparison was performed.
    fn compare(&mut self);
    /// `n()` more key bytes were examined. A closure, so a sink that does
    /// not count never pays for working the number out.
    fn key_bytes(&mut self, n: impl FnOnce() -> u64);
}

impl Effort for () {
    #[inline]
    fn compare(&mut self) {}
    #[inline]
    fn key_bytes(&mut self, _n: impl FnOnce() -> u64) {}
}

/// Counters for comparison effort during a merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeEffort {
    /// Head-to-head comparisons performed.
    pub compares: u64,
    /// Individual key bytes a byte-wise comparison examines: both sides of
    /// every byte pair up to and including the first difference, plus the
    /// bytes scanned to re-code offsets.
    pub key_bytes: u64,
}

impl Effort for MergeEffort {
    #[inline]
    fn compare(&mut self) {
        self.compares += 1;
    }
    #[inline]
    fn key_bytes(&mut self, n: impl FnOnce() -> u64) {
        self.key_bytes += n();
    }
}

/// The inputs of a merge: `leaves()` key-ascending record sequences, each
/// exposing its current head.
pub trait Heads {
    /// Number of inputs (tournament leaves).
    fn leaves(&self) -> usize;
    /// Whether input `h` still has a head. Every other accessor is for
    /// live inputs only — and is asked only when a comparison needs it:
    /// under offset-value codes most comparisons never touch key bytes at
    /// all, and looking a key up eagerly is a cache miss paid for nothing.
    fn is_live(&self, h: usize) -> bool;
    /// Key of the head record of input `h`.
    fn key(&self, h: usize) -> &[u8];
    /// That key's integer prefix, answered from a stored value without
    /// reading the record: in-memory runs from their formation-time table
    /// ([`LayoutRun::prefix_at`]), streams from the value cached when the
    /// head was framed.
    fn prefix(&self, h: usize) -> u64;
    /// The whole head record of input `h`.
    fn frame(&self, h: usize) -> &[u8];
    /// LCP of the key *after* `h`'s head with the head's key, when known
    /// without looking (a formation-time table); `None` makes the merger
    /// keep a copy of the head key and scan.
    fn successor_lcp(&self, _h: usize) -> Option<u32> {
        None
    }
    /// Discard the head of input `h`. IO-backed inputs surface read errors
    /// here.
    fn advance(&mut self, h: usize) -> io::Result<()>;
}

/// Compare two key suffixes from byte `from`, counting examined bytes.
/// Exhaustion order: a key that runs out first is the smaller (a strict
/// prefix sorts before its extensions); both out ⇒ `tie`.
#[inline]
fn suffix_less(ka: &[u8], kb: &[u8], from: usize, tie: bool, effort: &mut impl Effort) -> bool {
    let mut i = from;
    loop {
        match (ka.get(i), kb.get(i)) {
            (None, None) => return tie,
            (None, Some(_)) => return true,
            (Some(_), None) => return false,
            (Some(&x), Some(&y)) => {
                effort.key_bytes(|| 2);
                if x != y {
                    return x < y;
                }
            }
        }
        i += 1;
    }
}

/// How two live heads compare. Implementations decide order only; the
/// [`Merger`] owns the two invariants every merge needs — an exhausted
/// head loses, and equal keys go to the lower leaf (`tie`), which is run
/// order: the stability rule.
pub trait ComparePolicy: Send + Sync + 'static {
    /// Whether heads carry offset-value codes the merger must maintain.
    const CODED: bool;
    /// Whether the head of live input `a` sorts before that of live input
    /// `b`. `off` holds the codes, indexed by leaf (all zero unless
    /// [`CODED`](Self::CODED)).
    fn less<H: Heads>(heads: &H, a: usize, b: usize, off: &[u32], effort: &mut impl Effort)
        -> bool;
}

/// The paper's rule: the integer prefix decides, the full keys break a
/// prefix tie. On var-len heads this is the "naive" whole-key merge.
pub struct PrefixThenKey;

impl ComparePolicy for PrefixThenKey {
    const CODED: bool = false;

    #[inline]
    fn less<H: Heads>(
        heads: &H,
        a: usize,
        b: usize,
        _off: &[u32],
        effort: &mut impl Effort,
    ) -> bool {
        let (pa, pb) = (heads.prefix(a), heads.prefix(b));
        let shorter = || heads.key(a).len().min(heads.key(b).len());
        if pa != pb {
            // Zero padding is not a key byte: a key that ends first stops
            // the count where it ends.
            let same = ((pa ^ pb).leading_zeros() / 8) as usize;
            effort.key_bytes(|| 2 * (same + 1).min(shorter()) as u64);
            return pa < pb;
        }
        let same = shorter().min(8);
        effort.key_bytes(|| 2 * same as u64);
        suffix_less(heads.key(a), heads.key(b), same, a < b, effort)
    }
}

/// Offset-value coding: offsets decide where they differ, only the key
/// suffixes past a shared offset are ever compared.
pub struct Ovc;

impl ComparePolicy for Ovc {
    const CODED: bool = true;

    #[inline]
    fn less<H: Heads>(
        heads: &H,
        a: usize,
        b: usize,
        off: &[u32],
        effort: &mut impl Effort,
    ) -> bool {
        let (oa, ob) = (off[a], off[b]);
        if oa != ob {
            // Deeper agreement with the base ⇒ smaller key.
            return oa > ob;
        }
        suffix_less(heads.key(a), heads.key(b), oa as usize, a < b, effort)
    }
}

/// The one head comparison, shared by construction and replay.
#[inline]
fn head_less<H: Heads, P: ComparePolicy>(
    heads: &H,
    off: &[u32],
    effort: &mut impl Effort,
    a: usize,
    b: usize,
) -> bool {
    match (heads.is_live(a), heads.is_live(b)) {
        (false, _) => false,
        (true, false) => true,
        (true, true) => {
            effort.compare();
            P::less(heads, a, b, off, effort)
        }
    }
}

/// A tournament ("loser") tree over `k` external items.
///
/// The tree stores only leaf *indices*; the caller owns the items and
/// supplies a `less(a, b)` predicate over leaf indices. Exhausted leaves are
/// expressed by the predicate (an exhausted leaf must lose to everything).
///
/// After changing the winner's item, call [`LoserTree::replay`] — O(log k)
/// and touching only the root path, which is the cache-friendly property
/// the merge phase relies on.
pub struct LoserTree {
    /// Padded leaf count (power of two); leaves ≥ `k` are virtual +∞.
    cap: usize,
    k: usize,
    /// Internal nodes 1..cap: the loser of the match at that node.
    loser: Vec<u32>,
    winner: u32,
}

impl LoserTree {
    /// Build the tournament over `k` leaves with the given predicate.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new<F: FnMut(usize, usize) -> bool>(k: usize, mut less: F) -> Self {
        assert!(k > 0, "tournament needs at least one leaf");
        let cap = k.next_power_of_two();
        let mut loser = vec![u32::MAX; cap.max(1)];
        // Bottom-up bracket: winners[i] for internal node i (1-based heap).
        let mut winners = vec![u32::MAX; 2 * cap];
        for leaf in 0..cap {
            winners[cap + leaf] = leaf as u32;
        }
        let mut beats = |a: u32, b: u32| -> bool {
            let (a, b) = (a as usize, b as usize);
            if a >= k {
                return false; // virtual +∞ never wins
            }
            if b >= k {
                return true;
            }
            less(a, b)
        };
        for i in (1..cap).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            if beats(a, b) {
                winners[i] = a;
                loser[i] = b;
            } else {
                winners[i] = b;
                loser[i] = a;
            }
        }
        let winner = if cap == 1 { 0 } else { winners[1] };
        LoserTree {
            cap,
            k,
            loser,
            winner,
        }
    }

    /// Number of real leaves.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Always false (a tree has at least one leaf).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current winning leaf. The caller decides whether its item is
    /// exhausted (the tree does not know).
    pub fn winner(&self) -> usize {
        self.winner as usize
    }

    /// Replay the winner's root path after its item changed.
    pub fn replay<F: FnMut(usize, usize) -> bool>(&mut self, mut less: F) {
        let mut beats = |a: u32, b: u32| -> bool {
            let (a, b) = (a as usize, b as usize);
            if a >= self.k {
                return false;
            }
            if b >= self.k {
                return true;
            }
            less(a, b)
        };
        let mut s = self.winner;
        let mut t = (self.cap + s as usize) / 2;
        while t >= 1 {
            if beats(self.loser[t], s) {
                core::mem::swap(&mut self.loser[t], &mut s);
            }
            if t == 1 {
                break;
            }
            t /= 2;
        }
        self.winner = s;
    }
}

/// K-way tournament merger over `H`'s heads under compare policy `P`,
/// reporting its comparison work to `E`.
pub struct Merger<H: Heads, P: ComparePolicy, E: Effort = ()> {
    heads: H,
    /// Under a coded policy, `off[h]` = exact LCP of head `h`'s key with
    /// the last emitted key. No base yet ⇒ 0 exactly, so the first
    /// comparisons scan from byte 0.
    off: Vec<u32>,
    /// Copy of the last emitted key, kept only while a successor must be
    /// coded by scanning (the input may drop its storage on advance).
    base: Vec<u8>,
    tree: LoserTree,
    /// The effort sink (counters built up across the whole merge).
    pub effort: E,
    _policy: PhantomData<P>,
}

impl<H: Heads, P: ComparePolicy, E: Effort> Merger<H, P, E> {
    /// Start merging `heads`, reporting comparison work to `effort`.
    ///
    /// # Panics
    /// If `heads` has no leaves.
    pub fn new(heads: H, mut effort: E) -> Self {
        assert!(heads.leaves() > 0, "need at least one run to merge");
        let off = vec![0u32; heads.leaves()];
        let tree = LoserTree::new(heads.leaves(), |a, b| {
            head_less::<H, P>(&heads, &off, &mut effort, a, b)
        });
        Merger {
            heads,
            off,
            base: Vec::new(),
            tree,
            effort,
            _policy: PhantomData,
        }
    }

    /// The merge inputs (to read the winner's record before popping it).
    pub fn heads(&self) -> &H {
        &self.heads
    }

    /// The leaf holding the next record in global key order, `None` once
    /// every input is exhausted.
    pub fn winner(&self) -> Option<usize> {
        let w = self.tree.winner();
        self.heads.is_live(w).then_some(w)
    }

    /// Discard the winner's head and replay its root path.
    ///
    /// # Panics
    /// If every input is exhausted.
    #[inline]
    pub fn pop(&mut self) -> io::Result<()> {
        let Self {
            heads,
            off,
            base,
            tree,
            effort,
            ..
        } = self;
        let w = tree.winner();
        if P::CODED {
            let w_off = off[w];
            let hint = heads.successor_lcp(w);
            assert!(heads.is_live(w), "pop on an exhausted merger");
            let emitted = heads.key(w);
            // Re-code every other head against the new base. The min rule
            // is free — it needs no key, so not even a liveness check (an
            // exhausted head's code is never read). Equal-offset heads
            // extend by scanning from the old shared offset: they agree
            // with the new base at least that far, since both agreed with
            // the old base exactly that far.
            for (h, o) in off.iter_mut().enumerate() {
                if h == w {
                    continue;
                }
                if *o != w_off {
                    *o = (*o).min(w_off);
                    continue;
                }
                if !heads.is_live(h) {
                    continue;
                }
                let key = heads.key(h);
                let n = key.len().min(emitted.len());
                let mut i = w_off as usize;
                while i < n {
                    effort.key_bytes(|| 1);
                    if key[i] != emitted[i] {
                        break;
                    }
                    i += 1;
                }
                *o = i as u32;
            }
            if hint.is_none() {
                base.clear();
                base.extend_from_slice(emitted);
            }
            heads.advance(w)?;
            // The winner's successor codes against the record just emitted:
            // a table lookup when the input knew it, a scan otherwise.
            off[w] = match hint {
                Some(l) => l,
                None if heads.is_live(w) => {
                    let l = lcp(heads.key(w), base);
                    effort.key_bytes(|| l as u64 + 1);
                    l as u32
                }
                None => 0,
            };
        } else {
            heads.advance(w)?;
        }
        tree.replay(|a, b| head_less::<H, P>(heads, off, effort, a, b));
        Ok(())
    }

    /// Append the next record in global key order to `out`; `false` when
    /// every input is exhausted.
    pub fn next_into(&mut self, out: &mut Vec<u8>) -> io::Result<bool> {
        let Some(w) = self.winner() else {
            return Ok(false);
        };
        out.extend_from_slice(self.heads.frame(w));
        self.pop()?;
        Ok(true)
    }
}

/// [`Heads`] over `[start, end)` windows of in-memory sorted runs.
pub struct RunCursors<'a, R> {
    runs: &'a [R],
    pos: Vec<u32>,
    /// One-past-the-end sorted position per run.
    end: Vec<u32>,
    remaining: usize,
}

impl<'a, R: LayoutRun> RunCursors<'a, R> {
    /// Cursors over whole `runs`, or — one range of a partitioned merge —
    /// over `bounds[r] = [start, end)` of each run's sorted order. Equal
    /// keys still tie-break by run index, so concatenating range merges
    /// planned by [`crate::pmerge`] reproduces the whole merge exactly.
    ///
    /// # Panics
    /// If `bounds` and `runs` disagree in length, a bound falls outside
    /// its run, or a run exceeds the [`crate::entry::MAX_RUN_RECORDS`]
    /// index ceiling (positions are 32-bit).
    pub fn new(runs: &'a [R], bounds: Option<&[(u32, u32)]>) -> Self {
        let bounds: Vec<(u32, u32)> = match bounds {
            Some(b) => b.to_vec(),
            None => runs
                .iter()
                .map(|r| (0, checked_run_len(r.len(), "RunCursors::new run")))
                .collect(),
        };
        assert_eq!(bounds.len(), runs.len(), "one bound pair per run");
        for (r, &(s, e)) in runs.iter().zip(&bounds) {
            assert!(s <= e && e as usize <= r.len(), "bounds outside run");
        }
        RunCursors {
            runs,
            pos: bounds.iter().map(|b| b.0).collect(),
            end: bounds.iter().map(|b| b.1).collect(),
            remaining: bounds.iter().map(|&(s, e)| (e - s) as usize).sum(),
        }
    }

    /// Total records still to come.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl<R: LayoutRun> Heads for RunCursors<'_, R> {
    fn leaves(&self) -> usize {
        self.runs.len()
    }

    #[inline]
    fn is_live(&self, h: usize) -> bool {
        self.pos[h] < self.end[h]
    }

    #[inline]
    fn key(&self, h: usize) -> &[u8] {
        self.runs[h].key_at(self.pos[h] as usize)
    }

    #[inline]
    fn prefix(&self, h: usize) -> u64 {
        self.runs[h].prefix_at(self.pos[h] as usize)
    }

    #[inline]
    fn frame(&self, h: usize) -> &[u8] {
        self.runs[h].frame_at(self.pos[h] as usize)
    }

    #[inline]
    fn successor_lcp(&self, h: usize) -> Option<u32> {
        let next = self.pos[h] + 1;
        (next < self.end[h])
            .then(|| self.runs[h].lcp_with_prev(next as usize))
            .flatten()
    }

    #[inline]
    fn advance(&mut self, h: usize) -> io::Result<()> {
        self.pos[h] += 1;
        self.remaining -= 1;
        Ok(())
    }
}

/// In-memory merges yield the "sorted string of record pointers" the
/// gather works from.
impl<R: LayoutRun, P: ComparePolicy, E: Effort> Iterator for Merger<RunCursors<'_, R>, P, E> {
    type Item = MergedPtr;

    #[inline]
    fn next(&mut self) -> Option<MergedPtr> {
        let w = self.winner()?;
        let out = MergedPtr {
            run: w as u32,
            pos: self.heads.pos[w],
        };
        self.pop().expect("in-memory cursors cannot fail");
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.heads.remaining, Some(self.heads.remaining))
    }
}

/// One run coming back from scratch: chunks of a [`RecordSource`]
/// re-framed into records. Chunk boundaries need not align with records (a
/// striped source's strides generally do not); partial records are carried
/// across chunks.
struct FrameStream<S> {
    source: S,
    buf: Vec<u8>,
    /// Byte offset of the head record within `buf`.
    off: usize,
    /// Shape of the head record, and its key's integer prefix.
    head: Option<Frame>,
    prefix: u64,
    exhausted: bool,
    /// Bytes of the run consumed before `buf[0]` (error attribution).
    consumed: u64,
}

/// [`Heads`] over key-ascending record streams of layout `R`. A source
/// that ends mid-record yields `InvalidData`.
pub struct StreamHeads<S, R> {
    streams: Vec<FrameStream<S>>,
    _layout: PhantomData<fn() -> R>,
}

impl<S: RecordSource, R: LayoutRun> StreamHeads<S, R> {
    /// Wrap `sources`; each first record is fetched eagerly.
    pub fn new(sources: Vec<S>) -> io::Result<Self> {
        let mut heads = StreamHeads {
            streams: sources
                .into_iter()
                .map(|source| FrameStream {
                    source,
                    buf: Vec::new(),
                    off: 0,
                    head: None,
                    prefix: 0,
                    exhausted: false,
                    consumed: 0,
                })
                .collect(),
            _layout: PhantomData,
        };
        for h in 0..heads.streams.len() {
            heads.refill(h)?;
        }
        Ok(heads)
    }

    /// Expose the record at `off` as the head, reading more chunks until
    /// it is whole.
    fn refill(&mut self, h: usize) -> io::Result<()> {
        let s = &mut self.streams[h];
        loop {
            let rest = &s.buf[s.off..];
            s.head = R::LAYOUT.frame_at(rest, s.consumed + s.off as u64)?;
            if let Some(frame) = s.head {
                s.prefix = key_prefix_u64(frame.key(rest));
                return Ok(());
            }
            if s.exhausted {
                break;
            }
            // Compact, then append the next chunk.
            s.consumed += s.off as u64;
            s.buf.drain(..s.off);
            s.off = 0;
            match s.source.next_chunk()? {
                Some(chunk) => s.buf.extend_from_slice(&chunk),
                None => s.exhausted = true,
            }
        }
        match s.buf.len() - s.off {
            0 => Ok(()),
            avail => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("scratch run ends mid-record ({avail} trailing bytes)"),
            )),
        }
    }
}

impl<S: RecordSource, R: LayoutRun> Heads for StreamHeads<S, R> {
    fn leaves(&self) -> usize {
        self.streams.len()
    }

    #[inline]
    fn is_live(&self, h: usize) -> bool {
        self.streams[h].head.is_some()
    }

    #[inline]
    fn key(&self, h: usize) -> &[u8] {
        let s = &self.streams[h];
        let f = s.head.expect("key of an exhausted stream");
        f.key(&s.buf[s.off..])
    }

    #[inline]
    fn prefix(&self, h: usize) -> u64 {
        self.streams[h].prefix
    }

    #[inline]
    fn frame(&self, h: usize) -> &[u8] {
        let s = &self.streams[h];
        let f = s.head.expect("frame of an exhausted stream");
        &s.buf[s.off..s.off + f.len]
    }

    fn advance(&mut self, h: usize) -> io::Result<()> {
        let s = &mut self.streams[h];
        s.off += s.head.expect("advance past the end of a stream").len;
        self.refill(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemSource;
    use crate::runform::SortedRun;
    use crate::varlen::VarRun;
    use alphasort_dmgen::{
        generate, generate_varlen, var_records_of, GenConfig, KeyDistribution, TextCorpus,
        VarGenConfig, RECORD_LEN,
    };

    #[test]
    fn loser_tree_emits_sorted_sequence() {
        // Merge by repeatedly taking the winner of a static value array,
        // marking taken values exhausted.
        let vals = [5u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut taken = vec![false; vals.len()];
        let mut tree = LoserTree::new(vals.len(), |a, b| match (taken[a], taken[b]) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => (vals[a], a) < (vals[b], b),
        });
        let mut out = Vec::new();
        for _ in 0..vals.len() {
            let w = tree.winner();
            out.push(vals[w]);
            taken[w] = true;
            tree.replay(|a, b| match (taken[a], taken[b]) {
                (true, _) => false,
                (false, true) => true,
                (false, false) => (vals[a], a) < (vals[b], b),
            });
        }
        let mut expect = vals.to_vec();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn loser_tree_single_leaf() {
        let tree = LoserTree::new(1, |_, _| false);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn loser_tree_non_power_of_two() {
        for k in [2usize, 3, 5, 6, 7, 9, 13] {
            let vals: Vec<u32> = (0..k as u32).rev().collect();
            let mut taken = vec![false; k];
            let cmp = |taken: &Vec<bool>, a: usize, b: usize| match (taken[a], taken[b]) {
                (true, _) => false,
                (false, true) => true,
                (false, false) => vals[a] < vals[b],
            };
            let mut tree = LoserTree::new(k, |a, b| cmp(&taken, a, b));
            let mut out = Vec::new();
            for _ in 0..k {
                let w = tree.winner();
                out.push(vals[w]);
                taken[w] = true;
                tree.replay(|a, b| cmp(&taken, a, b));
            }
            assert!(out.windows(2).all(|w| w[0] < w[1]), "k={k}: {out:?}");
        }
    }

    /// Runs of `sizes` records each (storage order = arrival order), cut
    /// from `data` whose record `i` spans `bounds[i]..bounds[i + 1]`.
    fn cut_runs<R: LayoutRun>(data: &[u8], bounds: &[usize], sizes: &[usize]) -> Vec<R> {
        let mut at = 0;
        sizes
            .iter()
            .map(|&n| {
                let buf = data[bounds[at]..bounds[at + n]].to_vec();
                at += n;
                R::form(buf, n)
            })
            .collect()
    }

    /// `total` records of a tie-heavy fixed-width distribution, as runs.
    fn fixed_runs(total: usize, sizes: &[usize]) -> Vec<SortedRun> {
        let (data, _) = generate(GenConfig {
            records: total as u64,
            seed: 4242,
            dist: KeyDistribution::DupHeavy { cardinality: 9 },
        });
        let bounds: Vec<usize> = (0..=total).map(|i| i * RECORD_LEN).collect();
        cut_runs(&data, &bounds, sizes)
    }

    /// `total` records of a string corpus, as runs.
    fn corpus_runs(corpus: TextCorpus, total: usize, sizes: &[usize]) -> Vec<VarRun> {
        let data = generate_varlen(VarGenConfig {
            records: total as u64,
            seed: 0x3D,
            corpus,
        });
        let mut bounds = vec![0];
        for r in var_records_of(&data).unwrap() {
            bounds.push(bounds.last().unwrap() + r.len());
        }
        cut_runs(&data, &bounds, sizes)
    }

    /// The tie-heavy default: one- and two-word Zipfian keys.
    fn var_runs(total: usize, sizes: &[usize]) -> Vec<VarRun> {
        corpus_runs(TextCorpus::ZipfianWords { max_words: 2 }, total, sizes)
    }

    fn even(total: usize, per: usize) -> Vec<usize> {
        let mut sizes = vec![per; total / per];
        if !total.is_multiple_of(per) {
            sizes.push(total % per);
        }
        sizes
    }

    /// The table: every contract check below runs once per layout.
    macro_rules! both_layouts {
        ($check:ident, $total:expr, $sizes:expr) => {{
            $check::<SortedRun>("datamation", &fixed_runs($total, $sizes));
            $check::<VarRun>("varlen", &var_runs($total, $sizes));
        }};
    }

    fn ptrs<R: LayoutRun, P: ComparePolicy>(
        runs: &[R],
        bounds: Option<&[(u32, u32)]>,
    ) -> Vec<MergedPtr> {
        Merger::<_, P, _>::new(RunCursors::new(runs, bounds), ()).collect()
    }

    fn layout_ptrs<R: LayoutRun>(runs: &[R]) -> Vec<MergedPtr> {
        ptrs::<R, R::Policy>(runs, None)
    }

    fn global_order<R: LayoutRun>(what: &str, runs: &[R]) {
        let merged = layout_ptrs(runs);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let distinct: std::collections::HashSet<_> =
            merged.iter().map(|p| (p.run, p.pos)).collect();
        assert_eq!(
            (merged.len(), distinct.len()),
            (total, total),
            "{what}: each pointer once"
        );
        for w in merged.windows(2) {
            let ka = runs[w[0].run as usize].key_at(w[0].pos as usize);
            let kb = runs[w[1].run as usize].key_at(w[1].pos as usize);
            assert!(ka <= kb, "{what}: merge out of order");
            // On equal keys, lower run index must come first.
            if ka == kb && w[0].run != w[1].run {
                assert!(w[0].run < w[1].run, "{what}: tie broken against run order");
            }
        }
    }

    #[test]
    fn merge_emits_each_pointer_once_in_key_order_with_run_order_ties() {
        both_layouts!(global_order, 3_000, &even(3_000, 250));
    }

    #[test]
    fn merge_handles_uneven_run_lengths() {
        both_layouts!(
            global_order,
            1_000,
            &[1, 499, 10, 200, 90, 100, 0, 50, 25, 20, 5]
        );
    }

    fn single_run_identity<R: LayoutRun>(what: &str, runs: &[R]) {
        assert_eq!(runs.len(), 1);
        let (heads, effort) = (RunCursors::new(runs, None), MergeEffort::default());
        let mut m = Merger::<_, R::Policy, _>::new(heads, effort);
        for (i, p) in m.by_ref().enumerate() {
            assert_eq!((p.run, p.pos as usize), (0, i), "{what}");
        }
        assert_eq!(
            m.effort.compares, 0,
            "{what}: one live head is never compared"
        );
    }

    #[test]
    fn merge_single_run_is_identity() {
        both_layouts!(single_run_identity, 500, &[500]);
    }

    fn bounded_concatenate<R: LayoutRun>(what: &str, runs: &[R]) {
        let full = layout_ptrs(runs);
        let plan = crate::pmerge::plan_mem_partitions(runs, 4, 16);
        let mut cat = Vec::new();
        for row in &plan.bounds {
            let b: Vec<(u32, u32)> = row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
            cat.extend(ptrs::<R, R::Policy>(runs, Some(&b)));
        }
        // Pointer-for-pointer identical: the partition respects both key
        // order and the run-index tie-break.
        assert_eq!(cat, full, "{what}");
    }

    #[test]
    fn bounded_merges_concatenate_to_the_full_merge() {
        both_layouts!(bounded_concatenate, 2_000, &even(2_000, 170));
    }

    fn empty_bounds<R: LayoutRun>(what: &str, runs: &[R]) {
        let bounds: Vec<(u32, u32)> = runs.iter().map(|_| (0, 0)).collect();
        let none = ptrs::<R, R::Policy>(runs, Some(&bounds));
        assert!(none.is_empty(), "{what}");
    }

    #[test]
    fn empty_bounds_yield_nothing() {
        both_layouts!(empty_bounds, 300, &even(300, 100));
    }

    fn sorted_bytes<R: LayoutRun>(run: &R) -> Vec<u8> {
        (0..run.len())
            .flat_map(|p| run.frame_at(p).to_vec())
            .collect()
    }

    fn stream_matches_cursor<R: LayoutRun>(what: &str, runs: &[R]) {
        let mut want = Vec::new();
        for p in layout_ptrs(runs) {
            want.extend_from_slice(runs[p.run as usize].frame_at(p.pos as usize));
        }
        // Ragged 97-byte chunks: records straddle every chunk boundary; the
        // empty run in the table is an empty stream and must be harmless.
        let sources = runs
            .iter()
            .map(|r| MemSource::new(sorted_bytes(r), 97))
            .collect();
        let heads = StreamHeads::<_, R>::new(sources).unwrap();
        let mut m = Merger::<_, R::Policy, _>::new(heads, ());
        let mut got = Vec::new();
        while m.next_into(&mut got).unwrap() {}
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn stream_merge_matches_cursor_merge() {
        both_layouts!(stream_matches_cursor, 1_200, &[100, 300, 0, 450, 350]);
    }

    #[test]
    fn truncated_stream_is_an_attributed_error() {
        let runs = fixed_runs(50, &[50]);
        let mut bytes = sorted_bytes(&runs[0]);
        bytes.truncate(bytes.len() - 3);
        let mut m = Merger::<_, PrefixThenKey, _>::new(
            StreamHeads::<_, SortedRun>::new(vec![MemSource::new(bytes, 64)]).unwrap(),
            (),
        );
        let mut out = Vec::new();
        let err = loop {
            match m.next_into(&mut out) {
                Ok(true) => {}
                Ok(false) => panic!("truncation went unnoticed"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-record"), "{err}");
    }

    /// Merge under policy `P`, returning the bytes and the effort.
    fn merged_bytes<R: LayoutRun, P: ComparePolicy>(runs: &[R]) -> (Vec<u8>, MergeEffort) {
        let (heads, effort) = (RunCursors::new(runs, None), MergeEffort::default());
        let mut m = Merger::<_, P, _>::new(heads, effort);
        let mut out = Vec::new();
        while m.next_into(&mut out).unwrap() {}
        (out, m.effort)
    }

    fn policies_agree<R: LayoutRun>(what: &str, runs: &[R]) {
        let (ovc, ovc_effort) = merged_bytes::<R, Ovc>(runs);
        let (plain, plain_effort) = merged_bytes::<R, PrefixThenKey>(runs);
        assert_eq!(ovc, plain, "{what}: policies diverged");
        // Same tree, same winners: the policies differ only in how many
        // key bytes each comparison touches.
        assert_eq!(ovc_effort.compares, plain_effort.compares, "{what}");
    }

    #[test]
    fn both_policies_merge_identically_on_every_corpus() {
        policies_agree("datamation", &fixed_runs(1_200, &even(1_200, 150)));
        for corpus in TextCorpus::ALL {
            policies_agree(corpus.name(), &corpus_runs(corpus, 600, &even(600, 140)));
        }
    }

    #[test]
    fn ovc_saves_key_bytes_on_shared_prefixes_in_both_layouts() {
        // Keys share 6 leading bytes: whole-key compares burn through them
        // every time; OVC codes them away.
        let (data, _) = generate(GenConfig {
            records: 4_000,
            seed: 0x0FC,
            dist: KeyDistribution::CommonPrefix { shared: 6 },
        });
        let bounds: Vec<usize> = (0..=4_000).map(|i| i * RECORD_LEN).collect();
        let fixed: Vec<SortedRun> = cut_runs(&data, &bounds, &even(4_000, 250));
        let (_, ovc) = merged_bytes::<_, Ovc>(&fixed);
        let (_, plain) = merged_bytes::<_, PrefixThenKey>(&fixed);
        assert!(
            ovc.key_bytes * 2 < plain.key_bytes,
            "ovc {ovc:?} vs plain {plain:?}"
        );

        let corpus = TextCorpus::SharedMegaPrefix {
            prefix: 48,
            suffix: 8,
        };
        // The number DESIGN.md quotes (~97% fewer key bytes over 8 runs of
        // 48-byte-shared-prefix keys) is a count, so it is pinned here: the
        // same compares, at most 5% of the bytes.
        let strings = corpus_runs(corpus, 2_000, &even(2_000, 250));
        let (_, ovc) = merged_bytes::<_, Ovc>(&strings);
        let (_, plain) = merged_bytes::<_, PrefixThenKey>(&strings);
        assert_eq!(ovc.compares, plain.compares);
        assert!(
            ovc.key_bytes * 20 <= plain.key_bytes,
            "ovc {ovc:?} vs plain {plain:?}"
        );
    }

    #[test]
    fn paper_claim_random_binary_keys_gain_little() {
        // §4: "For binary data … offset value coding will not beat
        // AlphaSort's simpler key-prefix sort." Tournament rivals are close
        // in key space, so with uniform random keys a whole-key compare
        // still stops within the first two byte pairs — and the bytes OVC
        // spends re-coding offsets leave it nothing to save.
        let (data, _) = generate(GenConfig::datamation(4_000, 0x0FC));
        let bounds: Vec<usize> = (0..=4_000).map(|i| i * RECORD_LEN).collect();
        let runs: Vec<SortedRun> = cut_runs(&data, &bounds, &even(4_000, 250));
        let (_, ovc) = merged_bytes::<_, Ovc>(&runs);
        let (_, plain) = merged_bytes::<_, PrefixThenKey>(&runs);
        let plain_per = plain.key_bytes as f64 / plain.compares as f64;
        assert!(plain_per < 4.0, "plain per-compare bytes {plain_per}");
        assert!(
            ovc.key_bytes * 2 > plain.key_bytes,
            "ovc {ovc:?} vs plain {plain:?}"
        );
    }

    #[test]
    fn prefix_then_key_counts_what_a_bytewise_scan_examines() {
        // The integer prefix decides in one compare, but the effort counter
        // stays comparable with OVC's: both sides of every byte pair through
        // the first difference, stopping where the shorter key ends.
        let cases: [(&[u8], &[u8], u64); 6] = [
            (b"abc", b"abd", 6),
            (b"ab", b"abc", 4),
            (b"", b"zzz", 0),
            (b"abcdefghij", b"abcdefghiz", 20),
            (b"abcdefgh", b"abcdefghZ", 16),
            (b"same", b"same", 8),
        ];
        for (a, b, want) in cases {
            // Two one-record runs: building the tree is exactly one compare.
            let runs: Vec<VarRun> = [a, b]
                .iter()
                .map(|k| VarRun::from_frames(alphasort_dmgen::build_var_record(k, b"")).unwrap())
                .collect();
            let (heads, effort) = (RunCursors::new(&runs, None), MergeEffort::default());
            let m = Merger::<_, PrefixThenKey, _>::new(heads, effort);
            assert_eq!(m.winner(), Some(usize::from(a > b)), "{a:?} vs {b:?}");
            let counted = (m.effort.compares, m.effort.key_bytes);
            assert_eq!(counted, (1, want), "{a:?} vs {b:?}");
        }
    }
}
