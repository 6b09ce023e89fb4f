//! Run formation for both layouts: one MSD string sort over 8-byte
//! super-characters (Bingmann, "Scalable String and Suffix Sorting").
//!
//! §4 sorts *(key-prefix, pointer)* pairs and compares full keys only when
//! two prefixes tie. `msd_sort` settles a tie once per tied group instead
//! of once per comparison, by re-caching the group 8 bytes deeper, so no
//! key byte is compared twice: a 10-byte Datamation key is one
//! `sort_unstable` at depth 0 plus a re-sort at depth 8 for the groups that
//! share 8 bytes. Arrival index last makes the permutation unique, so every
//! driver configuration is byte-identical to a stable sort. Each layout
//! keeps one table of the sort's work beside the order, the one its merge
//! reads ([`SortTable`]): Datamation runs keep the depth-0 key prefixes, so
//! the tournament compares §7's key-prefixes without touching a record;
//! var-len runs keep the `lcp_prev` the splits yield, for their OVC merge.
//! The QuickSort over §4's other representations is an exhibit, in
//! `alphasort_bench::variants`.

use std::collections::VecDeque;
use std::io;

use alphasort_dmgen::{records_of, Record, RECORD_LEN};

use crate::driver::RecoveredRun;
use crate::entry::{checked_run_len, key_prefix_u64, RecordLayout};
use crate::layout::{span_past_input, Cut, LayoutRun, RunCutter};
use crate::merge::PrefixThenKey;

/// A sorted run: the record bytes, the order in which to read them, and
/// each sorted position's key prefix — 12 bytes per 100-byte record.
///
/// Key ties break on the record's position within the run, and the merge
/// breaks cross-run ties on run number — so the full sort is **stable**.
pub struct SortedRun {
    buf: Vec<u8>,
    /// The sorted index permutation.
    order: Vec<u32>,
    /// `prefix[p]` = `key_prefix_u64` of the key at sorted position `p`:
    /// the tournament's compare, read without a cache miss on the record.
    prefix: Vec<u64>,
}

impl SortedRun {
    /// Number of records in the run.
    pub fn len(&self) -> usize {
        self.buf.len() / RECORD_LEN
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The run's records (in *storage* order, not sorted order).
    pub fn records(&self) -> &[Record] {
        records_of(&self.buf)
    }

    /// The record at sorted position `pos`.
    #[inline]
    pub fn record_at(&self, pos: usize) -> &Record {
        &self.records()[self.order[pos] as usize]
    }

    /// Iterate records in sorted order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = &Record> + '_ {
        (0..self.len()).map(move |p| self.record_at(p))
    }
}

/// The Datamation layout: 100-byte records cut by byte stride, merged on
/// (key-prefix, full key) — §4: offset-value coding "will not beat
/// AlphaSort's simpler key-prefix sort" on binary keys.
impl LayoutRun for SortedRun {
    const LAYOUT: RecordLayout = RecordLayout::Datamation;
    type Cutter = StrideCutter;
    type Policy = PrefixThenKey;

    /// Depth-0 entries from the 10-byte keys, one `msd_sort`, which hands
    /// back the depth-0 prefixes in sorted order; no `lcp_prev` is kept, as
    /// `PrefixThenKey` never reads one.
    fn form(buf: Vec<u8>, _records: usize) -> Self {
        let records = records_of(&buf);
        let mut entries: Vec<Entry> = (0..checked_run_len(records.len(), "SortedRun formation"))
            .map(|i| entry(&records[i as usize].key, 0, i))
            .collect();
        let prefix = msd_sort(&mut entries, |i| &records[i].key);
        let order = entries.iter().map(|&e| e as u32).collect();
        SortedRun { buf, order, prefix }
    }

    fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    fn len(&self) -> usize {
        SortedRun::len(self)
    }

    fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    #[inline]
    fn key_at(&self, pos: usize) -> &[u8] {
        &self.record_at(pos).key
    }

    #[inline]
    fn frame_at(&self, pos: usize) -> &[u8] {
        self.record_at(pos).as_bytes()
    }

    /// The formation-time table: no record is read.
    #[inline]
    fn prefix_at(&self, pos: usize) -> u64 {
        self.prefix[pos]
    }
}

/// Cuts fixed-stride input into runs of `run_records * RECORD_LEN` bytes.
pub struct StrideCutter {
    run_bytes: usize,
    /// Capacity a fresh run buffer starts with: a whole run, or the whole
    /// input when that is smaller — what the input can fill, never what the
    /// configuration could hold.
    reserve: usize,
    cur: Vec<u8>,
    /// An empty buffer handed back by [`RunCutter::recycle`], taken by the
    /// next cut.
    spare: Option<Vec<u8>>,
    /// Absolute byte position within the input.
    abs: u64,
    skip: VecDeque<RecoveredRun>,
}

/// Byte position of record index `rec`. Saturates: a span start no input
/// can reach is reported as "extends past the input", never wrapped.
fn byte_pos(rec: u64) -> u64 {
    rec.saturating_mul(RECORD_LEN as u64)
}

impl RunCutter for StrideCutter {
    fn new(run_records: usize, input_bytes: Option<u64>, skip: Vec<RecoveredRun>) -> Self {
        let run_bytes = run_records.saturating_mul(RECORD_LEN);
        // Input of unknown size reserves nothing and grows as it arrives.
        let reserve = input_bytes.map_or(0, |b| run_bytes.min(b.try_into().unwrap_or(usize::MAX)));
        StrideCutter {
            run_bytes,
            reserve,
            cur: Vec::with_capacity(reserve),
            spare: None,
            abs: 0,
            skip: skip.into(),
        }
    }

    fn push(&mut self, chunk: &[u8], out: &mut Vec<Cut>) -> io::Result<()> {
        let mut off = 0;
        while off < chunk.len() {
            let left = chunk.len() - off;
            let mut until_span = u64::MAX;
            if let Some(r) = self.skip.front() {
                let span_end = byte_pos(r.start_record.saturating_add(r.records));
                if self.abs >= byte_pos(r.start_record) {
                    // Inside a recovered span: read past it, sort nothing.
                    let skipped = span_end.saturating_sub(self.abs).min(left as u64);
                    off += skipped as usize;
                    self.abs += skipped;
                    if self.abs >= span_end {
                        out.push(Cut::Skipped(*r));
                        self.skip.pop_front();
                    }
                    continue;
                }
                until_span = byte_pos(r.start_record) - self.abs;
            }
            let take = (self.run_bytes - self.cur.len())
                .min(left)
                .min(until_span.min(usize::MAX as u64) as usize);
            self.cur.extend_from_slice(&chunk[off..off + take]);
            off += take;
            self.abs += take as u64;
            if self.cur.len() == self.run_bytes || take as u64 == until_span {
                let next = self
                    .spare
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(self.reserve));
                let full = std::mem::replace(&mut self.cur, next);
                let records = full.len() / RECORD_LEN;
                out.push(Cut::Run(full, records));
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Cut>) -> io::Result<()> {
        if !self.cur.len().is_multiple_of(RECORD_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "input ends mid-record ({} trailing bytes)",
                    self.cur.len() % RECORD_LEN
                ),
            ));
        }
        if !self.cur.is_empty() {
            let records = self.cur.len() / RECORD_LEN;
            out.push(Cut::Run(std::mem::take(&mut self.cur), records));
        }
        match self.skip.front() {
            Some(r) => Err(span_past_input(r, self.abs, "bytes")),
            None => Ok(()),
        }
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.spare = Some(buf);
    }
}

/// Form a sorted run from a buffer of whole records — the Datamation
/// twin of `VarRun::from_frames`.
///
/// # Panics
/// If `buf.len()` is not a multiple of the record length.
pub fn form_run(buf: Vec<u8>) -> SortedRun {
    let records = buf.len() / RECORD_LEN;
    SortedRun::form(buf, records)
}

/// A sort entry at depth `d`, one integer compare: key bytes `d..d + 8`
/// zero-padded big-endian in the top 64 bits, then the clamp
/// `min(len − d, 8)`, then the arrival index in the low 32 (a `u128` sorts
/// faster than a `(u64, u64)` pair, which sorts twice as fast as a
/// 3-tuple). Padding ties `"ab"` with `"ab\0"`; the smaller clamp, the
/// strict prefix, sorts first.
pub(crate) type Entry = u128;

#[inline]
pub(crate) fn entry(key: &[u8], d: usize, idx: u32) -> Entry {
    let rest = &key[d..];
    let clamp = rest.len().min(8) as u128;
    (key_prefix_u64(rest) as u128) << 64 | clamp << 32 | idx as u128
}

/// What formation keeps of `msd_sort`'s work beside the order. Each layout
/// allocates only the table its merge reads: the depth-0 key prefixes
/// (`Vec<u64>`, Datamation) or `lcp_prev` (`Vec<u32>`, var-len). The hooks
/// a table does not use compile to nothing.
pub(crate) trait SortTable {
    /// The table for `n` entries, before the sort.
    fn for_len(n: usize) -> Self;
    /// Called once with the whole slice after the depth-0 sort, before any
    /// group re-caches deeper.
    fn depth0(&mut self, _sorted: &[Entry]) {}
    /// The keys at sorted positions `at` share `lcp` bytes with their
    /// predecessors.
    fn lcp(&mut self, _at: std::ops::Range<usize>, _lcp: u32) {}
}

/// `prefix[p]` = the depth-0 cache of sorted position `p`, which is
/// `key_prefix_u64` of its key. Deeper re-sorts only permute within groups
/// that share the depth-0 `(cache, clamp)`, so the value read before any
/// group re-caches stays right at every position; the final entries of a
/// tied group hold depth-8 caches instead.
impl SortTable for Vec<u64> {
    fn for_len(n: usize) -> Self {
        Vec::with_capacity(n)
    }

    fn depth0(&mut self, sorted: &[Entry]) {
        self.extend(sorted.iter().map(|&e| (e >> 64) as u64));
    }
}

/// `lcp_prev[p]` = lcp of the keys at sorted positions `p - 1` and `p`
/// (`lcp_prev[0]` = 0).
impl SortTable for Vec<u32> {
    fn for_len(n: usize) -> Self {
        vec![0; n]
    }

    #[inline]
    fn lcp(&mut self, at: std::ops::Range<usize>, lcp: u32) {
        self[at].fill(lcp);
    }
}

/// MSD string sort of depth-0 `entries` (arrival order); `key(i)` is record
/// `i`'s key. Returns the table `T` filled as the sort goes: `lcp_prev` is
/// written as groups split — at a boundary, `d` + the bytes both caches
/// share up to the shorter clamp (taken before the group below re-caches);
/// inside a group of identical keys, `d` + clamp. Pending groups sit on a
/// heap stack, never the call stack.
pub(crate) fn msd_sort<'k, T: SortTable>(
    entries: &mut [Entry],
    key: impl Fn(usize) -> &'k [u8],
) -> T {
    let mut table = T::for_len(entries.len());
    let mut groups = vec![(0, entries.len(), 0)];
    while let Some((lo, hi, d)) = groups.pop() {
        if d > 0 {
            for e in &mut entries[lo..hi] {
                let idx = *e as u32;
                *e = entry(key(idx as usize), d, idx);
            }
        }
        entries[lo..hi].sort_unstable();
        if d == 0 {
            table.depth0(&entries[lo..hi]);
        }
        let mut i = lo;
        while i < hi {
            // (cache, clamp) with the index shifted out: what a group shares.
            let group = entries[i] >> 32;
            let same = |e: &&Entry| **e >> 32 == group;
            let j = i + 1 + entries[i + 1..hi].iter().take_while(same).count();
            let (cache, clamp) = ((group >> 32) as u64, group as u32);
            if i > lo {
                let prev = entries[i - 1] >> 32;
                let shared = ((prev >> 32) as u64 ^ cache).leading_zeros() / 8;
                table.lcp(i..i + 1, d as u32 + shared.min(prev as u32).min(clamp));
            }
            if clamp < 8 {
                // Every key ends within these bytes: identical keys, which
                // the index tie-break left in arrival order.
                table.lcp(i + 1..j, d as u32 + clamp);
            } else if j - i > 1 {
                groups.push((i, j, d + 8));
            }
            i = j;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{Heads, RunCursors};
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, KEY_LEN};

    /// The reference shares no logic with [`form_run`]: the standard
    /// library's sort on (full key, arrival index). That order is total,
    /// so the permutation is unique and the comparison exact. The prefix
    /// table must be each sorted key's `key_prefix_u64`, read directly and
    /// through the tournament's cursors over windows that start and end
    /// mid-run, as a partitioned merge's ranges do. Keys that tie on 8
    /// bytes (the `DupHeavy` and shared-prefix cells) re-cache at depth 8,
    /// so a table taken after that fails here.
    fn assert_matches_std_sort(data: Vec<u8>, what: &str) {
        let records = records_of(&data);
        let mut want: Vec<u32> = (0..records.len() as u32).collect();
        want.sort_by(|&a, &b| (&records[a as usize].key, a).cmp(&(&records[b as usize].key, b)));
        let run = form_run(data.clone());
        assert_eq!(run.order, want, "{what}");
        let prefixes: Vec<u64> = want
            .iter()
            .map(|&i| key_prefix_u64(&records[i as usize].key))
            .collect();
        assert_eq!(run.prefix, prefixes, "{what}: prefix table");
        let n = run.len() as u32;
        let runs = [run];
        for bounds in [(0, n), (n / 3, n - n / 4), (n / 2, n / 2)] {
            let mut heads = RunCursors::new(&runs, Some(&[bounds]));
            for p in bounds.0..bounds.1 {
                let at = format!("{what}: window {bounds:?} at {p}");
                assert_eq!(heads.prefix(0), prefixes[p as usize], "{at}");
                heads.advance(0).unwrap();
            }
            assert!(!heads.is_live(0), "{what}");
        }
    }

    /// `n` records whose keys are `key(i)`, payload zero.
    fn records_with_keys(n: usize, key: impl Fn(usize) -> [u8; KEY_LEN]) -> Vec<u8> {
        let mut data = vec![0u8; n * RECORD_LEN];
        for (i, rec) in data.chunks_mut(RECORD_LEN).enumerate() {
            rec[..KEY_LEN].copy_from_slice(&key(i));
        }
        data
    }

    /// A well-mixed key tail, so bucket contents arrive unsorted.
    fn scrambled(i: usize) -> [u8; 8] {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes()
    }

    #[test]
    fn matches_std_stable_sort_on_every_distribution_and_size() {
        // Sizes straddle empty, the insertion cutoff and bucket skew.
        for (name, dist) in KeyDistribution::STRESS {
            for records in [0u64, 1, 2, 15, 16, 17, 24, 25, 100, 1_000, 4_096] {
                let (data, _) = generate(GenConfig {
                    records,
                    seed: 0xF0221 ^ records,
                    dist,
                });
                assert_matches_std_sort(data, &format!("{name}, n={records}"));
            }
        }
    }

    #[test]
    fn datamation_runs_keep_order_and_prefixes_only() {
        // 12 bytes per record resident: no `lcp_prev` beside the two tables.
        assert_eq!(
            std::mem::size_of::<SortedRun>(),
            3 * std::mem::size_of::<Vec<u8>>()
        );
    }

    #[test]
    fn scatter_edges_match_std_stable_sort() {
        // Every key in one bucket: a shared leading byte over mixed tails.
        let one_bucket = records_with_keys(700, |i| {
            let mut k = [0x41; KEY_LEN];
            k[1..9].copy_from_slice(&scrambled(i));
            k
        });
        assert_matches_std_sort(one_bucket, "shared leading byte");
        // Exactly one record in each of the 256 buckets, arriving shuffled.
        let one_each = records_with_keys(256, |i| {
            let mut k = [0; KEY_LEN];
            k[0] = (i * 167 % 256) as u8; // 167 is odd: a permutation of 0..256
            k
        });
        assert_matches_std_sort(one_each, "one record per bucket");
        // 255 empty buckets, then one holding everything.
        let last_bucket = records_with_keys(300, |i| {
            let mut k = [0xFF; KEY_LEN];
            k[2..10].copy_from_slice(&scrambled(i));
            k
        });
        assert_matches_std_sort(last_bucket, "only the last bucket");
    }

    #[test]
    fn deep_shared_prefix_sorts_on_a_small_stack() {
        // Frames cap keys at 65,535 bytes (a u16 length), so this drives
        // the sort itself: three 4 MiB-prefix keys are 512 Ki groups deep,
        // which must cost heap, not stack.
        let p = 4 << 20;
        let keys: Vec<Vec<u8>> = [&b"b"[..], b"", b"a"]
            .iter()
            .map(|t| [&vec![0x61; p][..], t].concat())
            .collect();
        let sorted = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let mut entries: Vec<Entry> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| entry(k, 0, i as u32))
                    .collect();
                let lcp_prev: Vec<u32> = msd_sort(&mut entries, |i| &keys[i]);
                let order: Vec<u32> = entries.iter().map(|&e| e as u32).collect();
                (order, lcp_prev)
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(sorted, (vec![1, 2, 0], vec![0, p as u32, p as u32]));
    }

    #[test]
    fn cutter_reserves_what_the_input_can_fill() {
        // A run size far beyond the input is a size, not a reservation —
        // with or without a size hint to bound it by.
        for hint in [Some(200), None] {
            let mut cutter = StrideCutter::new(usize::MAX, hint, Vec::new());
            assert!(cutter.cur.capacity() <= 200, "{hint:?}");
            let mut cuts = Vec::new();
            cutter.push(&[7u8; 200], &mut cuts).unwrap();
            cutter.finish(&mut cuts).unwrap();
            assert!(matches!(&cuts[..], [Cut::Run(run, 2)] if run.len() == 200));
        }
    }

    #[test]
    fn cutter_fills_a_recycled_buffer() {
        // A spent run handed back is the buffer of the cut after next (the
        // next one was taken when the spent run was cut): the same
        // allocation, holding only the new records.
        let mut cutter = StrideCutter::new(2, None, Vec::new());
        let mut cuts = Vec::new();
        cutter.push(&[1u8; 200], &mut cuts).unwrap();
        let Some(Cut::Run(first, 2)) = cuts.pop() else {
            panic!("one run of two records");
        };
        let run = form_run(first);
        let at = run.buf.as_ptr();
        cutter.recycle(run.into_buf());
        cutter.push(&[2u8; 200], &mut cuts).unwrap();
        cutter.push(&[3u8; 100], &mut cuts).unwrap();
        cutter.finish(&mut cuts).unwrap();
        let [Cut::Run(second, 2), Cut::Run(third, 1)] = &cuts[..] else {
            panic!("two more runs");
        };
        assert_eq!(
            (&second[..], &third[..]),
            (&[2u8; 200][..], &[3u8; 100][..])
        );
        assert_eq!(third.as_ptr(), at);
    }
}
