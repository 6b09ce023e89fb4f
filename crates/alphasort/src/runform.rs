//! Datamation run formation: QuickSort over (key-prefix, pointer) entries,
//! behind one distribution pass on the leading key byte.
//!
//! §4 picks the representation — "(key-prefix, pointer) pairs", integer
//! compares with a full-key fall-through on ties — and footnotes the
//! refinement this module also applies: a distributive partition into 256
//! buckets ahead of the QuickSort (DPG, Cooperman et al.). One counting
//! pass over `prefix >> 56` scatters the entries into buckets that are
//! already in relative order, so a 100 k-entry QuickSort becomes 256
//! cache-resident ones: 35–69% faster at the layer wherever the leading
//! byte discriminates and a tie where it does not (DESIGN.md, "Run
//! formation", has the table). The bucket key is the comparator's own most
//! significant byte, so the sorted permutation is the one a single
//! QuickSort under [`prefix_entry_less`] would produce.
//!
//! The other §4 representations (record, pointer, key, codeword) are
//! exhibits the paper measures to justify this choice; they live with
//! their only callers in `alphasort_bench::variants`.

use std::collections::VecDeque;
use std::io;

use alphasort_dmgen::{records_of, Record, RECORD_LEN};

use crate::driver::RecoveredRun;
use crate::entry::{PrefixEntry, RecordLayout};
use crate::kernel::quicksort_by;
use crate::layout::{span_past_input, Cut, LayoutRun, RunCutter};
use crate::merge::PrefixThenKey;

/// A sorted run: the record bytes plus the order in which to read them.
///
/// Key ties break on the record's position within the run, and the merge
/// breaks cross-run ties on run number — so the full sort is **stable**.
pub struct SortedRun {
    buf: Vec<u8>,
    /// The sorted index permutation.
    order: Vec<u32>,
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

    fn form(buf: Vec<u8>, _records: usize) -> Self {
        form_run(buf)
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
}

/// Cuts fixed-stride input into runs of `run_records * RECORD_LEN` bytes.
pub struct StrideCutter {
    run_bytes: usize,
    /// Capacity a fresh run buffer starts with: a whole run, or the whole
    /// input when that is smaller — what the input can fill, never what the
    /// configuration could hold.
    reserve: usize,
    cur: Vec<u8>,
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
                let full = std::mem::replace(&mut self.cur, Vec::with_capacity(self.reserve));
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
}

/// The order run formation sorts into: prefix, full key on prefix ties —
/// §4's degenerate-case fall-through — then arrival index, which makes the
/// order total and the sorted permutation unique.
#[inline]
pub fn prefix_entry_less(records: &[Record], a: &PrefixEntry, b: &PrefixEntry) -> bool {
    if a.prefix != b.prefix {
        a.prefix < b.prefix
    } else {
        (&records[a.idx as usize].key, a.idx) < (&records[b.idx as usize].key, b.idx)
    }
}

/// Form a sorted run from a buffer of whole records: extract the
/// (prefix, index) entries, scatter them into 256 buckets on the leading
/// key byte, QuickSort each bucket under [`prefix_entry_less`].
///
/// # Panics
/// If `buf.len()` is not a multiple of the record length.
pub fn form_run(buf: Vec<u8>) -> SortedRun {
    let records = records_of(&buf);
    let entries = PrefixEntry::extract(records);
    let bucket = |e: &PrefixEntry| (e.prefix >> 56) as usize;
    // starts[b]..starts[b + 1] is bucket b's slice of the scattered array.
    let mut starts = [0usize; 257];
    for e in &entries {
        starts[bucket(e) + 1] += 1;
    }
    for b in 0..256 {
        starts[b + 1] += starts[b];
    }
    let mut scattered = vec![PrefixEntry { prefix: 0, idx: 0 }; entries.len()];
    let mut cursor = starts;
    for e in entries {
        let b = bucket(&e);
        scattered[cursor[b]] = e;
        cursor[b] += 1;
    }
    for b in 0..256 {
        quicksort_by(&mut scattered[starts[b]..starts[b + 1]], |x, y| {
            prefix_entry_less(records, x, y)
        });
    }
    let order = scattered.into_iter().map(|e| e.idx).collect();
    SortedRun { buf, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, KEY_LEN};

    /// The reference shares no logic with [`form_run`]: the standard
    /// library's sort on (full key, arrival index). That order is total,
    /// so the permutation is unique and the comparison exact.
    fn assert_matches_std_sort(data: Vec<u8>, what: &str) {
        let records = records_of(&data);
        let mut want: Vec<u32> = (0..records.len() as u32).collect();
        want.sort_by(|&a, &b| (&records[a as usize].key, a).cmp(&(&records[b as usize].key, b)));
        let run = form_run(data.clone());
        assert_eq!(run.order, want, "{what}");
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
}
