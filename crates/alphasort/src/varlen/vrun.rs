//! Variable-length run formation: framing, descriptors, and the per-run
//! LCP table the OVC merge feeds on.
//!
//! The fixed layout cuts runs by byte stride; here a [`FrameCutter`]
//! reassembles and counts length-prefixed frames across arbitrary chunk
//! boundaries (truncated trailing records are rejected with an attributed
//! error). Formation walks the headers once, building a descriptor and a
//! depth-0 entry per record, and sorts the run with the same MSD string
//! sort as the fixed layout (`runform::msd_sort`): a shared
//! "https://" costs one pass, not a full-key compare per comparison.
//!
//! The var-len layout keeps what the sort's splits give as well:
//! `lcp_prev[p]` = longest common prefix of the keys at sorted positions
//! `p-1` and `p`. During an OVC merge the record after an emitted winner
//! codes against exactly its in-run predecessor, so the successor's
//! offset-value code is a table lookup instead of a rescan.

use std::collections::VecDeque;
use std::io;

use alphasort_dmgen::{parse_var_record, VarFrameError};

use crate::driver::RecoveredRun;
use crate::entry::{checked_run_len, RecordLayout, MAX_RUN_BYTES};
use crate::layout::{span_past_input, Cut, LayoutRun, RunCutter};
use crate::merge::Ovc;
use crate::runform::{entry, msd_sort};

/// Longest common prefix of two byte strings.
#[inline]
pub fn lcp(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

fn frame_err(e: VarFrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Descriptor of one record within a [`VarRun`]'s buffer, arrival order.
#[derive(Clone, Copy, Debug)]
struct RecDesc {
    /// Frame start within the buffer.
    off: u32,
    /// Whole frame length (header + body).
    len: u32,
    /// Absolute key start within the buffer.
    key_off: u32,
    /// Key length.
    key_len: u32,
}

impl RecDesc {
    #[inline]
    fn key<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.key_off as usize..(self.key_off + self.key_len) as usize]
    }
}

/// One sorted run of variable-length records: the raw frame buffer, a
/// descriptor per record, the sorted permutation, and the `lcp_prev` table.
pub struct VarRun {
    buf: Vec<u8>,
    descs: Vec<RecDesc>,
    /// `order[p]` = arrival index of the record at sorted position `p`.
    order: Vec<u32>,
    /// `lcp_prev[p]` = lcp of sorted keys `p-1` and `p` (`lcp_prev[0]` = 0).
    lcp_prev: Vec<u32>,
}

impl VarRun {
    /// Parse `buf` (whole frames) and sort it. A malformed frame, or a
    /// buffer past [`MAX_RUN_BYTES`], is `InvalidData`.
    pub fn from_frames(buf: Vec<u8>) -> io::Result<VarRun> {
        if buf.len() > MAX_RUN_BYTES {
            let what = format!("a {}-byte run exceeds MAX_RUN_BYTES", buf.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        let mut records = 0;
        let mut off = 0;
        while off < buf.len() {
            off += parse_var_record(&buf[off..], off as u64)
                .map_err(frame_err)?
                .len();
            records += 1;
        }
        Ok(<VarRun as LayoutRun>::form(buf, records))
    }

    /// Records in the run.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    #[inline]
    fn desc_at(&self, pos: usize) -> &RecDesc {
        &self.descs[self.order[pos] as usize]
    }

    /// The sorted frames, concatenated — what a scratch spill writes.
    pub fn sorted_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len());
        for p in 0..self.len() {
            out.extend_from_slice(self.frame_at(p));
        }
        out
    }
}

/// The var-len layout: length-prefixed frames cut by a re-framer, merged
/// on offset-value codes because string keys share long prefixes.
impl LayoutRun for VarRun {
    const LAYOUT: RecordLayout = RecordLayout::VarLen;
    type Cutter = FrameCutter;
    type Policy = Ovc;

    /// Trusts the cutter's validation and count: one header walk fills
    /// descriptors and entries sized exactly (a doubling `Vec`'s discarded
    /// halves would sit between run buffers: +4% peak RSS on 1M URLs).
    fn form(buf: Vec<u8>, records: usize) -> Self {
        checked_run_len(records, "VarRun formation");
        let mut descs = Vec::with_capacity(records);
        let mut entries = Vec::with_capacity(records);
        let mut off = 0;
        while off < buf.len() {
            let Ok(Some(f)) = RecordLayout::VarLen.frame_at(&buf[off..], off as u64) else {
                unreachable!("formation takes whole, validated frames");
            };
            let d = RecDesc {
                off: off as u32,
                len: f.len as u32,
                key_off: (off + f.key_off) as u32,
                key_len: f.key_len as u32,
            };
            entries.push(entry(d.key(&buf), 0, descs.len() as u32));
            descs.push(d);
            off += f.len;
        }
        let lcp_prev = msd_sort(&mut entries, |i| descs[i].key(&buf));
        let order = entries.iter().map(|&e| e as u32).collect();
        VarRun {
            buf,
            descs,
            order,
            lcp_prev,
        }
    }

    fn len(&self) -> usize {
        VarRun::len(self)
    }

    fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    #[inline]
    fn key_at(&self, pos: usize) -> &[u8] {
        self.desc_at(pos).key(&self.buf)
    }

    #[inline]
    fn frame_at(&self, pos: usize) -> &[u8] {
        let d = self.desc_at(pos);
        &self.buf[d.off as usize..(d.off + d.len) as usize]
    }

    /// The formation-time table: the merge's O(1) successor offset code.
    #[inline]
    fn lcp_with_prev(&self, pos: usize) -> Option<u32> {
        Some(self.lcp_prev[pos])
    }
}

/// Cuts a var-len stream into runs of `run_records` frames — the
/// counterpart of the fixed layout's byte stride, except a chunk boundary
/// can land anywhere inside a frame: frames split across chunks wait in
/// `pending` until whole. A run also ends before a frame would carry it
/// past `max_bytes` ([`MAX_RUN_BYTES`]; tests lower it).
pub struct FrameCutter {
    run_records: usize,
    max_bytes: usize,
    pending: Vec<u8>,
    /// Absolute input offset of `pending[0]` (error attribution).
    abs: u64,
    cur: Vec<u8>,
    cur_records: usize,
    /// Absolute record index within the input.
    abs_rec: u64,
    skip: VecDeque<RecoveredRun>,
}

impl FrameCutter {
    fn cut(&mut self, out: &mut Vec<Cut>) {
        let records = std::mem::take(&mut self.cur_records);
        out.push(Cut::Run(std::mem::take(&mut self.cur), records));
    }
}

impl RunCutter for FrameCutter {
    /// Run buffers grow frame by frame; nothing is reserved ahead.
    fn new(run_records: usize, _input_bytes: Option<u64>, skip: Vec<RecoveredRun>) -> Self {
        FrameCutter {
            run_records,
            max_bytes: MAX_RUN_BYTES,
            pending: Vec::new(),
            abs: 0,
            cur: Vec::new(),
            cur_records: 0,
            abs_rec: 0,
            skip: skip.into(),
        }
    }

    /// Structurally invalid headers (oversized body, key descriptor past
    /// the body) fail here, with the input offset in the message.
    fn push(&mut self, chunk: &[u8], out: &mut Vec<Cut>) -> io::Result<()> {
        self.pending.extend_from_slice(chunk);
        let mut start = 0usize;
        // `None`: not enough bytes for the next frame yet — wait for more.
        while let Some(frame) =
            RecordLayout::VarLen.frame_at(&self.pending[start..], self.abs + start as u64)?
        {
            let at = start;
            start += frame.len;
            self.abs_rec += 1;
            if let Some(r) = self.skip.front().filter(|r| self.abs_rec > r.start_record) {
                // Inside a recovered span: read past it, sort nothing.
                if self.abs_rec >= r.start_record.saturating_add(r.records) {
                    out.push(Cut::Skipped(*r));
                    self.skip.pop_front();
                }
                continue;
            }
            if self.cur_records > 0 && self.cur.len() + frame.len > self.max_bytes {
                self.cut(out);
            }
            self.cur.extend_from_slice(&self.pending[at..start]);
            self.cur_records += 1;
            let at_span = self
                .skip
                .front()
                .is_some_and(|r| r.start_record == self.abs_rec);
            if self.cur_records == self.run_records || at_span {
                self.cut(out);
            }
        }
        self.pending.drain(..start);
        self.abs += start as u64;
        Ok(())
    }

    /// Any buffered partial frame is a truncated trailing record — an
    /// attributed `InvalidData` error, never a silent drop.
    fn finish(&mut self, out: &mut Vec<Cut>) -> io::Result<()> {
        if !self.pending.is_empty() {
            let n = self.pending.len();
            let e = parse_var_record(&self.pending, self.abs).expect_err("a partial frame");
            let what = format!("input ends mid-record ({n} trailing bytes): {e}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        if self.cur_records > 0 {
            self.cut(out);
        }
        match self.skip.front() {
            Some(r) => Err(span_past_input(r, self.abs_rec, "records")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{
        build_var_record, generate_varlen, var_records_of, TextCorpus, VarGenConfig,
    };

    fn corpus_buf(corpus: TextCorpus, n: u64, seed: u64) -> Vec<u8> {
        generate_varlen(VarGenConfig {
            records: n,
            seed,
            corpus,
        })
    }

    /// Drain a cutter fed `buf` in `chunk`-byte pieces: (run, count) pairs.
    fn cut_all(mut cutter: FrameCutter, buf: &[u8], chunk: usize) -> Vec<(Vec<u8>, usize)> {
        let mut cuts = Vec::new();
        for c in buf.chunks(chunk) {
            cutter.push(c, &mut cuts).unwrap();
        }
        cutter.finish(&mut cuts).unwrap();
        cuts.into_iter()
            .map(|c| match c {
                Cut::Run(buf, records) => (buf, records),
                Cut::Skipped(_) => panic!("nothing to skip"),
            })
            .collect()
    }

    #[test]
    fn cutter_reassembles_frames_across_ragged_chunks() {
        let buf = corpus_buf(TextCorpus::Urls, 300, 1);
        for chunk in [1usize, 7, 64, 1000, buf.len()] {
            let runs = cut_all(FrameCutter::new(1, None, Vec::new()), &buf, chunk);
            assert_eq!(runs.len(), 300, "chunk {chunk}");
            assert!(runs.iter().all(|r| r.1 == 1), "chunk {chunk}");
            assert_eq!(joined(&runs), buf, "chunk {chunk}");
        }
    }

    fn joined(runs: &[(Vec<u8>, usize)]) -> Vec<u8> {
        runs.iter().flat_map(|r| r.0.clone()).collect()
    }

    #[test]
    fn cutter_ends_a_run_before_the_byte_ceiling() {
        // MAX_RUN_BYTES scaled down to four of the largest frames: a run
        // ends exactly when the next frame would carry it past the ceiling,
        // long before `run_records`, and every count is the frames it holds.
        let buf = corpus_buf(TextCorpus::Urls, 300, 3);
        let lens: Vec<usize> = var_records_of(&buf)
            .unwrap()
            .iter()
            .map(|r| r.len())
            .collect();
        let ceiling = 4 * lens.iter().max().unwrap();
        let mut cutter = FrameCutter::new(usize::MAX, None, Vec::new());
        cutter.max_bytes = ceiling;
        let runs = cut_all(cutter, &buf, 100);
        assert!(runs.len() > 1);
        let mut seen = 0;
        for (i, (run, records)) in runs.iter().enumerate() {
            assert_eq!(var_records_of(run).unwrap().len(), *records, "run {i}");
            seen += records;
            assert!(run.len() <= ceiling, "run {i}");
            if let Some(next) = lens.get(seen) {
                assert!(run.len() + next > ceiling, "run {i} ended early");
            }
        }
        assert_eq!((seen, joined(&runs)), (300, buf));
    }

    #[test]
    fn cutter_rejects_truncated_tail_with_offset() {
        let mut buf = corpus_buf(TextCorpus::LogLines, 10, 2);
        let cut = buf.len() - 3;
        buf.truncate(cut);
        let mut cutter = FrameCutter::new(100, None, Vec::new());
        cutter.push(&buf, &mut Vec::new()).unwrap();
        let err = cutter.finish(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("input ends mid-record"), "{err}");
    }

    #[test]
    fn cutter_rejects_corrupt_header_immediately() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes()); // key_off 9 > body 4
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        let mut cutter = FrameCutter::new(100, None, Vec::new());
        let err = cutter.push(&buf, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Formation against the definition, sharing no logic with it: `order`
    /// is `sort_by` on (key, arrival index) and `lcp_prev` the naive `lcp`
    /// of sorted neighbours — exactly, through both entry points.
    fn assert_matches_definition(buf: Vec<u8>, what: &str) {
        let keys: Vec<&[u8]> = var_records_of(&buf)
            .unwrap()
            .iter()
            .map(|r| r.key())
            .collect();
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by(|&a, &b| (keys[a as usize], a).cmp(&(keys[b as usize], b)));
        let mut lcp_prev = vec![0u32; order.len()];
        for p in 1..order.len() {
            lcp_prev[p] = lcp(keys[order[p - 1] as usize], keys[order[p] as usize]) as u32;
        }
        let formed = <VarRun as LayoutRun>::form(buf.clone(), keys.len());
        let run = VarRun::from_frames(buf.clone()).unwrap();
        for run in [formed, run] {
            assert_eq!(run.order, order, "{what}: order");
            assert_eq!(run.lcp_prev, lcp_prev, "{what}: lcp_prev");
        }
    }

    fn frames_of(keys: &[Vec<u8>]) -> Vec<u8> {
        keys.iter().flat_map(|k| build_var_record(k, b"")).collect()
    }

    #[test]
    fn formation_is_the_definition_on_every_corpus_and_size() {
        for corpus in TextCorpus::ALL {
            for n in [0u64, 1, 2, 7, 8, 9, 15, 16, 17, 100, 4096] {
                let buf = corpus_buf(corpus, n, 0xA1 ^ n);
                assert_matches_definition(buf, &format!("{} n={n}", corpus.name()));
            }
        }
    }

    #[test]
    fn formation_is_the_definition_where_the_clamp_decides() {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        // Embedded and trailing 0x00: zero padding ties these caches.
        for k in [
            &b"ab"[..],
            b"ab\0",
            b"ab\0\0\0\0\0\0",
            b"ab\0\0\0\0\0\0\0",
            b"a\0b",
            b"a\0",
            b"\0",
            b"",
            b"\0\0",
        ] {
            keys.push(k.to_vec());
        }
        // Lengths of exactly 8 and 16.
        for k in [
            &b"abcdefgh"[..],
            b"abcdefgg",
            b"abcdefghabcdefgh",
            b"abcdefghabcdefgg",
        ] {
            keys.push(k.to_vec());
        }
        // Shared prefixes of 7, 8, 9, 16 and 17 bytes, with and without tails.
        let base = b"0123456789abcdefghij";
        for n in [7, 8, 9, 16, 17] {
            for tail in [&b"x"[..], b"a", b"", b"\0"] {
                keys.push([&base[..n], tail].concat());
            }
        }
        // Duplicates interleaved with their extensions.
        for _ in 0..3 {
            for k in [&b"dup"[..], b"dupe", b"dup\0", b"dup", b"dupe\0\0\0\0\0"] {
                keys.push(k.to_vec());
            }
        }
        assert_matches_definition(frames_of(&keys), "table");
        keys.reverse();
        assert_matches_definition(frames_of(&keys), "table reversed");
    }

    #[test]
    fn empty_run() {
        let run = VarRun::from_frames(Vec::new()).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.sorted_bytes(), Vec::<u8>::new());
    }
}
