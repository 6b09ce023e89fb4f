//! Variable-length run formation: framing, the prefix-entry sort, and the
//! per-run LCP table the OVC merge feeds on.
//!
//! The fixed layout cuts runs by byte stride; here a [`FrameCutter`]
//! reassembles length-prefixed frames across arbitrary chunk boundaries
//! (truncated trailing records are rejected with an attributed error), and
//! [`VarRun::from_frames`] sorts a run the AlphaSort way: *(key-prefix,
//! index)* entries built from the first key bytes — zero-padded big-endian,
//! so integer order is faithful wherever prefixes differ — with an overflow
//! path to the full key for long or tied keys, and arrival index last so
//! the permutation is unique (which is what makes every driver
//! configuration byte-identical to stable sort).
//!
//! Formation also precomputes `lcp_prev[p]` = longest common prefix of the
//! keys at sorted positions `p-1` and `p`. During an OVC merge the record
//! after an emitted winner codes against exactly its in-run predecessor, so
//! the successor's offset-value code is a table lookup instead of a rescan.

use std::collections::VecDeque;
use std::io;

use alphasort_dmgen::{parse_var_record, VarFrameError, VAR_HEADER_LEN};

use crate::driver::RecoveredRun;
use crate::entry::{checked_run_len, key_prefix_u64, RecordLayout};
use crate::kernel::quicksort_by;
use crate::layout::{span_past_input, Cut, LayoutRun, RunCutter};
use crate::merge::Ovc;

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
    /// Parse `buf` (whole frames) and sort it.
    pub fn from_frames(buf: Vec<u8>) -> io::Result<VarRun> {
        checked_run_len(buf.len(), "VarRun frame buffer bytes");
        // Count first, then size the descriptor array exactly. Formation
        // overlaps input, so halves discarded by a doubling `Vec` would sit
        // between the long-lived run buffers: +4% peak RSS on 1M URL
        // records under glibc malloc, for a header walk of well under 1%.
        let mut count = 0usize;
        let mut off = 0usize;
        while off < buf.len() {
            off += parse_var_record(&buf[off..], off as u64)
                .map_err(frame_err)?
                .len();
            count += 1;
        }
        let mut descs = Vec::with_capacity(count);
        let mut off = 0usize;
        while off < buf.len() {
            let r = parse_var_record(&buf[off..], off as u64).map_err(frame_err)?;
            let body_off = off + VAR_HEADER_LEN;
            let key = r.key();
            let key_off = body_off + (key.as_ptr() as usize - r.body().as_ptr() as usize);
            descs.push(RecDesc {
                off: off as u32,
                len: r.len() as u32,
                key_off: key_off as u32,
                key_len: key.len() as u32,
            });
            off += r.len();
        }
        checked_run_len(descs.len(), "VarRun::from_frames");

        let key_of = |d: &RecDesc| &buf[d.key_off as usize..(d.key_off + d.key_len) as usize];
        // (key-prefix, arrival index) entries; the comparator overflows to
        // the full key only on prefix ties (short or shared-prefix keys),
        // then to arrival order — the unique stable permutation.
        let mut entries: Vec<(u64, u32)> = descs
            .iter()
            .enumerate()
            .map(|(i, d)| (key_prefix_u64(key_of(d)), i as u32))
            .collect();
        quicksort_by(&mut entries, |a, b| {
            if a.0 != b.0 {
                a.0 < b.0
            } else {
                let (ka, kb) = (key_of(&descs[a.1 as usize]), key_of(&descs[b.1 as usize]));
                (ka, a.1) < (kb, b.1)
            }
        });
        let order: Vec<u32> = entries.into_iter().map(|(_, i)| i).collect();

        let mut lcp_prev = vec![0u32; order.len()];
        for p in 1..order.len() {
            let ka = key_of(&descs[order[p - 1] as usize]);
            let kb = key_of(&descs[order[p] as usize]);
            lcp_prev[p] = lcp(ka, kb) as u32;
        }

        Ok(VarRun {
            buf,
            descs,
            order,
            lcp_prev,
        })
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

    fn form(buf: Vec<u8>) -> Self {
        VarRun::from_frames(buf).expect("the cutter hands over whole, validated frames")
    }

    fn len(&self) -> usize {
        VarRun::len(self)
    }

    fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    #[inline]
    fn key_at(&self, pos: usize) -> &[u8] {
        let d = self.desc_at(pos);
        &self.buf[d.key_off as usize..(d.key_off + d.key_len) as usize]
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
/// `pending` until whole.
pub struct FrameCutter {
    run_records: usize,
    pending: Vec<u8>,
    /// Absolute input offset of `pending[0]` (error attribution).
    abs: u64,
    cur: Vec<u8>,
    cur_records: usize,
    /// Absolute record index within the input.
    abs_rec: u64,
    skip: VecDeque<RecoveredRun>,
}

impl RunCutter for FrameCutter {
    /// Run buffers grow frame by frame; nothing is reserved ahead.
    fn new(run_records: usize, _input_bytes: Option<u64>, skip: Vec<RecoveredRun>) -> Self {
        FrameCutter {
            run_records,
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
            let frame = &self.pending[start..start + frame.len];
            start += frame.len();
            self.abs_rec += 1;
            if let Some(r) = self.skip.front().filter(|r| self.abs_rec > r.start_record) {
                // Inside a recovered span: read past it, sort nothing.
                if self.abs_rec >= r.start_record.saturating_add(r.records) {
                    out.push(Cut::Skipped(*r));
                    self.skip.pop_front();
                }
                continue;
            }
            self.cur.extend_from_slice(frame);
            self.cur_records += 1;
            let at_span = self
                .skip
                .front()
                .is_some_and(|r| r.start_record == self.abs_rec);
            if self.cur_records == self.run_records || at_span {
                out.push(Cut::Run(std::mem::take(&mut self.cur)));
                self.cur_records = 0;
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
            out.push(Cut::Run(std::mem::take(&mut self.cur)));
            self.cur_records = 0;
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
    use alphasort_dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};

    fn corpus_buf(corpus: TextCorpus, n: u64, seed: u64) -> Vec<u8> {
        generate_varlen(VarGenConfig {
            records: n,
            seed,
            corpus,
        })
    }

    #[test]
    fn cutter_reassembles_frames_across_ragged_chunks() {
        let buf = corpus_buf(TextCorpus::Urls, 300, 1);
        for chunk in [1usize, 7, 64, 1000, buf.len()] {
            let mut cutter = FrameCutter::new(1, None, Vec::new());
            let mut cuts = Vec::new();
            for c in buf.chunks(chunk) {
                cutter.push(c, &mut cuts).unwrap();
            }
            cutter.finish(&mut cuts).unwrap();
            let frames: Vec<u8> = cuts
                .iter()
                .flat_map(|c| match c {
                    Cut::Run(frame) => frame.clone(),
                    Cut::Skipped(_) => panic!("nothing to skip"),
                })
                .collect();
            assert_eq!((cuts.len(), &frames), (300, &buf), "chunk {chunk}");
        }
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

    #[test]
    fn run_sort_matches_stable_sort_on_every_corpus() {
        for corpus in TextCorpus::ALL {
            let buf = corpus_buf(corpus, 400, 0xA1);
            let run = VarRun::from_frames(buf.clone()).unwrap();
            let mut expect: Vec<Vec<u8>> = var_records_of(&buf)
                .unwrap()
                .iter()
                .map(|r| r.frame().to_vec())
                .collect();
            expect.sort_by(|a, b| {
                let (ra, rb) = (
                    parse_var_record(a, 0).unwrap(),
                    parse_var_record(b, 0).unwrap(),
                );
                ra.key().cmp(rb.key())
            });
            let got: Vec<Vec<u8>> = (0..run.len()).map(|p| run.frame_at(p).to_vec()).collect();
            assert_eq!(got, expect, "{}", corpus.name());
        }
    }

    #[test]
    fn lcp_table_is_exact() {
        for corpus in [
            TextCorpus::SharedMegaPrefix {
                prefix: 20,
                suffix: 4,
            },
            TextCorpus::PrefixChain { max_len: 24 },
            TextCorpus::Urls,
        ] {
            let run = VarRun::from_frames(corpus_buf(corpus, 300, 7)).unwrap();
            assert_eq!(run.lcp_with_prev(0), Some(0));
            for p in 1..run.len() {
                assert_eq!(
                    run.lcp_with_prev(p),
                    Some(lcp(run.key_at(p - 1), run.key_at(p)) as u32),
                    "{} pos {p}",
                    corpus.name()
                );
            }
        }
    }

    #[test]
    fn empty_run() {
        let run = VarRun::from_frames(Vec::new()).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.sorted_bytes(), Vec::<u8>::new());
    }
}
