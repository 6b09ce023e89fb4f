//! Variable-length run formation: descriptors, and the per-run LCP table
//! the OVC merge feeds on.
//!
//! The one [`crate::layout::RunCutter`] frames, validates and counts the
//! length-prefixed records of each run, across arbitrary chunk boundaries.
//! Formation walks the headers once more, building a descriptor and a
//! depth-0 entry per record, and sorts the run with the same MSD string
//! sort as the fixed layout (`runform::msd_sort`): a shared
//! "https://" costs one pass, not a full-key compare per comparison.
//!
//! The var-len layout keeps what the sort's splits give as well:
//! `lcp_prev[p]` = longest common prefix of the keys at sorted positions
//! `p-1` and `p`. During an OVC merge the record after an emitted winner
//! codes against exactly its in-run predecessor, so the successor's
//! offset-value code is a table lookup instead of a rescan.

use std::io;

use alphasort_dmgen::{parse_var_record, VarFrameError};

use crate::entry::{checked_run_len, RecordLayout, MAX_RUN_BYTES};
use crate::layout::LayoutRun;
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

/// The var-len layout: length-prefixed frames merged on offset-value
/// codes, because string keys share long prefixes.
impl LayoutRun for VarRun {
    const LAYOUT: RecordLayout = RecordLayout::VarLen;
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
        let lcp_prev: Vec<u32> = msd_sort(&mut entries, |i| descs[i].key(&buf));
        let order = entries.iter().map(|&e| e as u32).collect();
        VarRun {
            buf,
            descs,
            order,
            lcp_prev,
        }
    }

    fn into_buf(self) -> Vec<u8> {
        self.buf
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::key_prefix_u64;
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
            for (p, &i) in order.iter().enumerate() {
                let want = key_prefix_u64(keys[i as usize]);
                assert_eq!(run.prefix_at(p), want, "{what}: prefix at {p}");
            }
        }
    }

    #[test]
    fn formation_keeps_lcp_prev_and_no_prefix_table() {
        // Buffer, descriptors, order and `lcp_prev`: the merge's prefix is
        // read from the key, so no fifth table sits beside them.
        assert_eq!(
            std::mem::size_of::<VarRun>(),
            4 * std::mem::size_of::<Vec<u8>>()
        );
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
