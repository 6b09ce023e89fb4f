//! What a record layout supplies to the one sort pipeline, and the one
//! [`RunCutter`] that feeds it under every layout.
//!
//! The drivers, worker pools, tournament merger and partition planner are
//! written once, generic over a [`LayoutRun`]: the sorted-run type of a
//! [`RecordLayout`]. A layout supplies exactly three things —
//!
//! 1. run formation from a buffer of whole records and their count
//!    ([`LayoutRun::form`]);
//! 2. the run's size (`len`, `bytes`) and record access at a sorted position
//!    (`key_at`, `frame_at`), plus the key's integer prefix (`prefix_at`,
//!    [`crate::entry::key_prefix_u64`] under every layout) and
//!    `lcp_with_prev` — each answered from a formation-time table where the
//!    layout kept one, so the tournament need not read the record;
//! 3. the [`ComparePolicy`] its merges use.
//!
//! The two implementations sit beside their run types:
//! [`crate::runform::SortedRun`] and [`crate::varlen::VarRun`]. Cutting the
//! input into run buffers needs only where each record ends, which
//! [`RecordLayout::frame_at`] answers for both, so one [`RunCutter`] serves
//! them.

use std::collections::VecDeque;
use std::io;

use crate::driver::RecoveredRun;
use crate::entry::{key_prefix_u64, RecordLayout, MAX_RUN_BYTES};
use crate::merge::ComparePolicy;

/// A sorted in-memory run of one record layout.
pub trait LayoutRun: Sized + Send + Sync + 'static {
    /// The registry value this run type implements.
    const LAYOUT: RecordLayout;
    /// How this layout's merges compare two heads: prefix-then-key where
    /// keys are short binary strings, offset-value codes where long shared
    /// prefixes make rescanning them the dominant cost.
    type Policy: ComparePolicy;

    /// Sort one run buffer. `buf` holds exactly `records` whole records
    /// (the [`RunCutter`]'s guarantee: it framed and counted them).
    fn form(buf: Vec<u8>, records: usize) -> Self;

    /// The record buffer `form` was given, once the run is spent — for
    /// [`RunCutter::recycle`].
    fn into_buf(self) -> Vec<u8>;

    /// Records in the run.
    fn len(&self) -> usize;

    /// Whether the run holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total record bytes — what spilling the run to scratch will write.
    fn bytes(&self) -> u64;

    /// Key bytes of the record at sorted position `pos`.
    fn key_at(&self, pos: usize) -> &[u8];

    /// The whole record at sorted position `pos`, as stored.
    fn frame_at(&self, pos: usize) -> &[u8];

    /// `key_prefix_u64` of the key at sorted position `pos` — what
    /// [`crate::merge::PrefixThenKey`] compares first. A layout that kept
    /// the prefixes at formation answers from that table; the default reads
    /// the key.
    #[inline]
    fn prefix_at(&self, pos: usize) -> u64 {
        key_prefix_u64(self.key_at(pos))
    }

    /// LCP of the keys at sorted positions `pos - 1` and `pos`, when run
    /// formation tabulated it; `None` makes an offset-value merge scan.
    fn lcp_with_prev(&self, _pos: usize) -> Option<u32> {
        None
    }
}

/// One piece of the input stream, as the cutter hands it to a driver.
#[derive(Debug, PartialEq, Eq)]
pub enum Cut {
    /// A run buffer and the number of whole records it holds, ready for
    /// [`LayoutRun::form`].
    Run(Vec<u8>, usize),
    /// The input range of a recovered run has been read past; its records
    /// already sit in scratch, sorted.
    Skipped(RecoveredRun),
}

/// Cuts a chunked byte stream of one layout into run buffers of
/// `run_records` whole records.
///
/// It walks each chunk's records with [`RecordLayout::frame_at`] — one
/// parse per record, whose count goes with the run to [`LayoutRun::form`]
/// — and copies each run's span of whole records out of the chunk with one
/// `extend_from_slice`. Only a record split across two chunks is carried
/// over. A run also ends before a record would carry it past `max_bytes`
/// ([`MAX_RUN_BYTES`]; tests lower it).
///
/// `skip` lists input ranges (by record index, sorted by start, disjoint)
/// whose records a resumed scratch already holds: they are read past, and a
/// run in progress ends exactly where such a range starts, so re-formed runs
/// cover precisely the records the recovered ones do not.
pub struct RunCutter {
    layout: RecordLayout,
    run_records: usize,
    max_bytes: usize,
    /// Capacity a fresh run buffer starts with. For a fixed stride it is a
    /// whole run, or the whole input when that is smaller: what the input
    /// can fill, never what the configuration could hold. Var-len runs grow
    /// as records arrive.
    reserve: usize,
    cur: Vec<u8>,
    cur_records: usize,
    /// An empty buffer handed back by [`RunCutter::recycle`], taken by the
    /// next cut.
    spare: Option<Vec<u8>>,
    /// The head of a record split across chunks, waiting for the rest.
    partial: Vec<u8>,
    /// Input offset of the first byte not yet walked (`partial[0]` while a
    /// record is split), for error attribution.
    at: u64,
    /// Input index of the next record.
    rec: u64,
    skip: VecDeque<RecoveredRun>,
}

impl RunCutter {
    /// Cutter at input offset 0. `input_bytes` is the source's size hint,
    /// which bounds the reserve, so a run size far beyond the input costs
    /// nothing.
    pub fn new(
        layout: RecordLayout,
        run_records: usize,
        input_bytes: Option<u64>,
        skip: Vec<RecoveredRun>,
    ) -> Self {
        let input = input_bytes.map_or(0, |b| b.try_into().unwrap_or(usize::MAX));
        let reserve = layout.stride().map_or(0, |stride| {
            run_records
                .saturating_mul(stride)
                .min(input)
                .min(MAX_RUN_BYTES)
        });
        RunCutter {
            layout,
            run_records,
            max_bytes: MAX_RUN_BYTES,
            reserve,
            cur: Vec::with_capacity(reserve),
            cur_records: 0,
            spare: None,
            partial: Vec::new(),
            at: 0,
            rec: 0,
            skip: skip.into(),
        }
    }

    /// Feed the next input chunk; completed cuts are appended to `out`.
    /// A structurally invalid record header (an oversized var-len body, a
    /// key descriptor past the body) fails here, naming its input offset.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<Cut>) -> io::Result<()> {
        let mut used = 0;
        if !self.partial.is_empty() {
            // Complete the split record, doubling what is held until it
            // frames, then give back the bytes it took of the records
            // behind it (all from this chunk: what was held did not frame).
            let len = loop {
                if let Some(f) = self.layout.frame_at(&self.partial, self.at)? {
                    break f.len;
                }
                if used == chunk.len() {
                    return Ok(());
                }
                let step = self.partial.len().min(chunk.len() - used);
                self.partial.extend_from_slice(&chunk[used..used + step]);
                used += step;
            };
            used -= self.partial.len() - len;
            self.partial.truncate(len);
            let record = std::mem::take(&mut self.partial);
            self.walk(&record, out)?;
            self.partial = record;
            self.partial.clear();
        }
        used += self.walk(&chunk[used..], out)?;
        self.partial.extend_from_slice(&chunk[used..]);
        Ok(())
    }

    /// Walk the whole records at the start of `bytes`, which sits at input
    /// offset `self.at`: read past those a recovered span holds and copy
    /// the rest into run buffers, one span per run. Returns the bytes
    /// walked.
    fn walk(&mut self, bytes: &[u8], out: &mut Vec<Cut>) -> io::Result<usize> {
        // `bytes[owed..end]` are records of the current run not yet copied.
        let (mut owed, mut end) = (0, 0);
        let mut next_skip = self.skip.front().map_or(u64::MAX, |r| r.start_record);
        while let Some(f) = self.layout.frame_at(&bytes[end..], self.at)? {
            if self.rec >= next_skip {
                // Inside a recovered span: read past it, sort nothing.
                let r = self.skip[0];
                let span_end = r.start_record.saturating_add(r.records);
                if self.rec < span_end {
                    end += f.len;
                    owed = end;
                    self.at += f.len as u64;
                    self.rec += 1;
                }
                if self.rec >= span_end {
                    out.push(Cut::Skipped(r));
                    self.skip.pop_front();
                    next_skip = self.skip.front().map_or(u64::MAX, |r| r.start_record);
                }
                continue;
            }
            if self.cur_records > 0 && self.cur.len() + (end - owed) + f.len > self.max_bytes {
                self.cut(&bytes[owed..end], out);
                owed = end;
            }
            end += f.len;
            self.at += f.len as u64;
            self.rec += 1;
            self.cur_records += 1;
            if self.cur_records == self.run_records || self.rec == next_skip {
                self.cut(&bytes[owed..end], out);
                owed = end;
            }
        }
        self.cur.extend_from_slice(&bytes[owed..end]);
        Ok(end)
    }

    /// End the current run, `owed` being its records still in the chunk.
    fn cut(&mut self, owed: &[u8], out: &mut Vec<Cut>) {
        self.cur.extend_from_slice(owed);
        let next = self
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(self.reserve));
        let run = std::mem::replace(&mut self.cur, next);
        out.push(Cut::Run(run, std::mem::take(&mut self.cur_records)));
    }

    /// Hand back a spent run buffer; the next cut fills it instead of a
    /// fresh allocation, so a driver that drops each run once it is spilled
    /// holds the same two buffers from the first run to the last.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.spare = Some(buf);
    }

    /// End of input: append the trailing partial run, or fail with an
    /// attributed `InvalidData` when the input ends mid-record or a skipped
    /// range extends past it.
    pub fn finish(&mut self, out: &mut Vec<Cut>) -> io::Result<()> {
        let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidData, what));
        if !self.partial.is_empty() {
            return invalid(format!(
                "input ends mid-record ({} trailing bytes at input offset {})",
                self.partial.len(),
                self.at
            ));
        }
        if self.cur_records > 0 {
            let run = std::mem::take(&mut self.cur);
            out.push(Cut::Run(run, std::mem::take(&mut self.cur_records)));
        }
        match self.skip.front() {
            Some(r) => invalid(format!(
                "recovered run covering records {}..{} extends past the input \
                 ({} records read); wrong or truncated input for this scratch",
                r.start_record,
                r.start_record.saturating_add(r.records),
                self.rec,
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{
        generate, generate_varlen, var_records_of, GenConfig, TextCorpus, VarGenConfig, RECORD_LEN,
    };

    /// `n` records of `layout`, and where each one ends.
    fn input(layout: RecordLayout, n: u64, seed: u64) -> (Vec<u8>, Vec<usize>) {
        let data = match layout {
            RecordLayout::Datamation => generate(GenConfig::datamation(n, seed)).0,
            RecordLayout::VarLen => generate_varlen(VarGenConfig {
                records: n,
                seed,
                corpus: TextCorpus::Urls,
            }),
        };
        let ends = match layout {
            RecordLayout::Datamation => (1..=n as usize).map(|i| i * RECORD_LEN).collect(),
            RecordLayout::VarLen => var_records_of(&data)
                .unwrap()
                .iter()
                .scan(0, |end, r| {
                    *end += r.len();
                    Some(*end)
                })
                .collect(),
        };
        (data, ends)
    }

    fn span(start_record: u64, records: u64) -> RecoveredRun {
        RecoveredRun {
            start_record,
            records,
        }
    }

    /// Feed `data` to `cutter` in `chunk`-byte pieces.
    fn cut(mut cutter: RunCutter, data: &[u8], chunk: usize) -> io::Result<Vec<Cut>> {
        let mut cuts = Vec::new();
        for piece in data.chunks(chunk) {
            cutter.push(piece, &mut cuts)?;
        }
        cutter.finish(&mut cuts)?;
        Ok(cuts)
    }

    /// The cuts by their definition, sharing no logic with the cutter: walk
    /// the record ends, jump over each span, end a run at `run_records`,
    /// before `max_bytes` and where a span starts.
    fn expected(
        data: &[u8],
        ends: &[usize],
        run_records: usize,
        max_bytes: usize,
        skip: &[RecoveredRun],
    ) -> Vec<Cut> {
        let mut cuts = Vec::new();
        let (mut run, mut records, mut i) = (Vec::new(), 0, 0);
        let mut skip = skip.iter().peekable();
        let flush = |run: &mut Vec<u8>, records: &mut usize, cuts: &mut Vec<Cut>| {
            if *records > 0 {
                cuts.push(Cut::Run(std::mem::take(run), std::mem::take(records)));
            }
        };
        while i < ends.len() {
            if let Some(r) = skip.next_if(|r| r.start_record == i as u64) {
                flush(&mut run, &mut records, &mut cuts);
                cuts.push(Cut::Skipped(*r));
                i += r.records as usize;
                continue;
            }
            let record = &data[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
            if run.len() + record.len() > max_bytes {
                flush(&mut run, &mut records, &mut cuts);
            }
            run.extend_from_slice(record);
            records += 1;
            i += 1;
            if records == run_records {
                flush(&mut run, &mut records, &mut cuts);
            }
        }
        flush(&mut run, &mut records, &mut cuts);
        cuts
    }

    /// Every chunking, run size and skip list below gives the cuts of the
    /// definition, under both layouts. The spans start and end on run edges
    /// (at 3 and 6 for runs of 3, at every record for runs of 1), and on
    /// chunk edges (every record edge is one for 100-byte Datamation
    /// chunks), and one ends the input.
    #[test]
    fn cuts_are_the_definition_for_every_chunking_run_size_and_skip() {
        for layout in RecordLayout::ALL {
            let (data, ends) = input(layout, 40, 11);
            let n = ends.len() as u64;
            let skips = [
                vec![],
                vec![span(0, 2)],
                vec![span(3, 3)],
                vec![span(2, 1), span(4, 5), span(9, 3)],
                vec![span(6, 7), span(n - 4, 4)],
            ];
            for chunk in [1, 7, 99, 100, 101, 4096, data.len()] {
                for run_records in [1, 2, 3, 1_000] {
                    for skip in &skips {
                        let what = format!(
                            "{} chunk {chunk} run {run_records} skip {skip:?}",
                            layout.name()
                        );
                        let cutter = RunCutter::new(layout, run_records, None, skip.clone());
                        let got = cut(cutter, &data, chunk).expect(&what);
                        let want = expected(&data, &ends, run_records, MAX_RUN_BYTES, skip);
                        assert!(got == want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_ends_before_the_byte_ceiling() {
        // MAX_RUN_BYTES scaled down to four of the largest records: a run
        // ends exactly when the next record would carry it past the
        // ceiling, long before `run_records`.
        for layout in RecordLayout::ALL {
            let (data, ends) = input(layout, 300, 3);
            let largest = (0..ends.len())
                .map(|i| ends[i] - if i == 0 { 0 } else { ends[i - 1] })
                .max()
                .unwrap();
            let ceiling = 4 * largest;
            let mut cutter = RunCutter::new(layout, usize::MAX, None, Vec::new());
            cutter.max_bytes = ceiling;
            let got = cut(cutter, &data, 100).unwrap();
            assert!(got.len() > 1, "{}", layout.name());
            assert!(got == expected(&data, &ends, usize::MAX, ceiling, &[]));
        }
    }

    #[test]
    fn the_reserve_is_what_the_input_can_fill() {
        // A run size far beyond the input is a size, not a reservation; a
        // fixed stride reserves a whole run up to the size hint, var-len
        // nothing ahead.
        for (layout, hint, most) in [
            (RecordLayout::Datamation, Some(200), 200),
            (RecordLayout::Datamation, None, 0),
            (RecordLayout::VarLen, Some(200), 0),
        ] {
            let cutter = RunCutter::new(layout, usize::MAX, hint, Vec::new());
            assert!(cutter.cur.capacity() <= most, "{} {hint:?}", layout.name());
        }
        let cutter = RunCutter::new(RecordLayout::Datamation, 2, Some(1 << 20), Vec::new());
        assert_eq!(cutter.cur.capacity(), 2 * RECORD_LEN);
    }

    #[test]
    fn a_recycled_buffer_is_filled_again() {
        // A spent run handed back is the buffer of the cut after next (the
        // next one was taken when the spent run was cut): the same
        // allocation, holding only its own records.
        for layout in RecordLayout::ALL {
            let (data, ends) = input(layout, 5, 4);
            let mut cutter = RunCutter::new(layout, 2, None, Vec::new());
            let mut cuts = Vec::new();
            cutter.push(&data[..ends[1]], &mut cuts).unwrap();
            let Some(Cut::Run(first, 2)) = cuts.pop() else {
                panic!("one run of two records");
            };
            let at = first.as_ptr();
            cutter.recycle(first);
            cutter.push(&data[ends[1]..], &mut cuts).unwrap();
            cutter.finish(&mut cuts).unwrap();
            let [Cut::Run(second, 2), Cut::Run(third, 1)] = &cuts[..] else {
                panic!("two more runs");
            };
            assert_eq!(second[..], data[ends[1]..ends[3]], "{}", layout.name());
            assert_eq!(third[..], data[ends[3]..], "{}", layout.name());
            assert_eq!(third.as_ptr(), at, "{}", layout.name());
        }
    }

    #[test]
    fn bad_input_is_an_attributed_error() {
        for layout in RecordLayout::ALL {
            let (data, _) = input(layout, 10, 2);
            let what = layout.name();
            // A truncated tail, whatever the chunking.
            for chunk in [1, 7, data.len()] {
                let cutter = RunCutter::new(layout, 100, None, Vec::new());
                let err = cut(cutter, &data[..data.len() - 3], chunk).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
                assert!(err.to_string().contains("input ends mid-record"), "{err}");
            }
            // A recovered span past the end of the input.
            let cutter = RunCutter::new(layout, 100, None, vec![span(8, 5)]);
            let err = cut(cutter, &data, 64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("extends past the input"), "{err}");
        }
        // A var-len header whose key runs past its body fails at the push
        // that completes the header, naming its offset.
        let (mut data, _) = input(RecordLayout::VarLen, 3, 2);
        let at = data.len();
        data.extend_from_slice(&4u32.to_le_bytes());
        data.extend_from_slice(&9u16.to_le_bytes()); // key_off 9 > body 4
        data.extend_from_slice(&0u16.to_le_bytes());
        data.extend_from_slice(&[0; 4]);
        for chunk in [1, 7, data.len()] {
            let cutter = RunCutter::new(RecordLayout::VarLen, 100, None, Vec::new());
            let err = cut(cutter, &data, chunk).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&at.to_string()), "{err}");
        }
    }
}
