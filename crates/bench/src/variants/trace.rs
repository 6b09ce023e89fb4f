//! The pipeline's merge and gather, observed: a real [`Merger`] over
//! [`form_run`](alphasort_core::runform::form_run) runs, reporting what §4
//! says has "excellent cache behavior" (the tournament's root paths and the
//! prefix tables it compares) apart from what "has terrible cache and TLB
//! behavior" (the gather's record reads in merged order).
//!
//! Runs lie back to back as they were read: run `r`'s records at
//! [`RECORD_BASE`] from its first record's input position on, its prefix
//! table at the same position × 8 from [`ENTRY_BASE`]. The tree's nodes are
//! laid out heap-ordered ([`TournamentLayout::Naive`]), and the output is
//! written sequentially at [`OUT_BASE`].

use std::cell::RefCell;
use std::io;

use alphasort_cachesim::{
    replay_path, Observer, TournamentLayout, ENTRY_BASE, OUT_BASE, RECORD_BASE,
};
use alphasort_core::layout::LayoutRun;
use alphasort_core::merge::{Heads, Merger, RunCursors};
use alphasort_core::runform::SortedRun;
use alphasort_dmgen::{KEY_LEN, RECORD_LEN};

use super::RECORD;

/// [`RunCursors`] that report each head the merge compares: its prefix, or
/// on a prefix tie its record's key.
struct Observed<'a, 'm, M> {
    cursors: RunCursors<'a, SortedRun>,
    runs: &'a [SortedRun],
    /// Input position of each run's first record.
    first: Vec<u64>,
    /// Sorted position of each run's head.
    pos: Vec<usize>,
    /// The merge's observer, reached from behind the `&self` accessors.
    mem: RefCell<&'m mut M>,
}

impl<M> Observed<'_, '_, M> {
    /// Address of run `h`'s head record: where its bytes were read to.
    fn record(&self, h: usize) -> u64 {
        let run = &self.runs[h];
        let at = std::ptr::from_ref(run.record_at(self.pos[h])).addr();
        let idx = (at - run.records().as_ptr().addr()) / RECORD_LEN;
        RECORD_BASE + (self.first[h] + idx as u64) * RECORD
    }
}

impl<M: Observer> Heads for Observed<'_, '_, M> {
    fn leaves(&self) -> usize {
        self.cursors.leaves()
    }
    fn is_live(&self, h: usize) -> bool {
        self.cursors.is_live(h)
    }
    fn key(&self, h: usize) -> &[u8] {
        self.mem.borrow_mut().read(self.record(h), KEY_LEN as u64);
        self.cursors.key(h)
    }
    fn prefix(&self, h: usize) -> u64 {
        let addr = ENTRY_BASE + (self.first[h] + self.pos[h] as u64) * 8;
        self.mem.borrow_mut().read(addr, 8);
        self.cursors.prefix(h)
    }
    fn frame(&self, h: usize) -> &[u8] {
        self.cursors.frame(h)
    }
    fn advance(&mut self, h: usize) -> io::Result<()> {
        self.pos[h] += 1;
        self.cursors.advance(h)
    }
}

/// Merge `runs` with the pipeline's [`Merger`] and compare policy, and
/// gather the merged records into one output buffer — byte for byte what
/// `alphasort_core::gather::merge_gather_all` returns — reporting the
/// merge's traffic to `merge` and the gather's to `gather`.
///
/// # Panics
/// If `runs` is empty.
pub fn merge_gather<M: Observer, G: Observer>(
    runs: &[SortedRun],
    merge: &mut M,
    gather: &mut G,
) -> Vec<u8> {
    let mut first = vec![0; runs.len()];
    for r in 1..runs.len() {
        first[r] = first[r - 1] + runs[r - 1].len() as u64;
    }
    let heads = Observed {
        cursors: RunCursors::new(runs, None),
        runs,
        first,
        pos: vec![0; runs.len()],
        mem: RefCell::new(merge),
    };
    let mut out = Vec::new();
    let mut merger = Merger::<_, <SortedRun as LayoutRun>::Policy, _>::new(heads, ());
    while let Some(w) = merger.winner() {
        let heads = merger.heads();
        gather.read(heads.record(w), RECORD);
        gather.write(OUT_BASE + out.len() as u64, RECORD);
        out.extend_from_slice(heads.frame(w));
        merger.pop().expect("in-memory cursors cannot fail");
        let mut mem = merger.heads().mem.borrow_mut();
        replay_path(*mem, TournamentLayout::Naive, runs.len(), w);
    }
    out
}
