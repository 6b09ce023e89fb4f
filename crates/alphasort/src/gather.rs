//! The gather step: copy records into output buffers, exactly once.
//!
//! "The record pointers emerging from the tree are used to gather (copy)
//! records from where they were read into memory to output buffers. Records
//! are only copied this one time." (§4). The paper notes this is the
//! memory-hungry part: the source records are touched in pseudo-random
//! order, so "the gathering has terrible cache and TLB behavior" and "more
//! time is spent gathering the records than is consumed in creating,
//! sorting and merging the key-prefix/pointer pairs."

use crate::layout::LayoutRun;
use crate::merge::{ComparePolicy, Effort, MergedPtr, Merger, RunCursors};

/// Copy the records named by `ptrs` (in order) onto the end of `out`. The
/// pointers address (run, sorted position); the run resolves offset and
/// length, so fixed and var-len records gather alike.
pub fn gather_into<R: LayoutRun>(runs: &[R], ptrs: &[MergedPtr], out: &mut Vec<u8>) {
    out.reserve(ptrs.len() * R::LAYOUT.stride().unwrap_or(0));
    for p in ptrs {
        out.extend_from_slice(runs[p.run as usize].frame_at(p.pos as usize));
    }
}

/// Drive a full merge+gather of `runs` into one contiguous output buffer.
pub fn merge_gather_all<R: LayoutRun>(runs: &[R]) -> Vec<u8> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total * R::LAYOUT.stride().unwrap_or(0));
    let mut merger = Merger::<_, R::Policy, _>::new(RunCursors::new(runs, None), ());
    while merger
        .next_into(&mut out)
        .expect("in-memory cursors cannot fail")
    {}
    out
}

/// Pull up to `n` pointers from a merger — the root's unit of work when it
/// hands gather chores to workers buffer by buffer.
pub fn take_ptrs<R: LayoutRun, P: ComparePolicy, E: Effort>(
    merger: &mut Merger<RunCursors<'_, R>, P, E>,
    n: usize,
) -> Vec<MergedPtr> {
    let mut v = Vec::with_capacity(n.min(merger.heads().remaining()));
    v.extend(merger.by_ref().take(n));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::PrefixThenKey;
    use crate::runform::{form_run, SortedRun};
    use alphasort_dmgen::{generate, validate_records, GenConfig, RECORD_LEN};

    fn runs_for(n: u64, run_records: usize) -> (alphasort_dmgen::Checksum, Vec<SortedRun>) {
        let (data, cs) = generate(GenConfig::datamation(n, 31));
        let runs = data
            .chunks(run_records * RECORD_LEN)
            .map(|c| form_run(c.to_vec()))
            .collect();
        (cs, runs)
    }

    #[test]
    fn merge_gather_produces_valid_sorted_permutation() {
        let (cs, runs) = runs_for(2_500, 300);
        let out = merge_gather_all(&runs);
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 2_500);
    }

    #[test]
    fn chunked_gather_equals_whole_gather() {
        let (_, runs) = runs_for(1_000, 128);
        let whole = merge_gather_all(&runs);

        let mut merger = Merger::<_, PrefixThenKey, _>::new(RunCursors::new(&runs, None), ());
        let mut chunked = Vec::new();
        loop {
            let ptrs = take_ptrs(&mut merger, 77);
            if ptrs.is_empty() {
                break;
            }
            gather_into(&runs, &ptrs, &mut chunked);
        }
        assert_eq!(chunked, whole);
    }

    #[test]
    fn gather_from_single_record_runs() {
        // The gather follows pointers; how many runs they span, or how each
        // run's permutation was produced, is not its concern.
        let (cs, runs) = runs_for(90, 1);
        assert_eq!(runs.len(), 90);
        let out = merge_gather_all(&runs);
        validate_records(&out, cs).unwrap();
    }
}
