//! Replacement-selection: the run-generation algorithm §4 rejects.
//!
//! Replacement-selection is the classical run-generation algorithm
//! (Knuth, *Sorting and Searching*): a tournament of W records; the winner
//! is emitted, its slot refilled from input, and the path to the root
//! replayed. On random input the runs come out ≈2 W long, and "the
//! worst-case behavior is very close to its average behavior" (§4). The
//! paper *rejects* it for run formation because each replay walks a
//! pseudo-random leaf-to-root path with poor cache locality, and measures
//! QuickSort ~2.5× faster — but keeps a small tournament for the *merge*
//! phase where the tree fits in cache. That tournament is
//! [`alphasort_core::merge::LoserTree`]; this exhibit runs the same tree
//! over records instead of runs, for `exp fig4` and the `runform` bench to
//! measure against.
//!
//! It reports its memory traffic to an [`Observer`]: the slots each
//! comparison reads, the winner copied out to a sequential output stream,
//! the refill, and each leaf-to-root path, with the tree's nodes placed by
//! a [`TournamentLayout`] — Figure 4's naive heap or §4's clustered one.

use std::mem::offset_of;

use alphasort_cachesim::{
    node_addr, replay_path, Observer, TournamentLayout, NODE_SIZE, OUT_BASE, RECORD_BASE,
};
use alphasort_core::merge::LoserTree;
use alphasort_dmgen::{Record, KEY_LEN};

use super::RECORD;

/// One tournament slot: the record plus its run tag and arrival number,
/// in this order, so a comparison reads one span from the slot's front.
#[repr(C)]
#[derive(Clone, Copy)]
struct Slot {
    /// Run this record will be emitted into; `u64::MAX` marks exhausted.
    run: u64,
    /// Arrival sequence, for stable tie-breaking.
    seq: u64,
    record: Record,
}

/// Bytes per slot, the stride of the slot array at [`RECORD_BASE`].
const SLOT: u64 = size_of::<Slot>() as u64;
/// Bytes a comparison reads from a slot's front: run, seq and the key.
const COMPARED: u64 = (offset_of!(Slot, record) + KEY_LEN) as u64;

/// Run replacement-selection over `input` with a tournament of `capacity`
/// records (the "memory size"), its nodes laid out by `layout`, reporting
/// to `mem`, and return the generated runs. Each run is key-ascending, and
/// equal keys keep arrival order (stable).
///
/// # Panics
/// If `capacity == 0`.
pub fn generate_runs<O: Observer>(
    input: &[Record],
    capacity: usize,
    layout: TournamentLayout,
    mem: &mut O,
) -> Vec<Vec<Record>> {
    assert!(capacity > 0, "capacity must be positive");
    let (fill, mut rest) = input.split_at(capacity.min(input.len()));
    let mut slots: Vec<Slot> = (0..fill.len() as u64)
        .map(|seq| {
            mem.write(RECORD_BASE + seq * SLOT, SLOT);
            Slot {
                run: 0,
                seq,
                record: fill[seq as usize],
            }
        })
        .collect();
    let mut runs: Vec<Vec<Record>> = Vec::new();
    if slots.is_empty() {
        return runs;
    }
    let mut tree = LoserTree::new(slots.len(), |a, b| slot_less(&slots, mem, a, b));
    // The build writes every internal node once, bottom up.
    for node in (1..slots.len().next_power_of_two()).rev() {
        mem.write(node_addr(layout, node), NODE_SIZE);
    }
    let (mut next_seq, mut emitted) = (slots.len() as u64, 0u64);
    loop {
        let w = tree.winner();
        let slot_at = RECORD_BASE + w as u64 * SLOT;
        mem.read(slot_at, SLOT);
        let out = slots[w];
        if out.run == u64::MAX {
            return runs;
        }
        // The winner is copied out to the output stream.
        mem.write(OUT_BASE + emitted * RECORD, RECORD);
        emitted += 1;
        let run = out.run as usize;
        if run >= runs.len() {
            runs.resize_with(run + 1, Vec::new);
        }
        runs[run].push(out.record);
        // Refill the winning slot from input. A replacement smaller than
        // the record just emitted cannot join the current run; it is tagged
        // for the next one.
        if let Some((&record, tail)) = rest.split_first() {
            rest = tail;
            mem.write(slot_at, SLOT);
            let run = out.run + u64::from(record.key < out.record.key);
            slots[w] = Slot {
                run,
                seq: next_seq,
                record,
            };
            next_seq += 1;
        } else {
            mem.write(slot_at, 8);
            slots[w].run = u64::MAX;
        }
        tree.replay(|a, b| slot_less(&slots, mem, a, b));
        replay_path(mem, layout, slots.len(), w);
    }
}

/// Order by (run, key, arrival): the run tag dominates so the tournament
/// finishes the current run before starting the next.
#[inline]
fn slot_less<O: Observer>(slots: &[Slot], mem: &mut O, a: usize, b: usize) -> bool {
    mem.read(RECORD_BASE + a as u64 * SLOT, COMPARED);
    mem.read(RECORD_BASE + b as u64 * SLOT, COMPARED);
    let (a, b) = (&slots[a], &slots[b]);
    (a.run, &a.record.key, a.seq) < (b.run, &b.record.key, b.seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_cachesim::TournamentLayout::Naive;
    use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution, SplitMix64};

    fn records(n: u64, dist: KeyDistribution) -> Vec<Record> {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 777,
            dist,
        });
        records_of(&data).to_vec()
    }

    #[test]
    fn runs_are_sorted_and_cover_input() {
        let input = records(5_000, KeyDistribution::Random);
        let runs = generate_runs(&input, 100, Naive, &mut ());
        let total: usize = runs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 5_000);
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    #[test]
    fn random_input_runs_average_twice_memory() {
        // Knuth's classic result, quoted in §4: replacement-selection
        // "generates runs twice as large as memory" on average.
        let input = records(20_000, KeyDistribution::Random);
        let capacity = 200;
        let runs = generate_runs(&input, capacity, Naive, &mut ());
        let avg = 20_000.0 / runs.len() as f64;
        assert!(
            (avg / capacity as f64 - 2.0).abs() < 0.35,
            "avg run length {avg} vs capacity {capacity} ({} runs)",
            runs.len()
        );
    }

    #[test]
    fn sorted_input_yields_one_run() {
        let input = records(3_000, KeyDistribution::Sorted);
        let runs = generate_runs(&input, 50, Naive, &mut ());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 3_000);
    }

    #[test]
    fn reverse_input_yields_memory_sized_runs() {
        // Worst case: every replacement starts a new run, so each run is
        // exactly the tournament size.
        let input = records(1_000, KeyDistribution::Reverse);
        let runs = generate_runs(&input, 50, Naive, &mut ());
        assert_eq!(runs.len(), 20);
        assert!(runs.iter().all(|r| r.len() == 50));
    }

    #[test]
    fn stable_for_equal_keys() {
        let input = records(2_000, KeyDistribution::DupHeavy { cardinality: 3 });
        let runs = generate_runs(&input, 64, Naive, &mut ());
        // Within each run, equal keys must appear in arrival order.
        for run in &runs {
            for w in run.windows(2) {
                if w[0].key == w[1].key {
                    assert!(w[0].seq() < w[1].seq(), "stability violated");
                }
            }
        }
    }

    #[test]
    fn capacity_larger_than_input_gives_single_sorted_run() {
        let input = records(100, KeyDistribution::Random);
        let runs = generate_runs(&input, 1_000, Naive, &mut ());
        assert_eq!(runs.len(), 1);
        assert!(runs[0].windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn empty_input_yields_no_runs() {
        let runs = generate_runs(&[], 10, Naive, &mut ());
        assert!(runs.is_empty());
    }

    /// Runs concatenate to the input multiset and each run is sorted, for
    /// any capacity and distribution (seeded, so every run is reproducible).
    #[test]
    fn replacement_selection_invariants() {
        let mut r = SplitMix64::new(0xA3);
        for case in 0..64 {
            let n = r.next_below(600);
            let seed = r.next_u64();
            let (_, dist) = KeyDistribution::STRESS[r.next_below(10) as usize];
            let capacity = 1 + r.next_below(99) as usize;
            let (data, _) = generate(GenConfig {
                records: n,
                seed,
                dist,
            });
            let input = records_of(&data);
            let runs = generate_runs(input, capacity, Naive, &mut ());
            let total: usize = runs.iter().map(|run| run.len()).sum();
            assert_eq!(total as u64, n, "case {case}");
            for run in &runs {
                assert!(run.windows(2).all(|w| w[0].key <= w[1].key), "case {case}");
            }
            let key_seq = |rec: &Record| (rec.key, rec.seq());
            let mut a: Vec<_> = input.iter().map(key_seq).collect();
            let mut b: Vec<_> = runs.iter().flatten().map(key_seq).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "case {case}");
        }
    }
}
