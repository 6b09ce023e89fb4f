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
//! over records instead of runs, for `exp_fig4`, `exp_onepass` and the
//! `runform` bench to measure against.

use alphasort_core::merge::LoserTree;
use alphasort_dmgen::Record;

/// One tournament slot: the record plus its run tag and arrival number.
#[derive(Clone, Copy)]
struct Slot {
    /// Run this record will be emitted into; `u64::MAX` marks exhausted.
    run: u64,
    /// Arrival sequence, for stable tie-breaking.
    seq: u64,
    record: Record,
}

/// Streaming replacement-selection over an iterator of records.
///
/// Yields `(run_id, record)` pairs; `run_id` is non-decreasing and records
/// within a run are key-ascending. Stable: equal keys keep arrival order.
pub struct ReplacementSelection<I: Iterator<Item = Record>> {
    input: I,
    slots: Vec<Slot>,
    tree: LoserTree,
    next_seq: u64,
    done: bool,
}

impl<I: Iterator<Item = Record>> ReplacementSelection<I> {
    /// Start with a tournament of `capacity` records (the "memory size").
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(mut input: I, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let mut slots = Vec::with_capacity(capacity);
        let mut next_seq = 0u64;
        for _ in 0..capacity {
            match input.next() {
                Some(record) => {
                    slots.push(Slot {
                        run: 0,
                        seq: next_seq,
                        record,
                    });
                    next_seq += 1;
                }
                None => break,
            }
        }
        if slots.is_empty() {
            // Keep the tree well-formed with one exhausted slot.
            slots.push(Slot {
                run: u64::MAX,
                seq: 0,
                record: Record::ZERO,
            });
        }
        let tree = {
            let s = &slots;
            LoserTree::new(s.len(), |a, b| slot_less(&s[a], &s[b]))
        };
        ReplacementSelection {
            input,
            slots,
            tree,
            next_seq,
            done: false,
        }
    }
}

#[inline]
fn slot_less(a: &Slot, b: &Slot) -> bool {
    // Order by (run, key, arrival): the run tag dominates so the tournament
    // finishes the current run before starting the next.
    (a.run, &a.record.key, a.seq) < (b.run, &b.record.key, b.seq)
}

impl<I: Iterator<Item = Record>> Iterator for ReplacementSelection<I> {
    type Item = (u64, Record);

    fn next(&mut self) -> Option<(u64, Record)> {
        if self.done {
            return None;
        }
        let w = self.tree.winner();
        let out = self.slots[w];
        if out.run == u64::MAX {
            self.done = true;
            return None;
        }
        // Refill the winning slot from input.
        match self.input.next() {
            Some(record) => {
                // A replacement smaller than the record just emitted cannot
                // join the current run; tag it for the next one.
                let run = if record.key < out.record.key {
                    out.run + 1
                } else {
                    out.run
                };
                self.slots[w] = Slot {
                    run,
                    seq: self.next_seq,
                    record,
                };
                self.next_seq += 1;
            }
            None => {
                self.slots[w].run = u64::MAX;
            }
        }
        let slots = &self.slots;
        self.tree.replay(|a, b| slot_less(&slots[a], &slots[b]));
        Some((out.run, out.record))
    }
}

/// Batch helper: run replacement-selection over `input` with the given
/// tournament capacity and return the generated runs.
pub fn generate_runs(input: &[Record], capacity: usize) -> Vec<Vec<Record>> {
    let mut runs: Vec<Vec<Record>> = Vec::new();
    for (run, record) in ReplacementSelection::new(input.iter().copied(), capacity) {
        let run = run as usize;
        if run >= runs.len() {
            runs.resize_with(run + 1, Vec::new);
        }
        runs[run].push(record);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let runs = generate_runs(&input, 100);
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
        let runs = generate_runs(&input, capacity);
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
        let runs = generate_runs(&input, 50);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 3_000);
    }

    #[test]
    fn reverse_input_yields_memory_sized_runs() {
        // Worst case: every replacement starts a new run, so each run is
        // exactly the tournament size.
        let input = records(1_000, KeyDistribution::Reverse);
        let runs = generate_runs(&input, 50);
        assert_eq!(runs.len(), 20);
        assert!(runs.iter().all(|r| r.len() == 50));
    }

    #[test]
    fn stable_for_equal_keys() {
        let input = records(2_000, KeyDistribution::DupHeavy { cardinality: 3 });
        let runs = generate_runs(&input, 64);
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
        let runs = generate_runs(&input, 1_000);
        assert_eq!(runs.len(), 1);
        assert!(runs[0].windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn empty_input_yields_no_runs() {
        let runs = generate_runs(&[], 10);
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
            let runs = generate_runs(input, capacity);
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
