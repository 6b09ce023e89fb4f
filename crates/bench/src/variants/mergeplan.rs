//! Merge scheduling for unequal runs: which runs to merge together when the
//! fan-in is limited.
//!
//! The two-pass driver's cascade merges runs in arrival order (the
//! level-order `take(fanin)` loop in `alphasort_core`'s `driver/twopass.rs`),
//! which is fine when runs are equal (QuickSort runs are, §4: "typically
//! smaller than half of memory" and uniform). Replacement-selection runs
//! are *not* equal — ≈2× memory on average with wide variance — and for
//! unequal runs the classic result (Knuth §5.4.9, the F-ary Huffman
//! construction) schedules the cheapest total data movement by always
//! merging the F currently-smallest runs. This module computes such
//! schedules and their costs so the trade-off can be measured;
//! `exp_onepass` prints the comparison.
//!
//! It is an exhibit, not a seam the driver left unplugged: the F smallest
//! runs are in general *not adjacent* in the input, and the driver breaks
//! key ties on run index, so it stays stable only while every merge
//! combines input-adjacent runs. `two_pass` has never run
//! [`optimal_schedule`] and could not without giving up stability.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One merge step: the (current) run ids combined into a new run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeStep {
    /// Input run ids (indices into the original lengths for ids < n, or
    /// prior steps' outputs for ids ≥ n, numbered n, n+1, …).
    pub inputs: Vec<usize>,
    /// Bytes (or records — the unit of the input lengths) moved.
    pub cost: u64,
}

/// A full schedule: the steps plus the summed movement cost (the final
/// merge into the sink included).
#[derive(Clone, Debug, Default)]
pub struct MergeSchedule {
    /// Steps in execution order; the last step produces the output.
    pub steps: Vec<MergeStep>,
    /// Total units moved across all steps.
    pub total_cost: u64,
}

/// The optimal (Huffman) schedule for merging `lengths` with fan-in `fanin`.
///
/// Every step merges the `fanin` smallest live runs; dummies of length 0
/// pad the first step so every later step is full — the standard F-ary
/// Huffman optimality condition.
///
/// # Panics
/// If `fanin < 2`.
pub fn optimal_schedule(lengths: &[u64], fanin: usize) -> MergeSchedule {
    assert!(fanin >= 2, "fan-in must be at least 2");
    let n = lengths.len();
    if n == 0 {
        return MergeSchedule::default();
    }
    if n == 1 {
        // Single run still crosses to the sink once.
        return MergeSchedule {
            steps: vec![MergeStep {
                inputs: vec![0],
                cost: lengths[0],
            }],
            total_cost: lengths[0],
        };
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = lengths
        .iter()
        .enumerate()
        .map(|(i, &l)| Reverse((l, i)))
        .collect();
    // Dummy count so (n + dummies - 1) ≡ 0 (mod fanin - 1).
    let rem = (n - 1) % (fanin - 1);
    let dummies = if rem == 0 { 0 } else { fanin - 1 - rem };
    for _ in 0..dummies {
        heap.push(Reverse((0, usize::MAX)));
    }

    let mut steps = Vec::new();
    let mut total = 0u64;
    let mut next_id = n;
    while heap.len() > 1 {
        let take = fanin.min(heap.len());
        let mut inputs = Vec::with_capacity(take);
        let mut cost = 0u64;
        for _ in 0..take {
            let Reverse((l, id)) = heap.pop().expect("heap non-empty");
            if id != usize::MAX {
                inputs.push(id);
            }
            cost += l;
        }
        total += cost;
        heap.push(Reverse((cost, next_id)));
        steps.push(MergeStep { inputs, cost });
        next_id += 1;
    }
    MergeSchedule {
        steps,
        total_cost: total,
    }
}

/// The cost of the driver's actual strategy: level-order cascades of
/// `fanin`-wide groups in arrival order, then a final merge.
pub fn level_order_cost(lengths: &[u64], fanin: usize) -> u64 {
    assert!(fanin >= 2);
    if lengths.is_empty() {
        return 0;
    }
    let mut level: Vec<u64> = lengths.to_vec();
    let mut total = 0u64;
    while level.len() > fanin {
        level = level
            .chunks(fanin)
            .map(|g| {
                let s: u64 = g.iter().sum();
                total += s;
                s
            })
            .collect();
    }
    total + level.iter().sum::<u64>() // the final merge into the sink
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_huffman_textbook_example() {
        // Lengths 1,2,3 at fan-in 2: merge 1+2 (cost 3), then 3+3 (cost 6):
        // total 9 — versus level-order ((1+2)=3, then 3+3=6) same here.
        let s = optimal_schedule(&[1, 2, 3], 2);
        assert_eq!(s.total_cost, 9);
        assert_eq!(s.steps.len(), 2);
        assert_eq!(s.steps[0].inputs, vec![0, 1]);
    }

    #[test]
    fn optimal_beats_level_order_on_skewed_runs() {
        // One giant run + many tiny ones: level-order keeps re-copying the
        // giant; Huffman merges the tiny ones first.
        let lengths = [1_000_000u64, 1, 1, 1, 1, 1, 1];
        let opt = optimal_schedule(&lengths, 2).total_cost;
        let lvl = level_order_cost(&lengths, 2);
        assert!(opt < lvl, "opt {opt} vs level {lvl}");
        // The giant run must move exactly once in the optimal schedule.
        assert!(opt < 1_000_000 + 7 * 10);
    }

    #[test]
    fn equal_runs_make_both_strategies_match() {
        let lengths = vec![100u64; 16];
        let opt = optimal_schedule(&lengths, 4).total_cost;
        let lvl = level_order_cost(&lengths, 4);
        assert_eq!(opt, lvl); // 16 → 4 → 1: every record moves twice
        assert_eq!(opt, 2 * 1_600);
    }

    #[test]
    fn fanin_wider_than_runs_is_single_step() {
        let s = optimal_schedule(&[5, 6, 7], 10);
        assert_eq!(s.steps.len(), 1);
        assert_eq!(s.total_cost, 18);
    }

    #[test]
    fn dummy_padding_keeps_later_steps_full() {
        // 6 runs at fan-in 3: (6-1) % 2 = 1 → 1 dummy; first real step
        // takes 2 real runs, later steps take 3.
        let s = optimal_schedule(&[1, 1, 1, 1, 1, 1], 3);
        let real_inputs: usize = s.steps.iter().map(|st| st.inputs.len()).sum();
        // 6 originals + (steps-1) intermediates each consumed once.
        assert_eq!(real_inputs, 6 + s.steps.len() - 1);
        assert!(s.steps[0].inputs.len() < 3); // the padded step
        assert!(s.steps[1..].iter().all(|st| st.inputs.len() == 3));
    }

    #[test]
    fn every_input_consumed_exactly_once() {
        let lengths = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let s = optimal_schedule(&lengths, 3);
        let mut seen = std::collections::HashSet::new();
        for st in &s.steps {
            for &i in &st.inputs {
                assert!(seen.insert(i), "input {i} consumed twice");
            }
        }
        for i in 0..lengths.len() {
            assert!(seen.contains(&i), "run {i} never merged");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(optimal_schedule(&[], 2).total_cost, 0);
        assert_eq!(optimal_schedule(&[42], 2).total_cost, 42);
        assert_eq!(level_order_cost(&[], 2), 0);
        assert_eq!(level_order_cost(&[42], 2), 42);
    }
}
