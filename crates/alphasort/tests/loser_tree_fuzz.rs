//! The loser tree fuzzed against `BinaryHeap`: for arbitrary leaf counts
//! and value streams, a tournament-driven merge must produce exactly what a
//! heap-driven merge produces. This is the structure both the merge phase
//! and replacement-selection stand on, so it gets its own adversarial file.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alphasort_core::merge::LoserTree;
use alphasort_dmgen::SplitMix64;

/// Merge `lists` (each ascending) with the loser tree.
fn merge_with_tree(lists: &[Vec<u32>]) -> Vec<u32> {
    let k = lists.len();
    let mut pos = vec![0usize; k];
    let less = |pos: &Vec<usize>, a: usize, b: usize| -> bool {
        match (lists[a].get(pos[a]), lists[b].get(pos[b])) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(x), Some(y)) => (x, a) < (y, b),
        }
    };
    let mut tree = LoserTree::new(k, |a, b| less(&pos, a, b));
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let w = tree.winner();
        out.push(lists[w][pos[w]]);
        pos[w] += 1;
        tree.replay(|a, b| less(&pos, a, b));
    }
    out
}

/// Merge `lists` with a binary heap (the reference).
fn merge_with_heap(lists: &[Vec<u32>]) -> Vec<u32> {
    let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.first().map(|&v| Reverse((v, i, 0))))
        .collect();
    let mut out = Vec::new();
    while let Some(Reverse((v, list, idx))) = heap.pop() {
        out.push(v);
        if let Some(&next) = lists[list].get(idx + 1) {
            heap.push(Reverse((next, list, idx + 1)));
        }
    }
    out
}

fn random_sorted_lists(
    r: &mut SplitMix64,
    min_lists: u64,
    max_lists: u64,
    min_len: u64,
    max_len: u64,
) -> Vec<Vec<u32>> {
    let k = min_lists + r.next_below(max_lists - min_lists);
    (0..k)
        .map(|_| {
            let len = min_len + r.next_below(max_len - min_len);
            let mut l: Vec<u32> = (0..len).map(|_| r.next_below(1000) as u32).collect();
            l.sort_unstable();
            l
        })
        .collect()
}

/// Tree merge ≡ heap merge for arbitrary sorted inputs, including empty
/// lists, duplicate values, and non-power-of-two fan-ins.
#[test]
fn loser_tree_merge_equals_heap_merge() {
    let mut r = SplitMix64::new(0xC1);
    for case in 0..256 {
        let lists = random_sorted_lists(&mut r, 1, 17, 0, 50);
        assert_eq!(
            merge_with_tree(&lists),
            merge_with_heap(&lists),
            "case {case}"
        );
    }
}

/// Cut each sorted list into ranges at random splitter values — equal
/// values route right of the splitter, exactly as the partitioned merge's
/// `route()` does — tree-merge every range independently, and concatenate.
/// Must equal the heap merge of the whole input. The random splitters land
/// on duplicates, below every value (empty ranges), above every value, and
/// on list boundary values; lists may be empty or single-element.
#[test]
fn partitioned_tree_merge_equals_full_heap_merge() {
    let mut r = SplitMix64::new(0xC3);
    for case in 0..128 {
        let lists = random_sorted_lists(&mut r, 1, 9, 0, 40);
        let parts = 1 + r.next_below(6) as usize;
        let mut splitters: Vec<u32> = (1..parts).map(|_| r.next_below(1_000) as u32).collect();
        splitters.sort_unstable();
        let mut out = Vec::new();
        for j in 0..parts {
            // Range j holds values v with exactly j splitters <= v:
            // [splitters[j-1], splitters[j]) — duplicates never straddle.
            let ranges: Vec<Vec<u32>> = lists
                .iter()
                .map(|l| {
                    let lo = match j {
                        0 => 0,
                        _ => l.partition_point(|v| *v < splitters[j - 1]),
                    };
                    let hi = match splitters.get(j) {
                        Some(s) => l.partition_point(|v| *v < *s),
                        None => l.len(),
                    };
                    l[lo..hi].to_vec()
                })
                .collect();
            out.extend(merge_with_tree(&ranges));
        }
        assert_eq!(out, merge_with_heap(&lists), "case {case}");
    }
}

/// Same partition scheme with the splitter pinned to an exact boundary
/// value of one of the lists (first or last element): the cut must route
/// the boundary value and all its duplicates into the right range, and the
/// concatenation must still equal the full merge.
#[test]
fn splitter_equal_to_list_boundary_value() {
    let mut r = SplitMix64::new(0xC4);
    for case in 0..64 {
        let lists = random_sorted_lists(&mut r, 2, 7, 1, 30);
        let donor = &lists[r.next_below(lists.len() as u64) as usize];
        let splitter = if r.next_below(2) == 0 {
            donor[0]
        } else {
            *donor.last().expect("non-empty")
        };
        let mut out = Vec::new();
        for j in 0..2 {
            let ranges: Vec<Vec<u32>> = lists
                .iter()
                .map(|l| {
                    let cut = l.partition_point(|v| *v < splitter);
                    if j == 0 {
                        l[..cut].to_vec()
                    } else {
                        l[cut..].to_vec()
                    }
                })
                .collect();
            out.extend(merge_with_tree(&ranges));
        }
        assert_eq!(out, merge_with_heap(&lists), "case {case}");
    }
}

/// The winner is always a minimal live leaf, at every step.
#[test]
fn winner_is_always_minimal() {
    let mut r = SplitMix64::new(0xC2);
    for case in 0..256 {
        let lists = random_sorted_lists(&mut r, 2, 9, 1, 20);
        let k = lists.len();
        let mut pos = vec![0usize; k];
        let less = |pos: &Vec<usize>, a: usize, b: usize| -> bool {
            match (lists[a].get(pos[a]), lists[b].get(pos[b])) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(x), Some(y)) => (x, a) < (y, b),
            }
        };
        let mut tree = LoserTree::new(k, |a, b| less(&pos, a, b));
        let total: usize = lists.iter().map(|l| l.len()).sum();
        for _ in 0..total {
            let w = tree.winner();
            let wv = lists[w][pos[w]];
            let min_live = (0..k)
                .filter_map(|i| lists[i].get(pos[i]))
                .min()
                .copied()
                .expect("some leaf is live");
            assert_eq!(wv, min_live, "case {case}");
            pos[w] += 1;
            tree.replay(|a, b| less(&pos, a, b));
        }
    }
}
