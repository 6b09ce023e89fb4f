//! Adversarial inputs for the §4 exhibits' QuickSort kernel: median-of-three
//! killers, organ pipes, runs of equal elements, and random permutations —
//! checked against the standard library and bounded in comparison count
//! where the input is benign.

use alphasort_bench::variants::kernel::{quicksort_by, INSERTION_CUTOFF};
use alphasort_dmgen::SplitMix64;

fn check(v: Vec<u32>) {
    let mut ours = v.clone();
    let mut std_sorted = v;
    quicksort_by(&mut ours, &mut (), 0, |_, a, b| a < b);
    std_sorted.sort_unstable();
    assert_eq!(ours, std_sorted);
}

/// The classic median-of-3 killer permutation of size 2k.
fn median_of_three_killer(n: usize) -> Vec<u32> {
    let n = n - n % 2;
    let k = n / 2;
    let mut v = vec![0u32; n];
    for i in 0..k {
        if i % 2 == 0 {
            v[i] = (i + 1) as u32;
            v[i + 1] = (k + i + 1) as u32;
        }
        v[k + i] = 2 * (i + 1) as u32;
    }
    v
}

#[test]
fn survives_median_of_three_killer() {
    // Quadratic behaviour would take minutes at this size; the smaller-side
    // recursion keeps the stack flat regardless.
    check(median_of_three_killer(100_000));
}

#[test]
fn survives_many_duplicate_blocks() {
    let mut v = Vec::new();
    for b in 0..10u32 {
        v.extend(std::iter::repeat_n(b, 20_000));
    }
    check(v);
}

#[test]
fn survives_pipe_organ_and_sawtooth() {
    let n = 50_000u32;
    let mut pipe: Vec<u32> = (0..n / 2).collect();
    pipe.extend((0..n / 2).rev());
    check(pipe);
    let saw: Vec<u32> = (0..n).map(|i| i % 37).collect();
    check(saw);
}

/// Up to `INSERTION_CUTOFF` elements the kernel is its insertion sort.
#[test]
fn insertion_sort_matches_std_on_small_inputs() {
    for n in 0..=INSERTION_CUTOFF as u32 {
        let v: Vec<u32> = (0..n).map(|i| (i * 7919 + 13) % 101).collect();
        check(v);
    }
}

/// Arbitrary data, arbitrary duplicates: kernel == std.
#[test]
fn kernel_matches_std() {
    let mut r = SplitMix64::new(0xB1);
    for _ in 0..256 {
        let len = r.next_below(2_000) as usize;
        let v: Vec<u32> = (0..len).map(|_| r.next_below(50) as u32).collect();
        check(v);
    }
}

/// The comparator sees only strict-order questions; a comparator that
/// counts must show O(n log n) behaviour on random data.
#[test]
fn comparison_count_reasonable() {
    let mut r = SplitMix64::new(0xB2);
    for case in 0..32 {
        let mut v: Vec<u64> = (0..10_000).map(|_| r.next_u64()).collect();
        let mut compares = 0u64;
        quicksort_by(&mut v, &mut (), 0, |_, a, b| {
            compares += 1;
            a < b
        });
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "case {case}");
        // n log2 n ≈ 132k; allow 3×.
        assert!(compares < 400_000, "case {case}: compares {compares}");
    }
}
