//! Probabilistic splitting, once: the recipe every topology shares.
//!
//! Sample keys ([`sample_indices`], a deterministic golden-ratio walk),
//! sort the pooled sample and take its quantiles as splitters
//! ([`quantiles`]), then send every record where a pure function of its
//! key says ([`route`]: first interval whose upper splitter exceeds the
//! key, equal keys go right; [`scatter`] applies it to a record stream).
//! A record's destination never depends on which node, run, or range
//! examined it — the property the partitioned merge's stability argument
//! rests on. [`skew`] is how every caller reports the balance it got.
//!
//! Each function is generic over the key type, so fixed `[u8; 10]` keys
//! and byte strings are the same code. Callers: netsort's workers, which
//! frame their unsorted input with [`frames`] (either layout) and ship the
//! sampled keys and splitters in their own wire payloads, and
//! [`crate::pmerge`], which strides over already-sorted runs instead of
//! walking unsorted input, picks quantiles like everyone else, and cuts each
//! run by binary search at the boundaries [`route`] defines.

use std::io;

use crate::entry::RecordLayout;

/// The sampler: `count` positions (capped at `n`) in `0..n`, spread by a
/// golden-ratio hop — cheap, deterministic, and blind to input order.
pub fn sample_indices(n: usize, count: usize) -> impl Iterator<Item = usize> {
    let hop = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..count.min(n) as u64).map(move |i| (hop(i) % n as u64) as usize)
}

/// The quantile picker: `parts - 1` splitters from a pooled key sample, so
/// every part's key range should hold roughly the same record count. With
/// no data anywhere, any splitters partition nothing correctly: an empty
/// pool yields default keys.
pub fn quantiles<K: Ord + Clone + Default>(mut pool: Vec<K>, parts: usize) -> Vec<K> {
    assert!(parts >= 1, "need at least one part");
    pool.sort_unstable();
    if pool.is_empty() {
        return vec![K::default(); parts - 1];
    }
    (1..parts)
        .map(|k| pool[k * pool.len() / parts].clone())
        .collect()
}

/// Which part owns `key` under `splitters`: the first interval whose upper
/// splitter exceeds the key (keys equal to a splitter go right). A pure
/// function of the key, so duplicates never straddle parts.
#[inline]
pub fn route<K: AsRef<[u8]>>(key: &[u8], splitters: &[K]) -> usize {
    splitters.partition_point(|s| s.as_ref() <= key)
}

/// Scatter `(key, record)` pairs into one byte buffer per part, arrival
/// order kept within a part.
pub fn scatter<'a, K: AsRef<[u8]>>(
    records: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    splitters: &[K],
) -> Vec<Vec<u8>> {
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); splitters.len() + 1];
    for (key, record) in records {
        outs[route(key, splitters)].extend_from_slice(record);
    }
    outs
}

/// Largest part over the ideal (equal) share — 1.0 is perfect balance, and
/// what an empty or all-zero `sizes` reads as.
pub fn skew(sizes: &[u64]) -> f64 {
    let total: u64 = sizes.iter().sum();
    match sizes.iter().max() {
        Some(&max) if total > 0 => max as f64 / (total as f64 / sizes.len() as f64),
        _ => 1.0,
    }
}

// ---- framing unsorted input: either layout -------------------------------

/// One framed input record: its key and its whole frame.
pub type Rec<'a> = (&'a [u8], &'a [u8]);

/// The record that starts at `input[at..]`. Input that ends mid-record or
/// carries a malformed var-len header is `InvalidData`.
pub fn record_at(layout: RecordLayout, input: &[u8], at: usize) -> io::Result<Rec<'_>> {
    let rest = &input[at..];
    let Some(frame) = layout.frame_at(rest, at as u64)? else {
        let what = format!("input ends mid-record ({} trailing bytes)", rest.len());
        return Err(io::Error::new(io::ErrorKind::InvalidData, what));
    };
    Ok((frame.key(rest), &rest[..frame.len]))
}

/// Walk `input`, whole records of `layout`, in input order: each
/// [`record_at`], ending after the first error.
pub fn frames(layout: RecordLayout, input: &[u8]) -> impl Iterator<Item = io::Result<Rec<'_>>> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let rec = (at < input.len()).then(|| record_at(layout, input, at))?;
        at = rec.as_ref().map_or(input.len(), |r| at + r.1.len());
        Some(rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

    const DM: RecordLayout = RecordLayout::Datamation;

    fn records(input: &[u8]) -> Vec<Rec<'_>> {
        frames(DM, input).map(Result::unwrap).collect()
    }

    /// Up to `count` sampled keys of `records`, as a node samples its share.
    fn sample(records: &[Rec<'_>], count: usize) -> Vec<Vec<u8>> {
        let picks = sample_indices(records.len(), count);
        picks.map(|i| records[i].0.to_vec()).collect()
    }

    fn part_sizes(parts: &[Vec<u8>]) -> Vec<u64> {
        parts
            .iter()
            .map(|p| (p.len() / RECORD_LEN) as u64)
            .collect()
    }

    #[test]
    fn splitters_balance_random_keys() {
        let (input, _) = generate(GenConfig::datamation(40_000, 11));
        let recs = records(&input);
        let splitters = quantiles(sample(&recs, 1024), 8);
        assert_eq!(splitters.len(), 7);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let sizes = part_sizes(&scatter(recs, &splitters));
        assert_eq!(sizes.iter().sum::<u64>(), 40_000);
        assert!(skew(&sizes) < 1.5, "sizes {sizes:?}");
    }

    /// Samples from two nodes pool into splitters that balance either one.
    #[test]
    fn two_node_samples_pool_into_balanced_splitters() {
        let (a, _) = generate(GenConfig::datamation(10_000, 1));
        let (b, _) = generate(GenConfig::datamation(10_000, 2));
        let (ra, rb) = (records(&a), records(&b));
        let mut pool = sample(&ra, 256);
        pool.extend(sample(&rb, 256));
        let splitters = quantiles(pool, 4);
        assert_eq!(splitters.len(), 3);
        let parts = scatter(ra, &splitters);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), a.len());
        assert_eq!(route(&[0u8; 10], &splitters), 0);
        let ideal = 10_000.0 / 4.0;
        for p in &parts {
            assert!(((p.len() / RECORD_LEN) as f64) < ideal * 1.6);
        }
    }

    #[test]
    fn routing_respects_splitter_intervals() {
        let splitters = [[5u8; 10], [9u8; 10]];
        assert_eq!(route(&[0u8; 10], &splitters), 0);
        assert_eq!(route(&[5u8; 10], &splitters), 1); // equal goes right
        assert_eq!(route(&[7u8; 10], &splitters), 1);
        assert_eq!(route(&[255u8; 10], &splitters), 2);
        assert_eq!(route::<[u8; 10]>(&[3u8; 10], &[]), 0); // one part
    }

    #[test]
    fn routing_handles_empty_and_prefix_keys() {
        let splitters = vec![b"app".to_vec(), b"apple".to_vec()];
        assert_eq!(route(b"", &splitters), 0);
        assert_eq!(route(b"ap", &splitters), 0);
        assert_eq!(route(b"app", &splitters), 1); // equal goes right
        assert_eq!(route(b"appl", &splitters), 1);
        assert_eq!(route(b"apple", &splitters), 2);
        assert_eq!(route(b"zebra", &splitters), 2);
        assert_eq!(route::<Vec<u8>>(b"anything", &[]), 0);
    }

    #[test]
    fn partitions_concatenate_to_input_multiset_in_key_order() {
        let (input, _) = generate(GenConfig {
            records: 5_000,
            seed: 3,
            dist: KeyDistribution::DupHeavy { cardinality: 4 },
        });
        let recs = records(&input);
        let splitters = quantiles(sample(&recs, 256), 4);
        let parts = scatter(recs, &splitters);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, input.len());
        // Every key in partition i is <= every key in partition i+1 (ranges
        // are disjoint up to the splitter-equality rule).
        for w in parts.windows(2) {
            let max_lo = records(&w[0]).into_iter().map(|r| r.0).max();
            let min_hi = records(&w[1]).into_iter().map(|r| r.0).min();
            if let (Some(lo), Some(hi)) = (max_lo, min_hi) {
                assert!(lo <= hi);
            }
        }
    }

    /// One recipe, two key types: `[u8; 10]` and the same keys as `Vec<u8>`
    /// pick the same quantiles and route every pooled key alike, `parts ==
    /// 1` included. An empty pool yields each type's default key (all-zero
    /// vs empty), the right count either way.
    #[test]
    fn fixed_and_byte_string_keys_are_the_same_recipe() {
        let (input, _) = generate(GenConfig::datamation(3_000, 17));
        let recs = records(&input);
        for (sampled, parts) in [(400, 6), (300, 5), (400, 1), (0, 4), (0, 1)] {
            let bytes = sample(&recs, sampled);
            let fixed: Vec<[u8; 10]> = bytes.iter().map(|k| k[..].try_into().unwrap()).collect();
            let fs = quantiles(fixed.clone(), parts);
            let bs = quantiles(bytes, parts);
            assert_eq!((fs.len(), bs.len()), (parts - 1, parts - 1));
            if sampled == 0 {
                assert!(fs.iter().all(|f| *f == [0u8; 10]));
                assert!(bs.iter().all(Vec::is_empty));
                continue;
            }
            for (f, b) in fs.iter().zip(&bs) {
                assert_eq!(&f[..], &b[..]);
            }
            for key in fixed.iter().chain(&fs) {
                assert_eq!(route(key, &fs), route(key, &bs));
            }
        }
    }

    #[test]
    fn empty_cluster_input_still_produces_splitters() {
        let splitters = quantiles(Vec::<Vec<u8>>::new(), 4);
        assert_eq!(splitters.len(), 3);
        assert!(scatter(Vec::new(), &splitters).iter().all(Vec::is_empty));
    }

    #[test]
    fn sampler_is_capped_in_range_and_empty_on_empty_input() {
        assert_eq!(sample_indices(0, 10).count(), 0);
        assert_eq!(sample_indices(7, 100).count(), 7);
        assert!(sample_indices(1_000, 64).all(|i| i < 1_000));
        assert_eq!(sample(&[], 10), Vec::<Vec<u8>>::new());
    }

    /// The walk yields every whole record, then the error for a ragged
    /// tail, then nothing.
    #[test]
    fn frames_end_after_the_first_error() {
        let (input, _) = generate(GenConfig::datamation(3, 9));
        let ragged = &input[..2 * RECORD_LEN + 7];
        let walked: Vec<_> = frames(DM, ragged).collect();
        assert_eq!(walked.len(), 3);
        assert!(walked[..2].iter().all(Result::is_ok));
        let err = walked[2].as_ref().expect_err("ragged tail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("7 trailing bytes"), "{err}");
    }

    #[test]
    fn skew_is_max_over_ideal() {
        // Ideal share is 150; the largest part holds 300.
        assert!((skew(&[100, 300, 100, 100]) - 2.0).abs() < 1e-12);
        assert!((skew(&[50, 150, 100, 100]) - 1.5).abs() < 1e-12);
        assert_eq!(skew(&[]), 1.0);
        assert_eq!(skew(&[0, 0]), 1.0);
    }
}
