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
//! Each function is generic over the key type, so netsort's fixed
//! `[u8; KEY_LEN]` wire keys and the byte-string keys of the var-len layout
//! and the merge planner are the same code. Callers: the shared-nothing
//! baseline ([`crate::baseline`]), netsort's workers (through the
//! wire-payload helpers at the bottom), and [`crate::pmerge`], which
//! strides over already-sorted runs instead of walking unsorted input, picks
//! quantiles like everyone else, and cuts each run by binary search at the
//! boundaries [`route`] defines.

use alphasort_dmgen::{records_of, KEY_LEN};

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

// ---- netsort's wire payloads: keys concatenated, KEY_LEN bytes each --------

/// Sample up to `count` keys from `input` (whole Datamation records) — the
/// payload of a netsort `Frame::Sample`.
pub fn sample_keys(input: &[u8], count: usize) -> Vec<u8> {
    let records = records_of(input);
    sample_indices(records.len(), count)
        .flat_map(|i| records[i].key)
        .collect()
}

/// Parse a concatenated-key payload (`Frame::Sample` or `Frame::Splitters`).
pub fn decode_keys(payload: &[u8]) -> Vec<[u8; KEY_LEN]> {
    assert!(payload.len().is_multiple_of(KEY_LEN), "ragged key payload");
    payload
        .chunks_exact(KEY_LEN)
        .map(|k| k.try_into().expect("KEY_LEN chunk"))
        .collect()
}

/// The coordinator's pick: `nodes - 1` splitters from the pooled
/// `Frame::Sample` payloads.
pub fn compute_splitters(samples: &[Vec<u8>], nodes: usize) -> Vec<[u8; KEY_LEN]> {
    quantiles(samples.iter().flat_map(|p| decode_keys(p)).collect(), nodes)
}

/// Scatter `input` (whole Datamation records) into one buffer per part.
pub fn partition_records(input: &[u8], splitters: &[[u8; KEY_LEN]]) -> Vec<Vec<u8>> {
    let records = records_of(input).iter();
    scatter(records.map(|r| (&r.key[..], &r.as_bytes()[..])), splitters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

    #[test]
    fn splitters_balance_random_keys() {
        let (input, _) = generate(GenConfig::datamation(40_000, 11));
        let splitters = compute_splitters(&[sample_keys(&input, 1024)], 8);
        assert_eq!(splitters.len(), 7);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let parts = partition_records(&input, &splitters);
        let sizes: Vec<u64> = parts
            .iter()
            .map(|p| (p.len() / RECORD_LEN) as u64)
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), 40_000);
        assert!(skew(&sizes) < 1.5, "sizes {sizes:?}");
    }

    /// The netsort frame path end to end: sample payloads from two nodes,
    /// pooled splitters, encode/decode roundtrip, balanced routing.
    #[test]
    fn two_node_samples_pool_into_balanced_wire_splitters() {
        let (a, _) = generate(GenConfig::datamation(10_000, 1));
        let (b, _) = generate(GenConfig::datamation(10_000, 2));
        let picked = compute_splitters(&[sample_keys(&a, 256), sample_keys(&b, 256)], 4);
        let splitters = decode_keys(&picked.concat());
        assert_eq!(splitters, picked);
        assert_eq!(splitters.len(), 3);
        let parts = partition_records(&a, &splitters);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), a.len());
        assert_eq!(route(&[0u8; KEY_LEN], &splitters), 0);
        let ideal = 10_000.0 / 4.0;
        for p in &parts {
            assert!(((p.len() / RECORD_LEN) as f64) < ideal * 1.6);
        }
    }

    #[test]
    fn routing_respects_splitter_intervals() {
        let splitters = [[5u8; KEY_LEN], [9u8; KEY_LEN]];
        assert_eq!(route(&[0u8; KEY_LEN], &splitters), 0);
        assert_eq!(route(&[5u8; KEY_LEN], &splitters), 1); // equal goes right
        assert_eq!(route(&[7u8; KEY_LEN], &splitters), 1);
        assert_eq!(route(&[255u8; KEY_LEN], &splitters), 2);
        assert_eq!(route::<[u8; KEY_LEN]>(&[3u8; KEY_LEN], &[]), 0); // one part
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
        let splitters = compute_splitters(&[sample_keys(&input, 256)], 4);
        let parts = partition_records(&input, &splitters);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, input.len());
        // Every key in partition i is <= every key in partition i+1 (ranges
        // are disjoint up to the splitter-equality rule).
        for w in parts.windows(2) {
            let max_lo = records_of(&w[0]).iter().map(|r| r.key).max();
            let min_hi = records_of(&w[1]).iter().map(|r| r.key).min();
            if let (Some(lo), Some(hi)) = (max_lo, min_hi) {
                assert!(lo <= hi);
            }
        }
    }

    /// One recipe, two key types: `[u8; KEY_LEN]` and the same keys as
    /// `Vec<u8>` pick the same quantiles and route every pooled key alike,
    /// `parts == 1` included. An empty pool yields each type's default key
    /// (all-zero vs empty), the right count either way.
    #[test]
    fn fixed_and_byte_string_keys_are_the_same_recipe() {
        let (input, _) = generate(GenConfig::datamation(3_000, 17));
        for (sampled, parts) in [(400, 6), (300, 5), (400, 1), (0, 4), (0, 1)] {
            let payload = sample_keys(&input, sampled);
            let fixed = decode_keys(&payload);
            let bytes: Vec<Vec<u8>> = fixed.iter().map(|k| k.to_vec()).collect();
            let fs = compute_splitters(&[payload], parts);
            let bs = quantiles(bytes, parts);
            assert_eq!((fs.len(), bs.len()), (parts - 1, parts - 1));
            if sampled == 0 {
                assert!(fs.iter().all(|f| *f == [0u8; KEY_LEN]));
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
    fn key_payloads_round_trip() {
        let splitters = vec![[1u8; KEY_LEN], [200u8; KEY_LEN]];
        assert_eq!(decode_keys(&splitters.concat()), splitters);
    }

    #[test]
    fn empty_cluster_input_still_produces_splitters() {
        let splitters = compute_splitters(&[Vec::new(), Vec::new()], 4);
        assert_eq!(splitters.len(), 3);
        assert!(partition_records(&[], &splitters).iter().all(Vec::is_empty));
    }

    #[test]
    fn sampler_is_capped_in_range_and_empty_on_empty_input() {
        assert_eq!(sample_indices(0, 10).count(), 0);
        assert_eq!(sample_indices(7, 100).count(), 7);
        assert!(sample_indices(1_000, 64).all(|i| i < 1_000));
        assert_eq!(sample_keys(&[], 10), Vec::<u8>::new());
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
