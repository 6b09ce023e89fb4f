//! Key distributions for workload generation.
//!
//! The Datamation benchmark itself prescribes uniformly random keys
//! ([`KeyDistribution::Random`]); the other distributions exercise the edge
//! cases the AlphaSort paper discusses: QuickSort's poor worst case on
//! adversarial inputs (§4), replacement-selection's long runs on nearly
//! sorted data, and key prefixes degenerating to pointer sort when the
//! prefix does not discriminate (§4's "risk of using the key-prefix").

use crate::record::KEY_LEN;
use crate::rng::SplitMix64;

/// How record keys are distributed across the generated input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDistribution {
    /// Uniformly random 10-byte keys — the benchmark's required distribution.
    Random,
    /// Uniformly random keys over the 95 printable ASCII characters — the
    /// "readable by a program using conventional tools" flavour the
    /// MinuteSort rules gesture at (and what sortbenchmark.org's Daytona
    /// category later required). Lower entropy per byte, so prefix ties are
    /// slightly more common than with binary keys.
    RandomPrintable,
    /// Keys already in ascending order (replacement-selection's best case:
    /// a single run regardless of memory size).
    Sorted,
    /// Keys in descending order (replacement-selection's worst case: runs of
    /// exactly memory size; a classic QuickSort stress pattern).
    Reverse,
    /// Ascending keys with a fraction of records swapped to random positions.
    /// `permille` is the per-record probability (0..=1000) of displacement.
    NearlySorted { permille: u16 },
    /// Keys drawn from only `cardinality` distinct values — stresses prefix
    /// ties and stability.
    DupHeavy { cardinality: u32 },
    /// All keys share the same first `shared` bytes, so any prefix up to that
    /// length discriminates nothing and key-prefix sort must fall through to
    /// full-key comparisons (the degenerate case of §4).
    CommonPrefix { shared: u8 },
}

impl KeyDistribution {
    /// The stress table run-formation kernels are held to: seven everyday
    /// distributions, then the degenerate shapes — one bucket holding
    /// everything, maximal prefix ties.
    pub const STRESS: [(&'static str, KeyDistribution); 10] = [
        ("random", KeyDistribution::Random),
        ("printable", KeyDistribution::RandomPrintable),
        ("sorted", KeyDistribution::Sorted),
        ("reverse", KeyDistribution::Reverse),
        ("nearly-sorted", KeyDistribution::NearlySorted { permille: 50 }),
        ("dup-heavy", KeyDistribution::DupHeavy { cardinality: 5 }),
        ("common-prefix", KeyDistribution::CommonPrefix { shared: 9 }),
        ("all-equal", KeyDistribution::DupHeavy { cardinality: 1 }),
        ("two-keys", KeyDistribution::DupHeavy { cardinality: 2 }),
        ("prefix-ties", KeyDistribution::CommonPrefix { shared: 8 }),
    ];

    /// Produce the key for record number `i` out of `n`.
    ///
    /// `rng` must be the generator dedicated to this stream; calls must be
    /// made with `i = 0..n` in order for the order-sensitive distributions
    /// to come out right.
    pub fn key_for(&self, i: u64, n: u64, rng: &mut SplitMix64) -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        match *self {
            KeyDistribution::Random => rng.fill_bytes(&mut key),
            KeyDistribution::RandomPrintable => {
                for b in &mut key {
                    *b = 0x20 + rng.next_below(95) as u8;
                }
            }
            KeyDistribution::Sorted => {
                key[..8].copy_from_slice(&ordinal_spread(i, n).to_be_bytes());
                // Low bytes random so keys are still distinct & incompressible.
                let tail = rng.next_u64().to_le_bytes();
                key[8..].copy_from_slice(&tail[..2]);
            }
            KeyDistribution::Reverse => {
                key[..8].copy_from_slice(&ordinal_spread(n - 1 - i, n).to_be_bytes());
                let tail = rng.next_u64().to_le_bytes();
                key[8..].copy_from_slice(&tail[..2]);
            }
            KeyDistribution::NearlySorted { permille } => {
                let displaced = rng.next_below(1000) < u64::from(permille.min(1000));
                let ord = if displaced {
                    rng.next_below(n.max(1))
                } else {
                    i
                };
                key[..8].copy_from_slice(&ordinal_spread(ord, n).to_be_bytes());
                let tail = rng.next_u64().to_le_bytes();
                key[8..].copy_from_slice(&tail[..2]);
            }
            KeyDistribution::DupHeavy { cardinality } => {
                let c = u64::from(cardinality.max(1));
                let v = rng.next_below(c);
                // Derive the whole key from the chosen value so equal values
                // give byte-identical keys.
                let mut keyrng = SplitMix64::new(v ^ 0xD1B5_4A32_D192_ED03);
                keyrng.fill_bytes(&mut key);
            }
            KeyDistribution::CommonPrefix { shared } => {
                let s = usize::from(shared).min(KEY_LEN);
                key[..s].fill(0xCC);
                let mut rest = [0u8; KEY_LEN];
                rng.fill_bytes(&mut rest);
                key[s..].copy_from_slice(&rest[s..]);
            }
        }
        key
    }
}

/// Spread ordinal `i` of `n` across the full u64 range, preserving order.
///
/// Using a plain counter would make `Sorted` keys compressible and confined
/// to a tiny prefix range; scaling to the full range keeps the first key
/// bytes varied, like real data.
fn ordinal_spread(i: u64, n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    // i * (2^64 - 1) / (n - 1), computed in u128 to avoid overflow.
    ((i as u128 * u64::MAX as u128) / (n as u128 - 1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(dist: KeyDistribution, n: u64, seed: u64) -> Vec<[u8; KEY_LEN]> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|i| dist.key_for(i, n, &mut rng)).collect()
    }

    #[test]
    fn random_keys_are_distinct_with_high_probability() {
        let mut ks = keys(KeyDistribution::Random, 10_000, 1);
        ks.sort();
        ks.dedup();
        assert_eq!(ks.len(), 10_000);
    }

    #[test]
    fn printable_keys_are_printable_and_distinct() {
        let ks = keys(KeyDistribution::RandomPrintable, 5_000, 11);
        assert!(ks
            .iter()
            .all(|k| k.iter().all(|&b| (0x20..0x7F).contains(&b))));
        let mut dedup = ks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5_000); // 95^10 keyspace: collisions absurd
    }

    #[test]
    fn sorted_distribution_is_nondecreasing() {
        let ks = keys(KeyDistribution::Sorted, 5_000, 2);
        assert!(ks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reverse_distribution_is_nonincreasing() {
        let ks = keys(KeyDistribution::Reverse, 5_000, 3);
        assert!(ks.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn nearly_sorted_is_mostly_ordered() {
        let ks = keys(KeyDistribution::NearlySorted { permille: 50 }, 10_000, 4);
        let inversions = ks.windows(2).filter(|w| w[0] > w[1]).count();
        // ~5% displaced; adjacent inversion rate must be well under 15%.
        assert!(inversions < 1_500, "too many inversions: {inversions}");
    }

    #[test]
    fn dup_heavy_has_requested_cardinality() {
        let mut ks = keys(KeyDistribution::DupHeavy { cardinality: 16 }, 10_000, 5);
        ks.sort();
        ks.dedup();
        assert_eq!(ks.len(), 16);
    }

    #[test]
    fn common_prefix_shares_leading_bytes() {
        let ks = keys(KeyDistribution::CommonPrefix { shared: 8 }, 1_000, 6);
        assert!(ks.iter().all(|k| k[..8] == [0xCC; 8]));
        // Tails must still differ (keys mostly distinct).
        let mut tails: Vec<_> = ks.iter().map(|k| [k[8], k[9]]).collect();
        tails.sort();
        tails.dedup();
        assert!(tails.len() > 500);
    }

    #[test]
    fn ordinal_spread_monotone_and_extremal() {
        assert_eq!(ordinal_spread(0, 100), 0);
        assert_eq!(ordinal_spread(99, 100), u64::MAX);
        let vals: Vec<u64> = (0..100).map(|i| ordinal_spread(i, 100)).collect();
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(
            keys(KeyDistribution::Random, 100, 77),
            keys(KeyDistribution::Random, 100, 77)
        );
    }
}
