//! Key conditioning (§4).
//!
//! "Traditionally, key sort has been used for complex keys where the cost
//! of key extraction and conditioning is a significant part of the key
//! comparison cost. Key conditioning extracts the sort key from each
//! record, transforms the result to allow efficient byte compares, and
//! stores it with the record as an added field. This is often done for
//! keys involving floating point numbers, signed integers, or character
//! strings with non-standard collating sequences."
//!
//! A [`KeyCondition`] maps a typed value to bytes whose unsigned
//! lexicographic order equals the type's natural order, so the conditioned
//! keys drop straight into the (key-prefix, pointer) machinery: the
//! industrial-strength face of AlphaSort's Formula-1 core.
//!
//! ```
//! use alphasort_core::condition::{F64Condition, KeyCondition};
//!
//! let mut neg = [0u8; 8];
//! let mut pos = [0u8; 8];
//! F64Condition::condition(&-1.5, &mut neg);
//! F64Condition::condition(&2.5, &mut pos);
//! assert!(neg < pos); // byte order == numeric order, sign included
//! ```

use alphasort_dmgen::KEY_LEN;

/// A transformation from a typed key to order-preserving bytes.
pub trait KeyCondition {
    /// The source key type.
    type Key;
    /// Conditioned width in bytes.
    const WIDTH: usize;

    /// Write the conditioned form of `key` into `out[..WIDTH]`.
    ///
    /// Guarantee: `a < b` (natural order) ⇔ conditioned(a) < conditioned(b)
    /// (unsigned byte order).
    fn condition(key: &Self::Key, out: &mut [u8]);
}

/// Signed 64-bit integers: flip the sign bit, store big-endian.
pub struct I64Condition;

impl KeyCondition for I64Condition {
    type Key = i64;
    const WIDTH: usize = 8;

    fn condition(key: &i64, out: &mut [u8]) {
        let biased = (*key as u64) ^ (1 << 63);
        out[..8].copy_from_slice(&biased.to_be_bytes());
    }
}

/// IEEE-754 doubles (total order, -NaN < … < NaN): flip all bits of
/// negatives, flip only the sign bit of non-negatives.
pub struct F64Condition;

impl KeyCondition for F64Condition {
    type Key = f64;
    const WIDTH: usize = 8;

    fn condition(key: &f64, out: &mut [u8]) {
        let bits = key.to_bits();
        let conditioned = if bits & (1 << 63) != 0 {
            !bits
        } else {
            bits ^ (1 << 63)
        };
        out[..8].copy_from_slice(&conditioned.to_be_bytes());
    }
}

/// ASCII strings under a case-insensitive collation, padded/truncated to a
/// fixed width (the "non-standard collating sequence" case).
pub struct CaseInsensitiveAscii<const W: usize>;

impl<const W: usize> KeyCondition for CaseInsensitiveAscii<W> {
    type Key = Vec<u8>;
    const WIDTH: usize = W;

    fn condition(key: &Vec<u8>, out: &mut [u8]) {
        for (i, slot) in out[..W].iter_mut().enumerate() {
            *slot = key.get(i).map(|b| b.to_ascii_uppercase()).unwrap_or(0);
        }
    }
}

/// A descending-order wrapper: complements the inner conditioning so the
/// byte order reverses (ORDER BY … DESC).
pub struct Descending<C>(core::marker::PhantomData<C>);

impl<C: KeyCondition> KeyCondition for Descending<C> {
    type Key = C::Key;
    const WIDTH: usize = C::WIDTH;

    fn condition(key: &C::Key, out: &mut [u8]) {
        C::condition(key, out);
        for b in &mut out[..C::WIDTH] {
            *b = !*b;
        }
    }
}

/// Condition a typed key into a benchmark-shaped 10-byte key (truncating or
/// zero-padding), so conditioned data flows through the standard record
/// pipeline.
pub fn condition_to_record_key<C: KeyCondition>(key: &C::Key) -> [u8; KEY_LEN] {
    let mut wide = vec![0u8; C::WIDTH.max(KEY_LEN)];
    C::condition(key, &mut wide);
    let mut out = [0u8; KEY_LEN];
    out.copy_from_slice(&wide[..KEY_LEN]);
    out
}

/// A multi-field composite conditioner built at runtime: fields concatenate
/// in significance order, so unsigned byte order equals (field1, field2, …)
/// lexicographic order — SQL's multi-column ORDER BY. Built via
/// [`composite`].
pub struct CompositeBuilder<T> {
    extractors: Vec<FieldExtractor<T>>,
    width: usize,
}

/// One field's contribution to a composite key.
type FieldExtractor<T> = Box<dyn Fn(&T, &mut Vec<u8>) + Send + Sync>;

/// Start building a composite conditioner over rows of type `T`.
pub fn composite<T>() -> CompositeBuilder<T> {
    CompositeBuilder {
        extractors: Vec::new(),
        width: 0,
    }
}

impl<T> CompositeBuilder<T> {
    /// Add an `i64` field in ascending order.
    pub fn asc_i64(mut self, get: impl Fn(&T) -> i64 + Send + Sync + 'static) -> Self {
        self.width += 8;
        self.extractors.push(Box::new(move |row, out| {
            let mut buf = [0u8; 8];
            I64Condition::condition(&get(row), &mut buf);
            out.extend_from_slice(&buf);
        }));
        self
    }

    /// Add an `f64` field in ascending order.
    pub fn asc_f64(mut self, get: impl Fn(&T) -> f64 + Send + Sync + 'static) -> Self {
        self.width += 8;
        self.extractors.push(Box::new(move |row, out| {
            let mut buf = [0u8; 8];
            F64Condition::condition(&get(row), &mut buf);
            out.extend_from_slice(&buf);
        }));
        self
    }

    /// Add an `i64` field in descending order.
    pub fn desc_i64(mut self, get: impl Fn(&T) -> i64 + Send + Sync + 'static) -> Self {
        self.width += 8;
        self.extractors.push(Box::new(move |row, out| {
            let mut buf = [0u8; 8];
            Descending::<I64Condition>::condition(&get(row), &mut buf);
            out.extend_from_slice(&buf);
        }));
        self
    }

    /// Total conditioned width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Condition one row.
    pub fn condition(&self, row: &T) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.width);
        for f in &self.extractors {
            f(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order_preserved<C: KeyCondition>(keys: &[C::Key])
    where
        C::Key: PartialOrd + core::fmt::Debug,
    {
        for a in keys {
            for b in keys {
                let mut ca = vec![0u8; C::WIDTH];
                let mut cb = vec![0u8; C::WIDTH];
                C::condition(a, &mut ca);
                C::condition(b, &mut cb);
                if a < b {
                    assert!(ca < cb, "{a:?} < {b:?} but {ca:?} >= {cb:?}");
                } else if a > b {
                    assert!(ca > cb, "{a:?} > {b:?} but {ca:?} <= {cb:?}");
                }
            }
        }
    }

    #[test]
    fn i64_conditioning_preserves_order() {
        check_order_preserved::<I64Condition>(&[i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX]);
    }

    #[test]
    fn f64_conditioning_preserves_order() {
        check_order_preserved::<F64Condition>(&[
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            1e300,
            f64::INFINITY,
        ]);
    }

    #[test]
    fn f64_negative_zero_sorts_before_positive_zero() {
        // IEEE total order distinguishes them; -0.0 must not sort after.
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        F64Condition::condition(&-0.0, &mut a);
        F64Condition::condition(&0.0, &mut b);
        assert!(a < b);
    }

    #[test]
    fn case_insensitive_collation() {
        let keys: Vec<Vec<u8>> = ["apple", "Banana", "BANANA", "cherry"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let cond = |k: &Vec<u8>| {
            let mut out = vec![0u8; 8];
            CaseInsensitiveAscii::<8>::condition(k, &mut out);
            out
        };
        assert!(cond(&keys[0]) < cond(&keys[1]));
        assert_eq!(cond(&keys[1]), cond(&keys[2])); // case folds together
        assert!(cond(&keys[2]) < cond(&keys[3]));
    }

    #[test]
    fn descending_reverses() {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        Descending::<I64Condition>::condition(&1, &mut a);
        Descending::<I64Condition>::condition(&2, &mut b);
        assert!(a > b);
    }

    #[test]
    fn composite_orders_by_fields_in_significance_order() {
        #[derive(Debug)]
        struct Row {
            dept: i64,
            salary: f64,
        }
        let c = composite::<Row>()
            .asc_i64(|r| r.dept)
            .desc_i64(|r| r.salary as i64)
            .asc_f64(|r| r.salary);
        assert_eq!(c.width(), 24);

        let rows = [
            Row {
                dept: 1,
                salary: 50_000.0,
            },
            Row {
                dept: 1,
                salary: 40_000.0,
            },
            Row {
                dept: 2,
                salary: 90_000.0,
            },
        ];
        let k0 = c.condition(&rows[0]);
        let k1 = c.condition(&rows[1]);
        let k2 = c.condition(&rows[2]);
        // dept 1 before dept 2 regardless of salary.
        assert!(k0 < k2 && k1 < k2);
        // within dept 1: salary DESC → 50k before 40k.
        assert!(k0 < k1);
    }

    #[test]
    fn condition_to_record_key_pads_and_truncates() {
        let k = condition_to_record_key::<I64Condition>(&7);
        assert_eq!(k.len(), KEY_LEN);
        // 8 conditioned bytes + 2 zero pad.
        assert_eq!(&k[8..], &[0, 0]);

        let wide =
            condition_to_record_key::<CaseInsensitiveAscii<16>>(&b"abcdefghijklmnop".to_vec());
        assert_eq!(&wide[..], b"ABCDEFGHIJ");
    }

    #[test]
    fn conditioned_records_sort_with_the_standard_pipeline() {
        use crate::runform::form_run;
        use alphasort_dmgen::Record;

        let values: Vec<i64> = vec![5, -3, 99, 0, -88, 17, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let rec = Record::with_key(condition_to_record_key::<I64Condition>(v), i as u64);
            buf.extend_from_slice(rec.as_bytes());
        }
        let run = form_run(buf);
        let sorted: Vec<i64> = run
            .iter_sorted()
            .map(|r| values[r.seq() as usize])
            .collect();
        let mut expect = values.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }
}
