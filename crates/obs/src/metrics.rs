//! Metrics: counters, gauges and log-scale histograms.
//!
//! Like the span recorder, the metrics store is process-global and gated by
//! the same enabled flag, so instrumented sites are one relaxed load when no
//! observability was requested. Names are `&'static str` — the set of
//! metrics is fixed at compile time, per-entity detail (disk, peer, run)
//! belongs in span attributes, not metric names.
//!
//! Histograms use power-of-two buckets: bucket 0 holds exactly the value 0
//! and bucket *k* ≥ 1 holds `[2^(k−1), 2^k)`, so a boundary value `2^k` is
//! always the *lowest* value of bucket `k+1`. That gives a fixed 65-slot
//! footprint covering the full `u64` range — per-run sort latencies in
//! microseconds and per-frame exchange sizes in bytes both fit without
//! configuration.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use alphasort_minijson::Json;

use crate::recorder::is_enabled;

/// Number of histogram buckets: the zero bucket plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-footprint, log2-bucketed histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `64 − leading_zeros`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Half-open `[lo, hi)` range of bucket `i` (bucket 0 is `[0, 1)`).
    pub fn bucket_bounds(i: usize) -> (u64, u128) {
        assert!(i < HISTOGRAM_BUCKETS);
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u128 << i)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by walking the
    /// log2 buckets and linearly interpolating within the bucket that
    /// contains the target rank.
    ///
    /// The interpolation range of the first and last non-empty buckets is
    /// clamped to the observed `min`/`max`, so `quantile(0.0)` is exactly
    /// the minimum and `quantile(1.0)` exactly the maximum. For interior
    /// quantiles the estimate lands inside the true value's power-of-two
    /// bucket — a worst-case factor-of-two error, and far tighter when the
    /// distribution is locally uniform (linear interpolation is then
    /// exact up to bucket granularity). Returns `None` when empty.
    ///
    /// ```
    /// let mut h = alphasort_obs::Histogram::default();
    /// for v in 0..1000u64 {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.quantile(0.0), Some(0.0));
    /// assert_eq!(h.quantile(1.0), Some(999.0));
    /// let p50 = h.quantile(0.5).unwrap();
    /// assert!((p50 - 500.0).abs() < 20.0, "{p50}");
    /// ```
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min as f64);
        }
        if q == 1.0 {
            return Some(self.max as f64);
        }
        let target = q * self.count as f64;
        let mut seen = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let c = self.counts[i];
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                // The bucket holding `min` starts at `min`, the bucket
                // holding `max` ends just past `max`: never extrapolate
                // beyond observed data.
                let lo = (lo as f64).max(self.min as f64);
                let hi = (hi as f64).min(self.max as f64 + 1.0);
                let frac = (target - seen as f64) / c as f64;
                return Some(lo + frac * (hi - lo).max(0.0));
            }
            seen += c;
        }
        Some(self.max as f64)
    }

    /// Full-fidelity JSON encoding: every non-empty bucket by index, plus
    /// the summary fields, so [`from_json`](Self::from_json) reconstructs
    /// the histogram exactly. This is the format histograms travel in —
    /// sortd's `metrics` request and every `--metrics-out` file; a bucket's
    /// value range is [`bucket_bounds`](Self::bucket_bounds) of its index.
    ///
    /// JSON integers here are `i64`, so a field past `i64::MAX` — a
    /// saturated `sum`, a `max` near `u64::MAX` — is written as `i64::MAX`:
    /// it decodes saturated instead of making the whole document unreadable.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from(i as u64), int(c)]))
            .collect();
        Json::Obj(vec![
            ("count".to_string(), int(self.count)),
            ("sum".to_string(), int(self.sum)),
            ("min".to_string(), int(self.min().unwrap_or(0))),
            ("max".to_string(), int(self.max().unwrap_or(0))),
            ("buckets".to_string(), Json::Arr(buckets)),
        ])
    }

    /// Decode a histogram encoded by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Result<Histogram, String> {
        let mut h = Histogram {
            count: doc.field_u64("count").map_err(|e| e.to_string())?,
            sum: doc.field_u64("sum").map_err(|e| e.to_string())?,
            min: doc.field_u64("min").map_err(|e| e.to_string())?,
            max: doc.field_u64("max").map_err(|e| e.to_string())?,
            counts: [0; HISTOGRAM_BUCKETS],
        };
        if h.count == 0 {
            // `min` is meaningless when empty; restore the sentinel.
            h.min = u64::MAX;
        }
        for b in doc.field_arr("buckets").map_err(|e| e.to_string())? {
            let pair = b.as_arr().ok_or("bucket entry is not a pair")?;
            let (idx, c) = match pair {
                [i, c] => (
                    i.as_u64().ok_or("bucket index is not an integer")?,
                    c.as_u64().ok_or("bucket count is not an integer")?,
                ),
                _ => return Err("bucket entry is not a [index, count] pair".into()),
            };
            if idx as usize >= HISTOGRAM_BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            h.counts[idx as usize] = c;
        }
        Ok(h)
    }

    /// This histogram minus an earlier one (per-bucket saturating).
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for i in 0..HISTOGRAM_BUCKETS {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        // min/max cannot be un-merged; keep the later window's extremes.
        out.min = if out.count > 0 { self.min } else { u64::MAX };
        out.max = if out.count > 0 { self.max } else { 0 };
        out
    }
}

/// A `u64` as a JSON integer, saturated at `i64::MAX`. (`Json::from(u64)`
/// falls back to a float there, which no decoder here accepts.)
fn int(n: u64) -> Json {
    Json::Int(n.min(i64::MAX as u64) as i64)
}

#[derive(Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

pub(crate) fn reset_store() {
    let mut s = store().lock().unwrap();
    *s = Store::default();
}

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *store().lock().unwrap().counters.entry(name).or_insert(0) += delta;
}

/// Set the named gauge to `value`.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    store().lock().unwrap().gauges.insert(name, value);
}

/// Adjust the named gauge by `delta` (e.g. queue depth up/down).
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if !is_enabled() {
        return;
    }
    *store().lock().unwrap().gauges.entry(name).or_insert(0) += delta;
}

/// Record `value` in the named log-scale histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    store()
        .lock()
        .unwrap()
        .histograms
        .entry(name)
        .or_default()
        .record(value);
}

/// A copy of every metric at one moment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counters and histogram counts since `earlier`; gauges keep their
    /// current value (a gauge has no meaningful delta).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let out = match earlier.histograms.get(k) {
                    Some(prev) => h.diff(prev),
                    None => h.clone(),
                };
                (k.clone(), out)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Round-trippable JSON encoding: `counters`/`gauges`/`histograms`
    /// objects, with each histogram in its full-fidelity
    /// [`Histogram::to_json`] form. This is the one metrics document: the
    /// sortd `metrics` request answers with it (plus its own envelope
    /// fields) and `--metrics-out` writes it;
    /// [`from_json`](Self::from_json) on the receiving side restores a
    /// snapshot that diffs and quantiles exactly like the original.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), int(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode a snapshot from [`to_json`](Self::to_json) output. Unknown
    /// sibling fields (a carrying document's envelope) are ignored; a
    /// missing section decodes as empty.
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        fn entries(doc: &Json, key: &str) -> Result<Vec<(String, Json)>, String> {
            match doc.get(key) {
                None => Ok(Vec::new()),
                Some(Json::Obj(fields)) => Ok(fields.clone()),
                Some(_) => Err(format!("{key} is not an object")),
            }
        }
        let mut snap = MetricsSnapshot::default();
        for (k, v) in entries(doc, "counters")? {
            let n = v.as_u64().ok_or_else(|| format!("counter {k} is not a u64"))?;
            snap.counters.insert(k, n);
        }
        for (k, v) in entries(doc, "gauges")? {
            let n = match v {
                Json::Int(n) => n,
                _ => return Err(format!("gauge {k} is not an integer")),
            };
            snap.gauges.insert(k, n);
        }
        for (k, v) in entries(doc, "histograms")? {
            let h = Histogram::from_json(&v).map_err(|e| format!("histogram {k}: {e}"))?;
            snap.histograms.insert(k, h);
        }
        Ok(snap)
    }
}

/// Copy out every metric recorded so far.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let s = store().lock().unwrap();
    MetricsSnapshot {
        counters: s
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges: s.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        histograms: s
            .histograms
            .iter()
            .map(|(&k, h)| (k.to_string(), h.clone()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 2^k must be the lowest value of bucket k+1, never the top of
        // bucket k — the satellite's exactness requirement.
        for k in 0..63u32 {
            let v = 1u64 << k;
            let idx = Histogram::bucket_index(v);
            assert_eq!(idx, k as usize + 1, "2^{k}");
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(lo, v, "2^{k} opens its bucket");
            assert_eq!(hi, (v as u128) * 2);
            if v > 1 {
                // One less lands in the previous bucket.
                assert_eq!(Histogram::bucket_index(v - 1), k as usize);
            }
        }
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        assert_eq!(h.bucket_count(0), 1); // 0
        assert_eq!(h.bucket_count(1), 1); // 1
        assert_eq!(h.bucket_count(2), 2); // 2, 3
        assert_eq!(h.bucket_count(3), 1); // 4
        assert_eq!(h.bucket_count(11), 1); // 1024
        let occupied = (0..HISTOGRAM_BUCKETS).filter(|&i| h.bucket_count(i) > 0);
        assert_eq!(occupied.count(), 5);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn quantile_of_point_mass_pins_the_value() {
        // Every observation is 1000: any quantile must land within the
        // one-value interpolation range [1000, 1001).
        let mut h = Histogram::default();
        for _ in 0..500 {
            h.record(1_000);
        }
        assert_eq!(h.quantile(0.0), Some(1_000.0));
        assert_eq!(h.quantile(1.0), Some(1_000.0));
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!((1_000.0..1_001.0).contains(&v), "q={q} -> {v}");
        }
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-3.0), Some(1_000.0));
        assert_eq!(h.quantile(7.0), Some(1_000.0));
    }

    #[test]
    fn quantile_of_uniform_distribution_interpolates_tightly() {
        // Uniform over [0, 65536): within a log2 bucket the distribution is
        // uniform, so linear interpolation should be accurate to well under
        // 1% — this is the accuracy bound the satellite pins.
        let mut h = Histogram::default();
        for v in 0..65_536u64 {
            h.record(v);
        }
        for (q, want) in [(0.10, 6_553.6), (0.50, 32_768.0), (0.90, 58_982.4)] {
            let got = h.quantile(q).unwrap();
            let err = (got - want).abs() / want;
            assert!(err < 0.01, "q={q}: got {got}, want {want} (err {err:.4})");
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(65_535.0));
    }

    #[test]
    fn quantile_of_two_clusters_stays_in_the_right_bucket() {
        // Half the mass at 10, half at 1_000_000. Quantiles clearly inside
        // a cluster must land in that cluster's power-of-two bucket —
        // the log2 worst-case bound — and the low cluster's clamped bucket
        // is [10, 11), so those are near-exact.
        let mut h = Histogram::default();
        for _ in 0..500 {
            h.record(10);
            h.record(1_000_000);
        }
        // The low cluster's bucket is [8, 16), clamped below by min=10:
        // interpolation may land anywhere in [10, 16), never outside it.
        let low = h.quantile(0.25).unwrap();
        assert!((10.0..16.0).contains(&low), "q=0.25 -> {low}");
        let high = h.quantile(0.75).unwrap();
        // 1_000_000's bucket is [2^19, 2^20) = [524288, 1048576), clamped
        // above by max+1.
        assert!(
            (524_288.0..1_000_001.0).contains(&high),
            "q=0.75 -> {high}"
        );
        // The median sits at the cluster boundary; it must not wander past
        // the low cluster's bucket.
        let mid = h.quantile(0.5).unwrap();
        assert!(mid <= 16.0, "q=0.50 -> {mid}");
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(1_000_000.0));
    }

    #[test]
    fn histogram_json_roundtrips_exactly() {
        // Values up to 2^40: well past 32 bits, still inside minijson's
        // faithful i64 integer range (counts and sums past 2^63 would
        // round-trip through Float and lose exactness).
        let mut h = Histogram::default();
        for v in [0u64, 1, 7, 1_000, 1_000, 1 << 40] {
            h.record(v);
        }
        let doc = h.to_json();
        // Survives an actual wire trip through the parser.
        let parsed = Json::parse(&doc.dump()).unwrap();
        let back = Histogram::from_json(&parsed).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.quantile(0.5), h.quantile(0.5));

        // Empty histograms restore their min sentinel.
        let empty = Histogram::from_json(&Histogram::default().to_json()).unwrap();
        assert_eq!(empty, Histogram::default());
        assert_eq!(empty.min(), None);

        // Corrupt bucket indexes are an error, not a panic.
        let bad = Json::parse(
            r#"{"count":1,"sum":1,"min":1,"max":1,"buckets":[[99,1]]}"#,
        )
        .unwrap();
        assert!(Histogram::from_json(&bad).unwrap_err().contains("out of range"));
    }

    #[test]
    fn values_past_i64_max_saturate_instead_of_poisoning_the_document() {
        // Written as floats, a saturated sum, a max of u64::MAX or such a
        // counter would make `from_json` refuse the whole snapshot.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(7);
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("c".into(), u64::MAX);
        snap.histograms.insert("h".into(), h.clone());
        let text = snap.to_json().dump();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        let got = &back.histograms["h"];
        assert_eq!(got.count(), 2);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(got.bucket_count(i), h.bucket_count(i), "bucket {i}");
        }
        let cap = i64::MAX as u64;
        assert_eq!((got.sum(), got.min(), got.max()), (cap, Some(7), Some(cap)));
        assert_eq!(back.counters["c"], cap);
    }

    #[test]
    fn snapshot_json_roundtrips_and_tolerates_envelopes() {
        let mut h = Histogram::default();
        h.record(42);
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("jobs.done".into(), 17);
        snap.gauges.insert("queue.depth".into(), -2);
        snap.histograms.insert("e2e_us".into(), h);
        let doc = snap.to_json();
        let back = MetricsSnapshot::from_json(&Json::parse(&doc.dump()).unwrap()).unwrap();
        assert_eq!(back, snap);

        // A carrying document with envelope fields (the sortd metrics
        // response shape) decodes the same snapshot.
        let mut fields = vec![
            ("type".to_string(), Json::from("metrics")),
            ("uptime_ms".to_string(), Json::from(1234u64)),
        ];
        if let Json::Obj(inner) = doc {
            fields.extend(inner);
        }
        let envelope = Json::Obj(fields);
        assert_eq!(MetricsSnapshot::from_json(&envelope).unwrap(), snap);

        // Missing sections decode as empty rather than erroring.
        let empty = MetricsSnapshot::from_json(&Json::Obj(vec![])).unwrap();
        assert_eq!(empty, MetricsSnapshot::default());
    }

    #[test]
    fn store_roundtrip_and_diff() {
        let _l = test_lock();
        crate::recorder::enable(64);
        counter_add("bytes", 100);
        gauge_set("depth", 3);
        observe("lat_us", 8);
        let first = metrics_snapshot();
        counter_add("bytes", 50);
        gauge_add("depth", -1);
        observe("lat_us", 16);
        let second = metrics_snapshot();
        crate::recorder::disable();

        assert_eq!(first.counters["bytes"], 100);
        assert_eq!(second.counters["bytes"], 150);
        assert_eq!(second.gauges["depth"], 2);
        let d = second.diff(&first);
        assert_eq!(d.counters["bytes"], 50);
        assert_eq!(d.histograms["lat_us"].count(), 1);
        assert_eq!(d.histograms["lat_us"].bucket_count(5), 1); // 16 → [16,32)
    }

    #[test]
    fn disabled_metrics_are_noops() {
        let _l = test_lock();
        crate::recorder::disable();
        crate::recorder::reset();
        counter_add("bytes", 1);
        observe("lat", 1);
        gauge_set("g", 1);
        let s = metrics_snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
    }
}
