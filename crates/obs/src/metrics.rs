//! Metric snapshots: named counters and log₂-bucketed histograms as plain
//! sorted vectors.
//!
//! A [`MetricsSnapshot`] is `PartialEq`, mergeable and serialisable (the
//! payload of the `metrics` run event). Snapshots hold only
//! algorithmic-work counts (never wall-clock), and [`MetricsSnapshot::merge`]
//! is associative and commutative, so folding per-run snapshots in seed
//! order yields bit-identical results for any thread count under a step
//! budget.

use crate::wire::wire_record;
use std::collections::BTreeMap;

/// Maps a value to its histogram bucket: `0 → 0`, otherwise
/// `⌊log₂ v⌋ + 1` (bucket `b ≥ 1` covers `[2^(b−1), 2^b)`), so there are
/// 65 buckets in all.
fn bucket_index(value: u64) -> u32 {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros()
    }
}

wire_record! { nested
/// Histogram state: exact count/sum/min/max plus the non-empty log₂
/// buckets as `(bucket_index, count)` pairs (see
/// [`HistogramSnapshot::record`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}
}

impl HistogramSnapshot {
    /// Records one observation into its log₂ bucket: `0` lands in bucket
    /// 0, any other `v` in bucket `⌊log₂ v⌋ + 1`, which covers
    /// `[2^(b−1), 2^b)`.
    pub fn record(&mut self, value: u64) {
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        let bucket = bucket_index(value);
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one (count/sum add, min/max
    /// combine, buckets add pointwise).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(bucket, n) in &other.buckets {
            *merged.entry(bucket).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

wire_record! { flat
/// Named counters and histograms, sorted by name.
///
/// Snapshots merge **deterministically**: counters and histogram contents
/// sum. The operation is associative and commutative, so a fold over
/// per-run snapshots in seed order is independent of which thread
/// produced which run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}
}

impl MetricsSnapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Merges `other` into `self`: counters sum, histograms merge per
    /// [`HistogramSnapshot::merge`]. The result is sorted by name even
    /// when either operand is not.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = histograms.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_of(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let hs = histogram_of(&[0, 1, 2, 3, 900]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 906);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 900);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
        assert!((hs.mean() - 181.2).abs() < 1e-9);
        // Recording order does not matter: buckets stay sorted.
        assert_eq!(histogram_of(&[900, 3, 0, 2, 1]), hs);
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // Bucket b ≥ 1 covers [2^(b−1), 2^b): an exact power 2^k is the
        // *lowest* value of bucket k+1, never the top of bucket k.
        for k in 0..64u32 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow), k + 1, "2^{k}");
            assert_eq!(histogram_of(&[pow]).buckets, vec![(k + 1, 1)], "2^{k}");
            if pow > 1 {
                assert_eq!(bucket_index(pow - 1), k, "2^{k} - 1");
            }
            // pow + 1 stays in bucket k+1 — except for k = 0, where
            // 2⁰ + 1 = 2 is itself the next power.
            if k > 0 && k < 63 {
                assert_eq!(bucket_index(pow + 1), k + 1, "2^{k} + 1");
            }
        }
        // Top bucket: [2^63, u64::MAX] all land in bucket 64.
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram_snapshot_min_is_zero() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.min, 0);
        assert_eq!(empty.mean(), 0.0);
        // The first observation sets min, even above zero.
        assert_eq!(histogram_of(&[7]).min, 7);
        // Merging an empty histogram keeps min from the non-empty side.
        let mut h = HistogramSnapshot::default();
        h.merge(&histogram_of(&[9, 4]));
        assert_eq!(h.min, 4);
    }

    #[test]
    fn snapshot_merge_is_order_independent() {
        let make = |steps: u64, obs: &[u64]| MetricsSnapshot {
            counters: vec![("steps".into(), steps)],
            histograms: vec![("h".into(), histogram_of(obs))],
        };
        let a = make(10, &[1, 5]);
        let b = make(7, &[0, 64]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("steps"), Some(17));
        let (_, h) = &ab.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 64);
        assert_eq!(h, &histogram_of(&[1, 5, 0, 64]));
    }

    #[test]
    fn merge_with_empty_preserves_self() {
        let mut snap = MetricsSnapshot {
            counters: vec![("c".into(), 3)],
            histograms: Vec::new(),
        };
        let before = snap.clone();
        snap.merge(&MetricsSnapshot::default());
        assert_eq!(snap, before);
    }
}
