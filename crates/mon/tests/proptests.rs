//! Property-based tests of the monitoring primitives: recording,
//! merging and snapshotting may never lose samples or misplace them
//! across bucket bounds, and the JSON form must round-trip exactly.

use proptest::prelude::*;
use xdaq_mon::{Histogram, HistogramSnapshot, Registry, NUM_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_preserves_counts_and_sum(
        values in proptest::collection::vec(any::<u64>(), 0..500)
    ) {
        let h = Histogram::new();
        let mut sum = 0u64;
        for &v in &values {
            h.record(v);
            sum = sum.wrapping_add(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(s.sum, sum);
    }

    #[test]
    fn every_value_lands_within_its_bucket_bounds(v in any::<u64>()) {
        let i = Histogram::bucket_index(v);
        prop_assert!(i < NUM_BUCKETS);
        let (lo, hi) = Histogram::bucket_bounds(i);
        prop_assert!(v >= lo);
        // Last bucket is closed at u64::MAX; all others are half-open.
        if i == NUM_BUCKETS - 1 {
            prop_assert!(v <= hi);
        } else {
            prop_assert!(v < hi);
        }
    }

    #[test]
    fn merge_is_sample_preserving(
        a in proptest::collection::vec(0u64..(1 << 56), 0..200),
        b in proptest::collection::vec(0u64..(1 << 56), 0..200),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        // Merging two nodes' snapshots equals one node having seen
        // every sample.
        prop_assert_eq!(merged, hall.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity(
        values in proptest::collection::vec(0u64..(1 << 60), 0..200)
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut s = h.snapshot();
        s.merge(&HistogramSnapshot::default());
        prop_assert_eq!(s, h.snapshot());
    }

    #[test]
    fn json_roundtrip_is_exact(
        values in proptest::collection::vec(any::<u64>(), 0..300)
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_value(&s.to_value()).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn quantile_bounds_are_bucket_uppers(
        values in proptest::collection::vec(1u64..1_000_000, 1..300),
        q_pct in 0u32..=100,
    ) {
        let q = f64::from(q_pct) / 100.0;
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let bound = s.quantile(q).unwrap();
        // The reported quantile never understates: at least
        // ceil(q * count) samples are <= bound.
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert!(sorted[rank - 1] <= bound);
    }

    #[test]
    fn registry_counters_sum_like_integers(
        incs in proptest::collection::vec(1u64..1000, 0..100)
    ) {
        let reg = Registry::new();
        let c = reg.counter("test.adds");
        for &n in &incs {
            c.add(n);
        }
        prop_assert_eq!(c.get(), incs.iter().sum::<u64>());
        reg.reset();
        prop_assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_high_water_is_running_max(
        deltas in proptest::collection::vec(-50i64..50, 1..100)
    ) {
        let reg = Registry::new();
        let g = reg.gauge("test.depth");
        let mut level = 0i64;
        let mut peak = 0i64;
        for &d in &deltas {
            level += d;
            g.set(level);
            peak = peak.max(level);
        }
        prop_assert_eq!(g.get(), level);
        prop_assert_eq!(g.high_water(), peak);
    }
}
