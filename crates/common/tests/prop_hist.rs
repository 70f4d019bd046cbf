//! Property tests for the metrics histogram and hashing utilities.

use afc_common::rng::{hash_bytes, mix64};
use afc_common::{HistSnapshot, Histogram};
use proptest::prelude::*;

#[test]
fn empty_histogram_reads_zero() {
    let s = Histogram::new().snapshot();
    assert_eq!((s.count, s.sum_us, s.mean_us()), (0, 0, 0));
    assert_eq!(s.quantile_us(0.0), 0);
    assert_eq!(s.quantile_us(0.99), 0);
    assert_eq!(s, HistSnapshot::default());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Quantiles are monotone in q, never below the smallest sample and at
    /// most one 1/16-octave bucket above the largest; count and mean are
    /// exact (the sum is tracked outside the buckets).
    #[test]
    fn hist_quantile_properties(mut samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let h = Histogram::new();
        for &s in &samples {
            h.observe_us(s);
        }
        let snap = h.snapshot();
        samples.sort_unstable();
        let (lo, hi) = (samples[0], *samples.last().unwrap());
        prop_assert_eq!(snap.count, samples.len() as u64);
        let mut prev = 0;
        for i in 0..=20 {
            let us = snap.quantile_us(i as f64 / 20.0);
            prop_assert!(us >= prev);
            prev = us;
            prop_assert!(us >= lo, "q below min: {us} < {lo}");
            prop_assert!(us as f64 <= hi as f64 * (1.0 + 1.0 / 16.0), "q above max: {us} > {hi}");
        }
        let sum: u64 = samples.iter().sum();
        prop_assert_eq!(snap.sum_us, sum);
        prop_assert_eq!(snap.mean_us(), sum / samples.len() as u64);
    }

    /// Merging two snapshots equals recording the union into one histogram.
    #[test]
    fn hist_merge_equals_union(a in proptest::collection::vec(1u64..1_000_000, 0..100),
                               b in proptest::collection::vec(1u64..1_000_000, 0..100)) {
        let (ha, hb, hu) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &s in &a { ha.observe_us(s); hu.observe_us(s); }
        for &s in &b { hb.observe_us(s); hu.observe_us(s); }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hu.snapshot());
    }

    /// hash_bytes is a function (equal inputs → equal outputs) and
    /// prefix-sensitive.
    #[test]
    fn hash_function_properties(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hash_bytes(&data), hash_bytes(&data));
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(hash_bytes(&data), hash_bytes(&extended));
    }

    /// mix64 is injective on arbitrary pairs (collision would break straw2
    /// determinism assumptions).
    #[test]
    fn mix64_injective(a in any::<u64>(), b in any::<u64>()) {
        if a != b {
            prop_assert_ne!(mix64(a), mix64(b));
        }
    }
}
