//! Property-based tests for the statistics substrate.

use presence_stats::{
    jain_index, max_min_ratio, t_quantile, z_quantile, BatchMeans, BatchMeansConfig, P2Quantile,
    TimeWeighted, Welford,
};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(finite_f64(), 1..max_len)
}

proptest! {
    #[test]
    fn welford_mean_matches_naive(xs in finite_vec(200)) {
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
    }

    #[test]
    fn welford_variance_non_negative(xs in finite_vec(200)) {
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        if xs.len() >= 2 {
            prop_assert!(w.sample_variance() >= -1e-9);
        }
    }

    #[test]
    fn welford_min_max_bracket_mean(xs in finite_vec(100)) {
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        prop_assert!(w.min() <= w.mean() + 1e-9);
        prop_assert!(w.mean() <= w.max() + 1e-9);
    }

    #[test]
    fn jain_index_bounds(xs in prop::collection::vec(0.0..1e6f64, 1..50)) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        if xs.iter().any(|&x| x > 0.0) {
            prop_assert!(j >= 1.0 / n - 1e-9);
            prop_assert!(j <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn jain_scale_invariant(xs in prop::collection::vec(0.1..1e3f64, 2..30), c in 0.1..100.0f64) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * c).collect();
        let a = jain_index(&xs);
        let b = jain_index(&scaled);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn max_min_ratio_at_least_one(xs in prop::collection::vec(0.001..1e4f64, 1..30)) {
        prop_assert!(max_min_ratio(&xs) >= 1.0 - 1e-12);
    }

    #[test]
    fn p2_stays_in_sample_range(xs in prop::collection::vec(-1e3..1e3f64, 5..500), q in 0.01..0.99f64) {
        let mut p = P2Quantile::new(q);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in &xs {
            p.push(x);
            min = min.min(x);
            max = max.max(x);
        }
        let est = p.estimate().unwrap();
        prop_assert!(est >= min - 1e-9, "estimate {} below min {}", est, min);
        prop_assert!(est <= max + 1e-9, "estimate {} above max {}", est, max);
    }

    #[test]
    fn p2_median_reasonable_for_uniform(n in 100usize..2000) {
        let mut p = P2Quantile::new(0.5);
        let mut s: u64 = 0x853c49e6748fea9b;
        for _ in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.push((s >> 11) as f64 / (1u64 << 53) as f64);
        }
        let est = p.estimate().unwrap();
        prop_assert!((est - 0.5).abs() < 0.25);
    }

    #[test]
    fn time_weighted_accumulator_in_value_range(
        steps in prop::collection::vec((0.0..100.0f64, 0.0..50.0f64), 1..40),
        horizon in 101.0..200.0f64,
    ) {
        let mut sorted = steps;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut tw = TimeWeighted::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(t, v) in &sorted {
            tw.set(t, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let m = tw.mean_until(horizon).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn t_quantile_above_normal(p in 0.55..0.999f64, df in 3u64..200) {
        // Student-t has heavier tails than the normal distribution.
        prop_assert!(t_quantile(p, df) >= z_quantile(p) - 1e-6);
    }

    #[test]
    fn t_quantile_decreasing_in_df(p in 0.75..0.999f64) {
        let t5 = t_quantile(p, 5);
        let t50 = t_quantile(p, 50);
        let t500 = t_quantile(p, 500);
        prop_assert!(t5 >= t50 - 1e-9);
        prop_assert!(t50 >= t500 - 1e-9);
    }

    #[test]
    fn batch_means_mean_within_data_range(xs in prop::collection::vec(0.0..100.0f64, 50..400)) {
        let cfg = BatchMeansConfig {
            warmup: 0,
            batch_size: 10,
            min_batches: 2,
            level: 0.95,
            target_relative_half_width: 0.1,
        };
        let mut bm = BatchMeans::new(cfg).unwrap();
        for &x in &xs {
            bm.push(x);
        }
        if bm.batches() > 0 {
            let m = bm.mean();
            prop_assert!((-1e-9..=100.0 + 1e-9).contains(&m));
        }
    }
}
