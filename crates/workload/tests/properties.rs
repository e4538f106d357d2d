//! Property tests for the workload generators, driven by deterministic
//! generator loops — case `i` derives its inputs from
//! `stream_rng_raw(SEED, i)`, so failures reproduce from the case index
//! alone.

#![expect(
    clippy::disallowed_methods,
    reason = "property cases derive one RNG stream per case index"
)]

use bpp_sim::rng::{stream_rng_raw, Rng};
use bpp_workload::{AccessPattern, AliasTable, NoisePermutation, ThinkTime, Zipf};

const SEED: u64 = 0x5EED_B0DC;
const CASES: u64 = 96;

#[test]
fn zipf_always_normalised() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let n = 1 + rng.random_range(0..2999);
        let theta = rng.random::<f64>() * 2.0;
        let z = Zipf::new(n, theta);
        let sum: f64 = z.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "case {case}: sum {sum}");
    }
}

#[test]
fn zipf_head_mass_monotone() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let n = 2 + rng.random_range(0..498);
        let theta = rng.random::<f64>() * 2.0;
        let k = (1 + rng.random_range(0..498)).min(n - 1);
        let z = Zipf::new(n, theta);
        assert!(
            z.head_mass(k) <= z.head_mass(k + 1) + 1e-12,
            "case {case}: k={k}"
        );
    }
}

#[test]
fn alias_samples_in_range() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let len = 1 + rng.random_range(0..199);
        let weights: Vec<f64> = (0..len).map(|_| rng.random::<f64>() * 10.0).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue; // all-zero draw (essentially impossible, but explicit)
        }
        let t = AliasTable::new(&weights);
        for _ in 0..100 {
            let s = t.sample(&mut rng);
            assert!(s < weights.len(), "case {case}");
            // Zero-weight outcomes never appear.
            assert!(weights[s] > 0.0, "case {case}");
        }
    }
}

#[test]
fn noise_permutation_is_bijective() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let n = 1 + rng.random_range(0..1999);
        let noise = rng.random::<f64>();
        let p = NoisePermutation::new(n, noise, &mut rng);
        let mut seen = vec![false; n];
        for r in 0..n {
            let item = p.item_at_rank(r);
            assert!(!seen[item], "case {case}: item {item} mapped twice");
            seen[item] = true;
            assert_eq!(p.rank_of_item(item), r, "case {case}");
        }
    }
}

#[test]
fn access_pattern_conserves_mass() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let n = 1 + rng.random_range(0..999);
        let noise = rng.random::<f64>();
        let z = Zipf::new(n, 0.95);
        let p = AccessPattern::new(&z, NoisePermutation::new(n, noise, &mut rng));
        let sum: f64 = p.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "case {case}: sum {sum}");
    }
}

#[test]
fn think_time_nonnegative() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let mean = 0.001 + rng.random::<f64>() * 999.999;
        let t = ThinkTime::Exponential { mean };
        for _ in 0..50 {
            let x = t.sample(&mut rng);
            assert!(x >= 0.0 && x.is_finite(), "case {case}: sample {x}");
        }
    }
}
