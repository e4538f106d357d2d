//! Float comparison helpers — the workspace's one blessed home for
//! floating-point equality.
//!
//! Library code compares no floats with `==`/`!=`: clippy's `float_cmp`
//! rejects exact comparisons, and `tests/hygiene.rs` rejects those
//! against a float literal or an `f64::`/`f32::` constant, which
//! `float_cmp` lets through for zero and infinity. Scattered exact
//! comparisons are how NaN sentinels, `-0.0` surprises and tolerance drift
//! sneak into a determinism-critical codebase. Call sites route through
//! these helpers instead, which makes every exact comparison a named,
//! greppable decision:
//!
//! * [`exactly`] / [`exactly_zero`] — *intentional* exact equality, for
//!   sentinel values that are set, never computed (a `0.0` meaning
//!   "disabled", a span that was never advanced);
//! * [`approx_eq`] — tolerance-based equality for anything that has been
//!   through arithmetic.

/// Intentional exact equality between two floats.
///
/// Semantically identical to `a == b` (so `NaN != NaN`, and `-0.0 ==
/// 0.0`); the function exists so exact float comparisons are explicit
/// and centralized: it is the one place library code expects
/// `clippy::float_cmp`.
#[expect(
    clippy::float_cmp,
    reason = "the one place library code compares floats exactly"
)]
pub fn exactly(a: f64, b: f64) -> bool {
    a == b
}

/// Whether `x` is exactly zero (either sign).
///
/// For sentinel zeros that are assigned, never computed — e.g. "this knob
/// is disabled" or "this accumulator was never advanced".
pub fn exactly_zero(x: f64) -> bool {
    exactly(x, 0.0)
}

/// Absolute-tolerance approximate equality: `|a − b| <= abs_tol`.
///
/// NaN compares unequal to everything, infinities only to themselves.
pub fn approx_eq(a: f64, b: f64, abs_tol: f64) -> bool {
    if exactly(a, b) {
        return true; // covers equal infinities, which would yield NaN below
    }
    (a - b).abs() <= abs_tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_matches_native_semantics() {
        assert!(exactly(1.5, 1.5));
        assert!(!exactly(1.5, 1.5000001));
        assert!(!exactly(f64::NAN, f64::NAN));
        assert!(exactly(-0.0, 0.0));
        assert!(exactly(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn exactly_zero_covers_both_signs() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f64::MIN_POSITIVE));
        assert!(!exactly_zero(f64::NAN));
    }

    #[test]
    fn approx_eq_tolerance_and_edge_cases() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.001, 1e-9));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-9));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1e-9));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-9));
    }
}
