//! Fixture: float equality (D4), with a test region that must stay
//! exempt. Wall clocks, threads, hash-order iteration and panics are
//! caught by the workspace's clippy lints, not by bpp-lint.

pub fn is_unit(x: f64) -> bool {
    x == 1.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_inside_tests_is_exempt() {
        let x = 1.0;
        assert!(x == 1.0);
        assert!(super::is_unit(x));
    }
}
