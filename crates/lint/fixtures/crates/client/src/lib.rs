//! Fixture crate root: suppression directives, one justified and three
//! that are D0 findings themselves (stale, unknown-rule, and malformed).

/* A nested /* block comment */ still counts as one comment. */

pub fn suppressed_demo(x: f64) -> bool {
    // bpp-lint: allow(D4): fixture demonstrating a justified suppression
    x == 0.5
}

pub fn stale_demo(seed: u64) -> u64 {
    // bpp-lint: allow(D7): stale, the line below constructs no RNG stream
    seed + 1
}

// bpp-lint: allow(D99): unknown rule names are themselves reported
// bpp-lint: deny(D4)
pub fn tricky_lexing<'a>(r: &'a str) -> &'a str {
    let _raw = r##"not code: stream_rng(seed, 42) inside a raw string"##;
    let _byte = b'\'';
    let _ch = 'a';
    r
}
