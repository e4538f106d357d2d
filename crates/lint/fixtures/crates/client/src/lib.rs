//! Fixture crate root: stream-discipline violations (D1) and suppression
//! directives: one justified, and three that are D0 findings themselves
//! (stale, unknown-rule, and malformed).

/* A nested /* block comment */ still counts as one comment. */

pub fn disciplined(seed: u64) -> u64 {
    // Follows the discipline: named registry constant, never flagged.
    let _rng = stream_rng(seed, streams::RETRY);
    seed
}

pub fn magic_literals(seed: u64) -> u64 {
    let _rng = stream_rng(seed, 3);
    let _seq = SeedSeq::root(seed).named(9);
    seed
}

pub fn suppressed_demo(x: f64) -> bool {
    // bpp-lint: allow(D4): fixture demonstrating a justified suppression
    x == 0.5
}

pub fn stale_demo(seed: u64) -> u64 {
    // bpp-lint: allow(D1): stale, the line below draws no RNG stream
    seed + 1
}

// bpp-lint: allow(D99): unknown rule names are themselves reported
// bpp-lint: deny(D1)
pub fn tricky_lexing<'a>(r: &'a str) -> &'a str {
    let _raw = r##"not code: stream_rng(seed, 42) inside a raw string"##;
    let _byte = b'\'';
    let _ch = 'a';
    r
}
