//! Acceptance test for the `--fix` applier: every spanned suggestion in a
//! file is applied, and a second pass over the fixed tree is a no-op.

#![expect(clippy::expect_used, reason = "test helpers abort on a bad fixture")]

use bpp_lint::{fix, lint_root};
use std::path::PathBuf;

/// A hermetic scratch tree for the fix test (no tempfile dependency).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bpp-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates").join("core").join("src"))
            .expect("scratch tree must be creatable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn fix_applies_spanned_replaces_then_reaches_a_fixpoint() {
    let scratch = Scratch::new("fix");
    let root = &scratch.0;
    let lib = root.join("crates").join("core").join("src").join("lib.rs");
    std::fs::write(
        &lib,
        "pub fn is_unit(x: f64, y: f64) -> bool {\n    x == 1.0 || y != 0.5\n}\n",
    )
    .expect("scratch source must write");

    let report = lint_root(root, "scratch").expect("scratch tree must lint");
    let fixed = fix::apply_fixes(root, &report.diagnostics).expect("fixes must apply");
    assert_eq!(
        fixed, 2,
        "two D4 approx_eq replaces on one line: {:?}",
        report.diagnostics
    );
    let after = std::fs::read_to_string(&lib).expect("fixed source must read");
    assert!(
        after.contains("approx_eq(x, 1.0) || !approx_eq(y, 0.5)"),
        "{after}"
    );

    // Idempotence: the fixed tree yields no applicable suggestion.
    let report = lint_root(root, "scratch").expect("fixed tree must lint");
    let again = fix::apply_fixes(root, &report.diagnostics).expect("re-fix must run");
    assert_eq!(again, 0, "second --fix must be a no-op");
    assert_eq!(
        std::fs::read_to_string(&lib).expect("source must read"),
        after,
        "the file must be byte-identical after the no-op pass"
    );
}
