//! Golden test: linting the committed violation-fixture tree reproduces
//! `results/lint_fixture.json` byte for byte, and the report is stable
//! across consecutive runs.

use bpp_lint::rules::RULES;
use bpp_lint::{lint_root, workspace_root};

#[test]
fn fixture_report_matches_golden_byte_for_byte() {
    let root = workspace_root();
    let fixtures = root.join("crates").join("lint").join("fixtures");
    let golden = std::fs::read_to_string(root.join("results").join("lint_fixture.json"))
        .expect("results/lint_fixture.json must be committed");

    let first = lint_root(&fixtures, "crates/lint/fixtures")
        .expect("fixture tree must lint")
        .to_json_string();
    let second = lint_root(&fixtures, "crates/lint/fixtures")
        .expect("fixture tree must lint")
        .to_json_string();

    assert_eq!(first, second, "lint report must be run-to-run stable");
    assert_eq!(
        first, golden,
        "fixture report drifted from results/lint_fixture.json — \
         regenerate with: cargo run -p bpp-lint -- --root crates/lint/fixtures --json"
    );
}

#[test]
fn fixture_tree_exercises_every_rule() {
    let fixtures = workspace_root()
        .join("crates")
        .join("lint")
        .join("fixtures");
    let report = lint_root(&fixtures, "crates/lint/fixtures").expect("fixture tree must lint");
    for (id, _) in RULES {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == id),
            "no fixture diagnostic exercises rule {id}"
        );
    }
    assert!(
        report.suppressed >= 1,
        "the fixture suppression demo must register as suppressed"
    );
}
