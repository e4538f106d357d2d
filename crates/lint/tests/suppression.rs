//! Suppression-grammar edge cases: directives on the last line of a file,
//! multi-rule `allow(...)` lists, and allowlist entries naming files that
//! no longer exist.

use bpp_lint::lexer::lex;
use bpp_lint::lint_file;
use bpp_lint::rules::{SourceFile, Suppressions};

fn file(rel: &str, src: &str) -> SourceFile {
    SourceFile::new(rel.to_string(), lex(src).expect("test source must lex"))
}

#[test]
fn directive_on_last_line_of_file_covers_its_own_line() {
    // No trailing newline, no line below the directive: the trailing
    // placement must still suppress the violation on the same line.
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() } // bpp-lint: allow(D3): fixture";
    let f = file("crates/core/src/x.rs", src);
    let (diags, suppressed) = lint_file(&f);
    assert_eq!(
        diags,
        vec![],
        "trailing directive on the final line must cover it"
    );
    assert_eq!(suppressed, 1);
}

#[test]
fn one_allow_lists_several_rules() {
    let src = "pub fn f(v: Option<f64>) -> f64 {\n    \
               // bpp-lint: allow(D3, D4): fixture covering two rules at once\n    \
               if v.unwrap() == 1.0 { 1.0 } else { 0.0 }\n}\n";
    let f = file("crates/core/src/x.rs", src);
    let (diags, suppressed) = lint_file(&f);
    assert_eq!(diags, vec![], "both rules in the list must be suppressed");
    assert_eq!(suppressed, 2, "one unwrap (D3) plus one float == (D4)");
}

#[test]
fn multi_rule_list_still_rejects_unknown_names() {
    let src = "// bpp-lint: allow(D3, D42, D4)\npub fn f() {}\n";
    let f = file("crates/core/src/x.rs", src);
    let sup = Suppressions::parse(&f);
    assert_eq!(sup.problems.len(), 1, "D42 is not a registry rule");
    assert!(sup.problems[0].1.contains("D42"));
    // The known names around it still engage.
    assert!(sup.covers("D3", 1));
    assert!(sup.covers("D4", 2));
    assert!(!sup.covers("D6", 1));
}

#[test]
fn d0_cannot_be_suppressed() {
    let src = "// bpp-lint: allow(D0): nice try\npub fn f() {}\n";
    let f = file("crates/core/src/x.rs", src);
    let sup = Suppressions::parse(&f);
    assert!(!sup.covers("D0", 1), "D0 must not be suppressible");
    assert_eq!(sup.problems.len(), 1, "naming D0 is itself a problem");
}

#[test]
fn stale_allowlist_entry_is_a_d0_diagnostic() {
    // Linting the committed fixture tree: its lint_allow.txt carries one
    // valid entry (D6 for the server fixture) and one stale path.
    let fixtures = bpp_lint::workspace_root()
        .join("crates")
        .join("lint")
        .join("fixtures");
    let report = bpp_lint::lint_root(&fixtures, "fixtures").expect("fixture tree must lint");
    let stale: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "lint_allow.txt")
        .collect();
    assert_eq!(stale.len(), 1, "exactly the stale entry is reported");
    assert_eq!(stale[0].rule, "D0");
    assert!(stale[0].message.contains("crates/gone/src/lib.rs"));
    // The valid entry suppresses the server fixture's D6 file-wide.
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.file == "crates/server/src/lib.rs"),
        "allowlisted server fixture must produce no surviving diagnostics"
    );
    assert!(
        report.suppressed >= 2,
        "allowlist suppression must be counted"
    );
}
