//! Suppression-grammar edge cases: directives on the last line of a file,
//! multi-rule `allow(...)` lists, allowlist entries naming files that no
//! longer exist, and directives that suppress nothing.

#![expect(clippy::expect_used, reason = "test helpers abort on a bad fixture")]

use bpp_lint::lexer::lex;
use bpp_lint::rules::{SourceFile, Suppressions};
use bpp_lint::{lint_file, Report};

/// Lint a scratch tree holding `src` as `crates/core/src/a.rs` and, when
/// given, a root `lint_allow.txt`.
fn lint_scratch(tag: &str, src: &str, allowlist: Option<&str>) -> Report {
    let root = std::env::temp_dir().join(format!("bpp-lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("crates").join("core").join("src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree must be creatable");
    std::fs::write(src_dir.join("a.rs"), src).expect("scratch source must write");
    if let Some(text) = allowlist {
        std::fs::write(root.join("lint_allow.txt"), text).expect("scratch allowlist must write");
    }
    let report = bpp_lint::lint_root(&root, "scratch");
    let _ = std::fs::remove_dir_all(&root);
    report.expect("scratch tree must lint")
}

fn file(rel: &str, src: &str) -> SourceFile {
    SourceFile::new(rel.to_string(), lex(src).expect("test source must lex"))
}

#[test]
fn directive_on_last_line_of_file_covers_its_own_line() {
    // No trailing newline, no line below the directive: the trailing
    // placement must still suppress the violation on the same line.
    let src = "pub fn f(x: f64) -> bool {\n    x == 1.0 } // bpp-lint: allow(D4): fixture";
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
    let report = lint_scratch(
        "multi",
        "pub fn a(seed: u64) -> R { stream_rng(seed, Stream::Mc) }\n\
         pub fn b(seed: u64, x: f64) -> (R, bool) {\n    \
         // bpp-lint: allow(D7, D4): fixture covering two rules at once\n    \
         (stream_rng(seed, Stream::Mc), x == 1.0)\n\
         }\n",
        None,
    );
    assert_eq!(
        report.diagnostics,
        vec![],
        "both rules in the list must be suppressed"
    );
    assert_eq!(
        report.suppressed, 2,
        "one duplicate stream construction (D7) plus one float == (D4)"
    );
}

#[test]
fn multi_rule_list_still_rejects_unknown_names() {
    let src = "// bpp-lint: allow(D7, D42, D4)\npub fn f() {}\n";
    let f = file("crates/core/src/x.rs", src);
    let mut sup = Suppressions::parse(&f);
    assert_eq!(sup.problems.len(), 1, "D42 is not a registry rule");
    assert!(sup.problems[0].1.contains("D42"));
    // The known names around it still engage.
    assert!(sup.covers("D7", 1));
    assert!(sup.covers("D4", 2));
    assert!(!sup.covers("D10", 1));
}

#[test]
fn d0_cannot_be_suppressed() {
    let src = "// bpp-lint: allow(D0): nice try\npub fn f() {}\n";
    let f = file("crates/core/src/x.rs", src);
    let mut sup = Suppressions::parse(&f);
    assert!(!sup.covers("D0", 1), "D0 must not be suppressible");
    assert_eq!(sup.problems.len(), 1, "naming D0 is itself a problem");
}

#[test]
fn stale_allowlist_entry_is_a_d0_diagnostic() {
    // Linting the committed fixture tree: its lint_allow.txt carries one
    // valid entry (D4 for the server fixture) and one stale path.
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
    // The valid entry suppresses the server fixture's D4 file-wide.
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

#[test]
fn directive_that_suppresses_nothing_is_a_d0_diagnostic() {
    // A scratch tree with a line directive that fires and one directive
    // of each kind that does not (line, file-wide, allowlist).
    let report = lint_scratch(
        "stale",
        "// bpp-lint: allow-file(D10): stale\n\
         pub fn f(x: f64) -> bool {\n    \
         // bpp-lint: allow(D4): fires\n    \
         x == 1.0\n\
         }\n\
         // bpp-lint: allow(D4): stale\n",
        Some("D7 crates/core/src/a.rs # stale\n"),
    );

    let found: Vec<(&str, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        found,
        [
            ("crates/core/src/a.rs", 1, "D0"),
            ("crates/core/src/a.rs", 6, "D0"),
            ("lint_allow.txt", 1, "D0"),
        ],
        "exactly the three stale directives: {:?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("`allow-file(D10)`"));
    assert!(report.diagnostics[1].message.contains("`allow(D4)`"));
    assert!(report.diagnostics[2]
        .message
        .contains("`D7 crates/core/src/a.rs`"));
    assert_eq!(report.suppressed, 1, "the D4");
}
