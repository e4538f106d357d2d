//! Acceptance tests for the expression-level dataflow rules (D11–D13)
//! and the `--fix` applier.
//!
//! The differential test uses the retired token-level D9 check as an
//! oracle: everything D9 could see, D11 must still see (at the same file
//! and line), and the committed cross-statement fixture proves D11 sees
//! strictly more.

use bpp_lint::graph::{Analysis, Workspace};
use bpp_lint::lexer::lex;
use bpp_lint::rules::units::d9_unit_discipline;
use bpp_lint::rules::{ledger, reset, unit_infer, Diagnostic, SourceFile};
use bpp_lint::{fix, lint_root, workspace_root};
use std::path::PathBuf;

fn fixture_analysis(rel: &str) -> Analysis {
    let path = workspace_root()
        .join("crates")
        .join("lint")
        .join("fixtures")
        .join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    Analysis::new(SourceFile::new(
        rel.to_string(),
        lex(&src).expect("fixture must lex"),
    ))
}

fn d11_over(files: &[Analysis]) -> Vec<Diagnostic> {
    let ws = Workspace::build(files, Vec::new(), Vec::new());
    let mut out = Vec::new();
    unit_infer::d11_unit_inference(&ws, &mut out);
    out
}

#[test]
fn d11_supersedes_d9_everything_the_oracle_finds() {
    let files = vec![
        fixture_analysis("crates/core/src/units.rs"),
        fixture_analysis("crates/core/src/units_flow.rs"),
    ];
    let mut d9 = Vec::new();
    for a in &files {
        d9_unit_discipline(&a.file, &mut d9);
    }
    assert!(!d9.is_empty(), "the oracle must find the token-level cases");
    let d11 = d11_over(&files);
    for old in &d9 {
        assert!(
            d11.iter()
                .any(|new| new.file == old.file && new.line == old.line),
            "D11 must cover the D9 finding at {}:{}",
            old.file,
            old.line
        );
    }
}

#[test]
fn d11_flags_the_cross_statement_bug_d9_provably_misses() {
    let files = vec![fixture_analysis("crates/core/src/units_flow.rs")];
    let mut d9 = Vec::new();
    d9_unit_discipline(&files[0].file, &mut d9);
    assert!(
        d9.is_empty(),
        "the token-level check must miss the laundered binding: {d9:?}"
    );
    let d11 = d11_over(&files);
    assert!(
        d11.iter()
            .any(|d| d.line == 8 && d.message.contains("`w` is broadcast-units")),
        "D11 must flag `let w = wait_bu; w + retry_count`: {d11:?}"
    );
}

#[test]
fn d12_flags_leaky_and_double_counting_paths() {
    let files = vec![fixture_analysis("crates/server/src/queue.rs")];
    let ws = Workspace::build(&files, Vec::new(), Vec::new());
    let mut out = Vec::new();
    ledger::d12_ledger_coverage(&ws, &mut out);
    assert!(
        out.iter().any(|d| d
            .message
            .contains("returns `DroppedFull` without incrementing")),
        "the uncounted drop must be flagged: {out:?}"
    );
    assert!(
        out.iter()
            .any(|d| d.message.contains("2 terminal ledger buckets")),
        "the double-counted path must be flagged: {out:?}"
    );
    assert_eq!(out.len(), 2, "the sound twin must stay clean: {out:?}");
}

#[test]
fn d13_flags_fields_the_restart_forgets() {
    let files = vec![fixture_analysis("crates/server/src/admission.rs")];
    let ws = Workspace::build(&files, Vec::new(), Vec::new());
    let mut out = Vec::new();
    reset::d13_reset_coverage(&ws, &mut out);
    let fields: Vec<&str> = out
        .iter()
        .filter_map(|d| d.message.split('`').nth(1))
        .collect();
    assert_eq!(
        fields,
        ["admitted", "backlog"],
        "exactly the two forgotten fields: {out:?}"
    );
}

/// A hermetic scratch tree for the fix tests (no tempfile dependency).
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
fn fix_applies_spanned_replaces_and_inserts_then_reaches_a_fixpoint() {
    let scratch = Scratch::new("fix");
    let root = &scratch.0;
    let lib = root.join("crates").join("core").join("src").join("lib.rs");
    std::fs::write(
        &lib,
        "pub fn mixed(wait_bu: f64, hits_count: f64) -> f64 {\n    wait_bu + hits_count\n}\n",
    )
    .expect("scratch source must write");

    let report = lint_root(root, "scratch").expect("scratch tree must lint");
    let fixed = fix::apply_fixes(root, &report.diagnostics).expect("fixes must apply");
    assert_eq!(
        fixed, 2,
        "one D6 header insert + one D11 cast replace: {:?}",
        report.diagnostics
    );
    let after = std::fs::read_to_string(&lib).expect("fixed source must read");
    assert!(after.starts_with("#![forbid(unsafe_code)]\n"));
    assert!(after.contains("wait_bu + (hits_count as _)"));

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
