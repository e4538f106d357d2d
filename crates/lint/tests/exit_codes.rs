//! Exit-code contract of the `bpp-lint` binary: 0 clean/report-only,
//! 1 denied diagnostics, 2 usage/IO errors, 3 internal lexer failure
//! under `--deny` (which takes precedence over 1).

#![expect(clippy::expect_used, reason = "test helpers abort on a bad fixture")]

use std::path::Path;
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bpp-lint"))
        .args(args)
        .output()
        .expect("bpp-lint binary must run");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn fixtures() -> String {
    bpp_lint::workspace_root()
        .join("crates")
        .join("lint")
        .join("fixtures")
        .display()
        .to_string()
}

#[test]
fn report_only_mode_exits_zero_even_with_findings() {
    // The fixture tree is full of violations (and one unlexable file),
    // but without --deny the exit must stay 0 so report pipelines (the
    // CI golden drift guard) compose.
    let (code, stdout) = run(&["--root", &fixtures()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("D7"), "report must include the findings");
}

#[test]
fn deny_with_diagnostics_exits_one() {
    // A fixture subtree with violations (stale, unknown-rule and
    // malformed suppressions) but nothing unlexable.
    let root = Path::new(&fixtures()).join("crates").join("client");
    let (code, stdout) = run(&["--root", &root.display().to_string(), "--deny"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("D0"));
}

#[test]
fn deny_with_internal_lexer_error_exits_three() {
    let root = Path::new(&fixtures()).join("broken");
    let (code, stdout) = run(&["--root", &root.display().to_string(), "--deny"]);
    assert_eq!(
        code,
        Some(3),
        "an unlexable file means the lint is broken there, not the code"
    );
    assert!(stdout.contains("lexer error"));
}

#[test]
fn internal_error_surfaces_in_json_report() {
    // The machine-readable path must carry the same signal as the exit
    // code: a lexer failure shows up as a nonzero `internal_errors`.
    let root = Path::new(&fixtures()).join("broken");
    let (code, stdout) = run(&["--root", &root.display().to_string(), "--json", "--deny"]);
    assert_eq!(code, Some(3));
    assert!(stdout.contains("\"version\": 3"));
    assert!(stdout.contains("\"internal_errors\": 1"));
    assert!(stdout.contains("lexer error"));
}

#[test]
fn internal_error_takes_precedence_over_denied_diagnostics() {
    // The full fixture tree has both surviving diagnostics and a lexer
    // failure; 3 must win so CI distinguishes lint bugs from code bugs.
    let (code, _) = run(&["--root", &fixtures(), "--deny"]);
    assert_eq!(code, Some(3));
}

#[test]
fn bad_root_exits_two() {
    let (code, _) = run(&["--root", "/nonexistent/nowhere", "--deny"]);
    assert_eq!(code, Some(2));
}

#[test]
fn unknown_flag_exits_two() {
    let (code, _) = run(&["--frobnicate"]);
    assert_eq!(code, Some(2));
}
