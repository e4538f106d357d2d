//! `bpp-lint` CLI: lint the workspace (or `--root <path>`) and print a
//! human-readable or `--json` report; `--deny` exits nonzero on findings.

use std::process::ExitCode;

const USAGE: &str = "\
bpp-lint — determinism & hygiene static analysis for the bpp workspace

USAGE:
    bpp-lint [--root <path>] [--json] [--deny] [--fix] [--timing] [--list-rules]

OPTIONS:
    --root <path>   Lint this tree instead of the workspace root; the
                    report's `root` field echoes the given path verbatim.
    --json          Emit the machine-readable JSON report on stdout.
    --deny          Exit with status 1 if any diagnostic survives
                    suppression, or status 3 if the lexer itself failed
                    on any file (the CI gate).
    --fix           Apply machine-applicable suggestions (spanned
                    replaces) in place, then re-lint; the report
                    describes the fixed tree and its `fixed` field counts
                    the edits. Idempotent: a second --fix applies zero
                    edits.
    --timing        Add per-rule wall-clock (microseconds) to the report:
                    a `timing` member under --json, `timing <phase>`
                    lines in the human summary. Machine-dependent — never
                    use when regenerating the golden fixture.
    --list-rules    Print the rule registry and exit.
    -h, --help      Show this help.

EXIT CODES:
    0   clean, or report-only mode (no --deny)
    1   --deny and at least one diagnostic survived suppression
    2   usage or I/O error
    3   --deny and an internal lexer/parse failure (takes precedence
        over 1: the lint is broken there, not the code)
";

fn main() -> ExitCode {
    let mut root_arg: Option<String> = None;
    let mut json = false;
    let mut deny = false;
    let mut fix = false;
    let mut timing = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root_arg = Some(p),
                None => {
                    eprintln!("bpp-lint: --root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--deny" => deny = true,
            "--fix" => fix = true,
            "--timing" => timing = true,
            "--list-rules" => {
                for (id, summary) in bpp_lint::rules::RULES {
                    println!("{id}  {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bpp-lint: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (root, label) = match &root_arg {
        Some(p) => (std::path::PathBuf::from(p), p.clone()),
        None => (bpp_lint::workspace_root(), ".".to_string()),
    };
    let mut report = match bpp_lint::lint_root_opts(&root, &label, timing) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bpp-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if fix {
        let fixed = match bpp_lint::fix::apply_fixes(&root, &report.diagnostics) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("bpp-lint: cannot apply fixes under {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        if fixed > 0 {
            // Re-lint so the report (and any --deny verdict) describes
            // the tree as fixed, not as found.
            report = match bpp_lint::lint_root_opts(&root, &label, timing) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bpp-lint: cannot re-lint {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
        }
        report.fixed = fixed;
    }
    if json {
        print!("{}", report.to_json_string());
    } else {
        print!("{}", report.render_human());
    }
    if deny {
        if report.internal_errors > 0 {
            return ExitCode::from(3);
        }
        if !report.diagnostics.is_empty() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
