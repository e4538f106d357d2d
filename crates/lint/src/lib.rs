//! # bpp-lint — in-tree determinism & hygiene static analysis
//!
//! The reproduction's headline guarantee — every experiment is bit-for-bit
//! deterministic from one `u64` seed — is a property of the *whole*
//! workspace, not of any single call site: one magic RNG stream id, one
//! wall-clock read, or one `HashMap` iteration anywhere in a sim-affecting
//! crate silently re-randomises published numbers. `bpp-lint` enforces
//! those invariants the same way the workspace does everything else:
//! fully in-tree, zero external dependencies.
//!
//! The binary lexes every `.rs` file in the workspace with a real Rust
//! lexer ([`lexer`]), recovers the item structure with a lightweight
//! parser ([`parse`]), and evaluates the rule set ([`rules`], D0–D13)
//! in two phases: single-file token rules, then cross-file semantic
//! rules over a [`graph::Workspace`] — stream-flow and dead-artifact
//! analysis, plus the expression-level dataflow rules
//! (unit inference over per-function CFGs ([`expr`], [`cfg`](mod@cfg),
//! [`dataflow`]), ledger-bucket coverage, reset coverage). Suppressions
//! (`// bpp-lint: allow(<rule>)` comments and a root-level
//! `lint_allow.txt`) apply to both phases. Diagnostics are ordered
//! deterministically (file path, then line, then rule), and `--json`
//! emits a machine-readable schema-v3 report via `bpp-json` that is
//! byte-for-byte reproducible — the `results/lint_fixture.json` golden
//! test pins it. (`--timing` adds a non-deterministic `timing` member;
//! golden regeneration must not pass it.)
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run --release -p bpp-lint            # human-readable report
//! cargo run --release -p bpp-lint -- --deny  # CI gate: nonzero exit on findings
//! cargo run --release -p bpp-lint -- --json  # machine-readable report
//! cargo run --release -p bpp-lint -- --fix   # apply machine-applicable suggestions
//! ```
//!
//! Exit codes under `--deny`: `0` clean, `1` surviving diagnostics, `3`
//! internal lexer failure (the lint itself is broken, not the code);
//! `2` is usage/IO errors. Without `--deny` the exit is always `0` so
//! report generation (golden regeneration, drift guards) stays pipeable.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod expr;
pub mod fix;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

use bpp_json::{Json, ToJson};
use graph::{Analysis, Workspace};
use rules::{check_file, known_rule, Diagnostic, SourceFile, Suppressions, RULES, TOKEN_RULES};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory names never descended into: build output, VCS state, the
/// lint crate's own violation fixtures, and committed experiment results.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "results"];

/// The outcome of linting a tree.
#[derive(Debug, Clone)]
pub struct Report {
    /// The root label the report was produced for (as given, not
    /// canonicalized, so reports are machine-independent).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Files the lexer failed on — the lint is broken there, not the
    /// code. Counted separately so CI can distinguish (exit 3 vs 1); each
    /// failure also surfaces as a D0 diagnostic.
    pub internal_errors: usize,
    /// Surviving diagnostics, sorted by (file, line, rule, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics silenced by `bpp-lint: allow` directives.
    pub suppressed: usize,
    /// Per-rule suppressed counts (not serialized; feeds the human
    /// summary).
    pub suppressed_by_rule: BTreeMap<&'static str, usize>,
    /// Edits applied by `--fix` (always serialized; `0` without the
    /// flag, so the CI idempotence gate can grep for `"fixed": 0`).
    pub fixed: usize,
    /// Per-phase wall-clock in microseconds, keyed by rule id plus the
    /// `lex` / `parse` pseudo-phases. Present only under `--timing` —
    /// the values are machine-dependent, so the byte-stable golden is
    /// generated without it.
    pub timing: Option<BTreeMap<String, u64>>,
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("file", self.file.to_json()),
            ("line", u64::from(self.line).to_json()),
            ("rule", self.rule.to_json()),
            ("message", self.message.to_json()),
        ];
        if let Some(s) = &self.suggestion {
            let mut sm = vec![
                ("line", u64::from(s.line).to_json()),
                ("kind", s.kind.to_json()),
                ("text", s.text.to_json()),
            ];
            if let Some((a, b)) = s.span {
                sm.push((
                    "span",
                    Json::Arr(vec![u64::from(a).to_json(), u64::from(b).to_json()]),
                ));
            }
            members.push(("suggestion", Json::object(sm)));
        }
        Json::object(members)
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("version", 3u64.to_json()),
            ("root", self.root.to_json()),
            ("files", (self.files as u64).to_json()),
            ("internal_errors", (self.internal_errors as u64).to_json()),
            ("diagnostics", self.diagnostics.to_json()),
            ("suppressed", (self.suppressed as u64).to_json()),
            ("fixed", (self.fixed as u64).to_json()),
        ];
        if let Some(timing) = &self.timing {
            members.push((
                "timing",
                Json::object(timing.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ));
        }
        Json::object(members)
    }
}

impl Report {
    /// The pretty-printed JSON document (trailing newline included), the
    /// exact bytes the golden test pins.
    pub fn to_json_string(&self) -> String {
        let mut s = bpp_json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Human-readable `file:line: rule: message` lines plus a per-rule
    /// count summary (rules with nothing to report are elided).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                d.file, d.line, d.rule, d.message
            ));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!(
                    "    suggestion ({} line {}): {}\n",
                    s.kind, s.line, s.text
                ));
            }
        }
        for (id, _) in RULES {
            let active = self.diagnostics.iter().filter(|d| d.rule == id).count();
            let silenced = self.suppressed_by_rule.get(id).copied().unwrap_or(0);
            if active > 0 || silenced > 0 {
                out.push_str(&format!(
                    "rule {id}: {active} diagnostic(s), {silenced} suppressed\n"
                ));
            }
        }
        if let Some(timing) = &self.timing {
            let total: u64 = timing.values().sum();
            for (phase, us) in timing {
                out.push_str(&format!("timing {phase}: {us} us\n"));
            }
            out.push_str(&format!("timing total: {total} us\n"));
        }
        if self.fixed > 0 {
            out.push_str(&format!("bpp-lint --fix: applied {} edit(s)\n", self.fixed));
        }
        out.push_str(&format!(
            "bpp-lint: {} file(s), {} diagnostic(s), {} suppressed, {} internal error(s)\n",
            self.files,
            self.diagnostics.len(),
            self.suppressed,
            self.internal_errors
        ));
        out
    }
}

/// The workspace root, derived from this crate's manifest directory at
/// compile time (robust to whatever directory the binary is run from).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Recursively collect root-relative paths of `.rs` files under `dir`,
/// skipping [`SKIP_DIRS`]. Paths use forward slashes on every platform.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint one already-lexed file in isolation: single-file rules plus
/// suppressions. Cross-file rules need [`lint_root`]. Returns surviving
/// diagnostics and the suppressed ones (with their rule ids).
pub fn lint_file(file: &SourceFile) -> (Vec<Diagnostic>, usize) {
    let sup = Suppressions::parse(file);
    let mut out: Vec<Diagnostic> = d0_problems(file, &sup);
    let mut suppressed = 0usize;
    for d in check_file(file) {
        if sup.covers(d.rule, d.line) {
            suppressed += 1;
        } else {
            out.push(d);
        }
    }
    (out, suppressed)
}

fn d0_problems(file: &SourceFile, sup: &Suppressions) -> Vec<Diagnostic> {
    sup.problems
        .iter()
        .map(|(line, msg)| Diagnostic {
            file: file.rel.clone(),
            line: *line,
            rule: "D0",
            message: msg.clone(),
            suggestion: None,
        })
        .collect()
}

/// One entry of the root-level `lint_allow.txt`:
/// `<rule> <path> [# justification]` per line, `#`-prefixed comment lines
/// and blank lines ignored.
struct AllowEntry {
    rule: String,
    path: String,
    line: u32,
}

fn parse_allow_file(text: &str) -> (Vec<AllowEntry>, Vec<(u32, String)>) {
    let mut entries = Vec::new();
    let mut problems = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = (i + 1) as u32;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let (Some(rule), Some(path), None) = (parts.next(), parts.next(), parts.next()) else {
            problems.push((
                line,
                format!("malformed lint_allow.txt entry `{content}`: expected `<rule> <path>`"),
            ));
            continue;
        };
        if !known_rule(rule) {
            problems.push((line, format!("unknown rule `{rule}` in lint_allow.txt")));
            continue;
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
        });
    }
    (entries, problems)
}

/// Read a root-relative text file, if present.
fn read_optional(root: &Path, rel: &str) -> Option<String> {
    std::fs::read_to_string(root.join(rel)).ok()
}

/// Names of `results/*.csv` / `results/*.json` artifacts under `root`.
fn collect_artifacts(root: &Path) -> Vec<String> {
    let Ok(rd) = std::fs::read_dir(root.join("results")) else {
        return Vec::new();
    };
    let mut out: Vec<String> = rd
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name.ends_with(".csv") || name.ends_with(".json")).then_some(name)
        })
        .collect();
    out.sort();
    out
}

/// Raw text of `scripts/*` and `.github/workflows/*` under `root` —
/// non-Rust artifact reference sources for rule D10.
fn collect_reference_texts(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for dir in ["scripts", ".github/workflows"] {
        let Ok(rd) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if let Ok(text) = std::fs::read_to_string(&p) {
                out.push(text);
            }
        }
    }
    out
}

/// Lint every `.rs` file under `root`, labelling the report with
/// `root_label` (kept verbatim so output does not depend on the machine's
/// absolute paths). Runs both phases: single-file token rules, then the
/// cross-file semantic rules (D7, D10–D13) over the whole tree.
pub fn lint_root(root: &Path, root_label: &str) -> io::Result<Report> {
    lint_root_opts(root, root_label, false)
}

/// Accumulate elapsed microseconds for one timed phase.
fn record(timing: &mut Option<BTreeMap<String, u64>>, phase: &str, since: Instant) {
    if let Some(t) = timing {
        *t.entry(phase.to_string()).or_insert(0) +=
            u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX);
    }
}

/// [`lint_root`] with options: when `timing` is set the report carries
/// per-rule wall-clock (microseconds, machine-dependent — never part of
/// the byte-stable golden).
pub fn lint_root_opts(root: &Path, root_label: &str, timing: bool) -> io::Result<Report> {
    let mut timing: Option<BTreeMap<String, u64>> = timing.then(BTreeMap::new);
    let mut rels = Vec::new();
    collect_rs(root, root, &mut rels)?;
    rels.sort();

    // Phase 0: lex + parse everything; lexer failures are internal errors.
    let mut analyses: Vec<Analysis> = Vec::new();
    let mut sups: Vec<Suppressions> = Vec::new();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut internal_errors = 0usize;
    for rel in &rels {
        let src =
            std::fs::read_to_string(root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR)))?;
        let t0 = Instant::now();
        let lexed = lexer::lex(&src);
        record(&mut timing, "lex", t0);
        match lexed {
            Ok(tokens) => {
                let file = SourceFile::new(rel.clone(), tokens);
                let t0 = Instant::now();
                analyses.push(Analysis::new(file));
                record(&mut timing, "parse", t0);
            }
            Err(e) => {
                internal_errors += 1;
                raw.push(Diagnostic {
                    file: rel.clone(),
                    line: e.line,
                    rule: "D0",
                    message: format!("lexer error: {}", e.msg),
                    suggestion: None,
                });
            }
        }
    }

    // Root-level allowlist: file-wide suppressions by path; an entry
    // naming a path that was not scanned is a D0 diagnostic.
    let mut allow_by_path: BTreeMap<String, Vec<String>> = BTreeMap::new();
    if let Some(text) = read_optional(root, "lint_allow.txt") {
        let (entries, problems) = parse_allow_file(&text);
        for (line, msg) in problems {
            raw.push(Diagnostic {
                file: "lint_allow.txt".to_string(),
                line,
                rule: "D0",
                message: msg,
                suggestion: None,
            });
        }
        for e in entries {
            if analyses.iter().any(|a| a.file.rel == e.path) {
                allow_by_path.entry(e.path).or_default().push(e.rule);
            } else {
                raw.push(Diagnostic {
                    file: "lint_allow.txt".to_string(),
                    line: e.line,
                    rule: "D0",
                    message: format!(
                        "lint_allow.txt entry for `{}` names a file that no longer exists",
                        e.path
                    ),
                    suggestion: None,
                });
            }
        }
    }

    // Phase 1: per-file suppressions, then the token rules rule-major so
    // each rule's cost is attributable (diagnostic order is irrelevant —
    // everything is sorted at the end).
    for a in &analyses {
        let mut sup = Suppressions::parse(&a.file);
        if let Some(rules) = allow_by_path.get(&a.file.rel) {
            for r in rules {
                sup.add_file_rule(r);
            }
        }
        raw.extend(d0_problems(&a.file, &sup));
        sups.push(sup);
    }
    for (id, rule) in TOKEN_RULES {
        let t0 = Instant::now();
        for a in &analyses {
            rule(&a.file, &mut raw);
        }
        record(&mut timing, id, t0);
    }

    // Phase 2: cross-file semantic rules over the workspace graph.
    let t0 = Instant::now();
    let ws = Workspace::build(
        &analyses,
        collect_artifacts(root),
        collect_reference_texts(root),
    );
    record(&mut timing, "graph", t0);
    type SemanticRule = fn(&Workspace, &mut Vec<Diagnostic>);
    let semantic: [(&str, SemanticRule); 5] = [
        ("D7", rules::stream_flow::d7_stream_flow),
        ("D10", rules::dead_artifacts::d10_dead_artifacts),
        ("D11", rules::unit_infer::d11_unit_inference),
        ("D12", rules::ledger::d12_ledger_coverage),
        ("D13", rules::reset::d13_reset_coverage),
    ];
    for (id, rule) in semantic {
        let t0 = Instant::now();
        rule(&ws, &mut raw);
        record(&mut timing, id, t0);
    }

    // Apply suppressions to everything (D0 is never suppressible by
    // construction: directives naming it are rejected at parse time).
    let sup_index: BTreeMap<&str, &Suppressions> = analyses
        .iter()
        .zip(&sups)
        .map(|(a, s)| (a.file.rel.as_str(), s))
        .collect();
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    let mut suppressed_by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in raw {
        let covered = sup_index
            .get(d.file.as_str())
            .is_some_and(|s| s.covers(d.rule, d.line));
        if covered {
            suppressed += 1;
            *suppressed_by_rule.entry(d.rule).or_insert(0) += 1;
        } else {
            diagnostics.push(d);
        }
    }
    diagnostics.sort();
    Ok(Report {
        root: root_label.to_string(),
        files: rels.len(),
        internal_errors,
        diagnostics,
        suppressed,
        suppressed_by_rule,
        fixed: 0,
        timing,
    })
}
