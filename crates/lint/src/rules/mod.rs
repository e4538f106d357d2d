//! The `bpp-lint` rule engine: scopes, suppressions, and rules D0–D13.
//!
//! Rules come in two layers. The **token rules** (D1–D4 and D6,
//! [`tokens`]; D9, [`units`]) run over the token stream of one file at a
//! time (see [`crate::lexer`]) and need no cross-file state. The
//! **semantic rules** (D7 [`stream_flow`], D10 [`dead_artifacts`], and the
//! dataflow rules D11–D13) run over a [`crate::graph::Workspace`] built
//! from the item structure ([`crate::parse`]) of every file, so they can
//! follow an RNG handle across a function boundary or notice a results
//! artifact nothing references. Either way the report order is a pure
//! function of the sorted file list — no hashing, no filesystem order.
//!
//! Each rule documents its scope and its heuristic precisely — a lexical
//! checker cannot do type inference, so where a rule approximates (D2's
//! map-name tracking, D7's name-based call resolution) the approximation
//! is stated and conservative.
//!
//! ## Suppression grammar
//!
//! Diagnostics are suppressed by plain `//` line comments (doc comments
//! are never scanned, so documentation may quote directives freely):
//!
//! ```text
//! // bpp-lint: allow(D3): holds because <one-line justification>
//! // bpp-lint: allow(D1, D2)
//! // bpp-lint: allow-file(D1): whole-file justification
//! ```
//!
//! `allow` covers the comment's own line and the line directly below it
//! (so both trailing and preceding placements work); `allow-file` covers
//! the whole file. A root-level `lint_allow.txt` may hold file-wide
//! entries (`D3 crates/foo/src/bar.rs # why`) for trees where editing the
//! source is not wanted; an entry naming a file that is not scanned is
//! itself a `D0` diagnostic so the list cannot rot. Rule names must be
//! drawn from the registry below — a typo'd or unknown name is reported
//! (rule `D0`), so a suppression can never rot silently. `D0` cannot be
//! suppressed.

pub mod dead_artifacts;
pub mod ledger;
pub mod reset;
pub mod stream_flow;
pub mod tokens;
pub mod unit_infer;
pub mod units;

use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A machine-applicable fix attached to a diagnostic where the rewrite is
/// unambiguous. Never applied automatically — emitted in the `--json`
/// report for tooling to offer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suggestion {
    /// 1-based line the suggestion applies to.
    pub line: u32,
    /// `"replace"` (swap the flagged expression on that line for `text`)
    /// or `"insert"` (add `text` as a new line above `line`).
    pub kind: &'static str,
    /// The replacement / inserted source text.
    pub text: String,
    /// For `"replace"`: the half-open 1-based **byte column** range on
    /// `line` that `text` replaces. `None` leaves the rewrite boundary to
    /// the reader; the `--fix` applier only acts on spanned replacements.
    pub span: Option<(u32, u32)>,
}

/// One finding: file, 1-based line, rule id, human-readable message, and
/// optionally a machine-applicable [`Suggestion`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the linted root, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (`"D1"` … `"D10"`, or `"D0"` for lint-integrity findings).
    pub rule: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
    /// An unambiguous rewrite, when one exists (D4, D6).
    pub suggestion: Option<Suggestion>,
}

/// The rule registry: id and one-line summary, in report order.
pub const RULES: [(&str, &str); 12] = [
    ("D0", "lint integrity: lexer failures and malformed/unknown/stale suppressions"),
    ("D1", "stream-discipline: stream_rng/.named must use streams::* constants; registry unique+documented"),
    ("D2", "nondeterminism ban: Instant/SystemTime/thread spawn/HashMap-HashSet iteration in sim-affecting crates"),
    ("D3", "panic hygiene: no unwrap()/expect()/panic!() in non-test library code"),
    ("D4", "float-eq: no ==/!= against float literals; route through bpp_sim::approx"),
    ("D6", "every crate lib.rs must carry #![forbid(unsafe_code)]"),
    ("D7", "stream-flow: one RNG stream, one component — no shared handles, no duplicate construction sites"),
    ("D9", "alias of D11 — the token-level unit check D11's dataflow analysis supersedes"),
    ("D10", "dead artifacts: unreachable experiment grids and unreferenced results/ goldens"),
    ("D11", "unit inference: *_bu/*_count/*_ratio classes propagated through bindings, params, and returns"),
    ("D12", "ledger coverage: every request-terminating path must increment exactly one ConservationLedger bucket"),
    ("D13", "reset coverage: every mutable volatile field must be written on the cold-restart path"),
];

/// Suppression aliases: `allow(<old>)` also silences diagnostics of the
/// rule that superseded it, so existing annotations keep working across a
/// rule upgrade.
pub const RULE_ALIASES: [(&str, &str); 1] = [("D9", "D11")];

/// Crates whose code feeds simulation results; rule D2's blast radius.
pub(crate) const SIM_AFFECTING: [&str; 8] = [
    "sim",
    "broadcast",
    "cache",
    "client",
    "server",
    "workload",
    "core",
    "obs",
];

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// `crates/<name>/…` → `Some(name)`.
    pub crate_name: Option<String>,
    /// Under `crates/*/src/` but not `src/bin/` — "library code".
    pub library: bool,
    /// Exactly `crates/<name>/src/lib.rs`.
    pub lib_rs: bool,
}

impl Scope {
    /// Classify a root-relative path (forward slashes).
    pub fn of(rel: &str) -> Scope {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = (parts.len() >= 2 && parts[0] == "crates").then(|| parts[1].to_string());
        let library =
            parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin";
        let lib_rs = library && parts.len() == 4 && parts[3] == "lib.rs";
        Scope {
            crate_name,
            library,
            lib_rs,
        }
    }

    pub(crate) fn sim_affecting(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| SIM_AFFECTING.contains(&c))
    }
}

/// A lexed file ready for rule evaluation.
pub struct SourceFile {
    /// Root-relative path, forward slashes.
    pub rel: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens ("code tokens").
    pub code: Vec<usize>,
    /// Path-derived scope.
    pub scope: Scope,
    /// Inclusive line ranges covered by `#[test]`/`#[cfg(test)]` items.
    pub test_lines: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Build a file from its relative path and token stream.
    pub fn new(rel: String, tokens: Vec<Token>) -> SourceFile {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let scope = Scope::of(&rel);
        let mut f = SourceFile {
            rel,
            tokens,
            code,
            scope,
            test_lines: Vec::new(),
        };
        f.test_lines = f.find_test_regions();
        f
    }

    /// Code token at code-index `k`.
    pub fn t(&self, k: usize) -> Option<&Token> {
        self.code.get(k).map(|&i| &self.tokens[i])
    }

    /// Text of code token `k`, or `""` past the end.
    pub fn text(&self, k: usize) -> &str {
        self.t(k).map_or("", |t| t.text.as_str())
    }

    /// Kind of code token `k`, or `None` past the end.
    pub fn kind(&self, k: usize) -> Option<TokenKind> {
        self.t(k).map(|t| t.kind)
    }

    /// Line of code token `k`, or `0` past the end.
    pub fn line(&self, k: usize) -> u32 {
        self.t(k).map_or(0, |t| t.line)
    }

    /// Whether `line` falls inside a `#[test]`/`#[cfg(test)]` region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Line ranges of items annotated with an attribute that mentions
    /// `test` (`#[test]`, `#[cfg(test)]`). The region runs from the
    /// attribute to the closing brace of the annotated item (or its `;`).
    fn find_test_regions(&self) -> Vec<(u32, u32)> {
        let mut regions = Vec::new();
        let n = self.code.len();
        let mut k = 0;
        while k < n {
            // Outer attribute `#[…]` (inner `#![…]` never marks a test item).
            if self.text(k) == "#" && self.text(k + 1) == "[" {
                let start_line = self.line(k);
                let mut j = k + 2;
                let mut depth = 1i32;
                let mut mentions_test = false;
                while j < n && depth > 0 {
                    match self.text(j) {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        "test" if self.kind(j) == Some(TokenKind::Ident) => mentions_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                if mentions_test {
                    // Skip any further attributes on the same item.
                    while self.text(j) == "#" && self.text(j + 1) == "[" {
                        let mut d = 1i32;
                        j += 2;
                        while j < n && d > 0 {
                            match self.text(j) {
                                "[" => d += 1,
                                "]" => d -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    // The item body: first `{` balanced to its close, or a
                    // leading-`;` item (e.g. an annotated `use`).
                    let mut end_line = start_line;
                    while j < n {
                        match self.text(j) {
                            ";" => {
                                end_line = self.line(j);
                                break;
                            }
                            "{" => {
                                let mut d = 1i32;
                                j += 1;
                                while j < n && d > 0 {
                                    match self.text(j) {
                                        "{" => d += 1,
                                        "}" => d -= 1,
                                        _ => {}
                                    }
                                    if d == 0 {
                                        end_line = self.line(j);
                                    }
                                    j += 1;
                                }
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    regions.push((start_line, end_line.max(start_line)));
                    k = j;
                    continue;
                }
                k = j;
                continue;
            }
            k += 1;
        }
        regions
    }
}

/// Parsed suppression directives for one file.
pub struct Suppressions {
    file_rules: BTreeSet<String>,
    line_rules: BTreeMap<u32, BTreeSet<String>>,
    /// D0 findings produced while parsing (unknown rule names, bad syntax).
    pub problems: Vec<(u32, String)>,
}

impl Suppressions {
    /// Scan a file's comment tokens for `bpp-lint:` directives.
    pub fn parse(file: &SourceFile) -> Suppressions {
        let mut s = Suppressions {
            file_rules: BTreeSet::new(),
            line_rules: BTreeMap::new(),
            problems: Vec::new(),
        };
        for tok in &file.tokens {
            // Only plain `//` comments carry directives: doc comments
            // (`///`, `//!`) may quote the grammar without engaging it.
            if tok.kind != TokenKind::LineComment
                || tok.text.starts_with("///")
                || tok.text.starts_with("//!")
            {
                continue;
            }
            let Some(at) = tok.text.find("bpp-lint:") else {
                continue;
            };
            let rest = tok.text[at + "bpp-lint:".len()..].trim_start();
            let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
                (true, r)
            } else if let Some(r) = rest.strip_prefix("allow") {
                (false, r)
            } else {
                s.problems.push((
                    tok.line,
                    "malformed bpp-lint directive: expected `allow(...)` or `allow-file(...)`"
                        .to_string(),
                ));
                continue;
            };
            let rest = rest.trim_start();
            let Some(inner) = rest
                .strip_prefix('(')
                .and_then(|r| r.split_once(')'))
                .map(|(inner, _)| inner)
            else {
                s.problems.push((
                    tok.line,
                    "malformed bpp-lint directive: missing rule list `(D1, ...)`".to_string(),
                ));
                continue;
            };
            for name in inner.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                if !known_rule(name) {
                    s.problems.push((
                        tok.line,
                        format!("unknown rule `{name}` in bpp-lint suppression"),
                    ));
                    continue;
                }
                if file_wide {
                    s.file_rules.insert(name.to_string());
                } else {
                    s.line_rules
                        .entry(tok.line)
                        .or_default()
                        .insert(name.to_string());
                }
            }
        }
        s
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed. A
    /// suppression naming an aliased rule ([`RULE_ALIASES`]) covers its
    /// successor too.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        let hits = |name: &str| {
            self.file_rules.contains(name)
                // A directive covers its own line and the line directly
                // below.
                || [line, line.saturating_sub(1)]
                    .iter()
                    .any(|l| self.line_rules.get(l).is_some_and(|r| r.contains(name)))
        };
        hits(rule)
            || RULE_ALIASES
                .iter()
                .any(|(old, new)| *new == rule && hits(old))
    }

    /// Add a file-wide suppression (used by the root `lint_allow.txt`).
    pub fn add_file_rule(&mut self, rule: &str) {
        self.file_rules.insert(rule.to_string());
    }
}

/// Whether `name` is a suppressible registry rule (`D0` is not).
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == name && *id != "D0")
}

/// The single-file token rules, as a (rule id, pass) table so the driver
/// can attribute per-rule timing. A rule may contribute several passes
/// (D1); the id labels the timing bucket. D9 is absent by design: its
/// token-level check is superseded by D11's dataflow analysis
/// ([`units::d9_unit_discipline`] stays available as a differential
/// oracle).
#[allow(clippy::type_complexity)]
pub const TOKEN_RULES: [(&str, fn(&SourceFile, &mut Vec<Diagnostic>)); 6] = [
    ("D1", tokens::d1_stream_discipline),
    ("D1", tokens::d1_registry),
    ("D2", tokens::d2_nondeterminism),
    ("D3", tokens::d3_panic_hygiene),
    ("D4", tokens::d4_float_eq),
    ("D6", tokens::d6_forbid_unsafe),
];

/// Run every single-file rule over one file; returns raw
/// (unsuppressed-unfiltered) diagnostics. The caller applies
/// [`Suppressions`] and sorting. Cross-file rules (D7, D10–D13) run
/// separately over the whole workspace — see [`crate::graph`].
pub fn check_file(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (_, pass) in TOKEN_RULES {
        pass(f, &mut out);
    }
    out
}

pub(crate) fn diag(f: &SourceFile, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: f.rel.clone(),
        line,
        rule,
        message,
        suggestion: None,
    }
}

/// Split the argument list of a call whose `(` sits at code-index `open`.
/// Returns `(code-index ranges of each top-level argument, index past `)`)`.
pub(crate) fn call_args(f: &SourceFile, open: usize) -> (Vec<(usize, usize)>, usize) {
    let mut args = Vec::new();
    let mut depth = 1i32;
    let mut k = open + 1;
    let mut arg_start = k;
    while let Some(tok) = f.t(k) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if k > arg_start {
                        args.push((arg_start, k));
                    }
                    return (args, k + 1);
                }
            }
            "," if depth == 1 => {
                args.push((arg_start, k));
                arg_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    (args, k)
}

/// Whether the code tokens in `[a, b)` form a path through a `streams`
/// module (`streams::X`, `simulation::streams::X`, …).
pub(crate) fn is_streams_path(f: &SourceFile, a: usize, b: usize) -> bool {
    (a..b.saturating_sub(2)).any(|k| {
        f.text(k) == "streams" && f.text(k + 1) == "::" && f.kind(k + 2) == Some(TokenKind::Ident)
    })
}

/// The `streams::X` constant name inside `[a, b)`, if any.
pub(crate) fn streams_const(f: &SourceFile, a: usize, b: usize) -> Option<String> {
    (a..b.saturating_sub(2)).find_map(|k| {
        (f.text(k) == "streams" && f.text(k + 1) == "::" && f.kind(k + 2) == Some(TokenKind::Ident))
            .then(|| f.text(k + 2).to_string())
    })
}

pub(crate) fn arg_text(f: &SourceFile, a: usize, b: usize) -> String {
    let mut s = String::new();
    for k in a..b {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(f.text(k));
    }
    s
}
