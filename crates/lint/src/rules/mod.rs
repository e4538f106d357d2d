//! The `bpp-lint` rule engine: scopes, suppressions, and rules D0–D10.
//!
//! Rules come in two layers. The **token rule** (D4, [`tokens`]) runs
//! over the token stream of one file at a time (see [`crate::lexer`]) and
//! needs no cross-file state. The **semantic rules** (D7 [`stream_flow`],
//! D10 [`dead_artifacts`]) run over a [`crate::graph::Workspace`] built
//! from the item structure ([`crate::parse`]) of every file, so they can
//! follow an RNG handle across a function boundary or notice a results
//! artifact nothing references. Either way the report order is a pure
//! function of the sorted file list — no hashing, no filesystem order.
//!
//! Each rule documents its scope and its heuristic precisely — a lexical
//! checker cannot do type inference, so where a rule approximates (D4's
//! literal-operand match, D7's name-based call resolution) the
//! approximation is stated and conservative.
//!
//! The checks that need type information live in the compiler instead:
//! wall clocks, thread spawns and hash-order iteration (formerly D2),
//! `unwrap`/`expect`/`panic!` (D3) and `unsafe` (D6) are rustc and clippy
//! lints set in the workspace `Cargo.toml` and `clippy.toml`, and an
//! exception there is an `#[expect(<lint>, reason = "…")]`. The type
//! checker carries RNG stream discipline (formerly D1: `stream_rng` takes
//! a `bpp_sim::Stream`, and `clippy.toml` bans the raw-id mixer) and
//! cold-restart coverage (formerly D13: each reset method destructures
//! `Self` exhaustively). Request conservation (formerly D12: one ledger
//! bucket per request-terminating path) is carried by the simulator's
//! exhaustive `match` on each send's `Delivery` and audited at runtime by
//! its `ConservationLedger`.
//!
//! ## Suppression grammar
//!
//! Diagnostics are suppressed by plain `//` line comments (doc comments
//! are never scanned, so documentation may quote directives freely):
//!
//! ```text
//! // bpp-lint: allow(D4): holds because <one-line justification>
//! // bpp-lint: allow(D4, D7)
//! // bpp-lint: allow-file(D4): whole-file justification
//! ```
//!
//! `allow` covers the comment's own line and the line directly below it
//! (so both trailing and preceding placements work); `allow-file` covers
//! the whole file. A root-level `lint_allow.txt` may hold file-wide
//! entries (`D4 crates/foo/src/bar.rs # why`) for trees where editing the
//! source is not wanted. Rule names must be drawn from the registry below.
//! None of these can rot silently: an unknown rule name, an allowlist
//! entry naming a file that is not scanned, and a directive or entry that
//! suppresses nothing are each reported as rule `D0`. `D0` cannot be
//! suppressed.

pub mod dead_artifacts;
pub mod stream_flow;
pub mod tokens;

use crate::lexer::{Token, TokenKind};

/// A rewrite attached to a diagnostic where it is unambiguous: swap the
/// flagged expression on `line` for `text`. Emitted in the `--json`
/// report (as `"kind": "replace"`); `--fix` applies the spanned ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suggestion {
    /// 1-based line the suggestion applies to.
    pub line: u32,
    /// The replacement source text.
    pub text: String,
    /// The half-open 1-based **byte column** range on `line` that `text`
    /// replaces. `None` leaves the rewrite boundary to the reader; the
    /// `--fix` applier only acts on spanned replacements.
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
    /// Rule id (`"D4"` … `"D10"`, or `"D0"` for lint-integrity findings).
    pub rule: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
    /// An unambiguous rewrite, when one exists (D4).
    pub suggestion: Option<Suggestion>,
}

/// The rule registry: id and one-line summary, in report order.
pub const RULES: [(&str, &str); 4] = [
    ("D0", "lint integrity: lexer failures and malformed/unknown/stale suppressions"),
    ("D4", "float-eq: no ==/!= against float literals; route through bpp_sim::approx"),
    ("D7", "stream-flow: one RNG stream, one component — no shared handles, no duplicate construction sites"),
    ("D10", "dead artifacts: unreachable experiment grids and unreferenced results/ goldens"),
];

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// `crates/<name>/…` → `Some(name)`.
    pub crate_name: Option<String>,
    /// Under `crates/*/src/` but not `src/bin/` — "library code".
    pub library: bool,
}

impl Scope {
    /// Classify a root-relative path (forward slashes).
    pub fn of(rel: &str) -> Scope {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = (parts.len() >= 2 && parts[0] == "crates").then(|| parts[1].to_string());
        let library =
            parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin";
        Scope {
            crate_name,
            library,
        }
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

/// Where a suppression comes from, which fixes what it covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// `allow(..)`: its own line and the line directly below.
    Line,
    /// `allow-file(..)`: the whole file.
    File,
    /// An entry of the root `lint_allow.txt`: the whole file.
    Allowlist,
}

/// One rule named by a suppression directive or allowlist entry.
struct Directive {
    rule: String,
    /// 1-based line of the directive: in the source file, or in
    /// `lint_allow.txt` for an allowlist entry.
    line: u32,
    origin: Origin,
    /// Whether it has covered at least one diagnostic.
    fired: bool,
}

/// Parsed suppression directives for one file.
pub struct Suppressions {
    directives: Vec<Directive>,
    /// D0 findings produced while parsing (unknown rule names, bad syntax).
    pub problems: Vec<(u32, String)>,
}

impl Suppressions {
    /// Scan a file's comment tokens for `bpp-lint:` directives.
    pub fn parse(file: &SourceFile) -> Suppressions {
        let mut s = Suppressions {
            directives: Vec::new(),
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
            let (origin, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
                (Origin::File, r)
            } else if let Some(r) = rest.strip_prefix("allow") {
                (Origin::Line, r)
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
                    "malformed bpp-lint directive: missing rule list `(D4, ...)`".to_string(),
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
                s.directives.push(Directive {
                    rule: name.to_string(),
                    line: tok.line,
                    origin,
                    fired: false,
                });
            }
        }
        s
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed; every
    /// directive that covers it is marked as fired.
    pub fn covers(&mut self, rule: &str, line: u32) -> bool {
        let mut covered = false;
        for d in &mut self.directives {
            let reaches = d.origin != Origin::Line || d.line == line || d.line + 1 == line;
            if d.rule == rule && reaches {
                d.fired = true;
                covered = true;
            }
        }
        covered
    }

    /// Add a file-wide suppression from line `line` of the root
    /// `lint_allow.txt`.
    pub fn add_allowlist_entry(&mut self, rule: &str, line: u32) {
        self.directives.push(Directive {
            rule: rule.to_string(),
            line,
            origin: Origin::Allowlist,
            fired: false,
        });
    }

    /// A `D0` diagnostic for every directive of file `rel` that has
    /// suppressed nothing; an allowlist entry is reported against
    /// `lint_allow.txt`.
    pub fn stale(&self, rel: &str) -> Vec<Diagnostic> {
        self.directives
            .iter()
            .filter(|d| !d.fired)
            .map(|d| {
                let (file, what) = match d.origin {
                    Origin::Line => (rel, format!("bpp-lint suppression `allow({})`", d.rule)),
                    Origin::File => (
                        rel,
                        format!("bpp-lint suppression `allow-file({})`", d.rule),
                    ),
                    Origin::Allowlist => (
                        "lint_allow.txt",
                        format!("lint_allow.txt entry `{} {rel}`", d.rule),
                    ),
                };
                Diagnostic {
                    file: file.to_string(),
                    line: d.line,
                    rule: "D0",
                    message: format!("{what} suppresses nothing — delete it"),
                    suggestion: None,
                }
            })
            .collect()
    }
}

/// Whether `name` is a suppressible registry rule (`D0` is not).
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == name && *id != "D0")
}

/// One single-file token-rule pass.
pub type TokenRule = fn(&SourceFile, &mut Vec<Diagnostic>);

/// The single-file token rules, as a (rule id, pass) table so the driver
/// can attribute per-rule timing.
pub const TOKEN_RULES: [(&str, TokenRule); 1] = [("D4", tokens::d4_float_eq)];

/// Run every single-file rule over one file; returns raw
/// (unsuppressed-unfiltered) diagnostics. The caller applies
/// [`Suppressions`] and sorting. Cross-file rules (D7, D10) run
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

/// The `Stream::X` registry variant named inside `[a, b)`, if any.
pub(crate) fn stream_variant(f: &SourceFile, a: usize, b: usize) -> Option<String> {
    (a..b.saturating_sub(2)).find_map(|k| {
        (f.text(k) == "Stream" && f.text(k + 1) == "::" && f.kind(k + 2) == Some(TokenKind::Ident))
            .then(|| f.text(k + 2).to_string())
    })
}
