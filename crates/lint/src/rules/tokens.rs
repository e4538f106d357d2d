//! Single-file token rules D1–D4 and D6.
//!
//! These run over one [`SourceFile`] at a time and match flat token
//! patterns; see the module docs in [`crate::rules`] for the engine and
//! suppression model. D4 and D6 attach machine-applicable
//! [`Suggestion`]s where the rewrite is unambiguous.

use super::{arg_text, call_args, diag, is_streams_path, Diagnostic, SourceFile, Suggestion};
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// Map-iteration adaptors rule D2 flags on `HashMap`/`HashSet` bindings.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// D1 (call sites): outside `crates/sim`, the stream argument of
/// `stream_rng(seed, s)` and `SeedSeq::named(s)` must be a `streams::*`
/// constant — never a magic literal or free variable.
pub fn d1_stream_discipline(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.scope.crate_name.as_deref() == Some("sim") {
        return; // the discipline's own home defines and tests raw streams
    }
    for k in 0..f.code.len() {
        let (arg, line) = if f.text(k) == "stream_rng" && f.text(k + 1) == "(" {
            let (args, _) = call_args(f, k + 1);
            (args.get(1).copied(), f.line(k))
        } else if f.text(k) == "." && f.text(k + 1) == "named" && f.text(k + 2) == "(" {
            let (args, _) = call_args(f, k + 2);
            (args.first().copied(), f.line(k + 1))
        } else {
            continue;
        };
        let Some((a, b)) = arg else { continue };
        if !is_streams_path(f, a, b) {
            out.push(diag(
                f,
                line,
                "D1",
                format!(
                    "RNG stream argument `{}` must be a `streams::*` registry constant",
                    arg_text(f, a, b)
                ),
            ));
        }
    }
}

/// D1 (registry): `crates/core/src/simulation.rs` holds the single source
/// of truth — a `streams` module whose `const` ids are unique and each
/// carry a doc comment naming the owner.
pub fn d1_registry(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.rel != "crates/core/src/simulation.rs" {
        return;
    }
    // Locate `mod streams {` in the full stream (docs matter here).
    let mut open = None;
    for i in 0..f.tokens.len().saturating_sub(2) {
        if f.tokens[i].text == "mod"
            && f.tokens[i + 1].text == "streams"
            && f.tokens[i + 2].text == "{"
        {
            open = Some(i + 2);
            break;
        }
    }
    let Some(open) = open else {
        out.push(diag(
            f,
            1,
            "D1",
            "RNG stream registry `mod streams` not found in crates/core/src/simulation.rs"
                .to_string(),
        ));
        return;
    };
    let mut depth = 1i32;
    let mut i = open + 1;
    let mut seen: BTreeMap<u64, String> = BTreeMap::new();
    while i < f.tokens.len() && depth > 0 {
        match f.tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            "const" if depth == 1 => {
                let name = f
                    .tokens
                    .get(i + 1)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                let line = f.tokens[i].line;
                // Preceding non-attribute token must be a doc comment.
                let documented = f.tokens[..i]
                    .iter()
                    .rev()
                    .find(|t| !matches!(t.text.as_str(), "pub"))
                    .is_some_and(|t| t.kind == TokenKind::LineComment && t.text.starts_with("///"));
                if !documented {
                    out.push(diag(
                        f,
                        line,
                        "D1",
                        format!("stream registry entry `{name}` lacks a /// doc comment naming its owner"),
                    ));
                }
                // Value: `const NAME: u64 = <int>;`
                let val = f.tokens[i..]
                    .iter()
                    .take(8)
                    .find(|t| t.kind == TokenKind::Int)
                    .and_then(|t| t.text.replace('_', "").parse::<u64>().ok());
                if let Some(v) = val {
                    if let Some(prev) = seen.insert(v, name.clone()) {
                        out.push(diag(
                            f,
                            line,
                            "D1",
                            format!("stream id {v} assigned to both `{prev}` and `{name}`"),
                        ));
                    }
                } else {
                    out.push(diag(
                        f,
                        line,
                        "D1",
                        format!("stream registry entry `{name}` must be a literal u64 id"),
                    ));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// D2: wall clocks (`Instant`, `SystemTime`), thread `spawn`, and
/// iteration over `HashMap`/`HashSet` bindings are banned in library code
/// of sim-affecting crates. Map bindings are tracked by name within the
/// file (`x: HashMap<…>` or `let x = HashMap::new()`), a deliberately
/// simple file-local heuristic.
pub fn d2_nondeterminism(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.scope.sim_affecting() || !f.scope.library {
        return;
    }
    // Pass 1: names bound to HashMap/HashSet.
    let mut maps: BTreeSet<String> = BTreeSet::new();
    for k in 0..f.code.len() {
        let is_map = |t: &str| t == "HashMap" || t == "HashSet";
        // `name: [path::]HashMap<…>`
        if f.text(k) == ":" && f.kind(k.wrapping_sub(1)) == Some(TokenKind::Ident) && k >= 1 {
            let mut j = k + 1;
            while f.kind(j) == Some(TokenKind::Ident) && f.text(j + 1) == "::" {
                j += 2;
            }
            if f.kind(j) == Some(TokenKind::Ident) && is_map(f.text(j)) {
                maps.insert(f.text(k - 1).to_string());
            }
        }
        // `let [mut] name = [path::]HashMap::new()`
        if f.text(k) == "let" {
            let name_at = if f.text(k + 1) == "mut" { k + 2 } else { k + 1 };
            if f.kind(name_at) == Some(TokenKind::Ident) && f.text(name_at + 1) == "=" {
                let mut j = name_at + 2;
                let mut saw_map = false;
                while f.kind(j) == Some(TokenKind::Ident) && f.text(j + 1) == "::" {
                    saw_map |= is_map(f.text(j));
                    j += 2;
                }
                if saw_map {
                    maps.insert(f.text(name_at).to_string());
                }
            }
        }
    }
    // Pass 2: violations.
    for k in 0..f.code.len() {
        let t = f.text(k);
        let line = f.line(k);
        if f.kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        match t {
            "Instant" | "SystemTime" => out.push(diag(
                f,
                line,
                "D2",
                format!(
                    "`{t}` (wall clock) is forbidden in sim-affecting crates — simulated time only"
                ),
            )),
            "spawn" => out.push(diag(
                f,
                line,
                "D2",
                "thread spawn in a sim-affecting crate — simulation must stay single-threaded \
                 (deterministic fan-out wrappers may be allow-listed)"
                    .to_string(),
            )),
            _ => {
                if maps.contains(t) && f.text(k + 1) == "." && ITER_METHODS.contains(&f.text(k + 2))
                {
                    out.push(diag(
                        f,
                        line,
                        "D2",
                        format!(
                            "iteration over hash-based `{t}` is nondeterministic — use BTreeMap/BTreeSet or sort first",
                        ),
                    ));
                }
                if t == "for" {
                    // `for pat in expr {` — flag a map name inside expr.
                    let mut j = k + 1;
                    let mut in_at = None;
                    while j < f.code.len() && f.text(j) != "{" && f.text(j) != ";" {
                        if f.text(j) == "in" {
                            in_at = Some(j);
                        } else if in_at.is_some()
                            && f.kind(j) == Some(TokenKind::Ident)
                            && maps.contains(f.text(j))
                            && f.text(j + 1) != "."
                        {
                            out.push(diag(
                                f,
                                f.line(j),
                                "D2",
                                format!(
                                    "`for … in` over hash-based `{}` is nondeterministic — use BTreeMap/BTreeSet or sort first",
                                    f.text(j)
                                ),
                            ));
                        }
                        j += 1;
                    }
                }
            }
        }
    }
}

/// D3: `unwrap()`, `expect(…)` and `panic!(…)` are banned in non-test
/// library code. Invariant-backed sites keep `expect` with a message and an
/// `allow(D3)` justification; everything else returns `Result`.
pub fn d3_panic_hygiene(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.scope.library {
        return;
    }
    for k in 0..f.code.len() {
        let line = f.line(k);
        if f.in_test(line) {
            continue;
        }
        if f.text(k) == "." && f.text(k + 2) == "(" {
            let m = f.text(k + 1);
            if m == "unwrap" || m == "expect" {
                out.push(diag(
                    f,
                    f.line(k + 1),
                    "D3",
                    format!(
                        "`.{m}(…)` in library code — return a Result, or justify with an allow(D3) comment"
                    ),
                ));
            }
        }
        if f.text(k) == "panic" && f.text(k + 1) == "!" && f.text(k + 2) == "(" {
            out.push(diag(
                f,
                line,
                "D3",
                "`panic!` in library code — return a Result, or justify with an allow(D3) comment"
                    .to_string(),
            ));
        }
    }
}

/// D4: `==`/`!=` with a float operand in non-test library code. The
/// heuristic flags comparisons where an adjacent operand token is a float
/// literal or an `f32::`/`f64::` associated constant; route these through
/// `bpp_sim::approx` instead.
///
/// When both operands are single tokens the rewrite is unambiguous and
/// the diagnostic carries a `replace` suggestion:
/// `x == 1.0` → `approx_eq(x, 1.0)`, `x != 1.0` → `!approx_eq(x, 1.0)`.
pub fn d4_float_eq(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.scope.library {
        return;
    }
    for k in 0..f.code.len() {
        let t = f.text(k);
        if t != "==" && t != "!=" {
            continue;
        }
        let line = f.line(k);
        if f.in_test(line) {
            continue;
        }
        let next_float = f.kind(k + 1) == Some(TokenKind::Float)
            || ((f.text(k + 1) == "f64" || f.text(k + 1) == "f32") && f.text(k + 2) == "::");
        let prev_float = k >= 1 && f.kind(k - 1) == Some(TokenKind::Float)
            || (k >= 3
                && (f.text(k - 3) == "f64" || f.text(k - 3) == "f32")
                && f.text(k - 2) == "::");
        if next_float || prev_float {
            let mut d = diag(
                f,
                line,
                "D4",
                format!(
                    "float `{t}` comparison — use bpp_sim::approx (exactly/exactly_zero/approx_eq) instead"
                ),
            );
            d.suggestion = d4_suggestion(f, k, t);
            out.push(d);
        }
    }
}

/// The `approx_eq` rewrite for a float comparison at code index `k`, when
/// both operands are single tokens (ident or literal) so the span is
/// unambiguous. Multi-token operands (field accesses, calls) get no
/// suggestion — the rewrite boundary cannot be recovered from tokens.
fn d4_suggestion(f: &SourceFile, k: usize, op: &str) -> Option<Suggestion> {
    let single = |j: usize| {
        matches!(
            f.kind(j),
            Some(TokenKind::Ident) | Some(TokenKind::Float) | Some(TokenKind::Int)
        )
        .then(|| f.text(j).to_string())
    };
    // The operand tokens must also be expression boundaries: the token
    // before the lhs / after the rhs must not extend the expression.
    let extends = |t: &str| matches!(t, "." | "::" | ")" | "]" | "-");
    let lhs = single(k.checked_sub(1)?)?;
    let rhs = single(k + 1)?;
    if k >= 2 && extends(f.text(k - 2)) || extends(f.text(k + 2)) || f.text(k + 2) == "(" {
        return None;
    }
    // The byte span `lhs OP rhs` is machine-replaceable only when all
    // three tokens share the diagnostic's line.
    let span = (f.line(k - 1) == f.line(k) && f.line(k + 1) == f.line(k))
        .then(|| {
            let a = f.t(k - 1)?.col;
            let b = f.t(k + 1)?;
            Some((a, b.col + b.text.len() as u32))
        })
        .flatten();
    let call = format!("approx_eq({lhs}, {rhs})");
    Some(Suggestion {
        line: f.line(k),
        kind: "replace",
        text: if op == "!=" { format!("!{call}") } else { call },
        span,
    })
}

/// D6: each crate's `lib.rs` must carry `#![forbid(unsafe_code)]` so the
/// guarantee survives even outside workspace-lint builds. The diagnostic
/// carries an `insert` suggestion for line 1 — the attribute text is
/// always the same, so the fix is machine-applicable.
pub fn d6_forbid_unsafe(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.scope.lib_rs {
        return;
    }
    let found = (0..f.code.len()).any(|k| {
        f.text(k) == "#"
            && f.text(k + 1) == "!"
            && f.text(k + 2) == "["
            && f.text(k + 3) == "forbid"
            && f.text(k + 4) == "("
            && f.text(k + 5) == "unsafe_code"
    });
    if !found {
        let mut d = diag(
            f,
            1,
            "D6",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
        d.suggestion = Some(Suggestion {
            line: 1,
            kind: "insert",
            text: "#![forbid(unsafe_code)]".to_string(),
            span: None,
        });
        out.push(d);
    }
}
