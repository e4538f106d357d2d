//! Single-file token rules D1 and D4.
//!
//! These run over one [`SourceFile`] at a time and match flat token
//! patterns; see the module docs in [`crate::rules`] for the engine and
//! suppression model. D4 attaches a machine-applicable [`Suggestion`]
//! where the rewrite is unambiguous.

use super::{arg_text, call_args, diag, is_streams_path, Diagnostic, SourceFile, Suggestion};
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

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
        text: if op == "!=" { format!("!{call}") } else { call },
        span,
    })
}
