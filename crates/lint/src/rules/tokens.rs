//! Single-file token rule D4.
//!
//! It runs over one [`SourceFile`] at a time and matches flat token
//! patterns; see the module docs in [`crate::rules`] for the engine and
//! suppression model. D4 attaches a machine-applicable [`Suggestion`]
//! where the rewrite is unambiguous.

use super::{diag, Diagnostic, SourceFile, Suggestion};
use crate::lexer::TokenKind;

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
