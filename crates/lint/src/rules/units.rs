//! Rule D9: time-unit discipline.
//!
//! The simulator measures every duration in **broadcast units** (the time
//! to push one page); the workspace naming convention marks such values
//! with a `_bu` suffix, while `_count` marks cardinalities and `_ratio`
//! marks dimensionless quotients. Adding a wait time to a request count,
//! or comparing a duration against a ratio, is a unit error the type
//! system cannot see (everything is `f64`/`u64`) — but the names can.
//!
//! The rule classifies identifier tokens by suffix and flags the additive
//! and comparison operators (`+ - += -= < <= > >= == !=`) applied between
//! two *differently classified* identifiers. Multiplication and division
//! are exempt: `count * ratio` and `total_bu / count` legitimately change
//! units. Unsuffixed names are unclassified and never participate, so the
//! rule only fires where both operands opted into the convention —
//! near-zero false positives by construction.

use super::{diag, Diagnostic, SourceFile};
use crate::lexer::TokenKind;

/// Crates the discipline applies to (the sim-affecting pipeline the issue
/// names: simulation kernel, experiment core, and both endpoints).
pub(crate) const UNIT_CRATES: [&str; 4] = ["sim", "core", "server", "client"];

/// Operators that require both operands to carry the same unit.
pub(crate) const SAME_UNIT_OPS: [&str; 10] =
    ["+", "-", "+=", "-=", "<", "<=", ">", ">=", "==", "!="];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum UnitClass {
    BroadcastUnits,
    Count,
    Ratio,
}

impl UnitClass {
    pub(crate) fn of(name: &str) -> Option<UnitClass> {
        if name.ends_with("_bu") {
            Some(UnitClass::BroadcastUnits)
        } else if name.ends_with("_count") {
            Some(UnitClass::Count)
        } else if name.ends_with("_ratio") {
            Some(UnitClass::Ratio)
        } else {
            None
        }
    }

    pub(crate) fn label(self) -> &'static str {
        match self {
            UnitClass::BroadcastUnits => "broadcast-units (*_bu)",
            UnitClass::Count => "count (*_count)",
            UnitClass::Ratio => "ratio (*_ratio)",
        }
    }
}

/// D9: flag `a OP b` where `a` and `b` are suffix-classified identifiers
/// of different unit classes and `OP` is additive or comparative. Library
/// code of the unit crates (`sim`, `core`, `server`, `client`) only; test
/// regions are exempt.
pub fn d9_unit_discipline(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.scope.library
        || !f
            .scope
            .crate_name
            .as_deref()
            .is_some_and(|c| UNIT_CRATES.contains(&c))
    {
        return;
    }
    for k in 1..f.code.len() {
        let op = f.text(k);
        if !SAME_UNIT_OPS.contains(&op) {
            continue;
        }
        let line = f.line(k);
        if f.in_test(line) {
            continue;
        }
        // Both operands must be *plain* classified identifiers: a leading
        // `.`/`::` means the token is a path/field segment whose base this
        // rule does not resolve; a trailing `.`/`(` on the rhs means the
        // ident is a receiver or call, not the operand value. `self.x` is
        // still classified via the `x` token (its preceding `.` is walked
        // over below).
        let lhs = operand_class(f, k - 1, true);
        let rhs = operand_class(f, k + 1, false);
        if let (Some((ln, lc)), Some((rn, rc))) = (lhs, rhs) {
            if lc != rc {
                out.push(diag(
                    f,
                    line,
                    "D9",
                    format!(
                        "mixed-unit `{op}`: `{ln}` is {} but `{rn}` is {} — convert explicitly \
                         before combining",
                        lc.label(),
                        rc.label()
                    ),
                ));
            }
        }
    }
}

/// Classify the operand adjacent to an operator. `at` is the code index
/// directly before (lhs) or after (rhs) the operator; returns the
/// identifier's name and class when it is a classified plain ident, a
/// `self.x` / `recv.x` field access ending in a classified name, or
/// either of those wrapped in unit-preserving grouping: parentheses and
/// unary negation (`(b_count)`, `- -c_count`, `(-a_bu)`).
fn operand_class(f: &SourceFile, at: usize, lhs: bool) -> Option<(String, UnitClass)> {
    let at = if lhs {
        if f.text(at) == ")" {
            grouped_operand_back(f, at)?
        } else {
            // `at` sits directly left of the operator, so nothing can
            // extend the expression rightwards; `self.name` classifies by
            // `name` because the receiver tokens sit further left.
            at
        }
    } else {
        // rhs: the operand extends rightwards past the ident and may be
        // prefixed by grouping parens or unary minus.
        match f.text(at) {
            "(" | "-" => grouped_operand_fwd(f, at)?,
            _ => {
                if f.kind(at) != Some(TokenKind::Ident) {
                    return None;
                }
                // A field access (`recv.field`) classifies by its final
                // segment; a call or path (`name(…)`, `name::…`) is
                // opaque and never classified.
                if f.text(at + 1) == "." && f.kind(at + 2) == Some(TokenKind::Ident) {
                    return operand_class(f, at + 2, false);
                }
                if matches!(f.text(at + 1), "(" | "::") {
                    return None;
                }
                at
            }
        }
    };
    if f.kind(at) != Some(TokenKind::Ident) {
        return None;
    }
    if at >= 1 && f.text(at - 1) == "::" {
        return None; // path segment — constants are not unit-classified
    }
    let name = f.text(at);
    let class = UnitClass::of(name)?;
    Some((name.to_string(), class))
}

/// Resolve an rhs operand that starts with grouping parens or unary
/// minus: `-x`, `(x)`, `(-recv.x)`, `((x))`. Returns the index of the
/// operand's final ident segment. Strict by design: the group must hold
/// exactly one (possibly negated, possibly dotted) identifier — any
/// other content is a compound expression whose units this token-level
/// rule does not resolve.
fn grouped_operand_fwd(f: &SourceFile, mut k: usize) -> Option<usize> {
    let mut opens = 0usize;
    loop {
        match f.text(k) {
            "(" => opens += 1,
            "-" => {}
            _ => break,
        }
        k += 1;
    }
    if f.kind(k) != Some(TokenKind::Ident) {
        return None;
    }
    while f.text(k + 1) == "." && f.kind(k + 2) == Some(TokenKind::Ident) {
        k += 2;
    }
    if matches!(f.text(k + 1), "(" | "::") {
        return None; // call or path, not a value operand
    }
    for i in 0..opens {
        if f.text(k + 1 + i) != ")" {
            return None; // compound expression inside the group
        }
    }
    Some(k)
}

/// Resolve an lhs operand ending in `)`: `(x)`, `(-x)`, `((self.x))`.
/// Returns the index of the final ident segment. Rejects call/index
/// suffix parens (`foo(x)`, `xs[i](x)`): those close an argument list,
/// not a grouped operand.
fn grouped_operand_back(f: &SourceFile, at: usize) -> Option<usize> {
    let mut closes = 0usize;
    let mut k = at;
    while f.text(k) == ")" {
        closes += 1;
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    if f.kind(k) != Some(TokenKind::Ident) {
        return None;
    }
    let ident = k;
    while k >= 2 && f.text(k - 1) == "." && f.kind(k - 2) == Some(TokenKind::Ident) {
        k -= 2;
    }
    while k >= 1 && f.text(k - 1) == "-" {
        k -= 1;
    }
    for i in 1..=closes {
        if k < i || f.text(k - i) != "(" {
            return None; // compound expression inside the group
        }
    }
    let open = k - closes;
    if open >= 1
        && (f.kind(open - 1) == Some(TokenKind::Ident) || matches!(f.text(open - 1), ")" | "]"))
    {
        return None; // argument list of a call, not grouping
    }
    Some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn d9(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(
            "crates/core/src/x.rs".to_string(),
            lex(src).expect("test source must lex"),
        );
        let mut out = Vec::new();
        d9_unit_discipline(&f, &mut out);
        out
    }

    #[test]
    fn parenthesized_rhs_operand_is_classified() {
        let out = d9("pub fn f(a_bu: f64, b_count: f64) -> bool { a_bu < (b_count) }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("b_count"));
    }

    #[test]
    fn double_negated_rhs_operand_is_classified() {
        let out = d9("pub fn f(a_bu: f64, c_count: f64) -> f64 { a_bu - -c_count }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("c_count"));
    }

    #[test]
    fn negated_parenthesized_lhs_operand_is_classified() {
        let out = d9("pub fn f(a_bu: f64, b_count: f64) -> bool { (-a_bu) < b_count }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("a_bu"));
    }

    #[test]
    fn grouped_field_access_is_classified() {
        let out = d9("pub struct S { pub wait_bu: f64 }\n\
             impl S { pub fn f(&self, n_count: f64) -> bool { (self.wait_bu) < n_count } }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("wait_bu"));
    }

    #[test]
    fn call_argument_parens_are_not_grouping() {
        // `norm(a_count)` is a call whose return units are unknown.
        let out = d9("pub fn f(a_count: f64, b_bu: f64) -> bool { norm(a_count) < b_bu }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn compound_groups_stay_unclassified() {
        // A parenthesized quotient has already changed units.
        let out =
            d9("pub fn f(total_bu: f64, n_count: f64, w_bu: f64) -> bool { (total_bu / n_count) < w_bu }");
        assert!(out.is_empty(), "{out:?}");
    }
}
