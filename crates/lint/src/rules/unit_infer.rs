//! Rule D11: expression-level unit inference.
//!
//! D9 classified *tokens*: an identifier is broadcast-units because its
//! name ends in `_bu`. That misses every violation hidden behind one
//! level of dataflow — `let w = wait_bu; w + retry_count` mixes a
//! duration with a count, but no single token pair betrays it. D11 runs
//! a forward abstract interpretation over each function's CFG
//! ([`crate::cfg`], [`crate::dataflow`]) with unit classes as the
//! abstract values:
//!
//! * **Bindings** — `let w = wait_bu` gives `w` the class of its
//!   initializer; a *suffixed* binding keeps its declared class and a
//!   differently-classed initializer is itself a diagnostic.
//! * **Propagation** — `+`/`-` preserve the known side's class;
//!   parentheses, unary `-`/`&`/`*`/`?`, and the value-preserving std
//!   methods (`min`, `max`, `clamp`, `abs`, `floor`, `ceil`, `round`)
//!   are transparent; `*`, `/`, `%`, and `as` casts yield *unclassified*
//!   (units legitimately change — a cast is the canonical explicit
//!   conversion, which is what makes the `--fix` rewrite idempotent).
//! * **Calls** — argument classes are checked against the callee's
//!   parameter-name suffixes, and return classes flow out of workspace
//!   functions via per-fn summaries (two fixpoint passes over the call
//!   graph; only unambiguous names are summarized).
//! * **Struct literals** — a suffixed field name checks its initializer.
//!
//! The join is agreement: two paths that disagree about a name leave it
//! unclassified, so every report is justified by *all* paths reaching
//! it — no speculative diagnostics. Where a mixed-unit operand is a
//! single identifier token the diagnostic carries a machine-applicable
//! `(name as _)` cast suggestion with an exact byte span.

use super::units::{UnitClass, SAME_UNIT_OPS, UNIT_CRATES};
use super::{diag, Diagnostic, SourceFile, Suggestion};
use crate::dataflow::{forward, Lattice};
use crate::expr::{Expr, ExprArena, ExprId, ExprKind};
use crate::graph::{Body, Workspace};
use std::collections::BTreeMap;

/// Std methods that return a value of their receiver's unit class.
const TRANSPARENT_METHODS: [&str; 7] = ["min", "max", "clamp", "abs", "floor", "ceil", "round"];

/// Abstract state: name → unit class override. Absent names fall back to
/// their suffix class; a `None` entry means "bound to an unclassified
/// value" (shadowing the suffix). Entries equal to the suffix default are
/// normalized away so `PartialEq` is semantic equality.
type Env = BTreeMap<String, Option<UnitClass>>;

/// Suffix classification, case-insensitive so `MAX_WAIT_BU` constants
/// classify like `wait_bu` locals.
fn suffix_class(name: &str) -> Option<UnitClass> {
    UnitClass::of(&name.to_ascii_lowercase())
}

/// Effective class of `name` under `env`.
fn lookup(env: &Env, name: &str) -> Option<UnitClass> {
    env.get(name).copied().unwrap_or_else(|| suffix_class(name))
}

/// Record `name → class`, normalizing suffix-default entries away.
fn bind(env: &mut Env, name: &str, class: Option<UnitClass>) {
    if class == suffix_class(name) {
        env.remove(name);
    } else {
        env.insert(name.to_string(), class);
    }
}

/// Agreement join: paths that disagree leave the name unclassified.
fn join_env(into: &mut Env, other: &Env) {
    let keys: Vec<String> = into.keys().chain(other.keys()).cloned().collect();
    for k in keys {
        let a = into.get(&k).copied().unwrap_or_else(|| suffix_class(&k));
        let b = other.get(&k).copied().unwrap_or_else(|| suffix_class(&k));
        let merged = if a == b { a } else { None };
        bind(into, &k, merged);
    }
}

/// Everything `eval` needs besides the mutable state.
struct Cx<'a> {
    f: &'a SourceFile,
    arena: &'a ExprArena,
    ws: &'a Workspace<'a>,
    summaries: &'a BTreeMap<String, UnitClass>,
    /// The enclosing fn's suffix-declared return class, if any.
    fn_ret: Option<UnitClass>,
}

/// The pluggable-lattice face of the analysis: quiet transfer for the
/// fixpoint; the reporting pass re-runs `eval` from the fixpoint
/// in-states.
struct UnitLattice<'a, 'b> {
    cx: &'b Cx<'a>,
}

impl Lattice for UnitLattice<'_, '_> {
    type State = Env;

    fn entry_state(&self) -> Env {
        Env::new()
    }

    fn transfer(&mut self, state: &mut Env, stmt: ExprId) {
        let mut scratch = Vec::new();
        eval(self.cx, state, stmt, false, &mut scratch);
    }

    fn join(&self, into: &mut Env, other: &Env) {
        join_env(into, other);
    }
}

/// A short source snippet for diagnostics, reconstructed from the node's
/// code-token span.
fn snippet(f: &SourceFile, e: &Expr) -> String {
    let (a, b) = e.span;
    let shown = b.min(a + 8);
    let mut s = String::new();
    for k in a..shown {
        if !s.is_empty()
            && !matches!(f.text(k), "." | "," | ")" | "(" | "::" | "?")
            && !matches!(
                f.text(k.wrapping_sub(1)),
                "." | "(" | "::" | "&" | "-" | "!"
            )
        {
            s.push(' ');
        }
        s.push_str(f.text(k));
    }
    if b > shown {
        s.push('…');
    }
    s
}

/// The `(name as _)` rewrite for an operand that is a single identifier
/// token on the diagnostic's own line.
fn cast_suggestion(f: &SourceFile, e: &Expr, line: u32) -> Option<Suggestion> {
    let ExprKind::Name(name) = &e.kind else {
        return None;
    };
    if e.span.1 != e.span.0 + 1 {
        return None;
    }
    let tok = f.t(e.span.0)?;
    if tok.line != line {
        return None;
    }
    Some(Suggestion {
        line,
        text: format!("({name} as _)"),
        span: Some((tok.col, tok.col + tok.text.len() as u32)),
    })
}

/// Evaluate `id` under `env`, returning its unit class; when `report` is
/// set, emit diagnostics for every mixed-unit combination seen. Also the
/// transfer function: `Let`/`Assign` update `env`.
fn eval(
    cx: &Cx,
    env: &mut Env,
    id: ExprId,
    report: bool,
    out: &mut Vec<Diagnostic>,
) -> Option<UnitClass> {
    let e = cx.arena.get(id);
    match &e.kind {
        ExprKind::Lit | ExprKind::Continue | ExprKind::Opaque => None,
        ExprKind::Name(n) => lookup(env, n),
        ExprKind::Path(segs) => segs.last().and_then(|s| suffix_class(s)),
        ExprKind::Field(base, name) => {
            eval(cx, env, *base, report, out);
            suffix_class(name)
        }
        ExprKind::Paren(inner) => eval(cx, env, *inner, report, out),
        ExprKind::Unary { op, expr } => {
            let c = eval(cx, env, *expr, report, out);
            if *op == "!" {
                None
            } else {
                c
            }
        }
        ExprKind::Cast { expr } => {
            // An explicit cast is an explicit unit decision.
            eval(cx, env, *expr, report, out);
            None
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let lc = eval(cx, env, *lhs, report, out);
            let rc = eval(cx, env, *rhs, report, out);
            let same_unit = SAME_UNIT_OPS.contains(&op.as_str());
            if report && same_unit {
                if let (Some(a), Some(b)) = (lc, rc) {
                    if a != b {
                        let (le, re) = (cx.arena.get(*lhs), cx.arena.get(*rhs));
                        let mut d = diag(
                            cx.f,
                            e.line,
                            "D11",
                            format!(
                                "mixed-unit `{op}`: `{}` is {} but `{}` is {} — convert \
                                 explicitly before combining",
                                snippet(cx.f, le),
                                a.label(),
                                snippet(cx.f, re),
                                b.label()
                            ),
                        );
                        d.suggestion = cast_suggestion(cx.f, re, e.line)
                            .or_else(|| cast_suggestion(cx.f, le, e.line));
                        out.push(d);
                    }
                }
            }
            match op.as_str() {
                "+" | "-" => match (lc, rc) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    _ => None,
                },
                _ => None, // comparisons are bool; * / % change units
            }
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let rc = eval(cx, env, *rhs, report, out);
            let target = cx.arena.get(*lhs);
            match (&target.kind, op.as_str()) {
                (ExprKind::Name(n), "=") => {
                    check_and_bind(cx, env, n, rc, e.line, report, out);
                }
                (ExprKind::Name(n), "+=" | "-=") => {
                    let lc = lookup(env, n);
                    if report {
                        if let (Some(a), Some(b)) = (lc, rc) {
                            if a != b {
                                let re = cx.arena.get(*rhs);
                                let mut d = diag(
                                    cx.f,
                                    e.line,
                                    "D11",
                                    format!(
                                        "mixed-unit `{op}`: `{n}` is {} but `{}` is {} — \
                                         convert explicitly before accumulating",
                                        a.label(),
                                        snippet(cx.f, re),
                                        b.label()
                                    ),
                                );
                                d.suggestion = cast_suggestion(cx.f, re, e.line);
                                out.push(d);
                            }
                        }
                    }
                }
                (ExprKind::Field(_, fname), "=" | "+=" | "-=") if report => {
                    if let (Some(fc), Some(b)) = (suffix_class(fname), rc) {
                        if fc != b {
                            let re = cx.arena.get(*rhs);
                            let mut d = diag(
                                cx.f,
                                e.line,
                                "D11",
                                format!(
                                    "assigns {} value `{}` to field `{fname}` ({}) — \
                                     convert explicitly",
                                    b.label(),
                                    snippet(cx.f, re),
                                    fc.label()
                                ),
                            );
                            d.suggestion = cast_suggestion(cx.f, re, e.line);
                            out.push(d);
                        }
                    }
                }
                _ => {}
            }
            None
        }
        ExprKind::Let {
            names,
            init,
            else_block,
        } => {
            let ic = init.map(|i| eval(cx, env, i, report, out));
            match (&names[..], ic) {
                ([name], Some(ic)) => check_and_bind(cx, env, name, ic, e.line, report, out),
                _ => {
                    // Pattern bindings (or synthetic init-less rebinds):
                    // the bound values are unobserved — reset to suffix.
                    for n in names {
                        env.remove(n);
                    }
                }
            }
            if let Some(eb) = else_block {
                let mut diverged = env.clone();
                eval(cx, &mut diverged, *eb, report, out);
            }
            None
        }
        ExprKind::Block { stmts, tail } => {
            for s in stmts {
                eval(cx, env, *s, report, out);
            }
            tail.and_then(|t| eval(cx, env, t, report, out))
        }
        ExprKind::If {
            cond,
            bound,
            then_blk,
            else_blk,
        } => {
            eval(cx, env, *cond, report, out);
            let mut then_env = env.clone();
            for b in bound {
                then_env.remove(b);
            }
            let tc = eval(cx, &mut then_env, *then_blk, report, out);
            if let Some(eb) = else_blk {
                let mut else_env = env.clone();
                let ec = eval(cx, &mut else_env, *eb, report, out);
                *env = then_env;
                join_env(env, &else_env);
                if tc == ec {
                    tc
                } else {
                    None
                }
            } else {
                join_env(env, &then_env);
                None
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            eval(cx, env, *scrutinee, report, out);
            let orig = env.clone();
            let mut acc: Option<Env> = None;
            let mut classes: Vec<Option<UnitClass>> = Vec::new();
            for arm in arms {
                let mut arm_env = orig.clone();
                for b in &arm.bound {
                    arm_env.remove(b);
                }
                classes.push(eval(cx, &mut arm_env, arm.body, report, out));
                match &mut acc {
                    Some(a) => join_env(a, &arm_env),
                    None => acc = Some(arm_env),
                }
            }
            *env = acc.unwrap_or(orig);
            match &classes[..] {
                [first, rest @ ..] if rest.iter().all(|c| c == first) => *first,
                _ => None,
            }
        }
        ExprKind::While { cond, bound, body } => {
            eval(cx, env, *cond, report, out);
            let mut body_env = env.clone();
            for b in bound {
                body_env.remove(b);
            }
            eval(cx, &mut body_env, *body, report, out);
            join_env(env, &body_env);
            None
        }
        ExprKind::Loop { body } => {
            let mut body_env = env.clone();
            eval(cx, &mut body_env, *body, report, out);
            join_env(env, &body_env);
            None
        }
        ExprKind::For { bound, iter, body } => {
            eval(cx, env, *iter, report, out);
            let mut body_env = env.clone();
            for b in bound {
                body_env.remove(b);
            }
            eval(cx, &mut body_env, *body, report, out);
            join_env(env, &body_env);
            None
        }
        ExprKind::Return(v) => {
            // Returns the *value's* class so `analyze_fn` can collect
            // return classes from the same evaluation (never re-run it).
            let rc = v.and_then(|v| eval(cx, env, v, report, out));
            if report {
                if let (Some(want), Some(got)) = (cx.fn_ret, rc) {
                    if want != got {
                        let ve = cx.arena.get(v.unwrap_or(id));
                        out.push(diag(
                            cx.f,
                            e.line,
                            "D11",
                            format!(
                                "returns {} value `{}` from a fn whose name declares {} — \
                                 convert explicitly or rename the fn",
                                got.label(),
                                snippet(cx.f, ve),
                                want.label()
                            ),
                        ));
                    }
                }
            }
            rc
        }
        ExprKind::Break(v) => {
            if let Some(v) = v {
                eval(cx, env, *v, report, out);
            }
            None
        }
        ExprKind::Closure { body } => {
            let mut inner = env.clone();
            eval(cx, &mut inner, *body, report, out);
            None
        }
        ExprKind::MethodCall { recv, method, args } => {
            let rc = eval(cx, env, *recv, report, out);
            let arg_classes: Vec<Option<UnitClass>> = args
                .iter()
                .map(|a| eval(cx, env, *a, report, out))
                .collect();
            if TRANSPARENT_METHODS.contains(&method.as_str()) {
                if report && matches!(method.as_str(), "min" | "max" | "clamp") {
                    for (i, ac) in arg_classes.iter().enumerate() {
                        if let (Some(a), Some(b)) = (rc, *ac) {
                            if a != b {
                                let ae = cx.arena.get(args[i]);
                                let mut d = diag(
                                    cx.f,
                                    e.line,
                                    "D11",
                                    format!(
                                        "mixed-unit `{method}`: receiver is {} but argument \
                                         `{}` is {} — convert explicitly",
                                        a.label(),
                                        snippet(cx.f, ae),
                                        b.label()
                                    ),
                                );
                                d.suggestion = cast_suggestion(cx.f, ae, e.line);
                                out.push(d);
                            }
                        }
                    }
                }
                rc.or_else(|| arg_classes.iter().copied().flatten().next())
            } else {
                None
            }
        }
        ExprKind::Call { callee, args } => {
            let arg_classes: Vec<Option<UnitClass>> = args
                .iter()
                .map(|a| eval(cx, env, *a, report, out))
                .collect();
            let name = match &cx.arena.get(*callee).kind {
                ExprKind::Name(n) => Some(n.clone()),
                ExprKind::Path(segs) => segs.last().cloned(),
                _ => {
                    eval(cx, env, *callee, report, out);
                    None
                }
            };
            let name = name?;
            if report {
                check_call_args(cx, &name, args, &arg_classes, out);
            }
            cx.summaries
                .get(&name)
                .copied()
                .map(Some)
                .unwrap_or_else(|| suffix_class(&name))
        }
        ExprKind::StructLit { path, fields } => {
            for (fname, val) in fields {
                let Some(v) = val else { continue };
                let vc = eval(cx, env, *v, report, out);
                if report {
                    if let (Some(fc), Some(c)) = (suffix_class(fname), vc) {
                        if fc != c {
                            let ve = cx.arena.get(*v);
                            let mut d = diag(
                                cx.f,
                                e.line,
                                "D11",
                                format!(
                                    "field `{fname}` ({}) of `{}` initialized with {} value \
                                     `{}` — convert explicitly",
                                    fc.label(),
                                    path.join("::"),
                                    c.label(),
                                    snippet(cx.f, ve)
                                ),
                            );
                            d.suggestion = cast_suggestion(cx.f, ve, e.line);
                            out.push(d);
                        }
                    }
                }
            }
            None
        }
        ExprKind::Tuple(items) => {
            for i in items {
                eval(cx, env, *i, report, out);
            }
            None
        }
        ExprKind::Index { base, index } => {
            let bc = eval(cx, env, *base, report, out);
            eval(cx, env, *index, report, out);
            bc // an element of `waits_bu` is itself broadcast-units
        }
        ExprKind::Range { lo, hi } => {
            for side in [lo, hi].into_iter().flatten() {
                eval(cx, env, *side, report, out);
            }
            None
        }
    }
}

/// Bind `name` to `class`: a suffixed name keeps its declared class (a
/// known different initializer class is a diagnostic); an unsuffixed name
/// takes the initializer's class.
fn check_and_bind(
    cx: &Cx,
    env: &mut Env,
    name: &str,
    class: Option<UnitClass>,
    line: u32,
    report: bool,
    out: &mut Vec<Diagnostic>,
) {
    match suffix_class(name) {
        Some(declared) => {
            if report {
                if let Some(c) = class {
                    if c != declared {
                        out.push(diag(
                            cx.f,
                            line,
                            "D11",
                            format!(
                                "binding `{name}` declares {} by suffix but is assigned a {} \
                                 value — convert explicitly or rename",
                                declared.label(),
                                c.label()
                            ),
                        ));
                    }
                }
            }
            env.remove(name); // the suffix stays authoritative
        }
        None => bind(env, name, class),
    }
}

/// Check call arguments against the unique workspace definition's
/// parameter-name suffixes.
fn check_call_args(
    cx: &Cx,
    name: &str,
    args: &[ExprId],
    arg_classes: &[Option<UnitClass>],
    out: &mut Vec<Diagnostic>,
) {
    let Some(defs) = cx.ws.fn_defs.get(name) else {
        return;
    };
    let [(fi, gi)] = defs[..] else {
        return; // ambiguous names are never resolved
    };
    let item = &cx.ws.files[fi].items.fns[gi];
    let params: Vec<_> = item
        .params
        .iter()
        .filter(|p| p.name.as_deref() != Some("self"))
        .collect();
    for (i, (arg, ac)) in args.iter().zip(arg_classes).enumerate() {
        let Some(param) = params.get(i) else { break };
        let (Some(pn), Some(a)) = (param.name.as_deref(), *ac) else {
            continue;
        };
        let Some(pc) = suffix_class(pn) else { continue };
        if pc != a {
            let ae = cx.arena.get(*arg);
            let line = ae.line;
            let mut d = diag(
                cx.f,
                line,
                "D11",
                format!(
                    "passes {} value `{}` to parameter `{pn}` ({}) of `{name}` — convert \
                     explicitly",
                    a.label(),
                    snippet(cx.f, ae),
                    pc.label()
                ),
            );
            d.suggestion = cast_suggestion(cx.f, ae, line);
            out.push(d);
        }
    }
}

/// Run the analysis over one body; returns the classes of every `return`
/// value observed (reporting along the way when `report` is set).
fn analyze_fn(
    cx: &Cx,
    body: &Body,
    report: bool,
    out: &mut Vec<Diagnostic>,
) -> Vec<Option<UnitClass>> {
    let mut lat = UnitLattice { cx };
    let in_states = forward(&body.cfg, &mut lat);
    let mut rets = Vec::new();
    for (bi, state) in in_states.iter().enumerate() {
        let Some(state) = state else { continue };
        let mut env = state.clone();
        for &stmt in &body.cfg.blocks[bi].stmts {
            let is_ret = matches!(&cx.arena.get(stmt).kind, ExprKind::Return(_));
            let c = eval(cx, &mut env, stmt, report, out);
            if is_ret {
                rets.push(c);
            }
        }
    }
    rets
}

/// Whether D11 analyzes this file: library code of the unit-disciplined
/// crates.
fn in_scope(f: &SourceFile) -> bool {
    f.scope.library
        && f.scope
            .crate_name
            .as_deref()
            .is_some_and(|c| UNIT_CRATES.contains(&c))
}

/// D11 driver: two summary fixpoint passes over the workspace call graph,
/// then one reporting pass per function.
pub fn d11_unit_inference(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let mut summaries: BTreeMap<String, UnitClass> = BTreeMap::new();
    for _pass in 0..2 {
        let mut next = summaries.clone();
        let mut scratch = Vec::new();
        for a in ws.files {
            if !in_scope(&a.file) {
                continue;
            }
            for (gi, item) in a.items.fns.iter().enumerate() {
                if a.file.in_test(item.line) {
                    continue;
                }
                if let Some(sc) = suffix_class(&item.name) {
                    next.insert(item.name.clone(), sc);
                    continue;
                }
                if ws.fn_defs.get(&item.name).is_none_or(|d| d.len() != 1) {
                    continue;
                }
                let Some(body) = &a.bodies[gi] else { continue };
                let cx = Cx {
                    f: &a.file,
                    arena: &body.arena,
                    ws,
                    summaries: &summaries,
                    fn_ret: None,
                };
                let rets = analyze_fn(&cx, body, false, &mut scratch);
                let joined = match &rets[..] {
                    [Some(first), rest @ ..] if rest.iter().all(|c| *c == Some(*first)) => {
                        Some(*first)
                    }
                    _ => None,
                };
                match joined {
                    Some(c) => {
                        next.insert(item.name.clone(), c);
                    }
                    None => {
                        next.remove(&item.name);
                    }
                }
            }
        }
        summaries = next;
    }
    for a in ws.files {
        if !in_scope(&a.file) {
            continue;
        }
        for (gi, item) in a.items.fns.iter().enumerate() {
            if a.file.in_test(item.line) {
                continue;
            }
            let Some(body) = &a.bodies[gi] else { continue };
            let cx = Cx {
                f: &a.file,
                arena: &body.arena,
                ws,
                summaries: &summaries,
                fn_ret: suffix_class(&item.name),
            };
            analyze_fn(&cx, body, true, out);
        }
    }
}
