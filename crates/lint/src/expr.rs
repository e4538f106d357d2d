//! Expression-level parser for function bodies.
//!
//! The item parser ([`crate::parse`]) recovers *where* code lives; the
//! dataflow rules (D11, D12) need to know *what it does*: which names a
//! `let` binds, which fields an assignment writes, which function a call
//! reaches, which variant a `return` produces. This module parses the
//! code-token range of one function body into an arena of expression
//! nodes — a Pratt parser with the standard Rust precedence ladder
//! (assignment < range < `||` < `&&` < comparison < `|` < `^` < `&` <
//! shift < additive < multiplicative < `as` < unary < postfix).
//!
//! Like every layer of `bpp-lint`, the parser is **total**: any token
//! sequence it cannot place becomes an [`ExprKind::Opaque`] node that
//! consumes at least one token, so parsing always terminates and never
//! fails. Rules built on top treat `Opaque` as "unknown value" — the
//! conservative answer. Constructs without dataflow value (macro bodies,
//! array literals, type ascriptions) are deliberately opaque; constructs
//! with it (if/match/while/for, struct literals, casts, closures) keep
//! their structure.
//!
//! Every node records its 1-based start line and its half-open
//! **code-token index** span (`SourceFile::code` positions), so rules can
//! re-read exact source tokens — the `--fix` applier turns single-token
//! spans into byte columns via [`crate::lexer::Token::col`].

use crate::lexer::TokenKind;
use crate::parse::{matching, skip_generics};
use crate::rules::SourceFile;

/// Index of an expression node in its [`ExprArena`].
pub type ExprId = u32;

/// One match arm: the names its pattern binds (lowercase idents only —
/// constructors and paths are skipped) and its body expression. Guards
/// are consumed but not modelled.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// Names bound by the arm's pattern.
    pub bound: Vec<String>,
    /// The arm's body expression.
    pub body: ExprId,
}

/// The expression grammar the dataflow rules interpret.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A literal: int, float, string, char, byte, bool.
    Lit,
    /// A single identifier (including `self`).
    Name(String),
    /// A `::`-separated path, segments in order (`SubmitOutcome`,
    /// `Enqueued`). Turbofish generics are consumed, not recorded.
    Path(Vec<String>),
    /// `base.field` (also `.0` tuple access and `.await`).
    Field(ExprId, String),
    /// `recv.method(args)`.
    MethodCall {
        /// The receiver expression.
        recv: ExprId,
        /// The method name.
        method: String,
        /// Argument expressions, in order.
        args: Vec<ExprId>,
    },
    /// `callee(args)` — callee is typically `Name` or `Path`.
    Call {
        /// The callee expression.
        callee: ExprId,
        /// Argument expressions, in order.
        args: Vec<ExprId>,
    },
    /// Prefix `-`/`!`/`*`/`&` or postfix `?` (op `"?"`).
    Unary {
        /// The operator token.
        op: &'static str,
        /// The operand.
        expr: ExprId,
    },
    /// An infix binary operator (never assignment).
    Binary {
        /// The operator token.
        op: String,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// `lhs = rhs` or a compound assignment (`+=`, …); `op` includes the
    /// `=`.
    Assign {
        /// The (compound) assignment operator token.
        op: String,
        /// The place being written.
        lhs: ExprId,
        /// The value being assigned.
        rhs: ExprId,
    },
    /// `let <pat> = init else { … };` — `names` are the pattern's bound
    /// names; `init` is `None` for synthetic rebinds (`let x;` is not
    /// Rust, but the CFG uses init-less lets to model pattern bindings
    /// whose value the analysis cannot see).
    Let {
        /// Names the pattern binds.
        names: Vec<String>,
        /// The initializer, absent on synthetic rebinds.
        init: Option<ExprId>,
        /// The diverging `else { … }` block of a let-else.
        else_block: Option<ExprId>,
    },
    /// `{ stmts; tail }`.
    Block {
        /// Semicolon-terminated statements.
        stmts: Vec<ExprId>,
        /// The trailing value expression, if any.
        tail: Option<ExprId>,
    },
    /// `if cond { … } else …`; `bound` carries `if let` pattern names
    /// (scoped to the then-branch).
    If {
        /// The condition (the scrutinee for `if let`).
        cond: ExprId,
        /// Names an `if let` pattern binds in the then-branch.
        bound: Vec<String>,
        /// The then-branch block.
        then_blk: ExprId,
        /// The else-branch (block or chained `if`), if any.
        else_blk: Option<ExprId>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// The matched expression.
        scrutinee: ExprId,
        /// The arms, in order.
        arms: Vec<MatchArm>,
    },
    /// `while cond { … }`; `bound` carries `while let` pattern names.
    While {
        /// The condition (the scrutinee for `while let`).
        cond: ExprId,
        /// Names a `while let` pattern binds in the body.
        bound: Vec<String>,
        /// The loop body block.
        body: ExprId,
    },
    /// `loop { … }`.
    Loop {
        /// The loop body block.
        body: ExprId,
    },
    /// `for <pat> in iter { … }`.
    For {
        /// Names the loop pattern binds.
        bound: Vec<String>,
        /// The iterated expression.
        iter: ExprId,
        /// The loop body block.
        body: ExprId,
    },
    /// `return [value]`.
    Return(Option<ExprId>),
    /// `break [value]` (labels are consumed, not recorded).
    Break(Option<ExprId>),
    /// `continue`.
    Continue,
    /// `|args| body` / `move |args| body`; parameters are not modelled.
    Closure {
        /// The closure body expression.
        body: ExprId,
    },
    /// `expr as Type` — an *explicit* unit decision; D11 treats the
    /// result as unclassified.
    Cast {
        /// The cast operand.
        expr: ExprId,
    },
    /// `(expr)`.
    Paren(ExprId),
    /// `(a, b, …)`.
    Tuple(Vec<ExprId>),
    /// `base[index]`.
    Index {
        /// The indexed expression.
        base: ExprId,
        /// The index expression.
        index: ExprId,
    },
    /// `Path { field: value, .. }`; shorthand fields carry `None`.
    StructLit {
        /// The literal's type path.
        path: Vec<String>,
        /// `(field name, value)` pairs; shorthand fields carry `None`.
        fields: Vec<(String, Option<ExprId>)>,
    },
    /// `lo .. hi` / `lo ..= hi`, either side optional.
    Range {
        /// The lower bound, if present.
        lo: Option<ExprId>,
        /// The upper bound, if present.
        hi: Option<ExprId>,
    },
    /// Anything the grammar does not model (macro invocations, array
    /// literals, stray tokens). Always consumes at least one token.
    Opaque,
}

/// One parsed expression node.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The node's grammar production.
    pub kind: ExprKind,
    /// 1-based line of the node's first token.
    pub line: u32,
    /// Half-open code-token index range the node covers.
    pub span: (usize, usize),
}

/// Arena holding every expression of one function body (plus any
/// synthetic nodes the CFG lowering adds).
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    exprs: Vec<Expr>,
}

impl ExprArena {
    /// The node behind `id`. Ids handed out by this arena are always
    /// valid; a foreign id yields a shared `Opaque` placeholder rather
    /// than a panic.
    pub fn get(&self, id: ExprId) -> &Expr {
        static OPAQUE: Expr = Expr {
            kind: ExprKind::Opaque,
            line: 0,
            span: (0, 0),
        };
        self.exprs.get(id as usize).unwrap_or(&OPAQUE)
    }

    /// Allocate a node.
    pub fn alloc(&mut self, kind: ExprKind, line: u32, span: (usize, usize)) -> ExprId {
        let id = self.exprs.len() as ExprId;
        self.exprs.push(Expr { kind, line, span });
        id
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Append the direct children of `id` to `out` (pre-order building
    /// block for rule-side walks).
    pub fn children(&self, id: ExprId, out: &mut Vec<ExprId>) {
        match &self.get(id).kind {
            ExprKind::Lit
            | ExprKind::Name(_)
            | ExprKind::Path(_)
            | ExprKind::Continue
            | ExprKind::Opaque => {}
            ExprKind::Field(base, _) => out.push(*base),
            ExprKind::MethodCall { recv, args, .. } => {
                out.push(*recv);
                out.extend(args.iter().copied());
            }
            ExprKind::Call { callee, args } => {
                out.push(*callee);
                out.extend(args.iter().copied());
            }
            ExprKind::Unary { expr, .. } | ExprKind::Cast { expr } | ExprKind::Paren(expr) => {
                out.push(*expr)
            }
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            ExprKind::Let {
                init, else_block, ..
            } => {
                out.extend(init.iter().copied());
                out.extend(else_block.iter().copied());
            }
            ExprKind::Block { stmts, tail } => {
                out.extend(stmts.iter().copied());
                out.extend(tail.iter().copied());
            }
            ExprKind::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                out.push(*cond);
                out.push(*then_blk);
                out.extend(else_blk.iter().copied());
            }
            ExprKind::Match { scrutinee, arms } => {
                out.push(*scrutinee);
                out.extend(arms.iter().map(|a| a.body));
            }
            ExprKind::While { cond, body, .. } => {
                out.push(*cond);
                out.push(*body);
            }
            ExprKind::Loop { body } => out.push(*body),
            ExprKind::For { iter, body, .. } => {
                out.push(*iter);
                out.push(*body);
            }
            ExprKind::Return(v) | ExprKind::Break(v) => out.extend(v.iter().copied()),
            ExprKind::Closure { body } => out.push(*body),
            ExprKind::Tuple(items) => out.extend(items.iter().copied()),
            ExprKind::Index { base, index } => {
                out.push(*base);
                out.push(*index);
            }
            ExprKind::StructLit { fields, .. } => out.extend(fields.iter().filter_map(|(_, v)| *v)),
            ExprKind::Range { lo, hi } => {
                out.extend(lo.iter().copied());
                out.extend(hi.iter().copied());
            }
        }
    }

    /// Pre-order walk of the subtree rooted at `id`.
    pub fn walk(&self, id: ExprId, visit: &mut impl FnMut(ExprId)) {
        visit(id);
        let mut kids = Vec::new();
        self.children(id, &mut kids);
        for k in kids {
            self.walk(k, visit);
        }
    }
}

/// Parse the code-token range `[lo, hi)` (a function body between its
/// braces) into `arena`; returns the root `Block` node. Total — never
/// fails.
pub fn parse_body(f: &SourceFile, arena: &mut ExprArena, lo: usize, hi: usize) -> ExprId {
    let mut p = Parser {
        f,
        pos: lo,
        hi,
        arena,
        no_struct: false,
    };
    p.block_contents(lo)
}

/// Keywords that can never be a value-position identifier.
const KEYWORDS: [&str; 26] = [
    "if", "else", "match", "while", "loop", "for", "in", "return", "break", "continue", "let",
    "fn", "struct", "enum", "impl", "trait", "mod", "use", "pub", "const", "static", "type",
    "where", "move", "ref", "mut",
];

/// Tokens that start a nested item (skipped; the item parser finds nested
/// fns on its own linear walk).
const ITEM_STARTERS: [&str; 12] = [
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "type",
    "static",
    "pub",
    "extern",
    "macro_rules",
];

/// Infix binary operators by precedence tier, loosest first. Assignment,
/// ranges and `as` have dedicated handling.
const BIN_TIERS: [&[&str]; 9] = [
    &["||"],
    &["&&"],
    &["==", "!=", "<", "<=", ">", ">="],
    &["|"],
    &["^"],
    &["&"],
    &["<<", ">>"],
    &["+", "-"],
    &["*", "/", "%"],
];

const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

struct Parser<'a> {
    f: &'a SourceFile,
    pos: usize,
    hi: usize,
    arena: &'a mut ExprArena,
    /// Inside an `if`/`while`/`match`/`for` head: a `{` after a path is
    /// the construct's block, not a struct literal.
    no_struct: bool,
}

impl<'a> Parser<'a> {
    fn text(&self, at: usize) -> &str {
        if at < self.hi {
            self.f.text(at)
        } else {
            ""
        }
    }

    fn kind(&self, at: usize) -> Option<TokenKind> {
        if at < self.hi {
            self.f.kind(at)
        } else {
            None
        }
    }

    fn line(&self, at: usize) -> u32 {
        self.f.line(at.min(self.hi.saturating_sub(1)))
    }

    fn alloc(&mut self, kind: ExprKind, start: usize) -> ExprId {
        let line = self.line(start);
        let end = self.pos.min(self.hi).max(start);
        self.arena.alloc(kind, line, (start, end))
    }

    /// Skip a balanced bracket group whose opener sits at `self.pos`.
    fn skip_balanced(&mut self) {
        let close = matching(self.f, self.pos);
        self.pos = (close + 1).min(self.hi.max(self.pos + 1));
    }

    /// Parse the statements of a block body ending at the enclosing
    /// brace; `start` is only used for the span. Consumes up to
    /// `self.hi`.
    fn block_contents(&mut self, start: usize) -> ExprId {
        let mut stmts = Vec::new();
        let mut tail = None;
        while self.pos < self.hi {
            match self.text(self.pos) {
                ";" => {
                    self.pos += 1;
                    continue;
                }
                "#" if matches!(self.text(self.pos + 1), "[" | "!") => {
                    // `#[attr]` / `#![attr]` on a statement or item.
                    self.pos += if self.text(self.pos + 1) == "!" { 2 } else { 1 };
                    if self.text(self.pos) == "[" {
                        self.skip_balanced();
                    }
                    continue;
                }
                "let" => {
                    let stmt = self.parse_let();
                    stmts.push(stmt);
                    continue;
                }
                "const" if self.kind(self.pos + 1) == Some(TokenKind::Ident) => {
                    self.skip_item();
                    continue;
                }
                t if ITEM_STARTERS.contains(&t) => {
                    self.skip_item();
                    continue;
                }
                _ => {}
            }
            let before = self.pos;
            let e = self.parse_expr();
            if self.pos == before {
                // Totality guard: always make progress.
                self.pos += 1;
            }
            if self.pos < self.hi && self.text(self.pos) == ";" {
                self.pos += 1;
                stmts.push(e);
            } else if self.pos >= self.hi {
                tail = Some(e);
            } else {
                // Block-like expression statement (`if … {}` `match … {}`)
                // needs no semicolon.
                stmts.push(e);
            }
        }
        let line = self.line(start);
        self.arena
            .alloc(ExprKind::Block { stmts, tail }, line, (start, self.hi))
    }

    /// Skip one nested item (`fn`, `struct`, `use`, …): consume to the
    /// first top-level `{…}` (inclusive) or `;`.
    fn skip_item(&mut self) {
        while self.pos < self.hi {
            match self.text(self.pos) {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                "<" => self.pos = skip_generics(self.f, self.pos).min(self.hi),
                _ => self.pos += 1,
            }
        }
    }

    /// `let <pat> [: Ty] [= init] [else { … }] ;`
    fn parse_let(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `let`
        let names = self.parse_pattern(&["=", ":", ";"]);
        if self.text(self.pos) == ":" {
            self.pos += 1;
            self.skip_type(&["=", ";"]);
        }
        let mut init = None;
        let mut else_block = None;
        if self.text(self.pos) == "=" {
            self.pos += 1;
            init = Some(self.parse_expr());
            if self.text(self.pos) == "else" && self.text(self.pos + 1) == "{" {
                self.pos += 2;
                let inner_hi = matching(self.f, self.pos - 1).min(self.hi);
                else_block = Some(self.sub_block(inner_hi));
            }
        }
        if self.text(self.pos) == ";" {
            self.pos += 1;
        }
        self.alloc(
            ExprKind::Let {
                names,
                init,
                else_block,
            },
            start,
        )
    }

    /// Parse a nested `{…}` whose opening brace is already consumed and
    /// whose matching close sits at `inner_hi`.
    fn sub_block(&mut self, inner_hi: usize) -> ExprId {
        let start = self.pos;
        let saved_hi = self.hi;
        let saved_ns = self.no_struct;
        self.hi = inner_hi;
        self.no_struct = false;
        let blk = self.block_contents(start.saturating_sub(1));
        self.hi = saved_hi;
        self.no_struct = saved_ns;
        self.pos = (inner_hi + 1).min(self.hi);
        blk
    }

    /// Collect the lowercase bound names of a pattern, stopping at any of
    /// `stops` at bracket depth 0. Constructors (`Some`, `SubmitOutcome`)
    /// start uppercase by workspace convention and are skipped, as are
    /// path segments and field keys in struct patterns.
    fn parse_pattern(&mut self, stops: &[&str]) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        let mut depth = 0i32;
        let mut in_guard = false;
        while self.pos < self.hi {
            let t = self.text(self.pos);
            if depth == 0 && stops.contains(&t) {
                break;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                // A match-arm guard: consumed here (up to `=>`) but its
                // expression names are uses, not bindings.
                "if" if depth == 0 => in_guard = true,
                _ => {
                    if !in_guard
                        && self.kind(self.pos) == Some(TokenKind::Ident)
                        && !KEYWORDS.contains(&t)
                        && t != "_"
                        && t.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                        && self.text(self.pos.wrapping_sub(1)) != "::"
                        && self.text(self.pos + 1) != "::"
                        && self.text(self.pos + 1) != ":"
                        && self.text(self.pos + 1) != "("
                        && !names.iter().any(|n| n == t)
                    {
                        names.push(t.to_string());
                    }
                }
            }
            self.pos += 1;
        }
        names
    }

    /// Skip type tokens until one of `stops` at depth 0.
    fn skip_type(&mut self, stops: &[&str]) {
        let mut depth = 0i32;
        while self.pos < self.hi {
            let t = self.text(self.pos);
            if depth == 0 && stops.contains(&t) {
                return;
            }
            match t {
                "<" => {
                    self.pos = skip_generics(self.f, self.pos).min(self.hi);
                    continue;
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn parse_expr(&mut self) -> ExprId {
        self.parse_assign()
    }

    /// Parse with struct literals temporarily forbidden (an `if`/`while`/
    /// `match`/`for` head).
    fn parse_head(&mut self) -> ExprId {
        let saved = self.no_struct;
        self.no_struct = true;
        let e = self.parse_expr();
        self.no_struct = saved;
        e
    }

    fn parse_assign(&mut self) -> ExprId {
        let start = self.pos;
        let lhs = self.parse_range();
        let t = self.text(self.pos).to_string();
        if ASSIGN_OPS.contains(&t.as_str()) {
            self.pos += 1;
            let rhs = self.parse_assign();
            return self.alloc(ExprKind::Assign { op: t, lhs, rhs }, start);
        }
        lhs
    }

    fn parse_range(&mut self) -> ExprId {
        let start = self.pos;
        if matches!(self.text(self.pos), ".." | "..=") {
            self.pos += 1;
            let hi = self.range_operand_follows().then(|| self.parse_tier(0));
            return self.alloc(ExprKind::Range { lo: None, hi }, start);
        }
        let lo = self.parse_tier(0);
        if matches!(self.text(self.pos), ".." | "..=") {
            self.pos += 1;
            let hi = self.range_operand_follows().then(|| self.parse_tier(0));
            return self.alloc(ExprKind::Range { lo: Some(lo), hi }, start);
        }
        lo
    }

    /// Whether a range bound expression can start at the cursor.
    fn range_operand_follows(&self) -> bool {
        !matches!(
            self.text(self.pos),
            "" | ")" | "]" | "}" | "," | ";" | "=" | "{"
        )
    }

    fn parse_tier(&mut self, tier: usize) -> ExprId {
        if tier >= BIN_TIERS.len() {
            return self.parse_cast();
        }
        let start = self.pos;
        let mut lhs = self.parse_tier(tier + 1);
        loop {
            let t = self.text(self.pos);
            if !BIN_TIERS[tier].contains(&t) {
                return lhs;
            }
            // `|` in expression position could open a closure only at
            // primary position, which parse_primary already handled; here
            // it is bit-or. `&` here is bit-and.
            let op = t.to_string();
            self.pos += 1;
            let rhs = self.parse_tier(tier + 1);
            lhs = self.alloc(ExprKind::Binary { op, lhs, rhs }, start);
        }
    }

    fn parse_cast(&mut self) -> ExprId {
        let start = self.pos;
        let mut e = self.parse_unary();
        while self.text(self.pos) == "as" {
            self.pos += 1;
            self.skip_cast_type();
            e = self.alloc(ExprKind::Cast { expr: e }, start);
        }
        e
    }

    /// Skip the type after `as`: `&`/`mut` prefixes then a path with
    /// optional generics, or a parenthesized/array type.
    fn skip_cast_type(&mut self) {
        while matches!(self.text(self.pos), "&" | "mut" | "*" | "const") {
            self.pos += 1;
        }
        if matches!(self.text(self.pos), "(" | "[") {
            self.skip_balanced();
            return;
        }
        while self.kind(self.pos) == Some(TokenKind::Ident) {
            self.pos += 1;
            if self.text(self.pos) == "<" {
                self.pos = skip_generics(self.f, self.pos).min(self.hi);
            }
            if self.text(self.pos) == "::" {
                self.pos += 1;
                continue;
            }
            break;
        }
    }

    fn parse_unary(&mut self) -> ExprId {
        let start = self.pos;
        let t = self.text(self.pos);
        let op: Option<&'static str> = match t {
            "-" => Some("-"),
            "!" => Some("!"),
            "*" => Some("*"),
            "&" | "&&" => Some("&"),
            _ => None,
        };
        if let Some(op) = op {
            // `&&x` is two reference-ofs; treat as one (class-transparent).
            self.pos += 1;
            if self.text(self.pos) == "mut" {
                self.pos += 1;
            }
            let inner = self.parse_unary();
            return self.alloc(ExprKind::Unary { op, expr: inner }, start);
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> ExprId {
        let start = self.pos;
        let mut e = self.parse_primary();
        loop {
            match self.text(self.pos) {
                "." => {
                    let seg = self.pos + 1;
                    if self.kind(seg) == Some(TokenKind::Ident)
                        || self.kind(seg) == Some(TokenKind::Int)
                    {
                        let name = self.text(seg).to_string();
                        self.pos = seg + 1;
                        // Turbofish: `.collect::<…>()`.
                        if self.text(self.pos) == "::" && self.text(self.pos + 1) == "<" {
                            self.pos = skip_generics(self.f, self.pos + 1).min(self.hi);
                        }
                        if self.text(self.pos) == "(" {
                            let args = self.parse_args();
                            e = self.alloc(
                                ExprKind::MethodCall {
                                    recv: e,
                                    method: name,
                                    args,
                                },
                                start,
                            );
                        } else {
                            e = self.alloc(ExprKind::Field(e, name), start);
                        }
                    } else {
                        // `.` followed by something unmodelled.
                        self.pos += 1;
                        e = self.alloc(ExprKind::Opaque, start);
                    }
                }
                "?" => {
                    self.pos += 1;
                    e = self.alloc(ExprKind::Unary { op: "?", expr: e }, start);
                }
                "(" => {
                    let args = self.parse_args();
                    e = self.alloc(ExprKind::Call { callee: e, args }, start);
                }
                "[" => {
                    let close = matching(self.f, self.pos).min(self.hi);
                    self.pos += 1;
                    let saved = self.hi;
                    let saved_ns = self.no_struct;
                    self.hi = close;
                    self.no_struct = false;
                    let index = self.parse_expr();
                    self.hi = saved;
                    self.no_struct = saved_ns;
                    self.pos = (close + 1).min(self.hi);
                    e = self.alloc(ExprKind::Index { base: e, index }, start);
                }
                _ => return e,
            }
        }
    }

    /// Parse a parenthesized argument list whose `(` sits at the cursor.
    fn parse_args(&mut self) -> Vec<ExprId> {
        let close = matching(self.f, self.pos).min(self.hi);
        self.pos += 1;
        let saved = self.hi;
        let saved_ns = self.no_struct;
        self.hi = close;
        self.no_struct = false;
        let mut args = Vec::new();
        while self.pos < self.hi {
            if self.text(self.pos) == "," {
                self.pos += 1;
                continue;
            }
            let before = self.pos;
            args.push(self.parse_expr());
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.hi = saved;
        self.no_struct = saved_ns;
        self.pos = (close + 1).min(self.hi);
        args
    }

    fn parse_primary(&mut self) -> ExprId {
        let start = self.pos;
        if start >= self.hi {
            return self.alloc(ExprKind::Opaque, start);
        }
        let t = self.text(start).to_string();
        match t.as_str() {
            "if" => return self.parse_if(),
            "match" => return self.parse_match(),
            "while" => return self.parse_while(),
            "loop" => return self.parse_loop(),
            "for" => return self.parse_for(),
            "return" => {
                self.pos += 1;
                let v = self.expr_follows().then(|| self.parse_expr());
                return self.alloc(ExprKind::Return(v), start);
            }
            "break" => {
                self.pos += 1;
                if self.kind(self.pos) == Some(TokenKind::Lifetime) {
                    self.pos += 1; // `break 'label`
                }
                let v = self.expr_follows().then(|| self.parse_expr());
                return self.alloc(ExprKind::Break(v), start);
            }
            "continue" => {
                self.pos += 1;
                if self.kind(self.pos) == Some(TokenKind::Lifetime) {
                    self.pos += 1;
                }
                return self.alloc(ExprKind::Continue, start);
            }
            "move" | "|" | "||" => return self.parse_closure(),
            "unsafe" if self.text(start + 1) == "{" => {
                self.pos += 2;
                let inner_hi = matching(self.f, start + 1).min(self.hi);
                return self.sub_block(inner_hi);
            }
            "{" => {
                let inner_hi = matching(self.f, start).min(self.hi);
                self.pos += 1;
                return self.sub_block(inner_hi);
            }
            "(" => {
                let close = matching(self.f, start).min(self.hi);
                self.pos += 1;
                let saved = self.hi;
                let saved_ns = self.no_struct;
                self.hi = close;
                self.no_struct = false;
                let mut items = Vec::new();
                while self.pos < self.hi {
                    if self.text(self.pos) == "," {
                        self.pos += 1;
                        continue;
                    }
                    let before = self.pos;
                    items.push(self.parse_expr());
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                self.hi = saved;
                self.no_struct = saved_ns;
                self.pos = (close + 1).min(self.hi);
                return match items.len() {
                    1 => self.alloc(ExprKind::Paren(items[0]), start),
                    _ => self.alloc(ExprKind::Tuple(items), start),
                };
            }
            "[" => {
                // Array literal: structure-free, but consumed whole.
                self.skip_balanced();
                return self.alloc(ExprKind::Opaque, start);
            }
            ".." | "..=" => {
                self.pos += 1;
                let hi = self.range_operand_follows().then(|| self.parse_tier(0));
                return self.alloc(ExprKind::Range { lo: None, hi }, start);
            }
            _ => {}
        }
        match self.kind(start) {
            Some(
                TokenKind::Int
                | TokenKind::Float
                | TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::ByteStr
                | TokenKind::RawByteStr
                | TokenKind::Char
                | TokenKind::ByteChar,
            ) => {
                self.pos += 1;
                self.alloc(ExprKind::Lit, start)
            }
            Some(TokenKind::Ident) if t == "true" || t == "false" => {
                self.pos += 1;
                self.alloc(ExprKind::Lit, start)
            }
            Some(TokenKind::Ident) if !KEYWORDS.contains(&t.as_str()) => self.parse_path_like(),
            _ => {
                self.pos += 1;
                self.alloc(ExprKind::Opaque, start)
            }
        }
    }

    /// Whether an expression can start at the cursor (for optional
    /// `return`/`break` values).
    fn expr_follows(&self) -> bool {
        !matches!(self.text(self.pos), "" | ";" | "}" | ")" | "]" | ",")
    }

    /// An identifier: possibly a macro call, a path, a call, or a struct
    /// literal head.
    fn parse_path_like(&mut self) -> ExprId {
        let start = self.pos;
        let mut segs = vec![self.text(self.pos).to_string()];
        self.pos += 1;
        // Macro invocation: consume whole, opaque.
        if self.text(self.pos) == "!" && matches!(self.text(self.pos + 1), "(" | "[" | "{") {
            self.pos += 1;
            self.skip_balanced();
            return self.alloc(ExprKind::Opaque, start);
        }
        while self.text(self.pos) == "::" {
            if self.text(self.pos + 1) == "<" {
                // Turbofish `Vec::<u8>` — consume, stay on the path.
                self.pos = skip_generics(self.f, self.pos + 1).min(self.hi);
                continue;
            }
            if self.kind(self.pos + 1) == Some(TokenKind::Ident) {
                segs.push(self.text(self.pos + 1).to_string());
                self.pos += 2;
            } else {
                break;
            }
        }
        // Struct literal?
        if self.text(self.pos) == "{" && !self.no_struct {
            return self.parse_struct_lit(start, segs);
        }
        if segs.len() == 1 {
            let name = segs.pop().unwrap_or_default();
            self.alloc(ExprKind::Name(name), start)
        } else {
            self.alloc(ExprKind::Path(segs), start)
        }
    }

    /// `Path { field: value, field, ..base }` with the `{` at the cursor.
    fn parse_struct_lit(&mut self, start: usize, path: Vec<String>) -> ExprId {
        let close = matching(self.f, self.pos).min(self.hi);
        self.pos += 1;
        let saved = self.hi;
        let saved_ns = self.no_struct;
        self.hi = close;
        self.no_struct = false;
        let mut fields = Vec::new();
        while self.pos < self.hi {
            match self.text(self.pos) {
                "," => {
                    self.pos += 1;
                    continue;
                }
                ".." => {
                    // Functional update `..base`: consume the base expr.
                    self.pos += 1;
                    if self.expr_follows() {
                        self.parse_expr();
                    }
                    continue;
                }
                _ => {}
            }
            if self.kind(self.pos) == Some(TokenKind::Ident) {
                let fname = self.text(self.pos).to_string();
                if self.text(self.pos + 1) == ":" {
                    self.pos += 2;
                    let v = self.parse_expr();
                    fields.push((fname, Some(v)));
                    continue;
                }
                // Shorthand `field,`.
                self.pos += 1;
                fields.push((fname, None));
                continue;
            }
            self.pos += 1; // unmodelled token inside the literal
        }
        self.hi = saved;
        self.no_struct = saved_ns;
        self.pos = (close + 1).min(self.hi);
        self.alloc(ExprKind::StructLit { path, fields }, start)
    }

    fn parse_if(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `if`
        let mut bound = Vec::new();
        if self.text(self.pos) == "let" {
            self.pos += 1;
            bound = self.parse_pattern(&["="]);
            if self.text(self.pos) == "=" {
                self.pos += 1;
            }
        }
        let cond = self.parse_head();
        let then_blk = if self.text(self.pos) == "{" {
            let inner_hi = matching(self.f, self.pos).min(self.hi);
            self.pos += 1;
            self.sub_block(inner_hi)
        } else {
            self.alloc(ExprKind::Opaque, self.pos)
        };
        let mut else_blk = None;
        if self.text(self.pos) == "else" {
            self.pos += 1;
            if self.text(self.pos) == "if" {
                else_blk = Some(self.parse_if());
            } else if self.text(self.pos) == "{" {
                let inner_hi = matching(self.f, self.pos).min(self.hi);
                self.pos += 1;
                else_blk = Some(self.sub_block(inner_hi));
            }
        }
        self.alloc(
            ExprKind::If {
                cond,
                bound,
                then_blk,
                else_blk,
            },
            start,
        )
    }

    fn parse_match(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `match`
        let scrutinee = self.parse_head();
        let mut arms = Vec::new();
        if self.text(self.pos) == "{" {
            let close = matching(self.f, self.pos).min(self.hi);
            self.pos += 1;
            let saved = self.hi;
            self.hi = close;
            while self.pos < self.hi {
                if self.text(self.pos) == "," {
                    self.pos += 1;
                    continue;
                }
                if self.text(self.pos) == "#" && self.text(self.pos + 1) == "[" {
                    self.pos += 1;
                    self.skip_balanced();
                    continue;
                }
                // Pattern (guard included) up to `=>`.
                let bound = self.parse_pattern(&["=>"]);
                if self.text(self.pos) != "=>" {
                    break; // malformed arm; bail out of the match body
                }
                self.pos += 1;
                let before = self.pos;
                let body = self.parse_expr();
                if self.pos == before {
                    self.pos += 1;
                }
                arms.push(MatchArm { bound, body });
            }
            self.hi = saved;
            self.pos = (close + 1).min(self.hi);
        }
        self.alloc(ExprKind::Match { scrutinee, arms }, start)
    }

    fn parse_while(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `while`
        let mut bound = Vec::new();
        if self.text(self.pos) == "let" {
            self.pos += 1;
            bound = self.parse_pattern(&["="]);
            if self.text(self.pos) == "=" {
                self.pos += 1;
            }
        }
        let cond = self.parse_head();
        let body = self.parse_braced_body();
        self.alloc(ExprKind::While { cond, bound, body }, start)
    }

    fn parse_loop(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `loop`
        let body = self.parse_braced_body();
        self.alloc(ExprKind::Loop { body }, start)
    }

    fn parse_for(&mut self) -> ExprId {
        let start = self.pos;
        self.pos += 1; // `for`
        let bound = self.parse_pattern(&["in"]);
        if self.text(self.pos) == "in" {
            self.pos += 1;
        }
        let iter = self.parse_head();
        let body = self.parse_braced_body();
        self.alloc(ExprKind::For { bound, iter, body }, start)
    }

    fn parse_braced_body(&mut self) -> ExprId {
        if self.text(self.pos) == "{" {
            let inner_hi = matching(self.f, self.pos).min(self.hi);
            self.pos += 1;
            self.sub_block(inner_hi)
        } else {
            let at = self.pos;
            self.alloc(ExprKind::Opaque, at)
        }
    }

    /// `move |params| body`, `|params| body`, `|| body`.
    fn parse_closure(&mut self) -> ExprId {
        let start = self.pos;
        if self.text(self.pos) == "move" {
            self.pos += 1;
        }
        if self.text(self.pos) == "||" {
            self.pos += 1;
        } else if self.text(self.pos) == "|" {
            self.pos += 1;
            // Parameters (patterns + optional types) to the closing `|`.
            let mut depth = 0i32;
            while self.pos < self.hi {
                match self.text(self.pos) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => {
                        self.pos = skip_generics(self.f, self.pos).min(self.hi);
                        continue;
                    }
                    "|" if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        } else {
            // `move` without `|` — not a closure after all.
            self.pos += 1;
            return self.alloc(ExprKind::Opaque, start);
        }
        if self.text(self.pos) == "->" {
            self.pos += 1;
            self.skip_type(&["{"]);
        }
        let before = self.pos;
        let body = self.parse_expr();
        if self.pos == before {
            self.pos += 1;
        }
        self.alloc(ExprKind::Closure { body }, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    /// Parse the body of the first fn in `src`; returns the root block.
    fn body_of(src: &str) -> (SourceFile, ExprArena, ExprId) {
        let f = SourceFile::new(
            "crates/core/src/x.rs".to_string(),
            lex(src).expect("test source must lex"),
        );
        let items = parse_file(&f);
        let (lo, hi) = items.fns[0].body.expect("fn must have a body");
        let mut arena = ExprArena::default();
        let root = parse_body(&f, &mut arena, lo, hi);
        (f, arena, root)
    }

    fn stmts(arena: &ExprArena, root: ExprId) -> (Vec<ExprId>, Option<ExprId>) {
        match &arena.get(root).kind {
            ExprKind::Block { stmts, tail } => (stmts.clone(), *tail),
            other => panic!("root is not a block: {other:?}"),
        }
    }

    #[test]
    fn let_binding_and_tail() {
        let (_, arena, root) = body_of("fn f() -> f64 { let w = wait_bu; w + retry_count }");
        let (ss, tail) = stmts(&arena, root);
        assert_eq!(ss.len(), 1);
        let ExprKind::Let { names, init, .. } = &arena.get(ss[0]).kind else {
            panic!("expected let");
        };
        assert_eq!(names, &["w"]);
        let ExprKind::Name(n) = &arena.get(init.expect("init")).kind else {
            panic!("init should be a name");
        };
        assert_eq!(n, "wait_bu");
        let ExprKind::Binary { op, .. } = &arena.get(tail.expect("tail")).kind else {
            panic!("tail should be binary");
        };
        assert_eq!(op, "+");
    }

    #[test]
    fn method_calls_fields_and_compound_assign() {
        let (_, arena, root) = body_of("fn f(&mut self) { self.stats.enqueued += 1; }");
        let (ss, _) = stmts(&arena, root);
        let ExprKind::Assign { op, lhs, .. } = &arena.get(ss[0]).kind else {
            panic!("expected assign");
        };
        assert_eq!(op, "+=");
        let ExprKind::Field(base, name) = &arena.get(*lhs).kind else {
            panic!("lhs should be a field");
        };
        assert_eq!(name, "enqueued");
        let ExprKind::Field(root_base, stats) = &arena.get(*base).kind else {
            panic!("base should be a field");
        };
        assert_eq!(stats, "stats");
        assert!(matches!(&arena.get(*root_base).kind, ExprKind::Name(n) if n == "self"));
    }

    #[test]
    fn if_else_and_variant_return() {
        let (_, arena, root) = body_of(
            "fn f(&mut self) -> SubmitOutcome {\n\
             \x20   if self.full() { return SubmitOutcome::DroppedFull; }\n\
             \x20   SubmitOutcome::Enqueued\n\
             }",
        );
        let (ss, tail) = stmts(&arena, root);
        let ExprKind::If { cond, then_blk, .. } = &arena.get(ss[0]).kind else {
            panic!("expected if");
        };
        assert!(matches!(
            &arena.get(*cond).kind,
            ExprKind::MethodCall { method, .. } if method == "full"
        ));
        let (tss, _) = stmts(&arena, *then_blk);
        let ExprKind::Return(Some(v)) = &arena.get(tss[0]).kind else {
            panic!("expected return");
        };
        let ExprKind::Path(segs) = &arena.get(*v).kind else {
            panic!("expected path");
        };
        assert_eq!(segs, &["SubmitOutcome", "DroppedFull"]);
        let ExprKind::Path(tsegs) = &arena.get(tail.expect("tail")).kind else {
            panic!("tail should be a path");
        };
        assert_eq!(tsegs[1], "Enqueued");
    }

    #[test]
    fn match_arms_bind_names_and_guards_are_consumed() {
        let (_, arena, root) = body_of(
            "fn f(x: Option<u64>) -> u64 {\n\
             \x20   match x { Some(v) if v > 0 => v, _ => 0 }\n\
             }",
        );
        let (_, tail) = stmts(&arena, root);
        let ExprKind::Match { arms, .. } = &arena.get(tail.expect("tail")).kind else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].bound, vec!["v".to_string()]);
        assert!(matches!(&arena.get(arms[0].body).kind, ExprKind::Name(n) if n == "v"));
        assert!(matches!(&arena.get(arms[1].body).kind, ExprKind::Lit));
    }

    #[test]
    fn parenthesized_and_negated_operands_keep_structure() {
        let (_, arena, root) =
            body_of("fn f() -> bool { a_bu < (b_count) && a_bu - -c_count > 0.0 }");
        let (_, tail) = stmts(&arena, root);
        let ExprKind::Binary { op, lhs, rhs } = &arena.get(tail.expect("tail")).kind else {
            panic!("expected &&");
        };
        assert_eq!(op, "&&");
        let ExprKind::Binary {
            op: lt, rhs: paren, ..
        } = &arena.get(*lhs).kind
        else {
            panic!("expected <");
        };
        assert_eq!(lt, "<");
        assert!(matches!(&arena.get(*paren).kind, ExprKind::Paren(_)));
        let ExprKind::Binary { lhs: sub, .. } = &arena.get(*rhs).kind else {
            panic!("expected >");
        };
        let ExprKind::Binary {
            op: minus,
            rhs: neg,
            ..
        } = &arena.get(*sub).kind
        else {
            panic!("expected -");
        };
        assert_eq!(minus, "-");
        assert!(matches!(
            &arena.get(*neg).kind,
            ExprKind::Unary { op: "-", .. }
        ));
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        let (_, arena, root) = body_of(
            "fn f() -> R {\n\
             \x20   if cfg.on { do_it(); }\n\
             \x20   R { total_bu: wait, hits_count: n }\n\
             }",
        );
        let (ss, tail) = stmts(&arena, root);
        assert!(matches!(&arena.get(ss[0]).kind, ExprKind::If { .. }));
        let ExprKind::StructLit { path, fields } = &arena.get(tail.expect("tail")).kind else {
            panic!("tail should be a struct literal");
        };
        assert_eq!(path, &["R"]);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "total_bu");
        assert!(fields[0].1.is_some());
    }

    #[test]
    fn casts_closures_macros_and_loops() {
        let (_, arena, root) = body_of(
            "fn f(xs: &[f64]) -> f64 {\n\
             \x20   let mut total = 0.0;\n\
             \x20   for x in xs.iter() { total += x; }\n\
             \x20   while total > 1.0 { total /= 2.0; }\n\
             \x20   let c = xs.iter().map(|v| v + 1.0).count() as f64;\n\
             \x20   assert!(c >= 0.0);\n\
             \x20   total + c\n\
             }",
        );
        let (ss, tail) = stmts(&arena, root);
        assert!(tail.is_some());
        assert!(matches!(
            &arena.get(ss[1]).kind,
            ExprKind::For { bound, .. } if bound == &["x"]
        ));
        assert!(matches!(&arena.get(ss[2]).kind, ExprKind::While { .. }));
        let ExprKind::Let { init, .. } = &arena.get(ss[3]).kind else {
            panic!("expected let c");
        };
        assert!(matches!(
            &arena.get(init.expect("init")).kind,
            ExprKind::Cast { .. }
        ));
        // The assert! macro is one opaque statement.
        assert!(matches!(&arena.get(ss[4]).kind, ExprKind::Opaque));
    }

    #[test]
    fn if_let_binds_to_then_branch() {
        let (_, arena, root) = body_of(
            "fn f(&mut self) {\n\
             \x20   if let Some(at) = &mut self.enqueue_at { at.clear(); }\n\
             \x20   done();\n\
             }",
        );
        let (ss, _) = stmts(&arena, root);
        let ExprKind::If { cond, bound, .. } = &arena.get(ss[0]).kind else {
            panic!("expected if-let");
        };
        assert_eq!(bound, &["at"]);
        // Scrutinee: &mut self.enqueue_at → Unary(&, Field(self, enqueue_at)).
        let ExprKind::Unary { op: "&", expr } = &arena.get(*cond).kind else {
            panic!("expected reference scrutinee");
        };
        assert!(matches!(
            &arena.get(*expr).kind,
            ExprKind::Field(_, name) if name == "enqueue_at"
        ));
    }

    #[test]
    fn totality_on_malformed_input() {
        // Garbage bodies must still produce a block without hanging.
        for src in [
            "fn f() { :: }",
            "fn f() { let = ; }",
            "fn f() { a.. }",
            "fn f() { .. }",
            "fn f() { # }",
            "fn f() { x.await?; }",
            "fn f() { match x { } }",
            "fn f() { (a, b,) }",
        ] {
            let (_, arena, root) = body_of(src);
            assert!(matches!(&arena.get(root).kind, ExprKind::Block { .. }));
        }
    }

    #[test]
    fn nested_items_are_skipped_not_parsed() {
        let (_, arena, root) = body_of(
            "fn outer() {\n\
             \x20   const K: u32 = 7;\n\
             \x20   fn inner(x: u64) -> u64 { x }\n\
             \x20   inner(K as u64);\n\
             }",
        );
        let (ss, _) = stmts(&arena, root);
        // Only the call statement survives; const and fn are item-skipped.
        assert_eq!(ss.len(), 1);
        assert!(matches!(&arena.get(ss[0]).kind, ExprKind::Call { .. }));
    }
}
