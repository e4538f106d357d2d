//! AST-lite item parser for `bpp-lint`'s semantic rules.
//!
//! The token rules (D4) match flat patterns; the cross-file rules
//! (D7, D10) need to know *where items live*: which functions exist, what
//! their parameters are typed as, which structs exist, and which impl
//! blocks cover which types. This module recovers exactly that
//! much structure from the code-token stream of a [`SourceFile`] — no
//! expressions, no types beyond token slices, no name resolution. Every
//! item records its 1-based start line and, where useful, a half-open
//! range of **code-token indices** (`SourceFile::code` positions) so rules
//! can re-scan bodies with the same indexing the token rules use.
//!
//! The parser is total: malformed input can produce fewer items, never an
//! error. Anything the grammar sketch below does not cover (closures,
//! macros, nested items inside bodies beyond `fn`/`const`) is simply
//! skipped — the rules built on top are written to be conservative under
//! missing items.

use crate::lexer::TokenKind;
use crate::rules::SourceFile;

/// One function parameter: binding name (if recoverable) and its type as
/// a space-joined token string (`"& mut R"`, `"f64"`).
#[derive(Debug, Clone)]
pub struct Param {
    /// The bound name (`self` for any self form), or `None` for patterns
    /// the parser does not unpick (tuples, `_`).
    pub name: Option<String>,
    /// The parameter's type tokens joined with single spaces; empty for
    /// bare `self`/`&self`/`&mut self`.
    pub ty: String,
}

/// One `fn` item (free or associated).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Generic parameter tokens joined with spaces (without the angle
    /// brackets), empty when the fn is not generic.
    pub generics: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Code-token index range of the body between (exclusive) its braces,
    /// or `None` for a bodyless signature (trait method declaration).
    pub body: Option<(usize, usize)>,
}

/// One `struct` item.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// One `const` item: `const NAME: Ty = <expr>;` at any nesting depth.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// The const's name.
    pub name: String,
    /// 1-based line of the `const` keyword.
    pub line: u32,
    /// Code-token index range of the initializer expression (between `=`
    /// and the terminating `;`).
    pub value: (usize, usize),
}

/// One `impl` block: `impl [Trait for] Type { … }`.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// The implemented type's last path ident.
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Code-token index range of the block body between its braces.
    pub body: (usize, usize),
}

/// All items recovered from one file, in source order. Functions nested
/// inside impl blocks appear flattened in `fns`; [`ParsedFile::owner_of`]
/// recovers their impl type.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item, free and associated, in source order.
    pub fns: Vec<FnItem>,
    /// Every `struct` item.
    pub structs: Vec<StructItem>,
    /// Every valued `const` item, at any nesting depth.
    pub consts: Vec<ConstItem>,
    /// Every `impl` block.
    pub impls: Vec<ImplBlock>,
    /// Code-token start index of each fn, parallel to `fns` (used for
    /// impl-ownership lookup).
    fn_starts: Vec<usize>,
}

impl ParsedFile {
    /// The impl type that owns fn `idx`, or `None` for a free function.
    pub fn owner_of(&self, idx: usize) -> Option<&str> {
        let at = *self.fn_starts.get(idx)?;
        self.impls
            .iter()
            .find(|im| im.body.0 <= at && at < im.body.1)
            .map(|im| im.type_name.as_str())
    }
}

/// Parse the item structure of a file. Infallible; see module docs.
pub fn parse_file(f: &SourceFile) -> ParsedFile {
    let mut p = ParsedFile::default();
    let n = f.code.len();
    let mut k = 0usize;
    while k < n {
        match f.text(k) {
            "fn" if f.kind(k + 1) == Some(TokenKind::Ident) => {
                let start = k;
                if let Some((item, next)) = parse_fn(f, k) {
                    p.fns.push(item);
                    p.fn_starts.push(start);
                    k = next;
                    continue;
                }
                k += 1;
            }
            "struct" if f.kind(k + 1) == Some(TokenKind::Ident) => {
                if let Some((item, next)) = parse_struct(f, k) {
                    p.structs.push(item);
                    k = next;
                    continue;
                }
                k += 1;
            }
            "const" if f.kind(k + 1) == Some(TokenKind::Ident) && f.text(k + 2) == ":" => {
                if let Some((item, next)) = parse_const(f, k) {
                    p.consts.push(item);
                    k = next;
                    continue;
                }
                k += 1;
            }
            "impl" => {
                if let Some(block) = parse_impl(f, k) {
                    // Do NOT skip the body: fns inside are parsed by the
                    // same linear walk and attributed via `owner_of`.
                    p.impls.push(block);
                }
                k += 1;
            }
            _ => k += 1,
        }
    }
    p
}

/// Skip a balanced `<…>` generic list whose `<` sits at `k`; returns the
/// index past the matching `>`. `<<`/`>>` count twice.
pub(crate) fn skip_generics(f: &SourceFile, k: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j < f.code.len() {
        match f.text(j) {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            // `->` in `Fn(…) -> T` bounds contains `>` but is one token;
            // the lexer already keeps it atomic, nothing to do.
            _ => {}
        }
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// Find the matching closer for the opener at code index `open`
/// (`(`/`[`/`{` families all balanced together); returns its index.
pub(crate) fn matching(f: &SourceFile, open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < f.code.len() {
        match f.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    f.code.len()
}

fn parse_fn(f: &SourceFile, k: usize) -> Option<(FnItem, usize)> {
    let name = f.text(k + 1).to_string();
    let line = f.line(k);
    let mut j = k + 2;
    let mut generics = String::new();
    if f.text(j) == "<" {
        let end = skip_generics(f, j);
        generics = join(f, j + 1, end.saturating_sub(1));
        j = end;
    }
    if f.text(j) != "(" {
        return None;
    }
    let close = matching(f, j);
    let params = parse_params(f, j + 1, close);
    // Scan past the return type / where clause to the body `{` or a `;`.
    let mut m = close + 1;
    while m < f.code.len() {
        match f.text(m) {
            ";" => {
                return Some((
                    FnItem {
                        name,
                        line,
                        generics,
                        params,
                        body: None,
                    },
                    m + 1,
                ));
            }
            "{" => {
                let end = matching(f, m);
                return Some((
                    FnItem {
                        name,
                        line,
                        generics,
                        params,
                        body: Some((m + 1, end)),
                    },
                    m + 1, // resume INSIDE the body so nested items parse
                ));
            }
            "<" => m = skip_generics(f, m),
            _ => m += 1,
        }
    }
    None
}

/// Split `[a, b)` into top-level comma-separated parameter slices and
/// extract (name, type) from each.
fn parse_params(f: &SourceFile, a: usize, b: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = a;
    let mut j = a;
    while j <= b {
        let at_end = j == b;
        let t = if at_end { "," } else { f.text(j) };
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => {
                j = skip_generics(f, j);
                continue;
            }
            "," if depth == 0 => {
                if j > start {
                    params.push(parse_param(f, start, j));
                }
                start = j + 1;
            }
            _ => {}
        }
        if at_end {
            break;
        }
        j += 1;
    }
    params
}

fn parse_param(f: &SourceFile, a: usize, b: usize) -> Param {
    // Self forms: [&] [lifetime] [mut] self
    if (a..b).any(|k| f.text(k) == "self") && !(a..b).any(|k| f.text(k) == ":") {
        return Param {
            name: Some("self".to_string()),
            ty: String::new(),
        };
    }
    // `pattern : type` — name is the last plain ident of the pattern.
    let colon = (a..b).find(|&k| f.text(k) == ":");
    match colon {
        Some(c) => {
            let name = (a..c)
                .rev()
                .find(|&k| f.kind(k) == Some(TokenKind::Ident) && f.text(k) != "mut")
                .map(|k| f.text(k).to_string());
            Param {
                name,
                ty: join(f, c + 1, b),
            }
        }
        None => Param {
            name: None,
            ty: join(f, a, b),
        },
    }
}

fn parse_struct(f: &SourceFile, k: usize) -> Option<(StructItem, usize)> {
    let name = f.text(k + 1).to_string();
    let line = f.line(k);
    let mut j = k + 2;
    if f.text(j) == "<" {
        j = skip_generics(f, j);
    }
    // `where` clause before the brace.
    while j < f.code.len() && !matches!(f.text(j), "{" | "(" | ";") {
        if f.text(j) == "<" {
            j = skip_generics(f, j);
        } else {
            j += 1;
        }
    }
    match f.text(j) {
        // Tuple struct `struct X(…);` or unit `struct X;`.
        "(" | ";" => Some((StructItem { name, line }, j + 1)),
        "{" => Some((StructItem { name, line }, matching(f, j) + 1)),
        _ => None,
    }
}

fn parse_const(f: &SourceFile, k: usize) -> Option<(ConstItem, usize)> {
    let name = f.text(k + 1).to_string();
    let line = f.line(k);
    // Find the `=` after the type, at depth 0 relative to the const.
    let mut j = k + 3;
    let mut eq = None;
    while j < f.code.len() {
        match f.text(j) {
            "<" => {
                j = skip_generics(f, j);
                continue;
            }
            "(" | "[" | "{" => {
                j = matching(f, j) + 1;
                continue;
            }
            "=" => {
                eq = Some(j);
                break;
            }
            ";" => break, // `const FOO: Ty;` in a trait — no value
            _ => {}
        }
        j += 1;
    }
    let eq = eq?;
    let mut m = eq + 1;
    while m < f.code.len() && f.text(m) != ";" {
        if matches!(f.text(m), "(" | "[" | "{") {
            m = matching(f, m) + 1;
        } else {
            m += 1;
        }
    }
    Some((
        ConstItem {
            name,
            line,
            value: (eq + 1, m),
        },
        m + 1,
    ))
}

fn parse_impl(f: &SourceFile, k: usize) -> Option<ImplBlock> {
    let line = f.line(k);
    let mut j = k + 1;
    if f.text(j) == "<" {
        j = skip_generics(f, j);
    }
    let mut last_ident = String::new();
    while j < f.code.len() && f.text(j) != "{" {
        match f.text(j) {
            // `impl Trait for Type`: the type's ident comes after `for`.
            "for" => last_ident.clear(),
            "<" => {
                j = skip_generics(f, j);
                continue;
            }
            ";" => return None, // `impl Trait for Type;` never occurs; bail
            _ => {
                if f.kind(j) == Some(TokenKind::Ident) {
                    last_ident = f.text(j).to_string();
                }
            }
        }
        j += 1;
    }
    if last_ident.is_empty() || j >= f.code.len() {
        return None;
    }
    let end = matching(f, j);
    Some(ImplBlock {
        type_name: last_ident,
        line,
        body: (j + 1, end),
    })
}

fn join(f: &SourceFile, a: usize, b: usize) -> String {
    let mut s = String::new();
    for k in a..b {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(f.text(k));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse_file(&SourceFile::new(
            "crates/core/src/x.rs".to_string(),
            lex(src).expect("test source must lex"),
        ))
    }

    #[test]
    fn fn_signature_and_body_range() {
        let p = parsed("pub fn f<R: Rng + ?Sized>(a: u64, rng: &mut R) -> u64 { a }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.generics, "R : Rng + ? Sized");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("a"));
        assert_eq!(f.params[0].ty, "u64");
        assert_eq!(f.params[1].name.as_deref(), Some("rng"));
        assert_eq!(f.params[1].ty, "& mut R");
        assert!(f.body.is_some());
    }

    #[test]
    fn self_params_and_trait_decls() {
        let p = parsed(
            "trait T { fn sig(&self, x: f64) -> f64; }\n\
             impl T for S { fn sig(&self, x: f64) -> f64 { x } }",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body, None, "trait declaration has no body");
        assert_eq!(p.fns[0].params[0].name.as_deref(), Some("self"));
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.impls.len(), 1);
        assert_eq!(p.impls[0].type_name, "S");
        assert_eq!(p.owner_of(1), Some("S"), "impl fn attributed to its type");
        assert_eq!(p.owner_of(0), None, "trait decl is not inside the impl");
    }

    #[test]
    fn const_value_range_and_nesting() {
        let p = parsed("pub const GRID: [u32; 3] = [10, 25, 50];\nfn f() { const K: u32 = 7; }");
        assert_eq!(p.consts.len(), 2, "consts found at any nesting depth");
        assert_eq!(p.consts[0].name, "GRID");
        assert_eq!(p.consts[1].name, "K");
    }

    #[test]
    fn nested_fn_inside_body_is_found() {
        let p = parsed("fn outer() { fn inner(x: u64) -> u64 { x } inner(1); }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let p = parsed("impl Widget { fn new() -> Widget { Widget } }");
        assert_eq!(p.impls.len(), 1);
        assert_eq!(p.impls[0].type_name, "Widget");
        assert_eq!(p.owner_of(0), Some("Widget"));
    }

    #[test]
    fn shift_operators_inside_generics_balance() {
        // `Vec<Vec<u64>>` ends with a `>>` token that must close two
        // levels, or everything after it is misparsed.
        let p = parsed("fn f(v: Vec<Vec<u64>>) -> usize { v.len() }\nfn g() {}");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
    }
}
