//! Rule D7: stream-flow — one RNG stream, one component.
//!
//! The determinism architecture gives every consumer of randomness its
//! own counter-based stream (`stream_rng(seed, Stream::X)`), so that
//! adding or removing draws in one component can never shift the variates
//! seen by another. That guarantee has two ways to rot:
//!
//! 1. **Shared handles** — a handle born for one component is threaded
//!    into a second one (`mux.decide(&mut rng); mc.draw_think(&mut rng)`),
//!    re-coupling their draw sequences;
//! 2. **Duplicate construction** — the same registry stream is
//!    constructed at two sites, so two actors consume one logical stream.
//!
//! The rule builds an interprocedural flow per handle: a handle *birth*
//! is `let [mut] NAME = stream_rng(…, Stream::X)` or a struct-literal
//! member `NAME: stream_rng(…, Stream::X)`; a *use* is the handle
//! appearing as a call argument. Calls resolve by name through the
//! [`Workspace`] indices (ambiguous names never resolve — the rule would
//! rather miss a flow than invent one), and resolution recurses one level
//! further through the callee's own `Rng`-typed parameters, so a handle
//! laundered through a helper is still tracked. A handle whose flow set —
//! home component excluded — spans ≥ 2 components is flagged at its
//! birth line.
//!
//! Scope: non-test library code of component crates (see
//! [`crate::graph::component_of`]); `crates/sim` and test regions are
//! exempt. A handle passed to an *unresolvable* named call is left alone;
//! a construction passed directly as an argument (no binding) reaches
//! exactly one callee and cannot violate the flow rule (duplicate-site
//! detection still sees it).

use super::{call_args, diag, stream_variant, Diagnostic, SourceFile};
use crate::graph::{component_of, Workspace};
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// Entry point: both D7 checks over the whole workspace.
pub fn d7_stream_flow(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    duplicate_sites(ws, out);
    handle_flows(ws, out);
}

/// D7a: every `Stream::X` registry variant may be constructed into an
/// RNG at most once across all component library code.
fn duplicate_sites(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    // stream variant -> construction sites (file order = sorted rel paths).
    let mut sites: BTreeMap<String, Vec<(usize, u32)>> = BTreeMap::new();
    for (fi, a) in ws.files.iter().enumerate() {
        let f = &a.file;
        if component_of(&f.rel, f.scope.library).is_none() {
            continue;
        }
        for k in 0..f.code.len() {
            if f.text(k) != "stream_rng" || f.text(k + 1) != "(" {
                continue;
            }
            let line = f.line(k);
            if f.in_test(line) {
                continue;
            }
            let (args, _) = call_args(f, k + 1);
            let stream = args.iter().find_map(|&(a1, b1)| stream_variant(f, a1, b1));
            if let Some(s) = stream {
                sites.entry(s).or_default().push((fi, line));
            }
        }
    }
    for (stream, locs) in &sites {
        if locs.len() < 2 {
            continue;
        }
        let (fi0, l0) = locs[0];
        let first = format!("{}:{}", ws.files[fi0].file.rel, l0);
        for &(fi, line) in &locs[1..] {
            out.push(diag(
                &ws.files[fi].file,
                line,
                "D7",
                format!(
                    "RNG stream `Stream::{stream}` constructed at {} sites (first at {first}) \
                     — one stream, one construction site",
                    locs.len()
                ),
            ));
        }
    }
}

/// One handle birth inside a file.
struct Birth {
    /// Bound name (`rng_mux`) — a local or a struct-literal field.
    name: String,
    /// `Stream::X` variant name.
    stream: String,
    line: u32,
    /// Code index of the name token.
    at: usize,
    /// Struct-literal member (uses match `.name`) vs local (bare `name`).
    field: bool,
}

/// D7b: flag a handle whose uses reach two or more components besides its
/// home.
fn handle_flows(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    let mut forward_cache: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for a in ws.files.iter() {
        let f = &a.file;
        let Some(home) = component_of(&f.rel, f.scope.library) else {
            continue;
        };
        for birth in births(f) {
            // Locals are confined to their enclosing fn body; struct
            // members are visible to every method in the file.
            let range = if birth.field {
                (0, f.code.len())
            } else {
                a.items
                    .fns
                    .iter()
                    .filter_map(|item| item.body)
                    .find(|&(b0, b1)| b0 <= birth.at && birth.at < b1)
                    .unwrap_or((0, f.code.len()))
            };
            let mut flow: BTreeSet<String> = BTreeSet::new();
            for u in usage_sites(f, &birth, range) {
                if let Some((callee, comp)) = enclosing_call(ws, f, u) {
                    flow.insert(comp);
                    flow.extend(forward_flow(ws, &callee, &mut forward_cache));
                }
            }
            flow.remove(&home);
            if flow.len() >= 2 {
                let comps: Vec<&str> = flow.iter().map(String::as_str).collect();
                out.push(diag(
                    f,
                    birth.line,
                    "D7",
                    format!(
                        "stream handle `{}` (Stream::{}) flows into {} components: {} — \
                         one stream, one component",
                        birth.name,
                        birth.stream,
                        flow.len(),
                        comps.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Handle births in non-test code of `f`.
fn births(f: &SourceFile) -> Vec<Birth> {
    let mut out = Vec::new();
    for k in 0..f.code.len() {
        if f.text(k) != "stream_rng" || f.text(k + 1) != "(" {
            continue;
        }
        let line = f.line(k);
        if f.in_test(line) {
            continue;
        }
        let (args, _) = call_args(f, k + 1);
        let Some(stream) = args.iter().find_map(|&(a, b)| stream_variant(f, a, b)) else {
            continue;
        };
        // `let [mut] NAME = stream_rng(…)`
        if k >= 2 && f.text(k - 1) == "=" && f.kind(k - 2) == Some(TokenKind::Ident) {
            let name_at = k - 2;
            let intro = if f.text(name_at.wrapping_sub(1)) == "mut" {
                name_at.wrapping_sub(2)
            } else {
                name_at.wrapping_sub(1)
            };
            if f.text(intro) == "let" {
                out.push(Birth {
                    name: f.text(name_at).to_string(),
                    stream,
                    line,
                    at: name_at,
                    field: false,
                });
                continue;
            }
        }
        // Struct-literal member `NAME: stream_rng(…)`
        if k >= 2 && f.text(k - 1) == ":" && f.kind(k - 2) == Some(TokenKind::Ident) {
            out.push(Birth {
                name: f.text(k - 2).to_string(),
                stream,
                line,
                at: k - 2,
                field: true,
            });
        }
    }
    out
}

/// Code indices where the handle is mentioned as a value (excluding its
/// own birth), within `[range.0, range.1)`.
fn usage_sites(f: &SourceFile, birth: &Birth, range: (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    for u in range.0..range.1 {
        if u == birth.at
            || f.kind(u) != Some(TokenKind::Ident)
            || f.text(u) != birth.name
            || f.in_test(f.line(u))
        {
            continue;
        }
        let prev = if u >= 1 { f.text(u - 1) } else { "" };
        let matches_shape = if birth.field {
            prev == "." // `self.name`, `world.name`
        } else {
            prev != "." && prev != "::"
        };
        if matches_shape {
            out.push(u);
        }
    }
    out
}

/// The innermost *named* call enclosing code index `u`, resolved to
/// (callee fn name, component). Grouping parens and macro invocations are
/// transparent (the search continues outward); a named call that fails to
/// resolve stops the search — the flow is unknown, not absent.
fn enclosing_call(ws: &Workspace<'_>, f: &SourceFile, u: usize) -> Option<(String, String)> {
    let mut depth = 0i32;
    let mut j = u;
    while j > 0 {
        j -= 1;
        match f.text(j) {
            ")" | "]" | "}" => depth += 1,
            "(" => {
                if depth > 0 {
                    depth -= 1;
                    continue;
                }
                // An unmatched `(` — the enclosing paren. Named call?
                let is_named = j >= 1
                    && f.kind(j - 1) == Some(TokenKind::Ident)
                    && (j < 2 || f.text(j - 2) != "!");
                if is_named {
                    return ws.resolve_call(f, j);
                }
                // Grouping / tuple / macro: transparent, keep walking.
            }
            "[" | "{" if depth > 0 => depth -= 1,
            "[" | "{" => {
                // Unmatched `[`/`{` — indexing or a block/struct literal;
                // treat as transparent like grouping parens.
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Components that fn `name` forwards its own `Rng`-typed parameters
/// into, transitively. Memoized; cycles terminate via the in-progress
/// marker (an empty set is inserted before recursion).
fn forward_flow(
    ws: &Workspace<'_>,
    name: &str,
    cache: &mut BTreeMap<String, BTreeSet<String>>,
) -> BTreeSet<String> {
    if let Some(hit) = cache.get(name) {
        return hit.clone();
    }
    cache.insert(name.to_string(), BTreeSet::new());
    let mut flow = BTreeSet::new();
    if let Some(defs) = ws.fn_defs.get(name) {
        for &(fi, gi) in defs {
            let a = &ws.files[fi];
            let item = &a.items.fns[gi];
            let Some(body) = item.body else { continue };
            let rng_params = rng_param_names(item);
            for p in rng_params {
                let pseudo = Birth {
                    name: p,
                    stream: String::new(),
                    line: item.line,
                    at: usize::MAX, // params have no code-index birth
                    field: false,
                };
                for u in usage_sites(&a.file, &pseudo, body) {
                    if let Some((callee, comp)) = enclosing_call(ws, &a.file, u) {
                        flow.insert(comp);
                        if callee != name {
                            flow.extend(forward_flow(ws, &callee, cache));
                        }
                    }
                }
            }
        }
    }
    cache.insert(name.to_string(), flow.clone());
    flow
}

/// Names of parameters whose type is RNG-like: the type tokens mention
/// `Rng`/`Xoshiro256pp` directly, or name a generic parameter bounded by
/// `Rng` (`fn f<R: Rng + ?Sized>(…, rng: &mut R)`).
fn rng_param_names(item: &crate::parse::FnItem) -> Vec<String> {
    let generic_rng = rng_bounded_generics(&item.generics);
    item.params
        .iter()
        .filter_map(|p| {
            let name = p.name.clone()?;
            if name == "self" {
                return None;
            }
            let words: Vec<&str> = p.ty.split(' ').collect();
            let is_rng = words
                .iter()
                .any(|w| *w == "Rng" || *w == "Xoshiro256pp" || generic_rng.iter().any(|g| g == w));
            is_rng.then_some(name)
        })
        .collect()
}

/// Generic parameter names bounded by `Rng` in a space-joined generics
/// token string (`"R : Rng + ? Sized"` → `["R"]`).
fn rng_bounded_generics(generics: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<&str> = None;
    let mut prev = "";
    for w in generics.split(' ') {
        match w {
            ":" => current = Some(prev),
            "," => current = None,
            "Rng" => {
                if let Some(c) = current {
                    out.push(c.to_string());
                }
            }
            _ => {}
        }
        prev = w;
    }
    out
}
