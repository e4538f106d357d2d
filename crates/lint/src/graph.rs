//! Cross-file workspace model for the semantic rules (D7, D10–D13).
//!
//! A [`Workspace`] owns every analyzed file (token stream + parsed items)
//! plus the out-of-band context the semantic rules need: the `results/`
//! artifact listing and the script/workflow reference texts (D10), and
//! name-resolution indices mapping function and type names to the
//! **component** that defines them (D7).
//!
//! ## Components
//!
//! A component is the unit of RNG-stream ownership: one of the workspace
//! crates (`server`, `client`, `workload`, `cache`, `broadcast`, `core`),
//! with `crates/core/src/fault.rs` split out as its own `fault` component
//! (the fault layer owns two dedicated streams). `crates/sim` is *not* a
//! component — it is the neutral home of the RNG plumbing itself, and
//! indexing its `Rng` trait methods would make every draw look like a
//! cross-component flow.
//!
//! ## Name resolution
//!
//! Resolution is by bare name, deliberately: `mux.decide(…)` resolves via
//! the set of components defining a fn `decide`. A name defined in two or
//! more components is **ambiguous and never resolved** — D7 would rather
//! miss a flow than invent one. Qualified calls (`FaultLayer::new`)
//! resolve through the type index first, which disambiguates the
//! otherwise-everywhere names like `new`.

use crate::cfg::{build_cfg, Cfg};
use crate::expr::{parse_body, ExprArena, ExprId};
use crate::parse::{parse_file, ParsedFile};
use crate::rules::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A function body lowered for dataflow: its expression arena, the root
/// block node, and the control-flow graph over arena statements. Built
/// once per fn; the dataflow rules (D11–D13) all interpret the same
/// lowering.
pub struct Body {
    /// Arena holding every expression of the body (plus CFG synthetics).
    pub arena: ExprArena,
    /// The root `Block` node.
    pub root: ExprId,
    /// The body's control-flow graph.
    pub cfg: Cfg,
}

/// One file plus its parsed item structure.
pub struct Analysis {
    /// The lexed file.
    pub file: SourceFile,
    /// Its parsed item structure.
    pub items: ParsedFile,
    /// Lowered bodies, parallel to `items.fns` (`None` for bodyless trait
    /// method declarations).
    pub bodies: Vec<Option<Body>>,
}

impl Analysis {
    /// Lex-independent constructor: parse the items of an already-built
    /// [`SourceFile`] and lower every fn body for dataflow.
    pub fn new(file: SourceFile) -> Analysis {
        let items = parse_file(&file);
        let bodies = items
            .fns
            .iter()
            .map(|item| {
                item.body.map(|(lo, hi)| {
                    let mut arena = ExprArena::default();
                    let root = parse_body(&file, &mut arena, lo, hi);
                    let cfg = build_cfg(&mut arena, root);
                    Body { arena, root, cfg }
                })
            })
            .collect();
        Analysis {
            file,
            items,
            bodies,
        }
    }
}

/// The component that owns library code at `rel`, or `None` when the file
/// is out of scope for stream-flow analysis (tests, bins, `crates/sim`,
/// non-crate paths).
pub fn component_of(rel: &str, library: bool) -> Option<String> {
    if !library {
        return None;
    }
    if rel == "crates/core/src/fault.rs" {
        return Some("fault".to_string());
    }
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let krate = parts.next()?;
    if krate == "sim" || krate == "lint" {
        return None;
    }
    Some(krate.to_string())
}

/// Everything the cross-file rules see.
pub struct Workspace<'a> {
    /// Every analyzed file, in sorted-relative-path order.
    pub files: &'a [Analysis],
    /// fn name → components defining a non-test fn of that name.
    pub fn_components: BTreeMap<String, BTreeSet<String>>,
    /// fn name → (file index, fn index) of every non-test definition.
    pub fn_defs: BTreeMap<String, Vec<(usize, usize)>>,
    /// struct/impl type name → components defining it.
    pub type_components: BTreeMap<String, BTreeSet<String>>,
    /// `results/<name>` artifact file names at the linted root (D10).
    pub artifacts: Vec<String>,
    /// Raw text of `scripts/*` and `.github/workflows/*` at the root —
    /// non-Rust places an artifact may legitimately be referenced (D10).
    pub reference_texts: Vec<String>,
}

impl<'a> Workspace<'a> {
    /// Build the indices over `files`; the out-of-band context is passed
    /// in by the driver (`lint_root`) so this stays filesystem-free.
    pub fn build(
        files: &'a [Analysis],
        artifacts: Vec<String>,
        reference_texts: Vec<String>,
    ) -> Workspace<'a> {
        let mut ws = Workspace {
            files,
            fn_components: BTreeMap::new(),
            fn_defs: BTreeMap::new(),
            type_components: BTreeMap::new(),
            artifacts,
            reference_texts,
        };
        for (fi, a) in files.iter().enumerate() {
            let Some(comp) = component_of(&a.file.rel, a.file.scope.library) else {
                continue;
            };
            for (gi, item) in a.items.fns.iter().enumerate() {
                if a.file.in_test(item.line) {
                    continue;
                }
                ws.fn_components
                    .entry(item.name.clone())
                    .or_default()
                    .insert(comp.clone());
                ws.fn_defs
                    .entry(item.name.clone())
                    .or_default()
                    .push((fi, gi));
            }
            for s in &a.items.structs {
                if a.file.in_test(s.line) {
                    continue;
                }
                ws.type_components
                    .entry(s.name.clone())
                    .or_default()
                    .insert(comp.clone());
            }
            for im in &a.items.impls {
                if a.file.in_test(im.line) {
                    continue;
                }
                ws.type_components
                    .entry(im.type_name.clone())
                    .or_default()
                    .insert(comp.clone());
            }
        }
        ws
    }

    /// The unique component defining fn `name`, or `None` when the name
    /// is unknown or ambiguous across components.
    pub fn fn_component(&self, name: &str) -> Option<&str> {
        unique(self.fn_components.get(name)?)
    }

    /// The unique component defining type `name` (struct or impl target).
    pub fn type_component(&self, name: &str) -> Option<&str> {
        unique(self.type_components.get(name)?)
    }

    /// Resolve the callee of a call whose `(` sits at code index `open`
    /// in `f`, to the component that would receive the flow:
    ///
    /// * `Type::method(…)` → the type's component (falls back to the
    ///   method name when the type is unknown);
    /// * `recv.method(…)` → the method name's unique component;
    /// * `free_fn(…)` → the fn name's unique component;
    /// * macros (`name!(…)`) and anything ambiguous → `None`.
    ///
    /// Returns the callee's fn name too, so D7 can chase the flow through
    /// that fn's own body (see [`crate::rules::stream_flow`]).
    pub fn resolve_call(&self, f: &SourceFile, open: usize) -> Option<(String, String)> {
        if open == 0 {
            return None;
        }
        let callee_at = open - 1;
        if f.kind(callee_at) != Some(crate::lexer::TokenKind::Ident) {
            return None;
        }
        let callee = f.text(callee_at).to_string();
        let before = if callee_at >= 1 {
            f.text(callee_at - 1)
        } else {
            ""
        };
        if before == "!" {
            return None; // macro
        }
        if before == "::" && callee_at >= 2 {
            // `Type::method` (or a longer path — the segment directly
            // before `::` decides).
            let qual = f.text(callee_at - 2);
            if let Some(comp) = self.type_component(qual) {
                return Some((callee, comp.to_string()));
            }
            // Unknown qualifier (e.g. a module path): fall back to the
            // method name itself.
        }
        self.fn_component(&callee)
            .map(|comp| (callee.clone(), comp.to_string()))
    }
}

/// The sole element of a one-element set, else `None`.
fn unique(set: &BTreeSet<String>) -> Option<&str> {
    if set.len() == 1 {
        set.iter().next().map(String::as_str)
    } else {
        None
    }
}
