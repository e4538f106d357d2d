//! The `--fix` applier: rewrite machine-applicable suggestions in place.
//!
//! A [`Suggestion`](crate::rules::Suggestion) is machine-applicable when
//! it carries a byte-column `span`: the exact half-open range on its line
//! that `text` replaces (D4's approx-eq rewrite). Spanless suggestions
//! are advice for humans and are never applied. Edits are deduplicated, then applied per file
//! bottom-up (lines descending; within a line, right-to-left) so earlier
//! edits never shift the coordinates of later ones. An edit whose span no
//! longer matches the file (stale line, column past the end, mid-UTF-8
//! boundary) is skipped, not misapplied.
//!
//! The applier is idempotent by construction: every rewrite removes the
//! pattern its rule fires on, so re-linting the fixed tree yields no
//! suggestion at that site and a second `--fix` applies zero edits — the
//! CI gate checks exactly that.

use crate::rules::Diagnostic;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One concrete file edit; the `Ord` derive sorts by file, line, then
/// span.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edit {
    /// Root-relative file path (forward slashes).
    file: String,
    /// 1-based line the edit targets.
    line: u32,
    /// Half-open 1-based byte-column range the text replaces.
    span: (u32, u32),
    /// Replacement text.
    text: String,
}

/// Extract the machine-applicable edits from surviving diagnostics,
/// deduplicated (several rules may propose the identical rewrite).
fn collect_edits(diagnostics: &[Diagnostic]) -> Vec<Edit> {
    let mut edits: Vec<Edit> = diagnostics
        .iter()
        .filter_map(|d| {
            let s = d.suggestion.as_ref()?;
            Some(Edit {
                file: d.file.clone(),
                line: s.line,
                span: s.span?,
                text: s.text.clone(),
            })
        })
        .collect();
    edits.sort();
    edits.dedup();
    edits
}

/// Apply one replace to its line. Returns `false` (skip) when the span
/// does not denote a valid byte range of the current line content.
fn apply_replace(line: &mut String, span: (u32, u32), text: &str) -> bool {
    let (a, b) = (span.0 as usize, span.1 as usize);
    if a < 1 || b < a {
        return false;
    }
    let (a, b) = (a - 1, b - 1);
    if b > line.len() || !line.is_char_boundary(a) || !line.is_char_boundary(b) {
        return false;
    }
    line.replace_range(a..b, text);
    true
}

/// Apply every machine-applicable suggestion among `diagnostics` to the
/// tree under `root`. Returns the number of edits applied (skipped stale
/// edits are not counted). Files are rewritten only when changed.
pub fn apply_fixes(root: &Path, diagnostics: &[Diagnostic]) -> io::Result<usize> {
    let edits = collect_edits(diagnostics);
    // Walking the sorted edits backwards visits each file's edits
    // bottom-up and, within a line, right-to-left.
    let mut by_file: BTreeMap<&str, Vec<&Edit>> = BTreeMap::new();
    for e in edits.iter().rev() {
        by_file.entry(e.file.as_str()).or_default().push(e);
    }
    let mut applied = 0usize;
    for (rel, edits) in by_file {
        let path = root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
        let src = std::fs::read_to_string(&path)?;
        let mut lines: Vec<String> = src.split('\n').map(String::from).collect();
        let mut changed = false;
        for e in edits {
            let li = (e.line as usize).saturating_sub(1);
            if let Some(line) = lines.get_mut(li) {
                if apply_replace(line, e.span, &e.text) {
                    applied += 1;
                    changed = true;
                }
            }
        }
        if changed {
            std::fs::write(&path, lines.join("\n"))?;
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Diagnostic, Suggestion};

    fn diag_with(line: u32, span: Option<(u32, u32)>, text: &str) -> Diagnostic {
        Diagnostic {
            file: "x.rs".to_string(),
            line,
            rule: "D4",
            message: "m".to_string(),
            suggestion: Some(Suggestion {
                line,
                text: text.to_string(),
                span,
            }),
        }
    }

    #[test]
    fn spanless_replace_is_not_applicable() {
        let edits = collect_edits(&[diag_with(3, None, "y")]);
        assert!(edits.is_empty());
    }

    #[test]
    fn identical_edits_deduplicate() {
        let d = diag_with(3, Some((1, 2)), "y");
        assert_eq!(collect_edits(&[d.clone(), d]).len(), 1);
    }

    #[test]
    fn replace_respects_byte_span() {
        let mut line = "let a == b;".to_string();
        assert!(apply_replace(&mut line, (7, 9), "="));
        assert_eq!(line, "let a = b;");
    }

    #[test]
    fn stale_span_is_skipped() {
        let mut line = "short".to_string();
        assert!(!apply_replace(&mut line, (4, 99), "y"));
        assert_eq!(line, "short");
    }
}
