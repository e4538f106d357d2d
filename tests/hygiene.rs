//! Source hygiene: the checks that keep every figure reproducible from one
//! seed and every committed golden alive, over the workspace's own source
//! text.
//!
//! * **Float literals.** Library code compares no float with `==`/`!=`
//!   against a float literal or an `f64::`/`f32::` constant. Clippy's
//!   `float_cmp` catches every other exact float comparison but lets those
//!   against zero and infinity through; route them through
//!   `bpp_sim::approx`.
//! * **One construction site per RNG stream.** Each `Stream::X` is built by
//!   `stream_rng` at most once in library code outside `crates/sim`, so two
//!   actors never consume one logical stream.
//! * **No orphan goldens.** Every `results/` file is named by a script or
//!   by a string literal (its stem, less a `_drops` suffix), so it is
//!   regenerated and compared.
//! * **No dead grids.** Every `const` in `crates/core/src/experiments.rs`
//!   is reachable from a `crates/bench/src/bin/*` entry point through the
//!   identifiers of the file's `fn` and `const` items.
//!
//! The scanners read text, not tokens, and are pure functions over `&str`
//! with inline cases below. They skip `//` comments and a file's
//! `#[cfg(test)]` tail (each file has at most one, and it is the
//! `mod tests`), and take only column-0 `fn`/`const` lines as item starts,
//! the form rustfmt writes.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, as (root-relative path, source), sorted by
/// path. Build output (`target`) is skipped.
fn rust_files(dir: &str) -> io::Result<Vec<(String, String)>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, out)?;
                }
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let root = root();
    let mut paths = Vec::new();
    walk(&root.join(dir), &mut paths)?;
    let mut files = Vec::new();
    for p in paths {
        let rel = p.strip_prefix(&root).unwrap_or(&p).to_string_lossy();
        files.push((rel.replace('\\', "/"), fs::read_to_string(&p)?));
    }
    files.sort();
    Ok(files)
}

/// Library files: `crates/<name>/src/**` outside `src/bin`.
fn library_files() -> io::Result<Vec<(String, String)>> {
    let mut files = rust_files("crates")?;
    files.retain(|(rel, _)| rel.split('/').nth(2) == Some("src") && !rel.contains("/src/bin/"));
    Ok(files)
}

/// `src` with every `//` comment blanked to the end of its line.
fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|line| line.find("//").map_or(line, |i| &line[..i]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The non-test code of `src`: comments blanked and the `#[cfg(test)]`
/// tail cut. Line numbers are kept.
fn library_code(src: &str) -> String {
    let body = src.split("\n#[cfg(test)]").next().unwrap_or(src);
    strip_comments(body)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// 1-based line of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// A float literal (`0.0`, `1e-9`, `2f64`) or an `f64::`/`f32::` constant.
fn is_float_operand(word: &str) -> bool {
    if word.starts_with("f64::") || word.starts_with("f32::") {
        return true;
    }
    // Digits, `_`, `.`, an exponent and an `f32`/`f64` suffix; an integer
    // suffix (`10usize`) carries a `u` or an `i`.
    word.starts_with(|c: char| c.is_ascii_digit())
        && !word.starts_with("0x")
        && !word.contains(['u', 'i'])
        && (word.contains(['.', 'e', 'E']) || word.ends_with("f64") || word.ends_with("f32"))
}

/// Lines of `code` that compare with `==`/`!=` against a float literal or
/// an `f64::`/`f32::` constant: the operand token next to the operator is
/// the literal (a unary minus is looked through).
fn float_literal_comparisons(code: &str) -> Vec<usize> {
    let operand = |c: char| is_ident_char(c) || c == '.' || c == ':';
    let mut lines = Vec::new();
    for (n, line) in code.lines().enumerate() {
        let hit = line
            .match_indices("==")
            .chain(line.match_indices("!="))
            .any(|(i, _)| {
                let lhs = line[..i].trim_end();
                let lhs = &lhs[lhs.trim_end_matches(operand).len()..];
                let rhs = line[i + 2..].trim_start();
                let rhs = rhs.strip_prefix('-').unwrap_or(rhs);
                let rhs = &rhs[..rhs.len() - rhs.trim_start_matches(operand).len()];
                is_float_operand(lhs) || is_float_operand(rhs)
            });
        if hit {
            lines.push(n + 1);
        }
    }
    lines
}

/// Each `stream_rng(…, Stream::X)` call in `code`, as (line, `X`).
fn stream_constructions(code: &str) -> Vec<(usize, &str)> {
    let mut sites = Vec::new();
    for (at, call) in code.match_indices("stream_rng(") {
        if code[..at].ends_with(is_ident_char) {
            continue;
        }
        let args = &code[at + call.len()..];
        let mut depth = 1;
        let end = args
            .find(|c| {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .unwrap_or(args.len());
        if let Some((_, variant)) = args[..end].split_once("Stream::") {
            let len = variant.find(|c| !is_ident_char(c)).unwrap_or(variant.len());
            sites.push((line_of(code, at), &variant[..len]));
        }
    }
    sites
}

/// Whether the golden `results/<name>` is referenced: `scripts` names the
/// file, or a string literal in `rust` starts with its stem (less a
/// `_drops` suffix) followed by a non-identifier character.
fn golden_is_referenced(name: &str, rust: &str, scripts: &str) -> bool {
    let stem = name.rsplit_once('.').map_or(name, |(s, _)| s);
    let base = stem.strip_suffix("_drops").unwrap_or(stem);
    let quoted = format!("\"{base}");
    scripts.contains(name)
        || rust
            .match_indices(&quoted)
            .any(|(i, _)| !rust[i + quoted.len()..].starts_with(is_ident_char))
}

/// The identifiers in `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// One column-0 `fn` or `const` item of a file: its name, whether it is a
/// `const`, its 1-based line, and its text up to the next item start.
struct Item<'a> {
    name: &'a str,
    is_const: bool,
    line: usize,
    text: &'a str,
}

/// The column-0 `fn`/`const` items of `code`.
fn items(code: &str) -> Vec<Item<'_>> {
    let mut starts = Vec::new();
    let mut at = 0;
    for (n, line) in code.split_inclusive('\n').enumerate() {
        let decl = line.strip_prefix("pub ").unwrap_or(line);
        let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
        let (is_const, rest) = if let Some(rest) = decl.strip_prefix("const fn ") {
            (false, rest)
        } else if let Some(rest) = decl.strip_prefix("fn ") {
            (false, rest)
        } else if let Some(rest) = decl.strip_prefix("const ") {
            (true, rest)
        } else {
            at += line.len();
            continue;
        };
        let name = &rest[..rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len())];
        starts.push((at, name, is_const, n + 1));
        at += line.len();
    }
    let ends: Vec<usize> = starts
        .iter()
        .skip(1)
        .map(|s| s.0)
        .chain([code.len()])
        .collect();
    starts
        .into_iter()
        .zip(ends)
        .map(|((start, name, is_const, line), end)| Item {
            name,
            is_const,
            line,
            text: &code[start..end],
        })
        .collect()
}

/// The `const` items of `experiments` (as (line, name)) that the
/// identifiers of `entry_points` do not reach, directly or through the
/// text of reached items.
fn unreachable_consts<'a>(experiments: &'a str, entry_points: &str) -> Vec<(usize, &'a str)> {
    let items = items(experiments);
    let mut reached: BTreeSet<&str> = identifiers(entry_points).collect();
    loop {
        let before = reached.len();
        for item in &items {
            if reached.contains(item.name) {
                reached.extend(identifiers(item.text));
            }
        }
        if reached.len() == before {
            break;
        }
    }
    items
        .iter()
        .filter(|i| i.is_const && !reached.contains(i.name))
        .map(|i| (i.line, i.name))
        .collect()
}

#[test]
fn library_code_compares_no_float_literal_exactly() {
    let mut found = Vec::new();
    for (rel, src) in library_files().unwrap() {
        for line in float_literal_comparisons(&library_code(&src)) {
            found.push(format!("{rel}:{line}"));
        }
    }
    assert!(
        found.is_empty(),
        "exact float comparison against a literal; use bpp_sim::approx \
         (exactly, exactly_zero, approx_eq): {found:?}"
    );
}

#[test]
fn each_rng_stream_has_one_construction_site() {
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (rel, src) in library_files().unwrap() {
        if rel.starts_with("crates/sim/") {
            continue; // the RNG plumbing itself
        }
        for (line, variant) in stream_constructions(&library_code(&src)) {
            sites
                .entry(variant.to_string())
                .or_default()
                .push(format!("{rel}:{line}"));
        }
    }
    assert!(!sites.is_empty(), "the scan found no stream construction");
    let shared: Vec<_> = sites.iter().filter(|(_, at)| at.len() > 1).collect();
    assert!(
        shared.is_empty(),
        "RNG stream constructed at more than one site: {shared:?}"
    );
}

#[test]
fn every_golden_is_referenced() {
    // This file's own inline cases quote golden-like names.
    let rust: String = ["crates", "tests", "examples", "perfbench"]
        .into_iter()
        .flat_map(|dir| rust_files(dir).unwrap())
        .filter(|(rel, _)| rel != "tests/hygiene.rs")
        .map(|(_, src)| strip_comments(&src) + "\n")
        .collect();
    let mut scripts = String::new();
    for dir in ["scripts", ".github/workflows"] {
        for entry in fs::read_dir(root().join(dir)).unwrap() {
            scripts += &fs::read_to_string(entry.unwrap().path()).unwrap();
        }
    }
    let mut goldens = 0;
    let mut orphans = Vec::new();
    for entry in fs::read_dir(root().join("results")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !(name.ends_with(".csv") || name.ends_with(".json")) {
            continue;
        }
        goldens += 1;
        if !golden_is_referenced(&name, &rust, &scripts) {
            orphans.push(name);
        }
    }
    assert!(goldens > 0, "the scan found no golden");
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "results/ files no script or experiment names; delete them or compare them: {orphans:?}"
    );
}

#[test]
fn every_experiment_grid_reaches_a_bench_binary() {
    let entry_points: String = rust_files("crates/bench/src/bin")
        .unwrap()
        .iter()
        .map(|(_, src)| library_code(src))
        .collect();
    let path = root().join("crates/core/src/experiments.rs");
    let experiments = library_code(&fs::read_to_string(path).unwrap());
    assert!(items(&experiments).iter().any(|i| i.is_const));
    let dead = unreachable_consts(&experiments, &entry_points);
    assert!(
        dead.is_empty(),
        "experiments.rs grids no bench binary reaches; delete them or wire them to a figure: \
         {dead:?}"
    );
}

#[test]
fn library_code_drops_comments_and_the_test_tail() {
    let src = "fn a() {} // x == 0.0\n/// b == 1.0\nfn c() {}\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(library_code(src), "fn a() {} \n\nfn c() {}");
    assert_eq!(library_code("fn a() {}"), "fn a() {}");
}

#[test]
fn float_literal_scan_cases() {
    for fires in [
        "if x == 0.0 {",
        "x != 1.5",
        "y == -0.0",
        "0.25 == z",
        "t == f64::INFINITY",
        "f32::NAN != t",
        "a == 1e-9",
        "a == 2f64",
        "a == 1_000.0_f64",
        "a.b == 0.5)",
    ] {
        assert_eq!(float_literal_comparisons(fires), [1], "{fires}");
    }
    for quiet in [
        "x == y",
        "n == 0",
        "n != 10usize",
        "pair.0 == other.0",
        "x <= 0.0",
        "x >= 1.0",
        "let x = 0.0;",
        "(a + 1.0) == b",
        "h == 0x1e",
        "0.0 => {}",
        "k == i64::MAX",
    ] {
        assert!(float_literal_comparisons(quiet).is_empty(), "{quiet}");
    }
    assert_eq!(
        float_literal_comparisons("a\nb == 0.0\nc\nd != 2.0"),
        [2, 4]
    );
}

#[test]
fn stream_site_scan_cases() {
    let code = "let a = stream_rng(seed, Stream::Mux);\n\
                rng: stream_rng(\n    derive(cfg.seed, 3),\n    Stream::Fleet,\n),\n\
                let r = stream_rng_raw(seed, 7);\n\
                let s = my_stream_rng(seed, Stream::Vc);\n\
                let t = stream_rng(seed, kind);\n\
                let u = stream_rng(seed, Stream::Mux).next_u64();\n";
    assert_eq!(
        stream_constructions(code),
        [(1, "Mux"), (2, "Fleet"), (9, "Mux")]
    );
    assert!(stream_constructions("fn stream_rng(seed: u64, s: Stream) {}").is_empty());
}

#[test]
fn golden_reference_cases() {
    let rust = r#"("fig9q", run), push("fig9r/Push".into()), ("sweepz", 1)"#;
    assert!(golden_is_referenced("fig9q.csv", rust, ""));
    assert!(golden_is_referenced("fig9q_drops.csv", rust, ""));
    assert!(golden_is_referenced("fig9r.csv", rust, ""));
    assert!(golden_is_referenced(
        "x_smoke.json",
        "",
        "cmp - results/x_smoke.json"
    ));
    // A longer identifier does not name the golden, nor does a bare
    // identifier outside a string.
    assert!(!golden_is_referenced("sweep.csv", rust, ""));
    assert!(!golden_is_referenced("run.csv", rust, ""));
    assert!(!golden_is_referenced(
        "y_smoke.json",
        rust,
        "cmp - results/x_smoke.json"
    ));
}

#[test]
fn grid_reachability_cases() {
    let experiments = "use x;\n\
                       pub const LIVE: [f64; 2] = [1.0, 2.0];\n\
                       pub const VIA_FN: [usize; 1] = [3];\n\
                       const INNER: usize = 4;\n\
                       pub const DEAD: [f64; 1] = [5.0];\n\
                       pub const fn helper() -> usize {\n    INNER\n}\n\
                       pub struct S;\n\
                       pub fn sweep() -> usize {\n    VIA_FN[0] + helper()\n}\n\
                       pub fn unused() -> f64 {\n    DEAD[0]\n}\n";
    let names: Vec<&str> = items(experiments).iter().map(|i| i.name).collect();
    assert_eq!(
        names,
        ["LIVE", "VIA_FN", "INNER", "DEAD", "helper", "sweep", "unused"]
    );
    let bin = "fn main() { let _ = (LIVE, sweep()); }";
    assert_eq!(unreachable_consts(experiments, bin), [(5, "DEAD")]);
    assert!(unreachable_consts(experiments, "fn main() { unused(); LIVE; sweep(); }").is_empty());
    // Items start at column 0 only: an indented `const` is part of the
    // item above it.
    assert_eq!(items("fn f() {\n    const N: u8 = 1;\n}\n").len(), 1);
}
