//! In-memory acceptance tests for the cross-file semantic rules: seeding
//! a deliberate violation must produce a diagnostic naming the exact
//! file, line, and rule — the contract the CI gate relies on.

use bpp_lint::graph::{Analysis, Workspace};
use bpp_lint::lexer::lex;
use bpp_lint::rules::{dead_artifacts, stream_flow, Diagnostic, SourceFile};

fn analysis(rel: &str, src: &str) -> Analysis {
    Analysis::new(SourceFile::new(
        rel.to_string(),
        lex(src).expect("test source must lex"),
    ))
}

fn ws(files: &[Analysis]) -> Workspace<'_> {
    Workspace::build(files, Vec::new(), Vec::new())
}

#[test]
fn seeded_shared_stream_handle_fails_with_file_line_rule() {
    let files = vec![
        analysis(
            "crates/core/src/run.rs",
            "pub fn run(seed: u64) {\n\
             \x20   let mut rng = stream_rng(seed, streams::MUX);\n\
             \x20   decide(&mut rng);\n\
             \x20   draw_think(&mut rng);\n\
             }\n",
        ),
        analysis(
            "crates/server/src/lib.rs",
            "pub fn decide(rng: &mut Rng) -> u64 { rng.next_u64() }\n",
        ),
        analysis(
            "crates/client/src/lib.rs",
            "pub fn draw_think(rng: &mut Rng) -> u64 { rng.next_u64() }\n",
        ),
    ];
    let ws = ws(&files);
    let mut out: Vec<Diagnostic> = Vec::new();
    stream_flow::d7_stream_flow(&ws, &mut out);
    assert_eq!(
        out.len(),
        1,
        "exactly the shared handle is flagged: {out:?}"
    );
    assert_eq!(out[0].file, "crates/core/src/run.rs");
    assert_eq!(out[0].line, 2, "flagged at the handle's birth line");
    assert_eq!(out[0].rule, "D7");
    assert!(out[0].message.contains("client") && out[0].message.contains("server"));
}

#[test]
fn handle_confined_to_one_component_is_clean() {
    let files = vec![
        analysis(
            "crates/core/src/run.rs",
            "pub fn run(seed: u64) {\n\
             \x20   let mut rng = stream_rng(seed, streams::MC);\n\
             \x20   draw_think(&mut rng);\n\
             \x20   draw_think(&mut rng);\n\
             }\n",
        ),
        analysis(
            "crates/client/src/lib.rs",
            "pub fn draw_think(rng: &mut Rng) -> u64 { rng.next_u64() }\n",
        ),
    ];
    let ws = ws(&files);
    let mut out = Vec::new();
    stream_flow::d7_stream_flow(&ws, &mut out);
    assert_eq!(out, vec![], "a single-component flow is the architecture");
}

#[test]
fn flow_is_tracked_through_a_helper_fn() {
    // The handle is laundered through a same-component helper whose own
    // Rng parameter forwards into a foreign component.
    let files = vec![
        analysis(
            "crates/core/src/run.rs",
            "pub fn run(seed: u64) {\n\
             \x20   let mut rng = stream_rng(seed, streams::VC);\n\
             \x20   helper(&mut rng);\n\
             \x20   decide(&mut rng);\n\
             }\n\
             pub fn helper(rng: &mut Rng) { draw_think(rng); }\n",
        ),
        analysis(
            "crates/server/src/lib.rs",
            "pub fn decide(rng: &mut Rng) -> u64 { rng.next_u64() }\n",
        ),
        analysis(
            "crates/client/src/lib.rs",
            "pub fn draw_think(rng: &mut Rng) -> u64 { rng.next_u64() }\n",
        ),
    ];
    let ws = ws(&files);
    let mut out = Vec::new();
    stream_flow::d7_stream_flow(&ws, &mut out);
    assert_eq!(out.len(), 1, "transitive flow must be found: {out:?}");
    assert!(out[0].message.contains("client") && out[0].message.contains("server"));
}

#[test]
fn duplicate_construction_sites_name_the_first_site() {
    let files = vec![analysis(
        "crates/core/src/run.rs",
        "pub fn a(seed: u64) -> R { stream_rng(seed, streams::MC) }\n\
         pub fn b(seed: u64) -> R { stream_rng(seed, streams::MC) }\n",
    )];
    let ws = ws(&files);
    let mut out = Vec::new();
    stream_flow::d7_stream_flow(&ws, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].rule, out[0].line), ("D7", 2));
    assert!(out[0].message.contains("crates/core/src/run.rs:1"));
}

#[test]
fn unreachable_grid_and_orphan_golden_are_flagged() {
    let files = vec![
        analysis(
            "crates/core/src/experiments.rs",
            "pub const LIVE: [u32; 1] = [1];\n\
             pub const DEAD: [u32; 1] = [2];\n\
             pub fn rows() -> Vec<u32> { LIVE.to_vec() }\n",
        ),
        analysis(
            "crates/bench/src/bin/fig.rs",
            "fn main() { write(\"results/fig.csv\", rows()); }\n",
        ),
    ];
    let ws = Workspace::build(
        &files,
        vec!["fig.csv".to_string(), "stale.csv".to_string()],
        Vec::new(),
    );
    let mut out = Vec::new();
    dead_artifacts::d10_dead_artifacts(&ws, &mut out);
    assert_eq!(out.len(), 2, "one dead grid, one orphan golden: {out:?}");
    assert_eq!(
        (out[0].file.as_str(), out[0].line, out[0].rule),
        ("crates/core/src/experiments.rs", 2, "D10")
    );
    assert!(out[0].message.contains("`DEAD`"));
    assert_eq!(out[1].file, "results/stale.csv");
    assert!(out[1].message.contains("stale.csv"));
}

#[test]
fn script_reference_keeps_a_golden_alive() {
    let files = vec![analysis("crates/core/src/lib.rs", "pub fn noop() {}\n")];
    let ws = Workspace::build(
        &files,
        vec!["smoke.json".to_string()],
        vec!["cmp results/smoke.json /tmp/out.json\n".to_string()],
    );
    let mut out = Vec::new();
    dead_artifacts::d10_dead_artifacts(&ws, &mut out);
    assert_eq!(out, vec![], "a scripts/ mention must count as a reference");
}
