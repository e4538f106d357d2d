//! Generator–verifier agreement and mutation-detection tests.
//!
//! Two halves prove the verifier from opposite directions:
//!
//! * **Agreement** — seeded generator loops build random assignments
//!   (weights chosen as `rel_freq²` per page, so the square-root rule holds
//!   by construction) and assert `verify_target` raises nothing on any
//!   `BroadcastProgram::generate` output. The verifier must never cry wolf.
//! * **Mutation detection** — each canonical corruption (drop a page, swap
//!   two slots, skew a disk frequency, shift an index offset, cross-channel
//!   slot collision) must be caught by *exactly* its intended rule. The
//!   verifier must never bark up the wrong tree.

#![expect(
    clippy::disallowed_methods,
    reason = "property cases derive one RNG stream per case index"
)]

use bpp_broadcast::{
    assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec, MultiChannelProgram,
    PageId, Slot,
};
use bpp_core::analytic::build_program;
use bpp_core::config::{Algorithm, MeasurementProtocol, SystemConfig};
use bpp_core::experiments::verify_targets;
use bpp_core::World;
use bpp_sim::rng::{stream_rng_raw, Rng};
use bpp_verify::{verify_target, Finding, Target};

const SEED: u64 = 0x5EED_B0DC;
const CASES: u64 = 96;

/// Generator: a small random multi-disk spec with non-increasing
/// frequencies (mirrors the paper's fastest-to-slowest ordering).
fn gen_spec<R: Rng + ?Sized>(rng: &mut R) -> DiskSpec {
    let ndisks = 1 + rng.random_range(0..4);
    let sizes: Vec<usize> = (0..ndisks).map(|_| 1 + rng.random_range(0..59)).collect();
    let mut freqs: Vec<u32> = (0..ndisks)
        .map(|_| 1 + rng.random_range(0..6) as u32)
        .collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    DiskSpec::new(sizes, freqs)
}

/// Per-page weights proportional to `rel_freq²` of the page's disk, so the
/// square-root rule `f ∝ sqrt(w)` holds exactly by construction.
fn sqrt_rule_weights(spec: &DiskSpec) -> Vec<f64> {
    let mut weights = Vec::with_capacity(spec.total_pages());
    for (d, &size) in spec.sizes.iter().enumerate() {
        let f = f64::from(spec.rel_freqs[d]);
        weights.extend(std::iter::repeat_n(f * f, size));
    }
    weights
}

/// A target over a freshly generated random assignment, optionally chopped.
fn gen_target<R: Rng + ?Sized>(rng: &mut R, label: &str, chop: bool) -> Target {
    let spec = gen_spec(rng);
    let n = spec.total_pages();
    let weights = sqrt_rule_weights(&spec);
    let mut a = Assignment::from_ranking(&identity_ranking(n), &spec);
    if chop {
        a.chop(rng.random_range(0..n + 1));
    }
    Target::from_assignment(label, &a, n, weights, Vec::new(), 0.3, false)
}

#[test]
fn every_generated_program_verifies_clean() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let t = gen_target(&mut rng, &format!("fuzz-{case}"), false);
        let findings = verify_target(&t);
        assert!(findings.is_empty(), "case {case}: {findings:?}");
    }
}

#[test]
fn every_chopped_program_verifies_clean() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, 1000 + case);
        let t = gen_target(&mut rng, &format!("chop-{case}"), true);
        let findings = verify_target(&t);
        assert!(findings.is_empty(), "case {case}: {findings:?}");
    }
}

/// The small-system config target (simulator-identical construction path,
/// closed-form cross-check attached) used by the mutation suite.
fn small_target() -> Target {
    let mut cfg = SystemConfig::small();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.3;
    let t = Target::from_config("small", &cfg);
    assert!(
        t.closed_form.is_some(),
        "config targets carry the analytic cross-check"
    );
    t
}

/// Assert `findings` is non-empty and every finding fired `rule` — the
/// mutation-selectivity contract: exactly one rule sees each corruption.
fn assert_only_rule(findings: &[Finding], rule: &str) {
    assert!(!findings.is_empty(), "mutation went undetected");
    for f in findings {
        assert_eq!(
            f.rule, rule,
            "expected only {rule} to fire, got {findings:?}"
        );
    }
}

#[test]
fn clean_small_target_raises_nothing() {
    let findings = verify_target(&small_target());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dropped_page_is_caught_by_v0_alone() {
    let t = small_target();
    // An uncached broadcast page, so the drop is visible to the rules.
    let page = (0..t.program.db_size() as u32)
        .map(PageId)
        .find(|p| t.program.contains(*p) && !t.cached.contains(p))
        .expect("small config broadcasts uncached pages");
    let mutated = t.with_dropped_page(page);
    assert_only_rule(&verify_target(&mutated), "V0");
}

#[test]
fn swapped_slots_are_caught_by_v1_alone() {
    let t = small_target();
    // Two adjacent slots carrying different pages that each appear at
    // least twice: the swap leaves every count intact but breaks equal
    // spacing for both pages.
    let slots = t.program.slots();
    let i = (0..slots.len() - 1)
        .find(|&i| match (slots[i], slots[i + 1]) {
            (Slot::Page(a), Slot::Page(b)) => {
                a != b && t.program.frequency(a) >= 2 && t.program.frequency(b) >= 2
            }
            _ => false,
        })
        .expect("adjacent multi-occurrence pages exist");
    let mutated = t.with_swapped_slots(i, i + 1);
    assert_only_rule(&verify_target(&mutated), "V1");
}

#[test]
fn skewed_disk_frequency_is_caught_by_v2_alone() {
    let t = small_target();
    let mutated = t.with_skewed_freq(0, 8);
    assert_only_rule(&verify_target(&mutated), "V2");
}

#[test]
fn shifted_index_offset_is_caught_by_v3_alone() {
    let t = small_target();
    let starts = t
        .index
        .as_ref()
        .expect("small program is indexed")
        .starts
        .len();
    assert!(starts >= 2, "need a second segment to shift");
    let mutated = t.with_shifted_index_start(1, 3);
    assert_only_rule(&verify_target(&mutated), "V3");
}

/// A flat single-disk program broadcasting pages `lo..hi` of a `db`-page
/// database — one shard of a K-channel layout.
fn band_program(db: usize, lo: u32, hi: u32) -> BroadcastProgram {
    let pages: Vec<PageId> = (lo..hi).map(PageId).collect();
    let spec = DiskSpec::new(vec![pages.len()], vec![1]);
    BroadcastProgram::generate(&Assignment::from_ranking(&pages, &spec), db)
}

/// A two-channel target: channel 0 carries pages 0..5 (the target's own
/// assignment shard), channel 1 carries pages 5..10.
fn two_channel_target() -> Target {
    let db = 10;
    let pages0: Vec<PageId> = (0..5).map(PageId).collect();
    let spec = DiskSpec::new(vec![5], vec![1]);
    let a = Assignment::from_ranking(&pages0, &spec);
    let weights = vec![1.0; db];
    let mut t = Target::from_assignment("two-channel", &a, db, weights, Vec::new(), 0.3, false);
    // A channel shard covers only its own pages, not the whole database.
    t.require_total_coverage = false;
    t.channels =
        MultiChannelProgram::from_channels(vec![t.program.clone(), band_program(db, 5, 10)]);
    // One access set per channel: conflict-free.
    t.access_sets = vec![vec![PageId(0), PageId(1)], vec![PageId(5), PageId(6)]];
    t
}

#[test]
fn conflict_free_two_channel_layout_is_clean() {
    let findings = verify_target(&two_channel_target());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cross_channel_collision_is_caught_by_v6_alone() {
    let mut t = two_channel_target();
    // Both flat channels cycle in lockstep: page 2 (channel 0) and page 7
    // (channel 1) fly in the same aligned slot 2.
    t.access_sets = vec![vec![PageId(2), PageId(7)]];
    assert_only_rule(&verify_target(&t), "V6");
}

#[test]
fn k_channel_config_targets_verify_clean_for_every_grid_count() {
    // The conflict-aware generator must produce placements that pass the
    // full rule set (V6 included) by construction, at every channel count
    // the experiment grid sweeps.
    for k in [2usize, 4, 8] {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.pull_bw = 0.5;
        cfg.num_channels = k;
        let t = Target::from_config(&format!("small-ch{k}"), &cfg);
        assert_eq!(t.channels.num_channels(), k);
        // The simulator's hot access set rides along, so V6 audits the
        // exact sets the placement was built around.
        assert!(!t.access_sets.is_empty());
        let findings = verify_target(&t);
        assert!(findings.is_empty(), "ch{k}: {findings:?}");
    }
}

/// The two programs carry the same slots and the same per-slot disks.
fn assert_same_program(what: &str, a: &BroadcastProgram, b: &BroadcastProgram) {
    assert_eq!(a.slots(), b.slots(), "{what}: slots differ");
    assert_eq!(a.disk_map(), b.disk_map(), "{what}: disks differ");
}

#[test]
fn verified_layout_is_the_simulated_layout_for_every_grid_target() {
    // The verifier, the simulator and the closed-form comparator derive
    // one broadcast layout: every experiment-grid config of both systems
    // airs, channel by channel, exactly what its verify target audits, and
    // a single-channel config's program is `build_program`'s.
    let protocol = MeasurementProtocol::quick();
    let mut pure_pull = 0;
    for base in [SystemConfig::small(), SystemConfig::paper_default()] {
        for (label, cfg) in verify_targets(&base) {
            let world = World::steady_state(&cfg, &protocol);
            let simulated = world.channels();
            let verified = Target::from_config(&label, &cfg).channels;
            assert_eq!(simulated.num_channels(), cfg.num_channels, "{label}");
            assert_eq!(verified.num_channels(), cfg.num_channels, "{label}");
            for k in 0..cfg.num_channels {
                assert_same_program(
                    &format!("{label} ch{k}"),
                    simulated.channel(k),
                    verified.channel(k),
                );
            }
            if cfg.num_channels == 1 {
                assert_same_program(&label, &build_program(&cfg), simulated.channel(0));
            }
            if cfg.algorithm == Algorithm::PurePull {
                pure_pull += 1;
                assert_eq!(simulated.channel(0).major_cycle(), 0, "{label}");
            }
        }
    }
    assert!(pure_pull > 0, "the grid covers Pure-Pull");
}

#[test]
#[should_panic(expected = "outside the")]
fn out_of_universe_access_set_page_panics_in_the_precheck() {
    // Silently skipping an out-of-universe page would let a malformed
    // access set pass V6 clean; the precheck must refuse it loudly instead.
    let t = two_channel_target();
    t.channels.conflicts(&[vec![PageId(0), PageId(10)]]);
}

#[test]
fn mutated_labels_identify_the_corruption() {
    let t = small_target();
    let page = PageId(0);
    assert!(t.with_dropped_page(page).label.contains("drop"));
    assert!(t.with_swapped_slots(0, 1).label.contains("swap"));
    assert!(t.with_skewed_freq(0, 2).label.contains("skew"));
    assert!(t.with_shifted_index_start(0, 1).label.contains("shift"));
}
