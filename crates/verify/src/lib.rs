//! # bpp-verify — static broadcast-program verifier
//!
//! The paper's response-time claims all rest on structural properties of
//! the generated broadcast program: every page present, equal per-page
//! spacing (the paper proves variance in inter-arrival spacing strictly
//! hurts expected wait), disk frequencies tracking access probabilities by
//! the square-root rule, and the push/pull split matching the configured
//! `PullBW`. The simulator exercises these only indirectly; this crate is
//! their *static* complement.
//!
//! A [`Target`] bundles everything one verification subject needs: the
//! [`BroadcastProgram`], the assignment shape it was generated from, the
//! access weights and ideal cache contents, the bandwidth split, an
//! optional (1, m) index view and a (possibly single-channel)
//! [`MultiChannelProgram`]. [`verify_target`] runs rules V0–V6 (see
//! [`rules`]) over a target; [`verify_config`] builds the target from a
//! [`SystemConfig`] exactly as the simulator and the closed-form comparator
//! do; [`verify_grid`] sweeps every experiment-grid configuration
//! ([`bpp_core::experiments::verify_targets`]) into a schema-versioned
//! [`Report`] — the artifact `scripts/ci.sh` gates on.
//!
//! The verifier is itself verified by a mutation harness: the
//! `with_*` constructors on [`Target`] inject surgical corruptions (drop a
//! page, swap two slots, skew a disk frequency, shift an index offset) and
//! the test suite asserts each corruption is caught by exactly the intended
//! rule while clean programs raise nothing.

pub mod rules;

use bpp_broadcast::{
    hot_access_sets, optimal_m, Assignment, BroadcastProgram, IndexedProgram, IndexedSlot,
    MultiChannelProgram, PageId, Slot,
};
use bpp_core::analytic;
use bpp_core::config::{Algorithm, SystemConfig};
use bpp_json::{Json, ToJson};
use bpp_workload::Zipf;

/// Slots per index segment used when a target derives its (1, m) view.
pub const INDEX_SIZE: usize = 8;

/// One rule violation found in a target.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Label of the verified target (e.g. `fig7b/IPP-30-chop400`).
    pub target: String,
    /// Rule identifier, `V0`..`V6`.
    pub rule: &'static str,
    /// Human-readable statement of the violation.
    pub message: String,
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::object([
            ("target", self.target.to_json()),
            ("rule", self.rule.to_json()),
            ("message", self.message.to_json()),
        ])
    }
}

/// Schema-versioned verification report (schema version 1): deterministic
/// ordering, pretty JSON with a trailing newline as the golden-file bytes,
/// and a human rendering for terminals.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of targets verified.
    pub targets: usize,
    /// Every finding, sorted by (target, rule, message).
    pub findings: Vec<Finding>,
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::object([
            ("version", 1u64.to_json()),
            ("targets", (self.targets as u64).to_json()),
            ("findings", self.findings.to_json()),
        ])
    }
}

impl Report {
    /// True when no rule fired on any target.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Restore the canonical (target, rule, message) ordering.
    pub fn sort(&mut self) {
        self.findings.sort();
    }

    /// The pretty-printed JSON document (trailing newline included), the
    /// exact bytes the golden test pins.
    pub fn to_json_string(&self) -> String {
        let mut s = bpp_json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Human-readable `target: rule: message` lines plus a per-rule count
    /// summary (rules with nothing to report are elided).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}: {}: {}\n", f.target, f.rule, f.message));
        }
        for (rule, what) in rules::RULES {
            let n = self.findings.iter().filter(|f| f.rule == rule).count();
            if n > 0 {
                out.push_str(&format!("{rule} ({what}): {n}\n"));
            }
        }
        out.push_str(&format!(
            "verified {} target{}: {}\n",
            self.targets,
            if self.targets == 1 { "" } else { "s" },
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        ));
        out
    }
}

/// The (1, m) index data rule V3 audits, detached from [`IndexedProgram`]
/// so the mutation harness can corrupt the offset table alone.
#[derive(Debug, Clone)]
pub struct IndexView {
    /// The indexed cycle's slots in order.
    pub slots: Vec<IndexedSlot>,
    /// Declared starting offset of every index segment.
    pub starts: Vec<usize>,
    /// Declared length of each segment.
    pub index_size: usize,
}

impl From<&IndexedProgram> for IndexView {
    fn from(ip: &IndexedProgram) -> Self {
        IndexView {
            slots: ip.slots().to_vec(),
            starts: ip.index_starts().to_vec(),
            index_size: ip.index_size(),
        }
    }
}

/// Everything one verification subject carries: the program, the
/// assignment shape that generated it, the access model, the bandwidth
/// split, and the derived index / multi-channel views.
#[derive(Debug, Clone)]
pub struct Target {
    /// Display label used in findings.
    pub label: String,
    /// The program under verification.
    pub program: BroadcastProgram,
    /// Pages per disk, fastest first (the assignment's layout).
    pub disks: Vec<Vec<PageId>>,
    /// Relative disk frequencies, parallel to `disks`.
    pub rel_freqs: Vec<u32>,
    /// Pages chopped off the broadcast (pull-only).
    pub non_broadcast: Vec<PageId>,
    /// Per-page access weights (Zipf probabilities for config targets).
    pub weights: Vec<f64>,
    /// Ideally warmed cache contents — these pages are free hits.
    pub cached: Vec<PageId>,
    /// True when the configuration demands an empty program (Pure-Pull).
    pub expect_empty: bool,
    /// Effective pull bandwidth share in `[0, 1]`.
    pub pull_bw: f64,
    /// Derived (1, m) index view; `None` for empty programs.
    pub index: Option<IndexView>,
    /// Channel placement; `single(program)` unless a K-channel layout is
    /// under test.
    pub channels: MultiChannelProgram,
    /// Client access sets for the V6 conflict-freedom precheck.
    pub access_sets: Vec<Vec<PageId>>,
    /// External closed-form expected response to cross-check against
    /// (`analytic::push_response` for config targets; `None` for detached
    /// or mutated targets, where V5 compares its two internal derivations).
    pub closed_form: Option<f64>,
    /// When true (the default), V0 demands every database page appear in
    /// exactly one of `disks` / `non_broadcast`. A single-channel shard of
    /// a K-channel layout covers only its own pages and sets this false.
    pub require_total_coverage: bool,
}

impl Target {
    /// Build the target for a [`SystemConfig`] from the layout the
    /// simulator airs ([`analytic::build_assignment`] and
    /// [`analytic::build_channels`]: Pure-Pull's program is empty), with
    /// Zipf weights at Noise-0 and the ideal cache under the effective
    /// policy. The closed-form cross-check value is pinned to
    /// [`analytic::push_response`] for push algorithms.
    pub fn from_config(label: &str, cfg: &SystemConfig) -> Self {
        let a = analytic::build_assignment(cfg);
        let pure_pull = cfg.algorithm == Algorithm::PurePull;
        let program = BroadcastProgram::generate(&a, cfg.db_size);
        let weights = Zipf::new(cfg.db_size, cfg.zipf_theta).probs().to_vec();
        let cached = analytic::ideal_cache(cfg, &program);
        let closed = (!pure_pull).then(|| analytic::push_response(cfg));
        let mut t = Self::assemble(
            label,
            &a,
            program,
            weights,
            cached,
            cfg.effective_pull_bw(),
            pure_pull,
            closed,
        );
        t.channels = analytic::build_channels(cfg, &a, t.program.clone(), &t.weights);
        t
    }

    /// Build a detached target from an [`Assignment`]: the generator
    /// -verifier agreement entry point used by the property tests. No
    /// external closed form is attached (V5 cross-checks its two internal
    /// derivations).
    pub fn from_assignment(
        label: &str,
        assignment: &Assignment,
        db_size: usize,
        weights: Vec<f64>,
        cached: Vec<PageId>,
        pull_bw: f64,
        expect_empty: bool,
    ) -> Self {
        let program = BroadcastProgram::generate(assignment, db_size);
        Self::assemble(
            label,
            assignment,
            program,
            weights,
            cached,
            pull_bw,
            expect_empty,
            None,
        )
    }

    #[allow(clippy::too_many_arguments, reason = "one constructor for all views")]
    fn assemble(
        label: &str,
        assignment: &Assignment,
        program: BroadcastProgram,
        weights: Vec<f64>,
        cached: Vec<PageId>,
        pull_bw: f64,
        expect_empty: bool,
        closed_form: Option<f64>,
    ) -> Self {
        let index = (program.major_cycle() > 0).then(|| {
            IndexView::from(&IndexedProgram::new(
                &program,
                INDEX_SIZE,
                optimal_m(program.major_cycle(), INDEX_SIZE),
            ))
        });
        let access_sets = default_access_sets(&program, &weights, &cached);
        let channels = MultiChannelProgram::single(program.clone());
        Target {
            label: label.to_string(),
            program,
            disks: assignment.disks().to_vec(),
            rel_freqs: assignment.rel_freqs().to_vec(),
            non_broadcast: assignment.non_broadcast().to_vec(),
            weights,
            cached,
            expect_empty,
            pull_bw,
            index,
            channels,
            access_sets,
            closed_form,
            require_total_coverage: true,
        }
    }

    /// Rebuild the derived pieces (occurrence index, index view, channel
    /// view) from a corrupted slot sequence, detaching the external closed
    /// form so V5 judges the corrupted schedule on its own terms.
    fn rebuilt(&self, slots: Vec<Slot>, suffix: &str) -> Self {
        let program = BroadcastProgram::from_slots(
            slots,
            self.program.disk_map().to_vec(),
            self.program.minor_cycle(),
            self.program.num_minor_cycles(),
            self.program.db_size(),
        );
        let index = self.index.as_ref().map(|v| {
            IndexView::from(&IndexedProgram::new(
                &program,
                v.index_size,
                v.starts.len().max(1),
            ))
        });
        let mut t = self.clone();
        t.label = format!("{}{suffix}", self.label);
        t.channels = MultiChannelProgram::single(program.clone());
        t.index = index;
        t.program = program;
        t.closed_form = None;
        t
    }

    /// Mutation: erase every occurrence of `page` (slots become padding).
    /// Caught by V0 (coverage + excess padding).
    pub fn with_dropped_page(&self, page: PageId) -> Self {
        let slots = self
            .program
            .slots()
            .iter()
            .map(|&s| {
                if s == Slot::Page(page) {
                    Slot::Empty
                } else {
                    s
                }
            })
            .collect();
        self.rebuilt(slots, &format!("+drop({page})"))
    }

    /// Mutation: swap the contents of slots `i` and `j`. When the slots
    /// carry different pages that each appear at least twice, this breaks
    /// equal spacing and is caught by V1.
    pub fn with_swapped_slots(&self, i: usize, j: usize) -> Self {
        let mut slots = self.program.slots().to_vec();
        slots.swap(i, j);
        self.rebuilt(slots, &format!("+swap({i},{j})"))
    }

    /// Mutation: multiply disk `disk`'s relative frequency by `factor`,
    /// breaking the square-root relationship. Caught by V2.
    pub fn with_skewed_freq(&self, disk: usize, factor: u32) -> Self {
        let mut t = self.clone();
        t.label = format!("{}+skew({disk}x{factor})", self.label);
        t.rel_freqs[disk] *= factor;
        t
    }

    /// Mutation: shift declared index segment `k` forward by `delta`
    /// slots without moving the segment itself. Caught by V3.
    ///
    /// # Panics
    ///
    /// Panics when the target has no index view.
    pub fn with_shifted_index_start(&self, k: usize, delta: usize) -> Self {
        let mut t = self.clone();
        t.label = format!("{}+shift({k}+{delta})", self.label);
        #[expect(
            clippy::expect_used,
            reason = "documented panic — mutation harness misuse, not a runtime path"
        )]
        let v = t.index.as_mut().expect("target has an index view");
        v.starts[k] += delta;
        t
    }
}

/// Default V6 access set: the hottest eight uncached broadcast pages (one
/// set), shared with the simulator's K-channel generator
/// ([`bpp_broadcast::hot_access_sets`]) so the verifier audits the exact
/// sets the placement was built to keep conflict-free.
fn default_access_sets(
    program: &BroadcastProgram,
    weights: &[f64],
    cached: &[PageId],
) -> Vec<Vec<PageId>> {
    hot_access_sets(program, weights, cached)
}

/// Run every rule (V0–V6) over one target.
pub fn verify_target(t: &Target) -> Vec<Finding> {
    let mut out = Vec::new();
    rules::v0_coverage(t, &mut out);
    rules::v1_spacing(t, &mut out);
    rules::v2_sqrt_rule(t, &mut out);
    rules::v3_index(t, &mut out);
    rules::v4_bandwidth(t, &mut out);
    rules::v5_analytic(t, &mut out);
    rules::v6_conflicts(t, &mut out);
    out
}

/// Verify the program a [`SystemConfig`] generates.
pub fn verify_config(label: &str, cfg: &SystemConfig) -> Vec<Finding> {
    verify_target(&Target::from_config(label, cfg))
}

/// Verify every experiment-grid configuration derived from `base`
/// ([`bpp_core::experiments::verify_targets`]) and collect the report.
pub fn verify_grid(base: &SystemConfig) -> Report {
    let mut report = Report::default();
    for (label, cfg) in bpp_core::experiments::verify_targets(base) {
        report.targets += 1;
        report.findings.extend(verify_config(&label, &cfg));
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape_is_schema_v1() {
        let mut r = Report {
            targets: 2,
            findings: vec![
                Finding {
                    target: "b".into(),
                    rule: "V1",
                    message: "m".into(),
                },
                Finding {
                    target: "a".into(),
                    rule: "V0",
                    message: "m".into(),
                },
            ],
        };
        r.sort();
        assert_eq!(r.findings[0].target, "a");
        let s = r.to_json_string();
        assert!(s.starts_with("{\n  \"version\": 1,"), "{s}");
        assert!(s.ends_with('\n'));
        assert!(s.contains("\"targets\": 2"));
        let human = r.render_human();
        assert!(human.contains("a: V0: m"));
        assert!(human.contains("verified 2 targets: 2 finding(s)"));
    }

    #[test]
    fn clean_report_renders_clean() {
        let r = Report {
            targets: 1,
            findings: Vec::new(),
        };
        assert!(r.is_clean());
        assert!(r.render_human().contains("verified 1 target: clean"));
    }

    #[test]
    fn small_config_target_is_clean_for_all_algorithms() {
        for algorithm in [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp] {
            let mut cfg = SystemConfig::small();
            cfg.algorithm = algorithm;
            if algorithm == Algorithm::Ipp {
                cfg.pull_bw = 0.3;
            }
            let findings = verify_config("small", &cfg);
            assert!(findings.is_empty(), "{algorithm:?}: {findings:?}");
        }
    }

    #[test]
    fn paper_default_target_is_clean() {
        let mut cfg = SystemConfig::paper_default();
        cfg.algorithm = Algorithm::Ipp;
        cfg.pull_bw = 0.3;
        cfg.thres_perc = 0.35;
        let findings = verify_config("paper", &cfg);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn small_grid_is_clean() {
        let report = verify_grid(&SystemConfig::small());
        assert!(report.targets > 20, "targets {}", report.targets);
        assert!(report.is_clean(), "{}", report.render_human());
    }
}
