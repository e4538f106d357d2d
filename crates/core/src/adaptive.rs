//! Adaptive IPP — the paper's "future work" dynamic algorithm (§6).
//!
//! > "As the contention on the server increases, a dynamic algorithm might
//! > automatically reduce the pull bandwidth at the server and also use a
//! > larger threshold at the client."
//!
//! The [`AdaptiveController`] watches the server queue's drop rate over a
//! sliding window of slots. Sustained drops mean the system is past
//! saturation: pull slots are being spent on a queue most requests never
//! reach, so the controller *shrinks* `PullBW` (speeding up the push
//! "safety net") and *raises* the client threshold (conserving the
//! backchannel for the farthest pages). When the window is drop-free it
//! moves both knobs back toward their aggressive settings.

use crate::config::{MeasurementProtocol, SystemConfig};
use crate::runner::SteadyStateResult;
use crate::simulation::World;
use bpp_json::{Json, ToJson};
use bpp_server::QueueStats;
use bpp_sim::Confidence;

/// The usual decision interval, in slots, for [`run_adaptive`] and
/// [`AdaptiveController::new`].
pub const DEFAULT_INTERVAL: u64 = 2_000;
/// Lower bound for `PullBW`.
const MIN_PULL_BW: f64 = 0.1;
/// Upper bound for `PullBW`.
const MAX_PULL_BW: f64 = 0.9;
/// `PullBW` change per adjustment.
const BW_STEP: f64 = 0.1;
/// Lower bound for the client threshold (fraction of major cycle).
const MIN_THRES: f64 = 0.0;
/// Upper bound for the client threshold.
const MAX_THRES: f64 = 0.5;
/// Threshold change per adjustment.
const THRES_STEP: f64 = 0.1;
/// Window drop rate above which the system is considered saturated.
const HIGH_DROP: f64 = 0.10;
/// Window drop rate below which the system is considered underloaded.
const LOW_DROP: f64 = 0.01;

/// Watches queue statistics and proposes (PullBW, ThresPerc) updates.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    /// Slots between adjustment decisions.
    interval: u64,
    slots_since_adjust: u64,
    window_start: QueueStats,
    pull_bw: f64,
    thres: f64,
    initial_pull_bw: f64,
    initial_thres: f64,
    adjustments: u64,
}

impl AdaptiveController {
    /// Start from the current knob settings, deciding every `interval`
    /// slots.
    pub fn new(interval: u64, initial_pull_bw: f64, initial_thres: f64) -> Self {
        let pull_bw = initial_pull_bw.clamp(MIN_PULL_BW, MAX_PULL_BW);
        let thres = initial_thres.clamp(MIN_THRES, MAX_THRES);
        AdaptiveController {
            interval,
            slots_since_adjust: 0,
            window_start: QueueStats::default(),
            pull_bw,
            thres,
            initial_pull_bw: pull_bw,
            initial_thres: thres,
            adjustments: 0,
        }
    }

    /// Server crash: the learned knob settings and the open observation
    /// window are volatile state. A cold restart goes back to the initial
    /// knobs and starts a fresh window anchored at the queue's *current*
    /// cumulative counters (pre-crash traffic must not bias the first
    /// post-restart decision). Returns the restored `(pull_bw, thres_perc)`
    /// for the caller to re-apply. The adjustment count survives — it is
    /// run history, not server memory.
    pub fn crash_reset(&mut self, cumulative: &QueueStats) -> (f64, f64) {
        // No `..`: a new field does not compile until it is wiped here or
        // kept on purpose (`field: _`).
        let Self {
            // Configuration: the restarted controller keeps its interval.
            interval: _,
            slots_since_adjust,
            window_start,
            pull_bw,
            thres,
            initial_pull_bw,
            initial_thres,
            // Run-history count: deliberately survives a crash.
            adjustments: _,
        } = self;
        *slots_since_adjust = 0;
        *window_start = *cumulative;
        *pull_bw = *initial_pull_bw;
        *thres = *initial_thres;
        (*pull_bw, *thres)
    }

    /// Current `PullBW` setting.
    pub fn pull_bw(&self) -> f64 {
        self.pull_bw
    }

    /// Current threshold setting.
    pub fn thres_perc(&self) -> f64 {
        self.thres
    }

    /// Number of adjustments made.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Called once per slot with the queue's cumulative statistics. At the
    /// end of each window, returns new `(pull_bw, thres_perc)` settings if
    /// they changed.
    pub fn on_slot(&mut self, cumulative: &QueueStats) -> Option<(f64, f64)> {
        self.slots_since_adjust += 1;
        if self.slots_since_adjust < self.interval {
            return None;
        }
        self.slots_since_adjust = 0;
        let received = cumulative.received - self.window_start.received;
        let dropped = cumulative.dropped_full - self.window_start.dropped_full;
        self.window_start = *cumulative;
        if received == 0 {
            return None;
        }
        let drop_rate = dropped as f64 / received as f64;
        let (old_bw, old_thres) = (self.pull_bw, self.thres);
        if drop_rate > HIGH_DROP {
            // Saturated: hand bandwidth back to the push safety net and
            // make clients conserve the backchannel.
            self.pull_bw = (self.pull_bw - BW_STEP).max(MIN_PULL_BW);
            self.thres = (self.thres + THRES_STEP).min(MAX_THRES);
        } else if drop_rate < LOW_DROP {
            // Underloaded: spend bandwidth on responsive on-demand service.
            self.pull_bw = (self.pull_bw + BW_STEP).min(MAX_PULL_BW);
            self.thres = (self.thres - THRES_STEP).max(MIN_THRES);
        }
        if (self.pull_bw, self.thres) != (old_bw, old_thres) {
            self.adjustments += 1;
            Some((self.pull_bw, self.thres))
        } else {
            None
        }
    }
}

/// Steady-state result of an adaptive run plus the final knob settings.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The usual steady-state metrics.
    pub steady: SteadyStateResult,
    /// Final `PullBW` the controller settled on.
    pub final_pull_bw: f64,
    /// Final threshold the controller settled on.
    pub final_thres_perc: f64,
    /// Adjustments made over the run.
    pub adjustments: u64,
}

impl ToJson for AdaptiveResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("steady", self.steady.to_json()),
            ("final_pull_bw", self.final_pull_bw.to_json()),
            ("final_thres_perc", self.final_thres_perc.to_json()),
            ("adjustments", self.adjustments.to_json()),
        ])
    }
}

/// Run the steady-state protocol with the adaptive controller enabled,
/// deciding every `interval` slots.
///
/// # Panics
///
/// Panics when the run's conservation ledger is dirty, as
/// [`run_steady_state`](crate::runner::run_steady_state) does.
pub fn run_adaptive(
    cfg: &SystemConfig,
    proto: &MeasurementProtocol,
    interval: u64,
) -> AdaptiveResult {
    let mut world = World::steady_state(cfg, proto);
    world.enable_adaptive(AdaptiveController::new(
        interval,
        cfg.effective_pull_bw(),
        cfg.thres_perc,
    ));
    let mut engine = world.into_engine();
    engine.run_while(|w| !w.done());
    let w = engine.model();
    w.conservation_ledger().assert_clean();
    let bm = w.responses();
    #[expect(
        clippy::expect_used,
        reason = "callers reach this only on worlds built with an adaptive controller"
    )]
    let ctrl = w.adaptive().expect("adaptive enabled");
    let converged = bm.converged(Confidence::P95, proto.rel_precision, proto.min_batches);
    AdaptiveResult {
        final_pull_bw: ctrl.pull_bw(),
        final_thres_perc: ctrl.thres_perc(),
        adjustments: ctrl.adjustments(),
        steady: crate::runner::collect_steady_state(w, engine.obs(), engine.now(), converged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;

    fn stats(received: u64, dropped: u64) -> QueueStats {
        QueueStats {
            received,
            dropped_full: dropped,
            ..Default::default()
        }
    }

    #[test]
    fn controller_backs_off_under_drops() {
        let mut c = AdaptiveController::new(10, 0.5, 0.0);
        let mut update = None;
        for slot in 1..=10 {
            update = c.on_slot(&stats(slot * 10, slot * 5)); // 50% drops
        }
        let (bw, thres) = update.expect("window closed with an adjustment");
        assert!(bw < 0.5, "bw {bw}");
        assert!(thres > 0.0, "thres {thres}");
    }

    #[test]
    fn controller_opens_up_when_idle() {
        let mut c = AdaptiveController::new(5, 0.3, 0.3);
        let mut update = None;
        for slot in 1..=5 {
            update = c.on_slot(&stats(slot * 10, 0));
        }
        let (bw, thres) = update.expect("adjusted");
        assert!(bw > 0.3);
        assert!(thres < 0.3);
    }

    #[test]
    fn controller_respects_bounds() {
        let mut c = AdaptiveController::new(1, 0.1, 0.5);
        // Saturated forever: knobs must stay clamped.
        for slot in 1..200u64 {
            c.on_slot(&stats(slot * 100, slot * 90));
            assert!(c.pull_bw() >= MIN_PULL_BW - 1e-12);
            assert!(c.thres_perc() <= MAX_THRES + 1e-12);
        }
        assert!((c.pull_bw() - MIN_PULL_BW).abs() < 1e-9);
        assert!((c.thres_perc() - MAX_THRES).abs() < 1e-9);
    }

    #[test]
    fn crash_reset_restores_initial_knobs_and_reanchors_the_window() {
        let mut c = AdaptiveController::new(1, 0.5, 0.1);
        // Drive the knobs away from their initial settings.
        for slot in 1..=5u64 {
            c.on_slot(&stats(slot * 100, slot * 90));
        }
        assert!(c.pull_bw() < 0.5);
        let made = c.adjustments();
        let (bw, thres) = c.crash_reset(&stats(500, 450));
        assert_eq!((bw, thres), (0.5, 0.1), "cold restart forgets learning");
        assert_eq!(c.adjustments(), made, "run history survives");
        // The first post-restart window sees only post-restart traffic:
        // no drops since the anchor -> the controller opens up, not down.
        let (bw, _) = c.on_slot(&stats(600, 450)).expect("adjusted");
        assert!(bw > 0.5, "pre-crash drops must not bias the decision");
    }

    #[test]
    fn moderate_drop_rate_holds_steady() {
        let mut c = AdaptiveController::new(1, 0.5, 0.2);
        // 5% drops: between low (1%) and high (10%) watermarks.
        for slot in 1..50u64 {
            assert_eq!(c.on_slot(&stats(slot * 100, slot * 5)), None);
        }
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn empty_window_makes_no_decision() {
        let mut c = AdaptiveController::new(2, 0.5, 0.0);
        assert_eq!(c.on_slot(&stats(0, 0)), None);
        assert_eq!(c.on_slot(&stats(0, 0)), None);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn adaptive_run_completes_and_reports_knobs() {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.think_time_ratio = 100.0;
        let r = run_adaptive(&cfg, &MeasurementProtocol::quick(), 200);
        assert!(r.steady.mean_response > 0.0);
        assert!(r.final_pull_bw >= MIN_PULL_BW && r.final_pull_bw <= MAX_PULL_BW);
    }
}
