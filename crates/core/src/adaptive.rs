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

/// Tuning of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Slots between adjustment decisions.
    pub interval: u64,
    /// Lower bound for `PullBW`.
    pub min_pull_bw: f64,
    /// Upper bound for `PullBW`.
    pub max_pull_bw: f64,
    /// `PullBW` change per adjustment.
    pub bw_step: f64,
    /// Lower bound for the client threshold (fraction of major cycle).
    pub min_thres: f64,
    /// Upper bound for the client threshold.
    pub max_thres: f64,
    /// Threshold change per adjustment.
    pub thres_step: f64,
    /// Window drop rate above which the system is considered saturated.
    pub high_drop: f64,
    /// Window drop rate below which the system is considered underloaded.
    pub low_drop: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            interval: 2_000,
            min_pull_bw: 0.1,
            max_pull_bw: 0.9,
            bw_step: 0.1,
            min_thres: 0.0,
            max_thres: 0.5,
            thres_step: 0.1,
            high_drop: 0.10,
            low_drop: 0.01,
        }
    }
}

impl ToJson for AdaptiveConfig {
    fn to_json(&self) -> Json {
        let AdaptiveConfig {
            interval,
            min_pull_bw,
            max_pull_bw,
            bw_step,
            min_thres,
            max_thres,
            thres_step,
            high_drop,
            low_drop,
        } = self;
        Json::object([
            ("interval", interval.to_json()),
            ("min_pull_bw", min_pull_bw.to_json()),
            ("max_pull_bw", max_pull_bw.to_json()),
            ("bw_step", bw_step.to_json()),
            ("min_thres", min_thres.to_json()),
            ("max_thres", max_thres.to_json()),
            ("thres_step", thres_step.to_json()),
            ("high_drop", high_drop.to_json()),
            ("low_drop", low_drop.to_json()),
        ])
    }
}

/// Watches queue statistics and proposes (PullBW, ThresPerc) updates.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    slots_since_adjust: u64,
    window_start: QueueStats,
    pull_bw: f64,
    thres: f64,
    initial_pull_bw: f64,
    initial_thres: f64,
    // bpp-lint: allow(D13): run-history count — deliberately survives a crash
    adjustments: u64,
}

impl AdaptiveController {
    /// Start from the current knob settings.
    pub fn new(cfg: AdaptiveConfig, initial_pull_bw: f64, initial_thres: f64) -> Self {
        assert!(cfg.min_pull_bw <= cfg.max_pull_bw && cfg.min_thres <= cfg.max_thres);
        assert!(cfg.low_drop <= cfg.high_drop);
        let pull_bw = initial_pull_bw.clamp(cfg.min_pull_bw, cfg.max_pull_bw);
        let thres = initial_thres.clamp(cfg.min_thres, cfg.max_thres);
        AdaptiveController {
            cfg,
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
        self.slots_since_adjust = 0;
        self.window_start = *cumulative;
        self.pull_bw = self.initial_pull_bw;
        self.thres = self.initial_thres;
        (self.pull_bw, self.thres)
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
        if self.slots_since_adjust < self.cfg.interval {
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
        if drop_rate > self.cfg.high_drop {
            // Saturated: hand bandwidth back to the push safety net and
            // make clients conserve the backchannel.
            self.pull_bw = (self.pull_bw - self.cfg.bw_step).max(self.cfg.min_pull_bw);
            self.thres = (self.thres + self.cfg.thres_step).min(self.cfg.max_thres);
        } else if drop_rate < self.cfg.low_drop {
            // Underloaded: spend bandwidth on responsive on-demand service.
            self.pull_bw = (self.pull_bw + self.cfg.bw_step).min(self.cfg.max_pull_bw);
            self.thres = (self.thres - self.cfg.thres_step).max(self.cfg.min_thres);
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

/// Run the steady-state protocol with the adaptive controller enabled.
///
/// # Panics
///
/// Panics when the run's conservation ledger is dirty, as
/// [`run_steady_state`](crate::runner::run_steady_state) does.
pub fn run_adaptive(
    cfg: &SystemConfig,
    proto: &MeasurementProtocol,
    actrl: AdaptiveConfig,
) -> AdaptiveResult {
    let mut world = World::steady_state(cfg, proto);
    world.enable_adaptive(AdaptiveController::new(
        actrl,
        cfg.effective_pull_bw(),
        cfg.thres_perc,
    ));
    let mut engine = world.into_engine();
    engine.run_while(|w| !w.done());
    let w = engine.model();
    w.conservation_ledger().assert_clean();
    let bm = w.responses();
    // bpp-lint: allow(D3): callers reach this only on worlds built with an adaptive controller
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
        let cfg = AdaptiveConfig {
            interval: 10,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.5, 0.0);
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
        let cfg = AdaptiveConfig {
            interval: 5,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.3, 0.3);
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
        let cfg = AdaptiveConfig {
            interval: 1,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.1, 0.5);
        // Saturated forever: knobs must stay clamped.
        for slot in 1..200u64 {
            c.on_slot(&stats(slot * 100, slot * 90));
            assert!(c.pull_bw() >= cfg.min_pull_bw - 1e-12);
            assert!(c.thres_perc() <= cfg.max_thres + 1e-12);
        }
        assert!((c.pull_bw() - cfg.min_pull_bw).abs() < 1e-9);
        assert!((c.thres_perc() - cfg.max_thres).abs() < 1e-9);
    }

    #[test]
    fn crash_reset_restores_initial_knobs_and_reanchors_the_window() {
        let cfg = AdaptiveConfig {
            interval: 1,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.5, 0.1);
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
        let cfg = AdaptiveConfig {
            interval: 1,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.5, 0.2);
        // 5% drops: between low (1%) and high (10%) watermarks.
        for slot in 1..50u64 {
            assert_eq!(c.on_slot(&stats(slot * 100, slot * 5)), None);
        }
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn empty_window_makes_no_decision() {
        let cfg = AdaptiveConfig {
            interval: 2,
            ..Default::default()
        };
        let mut c = AdaptiveController::new(cfg, 0.5, 0.0);
        assert_eq!(c.on_slot(&stats(0, 0)), None);
        assert_eq!(c.on_slot(&stats(0, 0)), None);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn adaptive_run_completes_and_reports_knobs() {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.think_time_ratio = 100.0;
        let actrl = AdaptiveConfig {
            interval: 200,
            ..Default::default()
        };
        let r = run_adaptive(&cfg, &MeasurementProtocol::quick(), actrl);
        assert!(r.steady.mean_response > 0.0);
        assert!(r.final_pull_bw >= actrl.min_pull_bw && r.final_pull_bw <= actrl.max_pull_bw);
    }
}
