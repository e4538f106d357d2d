//! Pull-queue saturation detection and graceful degradation to push-only.
//!
//! Under heavy load the IPP backchannel queue saturates: pull slots cannot
//! drain requests as fast as they arrive, drops climb, and every pull slot
//! stolen from the periodic broadcast makes the *push* side slower for
//! everyone. The paper handles this statically (small `PullBW`, threshold
//! filter); a production server must react *online*. This module implements
//! the reactive half: watch smoothed queue occupancy, and while it sits
//! above a high-water mark, shed pull bandwidth (degrade IPP toward
//! pure push) until occupancy falls below a low-water mark.
//!
//! Two design points keep the control loop stable and deterministic:
//!
//! * **EWMA smoothing** ([`bpp_sim::Ewma`]) — a momentary burst that fills
//!   the queue for a few slots should not flap the multiplexer; only
//!   sustained pressure triggers degradation.
//! * **Hysteresis** — the recovery threshold (`off_occupancy`) sits well
//!   below the trigger (`on_occupancy`), so the server does not oscillate
//!   when occupancy hovers near the trigger point.
//!
//! The detector draws no randomness at all: given the same queue-length
//! trace it makes the same decisions, preserving bitwise reproducibility.

use bpp_json::{Json, ToJson};
use bpp_sim::Ewma;

/// When and how hard to shed pull bandwidth under queue pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationPolicy {
    /// Smoothed occupancy (queue length / capacity) at or above which the
    /// server declares saturation. `0` disables the detector entirely.
    pub on_occupancy: f64,
    /// Smoothed occupancy at or below which a saturated server recovers.
    /// Must be strictly below `on_occupancy` (hysteresis band).
    pub off_occupancy: f64,
    /// Multiplier applied to the configured `PullBW` while saturated:
    /// `0` degrades all the way to pure push, `0.25` keeps a quarter of the
    /// pull bandwidth, etc.
    pub shed_to: f64,
    /// EWMA smoothing factor in `(0, 1]` for the occupancy signal (smaller
    /// = steadier, slower to react).
    pub smoothing: f64,
}

impl Default for SaturationPolicy {
    fn default() -> Self {
        SaturationPolicy::disabled()
    }
}

impl SaturationPolicy {
    /// The disabled policy: the detector is never constructed and the
    /// multiplexer keeps its configured `PullBW` forever.
    pub fn disabled() -> Self {
        SaturationPolicy {
            on_occupancy: 0.0,
            off_occupancy: 0.0,
            shed_to: 1.0,
            smoothing: 0.1,
        }
    }

    /// A reasonable default: degrade to pure push when smoothed occupancy
    /// crosses 90%, recover below 50%, smoothing factor 0.05.
    pub fn standard() -> Self {
        SaturationPolicy {
            on_occupancy: 0.9,
            off_occupancy: 0.5,
            shed_to: 0.0,
            smoothing: 0.05,
        }
    }

    /// Whether the detector should run at all.
    pub fn enabled(&self) -> bool {
        self.on_occupancy > 0.0
    }

    /// Check the parameters, returning a human-readable description of the
    /// first problem found. A disabled policy is always valid.
    pub fn validate(&self) -> Result<(), String> {
        let SaturationPolicy {
            on_occupancy,
            off_occupancy,
            shed_to,
            smoothing,
        } = *self;
        if !self.enabled() {
            return Ok(());
        }
        if !on_occupancy.is_finite() || on_occupancy > 1.0 {
            return Err(format!(
                "saturation on_occupancy must be in (0,1], got {on_occupancy}"
            ));
        }
        if !off_occupancy.is_finite() || off_occupancy < 0.0 || off_occupancy >= on_occupancy {
            return Err(format!(
                "saturation off_occupancy must be in [0, on_occupancy), got {off_occupancy} (on = {on_occupancy})"
            ));
        }
        if !shed_to.is_finite() || !(0.0..=1.0).contains(&shed_to) {
            return Err(format!(
                "saturation shed_to must be in [0,1], got {shed_to}"
            ));
        }
        if !smoothing.is_finite() || smoothing <= 0.0 || smoothing > 1.0 {
            return Err(format!(
                "saturation smoothing must be in (0,1], got {smoothing}"
            ));
        }
        Ok(())
    }
}

impl ToJson for SaturationPolicy {
    fn to_json(&self) -> Json {
        let SaturationPolicy {
            on_occupancy,
            off_occupancy,
            shed_to,
            smoothing,
        } = self;
        Json::object([
            ("on_occupancy", on_occupancy.to_json()),
            ("off_occupancy", off_occupancy.to_json()),
            ("shed_to", shed_to.to_json()),
            ("smoothing", smoothing.to_json()),
        ])
    }
}

/// Counters describing the degradation history of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Transitions from normal to saturated (pull bandwidth shed).
    pub degradations: u64,
    /// Transitions from saturated back to normal (bandwidth restored).
    pub recoveries: u64,
    /// Slots observed while in the saturated state.
    pub saturated_slots: u64,
}

/// The online occupancy monitor: feed it the queue length every slot,
/// multiply the configured `PullBW` by what it returns.
#[derive(Debug, Clone)]
pub struct SaturationDetector {
    policy: SaturationPolicy,
    occupancy: Ewma,
    saturated: bool,
    // bpp-lint: allow(D13): run-history counters — deliberately survive a crash
    stats: SaturationStats,
}

impl SaturationDetector {
    /// A detector in the normal (non-saturated) state.
    pub fn new(policy: SaturationPolicy) -> Self {
        SaturationDetector {
            occupancy: Ewma::new(policy.smoothing),
            policy,
            saturated: false,
            stats: SaturationStats::default(),
        }
    }

    /// Observe the queue state for one slot and return the pull-bandwidth
    /// multiplier to apply this slot (`1.0` normal, `shed_to` saturated).
    pub fn observe(&mut self, len: usize, capacity: usize) -> f64 {
        let occ = if capacity == 0 {
            0.0
        } else {
            len as f64 / capacity as f64
        };
        let smoothed = self.occupancy.record(occ);
        if !self.saturated && smoothed >= self.policy.on_occupancy {
            self.saturated = true;
            self.stats.degradations += 1;
        } else if self.saturated && smoothed <= self.policy.off_occupancy {
            self.saturated = false;
            self.stats.recoveries += 1;
        }
        if self.saturated {
            self.stats.saturated_slots += 1;
            self.policy.shed_to
        } else {
            1.0
        }
    }

    /// Server crash: the smoothed occupancy signal and the saturated flag
    /// are volatile state and do not survive a restart. The history
    /// counters do — they belong to the run's ledger, not server memory.
    pub fn crash_reset(&mut self) {
        self.occupancy = Ewma::new(self.policy.smoothing);
        self.saturated = false;
    }

    /// Whether the server is currently shedding pull bandwidth.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The smoothed occupancy signal (0 before any observation).
    pub fn occupancy(&self) -> f64 {
        self.occupancy.value()
    }

    /// Accumulated degradation counters.
    pub fn stats(&self) -> &SaturationStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> SaturationPolicy {
        SaturationPolicy {
            on_occupancy: 0.8,
            off_occupancy: 0.3,
            shed_to: 0.0,
            smoothing: 1.0, // unsmoothed: the raw occupancy drives transitions
        }
    }

    #[test]
    fn degrades_at_high_water_and_recovers_at_low_water() {
        let mut d = SaturationDetector::new(quick_policy());
        assert_eq!(d.observe(5, 10), 1.0); // 0.5 — below trigger
        assert_eq!(d.observe(9, 10), 0.0); // 0.9 — saturated
        assert!(d.is_saturated());
        // Hysteresis: 0.5 is below `on` but above `off`; stay saturated.
        assert_eq!(d.observe(5, 10), 0.0);
        assert_eq!(d.observe(2, 10), 1.0); // 0.2 — recovered
        assert!(!d.is_saturated());
        let s = d.stats();
        assert_eq!(s.degradations, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.saturated_slots, 2);
    }

    #[test]
    fn smoothing_absorbs_momentary_spikes() {
        let mut d = SaturationDetector::new(SaturationPolicy {
            smoothing: 0.1,
            ..quick_policy()
        });
        d.observe(0, 10);
        // One full-queue slot moves the EWMA only to ~0.1 — no flap.
        assert_eq!(d.observe(10, 10), 1.0);
        assert!(!d.is_saturated());
        // Sustained pressure eventually trips it.
        for _ in 0..200 {
            d.observe(10, 10);
        }
        assert!(d.is_saturated());
        assert_eq!(d.stats().degradations, 1);
    }

    #[test]
    fn partial_shedding_returns_multiplier() {
        let mut d = SaturationDetector::new(SaturationPolicy {
            shed_to: 0.25,
            ..quick_policy()
        });
        assert_eq!(d.observe(10, 10), 0.25);
    }

    #[test]
    fn zero_capacity_queue_never_saturates() {
        let mut d = SaturationDetector::new(quick_policy());
        for _ in 0..100 {
            assert_eq!(d.observe(0, 0), 1.0);
        }
        assert_eq!(d.stats().degradations, 0);
    }

    #[test]
    fn crash_reset_clears_signal_but_keeps_history() {
        let mut d = SaturationDetector::new(quick_policy());
        d.observe(9, 10);
        assert!(d.is_saturated());
        d.crash_reset();
        assert!(!d.is_saturated());
        assert_eq!(d.occupancy(), 0.0, "EWMA is volatile state");
        assert_eq!(d.stats().degradations, 1, "ledger survives the crash");
        // A cold detector re-degrades only under fresh pressure.
        assert_eq!(d.observe(2, 10), 1.0);
    }

    #[test]
    fn validate_enforces_hysteresis_band() {
        assert!(SaturationPolicy::standard().validate().is_ok());
        assert!(SaturationPolicy::disabled().validate().is_ok());
        let inverted = SaturationPolicy {
            on_occupancy: 0.5,
            off_occupancy: 0.6,
            ..SaturationPolicy::standard()
        };
        assert!(inverted.validate().unwrap_err().contains("off_occupancy"));
        let bad_shed = SaturationPolicy {
            shed_to: -0.1,
            ..SaturationPolicy::standard()
        };
        assert!(bad_shed.validate().unwrap_err().contains("shed_to"));
        let bad_smoothing = SaturationPolicy {
            smoothing: 0.0,
            ..SaturationPolicy::standard()
        };
        assert!(bad_smoothing.validate().unwrap_err().contains("smoothing"));
    }

    #[test]
    fn json_round_trip() {
        assert_eq!(
            bpp_json::to_string(&SaturationPolicy::standard()),
            r#"{"on_occupancy":0.9,"off_occupancy":0.5,"shed_to":0.0,"smoothing":0.05}"#
        );
    }
}
