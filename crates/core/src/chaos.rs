//! Deterministic chaos harness: a phased fault timeline over one run,
//! followed by a hard conservation audit.
//!
//! A [`FaultSchedule`] is a JSON-configurable sequence of [`FaultPhase`]s;
//! each phase holds the channel loss rates and brownout window for its
//! duration and may crash the server at a fixed offset into the phase.
//! [`run_chaos`] compiles the crash offsets into an explicit
//! [`CrashConfig`] schedule, drives the engine phase by phase, and
//! finishes by asserting the run's [`ConservationLedger`] — every
//! backchannel request sent must be accounted for by exactly one outcome.
//!
//! Phase transitions touch no RNG stream: loss coins keep drawing from
//! wherever they were, brownouts are a clock check, and crash times are
//! data. Two chaos runs with the same config, protocol and schedule are
//! therefore byte-identical.
//!
//! [`CrashConfig`]: crate::config::CrashConfig

use crate::config::{MeasurementProtocol, SystemConfig};
use crate::fault::ConservationLedger;
use crate::runner::{collect_steady_state, SteadyStateResult};
use crate::simulation::World;
use bpp_json::{Json, ToJson};

/// One segment of a chaos timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPhase {
    /// Phase length in broadcast units (finite, positive).
    pub duration: f64,
    /// Frontchannel loss rate during this phase (`[0,1]`).
    pub broadcast_loss: f64,
    /// Backchannel transit loss rate during this phase (`[0,1]`).
    pub request_loss: f64,
    /// Brownout cycle length during this phase; `0` disables brownouts.
    pub brownout_period: f64,
    /// Leading portion of each brownout cycle during which the server
    /// drops every arriving request.
    pub brownout_duration: f64,
    /// Crash the server this far into the phase (`None` = no crash here).
    pub crash_offset: Option<f64>,
}

impl FaultPhase {
    /// A calm segment: perfect channels, no brownouts, no crash.
    pub fn calm(duration: f64) -> Self {
        FaultPhase {
            duration,
            broadcast_loss: 0.0,
            request_loss: 0.0,
            brownout_period: 0.0,
            brownout_duration: 0.0,
            crash_offset: None,
        }
    }

    fn validate(&self, i: usize) -> Result<(), String> {
        let FaultPhase {
            duration,
            broadcast_loss,
            request_loss,
            brownout_period,
            brownout_duration,
            crash_offset,
        } = *self;
        if !(duration.is_finite() && duration > 0.0) {
            return Err(format!(
                "phase {i}: duration must be finite and positive, got {duration}"
            ));
        }
        for (name, rate) in [
            ("broadcast_loss", broadcast_loss),
            ("request_loss", request_loss),
        ] {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(format!("phase {i}: {name} must be in [0,1], got {rate}"));
            }
        }
        if !(brownout_period.is_finite() && brownout_period >= 0.0) {
            return Err(format!(
                "phase {i}: brownout_period must be finite and non-negative, got {brownout_period}"
            ));
        }
        if !(brownout_duration.is_finite() && (0.0..=brownout_period).contains(&brownout_duration))
        {
            return Err(format!(
                "phase {i}: brownout_duration must be in [0, brownout_period], got {brownout_duration}"
            ));
        }
        if let Some(off) = crash_offset {
            if !(off.is_finite() && 0.0 <= off && off < duration) {
                return Err(format!(
                    "phase {i}: crash_offset must be in [0, duration), got {off}"
                ));
            }
        }
        Ok(())
    }
}

impl ToJson for FaultPhase {
    fn to_json(&self) -> Json {
        let FaultPhase {
            duration,
            broadcast_loss,
            request_loss,
            brownout_period,
            brownout_duration,
            crash_offset,
        } = *self;
        let mut members = vec![
            ("duration", duration.to_json()),
            ("broadcast_loss", broadcast_loss.to_json()),
            ("request_loss", request_loss.to_json()),
            ("brownout_period", brownout_period.to_json()),
            ("brownout_duration", brownout_duration.to_json()),
        ];
        if let Some(off) = crash_offset {
            members.push(("crash_offset", off.to_json()));
        }
        Json::object(members)
    }
}

/// A chaos timeline: consecutive [`FaultPhase`]s starting at time 0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// The segments, in timeline order.
    pub phases: Vec<FaultPhase>,
}

impl FaultSchedule {
    /// Check the timeline for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let FaultSchedule { phases } = self;
        if phases.is_empty() {
            return Err("schedule must have at least one phase".to_string());
        }
        for (i, p) in phases.iter().enumerate() {
            p.validate(i)?;
        }
        Ok(())
    }

    /// Total timeline length in broadcast units.
    pub fn total_duration(&self) -> f64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Absolute crash times compiled from the per-phase offsets.
    pub fn crash_times(&self) -> Vec<f64> {
        let mut start = 0.0;
        let mut times = Vec::new();
        for p in &self.phases {
            if let Some(off) = p.crash_offset {
                times.push(start + off);
            }
            start += p.duration;
        }
        times
    }

    /// The worst loss rates anywhere on the timeline — the run is *built*
    /// with these so the channel-fault layer (and its RNG streams) exists
    /// whenever any phase needs it; per-phase transitions then re-point
    /// the live rates.
    fn max_loss(&self) -> (f64, f64) {
        let b = self
            .phases
            .iter()
            .fold(0.0, |m: f64, p| m.max(p.broadcast_loss));
        let r = self
            .phases
            .iter()
            .fold(0.0, |m: f64, p| m.max(p.request_loss));
        (b, r)
    }
}

impl ToJson for FaultSchedule {
    fn to_json(&self) -> Json {
        let FaultSchedule { phases } = self;
        Json::object([("phases", phases.to_json())])
    }
}

/// What a chaos run produces: the ordinary steady-state result (with its
/// `fault`/`crash` sections) plus the conservation ledger the auditor
/// already verified.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The run's metrics, exactly as a plain steady-state run reports them.
    pub result: SteadyStateResult,
    /// The audited request-conservation ledger (clean by construction:
    /// [`run_chaos`] panics before returning a dirty one).
    pub ledger: ConservationLedger,
}

impl ToJson for ChaosResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("result", self.result.to_json()),
            ("ledger", self.ledger.to_json()),
        ])
    }
}

/// Run one chaos timeline and audit it.
///
/// `cfg.fault.crash` supplies the crash *dynamics* (downtime, reconnect
/// jitter, recovery epsilon); the schedule supplies the crash *times*,
/// compiled into `crash.schedule`, replacing the config's own schedule
/// when any phase has a crash offset. With offset-free phases the
/// config's schedule stands and the timeline only modulates the channels.
///
/// Panics on an invalid schedule/config, and — the auditor — on any
/// conservation violation at the end of the run.
#[expect(
    clippy::panic,
    reason = "the documented panicking contract, matching assert_valid"
)]
pub fn run_chaos(
    cfg: &SystemConfig,
    proto: &MeasurementProtocol,
    schedule: &FaultSchedule,
) -> ChaosResult {
    if let Err(e) = schedule.validate() {
        panic!("invalid FaultSchedule: {e}");
    }
    let mut cfg = cfg.clone();
    let crash_times = schedule.crash_times();
    if !crash_times.is_empty() {
        cfg.fault.crash.schedule = crash_times;
    }
    let (max_b, max_r) = schedule.max_loss();
    let has_brownouts = schedule
        .phases
        .iter()
        .any(|p| p.brownout_period > 0.0 && p.brownout_duration > 0.0);
    cfg.fault.broadcast_loss = cfg.fault.broadcast_loss.max(max_b);
    cfg.fault.request_loss = cfg.fault.request_loss.max(max_r);
    if has_brownouts && !cfg.fault.has_brownouts() {
        // Placeholder so the channel-fault layer (and, in K-channel mode,
        // the per-channel brownout-state timelines) is constructed; a zero
        // duration would fail `has_brownouts()` and skip the layer
        // entirely. The values never bite: the first phase transition
        // below re-points the live window before any event runs.
        cfg.fault.brownout_period = schedule.total_duration();
        cfg.fault.brownout_duration = schedule.total_duration();
    }
    cfg.assert_valid();

    let mut engine = World::steady_state(&cfg, proto).into_engine();
    let mut t = 0.0;
    for p in &schedule.phases {
        {
            let w = engine.model_mut();
            w.set_channel_loss(p.broadcast_loss, p.request_loss);
            w.set_brownout(p.brownout_period, p.brownout_duration);
        }
        t += p.duration;
        engine.run_until(t);
    }

    let w = engine.model();
    let result = collect_steady_state(w, engine.obs(), engine.now(), w.converged());
    let ledger = w.conservation_ledger();
    ledger.assert_clean();
    ChaosResult { result, ledger }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::config::Algorithm;

    fn base_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.fault.crash.downtime = 20.0;
        cfg.fault.crash.recovery_epsilon = 0.25;
        cfg
    }

    fn stormy_schedule() -> FaultSchedule {
        FaultSchedule {
            phases: vec![
                FaultPhase::calm(300.0),
                FaultPhase {
                    duration: 400.0,
                    broadcast_loss: 0.1,
                    request_loss: 0.1,
                    crash_offset: Some(50.0),
                    ..FaultPhase::calm(400.0)
                },
                FaultPhase {
                    duration: 300.0,
                    brownout_period: 100.0,
                    brownout_duration: 20.0,
                    ..FaultPhase::calm(300.0)
                },
            ],
        }
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let text = bpp_json::to_string(&stormy_schedule());
        assert_eq!(
            text,
            concat!(
                r#"{"phases":["#,
                r#"{"duration":300.0,"broadcast_loss":0.0,"request_loss":0.0,"brownout_period":0.0,"brownout_duration":0.0},"#,
                r#"{"duration":400.0,"broadcast_loss":0.1,"request_loss":0.1,"brownout_period":0.0,"brownout_duration":0.0,"crash_offset":50.0},"#,
                r#"{"duration":300.0,"broadcast_loss":0.0,"request_loss":0.0,"brownout_period":100.0,"brownout_duration":20.0}"#,
                "]}"
            )
        );
        // Offset-free phases serialize no crash_offset key at all.
        let calm = bpp_json::to_string(&FaultPhase::calm(10.0));
        assert!(!calm.contains("crash_offset"));
    }

    #[test]
    fn schedule_validation_rejects_malformed_timelines() {
        let empty = FaultSchedule { phases: vec![] };
        assert!(empty.validate().is_err());
        let mut bad = stormy_schedule();
        bad.phases[1].crash_offset = Some(400.0); // == duration
        assert!(bad.validate().unwrap_err().contains("crash_offset"));
        let mut bad = stormy_schedule();
        bad.phases[0].broadcast_loss = 1.5;
        assert!(bad.validate().unwrap_err().contains("broadcast_loss"));
        let mut bad = stormy_schedule();
        bad.phases[2].brownout_duration = 200.0; // > period
        assert!(bad.validate().unwrap_err().contains("brownout_duration"));
    }

    #[test]
    fn crash_times_are_compiled_to_absolute_offsets() {
        let s = stormy_schedule();
        assert_eq!(s.crash_times(), vec![350.0]);
        assert_eq!(s.total_duration(), 1000.0);
    }

    #[test]
    fn chaos_run_is_deterministic_and_audited() {
        let cfg = base_cfg();
        let proto = MeasurementProtocol::quick();
        let schedule = stormy_schedule();
        let a = run_chaos(&cfg, &proto, &schedule);
        let b = run_chaos(&cfg, &proto, &schedule);
        assert_eq!(bpp_json::to_string(&a), bpp_json::to_string(&b));
        // The crash happened exactly where the timeline put it.
        let crash = a
            .result
            .fault
            .as_ref()
            .and_then(|f| f.crash.as_ref())
            .expect("crash section present");
        assert_eq!(crash.crashes, 1);
        assert_eq!(crash.first_crash_at, Some(350.0));
        assert!(crash.down_slots > 0);
        // The auditor balanced every request (it would have panicked
        // otherwise); spot-check the ledger is non-trivial.
        assert!(a.ledger.sent > 0);
        assert_eq!(a.ledger.accounted(), a.ledger.sent);
    }

    #[test]
    fn fleet_with_admission_and_crash_keeps_the_ledger_balanced() {
        // The hardest conservation case: every per-client request path
        // (real fleet, not the VC aggregate) crosses the token bucket,
        // and the mid-run crash both orphans queued requests and sends a
        // reconnect herd into a deliberately tight bucket.
        let mut cfg = base_cfg();
        cfg.population = crate::config::ClientPopulation::fleet(24);
        cfg.fault.admission = bpp_server::AdmissionConfig {
            rate: 0.25,
            burst: 2.0,
            retry_after: 16.0,
        };
        let r = run_chaos(&cfg, &MeasurementProtocol::quick(), &stormy_schedule());
        // `run_chaos` already asserted the ledger clean; re-state the
        // balance and check the interesting buckets actually moved.
        assert_eq!(r.ledger.accounted(), r.ledger.sent);
        assert!(r.ledger.sent > 0);
        assert!(
            r.ledger.orphaned > 0,
            "the scheduled crash must orphan in-flight work: {:?}",
            r.ledger
        );
        assert!(
            r.ledger.admission_rejected > 0,
            "the reconnect herd must hit the tight bucket: {:?}",
            r.ledger
        );
    }

    #[test]
    fn phase_losses_apply_only_inside_their_phase() {
        let mut cfg = base_cfg();
        cfg.fault.crash = crate::config::CrashConfig::none();
        let proto = MeasurementProtocol::quick();
        // 100% request loss in the middle phase only: the run still makes
        // progress (calm phases are lossless) and the ledger attributes
        // the losses to transit.
        let schedule = FaultSchedule {
            phases: vec![
                FaultPhase::calm(200.0),
                FaultPhase {
                    duration: 200.0,
                    request_loss: 1.0,
                    ..FaultPhase::calm(200.0)
                },
                FaultPhase::calm(200.0),
            ],
        };
        let r = run_chaos(&cfg, &proto, &schedule);
        assert!(r.ledger.lost_in_transit > 0);
        assert!(r.ledger.served > 0);
    }
}
