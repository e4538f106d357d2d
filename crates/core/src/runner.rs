//! Run protocols and result types.

use crate::config::{MeasurementProtocol, SystemConfig};
use crate::fault::FaultReport;
use crate::simulation::{SlotAccounting, World};
use bpp_json::{Json, ToJson};
use bpp_obs::{EngineObs, ObsReport};
use bpp_sim::Confidence;

/// Result of a steady-state run (the metric of Figures 3, 5, 6, 7, 8).
#[derive(Debug, Clone)]
pub struct SteadyStateResult {
    /// Mean MC response time in broadcast units (cache hits count as 0,
    /// exactly as in the paper's "average response time of requests").
    pub mean_response: f64,
    /// 95% confidence half-width from batch means.
    pub ci_half_width: f64,
    /// MC accesses measured.
    pub measured_accesses: u64,
    /// True when the batch-means stopping rule fired (vs. hitting a cap).
    pub converged: bool,
    /// MC cache hit rate over the whole run.
    pub mc_hit_rate: f64,
    /// Server drop rate (full-queue discards / received) in the
    /// measurement window.
    pub drop_rate: f64,
    /// Server ignore rate (drops + coalesced duplicates, the paper's wider
    /// accounting) in the measurement window.
    pub ignore_rate: f64,
    /// Requests received by the server in the measurement window.
    pub requests_received: u64,
    /// Median measured response (`None` when it fell past the histogram).
    pub p50_response: Option<f64>,
    /// 90th percentile response.
    pub p90_response: Option<f64>,
    /// 99th percentile response.
    pub p99_response: Option<f64>,
    /// Worst measured response — under Pure-Push this is bounded by the
    /// major cycle (the "safety net"); under Pure-Pull it is not.
    pub max_response: f64,
    /// Slot accounting over the whole run.
    pub slots: SlotAccounting,
    /// Total simulated time in broadcast units.
    pub sim_time: f64,
    /// What the fault model did to this run; `None` when fault injection is
    /// disabled, keeping the serialized result identical to pre-fault
    /// output.
    pub fault: Option<FaultReport>,
    /// What the observability layer collected; `None` when it is disabled
    /// (the default), keeping the serialized result identical to pre-obs
    /// output.
    pub obs: Option<ObsReport>,
    /// What the arena client fleet experienced; `None` under the aggregate
    /// population (the default), keeping the serialized result identical
    /// to pre-fleet output.
    pub fleet: Option<FleetResult>,
    /// Structured failure record when this cell of a sweep crashed instead
    /// of running to completion (see [`crate::experiments::par_run`]);
    /// `None` for a run that finished normally.
    pub error: Option<RunError>,
}

/// What a crashed sweep cell leaves behind: the panic message plus enough
/// context (seed and full config snapshot) to re-run that exact cell in
/// isolation. Serialized under the result's `"error"` key; never parsed
/// back (failed cells are re-run from the embedded config, not
/// deserialized).
#[derive(Debug, Clone)]
pub struct RunError {
    /// The panic message.
    pub message: String,
    /// The seed the cell ran with (also inside `config`; hoisted so log
    /// scrapers need not parse the snapshot).
    pub seed: u64,
    /// Full configuration snapshot of the failed cell.
    pub config: SystemConfig,
}

impl ToJson for RunError {
    fn to_json(&self) -> Json {
        Json::object([
            ("message", self.message.to_json()),
            ("seed", self.seed.to_json()),
            ("config", self.config.to_json()),
        ])
    }
}

/// Per-fleet metrics of a steady-state run under a fleet population
/// (million-client extension). Flow time is access start → delivery of a
/// completed miss; pages are unit-size, so a request's stretch equals its
/// flow time and `max_stretch` is the fleet's worst flow.
#[derive(Debug, Clone, Copy)]
pub struct FleetResult {
    /// Clients in the arena.
    pub clients: u64,
    /// Accesses begun across the fleet.
    pub accesses: u64,
    /// Fleet-wide cache hit rate.
    pub hit_rate: f64,
    /// Misses handed to the backchannel.
    pub requests_sent: u64,
    /// Misses the threshold filter swallowed.
    pub requests_filtered: u64,
    /// Misses completed by a delivered page.
    pub completed: u64,
    /// Mean flow time of completed misses.
    pub mean_flow: f64,
    /// Median flow time (`None` when it fell past the histogram).
    pub p50_flow: Option<f64>,
    /// 90th percentile flow time.
    pub p90_flow: Option<f64>,
    /// 99th percentile flow time.
    pub p99_flow: Option<f64>,
    /// Worst flow time — equals the fleet's max stretch for unit pages.
    pub max_stretch: f64,
    /// Retry resends issued by fleet clients (fault model).
    pub retries: u64,
}

impl ToJson for FleetResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("clients", self.clients.to_json()),
            ("accesses", self.accesses.to_json()),
            ("hit_rate", self.hit_rate.to_json()),
            ("requests_sent", self.requests_sent.to_json()),
            ("requests_filtered", self.requests_filtered.to_json()),
            ("completed", self.completed.to_json()),
            ("mean_flow", self.mean_flow.to_json()),
            ("p50_flow", self.p50_flow.to_json()),
            ("p90_flow", self.p90_flow.to_json()),
            ("p99_flow", self.p99_flow.to_json()),
            ("max_stretch", self.max_stretch.to_json()),
            ("retries", self.retries.to_json()),
        ])
    }
}

impl SteadyStateResult {
    /// Whether the run's slot split adds up. Every broadcast unit carries
    /// one slot per channel (K channels are K-fold bandwidth), and a unit
    /// the server spends down silences every channel but counts one
    /// `down_slots`, so push + pull + empty + idle + K · `down_slots`
    /// equals K · `sim_time`, within K for the unit in flight when the run
    /// stopped.
    pub fn slot_split_holds(&self, num_channels: usize) -> bool {
        let k = num_channels as u64;
        let down_slots = self
            .fault
            .as_ref()
            .and_then(|f| f.crash.as_ref())
            .map_or(0, |c| c.down_slots);
        let total = self.slots.total() + k * down_slots;
        (total as f64 - k as f64 * self.sim_time).abs() <= k as f64
    }

    /// A placeholder result for a sweep cell that panicked: every metric is
    /// poisoned (NaN / zero) and `error` carries the panic message together
    /// with the failed cell's seed and config snapshot.
    pub fn failed(msg: String, cfg: &SystemConfig) -> Self {
        SteadyStateResult {
            mean_response: f64::NAN,
            ci_half_width: f64::NAN,
            measured_accesses: 0,
            converged: false,
            mc_hit_rate: f64::NAN,
            drop_rate: f64::NAN,
            ignore_rate: f64::NAN,
            requests_received: 0,
            p50_response: None,
            p90_response: None,
            p99_response: None,
            max_response: f64::NAN,
            slots: SlotAccounting::default(),
            sim_time: 0.0,
            fault: None,
            obs: None,
            fleet: None,
            error: Some(RunError {
                message: msg,
                seed: cfg.seed,
                config: cfg.clone(),
            }),
        }
    }
}

impl ToJson for SteadyStateResult {
    fn to_json(&self) -> Json {
        let mut obj = Json::object([
            ("mean_response", self.mean_response.to_json()),
            ("ci_half_width", self.ci_half_width.to_json()),
            ("measured_accesses", self.measured_accesses.to_json()),
            ("converged", self.converged.to_json()),
            ("mc_hit_rate", self.mc_hit_rate.to_json()),
            ("drop_rate", self.drop_rate.to_json()),
            ("ignore_rate", self.ignore_rate.to_json()),
            ("requests_received", self.requests_received.to_json()),
            ("p50_response", self.p50_response.to_json()),
            ("p90_response", self.p90_response.to_json()),
            ("p99_response", self.p99_response.to_json()),
            ("max_response", self.max_response.to_json()),
            ("slots", self.slots.to_json()),
            ("sim_time", self.sim_time.to_json()),
        ]);
        // "fault" and "error" appear only when present so fault-free runs
        // serialize exactly as they did before the fault subsystem existed.
        if let Json::Obj(members) = &mut obj {
            if let Some(fault) = &self.fault {
                members.push(("fault".to_string(), fault.to_json()));
            }
            if let Some(obs) = &self.obs {
                members.push(("obs".to_string(), obs.to_json()));
            }
            if let Some(fleet) = &self.fleet {
                members.push(("fleet".to_string(), fleet.to_json()));
            }
            if let Some(error) = &self.error {
                members.push(("error".to_string(), error.to_json()));
            }
        }
        obj
    }
}

/// Result of a warm-up (Figure 4) run.
#[derive(Debug, Clone)]
pub struct WarmupResult {
    /// Milestone fractions (10%, ..., 95% of the ideal cache content).
    pub fractions: Vec<f64>,
    /// First time each fraction was reached, in broadcast units.
    /// `None` = not reached before the simulation-time cap.
    pub times: Vec<Option<f64>>,
    /// Total simulated time.
    pub sim_time: f64,
}

impl ToJson for WarmupResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("fractions", self.fractions.to_json()),
            ("times", self.times.to_json()),
            ("sim_time", self.sim_time.to_json()),
        ])
    }
}

/// Assemble a [`SteadyStateResult`] from a finished world. `converged` is
/// computed by the caller because the plain and adaptive protocols use
/// different stopping-rule interpretations.
pub(crate) fn collect_steady_state(
    w: &World,
    engine_obs: Option<&EngineObs>,
    sim_time: f64,
    converged: bool,
) -> SteadyStateResult {
    let q = w.measured_queue_stats();
    let bm = w.responses();
    SteadyStateResult {
        mean_response: bm.mean(),
        ci_half_width: if bm.completed_batches() >= 2 {
            bm.half_width(Confidence::P95)
        } else {
            f64::INFINITY
        },
        measured_accesses: bm.count(),
        converged,
        mc_hit_rate: w.mc().cache().stats().hit_rate(),
        drop_rate: q.drop_rate(),
        ignore_rate: q.ignore_rate(),
        requests_received: q.received,
        p50_response: w.response_dist().quantile(0.5),
        p90_response: w.response_dist().quantile(0.9),
        p99_response: w.response_dist().quantile(0.99),
        max_response: if w.response_spread().count() > 0 {
            w.response_spread().max()
        } else {
            0.0
        },
        slots: *w.slots(),
        sim_time,
        fault: w.fault_report(),
        obs: w.obs_report(engine_obs, sim_time),
        fleet: w.fleet().map(|fleet| {
            let fs = fleet.stats();
            FleetResult {
                clients: fleet.len() as u64,
                accesses: fs.accesses,
                hit_rate: fs.hit_rate(),
                requests_sent: fs.requests_sent,
                requests_filtered: fs.requests_filtered,
                completed: fs.completed,
                mean_flow: fleet.flow().mean(),
                p50_flow: fleet.flow_dist().quantile(0.5),
                p90_flow: fleet.flow_dist().quantile(0.9),
                p99_flow: fleet.flow_dist().quantile(0.99),
                max_stretch: if fleet.flow().count() > 0 {
                    fleet.flow().max()
                } else {
                    0.0
                },
                retries: fs.retries,
            }
        }),
        error: None,
    }
}

/// Run the steady-state protocol: fill the MC cache, skip the configured
/// number of accesses, measure until the response-time estimate stabilises
/// (or a cap is hit).
///
/// # Panics
///
/// Panics when the run's [`ConservationLedger`](crate::fault::ConservationLedger)
/// is dirty or its slot split does not add up
/// ([`SteadyStateResult::slot_split_holds`]): a lost request, a queue over
/// its bound, time running backwards or a slot counted twice is a
/// simulator bug. [`par_run`](crate::experiments::par_run) turns the panic
/// into the cell's `error`.
pub fn run_steady_state(cfg: &SystemConfig, protocol: &MeasurementProtocol) -> SteadyStateResult {
    let mut engine = World::steady_state(cfg, protocol).into_engine();
    engine.run_while(|w| !w.done());
    let w = engine.model();
    w.conservation_ledger().assert_clean();
    let r = collect_steady_state(w, engine.obs(), engine.now(), w.converged());
    assert!(
        r.slot_split_holds(cfg.num_channels),
        "slot split {:?} does not add up to {} channel(s) x {} time units",
        r.slots,
        cfg.num_channels,
        r.sim_time
    );
    r
}

/// Run the warm-up protocol of Figure 4: a cold MC joins the broadcast and
/// we time how fast its cache acquires the `CacheSize` highest-valued pages.
///
/// # Panics
///
/// Panics when the run's conservation ledger is dirty, as
/// [`run_steady_state`] does.
pub fn run_warmup(cfg: &SystemConfig, protocol: &MeasurementProtocol) -> WarmupResult {
    let mut engine = World::warmup_experiment(cfg, protocol).into_engine();
    engine.run_while(|w| !w.done());
    let w = engine.model();
    w.conservation_ledger().assert_clean();
    #[expect(
        clippy::expect_used,
        reason = "run_warmup builds the world in warmup mode, which always attaches a tracker"
    )]
    let tracker = w.mc().warmup().expect("warmup world has a tracker");
    WarmupResult {
        fractions: tracker.fractions().to_vec(),
        times: tracker.milestones().to_vec(),
        sim_time: engine.now(),
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::config::Algorithm;

    #[test]
    fn steady_state_result_is_populated() {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
        assert!(r.mean_response > 0.0);
        assert!(r.measured_accesses > 0);
        assert!(r.mc_hit_rate > 0.0);
        assert!(r.sim_time > 0.0);
        assert!(r.slots.push_pages > 0);
    }

    #[test]
    fn warmup_result_has_all_milestones() {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::PurePush;
        let r = run_warmup(&cfg, &MeasurementProtocol::quick());
        assert_eq!(r.fractions.len(), 10);
        assert_eq!(r.times.len(), 10);
        assert!(r.times.iter().all(Option::is_some));
    }

    #[test]
    fn obs_section_appears_only_when_enabled_and_never_shifts_results() {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        let off = run_steady_state(&cfg, &MeasurementProtocol::quick());
        assert!(off.obs.is_none());
        assert!(!bpp_json::to_string(&off).contains("\"obs\""));
        cfg.obs.enabled = true;
        let on = run_steady_state(&cfg, &MeasurementProtocol::quick());
        let report = on.obs.as_ref().expect("obs enabled");
        assert!(report.metrics.counter("engine.dispatch.slot") > 0);
        assert!(bpp_json::to_string(&on).contains("\"obs\""));
        // The measured system is untouched by the instrumentation.
        assert_eq!(off.mean_response, on.mean_response);
        assert_eq!(off.sim_time, on.sim_time);
        assert_eq!(off.requests_received, on.requests_received);
    }

    #[test]
    fn pure_push_response_is_independent_of_load() {
        // The paper's flat line: Pure-Push performance does not depend on
        // ThinkTimeRatio.
        let mut a = SystemConfig::small();
        a.algorithm = Algorithm::PurePush;
        a.think_time_ratio = 10.0;
        let mut b = a.clone();
        b.think_time_ratio = 250.0;
        let proto = MeasurementProtocol::quick();
        let ra = run_steady_state(&a, &proto);
        let rb = run_steady_state(&b, &proto);
        assert_eq!(ra.mean_response, rb.mean_response);
    }
}
