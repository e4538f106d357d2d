//! The benchmark's four workloads: their configurations, one repetition of
//! each, and the checks on what a repetition produced.
//!
//! Every repetition builds a fresh world from the seed and runs a fixed
//! amount of simulated work, so repetitions with one seed must produce
//! byte-identical result JSON.

use bpp_core::experiments::{fig3a, fig3b, fig4, fig5a, fig5b, fig6, fig7, fig8, Figure};
use bpp_core::simulation::World;
use bpp_core::{
    run_chaos, AdmissionConfig, Algorithm, ClientPopulation, CrashConfig, FaultPhase,
    FaultSchedule, MeasurementProtocol, RetryPolicy, SystemConfig,
};
use bpp_json::{Json, ToJson};
use bpp_sim::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All eleven paper figures on the Table 3 system.
    PaperGrid,
    /// The aggregate Virtual Client at the heaviest paper load, K = 1.
    VcLoaded,
    /// 10⁵ closed-loop fleet clients at the same offered load.
    Fleet100k,
    /// K = 4 channels, a 10⁴-client fleet and a phased fault timeline.
    ChaosK4,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::VcLoaded,
        Workload::Fleet100k,
        Workload::ChaosK4,
    ];

    /// The name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::VcLoaded => "vc_loaded",
            Workload::Fleet100k => "fleet_100k",
            Workload::ChaosK4 => "chaos_k4",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single simulation cell this workload runs, at `size`; `None`
    /// for the paper grid, whose repetition is the whole figure set.
    pub fn cell(self, seed: u64, size: Size) -> Option<Cell> {
        let mut cfg = operating_point(seed);
        let proto = MeasurementProtocol::paper();
        let smoke = size == Size::Smoke;
        // Simulated time per size: (repetition, full, smoke).
        let t_end = |rep: f64, full: f64, smoke: f64| match size {
            Size::Rep => rep,
            Size::Full => full,
            Size::Smoke => smoke,
        };
        match self {
            Workload::PaperGrid => None,
            Workload::VcLoaded => Some(Cell {
                cfg,
                proto,
                t_end: t_end(2e5, 4e6, 4e3),
                schedule: None,
            }),
            Workload::Fleet100k => {
                cfg.population = ClientPopulation::fleet(if smoke { 100 } else { 100_000 });
                Some(Cell {
                    cfg,
                    proto,
                    t_end: t_end(4e4, 8e5, 8e2),
                    schedule: None,
                })
            }
            Workload::ChaosK4 => {
                cfg.num_channels = 4;
                cfg.population = ClientPopulation::fleet(if smoke { 10 } else { 10_000 });
                cfg.server_queue_size = 1000;
                cfg.obs.enabled = true;
                cfg.fault.retry = RetryPolicy {
                    max_retries: 6,
                    base_timeout: 8.0,
                    backoff_factor: 2.0,
                    max_backoff: 64.0,
                    jitter: 0.5,
                };
                cfg.fault.crash = CrashConfig {
                    downtime: 100.0,
                    reconnect_jitter: 0.5,
                    recovery_epsilon: 0.5,
                    ..CrashConfig::none()
                };
                cfg.fault.admission = AdmissionConfig {
                    rate: 16.0,
                    burst: 64.0,
                    retry_after: 32.0,
                };
                let schedule = chaos_schedule(if size == Size::Full { 50 } else { 1 });
                Some(Cell {
                    t_end: schedule.total_duration(),
                    cfg,
                    proto,
                    schedule: Some(schedule),
                })
            }
        }
    }

    /// The configuration whose `World::steady_state(..).into_engine()`
    /// build `setup_s` times: the repetition cell's own (as `run_chaos`
    /// builds it), or the paper-default IPP system for the grid.
    pub fn setup_config(self, seed: u64, smoke: bool) -> (SystemConfig, MeasurementProtocol) {
        let size = if smoke { Size::Smoke } else { Size::Rep };
        match self.cell(seed, size) {
            Some(cell) => (cell.build_config(), cell.proto),
            None => (grid_base(seed, smoke), grid_protocol(smoke)),
        }
    }
}

/// How much simulated work a single cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// One timed repetition of the untraced run, about 0.1 s. On a shared
    /// host the machine flips between a fast state and a state up to 2×
    /// slower every few tens of milliseconds to seconds; the median of
    /// many short repetitions is the fast state's time whenever that state
    /// holds most of the run, where a few long repetitions would each
    /// average in however much slow time their run happened to see.
    Rep,
    /// The traced run: 4·10⁶ units of `vc_loaded`, 8·10⁵ of `fleet_100k`,
    /// 50 chaos cycles.
    Full,
    /// `--smoke`: about 1/1000 of `Full`.
    Smoke,
}

/// The operating point shared by the three single-cell workloads: Table 3
/// under IPP (PullBW 50%, no threshold, SteadyStatePerc 95%) at
/// ThinkTimeRatio 250 — the paper's heaviest load, 12.5 Virtual-Client
/// accesses per broadcast unit.
pub fn operating_point(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.thres_perc = 0.0;
    cfg.steady_state_perc = 0.95;
    cfg.think_time_ratio = 250.0;
    cfg.seed = seed;
    cfg
}

/// `cycles` repeats of a 10⁴-unit cycle: 3000 calm, 4000 with 10% loss on
/// both channels and a crash 1000 units in, then 3000 of brownouts (100 of
/// every 500 units).
fn chaos_schedule(cycles: usize) -> FaultSchedule {
    let cycle = [
        FaultPhase::calm(3000.0),
        FaultPhase {
            broadcast_loss: 0.1,
            request_loss: 0.1,
            crash_offset: Some(1000.0),
            ..FaultPhase::calm(4000.0)
        },
        FaultPhase {
            brownout_period: 500.0,
            brownout_duration: 100.0,
            ..FaultPhase::calm(3000.0)
        },
    ];
    FaultSchedule {
        phases: cycle.iter().cycle().take(3 * cycles).cloned().collect(),
    }
}

/// One single-cell workload: what to build and how far to simulate it.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cfg: SystemConfig,
    pub proto: MeasurementProtocol,
    /// Simulated time the repetition runs to.
    pub t_end: f64,
    /// The fault timeline, for the chaos workload.
    pub schedule: Option<FaultSchedule>,
}

impl Cell {
    /// The configuration the world is built from. For a chaos cell this is
    /// the config `run_chaos` derives from the schedule: crash times
    /// compiled in, the fault layer sized to the worst phase, and a
    /// placeholder brownout window the first phase re-points.
    pub fn build_config(&self) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        let Some(schedule) = &self.schedule else {
            return cfg;
        };
        let crashes = schedule.crash_times();
        if !crashes.is_empty() {
            cfg.fault.crash.schedule = crashes;
        }
        for p in &schedule.phases {
            cfg.fault.broadcast_loss = cfg.fault.broadcast_loss.max(p.broadcast_loss);
            cfg.fault.request_loss = cfg.fault.request_loss.max(p.request_loss);
        }
        let brownouts = schedule
            .phases
            .iter()
            .any(|p| p.brownout_period > 0.0 && p.brownout_duration > 0.0);
        if brownouts && !cfg.fault.has_brownouts() {
            cfg.fault.brownout_period = schedule.total_duration();
            cfg.fault.brownout_duration = schedule.total_duration();
        }
        cfg
    }

    /// Build the world and prime its engine.
    pub fn engine(&self) -> Engine<World> {
        World::steady_state(&self.build_config(), &self.proto).into_engine()
    }
}

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the run section, in seconds.
    pub wall: f64,
    /// Events the engine dispatched (for the grid: Slot events, see
    /// [`run_grid`]).
    pub events: u64,
    /// The result JSON whose digest is printed and compared across
    /// repetitions.
    pub json: String,
    /// Failed output checks.
    pub failures: Vec<String>,
}

/// Run one repetition of a single-cell workload: build the world (not
/// timed), then time the simulation. The chaos cell goes through
/// `run_chaos`, which builds its world inside the timed call.
pub fn run_cell(cell: &Cell) -> Rep {
    if let Some(schedule) = &cell.schedule {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_chaos(&cell.cfg, &cell.proto, schedule)
        }));
        let wall = t0.elapsed().as_secs_f64();
        return match outcome {
            Ok(r) => {
                let events = r.result.obs.as_ref().map_or(0, |o| {
                    o.metrics
                        .counters()
                        .filter(|(name, _)| name.starts_with("engine.dispatch."))
                        .map(|(_, n)| n)
                        .sum()
                });
                // `run_chaos` audits the ledger itself and panics when it is
                // dirty (caught below), so a returned result balanced.
                let mut failures = Vec::new();
                if r.result.measured_accesses > 0 && !r.result.mean_response.is_finite() {
                    failures.push("the measured mean response is not finite".into());
                }
                Rep {
                    wall,
                    events,
                    json: bpp_json::to_string(&r),
                    failures,
                }
            }
            Err(_) => Rep {
                wall,
                events: 0,
                json: String::new(),
                failures: vec!["run_chaos panicked".into()],
            },
        };
    }
    let mut engine = cell.engine();
    let t0 = Instant::now();
    engine.run_until(cell.t_end);
    let wall = t0.elapsed().as_secs_f64();
    Rep {
        wall,
        events: engine.dispatched(),
        json: cell_json(&engine).dump(),
        failures: cell_failures(&engine),
    }
}

/// Output checks on a finished single cell: a balanced request ledger
/// (which also checks the queue bound and monotone time), clients that
/// made progress, and finite response and flow means wherever something
/// was measured. (Under a 10⁵-client fleet the Measured Client may still
/// be warming its cache when the cell ends, so an empty measurement is
/// not a failure.)
pub fn cell_failures(engine: &Engine<World>) -> Vec<String> {
    let w = engine.model();
    let mut failures = w.conservation_ledger().violations();
    if w.mc().stats().accesses == 0 {
        failures.push("the Measured Client never accessed a page".into());
    }
    if w.responses().count() > 0 && !w.responses().mean().is_finite() {
        failures.push("the measured mean response is not finite".into());
    }
    if let Some(fleet) = w.fleet() {
        if fleet.stats().completed == 0 || !fleet.flow().mean().is_finite() {
            failures.push("the fleet completed no request with a finite flow time".into());
        }
    }
    failures
}

/// The result of a single cell, from public accessors only.
pub fn cell_json(engine: &Engine<World>) -> Json {
    let w = engine.model();
    let s = w.slots();
    let q = w.total_queue_stats();
    let mc = w.mc().stats();
    let mut members = vec![
        ("sim_time", engine.now().to_json()),
        ("events", engine.dispatched().to_json()),
        ("mean_response", w.responses().mean().to_json()),
        ("measured_accesses", w.responses().count().to_json()),
        (
            "slots",
            Json::object([
                ("push", s.push_pages.to_json()),
                ("pull", s.pull_pages.to_json()),
                ("empty", s.empty.to_json()),
                ("idle", s.idle.to_json()),
            ]),
        ),
        (
            "queue",
            Json::object([
                ("received", q.received.to_json()),
                ("enqueued", q.enqueued.to_json()),
                ("coalesced", q.coalesced.to_json()),
                ("dropped_full", q.dropped_full.to_json()),
                ("served", q.served.to_json()),
                ("served_requests", q.served_requests.to_json()),
            ]),
        ),
        (
            "mc",
            Json::object([
                ("accesses", mc.accesses.to_json()),
                ("hits", mc.hits.to_json()),
                ("misses", mc.misses.to_json()),
                ("requests_sent", mc.requests_sent.to_json()),
                ("completed", mc.completed.to_json()),
            ]),
        ),
        ("ledger", w.conservation_ledger().to_json()),
    ];
    if let Some(fleet) = w.fleet() {
        let f = fleet.stats();
        members.push((
            "fleet",
            Json::object([
                ("accesses", f.accesses.to_json()),
                ("hits", f.hits.to_json()),
                ("requests_sent", f.requests_sent.to_json()),
                ("requests_filtered", f.requests_filtered.to_json()),
                ("completed", f.completed.to_json()),
                ("retries", f.retries.to_json()),
                ("mean_flow", fleet.flow().mean().to_json()),
            ]),
        ));
    }
    if let Some(fault) = w.fault_report() {
        members.push(("fault", fault.to_json()));
    }
    if let Some(obs) = w.obs_report(engine.obs(), engine.now()) {
        members.push(("obs", obs.to_json()));
    }
    Json::object(members)
}

/// The paper grid's figures, in `all_figures` order.
pub const FIGURES: [&str; 11] = [
    "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
    "fig8",
];

/// The grid's base system: Table 3 (or the scaled-down test system for
/// `--smoke`) with the workload seed as the base seed.
pub fn grid_base(seed: u64, smoke: bool) -> SystemConfig {
    let mut cfg = if smoke {
        SystemConfig::small()
    } else {
        SystemConfig::paper_default()
    };
    cfg.seed = seed;
    cfg
}

/// `MeasurementProtocol::quick()` with the convergence stop turned off,
/// so every steady-state cell measures exactly `max_accesses` accesses.
/// Under `quick()` itself a cell stops when its confidence interval first
/// narrows enough, which moves the grid's total work by ±8% from seed to
/// seed; a fixed amount of work keeps the wall time a measure of the code.
pub fn grid_protocol(smoke: bool) -> MeasurementProtocol {
    MeasurementProtocol {
        rel_precision: 1e-12,
        max_accesses: if smoke { 200 } else { 1000 },
        ..MeasurementProtocol::quick()
    }
}

/// Regenerate one figure of the grid by its `FIGURES` name.
pub fn figure(name: &str, base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    match name {
        "fig3a" => fig3a(base, proto),
        "fig3b" => fig3b(base, proto),
        "fig4a" => fig4(base, proto, 25.0),
        "fig4b" => fig4(base, proto, 250.0),
        "fig5a" => fig5a(base, proto),
        "fig5b" => fig5b(base, proto),
        "fig6a" => fig6(base, proto, 0.5),
        "fig6b" => fig6(base, proto, 0.3),
        "fig7a" => fig7(base, proto, 0.0),
        "fig7b" => fig7(base, proto, 0.35),
        "fig8" => fig8(base, proto),
        other => panic!("unknown figure {other}"),
    }
}

/// One figure's points and per-cell results.
pub fn figure_json(fig: &Figure) -> Json {
    let series: Vec<Json> = fig
        .series
        .iter()
        .map(|s| {
            Json::object([
                ("label", s.label.to_json()),
                (
                    "points",
                    Json::Arr(
                        s.points
                            .iter()
                            .map(|&(x, y)| Json::Arr(vec![x.to_json(), y.to_json()]))
                            .collect(),
                    ),
                ),
                ("results", s.results.to_json()),
            ])
        })
        .collect();
    Json::object([("id", fig.id.to_json()), ("series", Json::Arr(series))])
}

/// The distinct simulation cells behind a figure and how many Slot events
/// each dispatched (one per simulated broadcast unit). Flat reference
/// lines repeat one run's result across the x axis and count once.
/// Warm-up figures carry no per-cell results; their cells end when the
/// last milestone is reached, so that time stands in for the slot count.
pub fn figure_cells(fig: &Figure) -> Vec<(u64, Vec<String>)> {
    let mut cells = Vec::new();
    for s in &fig.series {
        if s.results.is_empty() {
            let end = s
                .points
                .iter()
                .map(|&(_, t)| t)
                .filter(|t| t.is_finite())
                .fold(0.0, f64::max);
            cells.push((end as u64 + 1, Vec::new()));
            continue;
        }
        let mut previous: Option<String> = None;
        for r in &s.results {
            let json = bpp_json::to_string(r);
            if previous.as_deref() == Some(json.as_str()) {
                continue;
            }
            let mut failures = Vec::new();
            if let Some(e) = &r.error {
                failures.push(format!(
                    "{} `{}` cell failed: {}",
                    fig.id, s.label, e.message
                ));
            }
            if !r.mean_response.is_finite() {
                failures.push(format!("{} `{}` mean is not finite", fig.id, s.label));
            }
            let k = r.slots;
            cells.push((k.push_pages + k.pull_pages + k.empty + k.idle, failures));
            previous = Some(json);
        }
    }
    cells
}

/// One repetition of the paper grid, with the wall time of each figure.
#[derive(Debug, Clone)]
pub struct GridRep {
    pub rep: Rep,
    /// Seconds per figure, in `FIGURES` order.
    pub figure_s: Vec<f64>,
    /// Simulation cells the grid ran.
    pub cells: usize,
    /// Cells with a failed check.
    pub failed_cells: usize,
    /// Each figure's JSON, for the determinism re-run.
    pub figure_json: Vec<String>,
}

/// Run all eleven figures through the experiment layer (`par_run` fans
/// each sweep out over the available cores).
pub fn run_grid(seed: u64, smoke: bool) -> GridRep {
    let base = grid_base(seed, smoke);
    let proto = grid_protocol(smoke);
    let mut figure_s = Vec::new();
    let mut figure_jsons = Vec::new();
    let mut events = 0;
    let mut cells = 0;
    let mut failed_cells = 0;
    let mut failures = Vec::new();
    for name in FIGURES {
        let t0 = Instant::now();
        let fig = figure(name, &base, &proto);
        figure_s.push(t0.elapsed().as_secs_f64());
        for (slots, cell_failures) in figure_cells(&fig) {
            events += slots;
            cells += 1;
            if !cell_failures.is_empty() {
                failed_cells += 1;
                failures.extend(cell_failures);
            }
        }
        figure_jsons.push(figure_json(&fig).dump());
    }
    let json = format!("[{}]", figure_jsons.join(","));
    GridRep {
        rep: Rep {
            // The figures' own time; checking and serialising them is not
            // part of the job.
            wall: figure_s.iter().sum(),
            events,
            json,
            failures,
        },
        figure_s,
        cells,
        failed_cells,
        figure_json: figure_jsons,
    }
}

/// The figure the grid's determinism check regenerates: a steady-state
/// figure that takes about 5% of the grid.
pub const RERUN_FIGURE: &str = "fig7b";

/// Regenerate [`RERUN_FIGURE`] and compare it with the repetition's copy.
pub fn grid_is_deterministic(grid: &GridRep, seed: u64, smoke: bool) -> bool {
    let i = FIGURES
        .iter()
        .position(|&f| f == RERUN_FIGURE)
        .expect("the re-run figure is on the grid");
    let again = figure(RERUN_FIGURE, &grid_base(seed, smoke), &grid_protocol(smoke));
    figure_json(&again).dump() == grid.figure_json[i]
}
