//! `perf` — the repository benchmark.
//!
//! ```text
//! perf --workload <paper_grid|vc_loaded|fleet_100k|chaos_k4>
//!      [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One workload per process. The untraced run (`--trace 0`) times batches
//! of world builds (`setup_s`), then repeats the workload until
//! `--seconds` have passed and reports the end-to-end metrics as medians
//! over repetitions. The traced run (`--trace 1`) attributes one
//! repetition's wall time to event kinds and replays each crate's hot call
//! in isolation. Either way every output is checked; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is 1
//! when a check failed. `--smoke` runs everything at about 1/1000 size.

mod replay;
mod stats;
mod trace;
mod workloads;

use bpp_core::simulation::World;
use bpp_core::{run_steady_state, Algorithm};
use bpp_json::{Json, ToJson};
use stats::{cpu_seconds, fnv64, peak_rss_mb, workers, Summary};
use std::time::Instant;
use trace::{Attribution, KINDS};
use workloads::{run_cell, run_grid, Size, Workload, FIGURES};

/// `setup_s` is the median over `SETUP_SAMPLES` batches of the mean time
/// of one world build. A batch repeats the build for about
/// `SETUP_BATCH_S`: on a shared host a single sub-millisecond build can
/// land in a fast or a ~1.6× slower machine state that flips every few
/// tens of milliseconds, so single builds report a coin toss while batch
/// means are steady (see perfbench/README.md, "Host noise").
const SETUP_SAMPLES: usize = 15;
const SETUP_BATCH_S: f64 = 0.05;
/// Fewest repetitions of a single-cell workload (the determinism check
/// compares them).
const MIN_CELL_REPS: usize = 3;

/// Command-line options.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut workload = None;
        let mut a = Args {
            workload: Workload::VcLoaded,
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value();
                    workload = Some(
                        Workload::parse(&name)
                            .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                    );
                }
                "--seed" => {
                    a.seed = value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be a u64"))
                }
                "--seconds" => {
                    a.seconds = value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds must be a non-negative number"));
                }
                "--trace" => {
                    a.trace = match value().as_str() {
                        "0" => false,
                        "1" => true,
                        _ => usage("--trace must be 0 or 1"),
                    }
                }
                "--smoke" => a.smoke = true,
                other => usage(&format!("unknown flag {other}")),
            }
        }
        a.workload = workload.unwrap_or_else(|| usage("--workload is required"));
        a
    }

    /// `size`, or the smoke size under `--smoke`.
    fn size(&self, size: Size) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            size
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// The samples behind a median, when there are several.
    summary: Option<Summary>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Extra machine-readable detail (digest, per-figure spans, trace
    /// rows) printed on the line before the result.
    detail: Vec<(String, Json)>,
    /// Human-readable tables.
    text: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    fn median(&mut self, name: &str, unit: &'static str, summary: Summary) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// Count one checked cell (a repetition or a grid cell).
    fn cell(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend_from_slice(failures);
        }
    }

    /// Count one run-level check.
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.cell(&if ok { Vec::new() } else { vec![what.into()] });
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::object([("value", m.value.to_json()), ("unit", m.unit.to_json())]),
            )
        });
        Json::object([
            ("correct", (self.failed == 0).to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::object(metrics)),
        ])
    }

    /// Medians with their spread, for the detail line.
    fn detail_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![("value", m.value.to_json()), ("unit", m.unit.to_json())];
            if let Some(s) = m.summary {
                fields.extend([
                    ("q1", s.q1.to_json()),
                    ("q3", s.q3.to_json()),
                    ("p90", s.p90.to_json()),
                    ("max", s.max.to_json()),
                    ("samples", s.n.to_json()),
                ]);
            }
            (m.name.clone(), Json::object(fields))
        });
        let mut members = vec![("metrics".to_string(), Json::object(metrics))];
        members.extend(self.detail.iter().cloned());
        members.push(("failures".to_string(), self.failures.to_json()));
        Json::Obj(members)
    }
}

/// Per-build seconds of the workload's `World::steady_state` and
/// `into_engine`, as `SETUP_SAMPLES` batch means; returns (build, prime,
/// total).
fn time_setup(a: &Args) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (cfg, proto) = a.workload.setup_config(a.seed, a.smoke);
    let build = || {
        let t0 = Instant::now();
        let world = World::steady_state(&cfg, &proto);
        let t1 = Instant::now();
        let engine = world.into_engine();
        let t2 = Instant::now();
        drop(engine);
        (
            t1.duration_since(t0).as_secs_f64(),
            t2.duration_since(t1).as_secs_f64(),
        )
    };
    let (b, p) = build();
    let batch_s = if a.smoke { 1e-3 } else { SETUP_BATCH_S };
    let per_batch = ((batch_s / (b + p)).ceil() as usize).clamp(1, 10_000);
    let mut split = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_SAMPLES {
        let (mut b, mut p) = (0.0, 0.0);
        for _ in 0..per_batch {
            let (x, y) = build();
            b += x;
            p += y;
        }
        let n = per_batch as f64;
        split.0.push(b / n);
        split.1.push(p / n);
        split.2.push((b + p) / n);
    }
    split
}

/// The untraced run: the end-to-end metrics.
fn measure(a: &Args) -> Outcome {
    let w = a.workload;
    let mut out = Outcome::default();
    let (_, _, setup) = time_setup(a);
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let start = Instant::now();
    let more = |walls: &[f64], min: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        walls.len() < min || elapsed + elapsed / walls.len() as f64 <= a.seconds
    };
    match w.cell(a.seed, a.size(Size::Rep)) {
        Some(cell) => {
            while more(&walls, MIN_CELL_REPS) {
                let rep = run_cell(&cell);
                out.cell(&rep.failures);
                walls.push(rep.wall);
                rates.push(rep.events as f64 / rep.wall);
                digests.push(fnv64(rep.json.as_bytes()));
            }
        }
        None => {
            let mut figure_s = vec![Vec::new(); FIGURES.len()];
            let mut first = None;
            while more(&walls, 1) {
                let grid = run_grid(a.seed, a.smoke);
                out.attempted += grid.cells as u64;
                out.failed += grid.failed_cells as u64;
                out.failures.extend(grid.rep.failures.iter().cloned());
                for (spans, s) in figure_s.iter_mut().zip(&grid.figure_s) {
                    spans.push(*s);
                }
                walls.push(grid.rep.wall);
                rates.push(grid.rep.events as f64 / grid.rep.wall);
                digests.push(fnv64(grid.rep.json.as_bytes()));
                first.get_or_insert(grid);
            }
            let grid = first.expect("at least one grid repetition");
            out.check(
                workloads::grid_is_deterministic(&grid, a.seed, a.smoke),
                format!("{} regenerated differently", workloads::RERUN_FIGURE),
            );
            out.detail.push((
                "figure_s".into(),
                Json::object(
                    FIGURES
                        .iter()
                        .zip(&figure_s)
                        .map(|(f, spans)| (*f, Summary::of(spans).median.to_json())),
                ),
            ));
        }
    }
    out.check(
        digests.iter().all(|&d| d == digests[0]),
        "repetitions with one seed produced different result JSON",
    );
    let digest = format!("{:016x}", digests[0]);
    out.text.push(format!(
        "{}: result digest {digest} (FNV-64 of the result JSON), {} repetitions",
        w.name(),
        walls.len()
    ));
    out.detail.push(("digest".into(), digest.to_json()));
    out.detail.push(("reps".into(), walls.len().to_json()));
    out.median("wall_s", "s", Summary::of(&walls));
    out.median("events_per_s", "events/s", Summary::of(&rates));
    out.median("setup_s", "s", Summary::of(&setup));
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    out
}

/// Counters read off a finished world, summed over the traced cells.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    requests_received: u64,
    served: u64,
    mc_accesses: u64,
    fleet_accesses: u64,
    ledger_sent: u64,
    admission_rejected: u64,
    retries: u64,
}

impl Counts {
    fn add(&mut self, engine: &bpp_sim::Engine<World>) {
        let w = engine.model();
        let q = w.total_queue_stats();
        let ledger = w.conservation_ledger();
        self.events += engine.dispatched();
        self.requests_received += q.received;
        self.served += q.served;
        self.mc_accesses += w.mc().stats().accesses;
        self.fleet_accesses += w.fleet().map_or(0, |f| f.stats().accesses);
        self.ledger_sent += ledger.sent;
        self.admission_rejected += ledger.admission_rejected;
        self.retries +=
            w.fault_report().map_or(0, |f| f.retries) + w.fleet().map_or(0, |f| f.stats().retries);
    }
}

/// The traced run: per-layer metrics.
fn trace(a: &Args) -> Outcome {
    let w = a.workload;
    let mut out = Outcome::default();
    let (build, prime, _) = time_setup(a);
    let mut attribution = Attribution::default();
    let mut counts = Counts::default();
    let untraced_s;
    let cpu_util;

    match w.cell(a.seed, a.size(Size::Full)) {
        Some(cell) => {
            let cpu0 = cpu_seconds();
            let untraced = run_cell(&cell);
            cpu_util = (cpu_seconds() - cpu0) / (untraced.wall * workers() as f64);
            out.cell(&untraced.failures);
            untraced_s = untraced.wall;

            let mut engine = cell.engine();
            match &cell.schedule {
                // The chaos timeline, replayed through the same public calls
                // `run_chaos` makes.
                Some(schedule) => {
                    let mut t = 0.0;
                    for p in &schedule.phases {
                        engine
                            .model_mut()
                            .set_channel_loss(p.broadcast_loss, p.request_loss);
                        engine
                            .model_mut()
                            .set_brownout(p.brownout_period, p.brownout_duration);
                        t += p.duration;
                        attribution.run_until(&mut engine, t);
                    }
                    let replayed = Json::object([
                        ("ledger", engine.model().conservation_ledger().to_json()),
                        ("slots", slots_json(engine.model())),
                        ("mean", engine.model().responses().mean().to_json()),
                    ]);
                    let chaos = Json::parse(&untraced.json).unwrap_or(Json::Null);
                    let result = chaos.get("result");
                    let field = |v: Option<&Json>| v.cloned().unwrap_or(Json::Null);
                    let reference = Json::object([
                        ("ledger", field(chaos.get("ledger"))),
                        ("slots", field(result.and_then(|r| r.get("slots")))),
                        ("mean", field(result.and_then(|r| r.get("mean_response")))),
                    ]);
                    out.check(
                        replayed.dump() == reference.dump(),
                        "the traced chaos replay differs from run_chaos (ledger, slots or mean)",
                    );
                }
                None => {
                    attribution.run_until(&mut engine, cell.t_end);
                    out.check(
                        workloads::cell_json(&engine).dump() == untraced.json,
                        "the traced repetition's result differs from the untraced one",
                    );
                }
            }
            out.cell(&workloads::cell_failures(&engine));
            counts.add(&engine);
        }
        None => {
            let cpu0 = cpu_seconds();
            let grid = run_grid(a.seed, a.smoke);
            cpu_util = (cpu_seconds() - cpu0) / (grid.rep.wall * workers() as f64);
            out.attempted += grid.cells as u64;
            out.failed += grid.failed_cells as u64;
            out.failures.extend(grid.rep.failures.iter().cloned());
            out.detail.push((
                "figure_s".into(),
                Json::object(
                    FIGURES
                        .iter()
                        .zip(&grid.figure_s)
                        .map(|(f, s)| (*f, s.to_json())),
                ),
            ));
            out.text.push(figure_table(&grid));

            // The grid's engines are internal to `run_steady_state`, so the
            // attribution steps representative cells instead: each
            // algorithm at a light and at the heaviest grid load, run once
            // untraced and once traced.
            let mut untraced = 0.0;
            let algorithms = [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp];
            for (algorithm, ttr) in algorithms.into_iter().flat_map(|a| [(a, 25.0), (a, 250.0)]) {
                let mut cfg = workloads::grid_base(a.seed, a.smoke);
                cfg.algorithm = algorithm;
                cfg.think_time_ratio = ttr;
                let proto = workloads::grid_protocol(a.smoke);
                let t0 = Instant::now();
                let reference = run_steady_state(&cfg, &proto);
                untraced += t0.elapsed().as_secs_f64();
                let mut engine = World::steady_state(&cfg, &proto).into_engine();
                attribution.run_to_done(&mut engine);
                let w = engine.model();
                let s = w.slots();
                let same = w.responses().mean().to_bits() == reference.mean_response.to_bits()
                    && engine.now().to_bits() == reference.sim_time.to_bits()
                    && s.push_pages + s.pull_pages + s.empty + s.idle
                        == reference.slots.push_pages
                            + reference.slots.pull_pages
                            + reference.slots.empty
                            + reference.slots.idle;
                out.check(
                    same,
                    format!(
                        "the traced {} cell differs from run_steady_state",
                        algorithm.name()
                    ),
                );
                out.cell(&workloads::cell_failures(&engine));
                counts.add(&engine);
            }
            untraced_s = untraced;
        }
    }

    let coverage = attribution.coverage();
    out.check(
        coverage >= 0.9,
        format!(
            "spans cover only {:.1}% of traced wall time",
            100.0 * coverage
        ),
    );
    out.text.push(attribution.table(w.name()));
    out.detail.push(("trace".into(), trace_json(&attribution)));

    // Per-event cost only for the kinds every workload dispatches; the
    // others are reported by share and count (and in the table).
    for (k, kind) in KINDS.iter().enumerate().take(2) {
        out.metric(
            &format!("core.{kind}.ns"),
            "ns",
            attribution.ns_per_event(k),
        );
    }
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(
            &format!("core.{kind}.share"),
            "fraction",
            attribution.share(attribution.step_ns[k]),
        );
    }
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(
            &format!("core.{kind}.count"),
            "count",
            attribution.count[k] as f64,
        );
    }
    out.metric(
        "sim.peek_live.ns",
        "ns",
        attribution.peek_ns as f64 / attribution.peek_calls.max(1) as f64,
    );
    out.metric(
        "sim.peek_live.share",
        "fraction",
        attribution.share(attribution.peek_ns),
    );
    out.metric("trace.coverage", "fraction", coverage);
    out.metric(
        "trace.overhead",
        "fraction",
        attribution.wall_ns as f64 / 1e9 / untraced_s - 1.0,
    );
    out.median("core.world_build.ms", "ms", Summary::of(&build).scaled(1e3));
    out.median("core.into_engine.ms", "ms", Summary::of(&prime).scaled(1e3));
    out.metric("experiments.cpu_util", "fraction", cpu_util);

    let samples = if a.smoke { 3 } else { 100 };
    for r in replay::all(a.seed, samples) {
        out.median(r.name, r.unit, r.cost);
        out.metric(&format!("{}.p90", r.name), r.unit, r.cost.p90);
    }

    for (name, value) in [
        ("sim.events", counts.events),
        ("server.requests_received", counts.requests_received),
        ("server.served", counts.served),
        ("client.mc.accesses", counts.mc_accesses),
        ("client.fleet.accesses", counts.fleet_accesses),
        ("fault.ledger.sent", counts.ledger_sent),
        ("fault.ledger.admission_rejected", counts.admission_rejected),
        ("fault.retries", counts.retries),
    ] {
        out.metric(name, "count", value as f64);
    }
    out
}

fn slots_json(w: &World) -> Json {
    let s = w.slots();
    Json::object([
        ("push_pages", s.push_pages.to_json()),
        ("pull_pages", s.pull_pages.to_json()),
        ("empty", s.empty.to_json()),
        ("idle", s.idle.to_json()),
    ])
}

fn trace_json(t: &Attribution) -> Json {
    let mut rows: Vec<(String, Json)> = KINDS
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            (
                kind.to_string(),
                Json::object([
                    ("count", t.count[k].to_json()),
                    ("total_s", (t.step_ns[k] as f64 / 1e9).to_json()),
                    ("ns_per_event", t.ns_per_event(k).to_json()),
                    ("share", t.share(t.step_ns[k]).to_json()),
                ]),
            )
        })
        .collect();
    rows.push((
        "peek_live".into(),
        Json::object([
            ("count", t.peek_calls.to_json()),
            ("total_s", (t.peek_ns as f64 / 1e9).to_json()),
            ("share", t.share(t.peek_ns).to_json()),
        ]),
    ));
    rows.push(("wall_s".into(), (t.wall_ns as f64 / 1e9).to_json()));
    Json::Obj(rows)
}

fn figure_table(grid: &workloads::GridRep) -> String {
    let mut out = format!(
        "paper grid — {} cells, {:.3} s\n{:<8} {:>9} {:>7}\n",
        grid.cells, grid.rep.wall, "figure", "wall_s", "share"
    );
    for (f, s) in FIGURES.iter().zip(&grid.figure_s) {
        out.push_str(&format!(
            "{f:<8} {s:>9.3} {:>6.1}%\n",
            100.0 * s / grid.rep.wall
        ));
    }
    out
}

fn run(a: &Args) -> Outcome {
    let mut out = if a.trace { trace(a) } else { measure(a) };
    for m in &out.metrics.clone() {
        out.check(
            m.value.is_finite(),
            format!("metric {} is not finite", m.name),
        );
    }
    out
}

fn main() {
    let a = Args::parse(std::env::args().skip(1));
    let out = run(&a);
    for t in &out.text {
        println!("{t}");
    }
    for m in &out.metrics {
        match m.summary {
            Some(s) if s.n > 1 => println!(
                "{:<40} {:>16.6} {:<9} median of {}: q1 {:.6} q3 {:.6} max {:.6}",
                m.name, m.value, m.unit, s.n, s.q1, s.q3, s.max
            ),
            _ => println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("detail {}", out.detail_json().dump());
    println!("{}", out.result_json().dump());
    if out.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units `BENCHMARK.json` declares for `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Every workload, untraced and traced, at smoke size: every check
    /// passes and exactly the declared metrics come out with their units.
    #[test]
    fn smoke_runs_emit_every_declared_metric_and_pass_every_check() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(key);
            for workload in Workload::ALL {
                let out = run(&Args {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                });
                assert_eq!(
                    out.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    out.failures
                );
                assert!(out.attempted > 0);
                let got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{} trace={trace}", workload.name());
            }
        }
    }
}
