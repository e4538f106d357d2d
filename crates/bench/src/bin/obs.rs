//! Observability scenario: run one obs-enabled cell and render what the
//! deterministic observability layer collected, plus a `--smoke` mode
//! emitting the full serialized result as JSON for the CI golden-file check.
//!
//! Default mode runs an IPP cell with the obs layer on (and 10% symmetric
//! loss so the retry/saturation traces have something to record) and prints
//! three tables: the counter registry, a per-timeline summary, and the tail
//! of the trace ring. `--smoke` runs one fixed cell — the small system, IPP
//! PullBW 50%, ThinkTimeRatio 1, 10% symmetric loss, seed 42, quick
//! protocol — and prints the complete `SteadyStateResult` (including its
//! `obs` section); `scripts/ci.sh` compares the output byte-for-byte
//! against `results/obs_smoke.json`.

#![expect(clippy::expect_used, reason = "abort on a broken run invariant")]

use bpp_bench::{smoke_cell, Opts};
use bpp_core::report::{fmt_units, Table};
use bpp_core::{run_steady_state, Algorithm, FaultConfig, MeasurementProtocol, SystemConfig};
use bpp_obs::ObsReport;

fn smoke() {
    let mut cfg = SystemConfig {
        fault: FaultConfig::lossy(0.10),
        ..smoke_cell()
    };
    cfg.obs.enabled = true;
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert!(r.obs.is_some(), "obs layer enabled");
    println!("{}", bpp_json::to_string_pretty(&r));
}

fn counters_table(report: &ObsReport) -> Table {
    let mut t = Table::new("Observability — counters".to_string(), &["name", "value"]);
    for (name, value) in report.metrics.counters() {
        t.push_row(vec![name.to_string(), value.to_string()]);
    }
    t
}

fn gauges_table(report: &ObsReport) -> Option<Table> {
    let mut t = Table::new("Observability — gauges".to_string(), &["name", "value"]);
    let mut any = false;
    for (name, value) in report.metrics.gauges() {
        t.push_row(vec![name.to_string(), fmt_units(value)]);
        any = true;
    }
    any.then_some(t)
}

fn timelines_table(report: &ObsReport) -> Table {
    let mut t = Table::new(
        "Observability — timelines".to_string(),
        &["series", "stride", "points", "peak mean", "peak max"],
    );
    for (name, series) in &report.timelines {
        let points = series.points();
        let peak_mean = points.iter().map(|&(_, m, _)| m).fold(0.0_f64, f64::max);
        let peak_max = points.iter().map(|&(_, _, x)| x).fold(0.0_f64, f64::max);
        t.push_row(vec![
            name.clone(),
            fmt_units(series.stride()),
            points.len().to_string(),
            fmt_units(peak_mean),
            fmt_units(peak_max),
        ]);
    }
    t
}

fn trace_table(report: &ObsReport) -> Table {
    let mut t = Table::new(
        format!(
            "Observability — trace tail ({} kept, {} dropped)",
            report.trace.len(),
            report.trace.dropped()
        ),
        &["t", "label", "value"],
    );
    const TAIL: usize = 10;
    let skip = report.trace.len().saturating_sub(TAIL);
    for e in report.trace.entries().skip(skip) {
        t.push_row(vec![
            fmt_units(e.t),
            e.label.to_string(),
            fmt_units(e.value),
        ]);
    }
    t
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let opts = Opts::parse();
    let mut cfg = opts.base();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.think_time_ratio = 1.0;
    cfg.fault = FaultConfig::lossy(0.10);
    cfg.obs.enabled = true;
    let r = run_steady_state(&cfg, &opts.protocol());
    let report = r.obs.as_ref().expect("obs layer enabled");

    println!("{}", counters_table(report).render());
    if let Some(g) = gauges_table(report) {
        println!("{}", g.render());
    }
    println!("{}", timelines_table(report).render());
    println!("{}", trace_table(report).render());
    println!(
        "mean response {} over {} measured accesses ({} sim units)",
        fmt_units(r.mean_response),
        r.measured_accesses,
        fmt_units(r.sim_time)
    );
}
