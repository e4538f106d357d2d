//! Crash–recovery scenario: restart herds vs. population with the
//! admission layer off/on (the crash sweep), plus a `--smoke` mode running
//! one fixed chaos timeline through the conservation auditor and emitting
//! its `ChaosResult` as JSON for the CI golden-file check.
//!
//! Default mode renders the crash-sweep figure (`C1`: MTTR and restart-herd
//! peak, admission off vs. on) and a crash-accounting companion table.
//! `--smoke` runs one fixed chaos timeline — the small system, IPP PullBW
//! 50%, a calm phase, a lossy phase with a crash, and a brownout phase,
//! seed 42, quick protocol — audits request conservation (the run panics
//! on any violation) and prints the result; `scripts/ci.sh` compares the
//! output byte-for-byte against `results/chaos_smoke.json`.

use bpp_bench::{emit, smoke_cell, Opts};
use bpp_core::experiments::crash_sweep;
use bpp_core::report::{fmt_units, Table};
use bpp_core::{run_chaos, CrashConfig, FaultPhase, FaultSchedule, MeasurementProtocol};

fn smoke() {
    let mut cfg = smoke_cell();
    cfg.fault.crash = CrashConfig {
        downtime: 20.0,
        schedule: vec![],
        reconnect_jitter: 0.5,
        recovery_epsilon: 0.25,
    };
    let schedule = FaultSchedule {
        phases: vec![
            FaultPhase::calm(3_000.0),
            FaultPhase {
                duration: 2_000.0,
                broadcast_loss: 0.1,
                request_loss: 0.1,
                crash_offset: Some(500.0),
                ..FaultPhase::calm(2_000.0)
            },
            FaultPhase {
                duration: 2_000.0,
                brownout_period: 500.0,
                brownout_duration: 100.0,
                ..FaultPhase::calm(2_000.0)
            },
        ],
    };
    let r = run_chaos(&cfg, &MeasurementProtocol::quick(), &schedule);
    println!("{}", bpp_json::to_string_pretty(&r));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let opts = Opts::parse();
    let base = opts.base();
    let proto = opts.protocol();

    let fig = crash_sweep(&base, &proto);
    emit(&fig, &opts);

    // Companion accounting: what the crash domain did per curve, at the
    // largest population (the herd end of the sweep).
    let mut t = Table::new(
        "Crash sweep — recovery accounting at the largest population".to_string(),
        &[
            "series",
            "clients",
            "crashes",
            "orphaned",
            "herd peak",
            "MTTR",
            "admitted",
            "rejected",
        ],
    );
    for s in &fig.series {
        if let (Some(&(x, _)), Some(r)) = (s.points.last(), s.results.last()) {
            let c = r.fault.as_ref().and_then(|f| f.crash).unwrap_or_default();
            t.push_row(vec![
                s.label.clone(),
                fmt_units(x),
                c.crashes.to_string(),
                c.orphaned.to_string(),
                c.herd_peak_depth.to_string(),
                fmt_units(c.mean_time_to_recover),
                c.admitted.to_string(),
                c.admission_rejected.to_string(),
            ]);
        }
    }
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}
