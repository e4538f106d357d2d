//! Robustness scenario: response time under channel loss (the loss sweep),
//! plus a `--smoke` mode emitting a deterministic `FaultReport` as JSON for
//! the CI golden-file check.
//!
//! Default mode renders the loss-sweep figure (one curve per loss rate in
//! `LOSS_GRID`) and a fault-accounting companion table. `--smoke` runs one
//! fixed cell — the small system, IPP PullBW 50%, ThinkTimeRatio 1, 10%
//! symmetric loss, seed 42, quick protocol — and prints its fault report;
//! `scripts/ci.sh` compares the output byte-for-byte against
//! `results/fault_smoke.json`.

#![expect(clippy::expect_used, reason = "abort on a broken run invariant")]

use bpp_bench::{emit, smoke_cell, Opts};
use bpp_core::experiments::loss_sweep;
use bpp_core::report::{fmt_pct, fmt_units, Table};
use bpp_core::{run_steady_state, FaultConfig, MeasurementProtocol, SystemConfig};

fn smoke() {
    let cfg = SystemConfig {
        fault: FaultConfig::lossy(0.10),
        ..smoke_cell()
    };
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    let report = r.fault.expect("fault model enabled");
    println!("{}", bpp_json::to_string_pretty(&report));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let opts = Opts::parse();
    let base = opts.base();
    let proto = opts.protocol();

    let fig = loss_sweep(&base, &proto);
    emit(&fig, &opts);

    // Companion accounting: what the fault model did per curve, at the
    // loaded end of the sweep (the first x value).
    let mut t = Table::new(
        "Loss sweep — fault accounting at the loaded end".to_string(),
        &[
            "series",
            "TTR",
            "mean resp",
            "pages lost",
            "req lost",
            "retries",
            "exhausted",
            "drop rate",
        ],
    );
    for s in &fig.series {
        if let (Some(&(x, _)), Some(r)) = (s.points.first(), s.results.first()) {
            let f = r.fault.unwrap_or_default();
            t.push_row(vec![
                s.label.clone(),
                fmt_units(x),
                fmt_units(r.mean_response),
                f.channel.pages_lost.to_string(),
                f.channel.requests_lost.to_string(),
                f.retries.to_string(),
                f.retries_exhausted.to_string(),
                fmt_pct(r.drop_rate),
            ]);
        }
    }
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}
