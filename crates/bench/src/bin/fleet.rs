//! Million-client scenario: the population sweep (arena fleet vs. the
//! aggregate Virtual Client), plus a `--smoke` mode emitting one
//! deterministic fleet cell as JSON for the CI golden-file check.
//!
//! Default mode renders the `fleet_sweep` figure (MC response with the VC
//! reference line, fleet mean flow, fleet max stretch — all vs. population
//! size) and a per-population companion table of fleet accounting.
//! `--smoke` runs one fixed cell — the small system, IPP PullBW 50%,
//! ThinkTimeRatio 1, a 200-client fleet, seed 42, quick protocol — and
//! prints the complete `SteadyStateResult` (including its `fleet` section);
//! `scripts/ci.sh` compares the output byte-for-byte against
//! `results/fleet_smoke.json`.

use bpp_bench::{emit, smoke_cell, Opts};
use bpp_core::experiments::fleet_sweep;
use bpp_core::report::{fmt_pct, fmt_units, Table};
use bpp_core::{run_steady_state, ClientPopulation, MeasurementProtocol, SystemConfig};

fn smoke() {
    let cfg = SystemConfig {
        population: ClientPopulation::fleet(200),
        ..smoke_cell()
    };
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert!(r.fleet.is_some(), "fleet population ran");
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

    let fig = fleet_sweep(&base, &proto);
    emit(&fig, &opts);

    // Companion accounting: what each fleet population did, one row per
    // swept size (taken from the MC-response series, which carries the
    // fleet runs).
    let mut t = Table::new(
        "Population sweep — fleet accounting".to_string(),
        &[
            "clients",
            "accesses",
            "hit rate",
            "sent",
            "filtered",
            "completed",
            "mean flow",
            "p99 flow",
            "max stretch",
            "retries",
        ],
    );
    for r in &fig.series[1].results {
        if let Some(f) = &r.fleet {
            t.push_row(vec![
                f.clients.to_string(),
                f.accesses.to_string(),
                fmt_pct(f.hit_rate),
                f.requests_sent.to_string(),
                f.requests_filtered.to_string(),
                f.completed.to_string(),
                fmt_units(f.mean_flow),
                f.p99_flow.map_or("-".into(), fmt_units),
                fmt_units(f.max_stretch),
                f.retries.to_string(),
            ]);
        }
    }
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}
