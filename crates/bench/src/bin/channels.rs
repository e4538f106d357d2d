//! K-channel scenario: the channel-count sweep (conflict-free multi-channel
//! broadcast with channel-tuning clients and a sharded pull service), plus
//! a `--smoke` mode emitting one deterministic K-channel cell as JSON for
//! the CI golden-file check.
//!
//! Default mode renders the `channel_sweep` figure (mean response vs.
//! channel count, one curve per ThinkTimeRatio) and a companion table of
//! slot accounting along the loaded curve. `--smoke` runs one fixed cell —
//! the small system, IPP PullBW 50%, ThinkTimeRatio 10, four channels, the
//! obs layer on, seed 42, quick protocol — and prints the complete
//! `SteadyStateResult` (including the per-channel `server.ch<k>.*` /
//! `broadcast.ch<k>.*` timelines in its `obs` section); `scripts/ci.sh`
//! compares the output byte-for-byte against `results/channels_smoke.json`.

#![expect(clippy::expect_used, reason = "abort on a broken run invariant")]

use bpp_bench::{emit, smoke_cell, Opts};
use bpp_core::experiments::channel_sweep;
use bpp_core::report::{fmt_pct, fmt_units, Table};
use bpp_core::{run_steady_state, MeasurementProtocol, SystemConfig};

fn smoke() {
    let mut cfg = SystemConfig {
        think_time_ratio: 10.0,
        num_channels: 4,
        ..smoke_cell()
    };
    cfg.obs.enabled = true;
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    let obs = r.obs.as_ref().expect("obs layer enabled");
    assert!(
        obs.timelines
            .iter()
            .any(|(n, _)| n == "server.ch3.queue_depth"),
        "per-channel timelines present"
    );
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

    let fig = channel_sweep(&base, &proto);
    emit(&fig, &opts);

    // Companion accounting along the loaded curve (the last series — VC
    // intensity grows with TTR): how the slot mix and the pull load
    // redistribute as channels are added.
    let mut t = Table::new(
        "Channel sweep — slot accounting (loaded curve)".to_string(),
        &[
            "channels",
            "mean response",
            "push slots",
            "pull slots",
            "empty",
            "idle",
            "requests",
            "drop rate",
            "p99 response",
        ],
    );
    let loaded = fig.series.last().expect("the sweep always has series");
    for (&(k, _), r) in loaded.points.iter().zip(&loaded.results) {
        t.push_row(vec![
            format!("{k:.0}"),
            fmt_units(r.mean_response),
            r.slots.push_pages.to_string(),
            r.slots.pull_pages.to_string(),
            r.slots.empty.to_string(),
            r.slots.idle.to_string(),
            r.requests_received.to_string(),
            fmt_pct(r.drop_rate),
            r.p99_response.map_or("-".into(), fmt_units),
        ]);
    }
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}
