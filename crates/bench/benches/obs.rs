//! Microbenchmarks for the observability primitives (counter increment,
//! time-weighted timeline update, trace-ring push) and the end-to-end
//! overhead of running a simulation with the obs layer on vs. off.

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_core::{Algorithm, MeasurementProtocol, SystemConfig, World};
use bpp_obs::{Metrics, Timeline, TraceRing};
use std::hint::black_box;

use bpp_bench::Group;

fn sim_slots(obs: bool) -> u64 {
    let mut cfg = SystemConfig::small();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.think_time_ratio = 10.0;
    cfg.obs.enabled = obs;
    let proto = MeasurementProtocol::quick();
    let mut engine = World::steady_state(&cfg, &proto).into_engine();
    engine.run_until(5_000.0);
    engine.dispatched()
}

fn main() {
    let mut g = Group::new("obs");
    g.sample_size(10);

    {
        // The wired hot path: handle interned once, then a plain array add.
        let mut m = Metrics::new();
        let h = m.counter_handle("engine.dispatch.slot");
        g.bench("metrics_inc", move || {
            m.inc_handle(black_box(h));
        });
    }
    {
        // The by-name convenience path (the pre-interning cost), kept for
        // comparison against the handle path above.
        let mut m = Metrics::new();
        g.bench("metrics_inc_by_name", || {
            m.inc(black_box("engine.dispatch.slot"));
            m.counter("engine.dispatch.slot")
        });
    }
    {
        let mut tl = Timeline::new(100.0);
        let mut t = 0.0_f64;
        g.bench("timeline_update", || {
            t += 1.0;
            tl.update(t, black_box(t % 17.0));
            tl.stride()
        });
    }
    {
        let mut ring = TraceRing::new(256);
        let mut t = 0.0_f64;
        g.bench("trace_push", || {
            t += 1.0;
            ring.push(t, "retry_resend", black_box(t));
            ring.len()
        });
    }

    g.bench("sim_5k_obs_off", || sim_slots(false));
    g.bench("sim_5k_obs_on", || sim_slots(true));

    g.finish();
}
