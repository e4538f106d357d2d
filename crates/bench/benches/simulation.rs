//! End-to-end benchmark: simulated broadcast slots per second for each
//! algorithm at a heavy load point (ThinkTimeRatio 100).

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_bench::Group;
use bpp_core::{Algorithm, MeasurementProtocol, SystemConfig, World};

fn main() {
    let mut g = Group::new("simulate_20k_slots");
    g.sample_size(10);
    for algo in [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp] {
        g.bench(algo.name(), || {
            let mut cfg = SystemConfig::paper_default();
            cfg.algorithm = algo;
            cfg.think_time_ratio = 100.0;
            let proto = MeasurementProtocol::quick();
            let mut engine = World::steady_state(&cfg, &proto).into_engine();
            engine.run_until(20_000.0);
            engine.dispatched()
        });
    }
    g.finish();
}
