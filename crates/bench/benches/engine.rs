//! Microbenchmarks for the event-engine hot paths: dispatch throughput
//! (with and without the observability probe) and a fleet world driving
//! the timer wheel.

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_core::{Algorithm, ClientPopulation, MeasurementProtocol, SystemConfig, World};
use bpp_sim::{Engine, EngineObs, Model, Scheduler, Time};
use std::hint::black_box;

use bpp_bench::Group;

/// Self-rescheduling chain: one live event at a time, `remaining` dispatches.
struct Pump {
    remaining: u64,
}

struct Tick;

impl Model for Pump {
    type Event = Tick;
    fn handle(&mut self, _now: Time, _ev: Tick, sched: &mut Scheduler<Tick>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(1.0, Tick);
        }
    }
    fn event_label(_ev: &Tick) -> &'static str {
        "tick"
    }
}

fn dispatch_chain(n: u64, obs: bool) -> u64 {
    let mut engine = Engine::new(Pump { remaining: n });
    if obs {
        engine.enable_obs(EngineObs::new(100.0));
    }
    engine.scheduler().schedule_in(1.0, Tick);
    engine.run_to_completion();
    engine.dispatched()
}

fn main() {
    let mut g = Group::new("engine");
    g.sample_size(10);

    g.bench("dispatch_chain_10k", || dispatch_chain(10_000, false));
    g.bench("dispatch_chain_10k_obs", || dispatch_chain(10_000, true));

    // Fleet events/sec: a 10k-client arena fleet driving the full world
    // for 500 broadcast units — wake/deliver/retry traffic through the
    // timer wheel, not just the bare engine.
    g.bench("fleet_world_10k_clients_500_slots", || {
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::Ipp;
        cfg.pull_bw = 0.5;
        cfg.thres_perc = 0.0;
        cfg.steady_state_perc = 0.95;
        cfg.think_time_ratio = 1.0;
        cfg.seed = 7;
        cfg.population = ClientPopulation::fleet(10_000);
        let proto = MeasurementProtocol::quick();
        let mut engine = World::steady_state(&cfg, &proto).into_engine();
        engine.run_until(black_box(500.0));
        engine.dispatched()
    });

    g.finish();
}
