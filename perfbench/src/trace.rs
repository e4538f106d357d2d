//! Wall-time attribution by event kind.
//!
//! The traced loop drives the engine through its public calls only —
//! `Scheduler::peek_live` to find the next event, `Engine::step` to
//! dispatch it — and times each call. The engine's `EngineObs` probe
//! counts dispatches per `Model::event_label`; the kind of the event a
//! step dispatched is the label whose count moved. Nothing inside the
//! simulator is instrumented, so the simulated results are unchanged.

use bpp_core::simulation::World;
use bpp_obs::EngineObs;
use bpp_sim::{Engine, Time};
use std::time::Instant;

/// `World`'s event labels, in `Model::event_label` order.
pub const KINDS: [&str; 5] = ["slot", "mc_wake", "mc_retry", "fleet_wake", "fleet_retry"];

/// Traced wall time, split by event kind.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Nanoseconds inside `step` calls, per kind.
    pub step_ns: [u64; 5],
    /// Events dispatched, per kind.
    pub count: [u64; 5],
    /// Nanoseconds inside `peek_live` calls (head finding and cascades).
    pub peek_ns: u64,
    pub peek_calls: u64,
    /// Wall nanoseconds of the traced loops.
    pub wall_ns: u64,
    /// Per-kind dispatch counts already attributed.
    seen: [u64; 5],
    /// The kind of the previous event, tried first.
    last: usize,
}

impl Attribution {
    /// Step `engine` until its next live event lies beyond `t_end`
    /// (exactly `Engine::run_until`), timing every call.
    pub fn run_until(&mut self, engine: &mut Engine<World>, t_end: Time) {
        self.run(engine, |_, next| next <= t_end);
    }

    /// Step `engine` until the world's stop criterion fires (exactly
    /// `run_steady_state`'s loop), timing every call.
    pub fn run_to_done(&mut self, engine: &mut Engine<World>) {
        self.run(engine, |e, _| !e.model().done());
    }

    fn run(&mut self, engine: &mut Engine<World>, go: impl Fn(&Engine<World>, Time) -> bool) {
        if engine.obs().is_none() {
            // One timeline bucket for the whole run: the probe is here for
            // its per-label counters, not its pending-depth series.
            engine.enable_obs(EngineObs::new(1e12));
        }
        let obs = engine.obs().expect("enabled above");
        for (k, kind) in KINDS.iter().enumerate() {
            self.seen[k] = obs.dispatch_count(kind);
        }
        // Spans are back to back, one clock read per boundary: a `peek_live`
        // span runs from the end of the previous step span, and a step span
        // ends after the dispatched kind is looked up. Each span therefore
        // carries one clock read and (for steps) the probe's bookkeeping;
        // `trace.overhead` measures that cost against an untraced run.
        let start = Instant::now();
        let mut t0 = Instant::now();
        loop {
            let next = engine.scheduler().peek_live();
            let t1 = Instant::now();
            self.peek_ns += nanos(t0, t1);
            self.peek_calls += 1;
            match next {
                Some(t) if go(engine, t) => {}
                _ => break,
            }
            engine.step();
            let k = self.kind_of_last_step(engine.obs().expect("enabled above"));
            t0 = Instant::now();
            self.step_ns[k] += nanos(t1, t0);
            self.count[k] += 1;
        }
        self.wall_ns += nanos(start, Instant::now());
    }

    /// The kind whose dispatch count moved since the last call.
    fn kind_of_last_step(&mut self, obs: &EngineObs) -> usize {
        let moved = |k: usize, seen: &[u64; 5]| obs.dispatch_count(KINDS[k]) != seen[k];
        let k = if moved(self.last, &self.seen) {
            self.last
        } else {
            (0..KINDS.len())
                .find(|&k| moved(k, &self.seen))
                .expect("every step dispatches one labelled event")
        };
        self.seen[k] += 1;
        self.last = k;
        k
    }

    /// Share of traced wall time spent in `ns`.
    pub fn share(&self, ns: u64) -> f64 {
        ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Nanoseconds per event of kind `k` (0 when none ran).
    pub fn ns_per_event(&self, k: usize) -> f64 {
        self.step_ns[k] as f64 / self.count[k].max(1) as f64
    }

    /// Share of traced wall time the spans cover: every `step` plus every
    /// `peek_live`. The rest is the tracing loop's own bookkeeping.
    pub fn coverage(&self) -> f64 {
        self.share(self.step_ns.iter().sum::<u64>() + self.peek_ns)
    }

    /// The "where the wall time went" table.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!(
            "where the wall time went — {title}, {:.3} s traced\n{:<12} {:>12} {:>10} {:>10} {:>7}\n",
            self.wall_ns as f64 / 1e9,
            "kind",
            "count",
            "total_s",
            "ns/event",
            "share"
        );
        let mut row = |name: &str, count: Option<u64>, ns: u64| {
            let (count, per_event) = match count {
                Some(n) => (n.to_string(), format!("{:.1}", ns as f64 / n.max(1) as f64)),
                None => ("-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{name:<12} {count:>12} {:>10.3} {per_event:>10} {:>6.1}%\n",
                ns as f64 / 1e9,
                100.0 * self.share(ns)
            ));
        };
        for (k, kind) in KINDS.iter().enumerate() {
            row(kind, Some(self.count[k]), self.step_ns[k]);
        }
        row("peek_live", Some(self.peek_calls), self.peek_ns);
        let covered = self.step_ns.iter().sum::<u64>() + self.peek_ns;
        row("outside", None, self.wall_ns.saturating_sub(covered));
        out
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}
