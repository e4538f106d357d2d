//! # bpp-sim — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation engine plus the online
//! statistics used by the `bpp` broadcast-dissemination simulator.
//!
//! The original paper ("Balancing Push and Pull for Data Broadcast",
//! SIGMOD 1997) implemented its model on CSIM, a process-oriented C
//! simulation library. This crate provides the equivalent substrate in an
//! event/state-machine formulation:
//!
//! * logical time is a non-negative `f64` measured in *broadcast units*
//!   (the time to broadcast one page);
//! * events scheduled for the same instant fire in FIFO order (a strict
//!   total order, so runs are bit-for-bit reproducible);
//! * a scheduled event always fires; a model that outgrows a timer tags
//!   the event with a generation counter and ignores it when it fires;
//! * randomness comes only from explicitly seeded generators
//!   (see [`rng`]), never from ambient entropy.
//!
//! The engine is intentionally single-threaded: the simulated system is a
//! totally ordered sequence of broadcast slots and client actions, and
//! determinism is worth far more here than parallel speed. Parameter sweeps
//! parallelise across independent simulations instead.
//!
//! ## Example
//!
//! ```
//! use bpp_sim::{Engine, Model, Scheduler, Time};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Time, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.schedule_in(1.0, Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.scheduler().schedule_at(0.0, Ev::Tick);
//! engine.run_to_completion();
//! assert_eq!(engine.model().fired, 10);
//! assert_eq!(engine.now(), 9.0);
//! ```

pub mod approx;
pub mod engine;
pub mod refsched;
pub mod rng;
pub mod stats;

pub use approx::{approx_eq, exactly, exactly_zero};
pub use bpp_obs::EngineObs;
pub use engine::{Engine, Model, Scheduler, Time};
pub use refsched::ReferenceScheduler;
pub use rng::{stream_rng, Rng, Sample, Stream, Xoshiro256pp};
pub use stats::{BatchMeans, Confidence, Ewma, Histogram, Welford};
