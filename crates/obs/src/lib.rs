//! Deterministic observability primitives for the bpp simulator.
//!
//! Everything in this crate is keyed by **simulated** time — there are no
//! wall clocks, no global state, and no hash-order dependence, so enabling
//! observability never perturbs a simulation and two identical runs always
//! produce byte-identical reports. The crate provides four building blocks:
//!
//! * [`Metrics`] — a registry of named counters and gauges backed by
//!   `BTreeMap`, so serialization order is the sorted key order.
//! * [`Timeline`] — a time-weighted series with fixed-stride buckets that
//!   downsamples itself (merging adjacent buckets and doubling the stride)
//!   whenever the simulated horizon outgrows the bucket budget, keeping
//!   memory bounded regardless of run length.
//! * [`TraceRing`] — a bounded ring of structured trace events; the oldest
//!   entries are evicted first and the number of evictions is reported.
//! * [`EngineObs`] — the hook object the simulation engine drives: per-label
//!   dispatch counts plus a queue-depth timeline.
//!
//! [`ObsReport`] aggregates all of the above into a single `ToJson`-able
//! value, and [`ObsConfig`] is the (off-by-default) knob block embedded in
//! the simulator configuration.

pub mod config;
pub mod engine_obs;
pub mod metrics;
pub mod report;
pub mod timeline;
pub mod trace;

pub use config::ObsConfig;
pub use engine_obs::EngineObs;
pub use metrics::{CounterHandle, Metrics};
pub use report::ObsReport;
pub use timeline::Timeline;
pub use trace::{TraceEntry, TraceRing};
