//! # bpp-core — Balancing Push and Pull for Data Broadcast
//!
//! A from-scratch reproduction of the system studied in:
//!
//! > S. Acharya, M. Franklin, S. Zdonik. *Balancing Push and Pull for Data
//! > Broadcast.* Proc. ACM SIGMOD, Tucson, AZ, May 1997.
//!
//! The paper integrates a pull backchannel into the push-only *Broadcast
//! Disks* dissemination model and studies the trade-off between the two
//! under varying server load. This crate assembles the substrates
//! (`bpp-sim`, `bpp-workload`, `bpp-broadcast`, `bpp-cache`, `bpp-server`,
//! `bpp-client`) into the three data-delivery algorithms the paper compares:
//!
//! * **Pure-Push** — all bandwidth to the periodic Broadcast Disk; clients
//!   wait for pages to come around;
//! * **Pure-Pull** — all bandwidth to request/response with snooping; every
//!   miss is an explicit backchannel request;
//! * **IPP** (Interleaved Push and Pull) — a `PullBW`-weighted mix, with a
//!   client-side threshold to conserve the backchannel and an optionally
//!   truncated ("chopped") push schedule.
//!
//! ## Quick start
//!
//! ```
//! use bpp_core::{Algorithm, SystemConfig, MeasurementProtocol, run_steady_state};
//!
//! let mut cfg = SystemConfig::paper_default();
//! cfg.algorithm = Algorithm::Ipp;
//! cfg.pull_bw = 0.5;
//! cfg.think_time_ratio = 25.0;
//! // Keep the doctest fast: a loose convergence target.
//! let proto = MeasurementProtocol::quick();
//! let result = run_steady_state(&cfg, &proto);
//! assert!(result.mean_response > 0.0);
//! ```
//!
//! The [`experiments`] module regenerates every figure in the paper's
//! evaluation (see DESIGN.md for the experiment index), and [`analytic`]
//! provides closed-form cross-checks.

pub mod adaptive;
pub mod analytic;
pub mod chaos;
pub mod config;
pub mod experiments;
pub mod fault;
pub(crate) mod obs;
pub mod report;
pub mod runner;
pub mod simulation;

pub use chaos::{run_chaos, ChaosResult, FaultPhase, FaultSchedule};
pub use config::{
    Algorithm, CachePolicy, ClientPopulation, ConfigErrors, CrashConfig, FaultConfig,
    MeasurementProtocol, QueueDiscipline, SystemConfig,
};
pub use fault::{ConservationLedger, CrashReport, FaultCounters, FaultLayer, FaultReport};
// The observability knob block and report type are part of the public
// config/result surface; re-export them alongside SystemConfig.
pub use bpp_obs::{ObsConfig, ObsReport};
// The fault-model policy knobs live with their mechanisms; re-export them so
// a `FaultConfig` can be assembled from this crate alone.
pub use bpp_client::{RetryPolicy, RetryState};
pub use bpp_server::{AdmissionConfig, OverflowPolicy, SaturationPolicy};
pub use runner::{
    run_steady_state, run_warmup, FleetResult, RunError, SteadyStateResult, WarmupResult,
};
pub use simulation::{SlotAccounting, World};
