//! # bpp-client — client models
//!
//! The paper simulates an arbitrarily large client population with two
//! processes:
//!
//! * the **Measured Client** ([`MeasuredClient`]) — a single closed-loop
//!   client whose response times are the reported metric. It thinks, draws a
//!   page from its (possibly Noise-permuted) Zipf pattern, consults its
//!   cache, optionally sends a pull request (threshold permitting), then
//!   blocks until the page is heard on the frontchannel;
//! * the **Virtual Client** ([`VirtualClient`]) — an open-loop stand-in for
//!   every other client. It draws accesses at rate
//!   `ThinkTimeRatio / MC_ThinkTime`; a `SteadyStatePerc`-weighted coin
//!   decides per access whether it behaves like a warmed-up client (filter
//!   through a static ideal cache) or a cold one (always miss). Surviving
//!   misses pass the threshold filter and land in the server queue.
//!
//! Shared pieces: the [`ThresholdFilter`] (request only pages whose next
//! push appearance is farther than `ThresPerc × MajorCycle` slots away) and
//! the [`WarmupTracker`] (when did the cache first contain X% of its ideal
//! content — Figure 4's metric).

pub mod arena;
pub mod measured;
pub mod retry;
pub mod threshold;
pub mod tuning;
pub mod virtual_client;
pub mod warmup;

pub use arena::{ClientArena, FleetStats, WakeOutcome};
pub use measured::{BeginOutcome, McStats, MeasuredClient};
pub use retry::{RetryPolicy, RetryState};
pub use threshold::ThresholdFilter;
pub use tuning::{best_channel, fallback_channel, route, Route};
pub use virtual_client::{VcAccess, VirtualClient};
pub use warmup::WarmupTracker;
