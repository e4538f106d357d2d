//! # bpp-workload — access patterns and think times
//!
//! Workload generation for the push/pull broadcast simulator:
//!
//! * [`Zipf`] — the skewed page-popularity distribution used throughout the
//!   paper (θ = 0.95 over 1000 pages in the base configuration);
//! * [`AliasTable`] — O(1) sampling from any finite discrete distribution
//!   (Walker/Vose alias method), so that drawing millions of Virtual-Client
//!   accesses per run is cheap;
//! * [`NoisePermutation`] — the *Noise* perturbation of \[Acha95a\]: a
//!   controlled divergence between the Measured Client's access pattern and
//!   the population pattern the broadcast program was built for;
//! * [`AccessPattern`] — a rank distribution composed with a rank→item
//!   permutation, yielding per-item probabilities and fast sampling;
//! * [`ThinkTime`] — fixed (Measured Client) and exponential (Virtual
//!   Client) inter-request think times.
//!
//! Items are plain `usize` indexes `0..n`; mapping them onto database page
//! identifiers is the caller's concern (see `bpp-client`).

pub mod access;
pub mod alias;
pub mod noise;
pub mod think;
pub mod zipf;

pub use access::AccessPattern;
pub use alias::AliasTable;
pub use noise::NoisePermutation;
pub use think::ThinkTime;
pub use zipf::Zipf;
