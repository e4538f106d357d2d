//! # bpp-cache — client cache replacement policies
//!
//! The paper's central cache insight (inherited from \[Acha95a\]) is that in a
//! broadcast environment a page's caching value is *not* its access
//! probability alone: a hot page that flies by every few slots is cheap to
//! re-fetch, while a lukewarm page on a slow disk is expensive to miss.
//!
//! * [`StaticScoreCache`] — cost-based replacement with a fixed per-item
//!   score; instantiate with score `p/x` for **PIX** (push environments) or
//!   score `p` for **P** (Pure-Pull, where every page costs the same to
//!   re-fetch);
//! * [`LruCache`] — least-recently-used, the paper's strawman, kept as an
//!   ablation baseline;
//! * [`LfuCache`] — least-frequently-used, a second recency/frequency
//!   baseline;
//! * [`CacheStats`] — hit/miss/eviction accounting shared by all policies.
//!
//! Items are dense `usize` indexes (database page numbers); policies are
//! deliberately domain-free so they can be tested in isolation.

pub mod lfu;
pub mod lru;
pub mod policy;
pub mod static_score;

pub use lfu::LfuCache;
pub use lru::LruCache;
pub use policy::{CacheStats, ReplacementPolicy};
pub use static_score::StaticScoreCache;
