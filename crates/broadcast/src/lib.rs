//! # bpp-broadcast — Broadcast Disks programs
//!
//! Construction and interrogation of *Broadcast Disk* programs, the periodic
//! push schedules of \[Acha95a\] used by "Balancing Push and Pull for Data
//! Broadcast" (SIGMOD 1997).
//!
//! A broadcast program arranges the database on a set of virtual "disks"
//! spinning at different relative speeds: pages on faster disks appear more
//! often in the broadcast cycle. The scheduler here follows the published
//! algorithm:
//!
//! 1. split each disk `i` into `num_chunks(i) = max_chunks / rel_freq(i)`
//!    chunks, where `max_chunks` is the LCM of the relative frequencies;
//! 2. emit `max_chunks` *minor cycles*, each containing the next chunk of
//!    every disk in disk order;
//! 3. pad the final chunk of a disk with empty slots when the disk size
//!    does not divide evenly (unused bandwidth, exactly as in the paper).
//!
//! The crate also provides the two program *transforms* the paper studies:
//!
//! * **Offset** ([`Assignment::with_offset`]): shift the `CacheSize` hottest
//!   pages onto the slowest disk — clients cache them anyway, so broadcasting
//!   them frequently wastes bandwidth;
//! * **Truncation** ([`Assignment::chop`]): remove pages from the broadcast
//!   entirely (slowest disk first), making them pull-only.
//!
//! [`BroadcastProgram`] supports the queries the rest of the system needs:
//! next-arrival distance from a cursor (the client threshold filter),
//! per-page broadcast frequency (the `x` in the PIX cache policy), and
//! closed-form expected delays (the analytic comparator).

pub mod analysis;
pub mod assignment;
pub mod design;
pub mod indexing;
pub mod multichannel;
pub mod program;

pub use analysis::ProgramAnalysis;
pub use assignment::{Assignment, DiskSpec};
pub use design::{design_disks, square_root_frequencies, DiskDesign};
pub use indexing::{optimal_m, IndexedProgram, IndexedSlot};
pub use multichannel::{hot_access_sets, ChannelConflict, MultiChannelProgram};
pub use program::{BroadcastProgram, Slot};

/// Identifier of a database page. Pages are dense indexes `0..ServerDBSize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// The page index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// A page identifier serializes as its bare index (newtype convention).
impl bpp_json::ToJson for PageId {
    fn to_json(&self) -> bpp_json::Json {
        let PageId(index) = self;
        bpp_json::ToJson::to_json(index)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}
