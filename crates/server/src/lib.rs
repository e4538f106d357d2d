//! # bpp-server — the broadcast server model
//!
//! Two server-side mechanisms from the paper:
//!
//! * [`RequestQueue`] — the bounded backchannel queue. Requests for a page
//!   already queued are *coalesced* (the earlier broadcast satisfies both);
//!   requests arriving at a full queue are *dropped*, silently — clients get
//!   no feedback. The queue records the statistics the paper reports
//!   (e.g. "at a ThinkTimeRatio of 50 the server drops 68.8% of the pull
//!   requests it receives when IPP is used").
//! * [`BandwidthMux`] — the Push/Pull multiplexer. Before every slot the
//!   server flips a coin weighted by `PullBW`; heads *and* a non-empty queue
//!   means the slot serves the queue head, otherwise the periodic broadcast
//!   continues. `PullBW` is therefore an upper bound on pull bandwidth:
//!   unused pull slots fall back to push.
//!
//! The queue offers three service disciplines: the paper's FIFO, plus
//! most-requested-first and shortest-latency-first as extension ablations.

pub mod admission;
pub mod mux;
pub mod queue;
pub mod saturation;

pub use admission::{Admission, AdmissionConfig, AdmissionStats};
pub use mux::{BandwidthMux, SlotDecision};
pub use queue::{Discipline, OverflowPolicy, QueueStats, RequestQueue, SubmitOutcome};
pub use saturation::{SaturationDetector, SaturationPolicy, SaturationStats};
