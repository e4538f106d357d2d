//! Simulation-side observability state: what the [`World`] records when
//! the `obs` config block is enabled, and how it folds into an
//! [`ObsReport`].
//!
//! Everything here is constructed only when `SystemConfig::obs.enabled`
//! is true; a disabled run allocates none of this state and executes the
//! exact pre-observability instruction stream.
//!
//! [`World`]: crate::simulation::World

use bpp_obs::{ObsConfig, ObsReport, Timeline, TraceRing};
use bpp_sim::Welford;

/// Per-run instrumentation state owned by the `World`.
#[derive(Debug, Clone)]
pub(crate) struct ObsState {
    /// The knobs this state was built from (stride feeds the engine probe).
    pub(crate) cfg: ObsConfig,
    /// Distinct-pages-in-queue, sampled at every slot boundary.
    queue_depth: Timeline,
    /// Queueing delay of every served pull (submit → pull slot).
    pull_wait: Welford,
    /// Structured events: saturation transitions, retry resends, ….
    trace: TraceRing,
    /// Virtual-Client requests that passed the threshold filter.
    pub(crate) vc_requests_sent: u64,
    /// Virtual-Client misses the threshold filter swallowed.
    pub(crate) vc_requests_filtered: u64,
    /// Fleet-wide cumulative hit rate, sampled at every slot boundary;
    /// `None` under the aggregate population so its report keys (and the
    /// serialized bytes) only exist when a fleet runs.
    fleet_hit_rate: Option<Timeline>,
    /// Server availability (0 up / 1 down / 2 recovering), sampled at
    /// every slot boundary; `None` unless the crash domain is active.
    fault_state: Option<Timeline>,
    /// Per-disk cumulative share of push slots (padding included — padding
    /// is bandwidth charged to its disk), sampled at every slot boundary;
    /// `None` unless the `disk_share` obs knob is on.
    disk_share: Option<PushShare>,
    /// Per-channel instrumentation; `None` unless `num_channels > 1`, so
    /// single-channel reports keep the paper system's key set.
    channels: Option<ChannelObs>,
}

/// Per-channel timelines of the K-channel world: shard queue depths, the
/// cumulative share of push slots each channel carries, and (when a
/// channel-fault layer runs) each channel's phase-shifted brownout state.
#[derive(Debug, Clone)]
struct ChannelObs {
    /// One `server.ch<k>.queue_depth` timeline per pull shard.
    depth: Vec<Timeline>,
    /// Push slots (pages and padding) carried by each channel, with one
    /// `broadcast.ch<k>.share` timeline per channel.
    share: PushShare,
    /// One `fault.ch<k>.state` timeline per channel (0 clear / 1 browned
    /// out); empty when no channel-fault layer is configured.
    fault_state: Vec<Timeline>,
}

/// Running push-slot counters over `n` buckets (channels or disks) with
/// one cumulative-share timeline per bucket.
#[derive(Debug, Clone)]
struct PushShare {
    /// Push slots charged to each bucket so far.
    counts: Vec<u64>,
    /// Push slots charged overall (the denominator).
    total: u64,
    /// One share timeline per bucket.
    timelines: Vec<Timeline>,
}

impl PushShare {
    fn new(n: usize, stride: f64) -> Self {
        PushShare {
            counts: vec![0; n],
            total: 0,
            timelines: vec![Timeline::new(stride); n],
        }
    }

    /// Charge one push slot to bucket `i`.
    fn charge(&mut self, i: usize) {
        if let Some(n) = self.counts.get_mut(i) {
            *n += 1;
            self.total += 1;
        }
    }

    /// Sample every bucket's cumulative share. Nothing is recorded before
    /// the first push slot (no denominator).
    fn sample(&mut self, now: f64) {
        if self.total > 0 {
            for (tl, &n) in self.timelines.iter_mut().zip(&self.counts) {
                tl.update(now, n as f64 / self.total as f64);
            }
        }
    }
}

impl ObsState {
    /// Structured trace events retained (the most recent ones).
    const TRACE_CAPACITY: usize = 256;

    pub(crate) fn new(cfg: ObsConfig) -> Self {
        ObsState {
            cfg,
            queue_depth: Timeline::new(cfg.timeline_stride),
            pull_wait: Welford::new(),
            trace: TraceRing::new(Self::TRACE_CAPACITY),
            vc_requests_sent: 0,
            vc_requests_filtered: 0,
            fleet_hit_rate: None,
            fault_state: None,
            disk_share: None,
            channels: None,
        }
    }

    /// Start the per-channel timelines of the K-channel extension.
    /// `with_fault_state` adds the per-channel brownout-state timelines
    /// (only meaningful when a channel-fault layer runs).
    pub(crate) fn enable_channels(&mut self, num: usize, with_fault_state: bool) {
        self.channels = Some(ChannelObs {
            depth: vec![Timeline::new(self.cfg.timeline_stride); num],
            share: PushShare::new(num, self.cfg.timeline_stride),
            fault_state: if with_fault_state {
                vec![Timeline::new(self.cfg.timeline_stride); num]
            } else {
                Vec::new()
            },
        });
    }

    /// Sample every shard's queue depth at a slot boundary.
    pub(crate) fn on_slot_channel_depths(&mut self, now: f64, depths: impl Iterator<Item = usize>) {
        if let Some(ch) = &mut self.channels {
            for (tl, d) in ch.depth.iter_mut().zip(depths) {
                tl.update(now, d as f64);
            }
        }
    }

    /// Charge one push slot (page or padding) to channel `k` and to
    /// `disk`.
    pub(crate) fn on_push_slot(&mut self, k: usize, disk: usize) {
        if let Some(ch) = &mut self.channels {
            ch.share.charge(k);
        }
        if let Some(ds) = &mut self.disk_share {
            ds.charge(disk);
        }
    }

    /// Sample every channel's and every disk's cumulative push-slot share
    /// at a slot boundary.
    pub(crate) fn on_slot_share(&mut self, now: f64) {
        if let Some(ch) = &mut self.channels {
            ch.share.sample(now);
        }
        if let Some(ds) = &mut self.disk_share {
            ds.sample(now);
        }
    }

    /// Sample every channel's brownout state (1 browned out, 0 clear) at a
    /// slot boundary; a no-op when the fault-state timelines are off.
    pub(crate) fn on_slot_channel_fault(&mut self, now: f64, states: impl Iterator<Item = f64>) {
        if let Some(ch) = &mut self.channels {
            for (tl, s) in ch.fault_state.iter_mut().zip(states) {
                tl.update(now, s);
            }
        }
    }

    /// Start the fleet hit-rate timeline (fleet populations only).
    pub(crate) fn enable_fleet(&mut self) {
        self.fleet_hit_rate = Some(Timeline::new(self.cfg.timeline_stride));
    }

    /// Start the server-availability timeline (crash domain only).
    pub(crate) fn enable_fault_state(&mut self) {
        self.fault_state = Some(Timeline::new(self.cfg.timeline_stride));
    }

    /// Start the per-disk slot-mix timelines (`disk_share` knob only).
    pub(crate) fn enable_disk_share(&mut self, num_disks: usize) {
        self.disk_share = Some(PushShare::new(num_disks, self.cfg.timeline_stride));
    }

    /// Sample the fleet's cumulative hit rate at a slot boundary.
    pub(crate) fn on_slot_fleet(&mut self, now: f64, hit_rate: f64) {
        if let Some(tl) = &mut self.fleet_hit_rate {
            tl.update(now, hit_rate);
        }
    }

    /// Sample the server availability state at a slot boundary.
    pub(crate) fn on_slot_fault_state(&mut self, now: f64, state: f64) {
        if let Some(tl) = &mut self.fault_state {
            tl.update(now, state);
        }
    }

    /// Sample the pull-queue depth at a slot boundary.
    pub(crate) fn on_slot(&mut self, now: f64, depth: usize) {
        self.queue_depth.update(now, depth as f64);
    }

    /// Record the queueing delay of one served pull request.
    pub(crate) fn record_pull_wait(&mut self, wait: f64) {
        self.pull_wait.record(wait);
    }

    /// Append a structured trace event.
    pub(crate) fn trace(&mut self, t: f64, label: &'static str, value: f64) {
        self.trace.push(t, label, value);
    }

    /// Fold this state into `report`, sealing timelines at `t_end`.
    pub(crate) fn report_into(&self, t_end: f64, report: &mut ObsReport) {
        report.add_timeline("server.queue_depth", self.queue_depth.sealed(t_end));
        if let Some(tl) = &self.fleet_hit_rate {
            report.add_timeline("client.fleet.hit_rate", tl.sealed(t_end));
        }
        if let Some(tl) = &self.fault_state {
            report.add_timeline("fault.state", tl.sealed(t_end));
        }
        if let Some(ds) = &self.disk_share {
            for (k, tl) in ds.timelines.iter().enumerate() {
                report.add_timeline(&format!("broadcast.disk{k}.share"), tl.sealed(t_end));
            }
        }
        if let Some(ch) = &self.channels {
            for (k, tl) in ch.depth.iter().enumerate() {
                report.add_timeline(&format!("server.ch{k}.queue_depth"), tl.sealed(t_end));
            }
            for (k, tl) in ch.share.timelines.iter().enumerate() {
                report.add_timeline(&format!("broadcast.ch{k}.share"), tl.sealed(t_end));
            }
            for (k, tl) in ch.fault_state.iter().enumerate() {
                report.add_timeline(&format!("fault.ch{k}.state"), tl.sealed(t_end));
            }
        }
        let m = &mut report.metrics;
        m.add("server.pull_wait.count", self.pull_wait.count());
        if self.pull_wait.count() > 0 {
            m.gauge("server.pull_wait.mean", self.pull_wait.mean());
            m.gauge("server.pull_wait.max", self.pull_wait.max());
        }
        report.trace = self.trace.clone();
    }
}
