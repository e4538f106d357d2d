//! The integrated simulation world: server, broadcast channels, Measured
//! Client and Virtual Client, driven by the `bpp-sim` event engine.
//!
//! ## Channels
//!
//! The server airs `num_channels` lock-step channels, each with its own
//! program, schedule cursor, threshold filter and pull shard (a bounded
//! queue, a PullBW coin and an optional saturation watcher). The paper's
//! single channel is the one-shard case of the same code: one program,
//! one cursor, one queue, one coin. Every handler below has one body for
//! every K, and with K = 1 it draws exactly the paper simulator's random
//! variates.
//!
//! ## Event structure
//!
//! * `Slot` — fires at every integer time `t`. Each channel's server
//!   decides (PullBW coin vs. its shard's queue state) whether the slot
//!   `[t, t+1)` carries the pull queue head or the next page of that
//!   channel's periodic program; the page becomes available to clients at
//!   `t + 1`. After the decisions, the handler drains every
//!   Virtual-Client access that arrives during the slot — equivalent in
//!   distribution to individual arrival events (the schedule cursors only
//!   change at slot boundaries) but an order of magnitude cheaper at the
//!   paper's heaviest loads (12.5 VC accesses per unit).
//! * `McWake` — the Measured Client finishes thinking and begins an access.
//!   Hits complete instantly; a miss tunes the client to the channel
//!   airing the page soonest and blocks it until some slot there carries
//!   the page (its own pull, another client's pull, or the push program's
//!   "safety net").
//!
//! ## Measurement phases
//!
//! `CacheWarmup → Skip → Measure` implements the paper's steady-state
//! protocol (measure only after the cache has been full for 4000 accesses,
//! stop when the batch-means CI stabilises). The alternative
//! `WarmupExperiment` phase runs the Figure-4 protocol instead: a cold
//! client, timing how fast the cache acquires its ideal content.

use crate::config::{
    Algorithm, CachePolicy, CrashConfig, MeasurementProtocol, QueueDiscipline, SystemConfig,
};
use crate::fault::{ConservationLedger, CrashReport, FaultLayer, FaultReport};
use crate::obs::ObsState;
use bpp_broadcast::{BroadcastProgram, MultiChannelProgram, PageId, Slot};
use bpp_cache::{LfuCache, LruCache, ReplacementPolicy, StaticScoreCache};
use bpp_client::{
    route, BeginOutcome, ClientArena, MeasuredClient, RetryPolicy, RetryState, ThresholdFilter,
    VcAccess, VirtualClient, WakeOutcome, WarmupTracker,
};
use bpp_json::{Json, ToJson};
use bpp_obs::{EngineObs, ObsReport};
use bpp_server::{
    Admission, BandwidthMux, Discipline, QueueStats, RequestQueue, SaturationDetector,
    SlotDecision, SubmitOutcome,
};
use bpp_sim::{
    stream_rng, BatchMeans, Confidence, Engine, Ewma, Histogram, Model, Rng, Scheduler, Stream,
    Time, Welford, Xoshiro256pp,
};
use bpp_workload::{AccessPattern, NoisePermutation, ThinkTime, Zipf};

/// Events of the integrated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A broadcast slot boundary (integer times).
    Slot,
    /// The Measured Client wakes from its think time.
    McWake,
    /// A pull-request retry timer expired (fault model). `gen` identifies
    /// the access that armed the timer: a stale timer — its access already
    /// completed — is ignored on the generation mismatch.
    McRetry {
        /// Generation counter of the MC access that armed this timer.
        gen: u64,
    },
    /// A fleet client finishes thinking and begins an access
    /// (million-client extension; never scheduled under the aggregate
    /// population).
    FleetWake {
        /// Dense arena index of the client.
        client: u32,
    },
    /// A fleet client's pull-request retry timer expired. Like `McRetry`,
    /// `gen` identifies the access that armed the timer.
    FleetRetry {
        /// Dense arena index of the client.
        client: u32,
        /// Arena retry generation of the access that armed this timer.
        gen: u32,
    },
}

/// Per-kind slot counters over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotAccounting {
    /// Slots carrying a page of the periodic program.
    pub push_pages: u64,
    /// Slots carrying a pull response.
    pub pull_pages: u64,
    /// Program padding slots (chunking remainder).
    pub empty: u64,
    /// Idle slots (no program and an empty queue — Pure-Pull only).
    pub idle: u64,
}

impl SlotAccounting {
    /// Total slots elapsed.
    pub fn total(&self) -> u64 {
        self.push_pages + self.pull_pages + self.empty + self.idle
    }

    /// Fraction of slots that served pulls.
    pub fn pull_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.pull_pages as f64 / t as f64
        }
    }
}

impl ToJson for SlotAccounting {
    fn to_json(&self) -> Json {
        let SlotAccounting {
            push_pages,
            pull_pages,
            empty,
            idle,
        } = self;
        Json::object([
            ("push_pages", push_pages.to_json()),
            ("pull_pages", pull_pages.to_json()),
            ("empty", empty.to_json()),
            ("idle", idle.to_json()),
        ])
    }
}

/// Measurement phase of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Filling the MC cache (steady-state protocol, stage 1).
    CacheWarmup,
    /// Discarding the first accesses after the cache filled (stage 2).
    Skip,
    /// Recording response times (stage 3).
    Measure,
    /// The Figure-4 cold-start experiment: timing cache acquisition.
    WarmupExperiment,
}

/// The server-side update process of the \[Acha96b\] extension: pages are
/// updated at `rate` per broadcast unit; each update invalidates any cached
/// copy at the Measured Client. (The Virtual Client's static steady-state
/// cache is not perturbed — a documented simplification: its role is to
/// generate backchannel load, and Acha96b's autoprefetch keeps warmed
/// caches near-fresh at the moderate rates studied here.)
#[derive(Debug, Clone)]
struct UpdateProcess {
    rate: f64,
    next_at: Time,
    sampler: bpp_workload::AliasTable,
    rng: Xoshiro256pp,
    /// Total updates applied.
    count: u64,
    /// Updates that invalidated an MC-cached page.
    mc_invalidations: u64,
}

impl UpdateProcess {
    fn drain(&mut self, until: Time, mc: &mut MeasuredClient) {
        while self.next_at < until {
            let item = self.sampler.sample(&mut self.rng);
            self.count += 1;
            if mc.invalidate(PageId(item as u32)) {
                self.mc_invalidations += 1;
            }
            let u: f64 = self.rng.random();
            self.next_at += -(1.0 - u).ln() / self.rate;
        }
    }
}

/// Where one backchannel send ended up.
///
/// The paper's channel is silent: a request is enqueued, coalesced with a
/// pending duplicate or dropped at a full queue, and the client hears
/// nothing either way. The fault model adds two more silent ends (lost in
/// transit, browned out); the crash domain adds two with *feedback* — a
/// dead server fails the connection fast, and the admission layer bounces
/// with a retry-after hint — which the retry paths fold into their next
/// delay.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Delivery {
    /// Lost to the `request_loss` transit coin.
    Lost,
    /// The server is down; the connection attempt failed fast.
    Refused,
    /// Discarded inside a brownout window.
    BrownedOut,
    /// The admission token bucket bounced the request with this hint.
    Rejected { retry_after: f64 },
    /// Reached the request queue, which enqueued, coalesced or dropped it.
    Queued(SubmitOutcome),
}

/// Stretch a retry delay after a send with feedback: take the max of the
/// client's own backoff and the server's retry-after hint, then spread
/// the reconnect herd with a uniform jitter factor in
/// `[1, 1 + jitter)`. Draws from `rng` only when the jitter knob is on
/// *and* the send got feedback, so crash-disabled runs draw nothing
/// extra from any stream.
fn reconnect_delay(base: f64, delivery: Delivery, jitter: f64, rng: &mut Xoshiro256pp) -> f64 {
    let floor = match delivery {
        Delivery::Lost | Delivery::BrownedOut | Delivery::Queued(_) => return base,
        Delivery::Refused => base,
        Delivery::Rejected { retry_after } => base.max(retry_after),
    };
    if jitter > 0.0 {
        let u: f64 = rng.random();
        floor * (1.0 + jitter * u)
    } else {
        floor
    }
}

/// The crash–recovery state machine (constructed only when crashes are
/// configured; see [`CrashConfig`]).
///
/// Crash and restart edges are detected at slot boundaries. A crash
/// drains the request queue (orphaning every pending request), resets the
/// saturation detector and adaptive controller, and silences the
/// broadcast until `down_until`. After the restart the server is
/// `recovering` until the Measured Client's response EWMA returns to
/// within `recovery_epsilon` of its pre-crash level; the largest
/// request-grain queue depth seen while recovering is the thundering-herd
/// signature.
#[derive(Debug, Clone)]
struct CrashState {
    cfg: CrashConfig,
    /// Remaining explicit crash times (absolute, ascending).
    schedule: std::collections::VecDeque<f64>,
    next_crash_at: f64,
    down: bool,
    down_until: f64,
    recovering: bool,
    restart_at: f64,
    /// Response-time EWMA feeding the recovery detector (fixed smoothing:
    /// the detector is diagnostic, not a control loop).
    resp_ewma: Ewma,
    /// EWMA level snapshotted at the last crash edge.
    pre_crash_level: f64,
    crashes: u64,
    /// Requests drained from the queue at crash edges (request grain).
    orphaned_drained: u64,
    /// Requests refused while the server was down.
    refused_down: u64,
    down_slots: u64,
    herd_peak_depth: u64,
    recoveries: u64,
    ttr_sum: f64,
    ttr_max: f64,
    first_crash_at: Option<f64>,
}

impl CrashState {
    /// Smoothing factor of the recovery detector's response EWMA.
    const RESPONSE_SMOOTHING: f64 = 0.1;

    fn new(cfg: CrashConfig) -> Self {
        let mut schedule: std::collections::VecDeque<f64> = cfg.schedule.iter().copied().collect();
        let next_crash_at = schedule.pop_front().unwrap_or(f64::INFINITY);
        CrashState {
            cfg,
            schedule,
            next_crash_at,
            down: false,
            down_until: 0.0,
            recovering: false,
            restart_at: 0.0,
            resp_ewma: Ewma::new(Self::RESPONSE_SMOOTHING),
            pre_crash_level: 0.0,
            crashes: 0,
            orphaned_drained: 0,
            refused_down: 0,
            down_slots: 0,
            herd_peak_depth: 0,
            recoveries: 0,
            ttr_sum: 0.0,
            ttr_max: 0.0,
            first_crash_at: None,
        }
    }

    /// Arm the next crash after a restart at `now`. Schedule entries that
    /// fell inside the downtime are skipped (the server was already dead).
    fn schedule_next(&mut self, now: f64) {
        self.next_crash_at = loop {
            match self.schedule.pop_front() {
                Some(t) if t <= now => continue,
                Some(t) => break t,
                None => break f64::INFINITY,
            }
        };
    }
}

/// One channel's pull service: its own bounded queue, PullBW coin and
/// (when degradation is configured) saturation watcher. The backchannel is
/// sharded by tuned channel so a pull response flies on the channel its
/// requesters are listening to.
struct PullShard {
    queue: RequestQueue,
    mux: BandwidthMux,
    saturation: Option<SaturationDetector>,
}

/// The assembled simulation state.
pub struct World {
    /// The broadcast program, one per channel; the paper's single channel
    /// is [`MultiChannelProgram::single`]. With K > 1 it is conflict-free
    /// by construction (every access set confined to one channel;
    /// bpp-verify rule V6).
    channels: MultiChannelProgram,
    /// Per-channel schedule cursors, advanced in lock step: every channel
    /// carries one slot per broadcast unit, so K channels are K-fold
    /// aggregate bandwidth.
    cursors: Vec<usize>,
    /// Per-channel threshold filters (each channel has its own cycle),
    /// shared by every client.
    filters: Vec<ThresholdFilter>,
    /// Per-channel pull service, served in ascending channel order.
    shards: Vec<PullShard>,
    /// The channel the Measured Client is tuned to. Set on every miss and
    /// left in place after delivery — an idle single-tuner radio stays
    /// where it was, which is what gates prefetch to one channel at a time.
    mc_tuned: usize,
    /// Per-channel brownout phase shifts: channel `k`'s backchannel judges
    /// brownout windows at `now + shift[k]`, staggering the windows so one
    /// brownout never blacks out every shard at once. Channel 0 runs at
    /// the base phase (shift `0.0`).
    brownout_shifts: Vec<f64>,
    /// What each channel transmitted in the current slot (reused buffer).
    transmitted: Vec<Option<PageId>>,
    mc: MeasuredClient,
    vc: Option<VirtualClient>,
    /// The arena-backed real client fleet (million-client extension);
    /// `None` under the aggregate population, where the Virtual Client
    /// stands in and the instruction stream is byte-identical to the
    /// pre-fleet simulator.
    fleet: Option<ClientArena>,
    rng_fleet: Xoshiro256pp,
    next_vc_arrival: Time,
    has_backchannel: bool,
    prefetch: bool,
    updates: Option<UpdateProcess>,
    rng_mux: Xoshiro256pp,
    rng_mc: Xoshiro256pp,
    rng_vc: Xoshiro256pp,
    protocol: MeasurementProtocol,
    phase: Phase,
    skip_left: u64,
    warmup_accesses: u64,
    responses: BatchMeans,
    response_dist: Histogram,
    response_spread: Welford,
    queue_stats_at_measure: Option<QueueStats>,
    slots: SlotAccounting,
    adaptive: Option<crate::adaptive::AdaptiveController>,
    done: bool,
    // --- Fault model (all inert when FaultConfig is none()). ---
    /// Lossy channels + brownouts; `None` when no channel faults are
    /// configured (then no fault streams are ever seeded or drawn).
    fault: Option<FaultLayer>,
    /// Whether any part of the fault model is active (gates FaultReport).
    fault_enabled: bool,
    /// The configured pull bandwidth that each shard's saturation watcher
    /// multiplies.
    base_pull_bw: f64,
    retry: RetryPolicy,
    retry_state: RetryState,
    /// Bumped on every MC miss; stale McRetry timers fail the match.
    retry_gen: u64,
    rng_retry: Xoshiro256pp,
    retries: u64,
    retries_exhausted: u64,
    /// Observability state; `None` (the default) records nothing and keeps
    /// the run's instruction stream identical to a build without the layer.
    obs: Option<ObsState>,
    // --- Crash–recovery domain (both None/0 when crashes are off). ---
    /// Crash state machine; `None` means no crash source is configured.
    crash: Option<CrashState>,
    /// Backchannel token bucket; `None` when admission is disabled.
    admission: Option<Admission>,
    /// Reconnect-jitter fraction (0 draws nothing; see `reconnect_delay`).
    reconnect_jitter: f64,
    // --- Conservation audit (plain counters: no RNG, no JSON keys). ---
    /// Backchannel requests sent (MC + VC + fleet, retries included).
    audit_sent: u64,
    /// Largest entry-grain queue depth sampled at a slot boundary.
    peak_queue_depth: u64,
    /// Latest event time the handler has seen (monotonicity check).
    last_event_time: f64,
    /// Times the event clock ran backwards (a clean run keeps this 0).
    time_regressions: u64,
}

impl World {
    /// Build a steady-state world (phase machine `CacheWarmup → Measure`).
    pub fn steady_state(cfg: &SystemConfig, protocol: &MeasurementProtocol) -> Self {
        Self::build(cfg, protocol, Phase::CacheWarmup, false)
    }

    /// Build a warm-up-experiment world (Figure 4): the MC starts cold and
    /// a [`WarmupTracker`] times the acquisition of its ideal cache content.
    pub fn warmup_experiment(cfg: &SystemConfig, protocol: &MeasurementProtocol) -> Self {
        Self::build(cfg, protocol, Phase::WarmupExperiment, true)
    }

    fn build(
        cfg: &SystemConfig,
        protocol: &MeasurementProtocol,
        phase: Phase,
        track_warmup: bool,
    ) -> Self {
        cfg.assert_valid();

        // --- Broadcast program (the server builds it for the population
        // pattern; Pure-Pull broadcasts nothing). The ranked assignment is
        // kept because the K-channel generator partitions it; the
        // single-program frequencies stay the PIX denominator for every K. ---
        let assignment = crate::analytic::build_assignment(cfg);
        let program = BroadcastProgram::generate(&assignment, cfg.db_size);

        // --- Access patterns. ---
        let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
        let population = AccessPattern::population(&zipf);
        let mut rng_noise = stream_rng(cfg.seed, Stream::Noise);
        let mc_pattern = AccessPattern::new(
            &zipf,
            NoisePermutation::new(cfg.db_size, cfg.noise, &mut rng_noise),
        );

        // --- Per-page broadcast frequencies (the PIX denominator). ---
        let freqs: Vec<usize> = (0..cfg.db_size)
            .map(|i| program.frequency(PageId(i as u32)))
            .collect();

        // --- MC cache. ---
        let policy = cfg.effective_cache_policy();
        let make_score_cache = |probs: &[f64]| -> StaticScoreCache {
            match policy {
                CachePolicy::Pix => StaticScoreCache::pix(cfg.cache_size, probs, &freqs),
                CachePolicy::P => StaticScoreCache::p(cfg.cache_size, probs),
                // Unreachable for LRU/LFU; see below.
                CachePolicy::Lru | CachePolicy::Lfu => unreachable!(),
            }
        };
        let (mc_cache, mc_ideal): (Box<dyn ReplacementPolicy>, Vec<usize>) = match policy {
            CachePolicy::Pix | CachePolicy::P => {
                let c = make_score_cache(mc_pattern.probs());
                let ideal = c.ideal_content();
                (Box::new(c), ideal)
            }
            CachePolicy::Lru => (
                Box::new(LruCache::new(cfg.cache_size)),
                mc_pattern.top_items(cfg.cache_size),
            ),
            CachePolicy::Lfu => (
                Box::new(LfuCache::new(cfg.cache_size)),
                mc_pattern.top_items(cfg.cache_size),
            ),
        };

        let mut mc = MeasuredClient::new(mc_pattern, mc_cache, ThinkTime::Fixed(cfg.mc_think_time));
        if track_warmup {
            mc.attach_warmup(WarmupTracker::new(cfg.db_size, &mc_ideal));
        }

        // --- Population model (only when a backchannel exists: under
        // Pure-Push other clients cannot influence the MC at all). The
        // aggregate population is the paper's open-loop Virtual Client; a
        // fleet population replaces it with `fleet_clients` real
        // closed-loop clients in a `ClientArena`, each thinking for
        // `fleet_clients × MC_ThinkTime / ThinkTimeRatio` on average so
        // the fleet's aggregate access rate matches the VC it stands in
        // for (and converges to it as the fleet grows and per-client
        // think time dwarfs per-request flow time). ---
        let has_backchannel = cfg.algorithm != Algorithm::PurePush;
        let (vc, fleet) = if !has_backchannel {
            (None, None)
        } else {
            let steady: Vec<usize> = match cfg.algorithm {
                Algorithm::PurePull => {
                    StaticScoreCache::p(cfg.cache_size, population.probs()).ideal_content()
                }
                _ => StaticScoreCache::pix(cfg.cache_size, population.probs(), &freqs)
                    .ideal_content(),
            };
            if cfg.population.is_fleet() {
                let n = cfg.population.fleet_clients;
                // SteadyStatePerc becomes the warmed fraction: the first
                // ⌊n·ssp⌋ clients start with the ideal cache content, the
                // rest start cold (and warm up through real deliveries).
                let warm = ((n as f64) * cfg.steady_state_perc).floor() as usize;
                let arena = ClientArena::new(
                    n,
                    cfg.db_size,
                    &steady,
                    warm.min(n),
                    ThinkTime::Exponential {
                        mean: n as f64 * cfg.vc_mean_interarrival(),
                    },
                    population,
                );
                (None, Some(arena))
            } else {
                let vc = VirtualClient::new(
                    population,
                    &steady,
                    cfg.steady_state_perc,
                    cfg.vc_mean_interarrival(),
                );
                (Some(vc), None)
            }
        };

        // --- Fault model: construct only what the config enables, so the
        // disabled path is bitwise-identical to the pre-fault simulator. ---
        let fault_cfg = cfg.fault.clone();
        let has_channel_faults = fault_cfg.broadcast_loss > 0.0
            || fault_cfg.request_loss > 0.0
            || fault_cfg.has_brownouts();
        let crash_active = fault_cfg.crash.enabled();
        let fleet_active = fleet.is_some();
        let discipline = match cfg.queue_discipline {
            QueueDiscipline::Fifo => Discipline::Fifo,
            QueueDiscipline::MostRequested => Discipline::MostRequested,
        };
        let make_queue = || {
            let mut q = RequestQueue::with_discipline(cfg.server_queue_size, discipline);
            q.set_overflow(fault_cfg.overflow);
            if cfg.obs.enabled {
                q.track_waits();
            }
            q
        };

        // --- Channels: the paper's single program is the one-channel
        // case; with K > 1 the placement is the one bpp-verify checks. ---
        let k = cfg.num_channels;
        let channels = crate::analytic::build_channels(cfg, &assignment, program, zipf.probs());
        let filters = (0..k)
            .map(|ch| {
                let cycle = channels.channel(ch).major_cycle();
                if cfg.algorithm == Algorithm::PurePull || cycle == 0 {
                    ThresholdFilter::pass_all()
                } else {
                    ThresholdFilter::from_percentage(cfg.thres_perc, cycle)
                }
            })
            .collect();
        let shards = (0..k)
            .map(|_| PullShard {
                queue: make_queue(),
                mux: BandwidthMux::new(cfg.effective_pull_bw()),
                saturation: fault_cfg
                    .degrade
                    .enabled()
                    .then(|| SaturationDetector::new(fault_cfg.degrade)),
            })
            .collect();

        World {
            channels,
            cursors: vec![0; k],
            filters,
            shards,
            mc_tuned: 0,
            brownout_shifts: brownout_shifts(k, fault_cfg.brownout_period),
            transmitted: Vec::with_capacity(k),
            mc,
            vc,
            fleet,
            // Fleet-owned: the bpp-client arena forwards draws into bpp-workload
            // samplers; every draw is fleet-initiated.
            rng_fleet: stream_rng(cfg.seed, Stream::Fleet),
            next_vc_arrival: 0.0,
            has_backchannel,
            prefetch: cfg.mc_prefetch,
            updates: (cfg.update_rate > 0.0).then(|| UpdateProcess {
                rate: cfg.update_rate,
                next_at: 0.0,
                sampler: bpp_workload::AliasTable::new(
                    Zipf::new(cfg.db_size, cfg.zipf_theta).probs(),
                ),
                rng: stream_rng(cfg.seed, Stream::Update),
                count: 0,
                mc_invalidations: 0,
            }),
            rng_mux: stream_rng(cfg.seed, Stream::Mux),
            // Client-owned: bpp-workload samplers draw on the MC stream; every
            // draw is client-initiated.
            rng_mc: stream_rng(cfg.seed, Stream::Mc),
            // Client-owned: bpp-workload samplers draw on the VC stream; every
            // draw is client-initiated.
            rng_vc: stream_rng(cfg.seed, Stream::Vc),
            protocol: *protocol,
            phase,
            skip_left: 0,
            warmup_accesses: 0,
            responses: BatchMeans::new(protocol.batch_size),
            // 4-unit bins out to 4x the paper's major cycle; heavier tails
            // land in the overflow bucket and void the affected quantiles.
            response_dist: Histogram::new(4.0, 1608),
            response_spread: Welford::new(),
            queue_stats_at_measure: None,
            slots: SlotAccounting::default(),
            adaptive: None,
            done: false,
            fault: has_channel_faults.then(|| {
                FaultLayer::new(
                    fault_cfg.clone(),
                    stream_rng(cfg.seed, Stream::FaultLoss),
                    stream_rng(cfg.seed, Stream::FaultReq),
                )
            }),
            fault_enabled: fault_cfg.enabled(),
            base_pull_bw: cfg.effective_pull_bw(),
            retry: fault_cfg.retry,
            retry_state: RetryState::default(),
            retry_gen: 0,
            rng_retry: stream_rng(cfg.seed, Stream::Retry),
            retries: 0,
            retries_exhausted: 0,
            obs: cfg.obs.enabled.then(|| {
                let mut o = ObsState::new(cfg.obs);
                if fleet_active {
                    o.enable_fleet();
                }
                if cfg.obs.disk_share {
                    o.enable_disk_share(cfg.rel_freqs.len());
                }
                if crash_active {
                    o.enable_fault_state();
                }
                // Per-channel timelines only when the broadcast is split, so
                // single-channel reports keep the paper system's key set.
                if k > 1 {
                    o.enable_channels(k, fault_cfg.has_brownouts());
                }
                o
            }),
            crash: crash_active.then(|| CrashState::new(fault_cfg.crash.clone())),
            admission: fault_cfg
                .admission
                .enabled()
                .then(|| Admission::new(fault_cfg.admission)),
            reconnect_jitter: fault_cfg.crash.reconnect_jitter,
            audit_sent: 0,
            peak_queue_depth: 0,
            last_event_time: 0.0,
            time_regressions: 0,
        }
    }

    /// Enable the adaptive-IPP controller (extension; see
    /// [`crate::adaptive`]). Must be called before [`World::into_engine`].
    pub fn enable_adaptive(&mut self, ctrl: crate::adaptive::AdaptiveController) {
        self.adaptive = Some(ctrl);
    }

    /// The adaptive controller, if enabled.
    pub fn adaptive(&self) -> Option<&crate::adaptive::AdaptiveController> {
        self.adaptive.as_ref()
    }

    /// Prime the initial events and wrap the world in an engine. When the
    /// observability layer is on, the engine gets its dispatch probe too.
    pub fn into_engine(mut self) -> Engine<World> {
        if let Some(vc) = &self.vc {
            self.next_vc_arrival = vc.next_interarrival(&mut self.rng_vc);
        } else {
            self.next_vc_arrival = f64::INFINITY;
        }
        // Stagger the fleet's first accesses by one think draw each — an
        // exponential think time is memoryless, so this starts the fleet
        // in its stationary arrival regime instead of a thundering herd.
        let fleet_wakes: Vec<f64> = match &self.fleet {
            Some(fleet) => (0..fleet.len())
                .map(|_| fleet.draw_think(&mut self.rng_fleet))
                .collect(),
            None => Vec::new(),
        };
        let engine_obs = self
            .obs
            .as_ref()
            .map(|o| EngineObs::new(o.cfg.timeline_stride));
        let mut engine = Engine::new(self);
        if let Some(probe) = engine_obs {
            engine.enable_obs(probe);
        }
        engine.scheduler().schedule_at(0.0, Event::Slot);
        engine.scheduler().schedule_at(0.0, Event::McWake);
        for (client, at) in fleet_wakes.into_iter().enumerate() {
            engine.scheduler().schedule_at(
                at,
                Event::FleetWake {
                    client: client as u32,
                },
            );
        }
        engine
    }

    /// True once the run's stop criterion is met.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Current measurement phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The steady-state stopping rule, judged on a finished run: the run
    /// reached the Measure phase and its response-time estimate stabilised
    /// below the access cap.
    pub(crate) fn converged(&self) -> bool {
        let p = &self.protocol;
        self.phase == Phase::Measure
            && self.responses.count() < p.max_accesses
            && self
                .responses
                .converged(Confidence::P95, p.rel_precision, p.min_batches)
    }

    /// Response-time estimator (valid after the Measure phase started).
    pub fn responses(&self) -> &BatchMeans {
        &self.responses
    }

    /// Response-time histogram over the Measure phase (4-unit bins).
    pub fn response_dist(&self) -> &Histogram {
        &self.response_dist
    }

    /// Min/max/variance of measured responses.
    pub fn response_spread(&self) -> &Welford {
        &self.response_spread
    }

    /// Whole-run queue statistics, summed over every pull shard.
    pub fn total_queue_stats(&self) -> QueueStats {
        self.shards
            .iter()
            .fold(QueueStats::default(), |total, s| total + *s.queue.stats())
    }

    /// Per-run saturation-detector totals, summed over every shard:
    /// `(degradations, recoveries, saturated_slots)`, or `None` when no
    /// detector is configured.
    fn saturation_totals(&self) -> Option<(u64, u64, u64)> {
        let mut totals: Option<(u64, u64, u64)> = None;
        for sat in self.shards.iter().filter_map(|s| s.saturation.as_ref()) {
            let s = sat.stats();
            let t = totals.get_or_insert((0, 0, 0));
            t.0 += s.degradations;
            t.1 += s.recoveries;
            t.2 += s.saturated_slots;
        }
        totals
    }

    /// Queue statistics restricted to the measurement window (total minus
    /// the snapshot taken when Measure began). Whole-run stats if the run
    /// never reached Measure.
    pub fn measured_queue_stats(&self) -> QueueStats {
        let total = self.total_queue_stats();
        match self.queue_stats_at_measure {
            None => total,
            Some(at) => total - at,
        }
    }

    /// What the fault model did to this run, or `None` when it is
    /// disabled (keeping serialized results identical to pre-fault output).
    pub fn fault_report(&self) -> Option<FaultReport> {
        if !self.fault_enabled {
            return None;
        }
        let channel = self
            .fault
            .as_ref()
            .map(|f| *f.counters())
            .unwrap_or_default();
        let (degradations, recoveries, saturated_slots) =
            self.saturation_totals().unwrap_or_default();
        let q = self.total_queue_stats();
        Some(FaultReport {
            channel,
            dropped_full: q.dropped_full,
            dropped_evicted: q.dropped_evicted,
            retries: self.retries,
            retries_exhausted: self.retries_exhausted,
            degradations,
            recoveries,
            saturated_slots,
            crash: self.crash_report(),
        })
    }

    /// What the crash–recovery domain did to this run, or `None` when
    /// neither crashes nor admission control are configured.
    pub fn crash_report(&self) -> Option<CrashReport> {
        if self.crash.is_none() && self.admission.is_none() {
            return None;
        }
        let a = self
            .admission
            .as_ref()
            .map(|a| *a.stats())
            .unwrap_or_default();
        let mut report = CrashReport {
            admitted: a.admitted,
            admission_rejected: a.rejected,
            ..CrashReport::default()
        };
        if let Some(c) = &self.crash {
            report.crashes = c.crashes;
            report.orphaned = c.orphaned_drained + c.refused_down;
            report.down_slots = c.down_slots;
            report.herd_peak_depth = c.herd_peak_depth;
            report.recoveries = c.recoveries;
            report.mean_time_to_recover = if c.recoveries > 0 {
                c.ttr_sum / c.recoveries as f64
            } else {
                0.0
            };
            report.max_time_to_recover = c.ttr_max;
            report.first_crash_at = c.first_crash_at;
        }
        Some(report)
    }

    /// The auditor's account of every backchannel request: available after
    /// any run (audit counters are unconditional), meaningful hard-checked
    /// invariants for chaos runs (see
    /// [`ConservationLedger::assert_clean`]).
    pub fn conservation_ledger(&self) -> ConservationLedger {
        let channel = self
            .fault
            .as_ref()
            .map(|f| *f.counters())
            .unwrap_or_default();
        let q = self.total_queue_stats();
        ConservationLedger {
            sent: self.audit_sent,
            lost_in_transit: channel.requests_lost,
            browned_out: channel.requests_browned_out,
            orphaned: self
                .crash
                .as_ref()
                .map_or(0, |c| c.orphaned_drained + c.refused_down),
            admission_rejected: self.admission.as_ref().map_or(0, |a| a.stats().rejected),
            dropped_full: q.dropped_full,
            evicted: q.evicted_requests,
            served: q.served_requests,
            in_flight_at_end: self.shards.iter().map(|s| s.queue.pending_requests()).sum(),
            peak_queue_depth: self.peak_queue_depth,
            // Capacity is per shard, and so is the peak depth it bounds.
            queue_capacity: self.shards.first().map_or(0, |s| s.queue.capacity() as u64),
            time_regressions: self.time_regressions,
        }
    }

    /// Re-point the channel loss rates mid-run (chaos-phase transitions).
    /// A no-op when no channel-fault layer was built — the chaos driver
    /// sizes the build config to the schedule's maximum loss so the layer
    /// exists whenever any phase needs it.
    pub fn set_channel_loss(&mut self, broadcast_loss: f64, request_loss: f64) {
        if let Some(f) = &mut self.fault {
            f.set_channel_loss(broadcast_loss, request_loss);
        }
    }

    /// Re-point the brownout window mid-run (chaos-phase transitions). A
    /// no-op without a channel-fault layer, for the same reason as
    /// [`set_channel_loss`](World::set_channel_loss). The per-channel
    /// phase shifts follow the live period, so the staggering invariant
    /// (`shift[k] = ((K-k) mod K)·period/K`) survives phase changes.
    pub fn set_brownout(&mut self, period: f64, duration: f64) {
        if let Some(f) = &mut self.fault {
            f.set_brownout(period, duration);
            self.brownout_shifts = brownout_shifts(self.shards.len(), period);
        }
    }

    /// Everything the observability layer collected, or `None` when it is
    /// disabled (keeping serialized results identical to pre-obs output).
    ///
    /// `engine_obs` is the engine's dispatch probe (from
    /// [`Engine::obs`](bpp_sim::Engine::obs)); timelines are sealed at
    /// `t_end`, the final simulated time.
    pub fn obs_report(&self, engine_obs: Option<&EngineObs>, t_end: f64) -> Option<ObsReport> {
        let state = self.obs.as_ref()?;
        let mut report = ObsReport::new();
        if let Some(probe) = engine_obs {
            probe.report_into(t_end, &mut report);
        }
        state.report_into(t_end, &mut report);
        let m = &mut report.metrics;
        m.add("server.slots.push", self.slots.push_pages);
        m.add("server.slots.pull", self.slots.pull_pages);
        m.add("server.slots.empty", self.slots.empty);
        m.add("server.slots.idle", self.slots.idle);
        let q = self.total_queue_stats();
        m.add("server.queue.received", q.received);
        m.add("server.queue.enqueued", q.enqueued);
        m.add("server.queue.coalesced", q.coalesced);
        m.add("server.queue.dropped_full", q.dropped_full);
        m.add("server.queue.dropped_evicted", q.dropped_evicted);
        m.add("server.queue.served", q.served);
        if let Some((degradations, recoveries, saturated_slots)) = self.saturation_totals() {
            m.add("server.saturation.degradations", degradations);
            m.add("server.saturation.recoveries", recoveries);
            m.add("server.saturation.saturated_slots", saturated_slots);
        }
        let mc = self.mc.stats();
        m.add("client.mc.accesses", mc.accesses);
        m.add("client.mc.hits", mc.hits);
        m.add("client.mc.misses", mc.misses);
        m.add("client.mc.requests_sent", mc.requests_sent);
        m.add("client.mc.requests_filtered", mc.requests_filtered());
        m.add("client.mc.completed", mc.completed);
        m.add("client.mc.retries", self.retries);
        m.add("client.mc.retries_exhausted", self.retries_exhausted);
        m.add("client.vc.requests_sent", state.vc_requests_sent);
        m.add("client.vc.requests_filtered", state.vc_requests_filtered);
        // Fleet counters exist only under a fleet population, so every
        // aggregate-population report stays byte-identical.
        if let Some(fleet) = &self.fleet {
            let fs = fleet.stats();
            m.add("client.fleet.clients", fleet.len() as u64);
            m.add("client.fleet.accesses", fs.accesses);
            m.add("client.fleet.hits", fs.hits);
            m.add("client.fleet.requests_sent", fs.requests_sent);
            m.add("client.fleet.requests_filtered", fs.requests_filtered);
            m.add("client.fleet.completed", fs.completed);
            m.add("client.fleet.retries", fs.retries);
            m.add("client.fleet.retries_exhausted", fs.retries_exhausted);
        }
        Some(report)
    }

    /// The Measured Client.
    pub fn mc(&self) -> &MeasuredClient {
        &self.mc
    }

    /// The arena client fleet, when a fleet population is configured.
    pub fn fleet(&self) -> Option<&ClientArena> {
        self.fleet.as_ref()
    }

    /// Slot counters.
    pub fn slots(&self) -> &SlotAccounting {
        &self.slots
    }

    /// Channels the broadcast runs on (1 for the paper's system).
    pub fn num_channels(&self) -> usize {
        self.shards.len()
    }

    /// The generated broadcast program, one per channel.
    pub fn channels(&self) -> &MultiChannelProgram {
        &self.channels
    }

    /// Update-process counters: `(updates applied, MC invalidations)`.
    /// Zeros when the read-only base model is running.
    pub fn update_stats(&self) -> (u64, u64) {
        self.updates
            .as_ref()
            .map_or((0, 0), |u| (u.count, u.mc_invalidations))
    }

    /// One MC access finished (hit or delivered miss) with this response
    /// time; advance the phase machine. When the crash domain is live the
    /// response also feeds the recovery detector's EWMA.
    fn complete_mc_access(&mut self, now: Time, response: f64) {
        let recovered = match &mut self.crash {
            Some(c) => {
                let level = c.resp_ewma.record(response);
                if c.recovering && level <= c.pre_crash_level * (1.0 + c.cfg.recovery_epsilon) {
                    c.recovering = false;
                    c.recoveries += 1;
                    let ttr = now - c.restart_at;
                    c.ttr_sum += ttr;
                    if ttr > c.ttr_max {
                        c.ttr_max = ttr;
                    }
                    Some(ttr)
                } else {
                    None
                }
            }
            None => None,
        };
        if let (Some(obs), Some(ttr)) = (&mut self.obs, recovered) {
            obs.trace(now, "recovered", ttr);
        }
        match self.phase {
            Phase::CacheWarmup => {
                self.warmup_accesses += 1;
                // Under update churn the cache may never fill; the access
                // cap keeps the protocol from stalling there.
                if self.mc.cache().is_full()
                    || self.warmup_accesses >= self.protocol.max_warmup_accesses
                {
                    self.skip_left = self.protocol.skip_accesses;
                    self.phase = Phase::Skip;
                    if self.skip_left == 0 {
                        self.enter_measure();
                    }
                }
            }
            Phase::Skip => {
                self.skip_left -= 1;
                if self.skip_left == 0 {
                    self.enter_measure();
                }
            }
            Phase::Measure => {
                self.responses.record(response);
                self.response_dist.record(response);
                self.response_spread.record(response);
                let n = self.responses.count();
                if n >= self.protocol.max_accesses
                    || (n % self.protocol.batch_size == 0
                        && self.responses.converged(
                            Confidence::P95,
                            self.protocol.rel_precision,
                            self.protocol.min_batches,
                        ))
                {
                    self.done = true;
                }
            }
            Phase::WarmupExperiment => {
                if self.mc.warmup().map(WarmupTracker::complete) == Some(true) {
                    self.done = true;
                }
            }
        }
    }

    fn enter_measure(&mut self) {
        self.phase = Phase::Measure;
        self.queue_stats_at_measure = Some(self.total_queue_stats());
    }

    /// Send one backchannel request at time `now` to pull shard `shard`
    /// through every configured layer, in fixed order: transit coin →
    /// crashed-server refusal → brownout (judged at channel `shard`'s
    /// phase-shifted clock) → admission bucket → the bounded, coalescing
    /// queue.
    ///
    /// The transit coin comes first so the `Stream::FaultReq` position
    /// depends only on the send count, never on server-side state; the
    /// remaining layers draw no randomness at all. With no crash domain
    /// configured this is exactly the pre-crash delivery path.
    ///
    /// The send's [`Delivery`] is worked out first, then counted in one
    /// exhaustive `match`, so each send lands in exactly one ledger
    /// bucket.
    fn submit_request(&mut self, now: Time, page: PageId, shard: usize) -> Delivery {
        self.audit_sent += 1;
        let delivery = 'route: {
            if let Some(f) = &mut self.fault {
                if f.transit_lost() {
                    break 'route Delivery::Lost;
                }
            }
            if self.crash.as_ref().is_some_and(|c| c.down) {
                break 'route Delivery::Refused;
            }
            let brownout_clock = now + self.brownout_shifts[shard];
            if self
                .fault
                .as_ref()
                .is_some_and(|f| f.in_brownout(brownout_clock))
            {
                break 'route Delivery::BrownedOut;
            }
            if let Some(a) = &mut self.admission {
                if !a.admit(now) {
                    break 'route Delivery::Rejected {
                        retry_after: a.retry_after(),
                    };
                }
            }
            Delivery::Queued(self.shards[shard].queue.submit_at(page, now))
        };
        match delivery {
            Delivery::Lost => {
                if let Some(f) = &mut self.fault {
                    f.counters.requests_lost += 1;
                }
            }
            Delivery::Refused => {
                if let Some(c) = &mut self.crash {
                    c.refused_down += 1;
                }
            }
            Delivery::BrownedOut => {
                if let Some(f) = &mut self.fault {
                    f.counters.requests_browned_out += 1;
                }
            }
            // `Admission::admit` counted the bounce (`AdmissionStats::rejected`).
            Delivery::Rejected { .. } => {}
            // `RequestQueue::submit_at` counted it in `QueueStats`.
            Delivery::Queued(_) => {}
        }
        delivery
    }

    /// Point every shard's PullBW and every channel's threshold at new
    /// settings (adaptive controller decisions and crash resets).
    /// Channels without a push cycle keep their pass-all filter.
    fn set_knobs(&mut self, pull_bw: f64, thres_perc: f64) {
        self.base_pull_bw = pull_bw;
        for shard in &mut self.shards {
            shard.mux.set_pull_bw(pull_bw);
        }
        for (k, filter) in self.filters.iter_mut().enumerate() {
            let cycle = self.channels.channel(k).major_cycle();
            if cycle > 0 {
                *filter = ThresholdFilter::from_percentage(thres_perc, cycle);
            }
        }
    }

    /// Detect restart and crash edges at a slot boundary (crash domain
    /// only; callers gate on `self.crash.is_some()`).
    fn crash_edges(&mut self, now: Time) {
        // Restart edge first: the downtime elapsed, the server comes back
        // cold. (A crash can then strike again at this very boundary.)
        let restarted = match &mut self.crash {
            Some(c) if c.down && now >= c.down_until => {
                c.down = false;
                c.recovering = true;
                c.restart_at = now;
                c.schedule_next(now);
                true
            }
            _ => false,
        };
        if restarted {
            if let Some(a) = &mut self.admission {
                a.restart_cold(now);
            }
            if let Some(obs) = &mut self.obs {
                obs.trace(now, "restart", 0.0);
            }
        }
        let crashed = match &mut self.crash {
            Some(c) if !c.down && now >= c.next_crash_at => {
                c.down = true;
                c.down_until = now + c.cfg.downtime;
                c.crashes += 1;
                if c.first_crash_at.is_none() {
                    c.first_crash_at = Some(now);
                }
                // A crash mid-recovery abandons that recovery: it never
                // counts as recovered.
                c.recovering = false;
                c.pre_crash_level = c.resp_ewma.value();
                true
            }
            _ => false,
        };
        if crashed {
            // Volatile server state dies: every shard's pending requests
            // are orphaned, the saturation EWMAs and the adaptive
            // controller's learning are gone. Run-level counters survive —
            // they belong to the measurement, not to server memory.
            let mut orphans = 0;
            for s in &mut self.shards {
                orphans += s.queue.crash_drain();
                if let Some(sat) = &mut s.saturation {
                    sat.crash_reset();
                }
            }
            if let Some(c) = &mut self.crash {
                c.orphaned_drained += orphans;
            }
            let agg = self.total_queue_stats();
            if let Some((bw, thres)) = self.adaptive.as_mut().map(|ctrl| ctrl.crash_reset(&agg)) {
                self.set_knobs(bw, thres);
            }
            if let Some(obs) = &mut self.obs {
                obs.trace(now, "crash", orphans as f64);
            }
        }
    }

    /// Process every VC access arriving before `until`.
    ///
    /// Both VC draws (the access and the next inter-arrival) come off
    /// `rng_vc` before the request is submitted; the submit path draws only
    /// from the fault streams, so this ordering keeps the `Stream::Vc`
    /// draw sequence identical to the pre-observability handler.
    fn drain_vc(&mut self, until: Time) {
        if self.vc.is_none() {
            return;
        }
        while self.next_vc_arrival < until {
            let at = self.next_vc_arrival;
            let Some(vc) = &mut self.vc else {
                return;
            };
            let access = vc.access(&mut self.rng_vc);
            self.next_vc_arrival += vc.next_interarrival(&mut self.rng_vc);
            if let VcAccess::Miss(page) = access {
                // The access tunes to the best channel and is filtered
                // against that channel's schedule.
                let route = route(&self.channels, &self.cursors, &self.filters, page);
                if route.send_request {
                    // VC requests ride the same lossy backchannel as the
                    // MC's (brownouts judged at the actual arrival time).
                    self.submit_request(at, page, route.channel);
                    if let Some(obs) = &mut self.obs {
                        obs.vc_requests_sent += 1;
                    }
                } else if let Some(obs) = &mut self.obs {
                    obs.vc_requests_filtered += 1;
                }
            }
        }
    }

    /// Sample the per-slot observability timelines (obs layer only).
    fn sample_obs(&mut self, now: Time) {
        let Some(obs) = &mut self.obs else {
            return;
        };
        obs.on_slot(now, self.shards.iter().map(|s| s.queue.len()).sum());
        obs.on_slot_channel_depths(now, self.shards.iter().map(|s| s.queue.len()));
        obs.on_slot_share(now);
        if let Some(f) = &self.fault {
            obs.on_slot_channel_fault(
                now,
                self.brownout_shifts
                    .iter()
                    .map(|&shift| f64::from(f.in_brownout(now + shift))),
            );
        }
        if let Some(fleet) = &self.fleet {
            obs.on_slot_fleet(now, fleet.stats().hit_rate());
        }
        if let Some(c) = &self.crash {
            let state = if c.down {
                1.0
            } else if c.recovering {
                2.0
            } else {
                0.0
            };
            obs.on_slot_fault_state(now, state);
        }
    }

    /// One broadcast unit. Every channel carries one slot per unit (K
    /// channels = K-fold aggregate bandwidth); each channel runs its own
    /// saturation watcher, MUX coin and pull shard, always in ascending
    /// channel order so the `Stream::Mux` draw sequence is a
    /// deterministic function of the shard backlogs.
    fn on_slot(&mut self, now: Time, sched: &mut Scheduler<Event>) {
        if now >= self.protocol.max_sim_time {
            self.done = true;
            return;
        }
        // Peak depth is the worst single shard: capacity is per shard, so
        // the ledger's depth-vs-capacity comparison stays meaningful.
        for s in &self.shards {
            self.peak_queue_depth = self.peak_queue_depth.max(s.queue.len() as u64);
        }
        if self.crash.is_some() {
            self.crash_edges(now);
        }
        self.sample_obs(now);
        // A dead server broadcasts nothing on any channel and serves no
        // pulls; the clients' own processes (VC arrivals, update stream,
        // retry timers already in flight) keep running against it.
        let down = match &mut self.crash {
            Some(c) if c.down => {
                c.down_slots += 1;
                true
            }
            _ => false,
        };
        if !down {
            if let Some(c) = &mut self.crash {
                if c.recovering {
                    let herd = self.shards.iter().map(|s| s.queue.pending_requests()).sum();
                    c.herd_peak_depth = c.herd_peak_depth.max(herd);
                }
            }
            self.transmit(now);
            self.deliver(now, sched);
        }
        // VC accesses land during this slot; they are eligible for service
        // from the next slot on.
        self.drain_vc(now + 1.0);
        if let Some(up) = &mut self.updates {
            up.drain(now + 1.0, &mut self.mc);
        }
        if !down && self.adaptive.is_some() {
            let agg = self.total_queue_stats();
            if let Some((bw, thres)) = self.adaptive.as_mut().and_then(|c| c.on_slot(&agg)) {
                self.set_knobs(bw, thres);
            }
        }
        sched.schedule_at(now + 1.0, Event::Slot);
    }

    /// Decide and transmit one slot per channel into `self.transmitted`:
    /// each shard's saturation watcher sheds its own pull bandwidth, then
    /// its MUX coin picks the queue head or the channel's next push slot.
    fn transmit(&mut self, now: Time) {
        self.transmitted.clear();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            if let Some(sat) = &mut shard.saturation {
                let was_saturated = sat.is_saturated();
                let mult = sat.observe(shard.queue.len(), shard.queue.capacity());
                shard.mux.set_pull_bw(self.base_pull_bw * mult);
                if sat.is_saturated() != was_saturated {
                    if let Some(obs) = &mut self.obs {
                        let label = if sat.is_saturated() {
                            "saturation_on"
                        } else {
                            "saturation_off"
                        };
                        obs.trace(now, label, sat.occupancy());
                    }
                }
            }
            let page = match shard.mux.decide(shard.queue.is_empty(), &mut self.rng_mux) {
                SlotDecision::ServePull => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the MUX decides ServePull only when queue_empty is false"
                    )]
                    let (p, wait) = shard
                        .queue
                        .pop_wait(now)
                        .expect("MUX only pulls when non-empty");
                    if let (Some(obs), Some(w)) = (&mut self.obs, wait) {
                        obs.record_pull_wait(w);
                    }
                    self.slots.pull_pages += 1;
                    Some(p)
                }
                SlotDecision::ContinuePush => {
                    let program = self.channels.channel(k);
                    let cycle = program.major_cycle();
                    if cycle == 0 {
                        self.slots.idle += 1;
                        None
                    } else {
                        let cursor = self.cursors[k];
                        self.cursors[k] = (cursor + 1) % cycle;
                        if let Some(obs) = &mut self.obs {
                            // Padding slots too: they are bandwidth charged
                            // to the channel and disk whose chunking
                            // produced them.
                            obs.on_push_slot(k, program.disk_of_slot(cursor));
                        }
                        match program.slot(cursor) {
                            Slot::Page(p) => {
                                self.slots.push_pages += 1;
                                Some(p)
                            }
                            Slot::Empty => {
                                self.slots.empty += 1;
                                None
                            }
                        }
                    }
                }
            };
            self.transmitted.push(page);
        }
    }

    /// Deliver this slot's transmissions, which complete at `now + 1`. A
    /// single-tuner client hears exactly one channel. The generator puts
    /// every page on one channel (and requests shard the same way), so a
    /// page's waiters are always tuned where it flies; the tuned gate
    /// matters for the Measured Client's opportunistic prefetch only.
    fn deliver(&mut self, now: Time, sched: &mut Scheduler<Event>) {
        for k in 0..self.transmitted.len() {
            let Some(p) = self.transmitted[k] else {
                continue;
            };
            // A lost slot still burns the bandwidth: the page was
            // transmitted but no listener heard it.
            if let Some(f) = &mut self.fault {
                if f.page_lost() {
                    continue;
                }
            }
            if self.mc_tuned == k {
                if let Some(resp) = self.mc.on_broadcast(now + 1.0, p) {
                    self.complete_mc_access(now + 1.0, resp);
                    let think = self.mc.draw_think(&mut self.rng_mc);
                    sched.schedule_at(now + 1.0 + think, Event::McWake);
                } else if self.prefetch {
                    self.mc.prefetch(now + 1.0, p);
                }
            }
            // Batch-complete every fleet client blocked on this page in
            // one pass over exactly those waiters.
            if let Some(fleet) = &mut self.fleet {
                for &(client, at) in fleet.deliver(p, now + 1.0, &mut self.rng_fleet) {
                    sched.schedule_at(at, Event::FleetWake { client });
                }
            }
        }
    }

    /// The Measured Client wakes and begins an access; a miss tunes it to
    /// the channel airing the page soonest and requests through that
    /// channel's shard when the threshold lets it.
    fn on_mc_wake(&mut self, now: Time, sched: &mut Scheduler<Event>) {
        match self.mc.begin_access(
            now,
            &self.channels,
            &self.cursors,
            &self.filters,
            &mut self.rng_mc,
        ) {
            BeginOutcome::Hit { .. } => {
                self.complete_mc_access(now, 0.0);
                let think = self.mc.draw_think(&mut self.rng_mc);
                sched.schedule_in(think, Event::McWake);
            }
            BeginOutcome::Miss {
                page,
                send_request,
                channel,
            } => {
                self.mc_tuned = channel;
                // Invalidate any retry timer armed for an earlier access,
                // whether or not this one sends a request.
                self.retry_gen += 1;
                if self.has_backchannel && send_request {
                    let outcome = self.submit_request(now, page, channel);
                    if self.retry.enabled() {
                        self.retry_state = RetryState::arm();
                        if let Some(d) = self
                            .retry_state
                            .next_delay(&self.retry, &mut self.rng_retry)
                        {
                            let d = reconnect_delay(
                                d,
                                outcome,
                                self.reconnect_jitter,
                                &mut self.rng_retry,
                            );
                            sched.schedule_at(
                                now + d,
                                Event::McRetry {
                                    gen: self.retry_gen,
                                },
                            );
                        }
                    }
                }
                // The client now blocks; a delivered slot completes it.
            }
        }
    }

    /// A Measured Client retry timer expired: resend to the shard of the
    /// channel it tuned to at the miss (a page's channel never changes
    /// mid-run), or fall back to the broadcast once the budget is spent.
    fn on_mc_retry(&mut self, now: Time, gen: u64, sched: &mut Scheduler<Event>) {
        if gen != self.retry_gen {
            return; // stale timer from a finished access
        }
        let Some(page) = self.mc.waiting_on() else {
            return;
        };
        match self
            .retry_state
            .next_delay(&self.retry, &mut self.rng_retry)
        {
            Some(delay) => {
                self.retries += 1;
                if let Some(obs) = &mut self.obs {
                    obs.trace(now, "retry_resend", delay);
                }
                let outcome = self.submit_request(now, page, self.mc_tuned);
                let delay =
                    reconnect_delay(delay, outcome, self.reconnect_jitter, &mut self.rng_retry);
                sched.schedule_at(now + delay, Event::McRetry { gen });
            }
            None => {
                // Retry budget exhausted: fall back to waiting for the page
                // on the periodic broadcast.
                self.retries_exhausted += 1;
                if let Some(obs) = &mut self.obs {
                    obs.trace(now, "retry_exhausted", self.retry_state.attempts() as f64);
                }
            }
        }
    }

    /// A fleet client wakes and begins an access; a sent miss rides the
    /// same lossy backchannel as the MC's and VC's, sharded by the
    /// client's tuned channel.
    fn on_fleet_wake(&mut self, now: Time, client: u32, sched: &mut Scheduler<Event>) {
        let Some(fleet) = &mut self.fleet else {
            return;
        };
        let (page, channel) = match fleet.wake(
            client,
            now,
            &self.channels,
            &self.cursors,
            &self.filters,
            &mut self.rng_fleet,
        ) {
            WakeOutcome::Hit { next_wake } => {
                sched.schedule_at(next_wake, Event::FleetWake { client });
                return;
            }
            // Filtered: the client waits for the push schedule.
            WakeOutcome::Miss {
                send_request: false,
                ..
            } => return,
            WakeOutcome::Miss { page, channel, .. } => (page, channel),
        };
        let outcome = self.submit_request(now, page, channel);
        if !self.retry.enabled() {
            return;
        }
        let armed = self.fleet.as_mut().and_then(|fleet| {
            let gen = fleet.arm_retry(client);
            fleet
                .next_retry_delay(client, &self.retry, &mut self.rng_fleet)
                .map(|d| (gen, d))
        });
        if let Some((gen, d)) = armed {
            let d = reconnect_delay(d, outcome, self.reconnect_jitter, &mut self.rng_fleet);
            sched.schedule_at(now + d, Event::FleetRetry { client, gen });
        }
    }

    /// A fleet client's retry timer expired: resend to its tuned shard,
    /// or fall back to the push schedule once the budget is spent.
    fn on_fleet_retry(&mut self, now: Time, client: u32, gen: u32, sched: &mut Scheduler<Event>) {
        let Some(fleet) = &mut self.fleet else {
            return;
        };
        if fleet.retry_gen(client) != gen {
            return; // stale timer from a completed access
        }
        // A blocked client is always tuned to the shard it requested on.
        let (Some(page), Some(shard)) = (fleet.waiting_on(client), fleet.tuned_channel(client))
        else {
            return;
        };
        let Some(delay) = fleet.next_retry_delay(client, &self.retry, &mut self.rng_fleet) else {
            // Budget spent: the push schedule is the reliability floor,
            // same as for the MC.
            fleet.note_retry_exhausted();
            return;
        };
        fleet.note_retry();
        let outcome = self.submit_request(now, page, shard);
        let delay = reconnect_delay(delay, outcome, self.reconnect_jitter, &mut self.rng_fleet);
        sched.schedule_at(now + delay, Event::FleetRetry { client, gen });
    }
}

/// Per-channel brownout phase shifts `((K − k) mod K) · period / K`:
/// evenly staggered across the period, with channel 0 at the base phase.
fn brownout_shifts(num_channels: usize, period: f64) -> Vec<f64> {
    (0..num_channels)
        .map(|k| ((num_channels - k) % num_channels) as f64 * period / num_channels as f64)
        .collect()
}

impl Model for World {
    type Event = Event;

    fn event_label(event: &Event) -> &'static str {
        match event {
            Event::Slot => "slot",
            Event::McWake => "mc_wake",
            Event::McRetry { .. } => "mc_retry",
            Event::FleetWake { .. } => "fleet_wake",
            Event::FleetRetry { .. } => "fleet_retry",
        }
    }

    fn handle(&mut self, now: Time, event: Event, sched: &mut Scheduler<Event>) {
        // Monotone-time audit: the scheduler contract is non-decreasing
        // dispatch times; count (don't mask) any violation.
        if now < self.last_event_time {
            self.time_regressions += 1;
        } else {
            self.last_event_time = now;
        }
        match event {
            Event::Slot => self.on_slot(now, sched),
            Event::McWake => self.on_mc_wake(now, sched),
            Event::McRetry { gen } => self.on_mc_retry(now, gen, sched),
            Event::FleetWake { client } => self.on_fleet_wake(now, client, sched),
            Event::FleetRetry { client, gen } => self.on_fleet_retry(now, client, gen, sched),
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::config::FaultConfig;
    use bpp_server::{AdmissionConfig, OverflowPolicy};

    fn quick_cfg(algorithm: Algorithm) -> SystemConfig {
        let mut c = SystemConfig::small();
        c.algorithm = algorithm;
        c
    }

    fn run(cfg: &SystemConfig) -> Engine<World> {
        let proto = MeasurementProtocol::quick();
        let mut engine = World::steady_state(cfg, &proto).into_engine();
        engine.run_while(|w| !w.done());
        engine
    }

    #[test]
    fn pure_push_reaches_measurement_and_converges() {
        let engine = run(&quick_cfg(Algorithm::PurePush));
        let w = engine.model();
        assert_eq!(w.phase(), Phase::Measure);
        assert!(w.responses().count() > 0);
        assert!(w.responses().mean() > 0.0);
        // No backchannel: no pull slots, no queue traffic.
        assert_eq!(w.slots().pull_pages, 0);
        assert_eq!(w.total_queue_stats().received, 0);
    }

    #[test]
    fn pure_pull_serves_everything_from_the_queue() {
        let engine = run(&quick_cfg(Algorithm::PurePull));
        let w = engine.model();
        assert_eq!(w.slots().push_pages, 0);
        assert_eq!(w.slots().empty, 0);
        assert!(w.slots().pull_pages > 0);
        assert!(w.total_queue_stats().received > 0);
        assert!(w.responses().mean() > 0.0);
    }

    #[test]
    fn ipp_mixes_push_and_pull() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        let engine = run(&cfg);
        let w = engine.model();
        assert!(w.slots().push_pages > 0, "IPP must push");
        assert!(w.slots().pull_pages > 0, "IPP must pull");
        // PullBW bounds the pull share (with slack for the bounded run).
        assert!(
            w.slots().pull_fraction() <= 0.55,
            "{}",
            w.slots().pull_fraction()
        );
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let cfg = quick_cfg(Algorithm::Ipp);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.model().responses().mean(), b.model().responses().mean());
        assert_eq!(a.model().slots(), b.model().slots());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.dispatched(), b.dispatched());
    }

    #[test]
    fn obs_layer_does_not_perturb_the_simulation() {
        // The golden-safety invariant: enabling observability changes no
        // simulated outcome — same responses, same slots, same event count.
        let base = quick_cfg(Algorithm::Ipp);
        let mut with_obs = base.clone();
        with_obs.obs.enabled = true;
        let a = run(&base);
        let b = run(&with_obs);
        assert_eq!(a.model().responses().mean(), b.model().responses().mean());
        assert_eq!(a.model().slots(), b.model().slots());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.dispatched(), b.dispatched());
        assert!(a.obs().is_none());
        assert!(b.obs().is_some());
    }

    #[test]
    fn disk_share_timelines_cover_every_disk_and_sum_to_one() {
        for channels in [1, 2] {
            let mut cfg = quick_cfg(Algorithm::Ipp);
            cfg.num_channels = channels;
            cfg.obs.enabled = true;
            cfg.obs.disk_share = true;
            let engine = run(&cfg);
            let report = engine
                .model()
                .obs_report(engine.obs(), engine.now())
                .expect("obs enabled");
            let shares: Vec<f64> = (0..cfg.rel_freqs.len())
                .map(|k| {
                    let key = format!("broadcast.disk{k}.share");
                    let (_, tl) = report
                        .timelines
                        .iter()
                        .find(|(name, _)| *name == key)
                        .expect("per-disk timeline present");
                    let (_, mean, _) = *tl.points().last().expect("disk was sampled");
                    mean
                })
                .collect();
            // All disks sample at the same instants, so the per-bucket
            // means of the cumulative shares still partition the
            // broadcast: sum 1.
            let total: f64 = shares.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "K={channels}: shares {shares:?}"
            );
            // Every disk carries slots, on every channel count.
            assert!(shares.iter().all(|&s| s > 0.0), "K={channels}: {shares:?}");
        }
    }

    #[test]
    fn disk_share_knob_off_emits_no_timeline() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.obs.enabled = true;
        let engine = run(&cfg);
        let report = engine
            .model()
            .obs_report(engine.obs(), engine.now())
            .expect("obs enabled");
        assert!(report
            .timelines
            .iter()
            .all(|(name, _)| !name.starts_with("broadcast.disk")));
    }

    #[test]
    fn obs_report_is_bit_reproducible() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.obs.enabled = true;
        let render = || {
            let engine = run(&cfg);
            let report = engine
                .model()
                .obs_report(engine.obs(), engine.now())
                .expect("obs enabled");
            bpp_json::to_string(&report)
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn obs_report_is_consistent_with_the_run() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        cfg.obs.enabled = true;
        let engine = run(&cfg);
        let w = engine.model();
        let report = w
            .obs_report(engine.obs(), engine.now())
            .expect("obs enabled");
        let m = &report.metrics;
        // Engine dispatch counters agree with the world's slot accounting
        // (the final Slot dispatch may stop at max_sim_time unaccounted).
        assert!(m.counter("engine.dispatch.slot") >= w.slots().total());
        assert!(m.counter("engine.dispatch.mc_wake") > 0);
        assert_eq!(m.counter("server.slots.pull"), w.slots().pull_pages);
        assert_eq!(
            m.counter("server.queue.served"),
            w.total_queue_stats().served
        );
        // Every served pull has a tracked wait, and waits are plausible.
        assert_eq!(
            m.counter("server.pull_wait.count"),
            w.total_queue_stats().served
        );
        assert!(m.gauge_value("server.pull_wait.mean").unwrap() >= 0.0);
        // MC counters mirror McStats; every miss either sent or filtered.
        let mc = w.mc().stats();
        assert_eq!(m.counter("client.mc.misses"), mc.misses);
        assert_eq!(
            m.counter("client.mc.requests_sent") + m.counter("client.mc.requests_filtered"),
            mc.misses
        );
        // The queue-depth timeline was sealed at the end of the run.
        let depth = report
            .timelines
            .iter()
            .find(|(name, _)| name == "server.queue_depth")
            .expect("queue depth timeline present");
        assert!(!depth.1.points().is_empty());
    }

    /// Little's law on the pull queue, checked against the obs layer:
    /// returns the time integral of `server.queue_depth`, the summed
    /// queueing delay of every entry (`pull_wait` of the served ones plus
    /// the wait so far of those still queued at the end), and the numbers
    /// of served and still-queued entries.
    fn littles_law_sides(think_time_ratio: f64) -> (f64, f64, u64, u64) {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        cfg.think_time_ratio = think_time_ratio;
        cfg.obs.enabled = true;
        assert_eq!(cfg.fault.overflow, OverflowPolicy::DropNewest);
        assert!(!cfg.fault.crash.enabled());
        let engine = run(&cfg);
        let w = engine.model();
        let t_end = engine.now();
        let report = w.obs_report(engine.obs(), t_end).expect("obs enabled");
        let depth = report
            .timelines
            .iter()
            .find(|(name, _)| name == "server.queue_depth")
            .expect("queue depth timeline present");
        let m = &report.metrics;
        let served = m.counter("server.pull_wait.count");
        let mut waits = served as f64 * m.gauge_value("server.pull_wait.mean").unwrap_or(0.0);
        let mut left = w.shards[0].queue.clone();
        let queued = left.len() as u64;
        while let Some((_, wait)) = left.pop_wait(t_end) {
            waits += wait.expect("every entry is stamped: tracking starts at build");
        }
        let q = w.total_queue_stats();
        assert_eq!(served, q.served, "every served entry has a wait");
        assert_eq!(served + queued, q.enqueued, "nothing evicted or lost");
        (depth.1.integral(), waits, served, queued)
    }

    /// Depth is sampled at slot boundaries, so an entry counts toward the
    /// integral from the first boundary after it arrives up to and
    /// including the boundary at which it is served, or up to the end of
    /// the run. Its share of the integral and its wait therefore differ by
    /// at most one unit: a served entry's share exceeds its wait by less
    /// than 1 bu, and a still-queued entry's share falls short of its wait
    /// by at most 1 bu. Summed over the entries, the gap lies in
    /// `[-queued, served]` bu.
    #[test]
    fn queue_depth_integral_matches_summed_waits() {
        // Below saturation, then the paper's heaviest load.
        for ttr in [10.0, 250.0] {
            let (integral, waits, served, queued) = littles_law_sides(ttr);
            assert!(served > 0, "TTR {ttr}: the pull queue served entries");
            let gap = integral - waits;
            assert!(
                -(queued as f64) <= gap && gap <= served as f64,
                "TTR {ttr}: depth integral {integral} vs summed waits {waits} \
                 ({served} served, {queued} still queued)"
            );
        }
    }

    #[test]
    fn obs_traces_retries_under_faults() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.fault = FaultConfig::lossy(0.3);
        cfg.obs.enabled = true;
        let engine = run(&cfg);
        let w = engine.model();
        let report = w
            .obs_report(engine.obs(), engine.now())
            .expect("obs enabled");
        assert_eq!(report.metrics.counter("client.mc.retries"), {
            w.fault_report().expect("faults on").retries
        });
        // Heavy request loss forces resends; each leaves a trace event
        // (unless the small ring already evicted them all, which a
        // quick-protocol run never does at capacity 256).
        if report.metrics.counter("client.mc.retries") > 0 {
            assert!(
                report.trace.entries().any(|e| e.label == "retry_resend")
                    || report.trace.dropped() > 0
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = quick_cfg(Algorithm::Ipp);
        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 0xDEAD;
        let a = run(&cfg);
        let b = run(&cfg2);
        assert_ne!(a.model().responses().mean(), b.model().responses().mean());
    }

    #[test]
    fn warmup_experiment_times_all_milestones() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        let proto = MeasurementProtocol::quick();
        let mut engine = World::warmup_experiment(&cfg, &proto).into_engine();
        engine.run_while(|w| !w.done());
        let w = engine.model();
        let tracker = w.mc().warmup().expect("tracker attached");
        assert!(tracker.complete(), "progress {}", tracker.progress());
        // Milestones are non-decreasing in time.
        let times: Vec<f64> = tracker.milestones().iter().map(|t| t.unwrap()).collect();
        for pair in times.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn updates_invalidate_and_degrade_gracefully() {
        // [Acha96b]: moderate update rates approach read-only performance;
        // higher rates cost more. Invalidations must actually happen.
        let proto = MeasurementProtocol::quick();
        let run_at = |rate: f64| {
            let mut cfg = quick_cfg(Algorithm::PurePush);
            cfg.update_rate = rate;
            let mut engine = World::steady_state(&cfg, &proto).into_engine();
            engine.run_while(|w| !w.done());
            let (updates, invals) = engine.model().update_stats();
            (engine.model().responses().mean(), updates, invals)
        };
        let (read_only, u0, _) = run_at(0.0);
        assert_eq!(u0, 0);
        let (moderate, u1, inv1) = run_at(0.05);
        assert!(u1 > 0 && inv1 > 0, "updates {u1}, invalidations {inv1}");
        let (heavy, u2, _) = run_at(1.0);
        assert!(u2 > u1);
        assert!(
            moderate < heavy,
            "moderate {moderate} should beat heavy churn {heavy}"
        );
        assert!(
            read_only <= moderate,
            "read-only {read_only} is the floor, moderate {moderate}"
        );
    }

    #[test]
    fn prefetch_accelerates_warmup_under_pure_push() {
        // [Acha96a]: opportunistic prefetching beats demand-driven caching.
        let proto = MeasurementProtocol::quick();
        let mut cfg = quick_cfg(Algorithm::PurePush);
        let t95 = |cfg: &SystemConfig| {
            let mut engine = World::warmup_experiment(cfg, &proto).into_engine();
            engine.run_while(|w| !w.done());
            engine
                .model()
                .mc()
                .warmup()
                .unwrap()
                .milestones()
                .last()
                .copied()
                .flatten()
                .expect("reached 95%")
        };
        let demand = t95(&cfg);
        cfg.mc_prefetch = true;
        let prefetch = t95(&cfg);
        assert!(
            prefetch < demand / 2.0,
            "prefetch {prefetch} vs demand {demand}"
        );
    }

    #[test]
    fn prefetch_never_hurts_steady_state_response() {
        let proto = MeasurementProtocol::quick();
        let base = quick_cfg(Algorithm::PurePush);
        let mut pf = base.clone();
        pf.mc_prefetch = true;
        let mut e1 = World::steady_state(&base, &proto).into_engine();
        e1.run_while(|w| !w.done());
        let mut e2 = World::steady_state(&pf, &proto).into_engine();
        e2.run_while(|w| !w.done());
        // With static scores the steady-state cache content is identical;
        // prefetching only reaches it sooner. Allow statistical slack.
        let demand = e1.model().responses().mean();
        let prefetch = e2.model().responses().mean();
        assert!(
            prefetch <= demand * 1.15,
            "prefetch {prefetch} vs demand {demand}"
        );
    }

    #[test]
    fn pull_bw_zero_ipp_behaves_like_push_for_slots() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.0;
        let engine = run(&cfg);
        let w = engine.model();
        assert_eq!(w.slots().pull_pages, 0);
        // Requests still arrive (backchannel exists) but are never served.
        assert!(w.total_queue_stats().received > 0);
    }

    #[test]
    fn chopped_world_still_converges_with_enough_pull_bw() {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.chop = 50; // half of the small database off the broadcast
        cfg.pull_bw = 0.5;
        let engine = run(&cfg);
        let w = engine.model();
        assert_eq!(w.phase(), Phase::Measure);
        assert_eq!(w.channels().channel(0).distinct_pages(), 50);
    }

    #[test]
    fn measured_queue_stats_exclude_warmup_traffic() {
        for k in [1, 4] {
            let mut cfg = quick_cfg(Algorithm::PurePull);
            cfg.num_channels = k;
            let engine = run(&cfg);
            let w = engine.model();
            let measured = w.measured_queue_stats();
            let total = w.total_queue_stats();
            assert!(
                measured.received < total.received,
                "K={k}: measured {} of {} whole-run requests",
                measured.received,
                total.received
            );
        }
    }

    fn fleet_cfg(n: usize) -> SystemConfig {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        cfg.population = crate::config::ClientPopulation::fleet(n);
        cfg
    }

    #[test]
    fn fleet_population_replaces_the_virtual_client() {
        let engine = run(&fleet_cfg(64));
        let w = engine.model();
        assert!(w.vc.is_none(), "fleet must replace the VC");
        let fleet = w.fleet().expect("fleet configured");
        assert_eq!(fleet.len(), 64);
        let fs = fleet.stats();
        assert!(fs.accesses > 0, "fleet never woke");
        assert!(fs.completed > 0, "no fleet miss ever completed");
        assert!(fs.hits > 0, "warmed fleet never hit");
        assert!(fs.requests_sent > 0, "fleet never used the backchannel");
        // Flow times were recorded and are plausible (≥ 1 slot each).
        assert_eq!(fleet.flow().count(), fs.completed);
        assert!(fleet.flow().max() >= 1.0);
        // The MC still converges with real clients generating the load.
        assert_eq!(w.phase(), Phase::Measure);
        assert!(w.responses().mean() > 0.0);
    }

    #[test]
    fn fleet_run_is_bit_reproducible() {
        let cfg = fleet_cfg(50);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.model().responses().mean(), b.model().responses().mean());
        assert_eq!(
            a.model().fleet().unwrap().stats(),
            b.model().fleet().unwrap().stats()
        );
        assert_eq!(a.now(), b.now());
        assert_eq!(a.dispatched(), b.dispatched());
    }

    #[test]
    fn aggregate_population_is_untouched_by_the_fleet_code() {
        // The golden-safety invariant of this extension: a default
        // (aggregate) config runs the exact pre-fleet instruction stream.
        let cfg = quick_cfg(Algorithm::Ipp);
        assert!(!cfg.population.is_fleet());
        let engine = run(&cfg);
        let w = engine.model();
        assert!(w.fleet().is_none());
        assert!(w.vc.is_some());
    }

    #[test]
    fn fleet_load_converges_to_the_virtual_client_aggregate() {
        // A fleet of n clients thinking n×(MC_Think/TTR) on average offers
        // the same aggregate request rate as the open-loop VC; the server
        // must see comparable backchannel load either way.
        let proto = MeasurementProtocol::quick();
        let agg = quick_cfg(Algorithm::Ipp);
        let mut e1 = World::steady_state(&agg, &proto).into_engine();
        e1.run_until(4_000.0);
        let mut e2 = World::steady_state(&fleet_cfg(200), &proto).into_engine();
        e2.run_until(4_000.0);
        let vc_reqs = e1.model().total_queue_stats().received as f64;
        let fleet_reqs = e2.model().total_queue_stats().received as f64;
        assert!(vc_reqs > 0.0 && fleet_reqs > 0.0);
        let ratio = fleet_reqs / vc_reqs;
        // Closed-loop damping and warm-up make the fleet slightly lighter;
        // the rates must still be the same order.
        assert!(
            (0.4..=1.6).contains(&ratio),
            "fleet/VC request ratio {ratio} (fleet {fleet_reqs}, vc {vc_reqs})"
        );
    }

    #[test]
    fn hundred_thousand_client_fleet_completes_a_bounded_run() {
        // The million-client engine's acceptance cell: a 10⁵-client fleet
        // must be buildable and runnable inside a unit-test budget. The
        // run is bounded in simulated time, not by convergence.
        let mut cfg = fleet_cfg(100_000);
        cfg.obs.enabled = true;
        let proto = MeasurementProtocol::quick();
        let mut engine = World::steady_state(&cfg, &proto).into_engine();
        engine.run_until(200.0);
        let w = engine.model();
        let fleet = w.fleet().expect("fleet configured");
        let fs = *fleet.stats();
        assert!(fs.accesses > 0, "fleet never woke");
        assert!(fs.completed > 0, "no fleet completion in 200 units");
        // The obs layer carries the fleet hit-rate timeline and counters.
        let report = w.obs_report(engine.obs(), engine.now()).expect("obs on");
        assert_eq!(report.metrics.counter("client.fleet.clients"), 100_000);
        assert_eq!(report.metrics.counter("client.fleet.accesses"), fs.accesses);
        assert!(report
            .timelines
            .iter()
            .any(|(name, _)| name == "client.fleet.hit_rate"));
    }

    fn k_cfg(k: usize) -> SystemConfig {
        let mut cfg = quick_cfg(Algorithm::Ipp);
        cfg.pull_bw = 0.5;
        cfg.num_channels = k;
        cfg
    }

    #[test]
    fn multi_channel_world_converges_and_splits_the_schedule() {
        let engine = run(&k_cfg(4));
        let w = engine.model();
        assert_eq!(w.num_channels(), 4);
        assert_eq!(w.phase(), Phase::Measure);
        assert!(w.responses().mean() > 0.0);
        assert!(w.slots().push_pages > 0, "K-channel IPP must push");
        assert!(w.slots().pull_pages > 0, "K-channel IPP must pull");
        // Every broadcast unit carries one slot per channel.
        let total = w.slots().total() as f64;
        assert!((total - 4.0 * engine.now()).abs() <= 4.0);
    }

    #[test]
    fn more_channels_cut_response_time_at_fixed_population() {
        // The scaling claim of the extension: K lock-step channels are
        // K-fold bandwidth, so the mean response must drop with K.
        let r1 = run(&k_cfg(1)).model().responses().mean();
        let r4 = run(&k_cfg(4)).model().responses().mean();
        assert!(r4 < r1, "K=4 mean {r4} must beat K=1 mean {r1}");
    }

    #[test]
    fn multi_channel_run_is_bit_reproducible() {
        let cfg = k_cfg(3);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.model().responses().mean(), b.model().responses().mean());
        assert_eq!(a.model().slots(), b.model().slots());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.dispatched(), b.dispatched());
    }

    #[test]
    fn single_channel_config_is_one_shard() {
        // The paper's system is the one-shard case of the K-channel world:
        // one channel airing the whole generated program.
        let engine = run(&quick_cfg(Algorithm::Ipp));
        let w = engine.model();
        assert_eq!(w.num_channels(), 1);
        assert_eq!(w.channels().num_channels(), 1);
        assert_eq!(w.channels().channel(0).distinct_pages(), 100);
    }

    #[test]
    fn multi_channel_obs_reports_per_channel_timelines() {
        let mut cfg = k_cfg(2);
        cfg.obs.enabled = true;
        let engine = run(&cfg);
        let report = engine
            .model()
            .obs_report(engine.obs(), engine.now())
            .expect("obs enabled");
        let has = |key: String| report.timelines.iter().any(|(n, _)| *n == key);
        for k in 0..2 {
            assert!(has(format!("server.ch{k}.queue_depth")));
            assert!(has(format!("broadcast.ch{k}.share")));
        }
        // No brownouts configured: no per-channel fault timelines.
        assert!(report
            .timelines
            .iter()
            .all(|(n, _)| !n.starts_with("fault.ch")));
        // The channel shares partition the push bandwidth.
        let total: f64 = (0..2)
            .map(|k| {
                let key = format!("broadcast.ch{k}.share");
                let (_, tl) = report
                    .timelines
                    .iter()
                    .find(|(n, _)| *n == key)
                    .expect("present");
                let (_, mean, _) = *tl.points().last().expect("channel was sampled");
                mean
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "channel shares sum {total}");
    }

    #[test]
    fn multi_channel_requests_are_conserved() {
        let mut cfg = k_cfg(4);
        cfg.think_time_ratio = 150.0; // heavy backchannel load
        let engine = run(&cfg);
        let ledger = engine.model().conservation_ledger();
        ledger.assert_clean();
        assert!(ledger.sent > 0);
        assert!(ledger.served > 0);
    }

    #[test]
    fn fleet_clients_retry_lost_requests() {
        let mut cfg = fleet_cfg(64);
        cfg.fault = FaultConfig::lossy(0.4);
        let proto = MeasurementProtocol::quick();
        let mut engine = World::steady_state(&cfg, &proto).into_engine();
        engine.run_until(3_000.0);
        let fs = *engine.model().fleet().expect("fleet configured").stats();
        assert!(
            fs.retries > 0,
            "40% request loss must force fleet resends ({fs:?})"
        );
    }

    /// Every bucket a send can land in: the ledger's terminal buckets plus
    /// the queue's `enqueued` / `coalesced` counters (a queued request also
    /// moves `in_flight_at_end`).
    fn buckets(w: &World) -> [(&'static str, u64); 10] {
        let l = w.conservation_ledger();
        let q = w.total_queue_stats();
        [
            ("lost_in_transit", l.lost_in_transit),
            ("browned_out", l.browned_out),
            ("orphaned", l.orphaned),
            ("admission_rejected", l.admission_rejected),
            ("dropped_full", l.dropped_full),
            ("evicted", l.evicted),
            ("served", l.served),
            ("in_flight_at_end", l.in_flight_at_end),
            ("enqueued", q.enqueued),
            ("coalesced", q.coalesced),
        ]
    }

    /// Send `page` at `now` to shard 0; returns the delivery and the
    /// buckets it moved, each of which must move by exactly one, and the
    /// ledger must still balance.
    fn send(w: &mut World, now: f64, page: u32) -> (Delivery, Vec<&'static str>) {
        let before = buckets(w);
        let delivery = w.submit_request(now, PageId(page), 0);
        let moved = before
            .iter()
            .zip(buckets(w))
            .filter(|(b, a)| a.1 != b.1)
            .map(|(b, a)| {
                assert_eq!(a.1, b.1 + 1, "{} moved by more than one", b.0);
                b.0
            })
            .collect();
        let violations = w.conservation_ledger().violations();
        assert!(violations.is_empty(), "{delivery:?}: {violations:?}");
        (delivery, moved)
    }

    #[test]
    fn each_send_lands_in_exactly_one_ledger_bucket() {
        let proto = MeasurementProtocol::quick();
        let world = |fault: FaultConfig| {
            let mut cfg = quick_cfg(Algorithm::PurePull);
            cfg.server_queue_size = 1;
            cfg.fault = fault;
            World::steady_state(&cfg, &proto)
        };

        let mut w = world(FaultConfig {
            request_loss: 1.0,
            ..FaultConfig::none()
        });
        assert_eq!(
            send(&mut w, 0.0, 1),
            (Delivery::Lost, vec!["lost_in_transit"])
        );

        let mut w = world(FaultConfig {
            crash: CrashConfig {
                downtime: 10.0,
                schedule: vec![1e9],
                ..CrashConfig::none()
            },
            ..FaultConfig::none()
        });
        w.crash.as_mut().expect("crashes configured").down = true;
        assert_eq!(send(&mut w, 0.0, 1), (Delivery::Refused, vec!["orphaned"]));

        let mut w = world(FaultConfig {
            brownout_period: 100.0,
            brownout_duration: 10.0,
            ..FaultConfig::none()
        });
        assert_eq!(
            send(&mut w, 5.0, 1),
            (Delivery::BrownedOut, vec!["browned_out"])
        );

        let mut w = world(FaultConfig {
            admission: AdmissionConfig::standard(),
            ..FaultConfig::none()
        });
        w.admission
            .as_mut()
            .expect("admission configured")
            .restart_cold(0.0);
        assert_eq!(
            send(&mut w, 0.0, 1),
            (
                Delivery::Rejected { retry_after: 32.0 },
                vec!["admission_rejected"]
            )
        );

        // A one-page queue: a first request is enqueued, a duplicate
        // coalesces onto it, and any other page is dropped.
        let mut w = world(FaultConfig::none());
        assert_eq!(
            send(&mut w, 0.0, 1),
            (
                Delivery::Queued(SubmitOutcome::Enqueued),
                vec!["in_flight_at_end", "enqueued"]
            )
        );
        assert_eq!(
            send(&mut w, 0.0, 1),
            (
                Delivery::Queued(SubmitOutcome::Coalesced),
                vec!["in_flight_at_end", "coalesced"]
            )
        );
        assert_eq!(
            send(&mut w, 0.0, 2),
            (
                Delivery::Queued(SubmitOutcome::DroppedFull),
                vec!["dropped_full"]
            )
        );
    }
}
