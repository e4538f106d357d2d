//! System configuration — Tables 1, 2 and 3 of the paper, plus the fault
//! model (lossy channels, brownouts, retry/degradation policies) layered on
//! top for the robustness extension.

use bpp_client::RetryPolicy;
use bpp_json::{Json, ToJson};
use bpp_obs::ObsConfig;
use bpp_server::{AdmissionConfig, OverflowPolicy, SaturationPolicy};

/// The three data-delivery algorithms compared in the paper (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Broadcast Disk only; `PullBW = 0`, no backchannel.
    PurePush,
    /// Request/response with snooping; `PullBW = 100%`, no periodic
    /// broadcast.
    PurePull,
    /// Interleaved Push and Pull: periodic broadcast plus pull responses,
    /// split by `pull_bw`, with the client threshold filter.
    Ipp,
}

impl Algorithm {
    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PurePush => "Push",
            Algorithm::PurePull => "Pull",
            Algorithm::Ipp => "IPP",
        }
    }
}

// Unit enum variants serialize as their name, like derived serde did.
impl ToJson for Algorithm {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Algorithm::PurePush => "PurePush",
                Algorithm::PurePull => "PurePull",
                Algorithm::Ipp => "Ipp",
            }
            .to_string(),
        )
    }
}

/// Client cache replacement policy.
///
/// The paper uses PIX whenever pages are retrieved from a Broadcast Disk
/// and P under Pure-Pull; LRU/LFU are kept as ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Probability over broadcast frequency (`p/x`).
    Pix,
    /// Plain access probability.
    P,
    /// Least recently used (strawman).
    Lru,
    /// Least frequently used (strawman).
    Lfu,
}

impl ToJson for CachePolicy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                CachePolicy::Pix => "Pix",
                CachePolicy::P => "P",
                CachePolicy::Lru => "Lru",
                CachePolicy::Lfu => "Lfu",
            }
            .to_string(),
        )
    }
}

/// Server queue service order (see `bpp_server::Discipline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First in, first out — the paper's discipline.
    #[default]
    Fifo,
    /// Serve the page with the most coalesced waiters first (extension).
    MostRequested,
}

impl ToJson for QueueDiscipline {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                QueueDiscipline::Fifo => "Fifo",
                QueueDiscipline::MostRequested => "MostRequested",
            }
            .to_string(),
        )
    }
}

/// Server crash–recovery model (robustness extension).
///
/// A crash makes the server lose all volatile state: the request queue is
/// drained (every pending request becomes *orphaned*), the saturation
/// detector's EWMA and the adaptive controller's learning are reset, and
/// broadcast slots go silent for `downtime` broadcast units. Crash times
/// come from `schedule`, an explicit, strictly increasing list, so a crash
/// draws no random number.
///
/// Recovery is *cold*: clients rediscover the server through their retry
/// timers, stretched by `reconnect_jitter` to decorrelate the reconnect
/// herd. A crash counts as recovered when the Measured Client's
/// response-time EWMA returns to within `recovery_epsilon` (relative) of
/// its pre-crash level.
///
/// [`CrashConfig::none`] (the default) disables the whole domain: no crash
/// state is constructed, and runs are bitwise identical to a build without
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashConfig {
    /// How long the server stays down after each crash, in broadcast
    /// units. Must be positive when crashes are configured.
    pub downtime: f64,
    /// Explicit crash times (broadcast units, strictly increasing); empty
    /// means none.
    pub schedule: Vec<f64>,
    /// Reconnect-jitter fraction in `[0, 1]`: a client whose send was
    /// refused or admission-rejected stretches its next retry delay by a
    /// uniform factor in `[1, 1 + reconnect_jitter)` (drawn on the same
    /// stream as its ordinary retry jitter).
    pub reconnect_jitter: f64,
    /// Relative tolerance for the recovery detector: recovered when the
    /// response EWMA is `<= (1 + recovery_epsilon) ×` its pre-crash level.
    pub recovery_epsilon: f64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig::none()
    }
}

impl CrashConfig {
    /// No crashes ever: the strict no-op configuration.
    pub fn none() -> Self {
        CrashConfig {
            downtime: 0.0,
            schedule: Vec::new(),
            reconnect_jitter: 0.0,
            recovery_epsilon: 0.0,
        }
    }

    /// Whether any crash is scheduled.
    pub fn enabled(&self) -> bool {
        !self.schedule.is_empty()
    }

    /// Check the parameters, returning a human-readable description of the
    /// first problem found. A disabled config is always valid.
    pub fn validate(&self) -> Result<(), String> {
        let CrashConfig {
            downtime,
            ref schedule,
            reconnect_jitter,
            recovery_epsilon,
        } = *self;
        for w in schedule.windows(2) {
            // partial_cmp so NaN (incomparable) also fails the check.
            if !matches!(w[1].partial_cmp(&w[0]), Some(std::cmp::Ordering::Greater)) {
                return Err(format!(
                    "crash schedule must be strictly increasing, got {} then {}",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&t) = schedule.first() {
            if !t.is_finite() || t < 0.0 {
                return Err(format!(
                    "crash schedule times must be finite and >= 0, got {t}"
                ));
            }
        }
        if !reconnect_jitter.is_finite() || !(0.0..=1.0).contains(&reconnect_jitter) {
            return Err(format!(
                "crash reconnect_jitter must be in [0,1], got {reconnect_jitter}"
            ));
        }
        if !recovery_epsilon.is_finite() || recovery_epsilon < 0.0 {
            return Err(format!(
                "crash recovery_epsilon must be finite and >= 0, got {recovery_epsilon}"
            ));
        }
        if self.enabled() && !(downtime.is_finite() && downtime > 0.0) {
            return Err(format!(
                "crash downtime must be finite and positive when crashes are configured, got {downtime}"
            ));
        }
        Ok(())
    }
}

impl ToJson for CrashConfig {
    fn to_json(&self) -> Json {
        let CrashConfig {
            downtime,
            schedule,
            reconnect_jitter,
            recovery_epsilon,
        } = self;
        Json::object([
            ("downtime", downtime.to_json()),
            ("schedule", schedule.to_json()),
            ("reconnect_jitter", reconnect_jitter.to_json()),
            ("recovery_epsilon", recovery_epsilon.to_json()),
        ])
    }
}

/// The deterministic unreliability model layered over the paper's perfect
/// channels.
///
/// All four failure mechanisms are independent and individually zeroable:
///
/// * `broadcast_loss` — each page-carrying slot is corrupted/lost for *all*
///   listeners with this probability (one coin per slot on the
///   `Stream::FaultLoss` RNG stream);
/// * `request_loss` — each backchannel request vanishes in transit with
///   this probability (one coin per send on the `Stream::FaultReq` stream);
/// * brownouts — a deterministic periodic window (`brownout_duration` out
///   of every `brownout_period` broadcast units, starting at time 0)
///   during which the server discards every arriving request;
/// * `overflow` / `retry` / `degrade` — how the queue, the client, and the
///   multiplexer *respond* to the above;
/// * `crash` / `admission` — the crash–recovery fault domain: server
///   crashes that lose volatile state ([`CrashConfig`]) and the
///   token-bucket admission layer that paces the resulting reconnect herd
///   ([`AdmissionConfig`]).
///
/// [`FaultConfig::none`] (the default) disables everything; the simulation
/// then constructs no fault state, draws from no fault streams, and is
/// bitwise-identical to a build without the fault layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a page-carrying broadcast slot is lost (`[0,1]`).
    pub broadcast_loss: f64,
    /// Probability that a backchannel request is dropped in transit
    /// (`[0,1]`).
    pub request_loss: f64,
    /// Brownout cycle length in broadcast units; `0` disables brownouts.
    pub brownout_period: f64,
    /// Portion at the start of each cycle during which the server drops
    /// all arriving requests. Must be `<= brownout_period`.
    pub brownout_duration: f64,
    /// What the server queue does with a new page at capacity.
    pub overflow: OverflowPolicy,
    /// Client-side timeout/backoff behavior for pull requests.
    pub retry: RetryPolicy,
    /// Server-side saturation detection / pull-bandwidth shedding.
    pub degrade: SaturationPolicy,
    /// Server crash–recovery model (disabled by default).
    pub crash: CrashConfig,
    /// Token-bucket admission control on the backchannel (disabled by
    /// default).
    pub admission: AdmissionConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// No faults: perfect channels, paper-faithful queue behavior, no
    /// retries, no degradation. The strict no-op configuration.
    pub fn none() -> Self {
        FaultConfig {
            broadcast_loss: 0.0,
            request_loss: 0.0,
            brownout_period: 0.0,
            brownout_duration: 0.0,
            overflow: OverflowPolicy::DropNewest,
            retry: RetryPolicy::disabled(),
            degrade: SaturationPolicy::disabled(),
            crash: CrashConfig::none(),
            admission: AdmissionConfig::disabled(),
        }
    }

    /// A symmetric lossy-channel preset: both channels lose at rate
    /// `loss`, clients retry with the standard backoff policy, and the
    /// server degrades toward push-only under sustained queue pressure.
    pub fn lossy(loss: f64) -> Self {
        FaultConfig {
            broadcast_loss: loss,
            request_loss: loss,
            retry: RetryPolicy::standard(),
            degrade: SaturationPolicy::standard(),
            ..FaultConfig::none()
        }
    }

    /// Whether any part of the fault model deviates from [`none`].
    ///
    /// [`none`]: FaultConfig::none
    pub fn enabled(&self) -> bool {
        *self != FaultConfig::none()
    }

    /// Whether brownout windows are configured.
    pub fn has_brownouts(&self) -> bool {
        self.brownout_period > 0.0 && self.brownout_duration > 0.0
    }

    /// True when `now` falls inside a brownout window.
    pub fn in_brownout(&self, now: f64) -> bool {
        self.has_brownouts() && now % self.brownout_period < self.brownout_duration
    }
}

impl ToJson for FaultConfig {
    fn to_json(&self) -> Json {
        let FaultConfig {
            broadcast_loss,
            request_loss,
            brownout_period,
            brownout_duration,
            overflow,
            retry,
            degrade,
            crash,
            admission,
        } = self;
        let mut members = vec![
            ("broadcast_loss", broadcast_loss.to_json()),
            ("request_loss", request_loss.to_json()),
            ("brownout_period", brownout_period.to_json()),
            ("brownout_duration", brownout_duration.to_json()),
            ("overflow", overflow.to_json()),
            ("retry", retry.to_json()),
            ("degrade", degrade.to_json()),
        ];
        // Crash/admission keys appear only when their sub-model is live, so
        // pre-existing configs serialize byte-identically.
        if crash.enabled() {
            members.push(("crash", crash.to_json()));
        }
        if admission.enabled() {
            members.push(("admission", admission.to_json()));
        }
        Json::object(members)
    }
}

/// Every constraint a [`SystemConfig`] violated, one message each, in the
/// order [`SystemConfig::validate`] checks them.
///
/// `validate` reports *every* violation at once rather than panicking at
/// the first, so a sweep driver or config-file user sees the complete
/// damage in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigErrors(
    /// The individual violation messages (never empty when returned).
    pub Vec<String>,
);

impl std::fmt::Display for ConfigErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join("; "))
    }
}

impl std::error::Error for ConfigErrors {}

/// Client population model: the paper's aggregate (one Measured Client
/// plus the open-loop Virtual-Client aggregate) or a real closed-loop
/// fleet of arena-backed clients (see `bpp_client::ClientArena`).
///
/// In fleet mode the Virtual Client is replaced by `fleet_clients` real
/// clients, each running the full closed loop — think, access, cache
/// check, threshold-filtered request, retry — with the same think time as
/// the Measured Client. A fleet of `n` clients therefore offers the same
/// aggregate access rate as the paper's aggregate at `ThinkTimeRatio = n`,
/// which is exactly the convergence check the population-sweep figure
/// plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientPopulation {
    /// Number of real closed-loop fleet clients replacing the Virtual
    /// Client aggregate. `0` (the default) keeps the paper's MC + VC
    /// aggregate model.
    pub fleet_clients: usize,
}

impl ClientPopulation {
    /// The paper's model: one Measured Client plus the VC aggregate.
    pub fn aggregate() -> Self {
        Self::default()
    }

    /// A real fleet of `n` closed-loop clients.
    pub fn fleet(n: usize) -> Self {
        ClientPopulation { fleet_clients: n }
    }

    /// True when a real fleet replaces the Virtual-Client aggregate.
    pub fn is_fleet(&self) -> bool {
        self.fleet_clients > 0
    }

    /// Range check; fleet indices are stored as `u32` in the arena slabs.
    pub fn validate(&self) -> Result<(), String> {
        let ClientPopulation { fleet_clients } = *self;
        if fleet_clients > u32::MAX as usize {
            return Err(format!(
                "fleet_clients must fit in u32, got {fleet_clients}"
            ));
        }
        Ok(())
    }
}

impl ToJson for ClientPopulation {
    fn to_json(&self) -> Json {
        let ClientPopulation { fleet_clients } = self;
        Json::object([("fleet_clients", fleet_clients.to_json())])
    }
}

/// Full parameterisation of one simulated system.
///
/// Defaults ([`SystemConfig::paper_default`]) reproduce Table 3. All
/// percentages are fractions in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Distinct pages at the server (`ServerDBSize`).
    pub db_size: usize,
    /// Client cache size in pages (`CacheSize`).
    pub cache_size: usize,
    /// Measured Client think time in broadcast units (`ThinkTime`).
    pub mc_think_time: f64,
    /// Virtual-Client intensity relative to the MC (`ThinkTimeRatio`):
    /// the VC generates requests this many times more frequently.
    pub think_time_ratio: f64,
    /// Fraction of the VC population in steady state (`SteadyStatePerc`).
    pub steady_state_perc: f64,
    /// MC access-pattern perturbation (`Noise`).
    pub noise: f64,
    /// Zipf skew θ.
    pub zipf_theta: f64,
    /// Pages per disk, fastest first (`DiskSize_i`).
    pub disk_sizes: Vec<usize>,
    /// Relative disk frequencies, fastest first (`RelFreq_i`).
    pub rel_freqs: Vec<u32>,
    /// Apply the Offset transform (all paper results do).
    pub offset: bool,
    /// Backchannel queue capacity in distinct pages (`ServerQSize`).
    pub server_queue_size: usize,
    /// Upper bound on the broadcast slots serving pulls (`PullBW`),
    /// meaningful for [`Algorithm::Ipp`] only (Push forces 0, Pull 1).
    pub pull_bw: f64,
    /// Client threshold as a fraction of the major cycle (`ThresPerc`).
    pub thres_perc: f64,
    /// Pages truncated from the push schedule, slowest disk first
    /// (Experiment 3). 0 = broadcast the whole database.
    pub chop: usize,
    /// Which delivery algorithm to run.
    pub algorithm: Algorithm,
    /// MC cache policy; `None` picks the paper's choice for the algorithm
    /// (PIX for Push/IPP, P for Pure-Pull).
    pub mc_cache_policy: Option<CachePolicy>,
    /// Server queue service discipline (the paper uses FIFO;
    /// most-requested-first is an extension ablation).
    pub queue_discipline: QueueDiscipline,
    /// Opportunistic client prefetching (\[Acha96a\], extension): offer every
    /// page heard on the frontchannel to the MC cache, letting the
    /// value-based admission test decide. The paper's demand-driven
    /// baseline is `false`.
    pub mc_prefetch: bool,
    /// Server update rate in updates per broadcast unit (\[Acha96b\],
    /// extension; this paper assumes read-only data, i.e. 0.0). Updates
    /// pick pages from the same skewed popularity distribution (hot data
    /// churns) and invalidate client-cached copies.
    pub update_rate: f64,
    /// Root seed for every random stream in the run.
    pub seed: u64,
    /// Number of parallel broadcast channels (K-channel extension). `1`,
    /// the default, is the paper's single channel and leaves every config
    /// document and simulation result byte-identical to a build without
    /// the extension. `K > 1` splits the push schedule across `K`
    /// lock-step channels (conflict-free by construction, verified by
    /// bpp-verify rule V6), gives clients a channel-tuning policy, and
    /// shards the backchannel into per-channel queues.
    pub num_channels: usize,
    /// The unreliability model (robustness extension; the paper's perfect
    /// channels are [`FaultConfig::none`], the default).
    pub fault: FaultConfig,
    /// The observability layer (off by default: a disabled `obs` block
    /// allocates no instrumentation state and leaves every result and
    /// config document byte-identical to a build without the layer).
    pub obs: ObsConfig,
    /// The client population model (million-client extension; the paper's
    /// MC + VC aggregate is [`ClientPopulation::aggregate`], the default,
    /// which leaves every config document byte-identical to a build
    /// without the fleet).
    pub population: ClientPopulation,
}

impl SystemConfig {
    /// Table 3 defaults: 1000 pages, 3 disks (100/400/500 at 3:2:1),
    /// cache 100, think time 20, queue 100, offset on, θ = 0.95,
    /// `SteadyStatePerc` 95%, IPP at `PullBW` 50% with no threshold.
    pub fn paper_default() -> Self {
        SystemConfig {
            db_size: 1000,
            cache_size: 100,
            mc_think_time: 20.0,
            think_time_ratio: 10.0,
            steady_state_perc: 0.95,
            noise: 0.0,
            zipf_theta: 0.95,
            disk_sizes: vec![100, 400, 500],
            rel_freqs: vec![3, 2, 1],
            offset: true,
            server_queue_size: 100,
            pull_bw: 0.5,
            thres_perc: 0.0,
            chop: 0,
            algorithm: Algorithm::Ipp,
            mc_cache_policy: None,
            queue_discipline: QueueDiscipline::Fifo,
            mc_prefetch: false,
            update_rate: 0.0,
            seed: 0x5EED_B0DC,
            num_channels: 1,
            fault: FaultConfig::none(),
            obs: ObsConfig::default(),
            population: ClientPopulation::aggregate(),
        }
    }

    /// Table 3 with the Zipf skew *calibrated to the paper's absolute
    /// numbers* (θ = 0.72 instead of the quoted 0.95).
    ///
    /// The paper states θ = 0.95, but three independent checkpoints of its
    /// text — the Pure-Push flat line at 278 broadcast units, 39.9% of
    /// requests dropped under Pure-Pull at ThinkTimeRatio 50, and 68.8%
    /// under IPP at the same load — are only mutually consistent with a
    /// per-page popularity skew whose 100 hottest pages carry ≈ 47% of the
    /// access mass. The standard `p(i) ∝ 1/i^0.95` convention gives 65%.
    /// θ = 0.72 under the standard convention reproduces all three
    /// checkpoints to within a few percent (see EXPERIMENTS.md); the
    /// difference is presumably a coarser-grained Zipf in the original
    /// (unpublished) workload generator of \[Acha95a\].
    pub fn paper_calibrated() -> Self {
        SystemConfig {
            zipf_theta: 0.72,
            ..Self::paper_default()
        }
    }

    /// A scaled-down configuration for unit/integration tests: 100 pages,
    /// 3 disks (10/40/50), cache 10, queue 10.
    pub fn small() -> Self {
        SystemConfig {
            db_size: 100,
            cache_size: 10,
            disk_sizes: vec![10, 40, 50],
            server_queue_size: 10,
            ..Self::paper_default()
        }
    }

    /// The effective pull bandwidth after the algorithm override.
    pub fn effective_pull_bw(&self) -> f64 {
        match self.algorithm {
            Algorithm::PurePush => 0.0,
            Algorithm::PurePull => 1.0,
            Algorithm::Ipp => self.pull_bw,
        }
    }

    /// The effective MC cache policy.
    pub fn effective_cache_policy(&self) -> CachePolicy {
        self.mc_cache_policy.unwrap_or(match self.algorithm {
            Algorithm::PurePull => CachePolicy::P,
            _ => CachePolicy::Pix,
        })
    }

    /// Mean inter-arrival time of Virtual-Client accesses.
    pub fn vc_mean_interarrival(&self) -> f64 {
        self.mc_think_time / self.think_time_ratio
    }

    /// Check every range and cross-field constraint, returning *all*
    /// violations at once (a sweep driver or config-file user sees the
    /// complete damage in one pass instead of fixing panics one by one).
    pub fn validate(&self) -> Result<(), ConfigErrors> {
        // Every field is bound by name, so a new field does not compile
        // until it is either checked below or written `field: _` — the
        // knobs with no invalid values (enums, flags, the seed). Deleting a
        // check leaves an unused binding, which `clippy -D warnings` rejects.
        let SystemConfig {
            db_size,
            cache_size,
            mc_think_time,
            think_time_ratio,
            steady_state_perc,
            noise,
            zipf_theta,
            ref disk_sizes,
            ref rel_freqs,
            offset,
            server_queue_size,
            pull_bw,
            thres_perc,
            chop,
            algorithm,
            mc_cache_policy: _,
            queue_discipline: _,
            mc_prefetch: _,
            update_rate,
            seed: _,
            num_channels,
            ref fault,
            obs,
            population,
        } = *self;
        let FaultConfig {
            broadcast_loss,
            request_loss,
            brownout_period,
            brownout_duration,
            overflow: _,
            retry,
            degrade,
            ref crash,
            admission,
        } = *fault;
        let mut errs = Vec::new();
        if db_size == 0 {
            errs.push("db_size must be positive".to_string());
        }
        if disk_sizes.is_empty() {
            errs.push("at least one broadcast disk is required".to_string());
        } else if disk_sizes.iter().sum::<usize>() != db_size {
            errs.push(format!(
                "disk sizes {disk_sizes:?} must sum to db_size {db_size}"
            ));
        }
        if disk_sizes.len() != rel_freqs.len() {
            errs.push(format!(
                "one frequency per disk ({} disks, {} frequencies)",
                disk_sizes.len(),
                rel_freqs.len()
            ));
        }
        if cache_size > db_size {
            errs.push(format!(
                "cache larger than database ({cache_size} > {db_size})"
            ));
        }
        if !(mc_think_time.is_finite() && mc_think_time > 0.0) {
            errs.push(format!(
                "think time must be finite and positive, got {mc_think_time}"
            ));
        }
        if !(think_time_ratio.is_finite() && think_time_ratio > 0.0) {
            errs.push(format!(
                "ThinkTimeRatio must be finite and positive, got {think_time_ratio}"
            ));
        }
        if !(update_rate >= 0.0 && update_rate.is_finite()) {
            errs.push(format!(
                "update_rate must be finite and >= 0, got {update_rate}"
            ));
        }
        // θ = 0 is uniform access; a negative skew would invert the
        // popularity order.
        if !(zipf_theta >= 0.0 && zipf_theta.is_finite()) {
            errs.push(format!(
                "zipf_theta must be finite and >= 0, got {zipf_theta}"
            ));
        }
        // Required even under Pure-Push, which simply never enqueues.
        if server_queue_size == 0 {
            errs.push("server_queue_size must be positive".to_string());
        }
        if num_channels == 0 {
            errs.push("num_channels must be positive".to_string());
        }
        for (field, value) in [
            ("steady_state_perc", steady_state_perc),
            ("noise", noise),
            ("pull_bw", pull_bw),
            ("thres_perc", thres_perc),
            ("fault.broadcast_loss", broadcast_loss),
            ("fault.request_loss", request_loss),
        ] {
            if !(0.0..=1.0).contains(&value) {
                errs.push(format!("{field} must be in [0,1], got {value}"));
            }
        }
        if chop > db_size {
            errs.push(format!(
                "cannot chop more than the database ({chop} > {db_size})"
            ));
        }
        if offset && algorithm != Algorithm::PurePull {
            if let Some(&slowest) = disk_sizes.last() {
                if cache_size > slowest {
                    errs.push(format!(
                        "offset requires cache_size <= slowest disk size ({cache_size} > {slowest})"
                    ));
                }
            }
        }
        for (field, value) in [
            ("fault.brownout_period", brownout_period),
            ("fault.brownout_duration", brownout_duration),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                errs.push(format!("{field} must be finite and >= 0, got {value}"));
            }
        }
        if brownout_duration > brownout_period {
            errs.push(format!(
                "brownout_duration {brownout_duration} exceeds brownout_period {brownout_period}"
            ));
        }
        errs.extend(
            [
                retry.validate(),
                degrade.validate(),
                obs.validate(),
                population.validate(),
                crash.validate(),
                admission.validate(),
            ]
            .into_iter()
            .filter_map(Result::err),
        );
        if errs.is_empty() {
            Ok(())
        } else {
            Err(ConfigErrors(errs))
        }
    }

    /// [`validate`](SystemConfig::validate), but panic with the joined
    /// violation list. For internal call sites (e.g. `World::build`) whose
    /// contract is "caller passes a valid config".
    #[expect(
        clippy::panic,
        reason = "assert_valid is the documented panicking twin of validate()"
    )]
    pub fn assert_valid(&self) {
        if let Err(errs) = self.validate() {
            panic!("invalid SystemConfig: {errs}");
        }
    }
}

impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        let SystemConfig {
            db_size,
            cache_size,
            mc_think_time,
            think_time_ratio,
            steady_state_perc,
            noise,
            zipf_theta,
            disk_sizes,
            rel_freqs,
            offset,
            server_queue_size,
            pull_bw,
            thres_perc,
            chop,
            algorithm,
            mc_cache_policy,
            queue_discipline,
            mc_prefetch,
            update_rate,
            seed,
            num_channels,
            fault,
            obs,
            population,
        } = self;
        let mut members = vec![
            ("db_size", db_size.to_json()),
            ("cache_size", cache_size.to_json()),
            ("mc_think_time", mc_think_time.to_json()),
            ("think_time_ratio", think_time_ratio.to_json()),
            ("steady_state_perc", steady_state_perc.to_json()),
            ("noise", noise.to_json()),
            ("zipf_theta", zipf_theta.to_json()),
            ("disk_sizes", disk_sizes.to_json()),
            ("rel_freqs", rel_freqs.to_json()),
            ("offset", offset.to_json()),
            ("server_queue_size", server_queue_size.to_json()),
            ("pull_bw", pull_bw.to_json()),
            ("thres_perc", thres_perc.to_json()),
            ("chop", chop.to_json()),
            ("algorithm", algorithm.to_json()),
            ("mc_cache_policy", mc_cache_policy.to_json()),
            ("queue_discipline", queue_discipline.to_json()),
            ("mc_prefetch", mc_prefetch.to_json()),
            ("update_rate", update_rate.to_json()),
            ("seed", seed.to_json()),
        ];
        // Each extension member appears only when it deviates from the
        // paper's system (one channel, no faults, obs off, the MC + VC
        // aggregate), so configs that don't use an extension serialize
        // byte-for-byte as they did before it existed.
        if *num_channels != 1 {
            members.push(("num_channels", num_channels.to_json()));
        }
        if fault.enabled() {
            members.push(("fault", fault.to_json()));
        }
        if obs.enabled {
            members.push(("obs", obs.to_json()));
        }
        if population.is_fleet() {
            members.push(("population", population.to_json()));
        }
        Json::object(members)
    }
}

/// Measurement protocol for steady-state runs (§4: cache warm-up is
/// excluded, 4000 accesses are skipped, then the run continues "until the
/// response time stabilized").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementProtocol {
    /// MC accesses discarded after the cache first fills.
    pub skip_accesses: u64,
    /// Observations per batch for the batch-means estimator.
    pub batch_size: u64,
    /// Relative 95%-CI half-width at which the run stops.
    pub rel_precision: f64,
    /// Minimum completed batches before convergence is considered.
    pub min_batches: usize,
    /// Hard cap on measured MC accesses (guards pathological configs).
    pub max_accesses: u64,
    /// Cap on MC accesses spent waiting for the cache to fill before
    /// measurement proceeds anyway (under heavy update churn the cache may
    /// never reach capacity).
    pub max_warmup_accesses: u64,
    /// Hard cap on simulated time, in broadcast units.
    pub max_sim_time: f64,
}

impl MeasurementProtocol {
    /// The paper-faithful protocol (slow but precise).
    pub fn paper() -> Self {
        MeasurementProtocol {
            skip_accesses: 4000,
            batch_size: 500,
            rel_precision: 0.015,
            min_batches: 12,
            max_accesses: 200_000,
            max_warmup_accesses: 50_000,
            max_sim_time: 5.0e8,
        }
    }

    /// A fast protocol for tests, doctests and smoke runs.
    pub fn quick() -> Self {
        MeasurementProtocol {
            skip_accesses: 200,
            batch_size: 100,
            rel_precision: 0.10,
            min_batches: 4,
            max_accesses: 4_000,
            max_warmup_accesses: 2_000,
            max_sim_time: 5.0e6,
        }
    }

    /// Check the protocol's parameters, returning a description of the
    /// first problem found. The caps (`skip_accesses`,
    /// `max_warmup_accesses`) accept any value including 0 and are named
    /// here check-free.
    pub fn validate(&self) -> Result<(), String> {
        let MeasurementProtocol {
            skip_accesses: _,
            batch_size,
            rel_precision,
            min_batches,
            max_accesses,
            max_warmup_accesses: _,
            max_sim_time,
        } = *self;
        if batch_size == 0 {
            return Err("batch_size must be positive".to_string());
        }
        if min_batches == 0 {
            return Err("min_batches must be positive".to_string());
        }
        if !rel_precision.is_finite() || rel_precision <= 0.0 {
            return Err(format!(
                "rel_precision must be finite and positive, got {rel_precision}"
            ));
        }
        if max_accesses == 0 {
            return Err("max_accesses must be positive".to_string());
        }
        if !max_sim_time.is_finite() || max_sim_time <= 0.0 {
            return Err(format!(
                "max_sim_time must be finite and positive, got {max_sim_time}"
            ));
        }
        Ok(())
    }
}

impl ToJson for MeasurementProtocol {
    fn to_json(&self) -> Json {
        let MeasurementProtocol {
            skip_accesses,
            batch_size,
            rel_precision,
            min_batches,
            max_accesses,
            max_warmup_accesses,
            max_sim_time,
        } = self;
        Json::object([
            ("skip_accesses", skip_accesses.to_json()),
            ("batch_size", batch_size.to_json()),
            ("rel_precision", rel_precision.to_json()),
            ("min_batches", min_batches.to_json()),
            ("max_accesses", max_accesses.to_json()),
            ("max_warmup_accesses", max_warmup_accesses.to_json()),
            ("max_sim_time", max_sim_time.to_json()),
        ])
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    fn errors_of(c: &SystemConfig) -> Vec<String> {
        c.validate().unwrap_err().0
    }

    /// The member keys of a JSON object, in order.
    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The compact JSON text of member `key` of `c`'s document.
    fn member(c: &SystemConfig, key: &str) -> Option<String> {
        c.to_json().get(key).map(Json::dump)
    }

    #[test]
    fn paper_default_validates() {
        SystemConfig::paper_default().validate().unwrap();
        SystemConfig::small().validate().unwrap();
    }

    #[test]
    fn effective_pull_bw_per_algorithm() {
        let mut c = SystemConfig::paper_default();
        c.pull_bw = 0.3;
        c.algorithm = Algorithm::PurePush;
        assert_eq!(c.effective_pull_bw(), 0.0);
        c.algorithm = Algorithm::PurePull;
        assert_eq!(c.effective_pull_bw(), 1.0);
        c.algorithm = Algorithm::Ipp;
        assert_eq!(c.effective_pull_bw(), 0.3);
    }

    #[test]
    fn default_cache_policy_follows_algorithm() {
        let mut c = SystemConfig::paper_default();
        c.algorithm = Algorithm::PurePull;
        assert_eq!(c.effective_cache_policy(), CachePolicy::P);
        c.algorithm = Algorithm::Ipp;
        assert_eq!(c.effective_cache_policy(), CachePolicy::Pix);
        c.mc_cache_policy = Some(CachePolicy::Lru);
        assert_eq!(c.effective_cache_policy(), CachePolicy::Lru);
    }

    #[test]
    fn vc_interarrival_formula() {
        let mut c = SystemConfig::paper_default();
        c.think_time_ratio = 250.0;
        assert!((c.vc_mean_interarrival() - 0.08).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must sum to db_size")]
    fn mismatched_disks_fail_validation() {
        let mut c = SystemConfig::paper_default();
        c.disk_sizes = vec![100, 400, 400];
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "cache larger than database")]
    fn oversized_cache_fails_validation() {
        let mut c = SystemConfig::small();
        c.cache_size = 1000;
        c.assert_valid();
    }

    // One test per check: the exact messages are reported, with the
    // offending values printed in them.

    #[test]
    fn empty_database_is_reported() {
        let mut c = SystemConfig::small();
        c.db_size = 0;
        c.disk_sizes = vec![];
        c.rel_freqs = vec![];
        c.cache_size = 0;
        c.chop = 0;
        assert_eq!(
            errors_of(&c),
            [
                "db_size must be positive",
                "at least one broadcast disk is required"
            ]
        );
    }

    #[test]
    fn disk_size_sum_mismatch_is_reported() {
        let mut c = SystemConfig::small();
        c.disk_sizes = vec![10, 40, 40];
        assert_eq!(
            errors_of(&c),
            ["disk sizes [10, 40, 40] must sum to db_size 100"]
        );
    }

    #[test]
    fn invalid_zipf_theta_is_reported() {
        let mut c = SystemConfig::small();
        c.zipf_theta = -0.5;
        assert_eq!(
            errors_of(&c),
            ["zipf_theta must be finite and >= 0, got -0.5"]
        );
        c.zipf_theta = f64::NAN;
        assert_eq!(
            errors_of(&c),
            ["zipf_theta must be finite and >= 0, got NaN"]
        );
        c.zipf_theta = 0.0; // uniform access is valid
        c.validate().unwrap();
    }

    #[test]
    fn empty_server_queue_is_reported() {
        let mut c = SystemConfig::small();
        c.server_queue_size = 0;
        assert_eq!(errors_of(&c), ["server_queue_size must be positive"]);
    }

    #[test]
    fn measurement_protocol_bounds() {
        MeasurementProtocol::paper().validate().unwrap();
        MeasurementProtocol::quick().validate().unwrap();
        let mut p = MeasurementProtocol::quick();
        p.batch_size = 0;
        assert!(p.validate().unwrap_err().contains("batch_size"));
        p = MeasurementProtocol::quick();
        p.rel_precision = 0.0;
        assert!(p.validate().unwrap_err().contains("rel_precision"));
        p = MeasurementProtocol::quick();
        p.max_sim_time = f64::INFINITY;
        assert!(p.validate().unwrap_err().contains("max_sim_time"));
        p = MeasurementProtocol::quick();
        p.min_batches = 0;
        assert!(p.validate().unwrap_err().contains("min_batches"));
        p = MeasurementProtocol::quick();
        p.max_accesses = 0;
        assert!(p.validate().unwrap_err().contains("max_accesses"));
    }

    #[test]
    fn disk_freq_arity_mismatch_is_reported() {
        let mut c = SystemConfig::small();
        c.rel_freqs = vec![3, 2];
        assert_eq!(
            errors_of(&c),
            ["one frequency per disk (3 disks, 2 frequencies)"]
        );
    }

    #[test]
    fn oversized_cache_is_reported() {
        let mut c = SystemConfig::small();
        c.cache_size = 1000;
        // The offset cross-check fires too (cache > slowest disk).
        assert_eq!(
            errors_of(&c),
            [
                "cache larger than database (1000 > 100)",
                "offset requires cache_size <= slowest disk size (1000 > 50)"
            ]
        );
    }

    #[test]
    fn non_positive_think_time_is_reported() {
        let mut c = SystemConfig::small();
        c.mc_think_time = 0.0;
        assert_eq!(
            errors_of(&c),
            ["think time must be finite and positive, got 0"]
        );
        // An infinite think time would schedule the first access at t = inf.
        c.mc_think_time = f64::INFINITY;
        assert_eq!(
            errors_of(&c),
            ["think time must be finite and positive, got inf"]
        );
    }

    #[test]
    fn non_positive_think_time_ratio_is_reported() {
        let mut c = SystemConfig::small();
        c.think_time_ratio = -1.0;
        assert_eq!(
            errors_of(&c),
            ["ThinkTimeRatio must be finite and positive, got -1"]
        );
        // An infinite ratio would give the Virtual Client a zero mean gap.
        c.think_time_ratio = f64::INFINITY;
        assert_eq!(
            errors_of(&c),
            ["ThinkTimeRatio must be finite and positive, got inf"]
        );
    }

    #[test]
    fn invalid_update_rate_is_reported() {
        let mut c = SystemConfig::small();
        c.update_rate = f64::INFINITY;
        assert_eq!(
            errors_of(&c),
            ["update_rate must be finite and >= 0, got inf"]
        );
    }

    #[test]
    fn fraction_out_of_range_is_reported_per_field() {
        let mut c = SystemConfig::small();
        c.pull_bw = 1.5;
        c.noise = -0.25;
        assert_eq!(
            errors_of(&c),
            [
                "noise must be in [0,1], got -0.25",
                "pull_bw must be in [0,1], got 1.5"
            ]
        );
    }

    #[test]
    fn chop_too_large_is_reported() {
        let mut c = SystemConfig::small();
        c.chop = 101;
        assert_eq!(
            errors_of(&c),
            ["cannot chop more than the database (101 > 100)"]
        );
    }

    #[test]
    fn offset_cache_constraint_is_reported() {
        let mut c = SystemConfig::small();
        c.cache_size = 60; // fits the 100-page database, not the 50-page slowest disk
        assert_eq!(
            errors_of(&c),
            ["offset requires cache_size <= slowest disk size (60 > 50)"]
        );
        // Pure-Pull has no broadcast program, so the constraint vanishes.
        c.algorithm = Algorithm::PurePull;
        c.validate().unwrap();
    }

    #[test]
    fn invalid_brownout_window_is_reported() {
        let mut c = SystemConfig::small();
        c.fault.brownout_period = -5.0;
        assert_eq!(
            errors_of(&c),
            [
                "fault.brownout_period must be finite and >= 0, got -5",
                "brownout_duration 0 exceeds brownout_period -5"
            ]
        );
    }

    #[test]
    fn brownout_duration_exceeding_period_is_reported() {
        let mut c = SystemConfig::small();
        c.fault.brownout_period = 10.0;
        c.fault.brownout_duration = 11.0;
        assert_eq!(
            errors_of(&c),
            ["brownout_duration 11 exceeds brownout_period 10"]
        );
    }

    #[test]
    fn fault_loss_probabilities_are_range_checked() {
        let mut c = SystemConfig::small();
        c.fault.broadcast_loss = 1.5;
        c.fault.request_loss = -0.5;
        assert_eq!(
            errors_of(&c),
            [
                "fault.broadcast_loss must be in [0,1], got 1.5",
                "fault.request_loss must be in [0,1], got -0.5"
            ]
        );
    }

    #[test]
    fn invalid_retry_policy_is_reported() {
        let mut c = SystemConfig::small();
        c.fault.retry = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::standard()
        };
        assert_eq!(
            errors_of(&c),
            ["retry backoff_factor must be finite and >= 1, got 0.5"]
        );
    }

    #[test]
    fn invalid_degrade_policy_is_reported() {
        let mut c = SystemConfig::small();
        c.fault.degrade = SaturationPolicy {
            on_occupancy: 0.5,
            off_occupancy: 0.9,
            ..SaturationPolicy::standard()
        };
        assert_eq!(
            errors_of(&c),
            ["saturation off_occupancy must be in [0, on_occupancy), got 0.9 (on = 0.5)"]
        );
    }

    #[test]
    fn all_violations_are_reported_at_once() {
        let mut c = SystemConfig::small();
        c.disk_sizes = vec![10, 40, 40];
        c.mc_think_time = -1.0;
        c.pull_bw = 2.0;
        c.fault.broadcast_loss = 3.0;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            concat!(
                "disk sizes [10, 40, 40] must sum to db_size 100; ",
                "think time must be finite and positive, got -1; ",
                "pull_bw must be in [0,1], got 2; ",
                "fault.broadcast_loss must be in [0,1], got 3"
            )
        );
    }

    #[test]
    fn every_check_that_can_fail_together_is_pinned() {
        // Every check fails except "at least one broadcast disk", which
        // excludes the disk-sum check; the joined text is pinned whole, in
        // check order.
        let mut c = SystemConfig::small();
        c.db_size = 0;
        c.rel_freqs = vec![3, 2];
        c.cache_size = 60;
        c.mc_think_time = f64::NAN;
        c.think_time_ratio = -1.0;
        c.update_rate = -0.5;
        c.zipf_theta = f64::NEG_INFINITY;
        c.server_queue_size = 0;
        c.num_channels = 0;
        c.steady_state_perc = 1.25;
        c.noise = -0.25;
        c.pull_bw = 2.0;
        c.thres_perc = f64::NAN;
        c.fault.broadcast_loss = 3.0;
        c.fault.request_loss = -0.5;
        c.chop = 5;
        c.fault.brownout_period = -5.0;
        c.fault.brownout_duration = -1.0;
        c.fault.retry = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::standard()
        };
        c.fault.degrade = SaturationPolicy {
            on_occupancy: 0.5,
            off_occupancy: 0.9,
            ..SaturationPolicy::standard()
        };
        c.obs.timeline_stride = 0.0;
        c.population = ClientPopulation::fleet(u32::MAX as usize + 1);
        c.fault.crash = CrashConfig {
            schedule: vec![50.0, 20.0],
            downtime: 10.0,
            ..CrashConfig::none()
        };
        c.fault.admission = AdmissionConfig {
            rate: 1.0,
            burst: 0.0,
            retry_after: 8.0,
        };
        assert_eq!(errors_of(&c).len(), 27);
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            concat!(
                "db_size must be positive; ",
                "disk sizes [10, 40, 50] must sum to db_size 0; ",
                "one frequency per disk (3 disks, 2 frequencies); ",
                "cache larger than database (60 > 0); ",
                "think time must be finite and positive, got NaN; ",
                "ThinkTimeRatio must be finite and positive, got -1; ",
                "update_rate must be finite and >= 0, got -0.5; ",
                "zipf_theta must be finite and >= 0, got -inf; ",
                "server_queue_size must be positive; ",
                "num_channels must be positive; ",
                "steady_state_perc must be in [0,1], got 1.25; ",
                "noise must be in [0,1], got -0.25; ",
                "pull_bw must be in [0,1], got 2; ",
                "thres_perc must be in [0,1], got NaN; ",
                "fault.broadcast_loss must be in [0,1], got 3; ",
                "fault.request_loss must be in [0,1], got -0.5; ",
                "cannot chop more than the database (5 > 0); ",
                "offset requires cache_size <= slowest disk size (60 > 50); ",
                "fault.brownout_period must be finite and >= 0, got -5; ",
                "fault.brownout_duration must be finite and >= 0, got -1; ",
                "brownout_duration -1 exceeds brownout_period -5; ",
                "retry backoff_factor must be finite and >= 1, got 0.5; ",
                "saturation off_occupancy must be in [0, on_occupancy), got 0.9 (on = 0.5); ",
                "timeline_stride must be finite and positive, got 0; ",
                "fleet_clients must fit in u32, got 4294967296; ",
                "crash schedule must be strictly increasing, got 50 then 20; ",
                "admission burst must be finite and >= 1 when enabled, got 0"
            )
        );
    }

    #[test]
    fn config_round_trips_through_json() {
        // The paper's system serializes exactly its Table 3 knobs, in
        // declaration order, and the text parses back to the same tree.
        let c = SystemConfig::paper_default();
        let text = bpp_json::to_string(&c);
        assert_eq!(
            text,
            concat!(
                r#"{"db_size":1000,"cache_size":100,"mc_think_time":20.0,"think_time_ratio":10.0,"#,
                r#""steady_state_perc":0.95,"noise":0.0,"zipf_theta":0.95,"disk_sizes":[100,400,500],"#,
                r#""rel_freqs":[3,2,1],"offset":true,"server_queue_size":100,"pull_bw":0.5,"#,
                r#""thres_perc":0.0,"chop":0,"algorithm":"Ipp","mc_cache_policy":null,"#,
                r#""queue_discipline":"Fifo","mc_prefetch":false,"update_rate":0.0,"#,
                r#""seed":1592635612}"#
            )
        );
        assert_eq!(Json::parse(&text).unwrap(), c.to_json());
    }

    #[test]
    fn every_enum_variant_round_trips_through_json() {
        // Each variant of each enum field serializes as its name, the
        // optional policy as null when unset, and a max-range seed at the
        // writer's full integer width.
        let mut c = SystemConfig::small();
        c.seed = u64::MAX;
        assert_eq!(member(&c, "seed").as_deref(), Some("18446744073709551615"));
        assert_eq!(member(&c, "mc_cache_policy").as_deref(), Some("null"));
        for (algorithm, name) in [
            (Algorithm::PurePush, r#""PurePush""#),
            (Algorithm::PurePull, r#""PurePull""#),
            (Algorithm::Ipp, r#""Ipp""#),
        ] {
            c.algorithm = algorithm;
            assert_eq!(member(&c, "algorithm").as_deref(), Some(name));
        }
        for (policy, name) in [
            (CachePolicy::Pix, r#""Pix""#),
            (CachePolicy::P, r#""P""#),
            (CachePolicy::Lru, r#""Lru""#),
            (CachePolicy::Lfu, r#""Lfu""#),
        ] {
            c.mc_cache_policy = Some(policy);
            assert_eq!(member(&c, "mc_cache_policy").as_deref(), Some(name));
        }
        for (discipline, name) in [
            (QueueDiscipline::Fifo, r#""Fifo""#),
            (QueueDiscipline::MostRequested, r#""MostRequested""#),
        ] {
            c.queue_discipline = discipline;
            assert_eq!(member(&c, "queue_discipline").as_deref(), Some(name));
        }
    }

    #[test]
    fn protocol_round_trips_through_json() {
        assert_eq!(
            bpp_json::to_string(&MeasurementProtocol::paper()),
            concat!(
                r#"{"skip_accesses":4000,"batch_size":500,"rel_precision":0.015,"min_batches":12,"#,
                r#""max_accesses":200000,"max_warmup_accesses":50000,"max_sim_time":500000000.0}"#
            )
        );
        assert_eq!(
            bpp_json::to_string(&MeasurementProtocol::quick()),
            concat!(
                r#"{"skip_accesses":200,"batch_size":100,"rel_precision":0.1,"min_batches":4,"#,
                r#""max_accesses":4000,"max_warmup_accesses":2000,"max_sim_time":5000000.0}"#
            )
        );
    }

    #[test]
    fn disabled_fault_model_is_invisible_in_json() {
        let c = SystemConfig::paper_default();
        assert!(!c.fault.enabled());
        let s = bpp_json::to_string(&c);
        assert!(!s.contains("fault"), "no-op fault model leaked into JSON");
    }

    #[test]
    fn enabled_fault_model_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.fault = FaultConfig::lossy(0.1);
        c.fault.brownout_period = 500.0;
        c.fault.brownout_duration = 50.0;
        c.fault.overflow = OverflowPolicy::DropOldest;
        c.validate().unwrap();
        assert_eq!(keys(&c.to_json()).last(), Some(&"fault"));
        assert_eq!(
            member(&c, "fault").as_deref(),
            Some(concat!(
                r#"{"broadcast_loss":0.1,"request_loss":0.1,"brownout_period":500.0,"#,
                r#""brownout_duration":50.0,"overflow":"drop_oldest","#,
                r#""retry":{"max_retries":4,"base_timeout":64.0,"backoff_factor":2.0,"#,
                r#""max_backoff":1024.0,"jitter":0.5},"#,
                r#""degrade":{"on_occupancy":0.9,"off_occupancy":0.5,"shed_to":0.0,"smoothing":0.05}}"#
            ))
        );
    }

    #[test]
    fn disabled_obs_block_is_invisible_in_json() {
        let c = SystemConfig::paper_default();
        assert!(!c.obs.enabled);
        let s = bpp_json::to_string(&c);
        assert!(!s.contains("obs"), "no-op obs block leaked into JSON");
    }

    #[test]
    fn enabled_obs_block_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.obs.enabled = true;
        c.obs.timeline_stride = 25.0;
        c.validate().unwrap();
        assert_eq!(
            member(&c, "obs").as_deref(),
            Some(r#"{"enabled":true,"timeline_stride":25.0}"#)
        );
    }

    #[test]
    fn invalid_obs_config_is_reported() {
        let mut c = SystemConfig::small();
        c.obs.timeline_stride = -1.0;
        assert_eq!(
            errors_of(&c),
            ["timeline_stride must be finite and positive, got -1"]
        );
    }

    #[test]
    fn aggregate_population_is_invisible_in_json() {
        let c = SystemConfig::paper_default();
        assert!(!c.population.is_fleet());
        let s = bpp_json::to_string(&c);
        assert!(
            !s.contains("population"),
            "aggregate population leaked into JSON"
        );
    }

    #[test]
    fn fleet_population_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.population = ClientPopulation::fleet(500);
        c.validate().unwrap();
        assert_eq!(
            member(&c, "population").as_deref(),
            Some(r#"{"fleet_clients":500}"#)
        );
    }

    #[test]
    fn single_channel_is_invisible_in_json() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_channels, 1);
        let s = bpp_json::to_string_pretty(&c);
        assert!(
            !s.contains("num_channels"),
            "K=1 must serialize byte-identically to the pre-extension form"
        );
    }

    #[test]
    fn multi_channel_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.num_channels = 4;
        c.validate().unwrap();
        let s = bpp_json::to_string_pretty(&c);
        assert!(s.contains("\"num_channels\": 4"));
        assert_eq!(keys(&c.to_json()).last(), Some(&"num_channels"));
    }

    #[test]
    fn zero_channels_is_reported() {
        let mut c = SystemConfig::small();
        c.num_channels = 0;
        assert_eq!(errors_of(&c), ["num_channels must be positive"]);
    }

    #[test]
    fn oversized_fleet_is_reported() {
        let mut c = SystemConfig::small();
        c.population = ClientPopulation::fleet(u32::MAX as usize + 1);
        assert_eq!(
            errors_of(&c),
            ["fleet_clients must fit in u32, got 4294967296"]
        );
    }

    #[test]
    fn lossy_preset_is_enabled_and_valid() {
        assert!(!FaultConfig::none().enabled());
        let f = FaultConfig::lossy(0.2);
        assert!(f.enabled());
        let mut c = SystemConfig::small();
        c.fault = f;
        c.validate().unwrap();
    }

    #[test]
    fn brownout_window_membership() {
        let f = FaultConfig {
            brownout_period: 100.0,
            brownout_duration: 10.0,
            ..FaultConfig::none()
        };
        assert!(f.in_brownout(0.0));
        assert!(f.in_brownout(9.9));
        assert!(!f.in_brownout(10.0));
        assert!(!f.in_brownout(99.0));
        assert!(f.in_brownout(105.0));
        assert!(!FaultConfig::none().in_brownout(0.0));
    }

    #[test]
    fn disabled_crash_model_is_invisible_in_json() {
        // A fault model with loss but no crashes must serialize exactly as
        // it did before the crash domain existed: no crash/admission keys.
        let mut c = SystemConfig::small();
        c.fault = FaultConfig::lossy(0.1);
        assert!(!c.fault.crash.enabled());
        assert!(!c.fault.admission.enabled());
        let s = bpp_json::to_string(&c);
        assert!(!s.contains("crash"), "no-op crash model leaked into JSON");
        assert!(!s.contains("admission"), "no-op admission leaked into JSON");
    }

    #[test]
    fn enabled_crash_model_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.fault.crash = CrashConfig {
            downtime: 64.0,
            schedule: vec![2000.0],
            reconnect_jitter: 0.5,
            recovery_epsilon: 0.05,
        };
        c.fault.admission = AdmissionConfig::standard();
        c.validate().unwrap();
        let fault = c.fault.to_json();
        assert_eq!(
            fault.get("crash").map(Json::dump).as_deref(),
            Some(concat!(
                r#"{"downtime":64.0,"schedule":[2000.0],"#,
                r#""reconnect_jitter":0.5,"recovery_epsilon":0.05}"#
            ))
        );
        assert_eq!(
            fault.get("admission").map(Json::dump).as_deref(),
            Some(r#"{"rate":1.0,"burst":8.0,"retry_after":32.0}"#)
        );
        assert_eq!(member(&c, "fault"), Some(fault.dump()));
    }

    #[test]
    fn explicit_crash_schedule_round_trips_through_json() {
        let mut c = SystemConfig::small();
        c.fault.crash = CrashConfig {
            schedule: vec![100.0, 450.5, 900.0],
            downtime: 32.0,
            ..CrashConfig::none()
        };
        c.validate().unwrap();
        let fault = c.fault.to_json();
        assert_eq!(
            fault.get("crash").map(Json::dump).as_deref(),
            Some(concat!(
                r#"{"downtime":32.0,"schedule":[100.0,450.5,900.0],"#,
                r#""reconnect_jitter":0.0,"recovery_epsilon":0.0}"#
            ))
        );
        assert!(fault.get("admission").is_none());
    }

    #[test]
    fn crash_validation_rejects_malformed_models() {
        // Crashes without downtime make no sense.
        let mut c = SystemConfig::small();
        c.fault.crash = CrashConfig {
            schedule: vec![50.0],
            downtime: 0.0,
            ..CrashConfig::none()
        };
        assert_eq!(
            errors_of(&c),
            ["crash downtime must be finite and positive when crashes are configured, got 0"]
        );
        // Schedules must be strictly increasing.
        c.fault.crash = CrashConfig {
            schedule: vec![100.0, 100.0],
            downtime: 10.0,
            ..CrashConfig::none()
        };
        assert_eq!(
            errors_of(&c),
            ["crash schedule must be strictly increasing, got 100 then 100"]
        );
        // Jitter is a fraction.
        c.fault.crash = CrashConfig {
            schedule: vec![50.0],
            downtime: 10.0,
            reconnect_jitter: 1.5,
            ..CrashConfig::none()
        };
        assert_eq!(
            errors_of(&c),
            ["crash reconnect_jitter must be in [0,1], got 1.5"]
        );
    }

    #[test]
    fn admission_validation_is_surfaced() {
        let mut c = SystemConfig::small();
        c.fault.admission = AdmissionConfig {
            rate: 1.0,
            burst: 0.0,
            retry_after: 8.0,
        };
        assert_eq!(
            errors_of(&c),
            ["admission burst must be finite and >= 1 when enabled, got 0"]
        );
    }

    /// DESIGN.md's config table documents every key a config can emit:
    /// a maximal config (every optional member present) is built from
    /// exhaustive literals of the six documented structs, so a new field
    /// does not compile until it is set here, and its key then fails this
    /// test until DESIGN.md names it.
    #[test]
    fn design_md_documents_every_config_key() {
        const DESIGN: &str = include_str!("../../../DESIGN.md");
        let population = ClientPopulation { fleet_clients: 100 };
        let obs = ObsConfig {
            enabled: true,
            timeline_stride: 50.0,
            disk_share: true,
        };
        let crash = CrashConfig {
            downtime: 64.0,
            schedule: vec![2000.0],
            reconnect_jitter: 0.5,
            recovery_epsilon: 0.05,
        };
        let admission = AdmissionConfig {
            rate: 1.0,
            burst: 8.0,
            retry_after: 32.0,
        };
        let fault = FaultConfig {
            broadcast_loss: 0.1,
            request_loss: 0.1,
            brownout_period: 500.0,
            brownout_duration: 50.0,
            overflow: OverflowPolicy::DropOldest,
            retry: RetryPolicy::standard(),
            degrade: SaturationPolicy::standard(),
            crash,
            admission,
        };
        let c = SystemConfig {
            db_size: 100,
            cache_size: 10,
            mc_think_time: 20.0,
            think_time_ratio: 10.0,
            steady_state_perc: 0.95,
            noise: 0.1,
            zipf_theta: 0.95,
            disk_sizes: vec![10, 40, 50],
            rel_freqs: vec![3, 2, 1],
            offset: true,
            server_queue_size: 10,
            pull_bw: 0.5,
            thres_perc: 0.1,
            chop: 5,
            algorithm: Algorithm::Ipp,
            mc_cache_policy: Some(CachePolicy::Pix),
            queue_discipline: QueueDiscipline::MostRequested,
            mc_prefetch: true,
            update_rate: 0.01,
            seed: 7,
            num_channels: 2,
            fault,
            obs,
            population,
        };
        c.validate().unwrap();
        let v = c.to_json();
        let fault = v.get("fault").unwrap();
        let objects = [
            ("SystemConfig", &v),
            ("FaultConfig", fault),
            ("CrashConfig", fault.get("crash").unwrap()),
            ("AdmissionConfig", fault.get("admission").unwrap()),
            ("ObsConfig", v.get("obs").unwrap()),
            ("ClientPopulation", v.get("population").unwrap()),
        ];
        for (name, obj) in objects {
            let ks = keys(obj);
            assert!(!ks.is_empty(), "{name} serialized no members");
            for key in ks {
                assert!(
                    DESIGN.contains(&format!("`{key}`")),
                    "{name} key `{key}` is missing from DESIGN.md's config table"
                );
            }
        }
    }
}
