//! Closed-form comparators.
//!
//! Two analytic models cross-check the simulator:
//!
//! * [`push_response`] — the exact expected Pure-Push response time: the
//!   probability-weighted mean next-arrival distance over the broadcast
//!   program, with the ideal cache contents serving for free. At Noise = 0
//!   this must agree with the simulated Pure-Push steady state to within
//!   statistical noise (an end-to-end validation of the whole event path).
//! * [`pull_mm1k`] — an M/M/1/K approximation of the pull channel in the
//!   spirit of the analytical work the paper compares against (\[Imie94c\],
//!   \[Wong88\]). The paper explicitly notes its environment "is not
//!   accurately captured by an M/M/1 queue" (caching and coalescing make
//!   arrivals non-memoryless, service is slotted); the model is still
//!   useful at light load and quantifies *how far* the real system departs
//!   from it as saturation sets in.

use crate::config::{Algorithm, CachePolicy, SystemConfig};
use bpp_broadcast::{
    analysis::analyse, assignment::identity_ranking, hot_access_sets, Assignment, BroadcastProgram,
    DiskSpec, MultiChannelProgram, PageId,
};
use bpp_cache::StaticScoreCache;
use bpp_workload::Zipf;

/// The ranked page-to-disk assignment the server broadcasts for `cfg`:
/// the identity ranking on the configured disks, shifted by the Offset
/// transform and chopped. Pure-Pull broadcasts nothing, so every page is
/// chopped off one flat disk.
pub fn build_assignment(cfg: &SystemConfig) -> Assignment {
    let ranking = identity_ranking(cfg.db_size);
    if cfg.algorithm == Algorithm::PurePull {
        let mut a = Assignment::from_ranking(&ranking, &DiskSpec::flat(cfg.db_size));
        a.chop(cfg.db_size);
        return a;
    }
    let spec = DiskSpec::new(cfg.disk_sizes.clone(), cfg.rel_freqs.clone());
    let mut a = if cfg.offset {
        Assignment::with_offset(&ranking, &spec, cfg.cache_size)
    } else {
        Assignment::from_ranking(&ranking, &spec)
    };
    a.chop(cfg.chop);
    a
}

/// The single-channel broadcast program the simulator airs for `cfg`
/// (empty for Pure-Pull).
pub fn build_program(cfg: &SystemConfig) -> BroadcastProgram {
    BroadcastProgram::generate(&build_assignment(cfg), cfg.db_size)
}

/// The channels the simulator airs for `cfg`: `program` itself when
/// `num_channels` is 1. With K > 1, `assignment` (which generated
/// `program`) is partitioned across K lock-step channels so that every hot
/// access set (the hottest uncached broadcast pages under `probs`, against
/// the ideal cache) sits on one channel, which is what verify rule V6
/// checks.
pub fn build_channels(
    cfg: &SystemConfig,
    assignment: &Assignment,
    program: BroadcastProgram,
    probs: &[f64],
) -> MultiChannelProgram {
    if cfg.num_channels == 1 {
        return MultiChannelProgram::single(program);
    }
    let sets = hot_access_sets(&program, probs, &ideal_cache(cfg, &program));
    MultiChannelProgram::generate(assignment, cfg.db_size, cfg.num_channels, &sets)
}

/// Ideal steady-state cache contents for `cfg` against `program` under the
/// effective cache policy (P for Pure-Pull, PIX otherwise) — the pages a
/// perfectly warmed client holds, which both the closed form and the
/// bpp-verify analytic cross-check treat as free hits.
pub fn ideal_cache(cfg: &SystemConfig, program: &BroadcastProgram) -> Vec<PageId> {
    let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
    let probs = zipf.probs();
    let freqs: Vec<usize> = (0..cfg.db_size)
        .map(|i| program.frequency(PageId(i as u32)))
        .collect();
    let cache = match cfg.effective_cache_policy() {
        CachePolicy::P => StaticScoreCache::p(cfg.cache_size, probs),
        _ => StaticScoreCache::pix(cfg.cache_size, probs, &freqs),
    };
    cache
        .ideal_content()
        .into_iter()
        .map(|i| PageId(i as u32))
        .collect()
}

/// Expected Pure-Push steady-state response time (broadcast units) for a
/// Noise-0 client with an ideally warmed cache. Cache hits count as zero,
/// exactly like the simulator's metric; so do chopped pages, which the push
/// model cannot serve (every page under Pure-Pull, whose program is empty).
pub fn push_response(cfg: &SystemConfig) -> f64 {
    let program = build_program(cfg);
    let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
    let probs = zipf.probs(); // Noise=0: item i has rank i
    let cached = ideal_cache(cfg, &program);
    analyse(&program, probs, &cached).expected_response
}

/// Output of the M/M/1/K pull-channel model.
#[derive(Debug, Clone, Copy)]
pub struct PullAnalysis {
    /// Offered load ρ = λ/μ.
    pub rho: f64,
    /// Probability an arriving request finds the queue full (is dropped).
    pub block_prob: f64,
    /// Mean number of queued requests.
    pub mean_queue: f64,
    /// Mean response time of an *accepted* request (wait + 1 service slot).
    pub response: f64,
}

/// M/M/1/K model of the pull channel.
///
/// * λ: request arrival rate = VC miss rate
///   (`ThinkTimeRatio / MC_ThinkTime × miss-fraction`); the MC's own ~1/20
///   per unit is ignored, as is coalescing (both noted divergences).
/// * μ: service rate = `effective_pull_bw` pages per broadcast unit
///   (1 for Pure-Pull).
/// * K: `ServerQSize` waiting room plus the one in service.
pub fn pull_mm1k(cfg: &SystemConfig) -> PullAnalysis {
    let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
    let steady_hit_mass = zipf.head_mass(cfg.cache_size);
    let miss_frac = 1.0 - cfg.steady_state_perc * steady_hit_mass;
    let lambda = cfg.think_time_ratio / cfg.mc_think_time * miss_frac;
    let mu = match cfg.algorithm {
        Algorithm::PurePull => 1.0,
        _ => cfg.effective_pull_bw(),
    };
    mm1k(lambda, mu, cfg.server_queue_size)
}

/// Textbook M/M/1/K: arrival rate `lambda`, service rate `mu`, system
/// capacity `k + 1` (k waiting + 1 in service).
pub fn mm1k(lambda: f64, mu: f64, k: usize) -> PullAnalysis {
    assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
    let cap = k + 1; // system capacity N
    let rho = lambda / mu;
    let n = cap as f64;
    let (block_prob, mean_queue) = if (rho - 1.0).abs() < 1e-12 {
        // ρ = 1: uniform distribution over 0..=N.
        (1.0 / (n + 1.0), n / 2.0)
    } else {
        let rn1 = rho.powi(cap as i32 + 1);
        let p_block = rho.powi(cap as i32) * (1.0 - rho) / (1.0 - rn1);
        let l = rho / (1.0 - rho) - (n + 1.0) * rn1 / (1.0 - rn1);
        (p_block, l)
    };
    let accepted = lambda * (1.0 - block_prob);
    let response = if accepted > 0.0 {
        mean_queue / accepted
    } else {
        1.0 / mu
    };
    PullAnalysis {
        rho,
        block_prob,
        mean_queue,
        response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, MeasurementProtocol};
    use crate::runner::run_steady_state;

    #[test]
    fn push_response_matches_simulation() {
        // End-to-end validation: the closed form and the event-driven
        // simulator must agree for Pure-Push at Noise 0.
        let mut cfg = SystemConfig::small();
        cfg.algorithm = Algorithm::PurePush;
        let analytic = push_response(&cfg);
        let mut proto = MeasurementProtocol::quick();
        proto.max_accesses = 20_000;
        proto.rel_precision = 0.02;
        proto.min_batches = 10;
        let sim = run_steady_state(&cfg, &proto);
        let rel = (sim.mean_response - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "analytic {analytic:.1} vs simulated {:.1} (rel {rel:.3})",
            sim.mean_response
        );
    }

    #[test]
    fn paper_config_push_response_magnitude() {
        let mut cfg = SystemConfig::paper_default();
        cfg.algorithm = Algorithm::PurePush;
        let r = push_response(&cfg);
        // Our reproduction of the Pure-Push flat line; the paper reports
        // 278 bu on the authors' generator. Locked here as a regression
        // guard on the whole program/caching pipeline.
        assert!(r > 100.0 && r < 400.0, "push response {r}");
    }

    #[test]
    fn mm1k_light_load_is_nearly_ideal() {
        let a = mm1k(0.1, 1.0, 100);
        assert!(a.block_prob < 1e-6);
        assert!(a.response < 1.2);
    }

    #[test]
    fn mm1k_overload_blocks_heavily() {
        let a = mm1k(5.0, 1.0, 100);
        assert!(a.block_prob > 0.7, "block {}", a.block_prob);
        assert!(a.mean_queue > 90.0);
    }

    #[test]
    fn mm1k_critical_load_is_finite() {
        let a = mm1k(1.0, 1.0, 10);
        assert!((a.block_prob - 1.0 / 12.0).abs() < 1e-9);
        assert!((a.mean_queue - 5.5).abs() < 1e-9);
    }

    #[test]
    fn pull_model_tracks_think_time_ratio() {
        let mut cfg = SystemConfig::paper_default();
        cfg.algorithm = Algorithm::PurePull;
        cfg.think_time_ratio = 10.0;
        let light = pull_mm1k(&cfg);
        cfg.think_time_ratio = 250.0;
        let heavy = pull_mm1k(&cfg);
        assert!(light.block_prob < heavy.block_prob);
        assert!(light.response < heavy.response);
    }
}
