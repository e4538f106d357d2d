//! Randomised-configuration robustness: every valid `SystemConfig` must
//! produce a finite, invariant-respecting run — no panics, no stalls, no
//! bandwidth-bound violations — across the whole parameter space, not just
//! the paper's grid.
//!
//! Configurations are drawn by a deterministic generator: case `i` derives
//! every knob from `stream_rng(SEED, i)`, so any failure reproduces from
//! the case index alone.

// bpp-lint: allow-file(D1): property cases derive per-case RNG streams from the case index
use bpp_core::{
    run_steady_state, AdmissionConfig, Algorithm, CachePolicy, ClientPopulation, CrashConfig,
    FaultConfig, MeasurementProtocol, ObsConfig, OverflowPolicy, QueueDiscipline, RetryPolicy,
    SaturationPolicy, SystemConfig,
};
use bpp_sim::rng::{stream_rng, Rng};

const SEED: u64 = 0x5EED_B0DC;
const CASES: u64 = 24;

/// Generator: one configuration spanning algorithms, cache policies, skew,
/// load, chop fractions, disciplines, prefetch, update churn, every fault
/// knob and every observability toggle. `FaultConfig`, `CrashConfig` and
/// `ObsConfig` are written as exhaustive literals, so a new knob does not
/// compile until it gets a range here.
fn gen_config(case: u64) -> SystemConfig {
    let mut rng = stream_rng(SEED, case);
    let algorithm = match rng.random_range(0..3) {
        0 => Algorithm::PurePush,
        1 => Algorithm::PurePull,
        _ => Algorithm::Ipp,
    };
    let mc_cache_policy = match rng.random_range(0..5) {
        0 => None,
        1 => Some(CachePolicy::Pix),
        2 => Some(CachePolicy::P),
        3 => Some(CachePolicy::Lru),
        _ => Some(CachePolicy::Lfu),
    };
    let unit = 2 + rng.random_range(0..6);
    let theta = rng.random::<f64>() * 1.5;
    let ssp = [0.0, 0.5, 0.95, 1.0][rng.random_range(0..4)];
    let noise = rng.random::<f64>() * 0.5;
    let ttr = 1.0 + rng.random::<f64>() * 299.0;
    let bw = rng.random::<f64>();
    let thres = [0.0, 0.1, 0.35, 1.0][rng.random_range(0..4)];
    let chopq = rng.random_range(0..4);
    let seed = rng.random::<u64>();
    let disc = if rng.random_bool(0.5) {
        QueueDiscipline::Fifo
    } else {
        QueueDiscipline::MostRequested
    };
    let pf = rng.random_bool(0.5);
    let upd = [0.0, 0.02, 0.2][rng.random_range(0..3)];
    // A third of the cases run faultless; the rest draw each fault knob
    // on its own: symmetric channel loss, brownouts, the overflow policy,
    // retries, degradation, server crashes and admission control.
    let fault = if rng.random_range(0..3) == 0 {
        FaultConfig::none()
    } else {
        let loss = [0.0, 0.05, 0.2][rng.random_range(0..3)];
        let brownouts = rng.random_bool(0.5);
        FaultConfig {
            broadcast_loss: loss,
            request_loss: loss,
            brownout_period: if brownouts { 500.0 } else { 0.0 },
            brownout_duration: if brownouts { 50.0 } else { 0.0 },
            overflow: if rng.random_bool(0.5) {
                OverflowPolicy::DropNewest
            } else {
                OverflowPolicy::DropOldest
            },
            retry: if rng.random_bool(0.75) {
                RetryPolicy::standard()
            } else {
                RetryPolicy::disabled()
            },
            degrade: if rng.random_bool(0.5) {
                SaturationPolicy::standard()
            } else {
                SaturationPolicy::disabled()
            },
            crash: gen_crash(&mut rng),
            admission: if rng.random_bool(0.5) {
                AdmissionConfig::standard()
            } else {
                AdmissionConfig::disabled()
            },
        }
    };

    // Half the cases run with the observability layer on: it draws no
    // randomness and must not perturb any invariant checked below.
    let obs = ObsConfig {
        enabled: rng.random_bool(0.5),
        timeline_stride: 1.0 + rng.random::<f64>() * 199.0,
        trace_capacity: rng.random_range(0..128) as u64,
        mc_hit_rate: rng.random_bool(0.5),
        disk_share: rng.random_bool(0.5),
    };

    // A quarter of the cases replace the Virtual Client with a real arena
    // fleet (million-client extension).
    let population = if rng.random_bool(0.25) {
        ClientPopulation::fleet(1 + rng.random_range(0..400))
    } else {
        ClientPopulation::aggregate()
    };

    // Half the cases run the K-channel extension (2 or 4 channels).
    let num_channels = [1, 1, 2, 4][rng.random_range(0..4)];

    let disk_sizes = vec![unit, 4 * unit, 5 * unit];
    let db = 10 * unit;
    let slowest = 5 * unit;
    let cache = unit.min(slowest);
    SystemConfig {
        db_size: db,
        cache_size: cache,
        mc_think_time: 5.0,
        think_time_ratio: ttr,
        steady_state_perc: ssp,
        noise,
        zipf_theta: theta,
        disk_sizes,
        rel_freqs: vec![3, 2, 1],
        offset: true,
        server_queue_size: unit,
        pull_bw: bw,
        thres_perc: thres,
        chop: chopq * slowest / 4,
        algorithm,
        mc_cache_policy,
        queue_discipline: disc,
        mc_prefetch: pf,
        update_rate: upd,
        update_access_correlation: 0.5,
        seed,
        num_channels,
        fault,
        obs,
        population,
    }
}

/// Crash model: a third of the draws never crash, a third crash at
/// exponential intervals (`mtbf`), a third on an explicit schedule.
fn gen_crash(rng: &mut impl Rng) -> CrashConfig {
    let mode = rng.random_range(0..3);
    let first = rng.random::<f64>() * 2000.0;
    CrashConfig {
        mtbf: if mode == 1 {
            500.0 + rng.random::<f64>() * 5000.0
        } else {
            0.0
        },
        downtime: 1.0 + rng.random::<f64>() * 100.0,
        schedule: if mode == 2 {
            vec![first, first + 1000.0, first + 5000.0]
        } else {
            Vec::new()
        },
        reconnect_jitter: rng.random::<f64>(),
        recovery_epsilon: rng.random::<f64>() * 0.2,
    }
}

#[test]
fn any_valid_config_runs_to_completion() {
    for case in 0..CASES {
        let cfg = gen_config(case);
        let mut proto = MeasurementProtocol::quick();
        // Keep the fuzz cheap: tiny measurement targets, tight caps.
        proto.max_accesses = 400;
        proto.skip_accesses = 50;
        proto.max_warmup_accesses = 400;
        proto.max_sim_time = 2.0e5;
        let r = run_steady_state(&cfg, &proto);
        // Finite, non-negative outputs.
        assert!(
            r.mean_response.is_finite() && r.mean_response >= 0.0,
            "case {case}"
        );
        assert!(
            r.sim_time > 0.0 && r.sim_time <= proto.max_sim_time + 1.0,
            "case {case}"
        );
        assert!((0.0..=1.0).contains(&r.mc_hit_rate), "case {case}");
        assert!((0.0..=1.0).contains(&r.drop_rate), "case {case}");
        assert!(r.drop_rate <= r.ignore_rate + 1e-12, "case {case}");
        // Slot conservation: every broadcast unit carries one slot per
        // channel (K channels = K-fold bandwidth). A unit the server spends
        // down silences every channel but counts one `down_slots`.
        let k = cfg.num_channels as f64;
        let down_slots = r
            .fault
            .as_ref()
            .and_then(|f| f.crash.as_ref())
            .map_or(0, |c| c.down_slots);
        let total = r.slots.push_pages
            + r.slots.pull_pages
            + r.slots.empty
            + r.slots.idle
            + cfg.num_channels as u64 * down_slots;
        assert!((total as f64 - k * r.sim_time).abs() <= k, "case {case}");
        // Algorithm bandwidth invariants.
        match cfg.algorithm {
            Algorithm::PurePush => {
                assert_eq!(r.slots.pull_pages, 0, "case {case}");
                assert_eq!(r.requests_received, 0, "case {case}");
            }
            Algorithm::PurePull => {
                assert_eq!(r.slots.push_pages, 0, "case {case}");
                assert_eq!(r.slots.empty, 0, "case {case}");
            }
            Algorithm::Ipp => {}
        }
        // Fleet-population invariants: the result section exists exactly
        // when a fleet could run (a backchannel exists), and its rates
        // are sane.
        if cfg.population.is_fleet() && cfg.algorithm != Algorithm::PurePush {
            let f = r.fleet.as_ref().expect("fleet section present");
            assert_eq!(
                f.clients, cfg.population.fleet_clients as u64,
                "case {case}"
            );
            assert!((0.0..=1.0).contains(&f.hit_rate), "case {case}");
            assert!(f.completed <= f.accesses, "case {case}");
            assert!(
                f.requests_sent + f.requests_filtered <= f.accesses,
                "case {case}"
            );
        } else {
            assert!(r.fleet.is_none(), "case {case}");
        }
        // Determinism: the same config reruns identically.
        let r2 = run_steady_state(&cfg, &proto);
        assert_eq!(r.mean_response, r2.mean_response, "case {case}");
        assert_eq!(r.sim_time, r2.sim_time, "case {case}");
    }
}
