//! Reproducibility guarantees: every run is a pure function of its
//! configuration (including the seed).

#![expect(clippy::float_cmp, reason = "tests pin exact values")]

use bpp_core::adaptive::{run_adaptive, DEFAULT_INTERVAL};
use bpp_core::experiments::{derive_seed, fig4, par_run};
use bpp_core::{run_steady_state, run_warmup, Algorithm, MeasurementProtocol, SystemConfig};

fn cfg(algo: Algorithm, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::small();
    c.algorithm = algo;
    c.seed = seed;
    c
}

#[test]
fn steady_state_is_deterministic_for_all_algorithms() {
    let proto = MeasurementProtocol::quick();
    for algo in [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp] {
        let a = run_steady_state(&cfg(algo, 1), &proto);
        let b = run_steady_state(&cfg(algo, 1), &proto);
        assert_eq!(a.mean_response, b.mean_response, "{algo:?}");
        assert_eq!(a.measured_accesses, b.measured_accesses);
        assert_eq!(a.requests_received, b.requests_received);
        assert_eq!(a.sim_time, b.sim_time);
    }
}

#[test]
fn warmup_is_deterministic() {
    let proto = MeasurementProtocol::quick();
    let a = run_warmup(&cfg(Algorithm::Ipp, 2), &proto);
    let b = run_warmup(&cfg(Algorithm::Ipp, 2), &proto);
    assert_eq!(a.times, b.times);
}

#[test]
fn adaptive_is_deterministic() {
    let proto = MeasurementProtocol::quick();
    let a = run_adaptive(&cfg(Algorithm::Ipp, 3), &proto, DEFAULT_INTERVAL);
    let b = run_adaptive(&cfg(Algorithm::Ipp, 3), &proto, DEFAULT_INTERVAL);
    assert_eq!(a.steady.mean_response, b.steady.mean_response);
    assert_eq!(a.final_pull_bw, b.final_pull_bw);
    assert_eq!(a.adjustments, b.adjustments);
}

#[test]
fn seeds_actually_matter() {
    let proto = MeasurementProtocol::quick();
    let a = run_steady_state(&cfg(Algorithm::Ipp, 10), &proto);
    let b = run_steady_state(&cfg(Algorithm::Ipp, 11), &proto);
    assert_ne!(a.mean_response, b.mean_response);
}

#[test]
fn parallel_and_sequential_execution_agree() {
    let proto = MeasurementProtocol::quick();
    let configs: Vec<SystemConfig> = (0..5).map(|i| cfg(Algorithm::Ipp, 20 + i)).collect();
    let par = par_run(&configs, &proto);
    for (c, p) in configs.iter().zip(&par) {
        let seq = run_steady_state(c, &proto);
        assert_eq!(seq.mean_response, p.mean_response);
    }
}

#[test]
fn fig4_batch_matches_sequential_warmups() {
    // fig4 runs its five warm-ups in one pool call; each curve must be
    // exactly the milestones of a sequential run of the same cell.
    let base = SystemConfig::small();
    let proto = MeasurementProtocol::quick();
    let fig = fig4(&base, &proto, 25.0);
    let cells: [(Algorithm, f64); 5] = [
        (Algorithm::PurePush, 0.0),
        (Algorithm::PurePull, 0.0),
        (Algorithm::PurePull, 0.95),
        (Algorithm::Ipp, 0.0),
        (Algorithm::Ipp, 0.95),
    ];
    assert_eq!(fig.series.len(), cells.len());
    for (k, (series, (algo, ssp))) in fig.series.iter().zip(cells).enumerate() {
        let mut c = base.clone();
        c.think_time_ratio = 25.0;
        c.seed = derive_seed(base.seed, 50 + k as u64);
        c.algorithm = algo;
        if algo != Algorithm::PurePush {
            c.steady_state_perc = ssp;
        }
        if algo == Algorithm::Ipp {
            c.pull_bw = 0.5;
            c.thres_perc = 0.0;
        }
        let seq = run_warmup(&c, &proto);
        let expected: Vec<(f64, f64)> = seq
            .fractions
            .iter()
            .zip(&seq.times)
            .map(|(&f, t)| (f * 100.0, t.unwrap_or(f64::INFINITY)))
            .collect();
        assert_eq!(series.points, expected, "`{}` differs", series.label);
    }
}

#[test]
fn results_serialize_to_json() {
    let proto = MeasurementProtocol::quick();
    let r = run_steady_state(&cfg(Algorithm::Ipp, 30), &proto);
    let json = bpp_json::to_string_pretty(&r);
    assert!(json.contains("mean_response"));
    assert!(json.contains("drop_rate"));
}

#[test]
fn steady_state_results_are_bitwise_identical() {
    // Stronger than comparing a few fields: the full serialized result —
    // every metric, every quantile, every slot counter — must match bit
    // for bit across two runs of the same config + seed.
    let proto = MeasurementProtocol::quick();
    for algo in [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp] {
        let a = run_steady_state(&cfg(algo, 7), &proto);
        let b = run_steady_state(&cfg(algo, 7), &proto);
        assert_eq!(
            bpp_json::to_string(&a),
            bpp_json::to_string(&b),
            "{algo:?} differs between identical runs"
        );
    }
}

#[test]
fn noise_permutation_depends_only_on_seed() {
    // Same seed + same noise level must sample the same permutation even
    // across algorithms (the noise stream is independent of the others).
    let proto = MeasurementProtocol::quick();
    let mut a = cfg(Algorithm::PurePush, 40);
    a.noise = 0.35;
    let r1 = run_steady_state(&a, &proto);
    let r2 = run_steady_state(&a, &proto);
    assert_eq!(r1.mean_response, r2.mean_response);
}
