//! Cross-crate integration tests: conservation laws and consistency
//! invariants of full simulation runs.

#![expect(clippy::float_cmp, reason = "tests pin exact values")]

use bpp_core::{
    analytic, run_steady_state, run_warmup, Algorithm, MeasurementProtocol, QueueDiscipline,
    SystemConfig,
};

fn small(algo: Algorithm) -> SystemConfig {
    let mut c = SystemConfig::small();
    c.algorithm = algo;
    c
}

#[test]
fn slot_accounting_conserves_time() {
    for algo in [Algorithm::PurePush, Algorithm::PurePull, Algorithm::Ipp] {
        let r = run_steady_state(&small(algo), &MeasurementProtocol::quick());
        // One slot per broadcast unit: counters must sum to elapsed time
        // (±1 for the slot in flight when the run stopped).
        let total = r.slots.push_pages + r.slots.pull_pages + r.slots.empty + r.slots.idle;
        assert!(
            (total as f64 - r.sim_time).abs() <= 1.0,
            "{algo:?}: slots {total} vs time {}",
            r.sim_time
        );
    }
}

#[test]
fn pull_bandwidth_bound_is_respected() {
    for bw in [0.1, 0.3, 0.5] {
        let mut cfg = small(Algorithm::Ipp);
        cfg.pull_bw = bw;
        cfg.think_time_ratio = 250.0; // saturate so the bound binds
        let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
        let total = r.slots.push_pages + r.slots.pull_pages + r.slots.empty;
        let frac = r.slots.pull_pages as f64 / total as f64;
        assert!(
            frac <= bw + 0.03,
            "PullBW {bw}: pull fraction {frac} exceeds bound"
        );
    }
}

#[test]
fn pure_push_never_pulls_and_pure_pull_never_pushes() {
    let push = run_steady_state(&small(Algorithm::PurePush), &MeasurementProtocol::quick());
    assert_eq!(push.slots.pull_pages, 0);
    assert_eq!(push.requests_received, 0);
    let pull = run_steady_state(&small(Algorithm::PurePull), &MeasurementProtocol::quick());
    assert_eq!(pull.slots.push_pages, 0);
    assert_eq!(pull.slots.empty, 0);
    assert!(pull.requests_received > 0);
}

#[test]
fn responses_are_bounded_by_push_period_under_pure_push() {
    // The "safety net": under Pure-Push no response can exceed one major
    // cycle (1608 slots for the paper layout; scaled config differs).
    let cfg = small(Algorithm::PurePush);
    let program = analytic::build_program(&cfg);
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert!(r.mean_response <= program.major_cycle() as f64);
}

#[test]
fn analytic_and_simulated_pull_agree_at_light_load() {
    // At TTR=10 the queue is nearly empty; the M/M/1/K model should be in
    // the right ballpark for the *miss* response, i.e. overall response
    // scaled by the miss probability.
    let mut cfg = small(Algorithm::PurePull);
    cfg.think_time_ratio = 10.0;
    let sim = run_steady_state(&cfg, &MeasurementProtocol::quick());
    let model = analytic::pull_mm1k(&cfg);
    assert!(model.block_prob < 0.05, "light load should not block");
    // Simulated mean counts hits as 0; the model's response is per accepted
    // request. Both should be small single-digit numbers of slots.
    assert!(sim.mean_response < 10.0, "sim {}", sim.mean_response);
    assert!(model.response < 10.0, "model {}", model.response);
}

#[test]
fn warmup_milestones_are_monotone_and_complete_under_push() {
    let cfg = small(Algorithm::PurePush);
    let r = run_warmup(&cfg, &MeasurementProtocol::quick());
    let times: Vec<f64> = r.times.iter().map(|t| t.expect("reached")).collect();
    for w in times.windows(2) {
        assert!(w[0] <= w[1], "milestones must be non-decreasing: {times:?}");
    }
    // Deliveries complete at slot end (slot start + 1), so the last
    // milestone may carry a timestamp one unit past the engine clock.
    assert!(r.sim_time + 1.0 >= *times.last().unwrap());
}

#[test]
fn safety_net_bounds_worst_case_under_push_but_not_pull() {
    // §4.1: the push schedule "provides an upper bound on the latency for
    // any page"; Pure-Pull has no such bound once the server saturates.
    let proto = MeasurementProtocol::quick();
    let push_cfg = small(Algorithm::PurePush);
    let program = analytic::build_program(&push_cfg);
    let push = run_steady_state(&push_cfg, &proto);
    assert!(
        push.max_response <= program.major_cycle() as f64 + 1.0,
        "push worst case {} exceeds the major cycle {}",
        push.max_response,
        program.major_cycle()
    );
    let mut pull_cfg = small(Algorithm::PurePull);
    pull_cfg.think_time_ratio = 250.0;
    let pull = run_steady_state(&pull_cfg, &proto);
    assert!(
        pull.max_response > push.max_response,
        "saturated pull worst case {} should exceed push's bound {}",
        pull.max_response,
        push.max_response
    );
}

#[test]
fn percentiles_are_ordered() {
    let r = run_steady_state(&small(Algorithm::Ipp), &MeasurementProtocol::quick());
    let (p50, p90, p99) = (
        r.p50_response.unwrap(),
        r.p90_response.unwrap(),
        r.p99_response.unwrap(),
    );
    assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    assert!(
        p99 <= r.max_response + 4.0,
        "p99 {p99} vs max {}",
        r.max_response
    );
}

#[test]
fn most_requested_discipline_runs_and_stays_bounded() {
    let mut cfg = small(Algorithm::Ipp);
    cfg.queue_discipline = QueueDiscipline::MostRequested;
    cfg.think_time_ratio = 100.0;
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert!(r.mean_response.is_finite() && r.mean_response > 0.0);
}

#[test]
fn zero_cache_client_still_converges() {
    let mut cfg = small(Algorithm::Ipp);
    cfg.cache_size = 0;
    cfg.offset = false; // offset needs cache_size <= slowest disk; moot at 0
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert_eq!(r.mc_hit_rate, 0.0);
    assert!(r.mean_response > 0.0);
}

#[test]
fn chop_with_ample_pull_bw_improves_over_full_broadcast() {
    // Experiment 3's headline at light load: removing cold pages from the
    // push schedule speeds up the broadcast when pulls can absorb them.
    let mk = |chop: usize| {
        let mut c = small(Algorithm::Ipp);
        c.pull_bw = 0.5;
        c.thres_perc = 0.35;
        c.think_time_ratio = 25.0;
        c.chop = chop;
        c
    };
    let proto = MeasurementProtocol::quick();
    let full = run_steady_state(&mk(0), &proto);
    let chopped = run_steady_state(&mk(50), &proto);
    assert!(
        chopped.mean_response < full.mean_response,
        "chopped {} vs full {}",
        chopped.mean_response,
        full.mean_response
    );
}

#[test]
fn noise_zero_and_identity_permutation_agree() {
    // Noise=0 must be *exactly* the identity workload: two configs that
    // differ only in the (unused) noise stream produce identical results.
    let mut a = small(Algorithm::PurePush);
    a.noise = 0.0;
    let r1 = run_steady_state(&a, &MeasurementProtocol::quick());
    let r2 = run_steady_state(&a, &MeasurementProtocol::quick());
    assert_eq!(r1.mean_response, r2.mean_response);
}
